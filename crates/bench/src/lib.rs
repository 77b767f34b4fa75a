//! `eof-bench` — the evaluation harness.
//!
//! One binary per table and figure of the paper (run them with
//! `cargo run --release -p eof-bench --bin <name>`):
//!
//! | binary | reproduces |
//! |---|---|
//! | `table1` | Table 1 — supported-target matrix |
//! | `table2` | Table 2 — previously-unknown bugs found |
//! | `table3` | Table 3 — full-system coverage comparison |
//! | `table4` | Table 4 — application-level coverage comparison |
//! | `fig7` | Figure 7 — full-system coverage growth curves |
//! | `fig8` | Figure 8 — application-level coverage growth curves |
//! | `overhead_mem` | §5.5.1 — instrumentation memory overhead |
//! | `overhead_exec` | §5.5.2 — instrumentation execution overhead |
//! | `ablate_inputs` | ablation: API-aware vs random-byte generation |
//! | `ablate_watchdogs` | ablation: watchdog set vs timeout-only |
//! | `ablate_validation` | ablation: spec validation gate on/off |
//! | `ablate_sched` | ablation: adjacency scheduling vs uniform |
//!
//! Every binary prints the paper-shaped table to stdout and writes
//! machine-readable CSV into `results/`. Campaign scale is controlled by
//! the `EOF_BENCH_HOURS` and `EOF_BENCH_REPS` environment variables
//! (defaults: the paper's 24 simulated hours × 5 repetitions); campaign
//! *parallelism* by `EOF_JOBS` (default: the host's available cores —
//! every campaign batch fans out over [`eof_core::FleetRunner`]).

use eof_core::report::{csv, curve_points_from_runs, text_table};
use eof_core::{CampaignResult, FleetRunner, FuzzerConfig};
use eof_telemetry as tel;
use std::path::Path;
use std::sync::Mutex;

/// Simulated hours per campaign (default: the paper's 24).
pub fn bench_hours() -> f64 {
    env_or("EOF_BENCH_HOURS", 24.0)
}

/// Repetitions per configuration (default: the paper's 5).
pub fn bench_reps() -> usize {
    env_or("EOF_BENCH_REPS", 5)
}

/// The environment knob `name` parsed as a `T`, or `default` when it is
/// unset or does not parse.
pub fn env_or<T: std::str::FromStr>(name: &str, default: T) -> T {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// The `rep`'th variation of a base configuration. The seed schedule is
/// part of the reproduction's determinism contract — identical inputs
/// must reproduce identical campaigns across serial and fleet runs.
pub fn rep_config(base: &FuzzerConfig, rep: usize) -> FuzzerConfig {
    let mut cfg = base.clone();
    cfg.seed = base.seed.wrapping_add(rep as u64 * 0x9e37);
    cfg.spec_noise = cfg.spec_noise.map(|n| n.wrapping_add(rep as u64));
    cfg
}

/// All `reps` variations of a base configuration, in repetition order.
pub fn rep_configs(base: &FuzzerConfig, reps: usize) -> Vec<FuzzerConfig> {
    (0..reps).map(|rep| rep_config(base, rep)).collect()
}

/// Run a batch of campaigns across the fleet (`EOF_JOBS` workers),
/// results in submission order. A panicking campaign aborts the bench —
/// the tables must never silently drop cells.
pub fn run_fleet(configs: Vec<FuzzerConfig>) -> Vec<CampaignResult> {
    let results: Vec<CampaignResult> = FleetRunner::from_env()
        .run(configs)
        .into_iter()
        .map(|r| r.unwrap_or_else(|e| panic!("{e}")))
        .collect();
    collect_telemetry(&results);
    results
}

/// Per-campaign telemetry registries collected from every batch the
/// bench helpers ran in this process, in submission order (batches in
/// call order). Empty unless `EOF_TRACE` recording is on, so the
/// accumulator costs nothing at default verbosity.
static TELEMETRY_PARTS: Mutex<Vec<tel::Registry>> = Mutex::new(Vec::new());

/// Fold a finished batch's telemetry (submission order) into the
/// process-wide accumulator behind [`export_telemetry`]. Called by
/// [`run_fleet`]; binaries that run campaigns outside the fleet helpers
/// (chaos, calibrate) call it themselves.
pub fn collect_telemetry(results: &[CampaignResult]) {
    let registries: Vec<tel::Registry> =
        results.iter().filter_map(|r| r.telemetry.clone()).collect();
    if !registries.is_empty() {
        TELEMETRY_PARTS.lock().unwrap().extend(registries);
    }
}

/// Fold registries recorded outside a campaign — e.g. the replay gate's
/// per-store recorders — into the accumulator behind
/// [`export_telemetry`].
pub fn collect_registries(registries: Vec<tel::Registry>) {
    if !registries.is_empty() {
        TELEMETRY_PARTS.lock().unwrap().extend(registries);
    }
}

/// Everything collected so far, merged in collection order. `None` when
/// no campaign recorded telemetry (`EOF_TRACE` off).
pub fn merged_telemetry() -> Option<tel::Merged> {
    let parts = TELEMETRY_PARTS.lock().unwrap();
    (!parts.is_empty()).then(|| tel::Merged::from_parts(parts.clone()))
}

/// Write the bench's telemetry artifact set into `results/` — the
/// Chrome/Perfetto trace, the JSONL event journal, the Prometheus text
/// summary, and the deterministic summary JSON — and return the
/// [`tel::TelemetrySummary`] for embedding in `BENCH_*.json` files.
/// No-op returning `None` when nothing was recorded.
pub fn export_telemetry(name: &str) -> Option<tel::TelemetrySummary> {
    let merged = merged_telemetry()?;
    let dir = Path::new("results");
    let _ = std::fs::create_dir_all(dir);
    let _ = std::fs::write(
        dir.join(format!("{name}.trace.json")),
        tel::chrome_trace(&merged),
    );
    let _ = std::fs::write(
        dir.join(format!("{name}.telemetry.jsonl")),
        tel::jsonl_journal(&merged),
    );
    let _ = std::fs::write(
        dir.join(format!("{name}.telemetry.prom")),
        tel::prometheus_text(&merged),
    );
    let summary = merged.summary();
    let _ = std::fs::write(
        dir.join(format!("{name}.telemetry.json")),
        summary.to_json(),
    );
    eprintln!(
        "[{name}] telemetry: {} campaign(s) merged -> results/{name}.trace.json + .telemetry.{{json,jsonl,prom}}",
        merged.parts.len()
    );
    Some(summary)
}

/// Run several bases × `reps` as ONE fleet batch — the whole table fans
/// out at once instead of filling cell by cell — and chunk the results
/// back per base, each in repetition order.
pub fn run_config_set(bases: &[FuzzerConfig], reps: usize) -> Vec<Vec<CampaignResult>> {
    let all: Vec<FuzzerConfig> = bases.iter().flat_map(|b| rep_configs(b, reps)).collect();
    let mut flat = run_fleet(all).into_iter();
    bases
        .iter()
        .map(|_| flat.by_ref().take(reps).collect())
        .collect()
}

/// One-line artifact-cache summary for bench logs.
pub fn cache_report() -> String {
    let s = eof_core::cache_stats();
    format!(
        "artifact cache: {} hits / {} misses ({:.0}% hit rate; images {}h/{}m, specs {}h/{}m)",
        s.hits(),
        s.misses(),
        s.hit_rate() * 100.0,
        s.image_hits,
        s.image_misses,
        s.spec_hits,
        s.spec_misses,
    )
}

/// Mean branches across repetitions.
pub fn mean_branches(results: &[CampaignResult]) -> f64 {
    if results.is_empty() {
        return 0.0;
    }
    results.iter().map(|r| r.branches as f64).sum::<f64>() / results.len() as f64
}

/// Write a text report and its CSV twin into `results/`, plus the
/// telemetry artifact set when `EOF_TRACE` recording was on.
pub fn write_outputs(name: &str, text: &str, headers: &[&str], rows: &[Vec<String>]) {
    let dir = Path::new("results");
    let _ = std::fs::create_dir_all(dir);
    let _ = std::fs::write(dir.join(format!("{name}.txt")), text);
    let _ = std::fs::write(dir.join(format!("{name}.csv")), csv(headers, rows));
    println!("{text}");
    println!("[written results/{name}.txt and results/{name}.csv]");
    eprintln!("[{name}] {}", cache_report());
    let _ = export_telemetry(name);
}

/// Format a mean with the paper's one-decimal style.
pub fn fmt1(v: f64) -> String {
    format!("{v:.1}")
}

/// Format an improvement percentage the way the paper parenthesises it.
pub fn fmt_impr(eof: f64, other: f64) -> String {
    if other == 0.0 {
        return "-".to_string();
    }
    format!("{:.1} (+{:.2}%)", other, (eof - other) / other * 100.0)
}

/// Curve rows (hours, mean, min, max) for a set of runs of one fuzzer.
pub fn curve_rows(label: &str, runs: &[CampaignResult]) -> Vec<Vec<String>> {
    let histories: Vec<&[eof_coverage::Snapshot]> =
        runs.iter().map(|r| r.history.as_slice()).collect();
    curve_points_from_runs(&histories)
        .into_iter()
        .map(|p| {
            vec![
                label.to_string(),
                format!("{:.2}", p.hours),
                format!("{:.1}", p.mean),
                p.min.to_string(),
                p.max.to_string(),
            ]
        })
        .collect()
}

/// Convenience re-export for binaries.
pub use eof_core::report::text_table as table;

/// Assemble and print a named report (helper shared by binaries).
pub fn emit(name: &str, headers: &[&str], rows: Vec<Vec<String>>) {
    let text = text_table(headers, &rows);
    write_outputs(name, &text, headers, &rows);
}
