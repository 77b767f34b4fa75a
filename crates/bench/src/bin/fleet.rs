//! Fleet benchmark: wall-clock of a Figure-7-shaped workload run
//! serially (1 job) vs across the fleet, with per-phase artifact-cache
//! hit rates and a byte-level identity check between the two phases.
//!
//! Writes the measurement to `BENCH_fleet.json` (repo root, i.e. the
//! working directory) plus the usual `results/` outputs. Scale knobs:
//! `EOF_FLEET_HOURS` (default 0.25 simulated hours per campaign) and
//! `EOF_FLEET_REPS` (default 3 repetitions per cell).

use eof_baselines::BaselineKind;
use eof_bench::{env_or, rep_configs};
use eof_core::{artifacts, cache_stats, CacheStats, CampaignResult, FleetRunner, FuzzerConfig};
use eof_rtos::OsKind;
use std::time::Instant;

/// Figure-7-shaped batch: four OS × fuzzer cells, several repetitions
/// each — the workload every table in the harness generalises.
fn workload(hours: f64, reps: usize) -> (Vec<(OsKind, BaselineKind)>, Vec<FuzzerConfig>) {
    // Two fuzzers share NuttX so the batch also exercises cross-cell
    // spec/image reuse, exactly like the real Figure-7 grid does.
    let cells = vec![
        (OsKind::NuttX, BaselineKind::Eof),
        (OsKind::NuttX, BaselineKind::EofNf),
        (OsKind::Zephyr, BaselineKind::Eof),
        (OsKind::FreeRtos, BaselineKind::Eof),
        (OsKind::RtThread, BaselineKind::Tardis),
    ];
    let configs = cells
        .iter()
        .flat_map(|&(os, kind)| {
            let mut cfg = kind.full_system_config(os, 42).expect("fleet cell");
            cfg.budget_hours = hours;
            rep_configs(&cfg, reps)
        })
        .collect();
    (cells, configs)
}

/// Run one phase from cold caches; returns wall seconds, the results in
/// submission order and the phase's cache counters.
fn run_phase(jobs: usize, configs: Vec<FuzzerConfig>) -> (f64, Vec<CampaignResult>, CacheStats) {
    artifacts::clear_caches();
    eof_core::reset_cache_stats();
    let start = Instant::now();
    let results: Vec<CampaignResult> = FleetRunner::new(jobs)
        .run(configs)
        .into_iter()
        .map(|r| r.unwrap_or_else(|e| panic!("{e}")))
        .collect();
    (start.elapsed().as_secs_f64(), results, cache_stats())
}

/// Order-sensitive fingerprint of everything a campaign reports.
fn fingerprint(results: &[CampaignResult]) -> String {
    results
        .iter()
        .map(|r| {
            format!(
                "branches={} execs={} bugs={:?} crashes={:?} stats={:?};",
                r.branches, r.stats.execs, r.bugs, r.crashes, r.stats
            )
        })
        .collect()
}

fn cache_json(s: &CacheStats) -> String {
    format!(
        "{{\"hits\": {}, \"misses\": {}, \"hit_rate\": {:.4}, \"image_hits\": {}, \"image_misses\": {}, \"spec_hits\": {}, \"spec_misses\": {}}}",
        s.hits(), s.misses(), s.hit_rate(), s.image_hits, s.image_misses, s.spec_hits, s.spec_misses
    )
}

/// Merged telemetry summary of one phase, campaigns in submission
/// order. `None` unless `EOF_TRACE` recording was on.
fn phase_summary(results: &[CampaignResult]) -> Option<eof_telemetry::TelemetrySummary> {
    let parts: Vec<eof_telemetry::Registry> =
        results.iter().filter_map(|r| r.telemetry.clone()).collect();
    (!parts.is_empty()).then(|| eof_telemetry::Merged::from_parts(parts).summary())
}

fn main() {
    let hours: f64 = env_or("EOF_FLEET_HOURS", 0.25);
    let reps: usize = env_or("EOF_FLEET_REPS", 3);
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    // What the environment asked for vs what the host can actually run
    // in parallel: oversubscribing cores never measures scaling, so the
    // parallel phase is clamped to the hardware and both figures land
    // in BENCH_fleet.json.
    let requested_jobs = FleetRunner::from_env().jobs().max(4);
    let parallel_jobs = requested_jobs.min(host_cores).max(1);

    let (cells, configs) = workload(hours, reps);
    eprintln!(
        "[fleet] {} configs ({} cells × {reps} reps, {hours}h each); host has {host_cores} cores",
        configs.len(),
        cells.len()
    );
    if parallel_jobs < requested_jobs {
        eprintln!(
            "[fleet] clamped parallel phase from {requested_jobs} requested jobs \
             to {parallel_jobs} (host has {host_cores} core(s))"
        );
    }

    eprintln!("[fleet] serial phase (1 job)...");
    let (serial_secs, serial_results, serial_cache) = run_phase(1, configs.clone());
    eprintln!("[fleet] parallel phase ({parallel_jobs} jobs)...");
    let (parallel_secs, parallel_results, parallel_cache) = run_phase(parallel_jobs, configs);

    let identical = fingerprint(&serial_results) == fingerprint(&parallel_results);
    let speedup = serial_secs / parallel_secs.max(1e-9);
    // Honest scaling requires a phase that was actually parallel: on a
    // 1-core runner the clamped "parallel" phase is the serial phase
    // again, and its speedup (~1.0) is not a scaling result.
    let speedup_valid = parallel_jobs > 1 && parallel_jobs <= host_cores;
    if !speedup_valid {
        eprintln!(
            "[fleet] WARNING: parallel phase ran {parallel_jobs} job(s) on {host_cores} \
             host core(s) — the measured speedup is not a valid scaling number \
             (speedup_valid=false in BENCH_fleet.json)"
        );
    }
    assert!(
        identical,
        "fleet determinism violated: serial and parallel phases disagree"
    );

    // Telemetry half of the determinism contract: the merged summary of
    // the 1-job phase must be byte-identical to the N-job phase's — the
    // fleet merges registries in submission order, so scheduling must
    // not leak into the observability data either.
    let serial_summary = phase_summary(&serial_results);
    let parallel_summary = phase_summary(&parallel_results);
    let telemetry_identical = match (&serial_summary, &parallel_summary) {
        (Some(a), Some(b)) => a.to_json() == b.to_json(),
        (None, None) => true,
        _ => false,
    };
    assert!(
        telemetry_identical,
        "fleet determinism violated: serial and parallel telemetry summaries disagree"
    );
    eof_bench::collect_telemetry(&serial_results);

    let cell_names: Vec<String> = cells
        .iter()
        .map(|(os, kind)| format!("\"{}/{}\"", os.display(), kind.display()))
        .collect();
    let telemetry_json = match (&serial_summary, &parallel_summary) {
        (Some(s), Some(p)) => format!(
            "{{\"identical\": {telemetry_identical}, \"serial\": {}, \"parallel\": {}}}",
            s.to_json(),
            p.to_json()
        ),
        _ => "null".to_string(),
    };
    let json = format!(
        "{{\n  \"workload\": {{\"cells\": [{}], \"reps\": {reps}, \"hours_per_campaign\": {hours}}},\n  \"host_cores\": {host_cores},\n  \"jobs\": {{\"requested\": {requested_jobs}, \"effective\": {parallel_jobs}}},\n  \"serial\": {{\"jobs\": 1, \"secs\": {serial_secs:.3}, \"cache\": {}}},\n  \"parallel\": {{\"jobs\": {parallel_jobs}, \"jobs_requested\": {requested_jobs}, \"secs\": {parallel_secs:.3}, \"cache\": {}}},\n  \"speedup\": {speedup:.2},\n  \"speedup_valid\": {speedup_valid},\n  \"identical_results\": {identical},\n  \"telemetry\": {telemetry_json}\n}}\n",
        cell_names.join(", "),
        cache_json(&serial_cache),
        cache_json(&parallel_cache),
    );
    std::fs::write("BENCH_fleet.json", &json).expect("write BENCH_fleet.json");
    println!("{json}");
    println!("[written BENCH_fleet.json]");

    let headers = [
        "phase",
        "jobs",
        "secs",
        "cache hits",
        "cache misses",
        "hit rate",
    ];
    let rows = vec![
        vec![
            "serial".to_string(),
            "1".to_string(),
            format!("{serial_secs:.3}"),
            serial_cache.hits().to_string(),
            serial_cache.misses().to_string(),
            format!("{:.0}%", serial_cache.hit_rate() * 100.0),
        ],
        vec![
            "parallel".to_string(),
            parallel_jobs.to_string(),
            format!("{parallel_secs:.3}"),
            parallel_cache.hits().to_string(),
            parallel_cache.misses().to_string(),
            format!("{:.0}%", parallel_cache.hit_rate() * 100.0),
        ],
        vec![
            "speedup".to_string(),
            String::new(),
            format!("{speedup:.2}x"),
            String::new(),
            String::new(),
            String::new(),
        ],
    ];
    eof_bench::emit("fleet", &headers, rows);
}
