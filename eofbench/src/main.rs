//! `eofbench` — end-to-end and per-layer benchmark of the EOF
//! reproduction. See `eofbench/README.md` for the workloads, metrics
//! and the layer → metric → workload map.
//!
//! ```text
//! eofbench --workload <api_fuzz|driver_cmplog|checkpoint_fabric>
//!          --seed <u64> --seconds <n> --trace <0|1>
//! ```
//!
//! `--trace 0` repeats the workload for `--seconds` and prints the
//! end-to-end metrics (host medians over the passes, simulated values
//! that every pass must reproduce). `--trace 1` prints the per-layer
//! metrics instead. The last stdout line is one JSON object.

mod probe;
mod report;
mod stats;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use eof_core::artifacts::clear_caches;
use eof_core::{run_campaign_recorded, run_serial, CampaignResult};
use eof_telemetry::TelemetrySummary;
use report::{Metric, Outcome};
use stats::median;
use workload::{fabric_faults, run_pass, CellSim, Pass, PassSim, UnitTime, Workload};

/// Passes a run makes even when one pass outlasts `--seconds`.
const MIN_PASSES: usize = 3;

/// Environment knobs the program reads for its defaults. The benchmark
/// sets every one of them in code; clearing them at start-up makes sure
/// none reaches a code path the benchmark does not configure (the fabric
/// and the replay helpers build configs from defaults internally).
const PROGRAM_ENV: [&str; 6] = [
    "EOF_VECTORED",
    "EOF_SNAPSHOT",
    "EOF_CMPLOG",
    "EOF_COV",
    "EOF_TRACE",
    "EOF_JOBS",
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: u64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if s == 0 {
                    return Err("--seconds must be at least 1".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    for var in PROGRAM_ENV {
        // Single-threaded at this point: nothing else reads the
        // environment concurrently.
        std::env::remove_var(var);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("eofbench: {e}");
            return ExitCode::from(2);
        }
    };
    let work = PathBuf::from(".eofbench_work").join(std::process::id().to_string());
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("eofbench: cannot create {}: {e}", work.display());
        return ExitCode::from(2);
    }
    let outcome = if args.trace {
        traced(&args, &work)
    } else {
        untraced(&args, &work)
    };
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".eofbench_work");
    report::print(&args.workload, args.seed, &outcome);
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        for m in &outcome.mismatches {
            eprintln!("eofbench: MISMATCH: {m}");
        }
        ExitCode::from(1)
    }
}

/// Repeat the workload for `--seconds` (at least [`MIN_PASSES`] times)
/// and report the end-to-end metrics.
fn untraced(args: &Args, work: &Path) -> Outcome {
    let cells = args.workload.cells(args.seed);
    let start = Instant::now();
    let mut passes: Vec<Pass> = vec![run_pass(args.workload, &cells, work)];
    // The workload's peak memory is the first pass's: later passes redo
    // the same work, and only allocator fragmentation could raise it.
    let peak_rss_mb = report::peak_rss_mb();
    while passes.len() < MIN_PASSES || start.elapsed().as_secs_f64() < args.seconds as f64 {
        passes.push(run_pass(args.workload, &cells, work));
    }
    let mut outcome = Outcome::default();
    let first = &passes[0];
    for (i, p) in passes.iter().enumerate().skip(1) {
        if p.sim != first.sim {
            outcome.mismatches.push(format!(
                "pass {i} did not reproduce pass 0: {:?} vs {:?}",
                p.sim, first.sim
            ));
        }
    }
    // Outside the timed passes: the serial reference each fabric must
    // equal.
    for (g, grid) in args.workload.grids(&cells).into_iter().enumerate() {
        let serial = run_serial(grid);
        for p in &passes {
            outcome
                .mismatches
                .extend(fabric_faults(&p.fabric[g], &serial));
        }
    }
    for p in &passes {
        outcome.attempted += p.sim.execs();
        outcome.failed += p.sim.failed_ops();
    }
    // Host times: each unit's median over the passes, summed over units —
    // one pass with every cell at its typical cost, so a burst of host
    // noise during one cell of one pass does not move the result.
    let unit_median = |f: fn(&UnitTime) -> f64| -> f64 {
        (0..passes[0].units.len())
            .map(|u| median(&passes.iter().map(|p| f(&p.units[u])).collect::<Vec<_>>()))
            .sum()
    };
    let sim = &first.sim;
    let execs = sim.execs() as f64;
    let sim_hours = args.workload.cell_hours() * cells.len() as f64;
    outcome.metrics = vec![
        Metric::new("wall_s", unit_median(|u| u.wall_s), "s"),
        Metric::new("setup_s", unit_median(|u| u.setup_s), "s"),
        Metric::new(
            "wall_execs_per_s",
            execs / unit_median(|u| u.fuzz_s),
            "execs/s",
        ),
        Metric::new("sim_execs_per_hour", execs / sim_hours, "execs/sim-h"),
        Metric::new("branches", sim.branches as f64, "edges"),
        Metric::new("bugs", sim.bugs().len() as f64, "count"),
        Metric::new("peak_rss_mb", peak_rss_mb, "MiB"),
        Metric::new(
            "ok_op_ratio",
            1.0 - sim.failed_ops() as f64 / execs.max(1.0),
            "ratio",
        ),
    ];
    outcome.notes.push(format!(
        "passes={} execs/pass={} restorations/pass={} wall_s/pass={:?}",
        passes.len(),
        sim.execs(),
        sim.restorations(),
        passes
            .iter()
            .map(|p| (p.total().wall_s * 1e3).round() / 1e3)
            .collect::<Vec<_>>()
    ));
    outcome
}

/// The traced run: recorded reruns of every cell (checked against an
/// untraced run of the same cells), the R metrics they return, and the
/// T probes.
fn traced(args: &Args, work: &Path) -> Outcome {
    let w = args.workload;
    let cells = w.cells(args.seed);
    let mut outcome = Outcome::default();

    // The untraced reference pass.
    let pass = run_pass(w, &cells, work);
    let total = pass.total();
    // The fabric against its serial reference: on the fabric workload each
    // grid of the reference pass (the first one times `fabric.overhead_x`),
    // elsewhere a one-cell grid of the first cell. The fabric's untraced
    // cell loop is `run_serial`, which the recorded reruns are compared with.
    let (fabric_report, fabric_s, serial_s, untraced_wall, fuzz_s);
    if pass.fabric.is_empty() {
        let probe = probe::probe_fabric(&cells[..1], &work.join("fabric"));
        outcome
            .mismatches
            .extend(fabric_faults(&probe.report, &probe.serial));
        (fabric_s, serial_s) = (probe.fabric_s, probe.serial_s);
        fabric_report = probe.report;
        (untraced_wall, fuzz_s) = (total.wall_s, total.fuzz_s);
    } else {
        let mut serial_total = 0.0;
        let mut first_serial = 0.0;
        clear_caches();
        for (g, grid) in w.grids(&cells).into_iter().enumerate() {
            let t = Instant::now();
            let serial = run_serial(grid);
            let secs = t.elapsed().as_secs_f64();
            serial_total += secs;
            if g == 0 {
                first_serial = secs;
            }
            outcome
                .mismatches
                .extend(fabric_faults(&pass.fabric[g], &serial));
        }
        (fabric_s, serial_s) = (pass.units[0].fuzz_s, first_serial);
        fabric_report = pass.fabric.into_iter().next().expect("one grid at least");
        (untraced_wall, fuzz_s) = (serial_total, serial_total);
    }
    let reference = pass.sim;

    // Recorded reruns, artifact cache cold like the untraced pass.
    clear_caches();
    let t = Instant::now();
    let recorded: Vec<CampaignResult> = cells
        .iter()
        .map(|c| run_campaign_recorded(c.clone()))
        .collect();
    let traced_wall = t.elapsed().as_secs_f64();
    check_reproduced(&reference, &recorded, &mut outcome.mismatches);
    for r in &recorded {
        outcome.attempted += r.stats.execs;
        outcome.failed += r.stats.failed_syncs + r.resilience.link.exhausted;
    }
    // Merged in cell order.
    let summary = eof_telemetry::Merged::from_parts(
        recorded
            .iter()
            .map(|r| {
                r.telemetry
                    .clone()
                    .expect("recorded campaign carries telemetry")
            })
            .collect(),
    )
    .summary();

    // T probes on one cell per distinct setting of the workload.
    let probe_cells = &cells[..cells.len() / w.replicates() as usize];
    let probed = probe::run_probes(probe_cells, work);
    outcome.mismatches.extend(probed.mismatches.iter().cloned());

    let mut metrics = Vec::new();
    let mut notes = Vec::new();
    probed.timings.emit(&mut metrics, &mut notes);
    metrics.extend(probe::recorded_metrics(&summary));
    let fabric_x = fabric_s / serial_s;
    metrics.extend([
        Metric::new("wire.prog_bytes", probed.prog_bytes, "bytes"),
        Metric::new("cov.edges_per_exec", probed.edges_per_exec, "edges/exec"),
        Metric::new("fabric.overhead_x", fabric_x, "x"),
        Metric::new(
            "fabric.leases",
            fabric_report.leases_granted as f64,
            "count",
        ),
        Metric::new(
            "fabric.reassignments",
            fabric_report.reassignments.len() as f64,
            "count",
        ),
        Metric::new("trace.overhead_s", traced_wall - untraced_wall, "s"),
    ]);

    layer_split(
        w,
        &summary,
        &probed.timings,
        fuzz_s,
        fabric_x,
        &mut metrics,
        &mut notes,
    );
    notes.push(format!(
        "traced wall {traced_wall:.3}s vs untraced {untraced_wall:.3}s"
    ));
    outcome.metrics = metrics;
    outcome.notes = notes;
    outcome
}

/// The layer split the workload is predicted to show: each layer's
/// typical call cost (T median) times the campaign's own call count (R),
/// against the untraced fuzz phase `fuzz_s`. Restores run inside
/// `run_one`, so its cost includes them. Emits `share.*` and notes the
/// verdict; a failed prediction is reported, not an error.
fn layer_split(
    w: Workload,
    summary: &TelemetrySummary,
    t: &probe::Timings,
    fuzz_s: f64,
    fabric_x: f64,
    metrics: &mut Vec<Metric>,
    notes: &mut Vec<String>,
) {
    let count = |name: &str| summary.counters.get(name).copied().unwrap_or(0) as f64;
    let (execs, restores) = (count("fuzz.execs"), count("fuzz.restorations"));
    let restore_cost = restores * t.restore.p50_secs();
    let run_one_cost = execs * t.run_one.p50_secs() + restore_cost;
    let (mutate, decode) = if w == Workload::DriverCmplog {
        (&t.mutate_op, &t.trace_decode)
    } else {
        (&t.mutate, &t.ring_decode)
    };
    let others = [
        (
            "gen",
            execs * (t.generate.p50_secs() + mutate.p50_secs()) / 2.0,
        ),
        ("wire", execs * t.encode.p50_secs()),
        ("dap upload", execs * t.run_txn.p50_secs()),
        ("rtos", execs * t.cont.p50_secs()),
        ("cov", execs * (decode.p50_secs() + t.merge.p50_secs())),
    ];
    metrics.push(Metric::new("share.restore", restore_cost / fuzz_s, "ratio"));
    metrics.push(Metric::new("share.run_one", run_one_cost / fuzz_s, "ratio"));
    notes.push(format!(
        "fuzz phase {fuzz_s:.3}s (untraced); restore {restore_cost:.3}s, run_one {run_one_cost:.3}s, {}",
        others
            .iter()
            .map(|(n, c)| format!("{n} {c:.3}s"))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    let (prediction, holds) = match w {
        Workload::DriverCmplog => (
            "restorations x restore.snapshot_ms is the largest layer cost",
            others.iter().all(|(_, c)| restore_cost > *c),
        ),
        Workload::ApiFuzz => (
            "restore share small (<0.1) and run_one dominant (>0.5)",
            restore_cost / fuzz_s < 0.1 && run_one_cost / fuzz_s > 0.5,
        ),
        Workload::CheckpointFabric => ("fabric.overhead_x > 1", fabric_x > 1.0),
    };
    let verdict = if holds { "holds" } else { "FAILS" };
    notes.push(format!("prediction: {prediction}: {verdict}"));
}

/// Each recorded rerun must reproduce the untraced run of its cell:
/// execs, branches, bugs and, where reported, fuzz-phase cycles.
fn check_reproduced(reference: &PassSim, recorded: &[CampaignResult], out: &mut Vec<String>) {
    if reference.cells.len() != recorded.len() {
        out.push(format!(
            "{} untraced cells vs {} recorded reruns",
            reference.cells.len(),
            recorded.len()
        ));
        return;
    }
    for (i, (want, r)) in reference.cells.iter().zip(recorded).enumerate() {
        let cycles = r
            .telemetry
            .as_ref()
            .and_then(|t| t.span_aggs.get("campaign.fuzz"))
            .map(|s| s.total_cycles);
        let got = CellSim {
            execs: r.stats.execs,
            branches: r.branches,
            bugs: r.bugs.iter().copied().collect(),
            fuzz_cycles: want.fuzz_cycles.and(cycles),
            restorations: want.restorations.and(Some(r.stats.restorations)),
            failed_ops: r.stats.failed_syncs + r.resilience.link.exhausted,
        };
        if &got != want {
            out.push(format!(
                "cell {i}: recorded rerun {got:?} differs from untraced {want:?}"
            ));
        }
    }
}
