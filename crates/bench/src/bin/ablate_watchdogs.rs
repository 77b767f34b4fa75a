//! Ablation: EOF's watchdog set (connection timeout + PC stall) vs a
//! Tardis-style timeout-only liveness check — measuring stalls recovered
//! and throughput retained on the stall-heavy targets.

use eof_bench::{bench_hours, bench_reps, run_config_set};
use eof_core::config::LivenessChannel;
use eof_core::FuzzerConfig;
use eof_rtos::OsKind;

fn main() {
    let hours = bench_hours();
    let reps = bench_reps();
    let oses = [OsKind::Zephyr, OsKind::NuttX, OsKind::RtThread];
    let labels = ["watchdogs", "timeout-15s"];
    // Both liveness arms of all three OSs fan out as one fleet batch.
    let bases: Vec<FuzzerConfig> = oses
        .into_iter()
        .flat_map(|os| {
            let mut wd_cfg = FuzzerConfig::eof(os, 42);
            wd_cfg.budget_hours = hours;
            let mut to_cfg = wd_cfg.clone();
            to_cfg.detection.liveness = LivenessChannel::Timeout { secs: 15 };
            [wd_cfg, to_cfg]
        })
        .collect();
    let mut per_arm = run_config_set(&bases, reps).into_iter();

    let mut rows = Vec::new();
    for os in oses {
        for label in labels {
            let rs = per_arm.next().expect("one result set per arm");
            let execs: u64 = rs.iter().map(|r| r.stats.execs).sum::<u64>() / reps as u64;
            let stalls: u64 = rs.iter().map(|r| r.stats.stalls).sum::<u64>() / reps as u64;
            let branches = eof_bench::mean_branches(&rs);
            eprintln!(
                "  {} / {label}: {execs} execs, {stalls} stalls",
                os.display()
            );
            rows.push(vec![
                os.display().to_string(),
                label.to_string(),
                execs.to_string(),
                stalls.to_string(),
                format!("{branches:.1}"),
            ]);
        }
    }
    let headers = [
        "Target OS",
        "Liveness",
        "Execs",
        "Stalls handled",
        "Branches",
    ];
    eof_bench::emit("ablate_watchdogs", &headers, rows);
}
