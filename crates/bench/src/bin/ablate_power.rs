//! Ablation of the §6 extension: power-rail liveness vs the PC-stall
//! watchdog vs a bare 15-second timeout, on the stall-heavy targets.
//! Measures stalls recovered, throughput retained and coverage reached.

use eof_bench::{bench_hours, bench_reps, run_config_set};
use eof_core::config::LivenessChannel;
use eof_core::FuzzerConfig;
use eof_rtos::OsKind;

fn main() {
    let hours = bench_hours();
    let reps = bench_reps();
    let oses = [OsKind::Zephyr, OsKind::NuttX];
    let labels = ["pc-stall", "power-rail", "timeout-15s"];
    // Three liveness channels × two OSs, submitted as one fleet batch.
    let bases: Vec<FuzzerConfig> = oses
        .into_iter()
        .flat_map(|os| {
            let mut pc_cfg = FuzzerConfig::eof(os, 42);
            pc_cfg.budget_hours = hours;
            let mut pw_cfg = pc_cfg.clone();
            pw_cfg.detection.liveness = LivenessChannel::Power;
            let mut to_cfg = pc_cfg.clone();
            to_cfg.detection.liveness = LivenessChannel::Timeout { secs: 15 };
            [pc_cfg, pw_cfg, to_cfg]
        })
        .collect();
    let mut per_channel = run_config_set(&bases, reps).into_iter();

    let mut rows = Vec::new();
    for os in oses {
        for label in labels {
            let rs = per_channel.next().expect("one result set per channel");
            let execs: u64 = rs.iter().map(|r| r.stats.execs).sum::<u64>() / reps as u64;
            let stalls: u64 = rs.iter().map(|r| r.stats.stalls).sum::<u64>() / reps as u64;
            let branches = eof_bench::mean_branches(&rs);
            eprintln!(
                "  {} / {label}: {execs} execs, {stalls} stalls, {branches:.1} branches",
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
        "Liveness channel",
        "Execs",
        "Stalls recovered",
        "Branches",
    ];
    eof_bench::emit("ablate_power", &headers, rows);
}
