//! Chaos benchmark: full campaigns under seeded randomized fault
//! schedules, exercising the recovery supervisor's whole ladder.
//!
//! Each cell runs one OS under `EOF_CHAOS_FAULTS` injected faults
//! (flaky link, outages, brownouts, flash bit flips, kill-core, frozen
//! firmware, UART noise) spread over `EOF_CHAOS_HOURS` simulated hours,
//! then re-runs the identical seeds and asserts the resilience stats
//! reproduce bit-for-bit. Writes `BENCH_chaos.json` (repo root) with
//! per-rung recovery counts and MTTR, plus the usual `results/chaos.*`.

use eof_bench::env_or;
use eof_core::chaos::{run_chaos, ChaosConfig, ChaosReport};
use eof_core::supervisor::Rung;
use eof_core::FuzzerConfig;
use eof_rtos::OsKind;

struct Cell {
    os: OsKind,
    chaos_seed: u64,
    report: ChaosReport,
    reproducible: bool,
}

fn cell_config(os: OsKind, hours: f64, chaos_seed: u64, faults: usize) -> ChaosConfig {
    let mut base = FuzzerConfig::eof(os, 42 ^ chaos_seed);
    base.budget_hours = hours;
    base.snapshot_hours = (hours / 8.0).max(0.01);
    // `EOF_PERSIST_DIR` turns the bench into a persistence torture test:
    // each cell writes a campaign store while faults fly, and run_chaos
    // audits it for losses (the nightly job then replays these stores).
    if let Ok(dir) = std::env::var("EOF_PERSIST_DIR") {
        base.persist =
            Some(std::path::Path::new(&dir).join(format!("chaos-{}-{chaos_seed}", os.short())));
    }
    ChaosConfig {
        base,
        chaos_seed,
        faults,
    }
}

fn rungs_json(report: &ChaosReport) -> String {
    let r = report.resilience();
    let fields: Vec<String> = Rung::ALL
        .iter()
        .map(|rung| {
            format!(
                "\"{}\": {{\"attempts\": {}, \"successes\": {}}}",
                rung.name(),
                r.rung_attempts[rung.index()],
                r.rung_successes[rung.index()]
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn mix_json(report: &ChaosReport) -> String {
    let fields: Vec<String> = report
        .fault_counts
        .iter()
        .map(|(kind, count)| format!("\"{kind}\": {count}"))
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn cell_json(cell: &Cell) -> String {
    let r = cell.report.resilience();
    let violations: Vec<String> = cell
        .report
        .violations
        .iter()
        .map(|v| format!("\"{}\"", v.replace('"', "'")))
        .collect();
    format!(
        "{{\"os\": \"{}\", \"chaos_seed\": {}, \"planned_faults\": {}, \"fault_mix\": {}, \"episodes\": {}, \"recovered\": {}, \"manual_interventions\": {}, \"rungs\": {}, \"backoff_cycles\": {}, \"recovery_cycles\": {}, \"max_recovery_cycles\": {}, \"mttr_secs\": {:.3}, \"failed_syncs\": {}, \"link\": {{\"attempts\": {}, \"retries\": {}, \"recovered\": {}, \"exhausted\": {}, \"backoff_cycles\": {}}}, \"branches\": {}, \"execs\": {}, \"violations\": [{}], \"reproducible\": {}}}",
        cell.os.display(),
        cell.chaos_seed,
        cell.report.planned_faults,
        mix_json(&cell.report),
        r.episodes,
        r.recovered(),
        r.manual_interventions,
        rungs_json(&cell.report),
        r.backoff_cycles,
        r.recovery_cycles,
        r.max_recovery_cycles,
        r.mttr_secs(),
        r.failed_syncs,
        r.link.attempts,
        r.link.retries,
        r.link.recovered,
        r.link.exhausted,
        r.link.backoff_cycles,
        cell.report.result.branches,
        cell.report.result.stats.execs,
        violations.join(", "),
        cell.reproducible,
    )
}

fn main() {
    let hours: f64 = env_or("EOF_CHAOS_HOURS", 2.0);
    let faults: usize = env_or("EOF_CHAOS_FAULTS", 60);
    let oses = [OsKind::FreeRtos, OsKind::Zephyr, OsKind::NuttX];
    let chaos_seeds = [11u64, 23u64];

    let mut cells = Vec::new();
    for &os in &oses {
        for &chaos_seed in &chaos_seeds {
            eprintln!(
                "[chaos] {} seed {chaos_seed}: {faults} faults over {hours}h...",
                os.display()
            );
            let cfg = cell_config(os, hours, chaos_seed, faults);
            let report = run_chaos(&cfg);
            // The determinism contract: identical seeds → identical
            // schedules, campaigns, resilience stats — and, when
            // recording is on, identical telemetry summaries.
            let replay = run_chaos(&cfg);
            let telemetry_reproducible = match (&report.result.telemetry, &replay.result.telemetry)
            {
                (Some(a), Some(b)) => a.summary().to_json() == b.summary().to_json(),
                (None, None) => true,
                _ => false,
            };
            let reproducible = replay.result.resilience == report.result.resilience
                && replay.result.branches == report.result.branches
                && replay.result.stats.execs == report.result.stats.execs
                && telemetry_reproducible;
            assert!(
                report.violations.is_empty(),
                "{} seed {chaos_seed}: invariant violations: {:?}",
                os.display(),
                report.violations
            );
            assert!(
                reproducible,
                "{} seed {chaos_seed}: chaos campaign is not reproducible",
                os.display()
            );
            cells.push(Cell {
                os,
                chaos_seed,
                report,
                reproducible,
            });
        }
    }

    let total_episodes: u64 = cells.iter().map(|c| c.report.resilience().episodes).sum();
    let total_recovered: u64 = cells
        .iter()
        .map(|c| c.report.resilience().recovered())
        .sum();
    let total_manual: u64 = cells
        .iter()
        .map(|c| c.report.resilience().manual_interventions)
        .sum();
    let all_ok = cells
        .iter()
        .all(|c| c.report.violations.is_empty() && c.reproducible);

    // Merged telemetry summary across the cells, in cell order. Absent
    // (JSON null) unless `EOF_TRACE` recording was on; the summary holds
    // no wall-clock data, so the file stays byte-for-byte reproducible
    // with telemetry enabled.
    for cell in &cells {
        eof_bench::collect_telemetry(std::slice::from_ref(&cell.report.result));
    }
    let telemetry_json = eof_bench::merged_telemetry()
        .map(|m| m.summary().to_json())
        .unwrap_or_else(|| "null".to_string());

    let cell_jsons: Vec<String> = cells
        .iter()
        .map(|c| format!("    {}", cell_json(c)))
        .collect();
    let snapshot_mode = FuzzerConfig::eof(oses[0], 0).snapshot;
    let json = format!(
        "{{\n  \"config\": {{\"hours\": {hours}, \"faults_per_cell\": {faults}, \"snapshot\": {snapshot_mode}, \"chaos_seeds\": [{}], \"oses\": [{}]}},\n  \"cells\": [\n{}\n  ],\n  \"total\": {{\"episodes\": {total_episodes}, \"recovered\": {total_recovered}, \"manual_interventions\": {total_manual}}},\n  \"all_invariants_hold\": {all_ok},\n  \"telemetry\": {telemetry_json}\n}}\n",
        chaos_seeds.iter().map(|s| s.to_string()).collect::<Vec<_>>().join(", "),
        oses.iter().map(|o| format!("\"{}\"", o.display())).collect::<Vec<_>>().join(", "),
        cell_jsons.join(",\n"),
    );
    std::fs::write("BENCH_chaos.json", &json).expect("write BENCH_chaos.json");
    println!("{json}");
    println!("[written BENCH_chaos.json]");

    let headers = [
        "OS",
        "seed",
        "faults",
        "episodes",
        "recovered",
        "manual",
        "mttr (s)",
        "failed syncs",
        "link retries",
        "branches",
    ];
    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|c| {
            let r = c.report.resilience();
            vec![
                c.os.display().to_string(),
                c.chaos_seed.to_string(),
                c.report.planned_faults.to_string(),
                r.episodes.to_string(),
                r.recovered().to_string(),
                r.manual_interventions.to_string(),
                format!("{:.2}", r.mttr_secs()),
                r.failed_syncs.to_string(),
                r.link.retries.to_string(),
                c.report.result.branches.to_string(),
            ]
        })
        .collect();
    eof_bench::emit("chaos", &headers, rows);
}
