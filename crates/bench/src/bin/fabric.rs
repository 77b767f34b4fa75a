//! Fabric benchmark: the fault-tolerant distributed campaign fabric
//! end to end — serial reference vs N-worker fabric (the determinism
//! gate), a seeded worker-fault chaos schedule (kills, stalls, torn
//! writes), and a *real multi-process* mode in which this binary
//! re-executes itself as worker processes, one of which dies after its
//! checkpoint and one of which hangs until the coordinator kills it.
//!
//! Writes `BENCH_fabric.json` (repo root) plus the usual `results/`
//! outputs. Scale knobs: `EOF_FABRIC_HOURS` (default 0.06 simulated
//! hours per cell), `EOF_FABRIC_WORKERS` (default 4, clamped to host
//! cores), `EOF_FABRIC_FAULTS` (default 4 chaos faults) and
//! `EOF_FABRIC_SEED` (default 23, the chaos schedule seed).

use eof_bench::env_or;
use eof_core::fabric::{advance_cell, slice_target_hours, LEASE_ROUNDS};
use eof_core::{
    diff_against_serial, fabric_chaos_plan, fabric_grid, run_fabric, run_serial, FabricConfig,
    FabricFault,
};
use eof_rtos::OsKind;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

const OSES: [OsKind; 4] = [
    OsKind::FreeRtos,
    OsKind::RtThread,
    OsKind::NuttX,
    OsKind::Zephyr,
];

/// The cells the multi-process demonstration drives (derived the same
/// way the in-process grid derives its cells, so the results are
/// directly comparable): one cell whose worker crashes, one whose
/// worker hangs.
const PROCESS_OSES: [OsKind; 2] = [OsKind::FreeRtos, OsKind::Zephyr];

// ---------------------------------------------------------------------------
// Child mode: one checkpoint slice in its own OS process
// ---------------------------------------------------------------------------

/// `EOF_FABRIC_CHILD=os:seed:hours:target_hours:dir` turns an
/// invocation of this binary into a fabric worker process: advance the
/// cell's checkpoint store to `target_hours` and write a `slice.report`
/// file the coordinator parses. `EOF_FABRIC_CHILD_ABORT=1` makes the
/// child die (abort) right after its checkpoint lands — a crash the
/// coordinator must survive; `EOF_FABRIC_CHILD_HANG=1` makes it hang
/// without dying — a worker the coordinator must detect and kill.
fn child_main(spec: &str) -> ! {
    let parts: Vec<&str> = spec.split(':').collect();
    assert_eq!(parts.len(), 5, "bad child spec {spec:?}");
    let os = OsKind::ALL
        .into_iter()
        .find(|o| o.short() == parts[0])
        .unwrap_or_else(|| panic!("unknown os {:?}", parts[0]));
    let seed: u64 = parts[1].parse().expect("child seed");
    let hours: f64 = parts[2].parse().expect("child hours");
    let target: f64 = parts[3].parse().expect("child target");
    let dir = PathBuf::from(parts[4]);

    let config = fabric_grid(&[os], &[seed], hours, false).remove(0);
    let report = advance_cell(&config, &dir, target);

    if std::env::var("EOF_FABRIC_CHILD_ABORT").is_ok() {
        // Die *after* the checkpoint landed, *before* reporting — the
        // worst ordinary crash: work persisted, coordinator unnotified.
        std::process::abort();
    }
    if std::env::var("EOF_FABRIC_CHILD_HANG").is_ok() {
        // Hang without dying; the coordinator's timeout must kill us.
        std::thread::sleep(Duration::from_secs(600));
    }

    let mut lines = vec![
        format!("consumed_hours = {}", report.consumed_hours),
        format!("edges = {}", report.coverage_edges.len()),
        format!("bugs = {:?}", report.bugs),
        format!("checkpoint_skips = {}", report.checkpoint_skips),
        format!("checkpoints_discarded = {}", report.checkpoints_discarded),
        format!("prefix_verified = {}", report.prefix_verified),
        format!("finished = {}", report.finished.is_some()),
    ];
    if let Some(done) = &report.finished {
        lines.push(format!("branches = {}", done.branches));
        lines.push(format!("execs = {}", done.execs));
        if let Some(summary) = &done.telemetry {
            lines.push(format!("telemetry = {}", summary.to_json()));
        }
    }
    std::fs::write(dir.join("slice.report"), lines.join("\n") + "\n")
        .expect("child writes slice.report");
    std::process::exit(0);
}

/// One parsed child report.
#[derive(Default)]
struct ChildReport {
    bugs_debug: String,
    prefix_verified: usize,
    finished: bool,
    branches: usize,
    execs: u64,
    telemetry_json: Option<String>,
}

fn parse_child_report(dir: &Path) -> ChildReport {
    let text = std::fs::read_to_string(dir.join("slice.report")).expect("child report exists");
    let mut report = ChildReport::default();
    for line in text.lines() {
        let Some((key, value)) = line.split_once(" = ") else {
            continue;
        };
        match key {
            "bugs" => report.bugs_debug = value.to_string(),
            "prefix_verified" => report.prefix_verified = value.parse().unwrap_or(0),
            "finished" => report.finished = value == "true",
            "branches" => report.branches = value.parse().unwrap_or(0),
            "execs" => report.execs = value.parse().unwrap_or(0),
            "telemetry" => report.telemetry_json = Some(value.to_string()),
            _ => {}
        }
    }
    report
}

/// What the multi-process demonstration observed.
struct ProcessMode {
    children_spawned: usize,
    deaths_observed: usize,
    hangs_killed: usize,
    resumes_prefix_verified: usize,
    final_matches_serial: bool,
    telemetry_parts: usize,
    telemetry_json: Option<String>,
    secs: f64,
}

/// Drive the demonstration cells across real worker processes. Each
/// cell runs a 2-slice checkpoint ladder; the first attempt at the
/// cell's faulted slice either aborts right after checkpointing
/// (crash: work persisted, coordinator unnotified) or hangs until the
/// coordinator's timeout kills it. Every replacement is a *fresh
/// process* resuming from the on-disk checkpoint, and each cell's
/// final state must match the serial in-process run of that cell.
fn run_process_mode(hours: f64, root: &Path) -> ProcessMode {
    let start = Instant::now();
    let exe = std::env::current_exe().expect("current_exe");
    let slices = 2usize;
    let mut mode = ProcessMode {
        children_spawned: 0,
        deaths_observed: 0,
        hangs_killed: 0,
        resumes_prefix_verified: 0,
        final_matches_serial: true,
        telemetry_parts: 0,
        telemetry_json: None,
        secs: 0.0,
    };
    let mut merged_telemetry: Option<eof_telemetry::TelemetrySummary> = None;

    for (cell_idx, os) in PROCESS_OSES.into_iter().enumerate() {
        let config = fabric_grid(&[os], &[7], hours, false).remove(0);
        let dir = root.join(format!("process-cell-{}", os.short()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create process-mode dir");
        let spec = |slice: usize| {
            format!(
                "{}:{}:{}:{}:{}",
                os.short(),
                7,
                hours,
                slice_target_hours(hours, slices, slice),
                dir.display()
            )
        };
        let spawn = |slice: usize, fault: Option<&str>| {
            let mut cmd = std::process::Command::new(&exe);
            cmd.env("EOF_FABRIC_CHILD", spec(slice))
                .env("EOF_TRACE", "1")
                .stdout(std::process::Stdio::null())
                .stderr(std::process::Stdio::null());
            if let Some(var) = fault {
                cmd.env(var, "1");
            }
            cmd.spawn().expect("spawn fabric worker process")
        };
        // Cell 0's worker crashes after its first checkpoint; cell 1's
        // worker hangs during its final slice.
        let (fault_slice, fault_var) = match cell_idx {
            0 => (0usize, "EOF_FABRIC_CHILD_ABORT"),
            _ => (1usize, "EOF_FABRIC_CHILD_HANG"),
        };

        let mut cell_report = ChildReport::default();
        for slice in 0..slices {
            if slice == fault_slice {
                // Clear the previous slice's report first: its absence
                // is what distinguishes "hung after checkpointing" from
                // "already reported" in the poll below.
                let _ = std::fs::remove_file(dir.join("slice.report"));
                let mut child = spawn(slice, Some(fault_var));
                mode.children_spawned += 1;
                if fault_var == "EOF_FABRIC_CHILD_HANG" {
                    // Lease-expiry analogue: poll for an exit that will
                    // never come, then kill the hung worker. A report
                    // file is the heartbeat; a checkpoint with no
                    // report means the worker wedged after its work.
                    let deadline = Instant::now() + Duration::from_secs(120);
                    loop {
                        match child.try_wait().expect("try_wait") {
                            Some(_) => break,
                            None if Instant::now() >= deadline => {
                                child.kill().expect("kill hung worker");
                                let _ = child.wait();
                                break;
                            }
                            None if dir.join("manifest.eof").exists()
                                && !dir.join("slice.report").exists() =>
                            {
                                std::thread::sleep(Duration::from_millis(200));
                                child.kill().expect("kill hung worker");
                                let _ = child.wait();
                                break;
                            }
                            None => std::thread::sleep(Duration::from_millis(50)),
                        }
                    }
                    mode.hangs_killed += 1;
                } else {
                    let status = child.wait().expect("wait for worker");
                    assert!(!status.success(), "aborting child exited cleanly");
                    mode.deaths_observed += 1;
                }
                let _ = std::fs::remove_file(dir.join("slice.report"));

                // Reassignment: a fresh process resumes the checkpoint.
                let mut replacement = spawn(slice, None);
                mode.children_spawned += 1;
                let status = replacement.wait().expect("wait for replacement");
                assert!(status.success(), "replacement worker failed");
                let report = parse_child_report(&dir);
                if report.prefix_verified > 0 {
                    mode.resumes_prefix_verified += 1;
                }
                cell_report = report;
            } else {
                let mut child = spawn(slice, None);
                mode.children_spawned += 1;
                let status = child.wait().expect("wait for worker");
                assert!(status.success(), "healthy worker failed");
                cell_report = parse_child_report(&dir);
            }
        }

        if let Some(json) = &cell_report.telemetry_json {
            // The cross-process merge: each cell's summary comes back
            // as JSON over the filesystem, never as shared memory.
            let part =
                eof_telemetry::TelemetrySummary::from_json(json).expect("child telemetry parses");
            mode.telemetry_parts += 1;
            merged_telemetry = Some(match merged_telemetry.take() {
                None => part,
                Some(mut acc) => {
                    acc.absorb(&part);
                    acc
                }
            });
        }

        // The gate, across process boundaries: the surviving ladder
        // must land exactly the serial in-process campaign's results.
        assert!(cell_report.finished, "{}: cell never finished", os.short());
        let serial = run_serial(std::slice::from_ref(&config));
        let matches = cell_report.bugs_debug == format!("{:?}", serial.bugs)
            && cell_report.branches == serial.cells[0].0
            && cell_report.execs == serial.cells[0].1;
        assert!(
            matches,
            "{}: process-mode results diverged from serial: {} vs {:?}",
            os.short(),
            cell_report.bugs_debug,
            serial.bugs
        );
        mode.final_matches_serial &= matches;
    }

    assert!(
        mode.resumes_prefix_verified >= 1,
        "at least the post-crash replacement must prefix-verify its \
         predecessor's checkpoint"
    );
    mode.telemetry_json = merged_telemetry.map(|m| m.to_json());
    mode.secs = start.elapsed().as_secs_f64();
    mode
}

// ---------------------------------------------------------------------------
// Coordinator (bench) mode
// ---------------------------------------------------------------------------

fn bugs_json(bugs: &std::collections::BTreeSet<eof_rtos::BugId>) -> String {
    let names: Vec<String> = bugs.iter().map(|b| format!("\"{b:?}\"")).collect();
    format!("[{}]", names.join(", "))
}

fn main() {
    if let Ok(spec) = std::env::var("EOF_FABRIC_CHILD") {
        child_main(&spec);
    }

    let hours: f64 = env_or("EOF_FABRIC_HOURS", 0.06);
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let requested_workers: usize = env_or("EOF_FABRIC_WORKERS", 4);
    let workers = requested_workers.min(host_cores).max(1);
    let faults: usize = env_or("EOF_FABRIC_FAULTS", 4);
    let chaos_seed: u64 = env_or("EOF_FABRIC_SEED", 23);
    let root = std::env::temp_dir().join(format!("eof-bench-fabric-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);

    let cells = fabric_grid(&OSES, &[7], hours, false);
    eprintln!(
        "[fabric] {} cells ({} OSs × 1 seed, {hours}h each), {workers} workers \
         ({requested_workers} requested, {host_cores} cores)",
        cells.len(),
        OSES.len()
    );

    eprintln!("[fabric] serial reference...");
    let t = Instant::now();
    let serial = run_serial(&cells);
    let serial_secs = t.elapsed().as_secs_f64();

    eprintln!("[fabric] fault-free fabric ({workers} workers)...");
    let clean_config = FabricConfig::new(cells.clone(), workers, &root.join("clean"));
    let t = Instant::now();
    let clean = run_fabric(&clean_config, &eof_core::FabricChaosPlan::none());
    let clean_secs = t.elapsed().as_secs_f64();
    let clean_diffs = diff_against_serial(&clean, &serial);
    assert!(clean.violations.is_empty(), "{:?}", clean.violations);
    assert!(clean_diffs.is_empty(), "fault-free gate: {clean_diffs:?}");

    let mut chaos_config = FabricConfig::new(cells.clone(), workers, &root.join("chaos"));
    chaos_config.slices_per_cell = 2;
    // `EOF_FABRIC_FAULT_KIND` (kill | stall | torn-write) pins the
    // whole schedule to one fault class — the nightly matrix runs each
    // class separately so a regression names its killer. Unset, the
    // schedule is the seeded random mix.
    let forced_kind = std::env::var("EOF_FABRIC_FAULT_KIND").ok();
    let plan = match forced_kind.as_deref() {
        None => fabric_chaos_plan(
            chaos_seed,
            cells.len(),
            chaos_config.slices_per_cell,
            faults,
        ),
        Some(kind) => {
            let mut plan = eof_core::FabricChaosPlan::none();
            for cell in 0..cells.len() {
                let fault = |attempt: u64| match kind {
                    "kill" => FabricFault::Kill,
                    "stall" => FabricFault::Stall {
                        rounds: LEASE_ROUNDS + 1 + (cell as u64 + attempt) % 2,
                    },
                    "torn-write" => {
                        if (cell as u64 + attempt).is_multiple_of(2) {
                            FabricFault::TornManifest
                        } else {
                            FabricFault::TornSeed
                        }
                    }
                    other => panic!("unknown EOF_FABRIC_FAULT_KIND {other:?}"),
                };
                plan = plan.with(cell, 0, fault(0));
                // The seed picks which cells eat a second fault on
                // their reassigned attempt.
                if (cell as u64 + chaos_seed).is_multiple_of(2) {
                    plan = plan.with(cell, 1, fault(1));
                }
            }
            plan
        }
    };
    eprintln!(
        "[fabric] chaos fabric (seed {chaos_seed}, {} faults{})...",
        plan.total(),
        forced_kind
            .as_deref()
            .map(|k| format!(", all {k}"))
            .unwrap_or_default()
    );
    // The gate demands every cell recovered, so no slot may poison out
    // mid-run: on a 1-core runner every planned death lands on the same
    // slot, which the default threshold would (correctly) retire. Slot
    // poisoning itself is pinned by the fabric's unit tests.
    chaos_config.poison_kills = plan.total() as u32 + 1;
    let t = Instant::now();
    let chaos = run_fabric(&chaos_config, &plan);
    let chaos_secs = t.elapsed().as_secs_f64();
    let chaos_diffs = diff_against_serial(&chaos, &serial);
    assert!(chaos.violations.is_empty(), "{:?}", chaos.violations);
    assert!(
        chaos_diffs.is_empty(),
        "chaos gate (zero lost work): {chaos_diffs:?}"
    );

    eprintln!(
        "[fabric] multi-process mode ({} cells, crash + hang injections)...",
        PROCESS_OSES.len()
    );
    let process = run_process_mode(hours, &root);

    let fault_mix: Vec<String> = plan
        .kind_counts()
        .iter()
        .map(|(kind, count)| format!("\"{kind}\": {count}"))
        .collect();
    let a = &chaos.accounting;
    let json = format!(
        "{{\n  \"workload\": {{\"oses\": [{}], \"cells\": {}, \"hours_per_cell\": {hours}, \"slices_per_cell\": {}}},\n  \"host_cores\": {host_cores},\n  \"workers\": {{\"requested\": {requested_workers}, \"effective\": {workers}}},\n  \"serial\": {{\"secs\": {serial_secs:.3}, \"bugs\": {}, \"edges\": {}}},\n  \"fabric\": {{\"secs\": {clean_secs:.3}, \"speedup\": {:.2}, \"gate_identical\": {}, \"leases_granted\": {}, \"heartbeats\": {}}},\n  \"chaos\": {{\"seed\": {chaos_seed}, \"secs\": {chaos_secs:.3}, \"fault_mix\": {{{}}}, \"worker_deaths\": {}, \"lease_expiries\": {}, \"late_heartbeats\": {}, \"fenced_wakeups\": {}, \"torn_manifests\": {}, \"torn_seeds\": {}, \"reassignments\": {}, \"poisoned_workers\": {}, \"failures\": {}, \"gate_identical\": {}, \"zero_lost_bugs\": {}}},\n  \"process_mode\": {{\"secs\": {:.3}, \"children_spawned\": {}, \"deaths_observed\": {}, \"hangs_killed\": {}, \"resumes_prefix_verified\": {}, \"final_matches_serial\": {}, \"telemetry_parts_merged\": {}, \"telemetry\": {}}},\n  \"merged_bugs\": {}\n}}\n",
        OSES
            .iter()
            .map(|o| format!("\"{}\"", o.display()))
            .collect::<Vec<_>>()
            .join(", "),
        cells.len(),
        chaos_config.slices_per_cell,
        serial.bugs.len(),
        serial.coverage_edges.len(),
        serial_secs / clean_secs.max(1e-9),
        clean_diffs.is_empty(),
        clean.leases_granted,
        clean.heartbeats,
        fault_mix.join(", "),
        a.worker_deaths,
        chaos.lease_expiries,
        a.late_heartbeats,
        a.fenced_wakeups,
        a.torn_manifests,
        a.torn_seeds,
        chaos.reassignments.len(),
        a.poisoned_workers.len(),
        chaos.failures.len(),
        chaos_diffs.is_empty(),
        chaos.merged_bugs == serial.bugs,
        process.secs,
        process.children_spawned,
        process.deaths_observed,
        process.hangs_killed,
        process.resumes_prefix_verified,
        process.final_matches_serial,
        process.telemetry_parts,
        process
            .telemetry_json
            .clone()
            .unwrap_or_else(|| "null".to_string()),
        bugs_json(&chaos.merged_bugs),
    );
    std::fs::write("BENCH_fabric.json", &json).expect("write BENCH_fabric.json");
    println!("{json}");
    println!("[written BENCH_fabric.json]");

    let headers = ["phase", "secs", "deaths", "expiries", "reassigns", "gate"];
    let rows = vec![
        vec![
            "serial".to_string(),
            format!("{serial_secs:.3}"),
            "-".to_string(),
            "-".to_string(),
            "-".to_string(),
            "-".to_string(),
        ],
        vec![
            format!("fabric x{workers}"),
            format!("{clean_secs:.3}"),
            "0".to_string(),
            "0".to_string(),
            "0".to_string(),
            "identical".to_string(),
        ],
        vec![
            format!("chaos seed {chaos_seed}"),
            format!("{chaos_secs:.3}"),
            a.worker_deaths.to_string(),
            chaos.lease_expiries.to_string(),
            chaos.reassignments.len().to_string(),
            "identical".to_string(),
        ],
        vec![
            "process mode".to_string(),
            format!("{:.3}", process.secs),
            process.deaths_observed.to_string(),
            process.hangs_killed.to_string(),
            process.resumes_prefix_verified.to_string(),
            "identical".to_string(),
        ],
    ];
    eof_bench::emit("fabric", &headers, rows);
    let _ = std::fs::remove_dir_all(&root);
}
