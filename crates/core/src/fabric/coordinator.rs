//! The fabric coordinator: a deterministic round-based engine that
//! shards cells across worker slots under the lease state machine.
//!
//! Each round (one coordinator tick) has a fixed phase order, and every
//! phase visits workers in ascending slot id, so the complete history —
//! which worker got which cell, which fault serial each slice drew,
//! which order reports merged — is a pure function of `(FabricConfig,
//! FabricChaosPlan)`. The only parallelism is *inside* a round: busy
//! workers execute their slices on the campaign pool ([`FleetRunner`]),
//! but their results are folded back in slot order. That is what lets
//! CI assert an N-worker fabric byte-equal to serial, and lets every
//! chaos schedule replay bit-for-bit.
//!
//! Phase order per round:
//! 1. **assign** — idle live workers lease the lowest schedulable cell;
//! 2. **execute** — busy, non-stalled workers run one checkpoint slice
//!    each (in parallel), drawing fault serials in slot order first;
//! 3. **deliver** — in slot order: stalled workers count down (waking
//!    ones heartbeat — late but live renews, fenced discards), fresh
//!    results heartbeat + merge, deaths reassign the cell and maybe
//!    poison the slot;
//! 4. **expire** — leases that lapsed without a heartbeat send their
//!    cells back to the pool with backoff (the hung owner, still
//!    holding its stale epoch, gets fenced on wake-up).

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

use eof_rtos::bugs::BugId;

use super::chaos::{FabricChaosPlan, FabricFault};
use super::lease::{CellId, CellOutcome, Epoch, LeaseTable, ReassignReason, WorkerId};
use super::worker::{advance_cell, slice_target_hours, FinishedCell, SliceReport};
use super::FabricConfig;
use crate::fleet::FleetRunner;

/// Fabric-level fault and recovery accounting (the lease table carries
/// its own grant/heartbeat/expiry counters alongside).
#[derive(Debug, Clone, Default)]
pub struct FabricAccounting {
    /// Coordinator rounds executed.
    pub rounds: u64,
    /// Worker deaths observed (kills, torn-write deaths, panics).
    pub worker_deaths: u64,
    /// Stalls injected (heartbeats withheld at a slice boundary).
    pub stalls_injected: u64,
    /// Stalled workers that renewed in time (lease still live on wake).
    pub late_heartbeats: u64,
    /// Stalled workers fenced on wake (their epoch was superseded).
    pub fenced_wakeups: u64,
    /// Checkpoints left with a torn manifest by a dying worker.
    pub torn_manifests: u64,
    /// Checkpoints left with a torn seed entry by a dying worker.
    pub torn_seeds: u64,
    /// Dead worker slots restarted with a fresh process.
    pub worker_restarts: u64,
    /// Slots permanently removed after `poison_kills` deaths, in
    /// poisoning order. The fabric degrades to the survivors.
    pub poisoned_workers: Vec<WorkerId>,
}

/// What the engine hands back to [`super::run_fabric`].
#[derive(Debug)]
pub struct EngineRun {
    /// Final lease table: outcomes, failures, reassignment log.
    pub lease: LeaseTable,
    /// Fault/recovery accounting.
    pub accounting: FabricAccounting,
    /// Live coverage union, merged at every heartbeat (a superset of
    /// the completed-cell union when cells failed mid-flight).
    pub observed_edges: BTreeSet<u64>,
    /// Live bug union, merged at every heartbeat.
    pub observed_bugs: BTreeSet<BugId>,
    /// Telemetry summaries of finished cells (present when recording
    /// was on), keyed by cell.
    pub telemetry: Vec<(CellId, eof_telemetry::TelemetrySummary)>,
    /// Supervisor resilience accounting of each finished cell's final
    /// derivation, keyed by cell.
    pub resilience: Vec<(CellId, crate::supervisor::ResilienceStats)>,
}

/// One worker's in-flight assignment.
struct Task {
    cell: CellId,
    epoch: Epoch,
    /// Slice index this worker is executing (or stalled on).
    slice: usize,
    /// A completed-but-unreported slice: the stall fault. The report is
    /// held for `remaining` rounds with no heartbeat sent.
    pending: Option<(SliceReport, u64)>,
}

/// One worker slot (a restartable OS-process stand-in).
#[derive(Default)]
struct Slot {
    kills: u32,
    poisoned: bool,
    task: Option<Task>,
}

/// Coordinator-side progress of one cell, surviving reassignments.
#[derive(Debug, Clone, Default)]
struct CellProgress {
    /// Next slice to hand a (re)assigned worker. Only advanced by a
    /// delivered report — a lost report means the slice re-runs, which
    /// resume makes a cheap prefix-verify.
    next_slice: usize,
    /// Slice executions so far: the chaos fault key.
    serial: u32,
    skips: usize,
    discarded: usize,
    prefix_verified: usize,
}

enum SliceEnd {
    Report(SliceReport),
    Stalled(SliceReport, u64),
    Death { label: &'static str },
}

/// The coordinator's heartbeat-time merge state.
#[derive(Default)]
struct MergeState {
    observed_edges: BTreeSet<u64>,
    observed_bugs: BTreeSet<BugId>,
    telemetry: Vec<(CellId, eof_telemetry::TelemetrySummary)>,
    resilience: Vec<(CellId, crate::supervisor::ResilienceStats)>,
}

/// Run the fabric to completion. Deterministic in its arguments.
pub(super) fn run_engine(config: &FabricConfig, plan: &FabricChaosPlan) -> EngineRun {
    assert!(config.workers > 0, "fabric needs at least one worker slot");
    assert!(config.slices_per_cell > 0, "cells need at least one slice");
    let cells = &config.cells;
    let mut lease = LeaseTable::new(cells.len());
    let mut slots: Vec<Slot> = (0..config.workers).map(|_| Slot::default()).collect();
    let mut progress: Vec<CellProgress> = vec![CellProgress::default(); cells.len()];
    let mut acct = FabricAccounting::default();
    let mut merge = MergeState::default();

    // Wedge guard: every slice execution, retry, backoff gap and stall
    // fits far inside this bound; crossing it means the engine stopped
    // making progress, which must end in a loud report, not a hang.
    let max_rounds = (cells.len() as u64 * config.slices_per_cell as u64 + 1)
        * (config.max_attempts as u64 + 1)
        * (config.lease_rounds + config.backoff_cap + 2)
        + 64;

    let mut tick: u64 = 0;
    while !lease.all_settled() {
        tick += 1;
        acct.rounds = tick;
        if tick > max_rounds {
            lease.fail_remaining("fabric round bound exceeded (engine wedged)");
            break;
        }
        if slots.iter().all(|s| s.poisoned) {
            // Degrading to zero workers: report every unfinished cell
            // rather than spinning on an empty pool.
            lease.fail_remaining("no live workers left (all slots poisoned)");
            break;
        }

        // Phase 1: assign. Idle live workers take the lowest
        // schedulable cell, in slot order.
        for (w, slot) in slots.iter_mut().enumerate() {
            if slot.poisoned || slot.task.is_some() {
                continue;
            }
            let Some((cell, _)) = lease.next_schedulable(tick) else {
                break;
            };
            let epoch = lease.grant(cell, w, tick, config.lease_rounds);
            slot.task = Some(Task {
                cell,
                epoch,
                slice: progress[cell].next_slice,
                pending: None,
            });
        }

        // Phase 2: execute. Fault serials are drawn here in slot order,
        // before any thread runs, so the schedule depends only on the
        // (deterministic) assignment history.
        let mut jobs: Vec<(WorkerId, CellId, usize, Option<FabricFault>)> = Vec::new();
        for (w, slot) in slots.iter().enumerate() {
            if let Some(task) = &slot.task {
                if task.pending.is_none() {
                    jobs.push((
                        w,
                        task.cell,
                        task.slice,
                        plan.at(task.cell, progress[task.cell].serial),
                    ));
                }
            }
        }
        for &(_, cell, _, _) in &jobs {
            progress[cell].serial += 1;
        }
        // A panic in the campaign itself is a worker death too (crash
        // isolation): the pool contains it to the job's slot.
        let busy: Vec<WorkerId> = jobs.iter().map(|&(w, ..)| w).collect();
        let runs = FleetRunner::new(jobs.len()).map(jobs, |_, (_, cell, slice, fault)| {
            let dir = cell_dir(&config.root, cell);
            execute_slice(&cells[cell], &dir, config.slices_per_cell, slice, fault)
        });
        let ends: BTreeMap<WorkerId, SliceEnd> = busy
            .into_iter()
            .zip(runs)
            .map(|(w, run)| (w, run.unwrap_or(SliceEnd::Death { label: "panic" })))
            .collect();

        // Phase 3: deliver, in slot order.
        for (w, slot) in slots.iter_mut().enumerate() {
            if let Some((report, remaining)) = slot.task.as_mut().and_then(|t| {
                t.pending.as_mut().map(|(r, left)| {
                    *left = left.saturating_sub(1);
                    (r.clone(), *left)
                })
            }) {
                if remaining > 0 {
                    continue; // still hung
                }
                // Wake-up: heartbeat under the (possibly stale) epoch.
                let task = slot.task.as_mut().expect("stalled slot has a task");
                task.pending = None;
                let (cell, epoch) = (task.cell, task.epoch);
                if lease.heartbeat(cell, epoch, tick, config.lease_rounds) {
                    acct.late_heartbeats += 1;
                    deliver(&mut lease, &mut progress, slot, &mut merge, report);
                } else {
                    // Fenced: the cell moved on while we slept. Discard
                    // the claim — the successor owns the store now.
                    acct.fenced_wakeups += 1;
                    slot.task = None;
                }
                continue;
            }
            let Some(end) = ends.get(&w) else { continue };
            let task = slot.task.as_ref().expect("executing slot has a task");
            let (cell, epoch) = (task.cell, task.epoch);
            match end {
                SliceEnd::Report(report) => {
                    if lease.heartbeat(cell, epoch, tick, config.lease_rounds) {
                        deliver(&mut lease, &mut progress, slot, &mut merge, report.clone());
                    } else {
                        acct.fenced_wakeups += 1;
                        slot.task = None;
                    }
                }
                SliceEnd::Stalled(report, rounds) => {
                    // The slice checkpointed, but the worker hangs: the
                    // report is withheld, and so is the heartbeat.
                    acct.stalls_injected += 1;
                    let task = slot.task.as_mut().expect("slot has a task");
                    task.pending = Some((report.clone(), *rounds));
                }
                SliceEnd::Death { label } => {
                    acct.worker_deaths += 1;
                    match *label {
                        "torn-manifest" => acct.torn_manifests += 1,
                        "torn-seed" => acct.torn_seeds += 1,
                        _ => {}
                    }
                    if lease.epoch_live(cell, epoch) {
                        lease.reassign(
                            cell,
                            tick,
                            ReassignReason::WorkerDeath,
                            config.backoff_base,
                            config.backoff_cap,
                            config.max_attempts,
                        );
                    }
                    slot.task = None;
                    slot.kills += 1;
                    if slot.kills >= config.poison_kills {
                        slot.poisoned = true;
                        acct.poisoned_workers.push(w);
                    } else {
                        acct.worker_restarts += 1;
                    }
                }
            }
        }

        // Phase 4: expire. Cells whose lease lapsed with no heartbeat
        // go back to the pool; the hung owner keeps its stale epoch and
        // is fenced whenever it wakes.
        for (cell, _worker) in lease.expired(tick) {
            lease.reassign(
                cell,
                tick,
                ReassignReason::LeaseExpiry,
                config.backoff_base,
                config.backoff_cap,
                config.max_attempts,
            );
        }
    }

    EngineRun {
        lease,
        accounting: acct,
        observed_edges: merge.observed_edges,
        observed_bugs: merge.observed_bugs,
        telemetry: merge.telemetry,
        resilience: merge.resilience,
    }
}

/// The checkpoint directory of one cell.
pub(super) fn cell_dir(root: &Path, cell: CellId) -> PathBuf {
    root.join("cells").join(format!("cell-{cell:03}"))
}

/// Fold a delivered slice report into the coordinator's state: merge
/// coverage/bugs (the periodic exchange), advance the cell's slice
/// ladder, and settle the cell when the final slice landed.
fn deliver(
    lease: &mut LeaseTable,
    progress: &mut [CellProgress],
    slot: &mut Slot,
    merge: &mut MergeState,
    report: SliceReport,
) {
    let task = slot.task.as_mut().expect("delivering slot has a task");
    let cell = task.cell;
    merge
        .observed_edges
        .extend(report.coverage_edges.iter().copied());
    merge.observed_bugs.extend(report.bugs.iter().copied());
    let prog = &mut progress[cell];
    prog.skips += report.checkpoint_skips;
    prog.discarded += report.checkpoints_discarded;
    prog.prefix_verified += report.prefix_verified;
    match report.finished {
        Some(FinishedCell {
            branches,
            execs,
            crashes,
            resilience,
            telemetry: cell_tel,
        }) => {
            merge.resilience.push((cell, resilience));
            if let Some(summary) = cell_tel {
                merge.telemetry.push((cell, summary));
            }
            lease.complete(
                cell,
                CellOutcome {
                    bugs: report.bugs,
                    coverage_edges: report.coverage_edges,
                    branches,
                    execs,
                    crashes,
                    seeds_exported: 0, // filled by the exchange export
                    attempts: 0,       // filled by `complete`
                    checkpoint_skips: prog.skips,
                    checkpoints_discarded: prog.discarded,
                    prefix_verified: prog.prefix_verified,
                },
            );
            slot.task = None;
        }
        None => {
            task.slice += 1;
            prog.next_slice = task.slice;
        }
    }
}

/// Execute one slice, then apply the scheduled fault (if any) at the
/// slice boundary — after the checkpoint write, mirroring a process
/// that dies between atomic store renames, never inside one.
fn execute_slice(
    config: &crate::config::FuzzerConfig,
    dir: &Path,
    slices: usize,
    slice: usize,
    fault: Option<FabricFault>,
) -> SliceEnd {
    let target = slice_target_hours(config.budget_hours, slices, slice);
    let report = advance_cell(config, dir, target);
    match fault {
        None => SliceEnd::Report(report),
        Some(FabricFault::Kill) => SliceEnd::Death { label: "kill" },
        Some(FabricFault::TornManifest) => {
            tear_file(&dir.join("manifest.eof"));
            SliceEnd::Death {
                label: "torn-manifest",
            }
        }
        Some(FabricFault::TornSeed) => {
            tear_first_seed(dir);
            SliceEnd::Death { label: "torn-seed" }
        }
        Some(FabricFault::Stall { rounds }) => SliceEnd::Stalled(report, rounds.max(1)),
    }
}

/// Truncate a file to half its length — the on-disk shape a dying
/// writer leaves when it never reached the atomic rename.
fn tear_file(path: &Path) {
    if let Ok(text) = std::fs::read_to_string(path) {
        let _ = std::fs::write(path, &text[..text.len() / 2]);
    }
}

/// Tear the first (hash-ordered) seed entry of a checkpoint's corpus.
fn tear_first_seed(dir: &Path) {
    let Ok(entries) = std::fs::read_dir(dir.join("corpus")) else {
        return;
    };
    let mut seeds: Vec<PathBuf> = entries
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("seed"))
        .collect();
    seeds.sort();
    if let Some(victim) = seeds.first() {
        tear_file(victim);
    }
}
