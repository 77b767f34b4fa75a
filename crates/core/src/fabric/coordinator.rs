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
use eof_telemetry::TelemetrySummary;

use super::chaos::{FabricChaosPlan, FabricFault};
use super::lease::{CellId, CellOutcome, Epoch, LeaseTable, ReassignReason, WorkerId};
use super::worker::{advance_cell, slice_target_hours, FinishedCell, SliceReport};
use super::{FabricConfig, FabricReport, BACKOFF_CAP, LEASE_ROUNDS, MAX_ATTEMPTS};
use crate::fleet::FleetRunner;
use crate::supervisor::ResilienceStats;

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

/// The coordinator's heartbeat-time merge state. Finished cells'
/// telemetry and resilience are keyed by cell, so they merge in cell
/// order whatever order the cells finished in.
#[derive(Default)]
struct MergeState {
    observed_edges: BTreeSet<u64>,
    observed_bugs: BTreeSet<BugId>,
    telemetry: BTreeMap<CellId, TelemetrySummary>,
    resilience: BTreeMap<CellId, ResilienceStats>,
}

/// Run the fabric to completion and report it, `violations` left for
/// [`super::run_fabric`] to fill. Deterministic in its arguments.
pub(super) fn run_engine(config: &FabricConfig, plan: &FabricChaosPlan) -> FabricReport {
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
        * (MAX_ATTEMPTS as u64 + 1)
        * (LEASE_ROUNDS + BACKOFF_CAP + 2)
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
            let epoch = lease.grant(cell, w, tick);
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
                if lease.heartbeat(cell, epoch, tick) {
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
                    if lease.heartbeat(cell, epoch, tick) {
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
                        lease.reassign(cell, tick, ReassignReason::WorkerDeath);
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
            lease.reassign(cell, tick, ReassignReason::LeaseExpiry);
        }
    }

    let outcomes: Vec<(CellId, CellOutcome)> =
        lease.outcomes().map(|(id, o)| (id, o.clone())).collect();
    // Gate quantities: unions over completed cells only.
    let mut merged_bugs = BTreeSet::new();
    let mut merged_edges = BTreeSet::new();
    for (_, outcome) in &outcomes {
        merged_bugs.extend(outcome.bugs.iter().copied());
        merged_edges.extend(outcome.coverage_edges.iter().copied());
    }
    let mut resilience = ResilienceStats::default();
    for r in merge.resilience.values() {
        resilience.absorb(r);
    }
    let telemetry = merge.telemetry.into_values().reduce(|mut merged, part| {
        merged.absorb(&part);
        merged
    });
    FabricReport {
        failures: lease.failures(),
        reassignments: lease.reassignments,
        leases_granted: lease.leases_granted,
        heartbeats: lease.heartbeats,
        lease_expiries: lease.lease_expiries,
        outcomes,
        merged_bugs,
        merged_edges,
        observed_bugs: merge.observed_bugs,
        observed_edges: merge.observed_edges,
        accounting: acct,
        resilience,
        telemetry,
        violations: Vec::new(),
    }
}

/// The checkpoint directory of one cell.
pub(super) fn cell_dir(root: &Path, cell: CellId) -> PathBuf {
    root.join("cells").join(format!("cell-{cell:03}"))
}

/// Fold a delivered slice report into the coordinator's state: merge
/// coverage/bugs into the live unions, advance the cell's slice
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
            merge.resilience.insert(cell, resilience);
            if let Some(summary) = cell_tel {
                merge.telemetry.insert(cell, summary);
            }
            lease.complete(
                cell,
                CellOutcome {
                    bugs: report.bugs,
                    coverage_edges: report.coverage_edges,
                    branches,
                    execs,
                    crashes,
                    attempts: 0, // filled by `complete`
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
