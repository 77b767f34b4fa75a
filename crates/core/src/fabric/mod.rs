//! `eof_core::fabric` — the fault-tolerant distributed campaign fabric.
//!
//! The paper's throughput argument (§6) only pays off when many boards
//! fuzz concurrently, and real multi-worker campaigns die of exactly
//! three things: worker processes that crash, workers that hang without
//! dying, and stores half-written by a death mid-write. The fabric is
//! built robustness-first around those failures:
//!
//! * **cells** — one campaign per OS×seed×wire-mode grid point, each
//!   checkpointing through its own PR-4 persist store;
//! * **leases** ([`lease`]) — time-bounded ownership renewed by
//!   heartbeats, with fencing epochs so a superseded worker can never
//!   race its replacement;
//! * **workers** ([`worker`]) — slice-by-slice execution where *resume
//!   from the last valid checkpoint* is the ordinary path, so
//!   reassignment after a fault is the same code as normal progress;
//! * **the coordinator** ([`coordinator`]) — a deterministic
//!   round-based engine: crashed workers are reassigned with bounded
//!   backoff, hung workers are detected by lease expiry, corrupt
//!   checkpoints degrade via persist's counted skips, and slots that
//!   keep dying are poisoned so the fabric degrades to fewer workers
//!   instead of stalling. It merges every heartbeat's coverage and bugs
//!   into a live union, and builds the [`FabricReport`];
//! * **chaos** ([`chaos`]) — seeded schedules of kills, stalls and torn
//!   writes, replayable bit-for-bit.
//!
//! The lease and retry envelope is fixed: [`LEASE_ROUNDS`],
//! [`BACKOFF_BASE`], [`BACKOFF_CAP`] and [`MAX_ATTEMPTS`].
//!
//! The headline gate is [`run_serial`] vs [`run_fabric`]: N workers,
//! with or without injected faults, must produce the same merged
//! [`BugId`] set and coverage bitmap as a plain serial loop over the
//! same cells — the PR-5/PR-6 differential-equivalence pattern applied
//! one layer up.

pub mod chaos;
pub mod coordinator;
pub mod lease;
pub mod worker;

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use eof_rtos::bugs::BugId;
use eof_rtos::OsKind;

use crate::campaign::run_campaign_with_coverage;
use crate::config::FuzzerConfig;
use crate::supervisor::ResilienceStats;

pub use chaos::{fabric_chaos_plan, FabricChaosPlan, FabricFault, FABRIC_FAULT_KINDS};
pub use coordinator::FabricAccounting;
pub use lease::{
    CellId, CellOutcome, CellState, Epoch, LeaseTable, ReassignReason, Reassignment, WorkerId,
};
pub use worker::{advance_cell, slice_target_hours, FinishedCell, SliceReport};

/// Rounds a lease survives without a heartbeat.
pub const LEASE_ROUNDS: u64 = 4;
/// Base reassignment backoff, in rounds.
pub const BACKOFF_BASE: u64 = 1;
/// Backoff ceiling, in rounds.
pub const BACKOFF_CAP: u64 = 8;
/// Lease grants a cell may burn before it is reported failed.
pub const MAX_ATTEMPTS: u32 = 5;

/// The fabric's shape.
#[derive(Debug, Clone)]
pub struct FabricConfig {
    /// The campaign cells to shard (see [`fabric_grid`]).
    pub cells: Vec<FuzzerConfig>,
    /// Worker slots.
    pub workers: usize,
    /// Checkpoints per cell: the budget is split into this many growing
    /// slices, each landing a complete store.
    pub slices_per_cell: usize,
    /// Worker deaths that permanently poison a slot.
    pub poison_kills: u32,
    /// Root directory: per-cell checkpoint stores live under `cells/`.
    pub root: PathBuf,
}

impl FabricConfig {
    /// A fabric over `cells` with four slices per cell and slots
    /// poisoned after three deaths.
    pub fn new(cells: Vec<FuzzerConfig>, workers: usize, root: &Path) -> Self {
        FabricConfig {
            cells,
            workers,
            slices_per_cell: 4,
            poison_kills: 3,
            root: root.to_path_buf(),
        }
    }
}

/// Build the OS×seed×wire-mode cell grid. Wire modes ride along because
/// the vectored/scalar equivalence gate (PR 5) makes them free
/// diversity: same results, different link cost — so the fabric gets a
/// wider grid to shard without widening the oracle.
pub fn fabric_grid(
    oses: &[OsKind],
    seeds: &[u64],
    hours: f64,
    wire_modes: bool,
) -> Vec<FuzzerConfig> {
    let modes: &[bool] = if wire_modes { &[true, false] } else { &[true] };
    let mut cells = Vec::new();
    for &os in oses {
        for &seed in seeds {
            for &vectored in modes {
                let mut config = FuzzerConfig::eof(os, seed);
                config.budget_hours = hours;
                config.snapshot_hours = hours / 4.0;
                config.vectored = vectored;
                cells.push(config);
            }
        }
    }
    cells
}

/// What a fabric run produced.
#[derive(Debug)]
pub struct FabricReport {
    /// Completed cells, in cell order.
    pub outcomes: Vec<(CellId, CellOutcome)>,
    /// Failed cells with reported reasons, in cell order. Failure is an
    /// *outcome*, never silence.
    pub failures: Vec<(CellId, String, u32)>,
    /// Merged bug set over completed cells — the gate quantity.
    pub merged_bugs: BTreeSet<BugId>,
    /// Merged coverage-edge union over completed cells — the gate
    /// quantity.
    pub merged_edges: BTreeSet<u64>,
    /// Live unions merged at every heartbeat (supersets of the above
    /// when cells failed mid-flight — partial progress is not hidden).
    pub observed_bugs: BTreeSet<BugId>,
    /// Heartbeat-merged coverage union.
    pub observed_edges: BTreeSet<u64>,
    /// Fault/recovery accounting.
    pub accounting: FabricAccounting,
    /// Every reassignment, in detection order.
    pub reassignments: Vec<Reassignment>,
    /// Leases granted (first assignments + reassignments).
    pub leases_granted: u64,
    /// Heartbeats processed.
    pub heartbeats: u64,
    /// Leases that lapsed without a heartbeat.
    pub lease_expiries: u64,
    /// Supervisor resilience accounting summed over completed cells'
    /// final derivations.
    pub resilience: ResilienceStats,
    /// Cross-cell telemetry merge (present when recording was on),
    /// absorbed in cell order.
    pub telemetry: Option<eof_telemetry::TelemetrySummary>,
    /// Contract violations found by [`check_fabric_invariants`]. Empty
    /// means every fault ended recovered-or-reported inside its bounds.
    pub violations: Vec<String>,
}

/// Run the fabric under a (possibly empty) fault schedule.
pub fn run_fabric(config: &FabricConfig, plan: &FabricChaosPlan) -> FabricReport {
    let mut report = coordinator::run_engine(config, plan);
    report.violations = check_fabric_invariants(&report, config, plan);
    report
}

/// The serial reference: a plain `run_campaign` loop over the same
/// cells — no fabric, no slices, no persistence — merged identically.
/// This is what the determinism gate compares a fabric run against.
#[derive(Debug)]
pub struct SerialMerge {
    /// Merged bug set.
    pub bugs: BTreeSet<BugId>,
    /// Merged coverage-edge union.
    pub coverage_edges: BTreeSet<u64>,
    /// Per-cell (branches, execs), in cell order.
    pub cells: Vec<(usize, u64)>,
    /// Supervisor resilience accounting summed over cells.
    pub resilience: ResilienceStats,
}

/// Run the serial reference over `cells`.
pub fn run_serial(cells: &[FuzzerConfig]) -> SerialMerge {
    let mut merge = SerialMerge {
        bugs: BTreeSet::new(),
        coverage_edges: BTreeSet::new(),
        cells: Vec::new(),
        resilience: ResilienceStats::default(),
    };
    for cell in cells {
        let mut config = cell.clone();
        config.persist = None;
        let (result, coverage) = run_campaign_with_coverage(config);
        merge.bugs.extend(result.bugs.iter().copied());
        merge.coverage_edges.extend(coverage.iter());
        merge.cells.push((result.branches, result.stats.execs));
        merge.resilience.absorb(&result.resilience);
    }
    merge
}

/// The fabric's robustness contract, checked after every run:
///
/// 1. every cell settled — `Done` or `Failed` with a reason (recovered
///    or reported, never silent, never stuck);
/// 2. a fault-free schedule recovers nothing because nothing fails;
/// 3. reassignment is bounded: detection-to-schedulable latency never
///    exceeds [`BACKOFF_CAP`], and no cell burned more than
///    [`MAX_ATTEMPTS`] grants;
/// 4. reassigned cells actually resumed: unless their checkpoint was
///    discarded as torn, they prefix-verified prior work;
/// 5. degradation stays sane: poisoned slots never exceed the slot
///    count, and completed work is never retracted (gate unions are
///    subsets of the heartbeat-observed unions).
pub fn check_fabric_invariants(
    report: &FabricReport,
    config: &FabricConfig,
    plan: &FabricChaosPlan,
) -> Vec<String> {
    let mut violations = Vec::new();
    let settled = report.outcomes.len() + report.failures.len();
    if settled != config.cells.len() {
        violations.push(format!(
            "unsettled cells: {} outcomes + {} failures != {} cells",
            report.outcomes.len(),
            report.failures.len(),
            config.cells.len()
        ));
    }
    for (cell, reason, _) in &report.failures {
        if reason.is_empty() {
            violations.push(format!("cell {cell} failed without a reason"));
        }
    }
    if plan.total() == 0 {
        if !report.failures.is_empty() {
            violations.push(format!(
                "fault-free run reported {} failures",
                report.failures.len()
            ));
        }
        if !report.reassignments.is_empty() {
            violations.push(format!(
                "fault-free run performed {} reassignments",
                report.reassignments.len()
            ));
        }
        if report.accounting.worker_deaths != 0 {
            violations.push(format!(
                "fault-free run observed {} worker deaths",
                report.accounting.worker_deaths
            ));
        }
    }
    for r in &report.reassignments {
        if r.ready_at != u64::MAX && r.ready_at - r.detected_at > BACKOFF_CAP {
            violations.push(format!(
                "cell {} reassignment backoff {} exceeds cap {BACKOFF_CAP}",
                r.cell,
                r.ready_at - r.detected_at,
            ));
        }
    }
    for (cell, outcome) in &report.outcomes {
        if outcome.attempts > MAX_ATTEMPTS {
            violations.push(format!(
                "cell {cell} consumed {} attempts (max {MAX_ATTEMPTS})",
                outcome.attempts
            ));
        }
        if outcome.attempts > 1
            && outcome.prefix_verified == 0
            && outcome.checkpoints_discarded == 0
        {
            violations.push(format!(
                "cell {cell} was reassigned but neither resumed a checkpoint nor discarded one"
            ));
        }
        if !outcome
            .bugs
            .iter()
            .all(|b| report.observed_bugs.contains(b))
        {
            violations.push(format!(
                "cell {cell} holds bugs missing from the heartbeat-observed union"
            ));
        }
    }
    if report.accounting.poisoned_workers.len() > config.workers {
        violations.push(format!(
            "{} poisoned slots exceed the {}-slot pool",
            report.accounting.poisoned_workers.len(),
            config.workers
        ));
    }
    if !report.merged_edges.is_subset(&report.observed_edges) {
        violations.push("completed coverage union exceeds the observed union".to_string());
    }
    violations
}

/// Compare a fabric run against the serial reference (and, for chaos
/// runs, against a fault-free fabric run): the zero-lost-work gate.
/// Returns human-readable mismatches; empty means byte-identical merged
/// bug sets and coverage bitmaps.
pub fn diff_against_serial(report: &FabricReport, serial: &SerialMerge) -> Vec<String> {
    let mut diffs = Vec::new();
    if !report.failures.is_empty() {
        // Failed cells are reported, not silently compared away — a
        // gate run with failures is a gate failure.
        diffs.push(format!(
            "fabric reported {} failed cells; serial comparison requires all cells complete",
            report.failures.len()
        ));
        return diffs;
    }
    if report.merged_bugs != serial.bugs {
        diffs.push(format!(
            "merged BugId sets differ: fabric {:?} vs serial {:?}",
            report.merged_bugs, serial.bugs
        ));
    }
    if report.merged_edges != serial.coverage_edges {
        diffs.push(format!(
            "merged coverage differs: fabric {} edges vs serial {} edges",
            report.merged_edges.len(),
            serial.coverage_edges.len()
        ));
    }
    for (cell, outcome) in &report.outcomes {
        let (branches, execs) = serial.cells[*cell];
        if outcome.branches != branches || outcome.execs != execs {
            diffs.push(format!(
                "cell {cell}: fabric {}br/{}ex vs serial {branches}br/{execs}ex",
                outcome.branches, outcome.execs
            ));
        }
    }
    diffs
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn tmproot(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "eof-fabric-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn small_fabric(tag: &str, workers: usize) -> FabricConfig {
        let cells = fabric_grid(&[OsKind::FreeRtos, OsKind::Zephyr], &[7], 0.06, false);
        FabricConfig::new(cells, workers, &tmproot(tag))
    }

    #[test]
    fn fault_free_fabric_equals_serial() {
        let config = small_fabric("clean", 2);
        let report = run_fabric(&config, &FabricChaosPlan::none());
        assert_eq!(report.violations, Vec::<String>::new());
        assert!(report.failures.is_empty());
        assert_eq!(report.outcomes.len(), config.cells.len());
        let serial = run_serial(&config.cells);
        assert_eq!(diff_against_serial(&report, &serial), Vec::<String>::new());
        assert!(report.heartbeats > 0);
        assert_eq!(report.lease_expiries, 0);
        let _ = std::fs::remove_dir_all(&config.root);
    }

    #[test]
    fn worker_counts_do_not_change_the_merge() {
        let one = small_fabric("w1", 1);
        let three = small_fabric("w3", 3);
        let a = run_fabric(&one, &FabricChaosPlan::none());
        let b = run_fabric(&three, &FabricChaosPlan::none());
        assert_eq!(a.merged_bugs, b.merged_bugs);
        assert_eq!(a.merged_edges, b.merged_edges);
        let _ = std::fs::remove_dir_all(&one.root);
        let _ = std::fs::remove_dir_all(&three.root);
    }

    #[test]
    fn kill_mid_cell_is_reassigned_and_loses_nothing() {
        let mut config = small_fabric("kill", 2);
        config.slices_per_cell = 2;
        // Kill cell 0's worker after its first checkpoint lands.
        let plan = FabricChaosPlan::none().with(0, 0, FabricFault::Kill);
        let report = run_fabric(&config, &plan);
        assert_eq!(report.violations, Vec::<String>::new());
        assert!(report.failures.is_empty());
        assert_eq!(report.accounting.worker_deaths, 1);
        assert_eq!(report.reassignments.len(), 1);
        assert_eq!(report.reassignments[0].reason, ReassignReason::WorkerDeath);
        let cell0 = &report.outcomes[0].1;
        assert_eq!(cell0.attempts, 2, "one reassignment");
        assert!(
            cell0.prefix_verified > 0,
            "successor resumed the checkpoint"
        );
        let serial = run_serial(&config.cells);
        assert_eq!(diff_against_serial(&report, &serial), Vec::<String>::new());
        let _ = std::fs::remove_dir_all(&config.root);
    }

    #[test]
    fn long_stall_expires_the_lease_and_fences_the_sleeper() {
        let mut config = small_fabric("stall", 2);
        config.slices_per_cell = 2;
        let plan = FabricChaosPlan::none().with(
            0,
            0,
            FabricFault::Stall {
                rounds: LEASE_ROUNDS + 3,
            },
        );
        let report = run_fabric(&config, &plan);
        assert_eq!(report.violations, Vec::<String>::new());
        assert!(report.failures.is_empty());
        assert_eq!(report.lease_expiries, 1, "the lease lapsed");
        assert_eq!(
            report.accounting.fenced_wakeups, 1,
            "the sleeper was fenced"
        );
        assert_eq!(report.accounting.worker_deaths, 0, "nobody died");
        let serial = run_serial(&config.cells);
        assert_eq!(diff_against_serial(&report, &serial), Vec::<String>::new());
        let _ = std::fs::remove_dir_all(&config.root);
    }

    #[test]
    fn short_stall_recovers_with_a_late_heartbeat() {
        let mut config = small_fabric("latehb", 2);
        config.slices_per_cell = 2;
        // A 2-round stall stays inside the LEASE_ROUNDS lease.
        let plan = FabricChaosPlan::none().with(0, 0, FabricFault::Stall { rounds: 2 });
        let report = run_fabric(&config, &plan);
        assert_eq!(report.violations, Vec::<String>::new());
        assert_eq!(report.lease_expiries, 0, "lease survived the stall");
        assert_eq!(report.accounting.late_heartbeats, 1);
        assert_eq!(report.accounting.fenced_wakeups, 0);
        assert!(report.reassignments.is_empty());
        let _ = std::fs::remove_dir_all(&config.root);
    }

    #[test]
    fn torn_manifest_discards_and_torn_seed_degrades() {
        let mut config = small_fabric("torn", 2);
        config.slices_per_cell = 2;
        let plan = FabricChaosPlan::none()
            .with(0, 0, FabricFault::TornManifest)
            .with(1, 0, FabricFault::TornSeed);
        let report = run_fabric(&config, &plan);
        assert_eq!(report.violations, Vec::<String>::new());
        assert!(report.failures.is_empty());
        let cell0 = &report.outcomes[0].1;
        let cell1 = &report.outcomes[1].1;
        assert_eq!(cell0.checkpoints_discarded, 1, "torn manifest discarded");
        assert_eq!(cell1.checkpoint_skips, 1, "torn seed counted-skip");
        assert_eq!(cell1.checkpoints_discarded, 0, "store survived");
        let serial = run_serial(&config.cells);
        assert_eq!(diff_against_serial(&report, &serial), Vec::<String>::new());
        let _ = std::fs::remove_dir_all(&config.root);
    }

    #[test]
    fn repeated_kills_poison_the_slot_and_the_fabric_degrades() {
        let mut config = small_fabric("poison", 1);
        config.slices_per_cell = 4;
        config.poison_kills = 2;
        // Two kills against the only worker poison its slot; with no
        // slots left, remaining work must fail loudly — not hang.
        let plan =
            FabricChaosPlan::none()
                .with(0, 0, FabricFault::Kill)
                .with(0, 1, FabricFault::Kill);
        let report = run_fabric(&config, &plan);
        assert_eq!(report.accounting.poisoned_workers, vec![0]);
        assert!(
            !report.failures.is_empty(),
            "zero live workers must fail the rest loudly"
        );
        assert!(report
            .failures
            .iter()
            .all(|(_, reason, _)| reason.contains("no live workers")));
        // Reported, not violated: this IS the degradation contract.
        assert_eq!(report.violations, Vec::<String>::new());
        let _ = std::fs::remove_dir_all(&config.root);
    }

    #[test]
    fn exhausted_attempts_are_a_reported_failure() {
        let mut config = small_fabric("exhaust", 2);
        config.slices_per_cell = 4;
        config.poison_kills = 10;
        let plan = (0..MAX_ATTEMPTS).fold(FabricChaosPlan::none(), |plan, serial| {
            plan.with(0, serial, FabricFault::Kill)
        });
        let report = run_fabric(&config, &plan);
        let failed: Vec<_> = report.failures.iter().filter(|(c, _, _)| *c == 0).collect();
        assert_eq!(failed.len(), 1, "cell 0 exhausted its attempts");
        assert!(failed[0].1.contains("lease attempts"), "{}", failed[0].1);
        // The other cell still completed.
        assert!(report.outcomes.iter().any(|(c, _)| *c == 1));
        assert_eq!(report.violations, Vec::<String>::new());
        let _ = std::fs::remove_dir_all(&config.root);
    }

    #[test]
    fn a_panicking_campaign_is_a_worker_death_and_a_reported_failure() {
        let mut config = small_fabric("panic", 2);
        config.slices_per_cell = 2;
        config.poison_kills = 10;
        // A checkpoint from another seed in cell 0's directory makes
        // every resume a `ConfigMismatch`, which `advance_cell` panics
        // on. The scheduled kill keeps the plan honest about injecting
        // a fault (an empty plan forbids deaths); the panic pre-empts it.
        let mut foreign = config.cells[0].clone();
        foreign.seed += 1;
        let dir = coordinator::cell_dir(&config.root, 0);
        advance_cell(
            &foreign,
            &dir,
            slice_target_hours(foreign.budget_hours, 2, 0),
        );
        let plan = FabricChaosPlan::none().with(0, 0, FabricFault::Kill);
        let report = run_fabric(&config, &plan);
        assert_eq!(
            report.accounting.worker_deaths,
            u64::from(MAX_ATTEMPTS),
            "every attempt at cell 0 died"
        );
        let failed: Vec<_> = report.failures.iter().filter(|(c, _, _)| *c == 0).collect();
        assert_eq!(failed.len(), 1, "cell 0 is reported failed");
        assert!(!failed[0].1.is_empty());
        let done: Vec<CellId> = report.outcomes.iter().map(|(c, _)| *c).collect();
        assert_eq!(done, (1..config.cells.len()).collect::<Vec<_>>());
        assert_eq!(report.violations, Vec::<String>::new());
        let _ = std::fs::remove_dir_all(&config.root);
    }

    #[test]
    fn seeded_chaos_schedules_replay_bit_for_bit() {
        let mut config = small_fabric("replay", 3);
        config.slices_per_cell = 2;
        let plan = fabric_chaos_plan(23, config.cells.len(), config.slices_per_cell, 4);
        let first = run_fabric(&config, &plan);
        let root2 = tmproot("replay2");
        let mut again = config.clone();
        again.root = root2.clone();
        let second = run_fabric(&again, &plan);
        assert_eq!(first.merged_bugs, second.merged_bugs);
        assert_eq!(first.merged_edges, second.merged_edges);
        assert_eq!(first.leases_granted, second.leases_granted);
        assert_eq!(first.reassignments, second.reassignments);
        assert_eq!(first.accounting.rounds, second.accounting.rounds);
        assert_eq!(first.violations, Vec::<String>::new());
        let _ = std::fs::remove_dir_all(&config.root);
        let _ = std::fs::remove_dir_all(&root2);
    }
}
