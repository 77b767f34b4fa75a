//! Fabric-level chaos: seeded worker-fault schedules and the
//! recovered-or-reported contract, one layer above [`crate::chaos`].
//!
//! The hardware chaos harness tortures a *single* campaign with link
//! and board faults; this module tortures the *fabric* with the
//! failures multi-worker campaigns actually die of — worker processes
//! killed mid-cell, workers that hang without dying, and store writes
//! torn by a death mid-write. Faults are keyed by `(cell, slice
//! serial)` so a schedule is a pure function of its seed: identical
//! seeds reproduce identical fault timings, reassignments and merged
//! results, which is what lets CI gate on them.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use super::lease::CellId;
use super::{LEASE_ROUNDS, MAX_ATTEMPTS};

/// One injected worker fault. Every kind fires at a slice boundary,
/// *after* the slice's checkpoint write completed or was torn — a
/// worker never holds half-finished writes while another worker owns
/// the cell, mirroring how a real worker process dies between (not
/// inside) atomic store renames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FabricFault {
    /// The worker process dies right after checkpointing the slice.
    /// The report is lost; the cell's lease owner is gone.
    Kill,
    /// The worker dies mid-manifest-write: the checkpoint's manifest is
    /// truncated, making the whole checkpoint unusable (the successor
    /// discards it and re-derives).
    TornManifest,
    /// The worker dies mid-seed-write: one seed entry is truncated; the
    /// checkpoint survives and the successor degrades the entry to a
    /// counted skip.
    TornSeed,
    /// The worker hangs for this many rounds: the slice completed and
    /// checkpointed, but no heartbeat or report is sent. Shorter than
    /// the lease ⇒ a late heartbeat recovers it; longer ⇒ the lease
    /// expires, the cell is reassigned, and the waking worker is fenced.
    Stall {
        /// Rounds of withheld heartbeats.
        rounds: u64,
    },
}

impl FabricFault {
    /// Report label.
    pub fn label(&self) -> &'static str {
        match self {
            FabricFault::Kill => "kill",
            FabricFault::TornManifest => "torn-manifest",
            FabricFault::TornSeed => "torn-seed",
            FabricFault::Stall { .. } => "stall",
        }
    }

    /// Does this fault burn one of the cell's bounded lease attempts?
    /// (Stalls shorter than the lease recover without a reassignment.)
    pub fn consumes_attempt(&self) -> bool {
        match self {
            FabricFault::Stall { rounds } => *rounds >= LEASE_ROUNDS,
            _ => true,
        }
    }
}

/// Fault kind labels in schedule-draw order.
pub const FABRIC_FAULT_KINDS: [&str; 4] = ["kill", "torn-manifest", "torn-seed", "stall"];

/// A seeded schedule of worker faults, keyed by `(cell, slice serial)`
/// where the serial counts every slice *execution* of the cell (re-runs
/// after reassignment get fresh serials, so a schedule can fault the
/// same cell repeatedly).
#[derive(Debug, Clone, Default)]
pub struct FabricChaosPlan {
    faults: BTreeMap<(CellId, u32), FabricFault>,
}

impl FabricChaosPlan {
    /// The empty (fault-free) schedule.
    pub fn none() -> Self {
        FabricChaosPlan::default()
    }

    /// Add one fault at a cell's `serial`-th slice execution.
    pub fn with(mut self, cell: CellId, serial: u32, fault: FabricFault) -> Self {
        self.faults.insert((cell, serial), fault);
        self
    }

    /// The fault scheduled for this slice execution, if any.
    pub fn at(&self, cell: CellId, serial: u32) -> Option<FabricFault> {
        self.faults.get(&(cell, serial)).copied()
    }

    /// Total faults scheduled.
    pub fn total(&self) -> usize {
        self.faults.len()
    }

    /// Scheduled faults per kind label, in [`FABRIC_FAULT_KINDS`] order.
    pub fn kind_counts(&self) -> Vec<(&'static str, usize)> {
        let mut counts = [0usize; 4];
        for fault in self.faults.values() {
            let idx = FABRIC_FAULT_KINDS
                .iter()
                .position(|k| *k == fault.label())
                .expect("label in kind table");
            counts[idx] += 1;
        }
        FABRIC_FAULT_KINDS
            .iter()
            .zip(counts)
            .map(|(k, c)| (*k, c))
            .collect()
    }

    /// All scheduled faults in key order.
    pub fn iter(&self) -> impl Iterator<Item = (CellId, u32, FabricFault)> + '_ {
        self.faults.iter().map(|(&(c, s), &f)| (c, s, f))
    }
}

/// Draw a deterministic fabric fault schedule: up to `faults` faults
/// spread over `cells` cells, each keyed to one of the cell's first
/// `slices_per_cell` slice executions.
///
/// The schedule respects the fabric's own recovery bounds so that a
/// chaos run is a *recovery* test, not a denial-of-service test: each
/// cell receives at most `MAX_ATTEMPTS - 2` attempt-consuming faults,
/// leaving it at least two clean grants to finish on. (Degradation to
/// fewer workers via poisoning still happens when kills concentrate on
/// one slot — that path is exercised, not avoided.)
pub fn fabric_chaos_plan(
    seed: u64,
    cells: usize,
    slices_per_cell: usize,
    faults: usize,
) -> FabricChaosPlan {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xfab41c);
    let mut plan = FabricChaosPlan::none();
    if cells == 0 || slices_per_cell == 0 {
        return plan;
    }
    let per_cell_cap = MAX_ATTEMPTS.saturating_sub(2).max(1) as usize;
    let mut consuming = vec![0usize; cells];
    let mut used: BTreeMap<(CellId, u32), ()> = BTreeMap::new();
    for _ in 0..faults {
        let cell = rng.random_range(0..cells as u64) as usize;
        let serial = rng.random_range(0..slices_per_cell as u64) as u32;
        if used.contains_key(&(cell, serial)) {
            continue; // one fault per slice execution
        }
        let kind = rng.random_range(0..4u32);
        let fault = match kind {
            0 => FabricFault::Kill,
            1 => FabricFault::TornManifest,
            2 => FabricFault::TornSeed,
            // Stall lengths straddle the lease: short ones exercise the
            // late-heartbeat path, long ones the expiry/fencing path.
            _ => FabricFault::Stall {
                rounds: rng.random_range(1..=LEASE_ROUNDS + 2),
            },
        };
        if fault.consumes_attempt() {
            if consuming[cell] >= per_cell_cap {
                continue; // keep the cell finishable
            }
            consuming[cell] += 1;
        }
        used.insert((cell, serial), ());
        plan = plan.with(cell, serial, fault);
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_are_reproducible_and_seed_sensitive() {
        let a = fabric_chaos_plan(11, 5, 4, 12);
        let b = fabric_chaos_plan(11, 5, 4, 12);
        let c = fabric_chaos_plan(12, 5, 4, 12);
        let key = |p: &FabricChaosPlan| p.iter().collect::<Vec<_>>();
        assert_eq!(key(&a), key(&b), "same seed, same schedule");
        assert_ne!(key(&a), key(&c), "different seed, different schedule");
        assert!(a.total() > 0);
    }

    #[test]
    fn attempt_consuming_faults_stay_below_the_retry_bound() {
        for seed in 0..20u64 {
            let plan = fabric_chaos_plan(seed, 3, 4, 40);
            let mut consuming = [0usize; 3];
            for (cell, _, fault) in plan.iter() {
                if fault.consumes_attempt() {
                    consuming[cell] += 1;
                }
            }
            assert!(
                consuming.iter().all(|&c| c + 2 <= MAX_ATTEMPTS as usize),
                "seed {seed}: a cell could exhaust its attempts: {consuming:?}"
            );
        }
    }

    #[test]
    fn stalls_straddle_the_lease_boundary() {
        // Across a pool of seeds both stall flavours must appear —
        // otherwise the fencing path (or the late-heartbeat path) is
        // never exercised by the nightly matrix.
        let (mut short, mut long) = (0, 0);
        for seed in 0..30u64 {
            for (_, _, fault) in fabric_chaos_plan(seed, 4, 4, 30).iter() {
                if let FabricFault::Stall { rounds } = fault {
                    if rounds < LEASE_ROUNDS {
                        short += 1;
                    } else {
                        long += 1;
                    }
                }
            }
        }
        assert!(short > 0, "no recoverable stalls drawn");
        assert!(long > 0, "no lease-expiring stalls drawn");
    }
}
