//! The fabric determinism gate, as a tier-1 test: an N-worker fabric
//! over the full four-OS grid must merge to *exactly* the bug set and
//! coverage bitmap a plain serial loop produces — and keep doing so
//! when a worker is killed mid-campaign. This is the PR-5/PR-6
//! differential-equivalence pattern applied one layer up: the fabric
//! (leases, checkpoints, reassignment) is pure mechanism and must be
//! invisible in the results.

use eof::core::fabric::LEASE_ROUNDS;
use eof::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

fn root(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "eof-fabric-gate-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

const ALL_OSES: [OsKind; 4] = [
    OsKind::FreeRtos,
    OsKind::RtThread,
    OsKind::NuttX,
    OsKind::Zephyr,
];

fn grid(hours: f64) -> Vec<FuzzerConfig> {
    fabric_grid(&ALL_OSES, &[7], hours, false)
}

#[test]
fn four_worker_fabric_equals_serial_on_all_four_oses() {
    let config = FabricConfig::new(grid(0.05), 4, &root("gate"));
    let report = run_fabric(&config, &FabricChaosPlan::none());
    assert_eq!(report.violations, Vec::<String>::new());
    assert!(report.failures.is_empty(), "{:?}", report.failures);
    assert_eq!(report.outcomes.len(), config.cells.len());

    let serial = run_serial(&config.cells);
    assert_eq!(
        diff_against_serial(&report, &serial),
        Vec::<String>::new(),
        "4-worker fabric must be byte-identical to the serial loop"
    );
    // The gate is not vacuous: the grid finds real bugs and coverage.
    assert!(!report.merged_bugs.is_empty(), "grid found no bugs");
    assert!(
        report.merged_edges.len() > 100,
        "grid covered almost nothing"
    );
    let _ = std::fs::remove_dir_all(&config.root);
}

#[test]
fn worker_kill_mid_campaign_loses_no_confirmed_bug() {
    // Kill the worker holding cell 0 right after its first checkpoint
    // lands, and stall-expire cell 2's lease for good measure: the
    // reassigned successors must resume the dead workers' stores
    // (prefix-verified, not re-trusted) and the final merge must equal
    // a fault-free run — zero lost bugs, zero lost coverage.
    let mut config = FabricConfig::new(grid(0.05), 4, &root("kill"));
    config.slices_per_cell = 2;
    let plan = FabricChaosPlan::none().with(0, 0, FabricFault::Kill).with(
        2,
        0,
        FabricFault::Stall {
            rounds: LEASE_ROUNDS + 2,
        },
    );
    let report = run_fabric(&config, &plan);
    assert_eq!(report.violations, Vec::<String>::new());
    assert!(report.failures.is_empty(), "{:?}", report.failures);
    assert_eq!(report.accounting.worker_deaths, 1);
    assert_eq!(report.lease_expiries, 1);
    assert_eq!(report.reassignments.len(), 2);

    // Both reassigned cells resumed from the last valid checkpoint.
    for cell in [0usize, 2] {
        let outcome = &report
            .outcomes
            .iter()
            .find(|(c, _)| *c == cell)
            .expect("reassigned cell completed")
            .1;
        assert_eq!(outcome.attempts, 2, "cell {cell}: one reassignment");
        assert!(
            outcome.prefix_verified > 0,
            "cell {cell}: successor did not prefix-verify the checkpoint"
        );
    }

    let serial = run_serial(&config.cells);
    assert_eq!(
        diff_against_serial(&report, &serial),
        Vec::<String>::new(),
        "faulted fabric must still merge identically to serial"
    );

    let baseline = FabricConfig::new(grid(0.05), 4, &root("kill-baseline"));
    let clean = run_fabric(&baseline, &FabricChaosPlan::none());
    assert_eq!(
        report.merged_bugs, clean.merged_bugs,
        "a confirmed bug was lost"
    );
    assert_eq!(report.merged_edges, clean.merged_edges, "coverage was lost");
    let _ = std::fs::remove_dir_all(&config.root);
    let _ = std::fs::remove_dir_all(&baseline.root);
}

#[test]
fn worker_count_is_invisible_in_the_merge() {
    // 1, 2 and 4 workers over the same cells: identical gate unions.
    let cells = grid(0.04);
    let mut merges = Vec::new();
    for workers in [1usize, 2, 4] {
        let config = FabricConfig::new(cells.clone(), workers, &root("scale"));
        let report = run_fabric(&config, &FabricChaosPlan::none());
        assert!(report.failures.is_empty());
        merges.push((report.merged_bugs.clone(), report.merged_edges.clone()));
        let _ = std::fs::remove_dir_all(&config.root);
    }
    assert_eq!(merges[0], merges[1]);
    assert_eq!(merges[1], merges[2]);
}
