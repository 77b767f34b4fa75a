//! The fabric worker: one cell advanced slice by slice through
//! checkpoints in the PR-4 persist store.
//!
//! A cell's campaign (budget `B`, `slices` checkpoints) is executed as
//! a ladder of growing budgets: slice `k` takes the campaign to
//! `B·(k+1)/slices` simulated hours (the last slice to exactly `B`)
//! and lands a *complete* store (manifest last) in the cell's
//! checkpoint directory. Because campaigns are bit-deterministic in
//! `(config, seed)` and simulated time is free, every slice after the
//! first is a [`resume_campaign_with`] call: re-derive at the longer
//! budget, then prefix-verify that the persisted checkpoint is exactly
//! what the longer run re-derived. A replacement worker picking up a dead
//! worker's cell runs the *same* procedure — resuming from the last
//! valid checkpoint is the normal path, not a special recovery mode.
//!
//! Checkpoint damage degrades, never kills: a torn entry inside the
//! store is persist's counted skip (the resume still verifies the
//! surviving prefix); a torn *manifest* makes the checkpoint unusable,
//! so it is discarded and the slice re-runs from scratch — again free
//! in simulated time, and counted in the cell's outcome.

use std::path::Path;

use crate::campaign::run_campaign_with_coverage;
use crate::config::FuzzerConfig;
use crate::persist::StoreError;
use crate::replay::resume_campaign_with;
use eof_rtos::bugs::BugId;
use std::collections::BTreeSet;

/// What one executed slice reports back to the coordinator.
#[derive(Debug, Clone)]
pub struct SliceReport {
    /// Simulated hours the checkpoint now covers.
    pub consumed_hours: f64,
    /// Coverage edges after this slice, sorted ascending (the
    /// coordinator merges these into the fabric bitmap every
    /// heartbeat, not just at completion).
    pub coverage_edges: Vec<u64>,
    /// Bugs found so far.
    pub bugs: BTreeSet<BugId>,
    /// Store entries persist skipped as corrupt while resuming.
    pub checkpoint_skips: usize,
    /// 1 when a torn checkpoint was discarded and re-derived fresh.
    pub checkpoints_discarded: usize,
    /// Prefix entries `resume_campaign` verified (seeds + crashes +
    /// coverage edges re-derived by the longer run).
    pub prefix_verified: usize,
    /// Final campaign result once the last slice lands.
    pub finished: Option<FinishedCell>,
}

/// The completed cell, as the worker hands it to the merge.
#[derive(Debug, Clone)]
pub struct FinishedCell {
    /// Distinct branches of the final coverage map.
    pub branches: usize,
    /// Executions performed.
    pub execs: u64,
    /// Unique crash classes found.
    pub crashes: usize,
    /// Supervisor resilience accounting of the final full-budget
    /// derivation.
    pub resilience: crate::supervisor::ResilienceStats,
    /// Merged telemetry summary of the final full-budget derivation,
    /// when recording was on.
    pub telemetry: Option<eof_telemetry::TelemetrySummary>,
}

/// Budget the checkpoint ladder targets at slice `k` (0-based) of
/// `slices`. Pure f64 arithmetic on fixed inputs, so every worker —
/// and every *re*-worker after a reassignment — computes bit-identical
/// targets, which the resume budget checks rely on. The last slice is
/// the budget itself: `total * slices / slices` can round past it
/// (0.05 h over 3 slices gives 0.05000000000000001), and a store that
/// consumed more than its budget cannot be resumed at that budget.
pub fn slice_target_hours(total_hours: f64, slices: usize, slice: usize) -> f64 {
    if slice + 1 >= slices {
        return total_hours;
    }
    total_hours * (slice as f64 + 1.0) / slices as f64
}

/// Advance one cell to `target_hours`, checkpointing into `dir`.
///
/// Fresh directory (no manifest) ⇒ run the campaign from zero with
/// persistence attached. Existing checkpoint ⇒ resume and
/// prefix-verify it. A checkpoint whose manifest is torn or whose
/// prefix diverged is discarded (counted) and the slice re-runs from
/// zero — recovery is always *forward*, never wedged.
pub fn advance_cell(config: &FuzzerConfig, dir: &Path, target_hours: f64) -> SliceReport {
    let mut report = SliceReport {
        consumed_hours: target_hours,
        coverage_edges: Vec::new(),
        bugs: BTreeSet::new(),
        checkpoint_skips: 0,
        checkpoints_discarded: 0,
        prefix_verified: 0,
        finished: None,
    };
    let mut sliced = config.clone();
    sliced.budget_hours = target_hours;
    sliced.persist = Some(dir.to_path_buf());

    let has_manifest = dir.join("manifest.eof").exists();
    let resumed = if has_manifest {
        match resume_campaign_with(sliced.clone(), dir) {
            Ok(outcome) => Some(outcome),
            Err(StoreError::Io(_))
            | Err(StoreError::Corrupt(_))
            | Err(StoreError::ForeignSchema { .. })
            | Err(StoreError::MissingManifest(_))
            | Err(StoreError::Diverged(_)) => {
                // The checkpoint is unusable (torn manifest, foreign
                // bytes, or a prefix that no longer verifies). Discard
                // it and re-derive from zero — simulated time makes the
                // rerun free, and determinism makes it equivalent.
                report.checkpoints_discarded += 1;
                let _ = std::fs::remove_dir_all(dir);
                None
            }
            Err(e @ StoreError::ConfigMismatch(_)) => {
                // A config mismatch is a caller bug, not a fault to
                // absorb: the fabric handed this worker the wrong cell.
                panic!("fabric cell/checkpoint mismatch at {}: {e}", dir.display());
            }
        }
    } else {
        None
    };

    let (result, coverage) = match resumed {
        Some(outcome) => {
            report.checkpoint_skips = outcome.skips.total();
            report.prefix_verified =
                outcome.verified_seeds + outcome.verified_crashes + outcome.verified_edges;
            (outcome.result, outcome.coverage)
        }
        None => run_campaign_with_coverage(sliced),
    };

    report.coverage_edges = coverage.iter().collect();
    report.coverage_edges.sort_unstable();
    report.bugs = result.bugs.iter().copied().collect();
    if report.consumed_hours == config.budget_hours {
        report.finished = Some(FinishedCell {
            branches: result.branches,
            execs: result.stats.execs,
            crashes: result.crashes.len(),
            resilience: result.resilience,
            telemetry: result.telemetry.as_ref().map(|r| r.summary()),
        });
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persist;
    use eof_rtos::OsKind;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn tmpdir(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "eof-fabworker-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn cell(os: OsKind, seed: u64, hours: f64) -> FuzzerConfig {
        let mut c = FuzzerConfig::eof(os, seed);
        c.budget_hours = hours;
        c.snapshot_hours = hours / 4.0;
        c
    }

    #[test]
    fn slice_targets_are_monotone_and_exact() {
        // Includes splits that round (0.05 h over 3 or 6 slices, 0.06 h
        // over 9): the last slice must land bit-exactly on the budget,
        // not an ulp past it.
        for total in [0.01, 0.05, 0.06, 0.1, 0.12, 0.3, 1.0 / 3.0, 24.0] {
            for slices in 1..=9 {
                let targets: Vec<f64> = (0..slices)
                    .map(|k| slice_target_hours(total, slices, k))
                    .collect();
                assert!(targets.windows(2).all(|w| w[0] < w[1]));
                assert_eq!(
                    targets[slices - 1].to_bits(),
                    total.to_bits(),
                    "{total} h over {slices} slices ends at {}",
                    targets[slices - 1]
                );
            }
        }
    }

    #[test]
    fn a_three_slice_ladder_resumes_at_the_cells_own_budget() {
        // 0.05 h does not split evenly into thirds in f64: the final
        // checkpoint must still record exactly the budget, so a resume
        // at that budget accepts the store.
        let config = cell(OsKind::FreeRtos, 7, 0.05);
        let dir = tmpdir("thirds");
        let mut last = None;
        for k in 0..3 {
            last = Some(advance_cell(
                &config,
                &dir,
                slice_target_hours(config.budget_hours, 3, k),
            ));
        }
        assert!(last.unwrap().finished.is_some(), "final slice finishes");
        let loaded = persist::open(&dir).unwrap();
        assert_eq!(loaded.manifest.consumed_hours, config.budget_hours);
        let resumed = resume_campaign_with(config.clone(), &dir).expect("resume at the budget");
        assert!(resumed.verified_seeds > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_ladder_matches_a_straight_run() {
        let config = cell(OsKind::FreeRtos, 7, 0.08);
        let dir = tmpdir("ladder");
        let mut last = None;
        for k in 0..4 {
            let target = slice_target_hours(config.budget_hours, 4, k);
            let report = advance_cell(&config, &dir, target);
            assert_eq!(report.checkpoints_discarded, 0);
            assert_eq!(report.checkpoint_skips, 0);
            if k > 0 {
                assert!(report.prefix_verified > 0, "slice {k} verified nothing");
            }
            last = Some(report);
        }
        let last = last.unwrap();
        let finished = last.finished.expect("final slice finishes the cell");
        // The ladder's endpoint is the plain campaign, bit for bit.
        let mut straight = config.clone();
        straight.persist = None;
        let reference = crate::campaign::run_campaign(straight);
        assert_eq!(finished.branches, reference.branches);
        assert_eq!(finished.execs, reference.stats.execs);
        assert_eq!(
            last.bugs,
            reference.bugs.iter().copied().collect::<BTreeSet<_>>()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_manifest_discards_the_checkpoint_and_recovers() {
        let config = cell(OsKind::FreeRtos, 7, 0.08);
        let dir = tmpdir("torn-manifest");
        advance_cell(&config, &dir, slice_target_hours(0.08, 4, 0));
        // Tear the manifest the way a dying writer would: truncate it.
        let path = dir.join("manifest.eof");
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() / 2]).unwrap();
        let report = advance_cell(&config, &dir, slice_target_hours(0.08, 4, 1));
        assert_eq!(report.checkpoints_discarded, 1);
        assert!(report.finished.is_none());
        // The re-derived checkpoint is complete and loadable again.
        let loaded = persist::open(&dir).unwrap();
        assert_eq!(loaded.skips.total(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_seed_entry_degrades_to_a_counted_skip() {
        let config = cell(OsKind::FreeRtos, 7, 0.08);
        let dir = tmpdir("torn-seed");
        advance_cell(&config, &dir, slice_target_hours(0.08, 4, 0));
        // Tear one persisted seed mid-record.
        let corpus = dir.join("corpus");
        let victim = std::fs::read_dir(&corpus)
            .unwrap()
            .flatten()
            .map(|e| e.path())
            .find(|p| p.extension().is_some_and(|e| e == "seed"))
            .expect("checkpoint holds at least one seed");
        let text = std::fs::read_to_string(&victim).unwrap();
        std::fs::write(&victim, &text[..text.len() / 2]).unwrap();
        let report = advance_cell(&config, &dir, slice_target_hours(0.08, 4, 1));
        assert_eq!(report.checkpoints_discarded, 0, "store itself survives");
        assert_eq!(report.checkpoint_skips, 1, "the torn entry is counted");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reassigned_worker_resumes_where_the_dead_one_stopped() {
        // Worker A checkpoints slice 0 and "dies"; worker B (a fresh
        // call) resumes from A's checkpoint and lands the same final
        // state a never-interrupted ladder produces.
        let config = cell(OsKind::Zephyr, 11, 0.08);
        let interrupted = tmpdir("handoff");
        advance_cell(&config, &interrupted, slice_target_hours(0.08, 2, 0));
        let report_b = advance_cell(&config, &interrupted, slice_target_hours(0.08, 2, 1));
        assert!(report_b.prefix_verified > 0, "B verified A's checkpoint");

        let clean = tmpdir("handoff-clean");
        advance_cell(&config, &clean, slice_target_hours(0.08, 2, 0));
        let report_clean = advance_cell(&config, &clean, slice_target_hours(0.08, 2, 1));
        assert_eq!(report_b.bugs, report_clean.bugs);
        assert_eq!(report_b.coverage_edges, report_clean.coverage_edges);
        let _ = std::fs::remove_dir_all(&interrupted);
        let _ = std::fs::remove_dir_all(&clean);
    }
}
