//! Lease-based cell assignment: the fabric's ownership state machine.
//!
//! Every campaign cell is owned by at most one worker at a time, and
//! ownership is *time-bounded*: a lease granted at tick `t` expires at
//! `t + LEASE_ROUNDS` unless the worker renews it with a heartbeat
//! (which it does at every slice boundary). The coordinator never asks
//! a worker whether it is alive — it watches the lease:
//!
//! * a worker that crashes is detected immediately (its execution slot
//!   reports the death that round);
//! * a worker that *hangs* is detected by lease expiry — no heartbeat
//!   before the deadline means the cell goes back to the pool;
//! * a worker that was merely slow discovers on wake-up that its lease
//!   epoch was superseded (fencing) and discards its claim instead of
//!   racing the replacement.
//!
//! Reassignment is bounded: each attempt backs off exponentially (from
//! [`BACKOFF_BASE`] up to [`BACKOFF_CAP`] rounds) and a cell that keeps
//! failing is *reported* as failed after [`MAX_ATTEMPTS`] grants, never
//! silently dropped and never retried forever.

use std::collections::BTreeSet;

use eof_rtos::bugs::BugId;

use super::{BACKOFF_BASE, BACKOFF_CAP, LEASE_ROUNDS, MAX_ATTEMPTS};

/// Index of a cell in the fabric's cell table.
pub type CellId = usize;

/// Index of a worker slot.
pub type WorkerId = usize;

/// Monotonic fencing token: every lease grant gets a fresh epoch, and a
/// worker's writes are only honoured while its epoch is the cell's
/// current one. A worker waking from a stall with a stale epoch has
/// been fenced off and must discard its claim.
pub type Epoch = u64;

/// Why a cell moved back to the pending pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReassignReason {
    /// The owning worker's process died (crash, kill, panic).
    WorkerDeath,
    /// The lease expired without a heartbeat (hung/stalled worker).
    LeaseExpiry,
}

impl ReassignReason {
    /// Report label.
    pub fn label(&self) -> &'static str {
        match self {
            ReassignReason::WorkerDeath => "worker-death",
            ReassignReason::LeaseExpiry => "lease-expiry",
        }
    }
}

/// One recorded reassignment, for the bounded-recovery invariant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reassignment {
    /// The cell that lost its owner.
    pub cell: CellId,
    /// Tick at which the loss was detected.
    pub detected_at: u64,
    /// Tick at which the cell became schedulable again (after backoff).
    pub ready_at: u64,
    /// Why the cell was taken back.
    pub reason: ReassignReason,
    /// The attempt number being abandoned (0-based).
    pub attempt: u32,
}

/// What one completed cell contributed to the merge.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CellOutcome {
    /// Table-2 bugs the cell's campaign found.
    pub bugs: BTreeSet<BugId>,
    /// Final coverage bitmap edge ids, sorted ascending.
    pub coverage_edges: Vec<u64>,
    /// Distinct branches (len of `coverage_edges`'s bitmap view).
    pub branches: usize,
    /// Executions the campaign performed.
    pub execs: u64,
    /// Unique crash classes persisted in the cell's store.
    pub crashes: usize,
    /// Lease attempts the cell consumed (1 = no reassignment).
    pub attempts: u32,
    /// Checkpoint store entries persist skipped as corrupt while
    /// resuming (counted-skip degradation absorbed en route).
    pub checkpoint_skips: usize,
    /// Checkpoints discarded wholesale (torn manifest → fresh rerun).
    pub checkpoints_discarded: usize,
    /// Store prefix entries re-verified by `resume_campaign` across all
    /// resumes of this cell (seeds + crashes + coverage edges).
    pub prefix_verified: usize,
}

/// Scheduling state of one cell.
#[derive(Debug, Clone, PartialEq)]
pub enum CellState {
    /// Waiting for a worker; schedulable once `ready_at` is reached.
    Pending {
        /// Earliest tick the cell may be leased (backoff gate).
        ready_at: u64,
        /// Attempt number the next lease will carry (0-based).
        attempt: u32,
    },
    /// Owned by a worker under a live lease.
    Leased {
        /// The owning worker slot.
        worker: WorkerId,
        /// Fencing token of this grant.
        epoch: Epoch,
        /// Tick the lease lapses without a heartbeat.
        expires_at: u64,
        /// Attempt number of this grant (0-based).
        attempt: u32,
    },
    /// Completed; contribution merged.
    Done(Box<CellOutcome>),
    /// Permanently failed — *reported*, never silently lost.
    Failed {
        /// Human-readable reason (bounded retries exhausted, no live
        /// workers left, ...).
        reason: String,
        /// Attempts consumed before giving up.
        attempts: u32,
    },
}

/// The coordinator's view of every cell, plus the lease bookkeeping
/// that the failure detectors run on.
#[derive(Debug)]
pub struct LeaseTable {
    states: Vec<CellState>,
    next_epoch: Epoch,
    /// Every reassignment, in detection order.
    pub reassignments: Vec<Reassignment>,
    /// Leases granted (first assignments + reassignments).
    pub leases_granted: u64,
    /// Heartbeats processed (lease renewals).
    pub heartbeats: u64,
    /// Leases that lapsed without a heartbeat.
    pub lease_expiries: u64,
}

impl LeaseTable {
    /// A table with `cells` pending cells, all schedulable at tick 0.
    pub fn new(cells: usize) -> Self {
        LeaseTable {
            states: vec![
                CellState::Pending {
                    ready_at: 0,
                    attempt: 0
                };
                cells
            ],
            next_epoch: 1,
            reassignments: Vec::new(),
            leases_granted: 0,
            heartbeats: 0,
            lease_expiries: 0,
        }
    }

    /// Current state of one cell.
    pub fn state(&self, cell: CellId) -> &CellState {
        &self.states[cell]
    }

    /// Lowest-numbered pending cell schedulable at `tick`, if any.
    /// Deterministic: ties are impossible (ids are unique) and the scan
    /// order is fixed, so identical histories pick identical cells.
    pub fn next_schedulable(&self, tick: u64) -> Option<(CellId, u32)> {
        self.states.iter().enumerate().find_map(|(id, s)| match s {
            CellState::Pending { ready_at, attempt } if *ready_at <= tick => Some((id, *attempt)),
            _ => None,
        })
    }

    /// Grant a lease on a pending cell. Returns the fencing epoch.
    pub fn grant(&mut self, cell: CellId, worker: WorkerId, tick: u64) -> Epoch {
        let attempt = match &self.states[cell] {
            CellState::Pending { attempt, .. } => *attempt,
            other => panic!("granting a lease on non-pending cell {cell}: {other:?}"),
        };
        let epoch = self.next_epoch;
        self.next_epoch += 1;
        self.leases_granted += 1;
        self.states[cell] = CellState::Leased {
            worker,
            epoch,
            expires_at: tick + LEASE_ROUNDS,
            attempt,
        };
        epoch
    }

    /// Renew a lease (heartbeat) — only honoured under the live epoch.
    /// Returns false when the heartbeat was fenced (stale epoch).
    pub fn heartbeat(&mut self, cell: CellId, epoch: Epoch, tick: u64) -> bool {
        match &mut self.states[cell] {
            CellState::Leased {
                epoch: live,
                expires_at,
                ..
            } if *live == epoch => {
                *expires_at = tick + LEASE_ROUNDS;
                self.heartbeats += 1;
                true
            }
            _ => false,
        }
    }

    /// Is `epoch` still the live lease on `cell`? Workers check this on
    /// wake-up before touching the cell's store again.
    pub fn epoch_live(&self, cell: CellId, epoch: Epoch) -> bool {
        matches!(
            self.states[cell],
            CellState::Leased { epoch: live, .. } if live == epoch
        )
    }

    /// Mark a leased cell completed.
    pub fn complete(&mut self, cell: CellId, mut outcome: CellOutcome) {
        let attempt = match &self.states[cell] {
            CellState::Leased { attempt, .. } => *attempt,
            other => panic!("completing a cell that is not leased: {other:?}"),
        };
        outcome.attempts = attempt + 1;
        self.states[cell] = CellState::Done(Box::new(outcome));
    }

    /// Take a cell back after its owner died or its lease lapsed. The
    /// cell re-enters the pool after exponential backoff, or becomes
    /// `Failed` once [`MAX_ATTEMPTS`] grants have been burned.
    pub fn reassign(&mut self, cell: CellId, tick: u64, reason: ReassignReason) {
        let attempt = match &self.states[cell] {
            CellState::Leased { attempt, .. } => *attempt,
            other => panic!("reassigning a cell that is not leased: {other:?}"),
        };
        if reason == ReassignReason::LeaseExpiry {
            self.lease_expiries += 1;
        }
        let next_attempt = attempt + 1;
        if next_attempt >= MAX_ATTEMPTS {
            self.states[cell] = CellState::Failed {
                reason: format!(
                    "cell burned {MAX_ATTEMPTS} lease attempts (last loss: {})",
                    reason.label()
                ),
                attempts: next_attempt,
            };
            self.reassignments.push(Reassignment {
                cell,
                detected_at: tick,
                ready_at: u64::MAX,
                reason,
                attempt,
            });
            return;
        }
        // Exponential backoff in ticks, capped: a flapping cell must not
        // monopolise the pool, but recovery latency stays bounded.
        let backoff = BACKOFF_BASE
            .saturating_mul(1u64 << next_attempt.min(6))
            .min(BACKOFF_CAP);
        let ready_at = tick + backoff;
        self.states[cell] = CellState::Pending {
            ready_at,
            attempt: next_attempt,
        };
        self.reassignments.push(Reassignment {
            cell,
            detected_at: tick,
            ready_at,
            reason,
            attempt,
        });
    }

    /// Fail every cell still pending/leased — the no-live-workers exit:
    /// degrading to zero workers must end in a loud report, not a stall.
    pub fn fail_remaining(&mut self, reason: &str) {
        for state in &mut self.states {
            match state {
                CellState::Pending { attempt, .. } => {
                    *state = CellState::Failed {
                        reason: reason.to_string(),
                        attempts: *attempt,
                    };
                }
                CellState::Leased { attempt, .. } => {
                    *state = CellState::Failed {
                        reason: reason.to_string(),
                        attempts: *attempt + 1,
                    };
                }
                _ => {}
            }
        }
    }

    /// Leased cells whose lease lapsed at or before `tick`, in cell
    /// order (deterministic detection order).
    pub fn expired(&self, tick: u64) -> Vec<(CellId, WorkerId)> {
        self.states
            .iter()
            .enumerate()
            .filter_map(|(id, s)| match s {
                CellState::Leased {
                    worker, expires_at, ..
                } if *expires_at <= tick => Some((id, *worker)),
                _ => None,
            })
            .collect()
    }

    /// True once every cell is `Done` or `Failed`.
    pub fn all_settled(&self) -> bool {
        self.states
            .iter()
            .all(|s| matches!(s, CellState::Done(_) | CellState::Failed { .. }))
    }

    /// Completed outcomes in cell order.
    pub fn outcomes(&self) -> impl Iterator<Item = (CellId, &CellOutcome)> {
        self.states
            .iter()
            .enumerate()
            .filter_map(|(id, s)| match s {
                CellState::Done(o) => Some((id, o.as_ref())),
                _ => None,
            })
    }

    /// Failed cells with reasons, in cell order.
    pub fn failures(&self) -> Vec<(CellId, String, u32)> {
        self.states
            .iter()
            .enumerate()
            .filter_map(|(id, s)| match s {
                CellState::Failed { reason, attempts } => Some((id, reason.clone(), *attempts)),
                _ => None,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grant_heartbeat_complete_walks_the_happy_path() {
        let mut t = LeaseTable::new(2);
        assert_eq!(t.next_schedulable(0), Some((0, 0)));
        let e0 = t.grant(0, 3, 0);
        assert_eq!(t.next_schedulable(0), Some((1, 0)));
        assert!(t.heartbeat(0, e0, 2));
        assert!(t.epoch_live(0, e0));
        t.complete(0, CellOutcome::default());
        assert!(matches!(t.state(0), CellState::Done(o) if o.attempts == 1));
        assert_eq!(t.heartbeats, 1);
        assert_eq!(t.leases_granted, 1);
    }

    #[test]
    fn expiry_is_detected_and_fences_the_old_epoch() {
        let mut t = LeaseTable::new(1);
        let e0 = t.grant(0, 0, 0);
        assert!(t.expired(LEASE_ROUNDS - 1).is_empty());
        assert_eq!(t.expired(LEASE_ROUNDS), vec![(0, 0)]);
        t.reassign(0, 4, ReassignReason::LeaseExpiry);
        // Backoff: attempt 1 ⇒ 1 << 1 = 2 ticks.
        assert_eq!(
            t.state(0),
            &CellState::Pending {
                ready_at: 6,
                attempt: 1
            }
        );
        assert_eq!(t.next_schedulable(5), None, "backoff gates the reassign");
        assert_eq!(t.next_schedulable(6), Some((0, 1)));
        let e1 = t.grant(0, 1, 6);
        assert_ne!(e0, e1);
        assert!(!t.epoch_live(0, e0), "stale epoch is fenced");
        assert!(!t.heartbeat(0, e0, 7), "stale heartbeat is refused");
        assert!(t.epoch_live(0, e1));
        assert_eq!(t.lease_expiries, 1);
        assert_eq!(t.reassignments.len(), 1);
        assert_eq!(t.reassignments[0].reason, ReassignReason::LeaseExpiry);
    }

    #[test]
    fn bounded_retries_end_in_a_reported_failure() {
        let mut t = LeaseTable::new(1);
        for attempt in 0..MAX_ATTEMPTS {
            let (cell, a) = t.next_schedulable(u64::MAX - 100).expect("schedulable");
            assert_eq!((cell, a), (0, attempt));
            t.grant(0, 0, 0);
            t.reassign(0, 10, ReassignReason::WorkerDeath);
        }
        match t.state(0) {
            CellState::Failed { reason, attempts } => {
                assert_eq!(*attempts, MAX_ATTEMPTS);
                assert!(reason.contains("worker-death"), "{reason}");
            }
            other => panic!("expected Failed, got {other:?}"),
        }
        assert!(t.all_settled());
        assert_eq!(t.failures().len(), 1);
    }

    #[test]
    fn backoff_is_exponential_and_capped() {
        let mut t = LeaseTable::new(1);
        let mut delays = Vec::new();
        for _ in 1..MAX_ATTEMPTS {
            t.grant(0, 0, 100);
            t.reassign(0, 100, ReassignReason::WorkerDeath);
            match t.state(0) {
                CellState::Pending { ready_at, .. } => delays.push(ready_at - 100),
                other => panic!("{other:?}"),
            }
            // Make it schedulable again regardless of backoff.
            if let CellState::Pending { ready_at, .. } = &mut t.states[0] {
                *ready_at = 0;
            }
        }
        assert_eq!(delays, vec![2, 4, 8, 8], "doubling then capped");
    }

    #[test]
    fn fail_remaining_reports_every_unsettled_cell() {
        let mut t = LeaseTable::new(3);
        t.grant(1, 0, 0);
        t.complete(1, CellOutcome::default());
        t.grant(2, 0, 0);
        t.fail_remaining("no live workers");
        assert!(t.all_settled());
        let failures = t.failures();
        assert_eq!(failures.len(), 2);
        assert!(failures.iter().all(|(_, r, _)| r == "no live workers"));
        assert!(matches!(t.state(1), CellState::Done(_)));
    }
}
