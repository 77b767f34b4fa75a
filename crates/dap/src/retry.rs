//! Transient-error retry at the link layer.
//!
//! µAFL (PAPERS.md) reports debug-link flakiness as a first-order
//! operational cost of on-hardware feedback: a dropped SWD transaction is
//! *not* a dead target, and treating it as one converts a millisecond
//! glitch into a multi-second reflash. [`RetryPolicy`] wraps a transport
//! operation and retries connection-loss errors ([`DapError::LinkDown`],
//! [`DapError::ConnectionTimeout`]) with exponential backoff in simulated
//! cycles, so retry cost genuinely eats campaign budget. Anything that is
//! not a connection loss — a target-side `HalError`, a protocol error —
//! is returned immediately; those are the supervisor's problem, not ours.

use crate::error::DapError;
use crate::transport::{DebugTransport, ScalarLowering};
use crate::txn::{Txn, TxnResult};
use eof_telemetry as tel;

/// Retry budget and backoff shape for transient link errors.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total attempts, including the first (1 = no retry).
    pub max_attempts: u32,
    /// Backoff before the first retry, in cycles.
    pub base_backoff: u64,
    /// Backoff cap: doubling stops here.
    pub max_backoff: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        // 4 attempts with 256 → 512 → 1024-cycle backoffs rides out a
        // flaky-link burst but gives up (total < 2ms of simulated time)
        // well before the supervisor's cheapest rung would.
        RetryPolicy {
            max_attempts: 4,
            base_backoff: 256,
            max_backoff: 8_192,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries (behaviour-preserving passthrough).
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            base_backoff: 0,
            max_backoff: 0,
        }
    }

    /// Run `op` against `pipe`, retrying connection losses with
    /// exponential backoff. Accounting lands in `stats`.
    pub fn run<T>(
        &self,
        stats: &mut RetryStats,
        pipe: &mut DebugTransport,
        mut op: impl FnMut(&mut DebugTransport) -> Result<T, DapError>,
    ) -> Result<T, DapError> {
        let mut backoff = self.base_backoff;
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            stats.attempts += 1;
            match op(pipe) {
                Ok(v) => {
                    if attempt > 1 {
                        stats.recovered += 1;
                    }
                    return Ok(v);
                }
                Err(e) if e.is_connection_loss() && attempt < self.max_attempts.max(1) => {
                    stats.retries += 1;
                    if backoff > 0 {
                        pipe.sleep(backoff);
                        stats.backoff_cycles += backoff;
                    }
                    backoff = (backoff.saturating_mul(2)).min(self.max_backoff).max(1);
                }
                Err(e) => {
                    if e.is_connection_loss() {
                        stats.exhausted += 1;
                        tel::event("dap.retry.exhausted", pipe.now(), || {
                            format!("attempts={attempt} error={e:?}")
                        });
                    }
                    return Err(e);
                }
            }
        }
    }

    /// Submit a transaction, retrying connection losses the way its
    /// wire mode allows. An empty transaction is free: no attempt is
    /// counted.
    ///
    /// **Vectored: all-or-nothing replay.** Replaying a *batch* is only
    /// sound because `DebugTransport::run_txn` guarantees a connection
    /// loss precedes application — the batch submit is the single
    /// fault-injection point, so a dropped transaction applied nothing
    /// and the retry replays it whole. Partial application (some ops
    /// landed, then the link died, then the replay re-applies them) is
    /// impossible by construction, which is exactly the hazard that
    /// makes naive batch retries corrupt coverage buffers.
    ///
    /// **Scalar: resume at the failed step.** Each step of the scalar
    /// lowering is retried on its own, exactly as [`Self::run`] retries
    /// one scalar operation. The steps before a failure applied, so the
    /// burst is never replayed whole: re-running `[DrainTrace,
    /// DrainRing]` after the trace drain landed would lose its stream.
    pub fn run_txn(
        &self,
        stats: &mut RetryStats,
        pipe: &mut DebugTransport,
        txn: &Txn,
    ) -> Result<Vec<TxnResult>, DapError> {
        if txn.is_empty() {
            return Ok(Vec::new());
        }
        if txn.is_vectored() {
            return self.run(stats, pipe, |p| p.run_txn(txn));
        }
        let mut lowering = ScalarLowering::new(txn);
        while !lowering.done() {
            self.run(stats, pipe, |p| lowering.step(p))?;
        }
        Ok(lowering.finish())
    }
}

/// Counters for link-layer retry activity, summed into the campaign's
/// `ResilienceStats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetryStats {
    /// Individual operation attempts (including first tries).
    pub attempts: u64,
    /// Retries issued after a connection loss.
    pub retries: u64,
    /// Operations that succeeded only after at least one retry.
    pub recovered: u64,
    /// Operations abandoned with the retry budget spent.
    pub exhausted: u64,
    /// Simulated cycles spent sleeping between retries.
    pub backoff_cycles: u64,
}

impl RetryStats {
    /// Add every nonzero count to the installed telemetry recorder as
    /// the `dap.retry.*` counters (a zero count leaves no key).
    pub fn emit_telemetry(&self) {
        for (name, n) in [
            ("dap.retry.attempts", self.attempts),
            ("dap.retry.retries", self.retries),
            ("dap.retry.recovered", self.recovered),
            ("dap.retry.exhausted", self.exhausted),
            ("dap.retry.backoff_cycles", self.backoff_cycles),
        ] {
            if n > 0 {
                tel::count(name, n);
            }
        }
    }

    /// Fold another counter set into this one (per-op stats → campaign).
    pub fn absorb(&mut self, other: &RetryStats) {
        self.attempts += other.attempts;
        self.retries += other.retries;
        self.recovered += other.recovered;
        self.exhausted += other.exhausted;
        self.backoff_cycles += other.backoff_cycles;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_retry_policy_is_single_shot() {
        let p = RetryPolicy::none();
        assert_eq!(p.max_attempts, 1);
    }

    #[test]
    fn backoff_doubles_and_caps() {
        // Pure arithmetic check on the doubling sequence.
        let p = RetryPolicy {
            max_attempts: 10,
            base_backoff: 100,
            max_backoff: 350,
        };
        let mut b = p.base_backoff;
        let mut seen = Vec::new();
        for _ in 0..4 {
            seen.push(b);
            b = (b.saturating_mul(2)).min(p.max_backoff).max(1);
        }
        assert_eq!(seen, vec![100, 200, 350, 350]);
    }

    #[test]
    fn stats_absorb_sums_fields() {
        let mut a = RetryStats {
            attempts: 1,
            retries: 2,
            recovered: 3,
            exhausted: 4,
            backoff_cycles: 5,
        };
        let b = RetryStats {
            attempts: 10,
            retries: 20,
            recovered: 30,
            exhausted: 40,
            backoff_cycles: 50,
        };
        a.absorb(&b);
        assert_eq!(a.attempts, 11);
        assert_eq!(a.retries, 22);
        assert_eq!(a.recovered, 33);
        assert_eq!(a.exhausted, 44);
        assert_eq!(a.backoff_cycles, 55);
    }
}
