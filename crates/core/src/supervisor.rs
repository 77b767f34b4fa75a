//! The recovery supervisor: an escalating restoration ladder.
//!
//! Algorithm 1 (§4.4) restores a degraded target with one hammer — verify
//! the image, reflash what is damaged, reboot, settle. That is the right
//! *strongest* move, but it is wasteful as the *only* move: a transient
//! probe glitch needs nothing, a firmware hang needs a reset, and a wedged
//! debug port sometimes needs the power rail, not the flash. The
//! supervisor makes the escalation explicit:
//!
//! 1. **Snapshot-restore** — rewind the board from the armed dirty-page
//!    snapshot: ship only the pages written since capture and restart
//!    the core, no reboot, no settle. Gated by the flash generation
//!    counter — a mutated image disqualifies the snapshot and the ladder
//!    escalates straight past it.
//! 2. **Resume** — the target may be fine and only the observation was
//!    disturbed; try to re-park at the sync point.
//! 3. **Reset + settle** — reboot in place; an intact image recovers in
//!    about a second.
//! 4. **Verify-and-reflash** — Algorithm 1's checksum pass: reflash only
//!    the partitions whose target-side CRC disagrees with the golden one
//!    (§4.4.2), then reboot and settle.
//! 5. **Full golden reflash** — write everything back unconditionally,
//!    for when the checksum engine itself cannot be trusted.
//! 6. **Power-cycle** — the one action that needs no debug link at all.
//!
//! Each rung has a bounded attempt budget with exponential backoff in
//! *simulated cycles*, so slow recovery genuinely eats campaign budget.
//! A target that defeats the whole ladder is escalated to manual
//! intervention — the 60-simulated-second human visit the paper says
//! reboot-only tools need — and every step is accounted in
//! [`ResilienceStats`], which flows up into campaign results and the
//! chaos bench.

use crate::config::RecoveryConfig;
use eof_dap::{DebugTransport, RetryStats};
use eof_hal::clock::{secs_to_cycles, CYCLES_PER_SEC};
use eof_monitors::StateRestoration;
use eof_telemetry as tel;

/// Simulated seconds a manual intervention costs (a human walks over
/// with a bench flasher).
pub const MANUAL_INTERVENTION_SECS: u64 = 60;

/// Backoff between rung attempts never grows beyond this.
const MAX_RUNG_BACKOFF: u64 = 16_000;

/// One rung of the restoration ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rung {
    /// Delta-restore from the armed board snapshot: dirty pages + core
    /// registers over the debug port, no reboot. Skipped outright when
    /// no valid snapshot is armed (flash generation or boot epoch
    /// mismatch, snapshot mode off).
    SnapshotRestore,
    /// Leave the target alone and try to re-park at the sync point.
    Resume,
    /// Reset line + settle delay.
    Reset,
    /// Checksum-verify each partition, reflash the damaged ones, reboot.
    VerifyReflash,
    /// Reflash every partition from golden images unconditionally.
    FullReflash,
    /// Cut the power rail — works with the debug link completely down.
    PowerCycle,
}

/// Number of distinct rungs (array-indexed stats).
pub const RUNG_COUNT: usize = 6;

impl Rung {
    /// Stable index for per-rung stat arrays.
    pub fn index(self) -> usize {
        match self {
            Rung::SnapshotRestore => 0,
            Rung::Resume => 1,
            Rung::Reset => 2,
            Rung::VerifyReflash => 3,
            Rung::FullReflash => 4,
            Rung::PowerCycle => 5,
        }
    }

    /// Human/JSON label.
    pub fn name(self) -> &'static str {
        match self {
            Rung::SnapshotRestore => "snapshot_restore",
            Rung::Resume => "resume",
            Rung::Reset => "reset",
            Rung::VerifyReflash => "verify_reflash",
            Rung::FullReflash => "full_reflash",
            Rung::PowerCycle => "power_cycle",
        }
    }

    /// All rungs in escalation order.
    pub const ALL: [Rung; RUNG_COUNT] = [
        Rung::SnapshotRestore,
        Rung::Resume,
        Rung::Reset,
        Rung::VerifyReflash,
        Rung::FullReflash,
        Rung::PowerCycle,
    ];

    /// Telemetry counter key for attempts of this rung. A match (rather
    /// than formatting) because counters key on `&'static str`.
    pub fn attempts_counter(self) -> &'static str {
        match self {
            Rung::SnapshotRestore => "recovery.rung.snapshot_restore.attempts",
            Rung::Resume => "recovery.rung.resume.attempts",
            Rung::Reset => "recovery.rung.reset.attempts",
            Rung::VerifyReflash => "recovery.rung.verify_reflash.attempts",
            Rung::FullReflash => "recovery.rung.full_reflash.attempts",
            Rung::PowerCycle => "recovery.rung.power_cycle.attempts",
        }
    }

    /// Telemetry counter key for successful recoveries by this rung.
    pub fn successes_counter(self) -> &'static str {
        match self {
            Rung::SnapshotRestore => "recovery.rung.snapshot_restore.successes",
            Rung::Resume => "recovery.rung.resume.successes",
            Rung::Reset => "recovery.rung.reset.successes",
            Rung::VerifyReflash => "recovery.rung.verify_reflash.successes",
            Rung::FullReflash => "recovery.rung.full_reflash.successes",
            Rung::PowerCycle => "recovery.rung.power_cycle.successes",
        }
    }
}

/// Why recovery was entered — used to skip rungs that provably cannot
/// help (Algorithm 1 distinguishes the same two signals).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryReason {
    /// The PC provably stopped advancing (stall watchdog / parked in a
    /// handler). The core answers, so resuming cannot help — start at
    /// the reset rung.
    Stall,
    /// The debug connection was lost or the target timed out. May be a
    /// transient probe glitch — start at the resume rung.
    ConnectionLoss,
}

/// Budget and backoff for one rung.
#[derive(Debug, Clone, Copy)]
struct RungSpec {
    rung: Rung,
    attempts: u32,
    /// Backoff before the second attempt (doubles per retry).
    base_backoff: u64,
    /// Settle delay after the rung's action, in cycles.
    settle: u64,
}

/// How one recovery episode ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryOutcome {
    /// The rung whose action stuck; `None` means the whole ladder failed
    /// and a manual intervention was performed.
    pub rung: Option<Rung>,
    /// Whether the target verified healthy (parked at the sync point)
    /// when the episode ended.
    pub parked: bool,
    /// Simulated cycles the episode consumed.
    pub cycles: u64,
}

/// Resilience accounting for one campaign, threaded transport →
/// executor → campaign result → `BENCH_chaos.json`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ResilienceStats {
    /// Recovery episodes entered.
    pub episodes: u64,
    /// Attempts per rung, indexed by [`Rung::index`].
    pub rung_attempts: [u64; RUNG_COUNT],
    /// Successful recoveries per rung.
    pub rung_successes: [u64; RUNG_COUNT],
    /// Cycles slept in inter-attempt backoff.
    pub backoff_cycles: u64,
    /// Episodes that exhausted the ladder and needed a human.
    pub manual_interventions: u64,
    /// Total cycles spent inside recovery episodes.
    pub recovery_cycles: u64,
    /// Longest single episode, in cycles.
    pub max_recovery_cycles: u64,
    /// Syncs that failed even after recovery (target left unparked).
    pub failed_syncs: u64,
    /// Vectored transactions that half-applied before failing. Must stay
    /// zero: validate-then-apply makes partial application unreachable,
    /// and the chaos harness treats any nonzero value as a torn-state
    /// invariant violation.
    pub txn_partial: u64,
    /// Link-layer retry accounting (transient error absorption).
    pub link: RetryStats,
}

impl ResilienceStats {
    /// Episodes that ended with the target verified healthy without a
    /// manual intervention.
    pub fn recovered(&self) -> u64 {
        self.rung_successes.iter().sum()
    }

    /// Mean time to recover, in simulated seconds. Counts every episode,
    /// manual interventions included — hiding the expensive ones would
    /// flatter the number the paper cares about.
    pub fn mttr_secs(&self) -> f64 {
        if self.episodes == 0 {
            return 0.0;
        }
        self.recovery_cycles as f64 / self.episodes as f64 / CYCLES_PER_SEC as f64
    }

    /// Fold another campaign's counters into this one.
    pub fn absorb(&mut self, other: &ResilienceStats) {
        self.episodes += other.episodes;
        for i in 0..RUNG_COUNT {
            self.rung_attempts[i] += other.rung_attempts[i];
            self.rung_successes[i] += other.rung_successes[i];
        }
        self.backoff_cycles += other.backoff_cycles;
        self.manual_interventions += other.manual_interventions;
        self.recovery_cycles += other.recovery_cycles;
        self.max_recovery_cycles = self.max_recovery_cycles.max(other.max_recovery_cycles);
        self.failed_syncs += other.failed_syncs;
        self.txn_partial += other.txn_partial;
        self.link.absorb(&other.link);
    }
}

/// The supervisor itself: a ladder derived from the campaign's
/// [`RecoveryConfig`], plus the accounting it accumulates.
#[derive(Debug, Clone)]
pub struct RecoverySupervisor {
    ladder: Vec<RungSpec>,
    stats: ResilienceStats,
}

impl RecoverySupervisor {
    /// Build the ladder for a recovery policy.
    ///
    /// * `reflash = true` (EOF): the full six-rung ladder.
    /// * reboot-only (baselines): a single reset rung — everything past
    ///   a reboot is, by the paper's framing, a manual intervention.
    pub fn for_policy(recovery: &RecoveryConfig) -> Self {
        let ladder = if recovery.reflash {
            vec![
                RungSpec {
                    rung: Rung::SnapshotRestore,
                    attempts: 1,
                    base_backoff: 0,
                    settle: 0,
                },
                RungSpec {
                    rung: Rung::Resume,
                    attempts: 1,
                    base_backoff: 0,
                    settle: 0,
                },
                RungSpec {
                    rung: Rung::Reset,
                    attempts: 2,
                    base_backoff: 2_000,
                    settle: secs_to_cycles(1),
                },
                RungSpec {
                    rung: Rung::VerifyReflash,
                    attempts: 2,
                    base_backoff: 4_000,
                    // restore() sleeps the Algorithm-1 settle itself.
                    settle: 0,
                },
                RungSpec {
                    rung: Rung::PowerCycle,
                    // Before the full golden stream, not after: pulling
                    // the plug costs a few thousand cycles against the
                    // stream's ~half a million, revives a latched core or
                    // a sagging rail that would refuse the stream anyway,
                    // and is the only rung that needs no debug link.
                    // Three attempts with a doubling 5 s backoff outlast
                    // the longest injected brownout (20 s).
                    attempts: 3,
                    base_backoff: secs_to_cycles(5),
                    settle: secs_to_cycles(1),
                },
                RungSpec {
                    rung: Rung::FullReflash,
                    attempts: 1,
                    base_backoff: 0,
                    settle: 0,
                },
            ]
        } else {
            vec![RungSpec {
                rung: Rung::Reset,
                attempts: 1,
                base_backoff: 0,
                settle: secs_to_cycles(1),
            }]
        };
        RecoverySupervisor {
            ladder,
            stats: ResilienceStats::default(),
        }
    }

    /// Accumulated resilience accounting.
    pub fn stats(&self) -> &ResilienceStats {
        &self.stats
    }

    /// Run one recovery episode: climb the ladder until `verify` reports
    /// the target healthy, escalating to manual intervention if nothing
    /// sticks. `verify` should attempt to park the target at its sync
    /// point and say whether it got there.
    pub fn recover(
        &mut self,
        reason: RecoveryReason,
        pipe: &mut DebugTransport,
        restoration: &mut StateRestoration,
        mut verify: impl FnMut(&mut DebugTransport) -> bool,
    ) -> RecoveryOutcome {
        let start = pipe.now();
        self.stats.episodes += 1;
        tel::count("recovery.episodes", 1);
        let episode_span = tel::span_start("recovery.episode", start);
        // Whether a verified restore COMPLETED this episode: the flash
        // port answered, the image was verified (and repaired if need
        // be) — and the target still would not park.
        let mut flash_answered = false;
        for spec in self.ladder.clone() {
            // A stall means the core answers but the PC is stuck;
            // re-parking without any action provably cannot help.
            if reason == RecoveryReason::Stall && spec.rung == Rung::Resume {
                continue;
            }
            // The delta fast path is only sound when the armed snapshot
            // still describes this boot of this image: the flash
            // generation counter is the suspicion rule (a reflash or a
            // flipped bit disqualifies it), and an unreachable flash
            // port disqualifies it too.
            if spec.rung == Rung::SnapshotRestore && !restoration.snapshot_ready(pipe) {
                continue;
            }
            // The unconditional golden stream answers flash DISTRUST,
            // not link failure: it only runs when a verified restore
            // completed this episode — flash port answering, image
            // proven (or made) golden — yet the target still refused to
            // park, i.e. the checksum engine itself is suspect. When
            // the verified restore could not even talk to the flash,
            // the link is the problem, and a multi-megabyte stream
            // through the same port provably cannot do better than the
            // register read that just failed; the episode goes to the
            // bench operator at walk-over cost instead of stream cost.
            if spec.rung == Rung::FullReflash && !flash_answered {
                continue;
            }
            let mut backoff = spec.base_backoff;
            for attempt in 0..spec.attempts.max(1) {
                if attempt > 0 && backoff > 0 {
                    pipe.sleep(backoff);
                    self.stats.backoff_cycles += backoff;
                    tel::count("recovery.backoff_cycles", backoff);
                    backoff = backoff.saturating_mul(2).min(MAX_RUNG_BACKOFF);
                }
                self.stats.rung_attempts[spec.rung.index()] += 1;
                tel::count(spec.rung.attempts_counter(), 1);
                let applied = Self::perform(spec, pipe, restoration);
                if spec.rung == Rung::VerifyReflash && applied {
                    flash_answered = true;
                }
                let ok = verify(pipe);
                if ok {
                    self.stats.rung_successes[spec.rung.index()] += 1;
                    tel::count(spec.rung.successes_counter(), 1);
                    let cycles = pipe.now() - start;
                    self.finish_episode(cycles);
                    tel::span_end(episode_span, pipe.now());
                    tel::event("recovery.recovered", pipe.now(), || {
                        format!("rung={} cycles={cycles}", spec.rung.name())
                    });
                    return RecoveryOutcome {
                        rung: Some(spec.rung),
                        parked: true,
                        cycles,
                    };
                }
            }
        }
        // Ladder exhausted: a human walks over, power-cycles the board
        // and reflashes it with a bench programmer.
        self.stats.manual_interventions += 1;
        tel::count("recovery.manual_interventions", 1);
        tel::event("recovery.manual_intervention", pipe.now(), String::new);
        pipe.sleep(secs_to_cycles(MANUAL_INTERVENTION_SECS));
        pipe.power_cycle(secs_to_cycles(1));
        // The bench programmer verifies before it writes, like any modern
        // probe tool: partitions whose checksum already matches the
        // golden image are skipped, so an episode whose real problem was
        // power or the link (image intact all along) costs the human's
        // minute plus a checksum pass — not a full image stream.
        let _ = restoration.restore(pipe);
        let parked = verify(pipe);
        let cycles = pipe.now() - start;
        self.finish_episode(cycles);
        tel::span_end(episode_span, pipe.now());
        RecoveryOutcome {
            rung: None,
            parked,
            cycles,
        }
    }

    fn finish_episode(&mut self, cycles: u64) {
        self.stats.recovery_cycles += cycles;
        self.stats.max_recovery_cycles = self.stats.max_recovery_cycles.max(cycles);
        tel::observe("recovery.episode_cycles", cycles);
    }

    /// Execute one rung's action. Errors are deliberately swallowed — a
    /// failed action simply fails the verify that follows and the
    /// ladder escalates — but whether the action applied cleanly is
    /// reported back, so the ladder can gate the golden stream on the
    /// flash having actually answered a verified restore.
    fn perform(
        spec: RungSpec,
        pipe: &mut DebugTransport,
        restoration: &mut StateRestoration,
    ) -> bool {
        match spec.rung {
            Rung::SnapshotRestore => restoration.snapshot_restore(pipe).is_ok(),
            Rung::Resume => pipe.resume().is_ok(),
            Rung::Reset => {
                let applied = pipe.reset_target().is_ok();
                pipe.sleep(spec.settle);
                applied
            }
            Rung::VerifyReflash => restoration.restore(pipe).is_ok(),
            Rung::FullReflash => restoration.restore_full(pipe).is_ok(),
            Rung::PowerCycle => {
                pipe.power_cycle(secs_to_cycles(1));
                pipe.sleep(spec.settle);
                true
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rung_indices_are_dense_and_ordered() {
        for (i, rung) in Rung::ALL.iter().enumerate() {
            assert_eq!(rung.index(), i);
        }
        let names: std::collections::BTreeSet<_> = Rung::ALL.iter().map(|r| r.name()).collect();
        assert_eq!(names.len(), RUNG_COUNT);
    }

    #[test]
    fn full_policy_gets_full_ladder_reboot_only_gets_reset() {
        let full = RecoverySupervisor::for_policy(&RecoveryConfig::eof());
        assert_eq!(full.ladder.len(), RUNG_COUNT);
        let reboot = RecoverySupervisor::for_policy(&RecoveryConfig::reboot_only());
        assert_eq!(reboot.ladder.len(), 1);
        assert_eq!(reboot.ladder[0].rung, Rung::Reset);
    }

    #[test]
    fn stats_absorb_merges_rungs_and_max() {
        let mut a = ResilienceStats {
            episodes: 1,
            max_recovery_cycles: 100,
            ..Default::default()
        };
        a.rung_successes[Rung::Reset.index()] = 1;
        let mut b = ResilienceStats {
            episodes: 2,
            max_recovery_cycles: 50,
            manual_interventions: 1,
            ..Default::default()
        };
        b.rung_successes[Rung::PowerCycle.index()] = 1;
        a.absorb(&b);
        assert_eq!(a.episodes, 3);
        assert_eq!(a.recovered(), 2);
        assert_eq!(a.max_recovery_cycles, 100);
        assert_eq!(a.manual_interventions, 1);
    }

    #[test]
    fn mttr_counts_all_episodes() {
        let stats = ResilienceStats {
            episodes: 4,
            recovery_cycles: 4 * 2 * CYCLES_PER_SEC,
            ..Default::default()
        };
        assert!((stats.mttr_secs() - 2.0).abs() < 1e-9);
        assert_eq!(ResilienceStats::default().mttr_secs(), 0.0);
    }
}
