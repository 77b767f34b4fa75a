//! The feedback-guided fuzzing loop.
//!
//! Each iteration either mutates a corpus seed or generates a fresh
//! prog, executes it via the [`Executor`], and — when feedback is
//! enabled — admits interesting inputs to the corpus and rewards their
//! call adjacencies (§4.5). Without feedback (EOF-nf) every input is
//! fresh and nothing is retained, which is exactly the ablation the
//! paper measures.

use crate::cmplog::{CmpJournal, MutOp, OpScheduler};
use crate::config::FuzzerConfig;
use crate::corpus::Corpus;
use crate::crash::CrashDb;
use crate::executor::Executor;
use crate::gen::Generator;
use crate::persist::{CampaignStore, PersistedCrash};
use eof_coverage::Snapshot;
use eof_telemetry as tel;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Aggregate counters of one campaign.
#[derive(Debug, Clone, Default)]
pub struct FuzzerStats {
    /// Test cases executed.
    pub execs: u64,
    /// Inputs that discovered new coverage.
    pub interesting: u64,
    /// Crash observations (pre-dedup).
    pub crash_observations: u64,
    /// Stall/timeout degraded states handled.
    pub stalls: u64,
    /// Restorations performed.
    pub restorations: u64,
    /// Executions skipped because the target could not be parked at the
    /// sync point even after recovery.
    pub failed_syncs: u64,
    /// Per-operator executions, indexed by [`MutOp::index`]. All zero
    /// unless the campaign runs cmplog (only scheduled mutants count).
    pub op_execs: [u64; MutOp::COUNT],
    /// Per-operator interesting hits, indexed by [`MutOp::index`].
    pub op_interesting: [u64; MutOp::COUNT],
}

/// The EOF fuzzing loop.
pub struct Fuzzer {
    config: FuzzerConfig,
    generator: Generator,
    corpus: Corpus,
    executor: Executor,
    crashes: CrashDb,
    rng: StdRng,
    stats: FuzzerStats,
    store: Option<CampaignStore>,
    /// Cmplog state: the operand journal and the operator scheduler.
    /// `None` when the campaign runs without cmplog — the loop then
    /// takes the exact pre-cmplog path, consuming identical RNG draws.
    cmplog: Option<(CmpJournal, OpScheduler)>,
}

impl Fuzzer {
    /// Assemble the loop.
    pub fn new(config: FuzzerConfig, generator: Generator, executor: Executor) -> Self {
        let rng = StdRng::seed_from_u64(config.seed ^ 0xf00d);
        let cmplog = config
            .cmplog
            .then(|| (CmpJournal::new(), OpScheduler::new(config.seed)));
        Fuzzer {
            config,
            generator,
            corpus: Corpus::new(256),
            executor,
            crashes: CrashDb::new(),
            rng,
            stats: FuzzerStats::default(),
            store: None,
            cmplog,
        }
    }

    /// Attach a persistence store: new crash classes are written the
    /// moment they are first seen, so a mid-flight outage loses no
    /// uniques. Store writes never touch the RNG or the simulated clock
    /// — a persisted campaign is bit-identical to an unpersisted one.
    pub fn set_store(&mut self, store: CampaignStore) {
        self.store = Some(store);
    }

    /// Detach the store (the campaign finalizer takes it over).
    pub fn take_store(&mut self) -> Option<CampaignStore> {
        self.store.take()
    }

    /// The campaign configuration.
    pub fn config(&self) -> &FuzzerConfig {
        &self.config
    }

    /// The crash database.
    pub fn crashes(&self) -> &CrashDb {
        &self.crashes
    }

    /// The corpus.
    pub fn corpus(&self) -> &Corpus {
        &self.corpus
    }

    /// Loop statistics.
    pub fn stats(&self) -> &FuzzerStats {
        &self.stats
    }

    /// The executor (coverage access).
    pub fn executor(&self) -> &Executor {
        &self.executor
    }

    /// Mutable executor access (fault injection in tests and the chaos
    /// harness).
    pub fn executor_mut(&mut self) -> &mut Executor {
        &mut self.executor
    }

    /// Run one fuzzing iteration: pick or generate an input, execute it,
    /// and — when it discovers new coverage — immediately exploit the
    /// frontier with a burst of follow-up mutations (the AFL-style
    /// reaction that lets guided search climb breadcrumb ladders).
    pub fn step(&mut self) {
        let gen_span = tel::span_start("fuzz.gen", self.executor.now());
        let (prog, op) = if self.config.coverage_feedback
            && !self.corpus.is_empty()
            && self.rng.random_bool(0.5)
        {
            match self.corpus.pick_index(&mut self.rng) {
                Some(i) => self.mutate_seed(i),
                None => (self.generator.generate(), None),
            }
        } else {
            (self.generator.generate(), None)
        };
        tel::span_end(gen_span, self.executor.now());
        let (mut frontier, _) = self.run_and_record(prog, op);
        if !self.config.coverage_feedback {
            return;
        }
        // Frontier burst: chase each discovery with focused mutations.
        // A stalling mutant ends the burst — hammering inputs adjacent
        // to a hang melts the budget in restorations. The frontier is a
        // corpus index; it stays valid through non-interesting mutants
        // (the corpus only changes on admit, and an admit hands back the
        // replacement frontier immediately).
        let mut burst_budget = 24u32;
        'burst: while let Some(seed_idx) = frontier.take() {
            for _ in 0..8 {
                if burst_budget == 0 {
                    break 'burst;
                }
                burst_budget -= 1;
                let gen_span = tel::span_start("fuzz.gen", self.executor.now());
                let (mutant, op) = self.mutate_seed(seed_idx);
                tel::span_end(gen_span, self.executor.now());
                let (next, stalled) = self.run_and_record(mutant, op);
                if stalled {
                    break 'burst;
                }
                if next.is_some() {
                    frontier = next;
                    continue 'burst;
                }
            }
        }
    }

    /// Mutate the corpus entry at `idx`. Cmplog campaigns route the
    /// mutation through the operator scheduler (and tag the mutant with
    /// the operator picked, for per-operator accounting); without cmplog
    /// this is exactly the pre-cmplog `Generator::mutate` call — same
    /// RNG draws, same mutants. The seed prog is only read, never cloned.
    fn mutate_seed(&mut self, idx: usize) -> (eof_speclang::prog::Prog, Option<MutOp>) {
        let base = &self.corpus.get(idx).expect("picked index is live").prog;
        match self.cmplog.as_mut() {
            Some((journal, scheduler)) => {
                let op = scheduler.pick();
                (self.generator.mutate_op(base, op, journal), Some(op))
            }
            None => (self.generator.mutate(base), None),
        }
    }

    /// Execute one prog with full bookkeeping. Returns the corpus index
    /// of the prog when it was interesting (new coverage or a new crash
    /// class) — the caller may exploit it further — plus whether the
    /// target stalled. `op` tags scheduled cmplog mutants with the
    /// operator that produced them.
    fn run_and_record(
        &mut self,
        prog: eof_speclang::prog::Prog,
        op: Option<MutOp>,
    ) -> (Option<usize>, bool) {
        if prog.is_empty() {
            return (None, false);
        }
        // §6 extension: stimulate interrupt paths alongside the test case.
        if self.config.peripheral_events {
            for _ in 0..self.rng.random_range(0..=2u32) {
                match self.rng.random_range(0..3u32) {
                    0 => self
                        .executor
                        .inject_peripheral_event(eof_hal::irq::GPIO, Vec::new()),
                    1 => {
                        let len = self.rng.random_range(0..24usize);
                        let mut payload = Vec::with_capacity(len);
                        for _ in 0..len {
                            payload.push(self.rng.random::<u8>());
                        }
                        self.executor
                            .inject_peripheral_event(eof_hal::irq::SERIAL_RX, payload);
                    }
                    _ => self
                        .executor
                        .inject_peripheral_event(eof_hal::irq::TIMER, Vec::new()),
                }
            }
        }
        let outcome = self.executor.run_one(&prog);
        // Every `FuzzerStats` increment is mirrored onto a telemetry
        // counter at the same site; the campaign asserts the two
        // accounting paths agree at the end (drift between them would
        // mean one path silently missed an event).
        self.stats.execs += 1;
        tel::count("fuzz.execs", 1);
        if outcome.stalled {
            self.stats.stalls += 1;
            tel::count("fuzz.stalls", 1);
        }
        if outcome.restored {
            self.stats.restorations += 1;
            tel::count("fuzz.restorations", 1);
        }
        if outcome.sync_failed {
            self.stats.failed_syncs += 1;
            tel::count("fuzz.failed_syncs", 1);
        }
        let crashed = outcome.crash.is_some();
        let mut new_crash_class = false;
        if let Some(report) = outcome.crash {
            self.stats.crash_observations += 1;
            tel::count("fuzz.crash_observations", 1);
            if !self.crashes.contains(&report) {
                // First sighting of this class: persist the raw
                // reproducer immediately (finalize later upgrades it to
                // a minimized + confirmed record).
                if let Some(store) = self.store.as_mut() {
                    store.record_crash(&PersistedCrash::from_report(&report, false, false));
                    tel::count("persist.crash_writes", 1);
                }
            }
            new_crash_class = self.crashes.record(report);
        }
        if outcome.new_edges > 0 {
            self.stats.interesting += 1;
            tel::count("fuzz.interesting", 1);
        }
        // Feedback: coverage always admits; crash signals admit only
        // under EOF's unified feedback. Inputs that *hang* the target are
        // quarantined (recorded but never mutated) — re-running them costs
        // a restoration every time, so keeping them hot would melt the
        // campaign budget. AFL-lineage fuzzers do the same with their
        // hangs/ directory.
        // A crash is only *interesting* the first time its class is seen
        // — re-admitting every duplicate crash floods the corpus with
        // prog-truncating inputs and starves breadth.
        let _ = crashed;
        let hangs_target = outcome.stalled;
        let interesting = !hangs_target
            && ((self.config.coverage_feedback && outcome.new_edges > 0)
                || (self.config.crash_feedback && new_crash_class));
        if let Some((journal, scheduler)) = self.cmplog.as_mut() {
            // Feed the drained operand pairs into the journal and close
            // the scheduling loop: every `FuzzerStats` per-operator
            // increment is mirrored onto its telemetry counter at the
            // same site (the campaign asserts the two paths agree).
            journal.absorb(&outcome.cmp_records);
            if let Some(op) = op {
                scheduler.record(op, interesting);
                self.stats.op_execs[op.index()] += 1;
                tel::count(op.execs_counter(), 1);
                if interesting {
                    self.stats.op_interesting[op.index()] += 1;
                    tel::count(op.interesting_counter(), 1);
                }
            }
        }
        if interesting {
            self.generator
                .reward(&prog, 0.5 + (outcome.new_edges as f64).sqrt() * 0.25);
            // By-value admission: the corpus takes the only copy and
            // hands back its index for the frontier burst.
            let idx = self.corpus.admit(prog, outcome.new_edges, new_crash_class);
            return (idx, outcome.stalled);
        }
        (None, outcome.stalled)
    }

    /// Run until the simulated-time budget is exhausted, snapshotting
    /// coverage on the configured interval. Returns the coverage curve.
    pub fn run_to_budget(&mut self) -> Vec<Snapshot> {
        let start_hours = self.executor.now_hours();
        let end_hours = start_hours + self.config.budget_hours;
        let mut next_snap = start_hours + self.config.snapshot_hours;
        while self.executor.now_hours() < end_hours {
            self.step();
            while self.executor.now_hours() >= next_snap {
                let h = next_snap - start_hours;
                self.executor.coverage_mut().snapshot(h);
                next_snap += self.config.snapshot_hours;
                if next_snap > end_hours + self.config.snapshot_hours {
                    break;
                }
            }
        }
        // Final snapshot at the budget boundary.
        self.executor
            .coverage_mut()
            .snapshot(self.config.budget_hours);
        self.executor.coverage().history().to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GenerationMode;
    use crate::executor::Executor;
    use eof_agent::{api_table_of, boot_machine};
    use eof_dap::{DebugTransport, LinkConfig};
    use eof_monitors::{parse_kconfig, render_kconfig, StateRestoration};
    use eof_rtos::image::build_image;
    use eof_rtos::OsKind;
    use eof_specgen::extract_spec_text;
    use eof_speclang::parser::parse_spec;

    fn fuzzer_for(config: FuzzerConfig) -> Fuzzer {
        let instrument = config.effective_instrument();
        let image = build_image(config.os, config.profile, &instrument);
        let machine = boot_machine(config.board.clone(), config.os, config.profile, &instrument);
        let kconfig = parse_kconfig(&render_kconfig("arm", machine.flash().table())).unwrap();
        let restoration = StateRestoration::from_kconfig(
            &kconfig,
            config.board.flash_size,
            vec![("kernel".to_string(), image)],
        )
        .unwrap();
        let transport = DebugTransport::attach(machine, LinkConfig::default());
        let executor = Executor::new(
            transport,
            config.clone(),
            api_table_of(config.os),
            restoration,
        )
        .unwrap();
        let spec = parse_spec(&extract_spec_text(config.os)).unwrap();
        let generator = Generator::new(spec, config.seed, config.gen_mode, config.max_calls);
        Fuzzer::new(config, generator, executor)
    }

    #[test]
    fn short_campaign_makes_progress() {
        let mut cfg = FuzzerConfig::eof(OsKind::FreeRtos, 101);
        cfg.budget_hours = 0.05;
        cfg.snapshot_hours = 0.01;
        let mut f = fuzzer_for(cfg);
        let curve = f.run_to_budget();
        assert!(f.stats().execs > 20, "too few execs: {}", f.stats().execs);
        assert!(f.executor().coverage().branches() > 20);
        assert!(!curve.is_empty());
        // Curve is monotone.
        for w in curve.windows(2) {
            assert!(w[0].branches <= w[1].branches);
        }
    }

    #[test]
    fn feedback_builds_a_corpus() {
        let mut cfg = FuzzerConfig::eof(OsKind::Zephyr, 102);
        cfg.budget_hours = 0.05;
        let mut f = fuzzer_for(cfg);
        f.run_to_budget();
        assert!(f.corpus().len() > 3, "corpus: {}", f.corpus().len());
        assert!(f.stats().interesting > 3);
    }

    #[test]
    fn no_feedback_keeps_corpus_empty() {
        let mut cfg = FuzzerConfig::eof_nf(OsKind::Zephyr, 102);
        cfg.budget_hours = 0.02;
        let mut f = fuzzer_for(cfg);
        f.run_to_budget();
        assert_eq!(f.corpus().len(), 0);
    }

    #[test]
    fn random_bytes_mode_covers_less() {
        let mut api_cfg = FuzzerConfig::eof(OsKind::FreeRtos, 103);
        api_cfg.budget_hours = 0.05;
        let mut rnd_cfg = api_cfg.clone();
        rnd_cfg.gen_mode = GenerationMode::RandomBytes;
        let mut api = fuzzer_for(api_cfg);
        let mut rnd = fuzzer_for(rnd_cfg);
        api.run_to_budget();
        rnd.run_to_budget();
        let api_cov = api.executor().coverage().branches();
        let rnd_cov = rnd.executor().coverage().branches();
        assert!(
            api_cov > rnd_cov,
            "API-aware ({api_cov}) must beat random bytes ({rnd_cov})"
        );
    }
}
