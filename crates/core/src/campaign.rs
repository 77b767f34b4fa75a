//! Campaign orchestration: image build → flash → boot → fuzz → results.
//!
//! `run_campaign` is the single entry point every example and bench uses:
//! it performs the paper's workflow steps ① analyse the memory layout
//! (kconfig), ② generate and validate the API specifications, ③ build
//! the instrumented image, then attaches over the debug interface and
//! runs the fuzzing loop to its simulated-time budget.

use crate::config::FuzzerConfig;
use crate::crash::CrashReport;
use crate::executor::Executor;
use crate::fuzzer::{Fuzzer, FuzzerStats};
use crate::gen::Generator;
use crate::supervisor::{ResilienceStats, Rung};
use eof_agent::{agent_loader, api_table_of};
use eof_coverage::Snapshot;
use eof_dap::{DebugTransport, LinkConfig};
use eof_hal::FaultPlan;
use eof_hal::Machine;
use eof_monitors::{parse_kconfig, render_kconfig, StateRestoration};
use eof_rtos::bugs::BugId;
use eof_specgen::{GenReport, NoiseConfig};
use eof_telemetry as tel;

/// Everything a campaign produced.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// Distinct branches discovered.
    pub branches: usize,
    /// Coverage-over-time curve (hours since campaign start).
    pub history: Vec<Snapshot>,
    /// De-duplicated crashes.
    pub crashes: Vec<CrashReport>,
    /// Table-2 bugs found, sorted.
    pub bugs: Vec<BugId>,
    /// Loop statistics.
    pub stats: FuzzerStats,
    /// Recovery-supervisor and link-retry accounting.
    pub resilience: ResilienceStats,
    /// Spec-generation report (admission pipeline).
    pub spec_report: GenReport,
    /// Image size flashed, in bytes.
    pub image_bytes: usize,
    /// Everything the campaign's telemetry recorder captured; `None`
    /// unless `EOF_TRACE` was set (or recording was forced). One
    /// registry per campaign — the fleet merges them in submission
    /// order, so `EOF_JOBS=1` and `EOF_JOBS=8` produce identical merged
    /// summaries for identical seeds.
    pub telemetry: Option<tel::Registry>,
    /// Stable hashes of every admitted seed, in admission order (culled
    /// seeds included). The resume path verifies persisted seed pools
    /// against this.
    pub corpus_hashes: Vec<u64>,
    /// What the end-of-campaign persistence pass did; `None` unless
    /// `config.persist` was set.
    pub persist: Option<crate::replay::FinalizeAudit>,
}

/// Run one full campaign, also returning the final coverage map (for
/// diagnostics and coverage-inspection tooling).
pub fn run_campaign_with_coverage(
    config: FuzzerConfig,
) -> (CampaignResult, eof_coverage::CoverageMap) {
    run_campaign_inner(config, FaultPlan::none())
}

/// Run one full campaign.
pub fn run_campaign(config: FuzzerConfig) -> CampaignResult {
    run_campaign_inner(config, FaultPlan::none()).0
}

/// Run one full campaign under a harness-injected fault schedule (the
/// chaos harness's entry point). Plan cycles are relative to the moment
/// the fuzzer attaches — i.e. to campaign start.
pub fn run_campaign_with_faults(config: FuzzerConfig, plan: FaultPlan) -> CampaignResult {
    run_campaign_inner(config, plan).0
}

/// Run one full campaign with telemetry recording forced on, regardless
/// of `EOF_TRACE`. For tests and tooling: mutating the process
/// environment is racy under a parallel test runner, so callers that
/// need a recorded campaign ask for one explicitly.
pub fn run_campaign_recorded(config: FuzzerConfig) -> CampaignResult {
    run_campaign_traced(config, FaultPlan::none(), true).0
}

/// [`run_campaign_recorded`] under a harness-injected fault schedule:
/// the chaos harness uses this to check telemetry-visible invariants
/// (e.g. that every discarded comparison drain was counted) while the
/// hardware misbehaves.
pub fn run_campaign_recorded_with_faults(config: FuzzerConfig, plan: FaultPlan) -> CampaignResult {
    run_campaign_traced(config, plan, true).0
}

fn run_campaign_inner(
    config: FuzzerConfig,
    plan: FaultPlan,
) -> (CampaignResult, eof_coverage::CoverageMap) {
    run_campaign_traced(config, plan, tel::enabled())
}

/// Perform the paper's setup workflow — spec pipeline, image build,
/// flash, boot, debug attach — and return a fuzzer parked at its first
/// sync point, plus the spec-generation report and flashed image size.
/// `run_campaign` drives the returned fuzzer to its time budget; tests
/// that need exec-count-exact comparisons (the vectored-equivalence
/// gate) drive [`Fuzzer::step`] themselves instead.
pub fn build_fuzzer(config: FuzzerConfig, plan: FaultPlan) -> (Fuzzer, GenReport, usize) {
    // ② Extract + validate the API specifications. The pipeline is pure
    // in (os, noise, validation), so it is interned process-wide; the
    // spec is cloned out because the config filters below mutate it.
    // (Host-side phases precede the simulated clock; their spans sit at
    // cycle 0 and carry only wall time.)
    let spec_span = tel::span_start("campaign.spec", 0);
    let noise = match config.spec_noise {
        Some(seed) => NoiseConfig::default_llm(seed),
        None => NoiseConfig::none(),
    };
    // The driver workload widens the spec scope to the SPI/I2C/DMA
    // driver APIs; the default scope reproduces the legacy pure-API
    // spec byte-for-byte.
    let (mut spec, spec_report) = (*crate::artifacts::cached_spec_scoped(
        config.os,
        &noise,
        config.spec_validation,
        config.mmio,
    ))
    .clone();

    // Baselines with hand-written specs never had LLM pseudo-syscalls.
    if config.exclude_pseudo {
        spec.apis.retain(|a| !a.is_pseudo());
    }

    // Application-level confinement: keep only the filtered modules'
    // APIs (by the kernel's own module attribution).
    if let Some(modules) = &config.module_filter {
        let kernel = eof_rtos::registry::make_kernel(config.os);
        let allowed: std::collections::BTreeSet<&str> = kernel
            .api_table()
            .iter()
            .filter(|d| modules.iter().any(|m| m == d.module))
            .map(|d| d.name)
            .collect();
        spec.apis.retain(|a| allowed.contains(a.name.as_str()));
    }
    tel::span_end(spec_span, 0);

    // ③ Build (or fetch the interned) instrumented image and flash it.
    let image_span = tel::span_start("campaign.image", 0);
    let image =
        crate::artifacts::cached_image(config.os, config.profile, &config.effective_instrument());
    let image_bytes = image.len();
    tel::span_end(image_span, 0);
    let boot_span = tel::span_start("campaign.boot", 0);
    let executor = boot_executor(&config, &image, plan);
    tel::span_end(boot_span, executor.now());
    let generator =
        Generator::new(spec, config.seed, config.gen_mode, config.max_calls).with_mmio(config.mmio);
    // Open the campaign store (if persistence is on) before the config
    // moves into the fuzzer; the fuzzer writes crash records into it
    // incrementally on first sighting.
    let store = config
        .persist
        .as_deref()
        .map(|dir| crate::persist::CampaignStore::create(dir, &config))
        .transpose()
        .expect("campaign store directory is writable");
    let mut fuzzer = Fuzzer::new(config, generator, executor);
    if let Some(store) = store {
        fuzzer.set_store(store);
    }
    (fuzzer, spec_report, image_bytes)
}

/// Flash `image`, boot, derive the memory layout, arm the state
/// restoration and attach over the debug interface: an executor parked
/// at its first sync point. Campaigns and replay boot through here.
pub(crate) fn boot_executor(config: &FuzzerConfig, image: &[u8], plan: FaultPlan) -> Executor {
    let mut machine = Machine::new(config.board.clone(), agent_loader());
    machine
        .reflash_partition("kernel", image)
        .expect("image fits kernel partition");
    machine.reset();
    if plan.pending() > 0 {
        // Armed after boot: the plan's cycle offsets are rebased to the
        // current bus time by the machine.
        machine.set_fault_plan(plan);
    }

    // ① Memory layout from the build configuration.
    let kconfig_text = render_kconfig(
        &config.board.arch.to_string().to_lowercase(),
        machine.flash().table(),
    );
    let kconfig = parse_kconfig(&kconfig_text).expect("rendered kconfig parses");
    // The restoration keeps its own golden copy (it re-flashes from it
    // on recovery, and the cache entry must stay pristine).
    let restoration = StateRestoration::from_kconfig(
        &kconfig,
        config.board.flash_size,
        vec![("kernel".to_string(), image.to_vec())],
    )
    .expect("golden image fits");

    let transport = DebugTransport::attach(machine, LinkConfig::default());
    Executor::new(
        transport,
        config.clone(),
        api_table_of(config.os),
        restoration,
    )
    .expect("executor binds to sync symbols")
}

fn run_campaign_traced(
    config: FuzzerConfig,
    plan: FaultPlan,
    record: bool,
) -> (CampaignResult, eof_coverage::CoverageMap) {
    // Install a per-campaign recorder on this thread. Every record call
    // below (executor, supervisor, transport, HAL) checks only "is a
    // recorder installed" — never the env — so the campaign's telemetry
    // shape is fixed at entry. The guard uninstalls on panic, keeping
    // fleet workers clean across panic-isolated jobs.
    let guard = record.then(tel::begin);
    let (mut fuzzer, spec_report, image_bytes) = build_fuzzer(config, plan);
    let fuzz_span = tel::span_start("campaign.fuzz", fuzzer.executor().now());
    let history = fuzzer.run_to_budget();
    tel::span_end(fuzz_span, fuzzer.executor().now());

    let stats = fuzzer.stats().clone();
    let resilience = fuzzer.executor().resilience();
    // End-of-campaign save: confirm + minimize crashes on private fresh
    // targets, record the seed pool's fresh-boot baseline, write the
    // manifest last. The re-executions run with the campaign recorder
    // suspended so they cannot drift the campaign's own counters; only
    // the save itself is spanned and counted.
    let persist_audit = fuzzer.take_store().map(|store| {
        let span = tel::span_start("persist.save", fuzzer.executor().now());
        let audit = tel::suspended(|| {
            crate::replay::finalize_store(
                store,
                fuzzer.config(),
                fuzzer.corpus(),
                fuzzer.crashes(),
                fuzzer.executor().coverage(),
                fuzzer.config().budget_hours,
                stats.execs,
            )
        });
        tel::span_end(span, fuzzer.executor().now());
        tel::count("persist.seeds", audit.seeds_written as u64);
        tel::count("persist.crashes", audit.crashes_written as u64);
        audit
    });
    let telemetry = guard.map(|g| {
        let registry = g.finish();
        assert_no_counter_drift(&registry, &stats, &resilience);
        registry
    });

    let result = CampaignResult {
        branches: fuzzer.executor().coverage().branches(),
        history,
        crashes: fuzzer.crashes().unique().cloned().collect(),
        bugs: fuzzer.crashes().bugs_found(),
        stats,
        resilience,
        spec_report,
        image_bytes,
        telemetry,
        corpus_hashes: fuzzer.corpus().admitted_hashes(),
        persist: persist_audit,
    };
    (result, fuzzer.executor().coverage().clone())
}

/// The two accounting paths — hand-maintained `FuzzerStats` /
/// `ResilienceStats` and the telemetry counters mirrored at the same
/// increment sites — must agree exactly at campaign end. A divergence
/// means one path silently missed an event; fail loudly instead of
/// publishing inconsistent numbers.
fn assert_no_counter_drift(
    registry: &tel::Registry,
    stats: &FuzzerStats,
    resilience: &ResilienceStats,
) {
    let checks: [(&str, u64); 15] = [
        ("dap.txn.partial", resilience.txn_partial),
        ("fuzz.execs", stats.execs),
        ("fuzz.interesting", stats.interesting),
        ("fuzz.crash_observations", stats.crash_observations),
        ("fuzz.stalls", stats.stalls),
        ("fuzz.restorations", stats.restorations),
        ("fuzz.failed_syncs", stats.failed_syncs),
        ("recovery.episodes", resilience.episodes),
        ("recovery.backoff_cycles", resilience.backoff_cycles),
        (
            "recovery.manual_interventions",
            resilience.manual_interventions,
        ),
        ("exec.failed_syncs", resilience.failed_syncs),
        ("dap.retry.attempts", resilience.link.attempts),
        ("dap.retry.retries", resilience.link.retries),
        ("dap.retry.recovered", resilience.link.recovered),
        ("dap.retry.exhausted", resilience.link.exhausted),
    ];
    for (name, expected) in checks {
        assert_eq!(
            registry.counter(name),
            expected,
            "telemetry counter {name:?} drifted from the stats structs"
        );
    }
    for rung in Rung::ALL {
        assert_eq!(
            registry.counter(rung.attempts_counter()),
            resilience.rung_attempts[rung.index()],
            "rung {} attempt accounting drifted",
            rung.name()
        );
        assert_eq!(
            registry.counter(rung.successes_counter()),
            resilience.rung_successes[rung.index()],
            "rung {} success accounting drifted",
            rung.name()
        );
    }
    for op in crate::cmplog::MutOp::ALL {
        assert_eq!(
            registry.counter(op.execs_counter()),
            stats.op_execs[op.index()],
            "operator {} exec accounting drifted",
            op.name()
        );
        assert_eq!(
            registry.counter(op.interesting_counter()),
            stats.op_interesting[op.index()],
            "operator {} interesting accounting drifted",
            op.name()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eof_rtos::OsKind;

    fn short(os: OsKind, seed: u64, hours: f64) -> FuzzerConfig {
        let mut c = FuzzerConfig::eof(os, seed);
        c.budget_hours = hours;
        c.snapshot_hours = hours / 4.0;
        c
    }

    #[test]
    fn campaign_runs_on_every_os() {
        for os in OsKind::ALL {
            let r = run_campaign(short(os, 7, 0.02));
            assert!(r.stats.execs > 5, "{os}: {} execs", r.stats.execs);
            assert!(r.branches > 5, "{os}: {} branches", r.branches);
            assert!(r.spec_report.admitted_apis > 0, "{os}");
            assert!(r.image_bytes > 500_000, "{os}");
        }
    }

    #[test]
    fn campaigns_are_deterministic() {
        let a = run_campaign(short(OsKind::Zephyr, 11, 0.02));
        let b = run_campaign(short(OsKind::Zephyr, 11, 0.02));
        assert_eq!(a.branches, b.branches);
        assert_eq!(a.stats.execs, b.stats.execs);
        assert_eq!(a.bugs, b.bugs);
        assert_eq!(a.resilience, b.resilience);
    }

    #[test]
    fn fault_free_campaigns_keep_the_supervisor_quiet() {
        use crate::supervisor::Rung;
        // Without injected faults the only degraded states are the
        // target's own hangs: every recovery episode is a stall, recovers
        // on the first reset, and the connection-loss machinery (resume
        // rung, link retries, manual escalation) never fires. This pins
        // the refactored recovery path to the old ad-hoc behaviour on
        // fault-free schedules.
        let r = run_campaign(short(OsKind::FreeRtos, 7, 0.02));
        let res = &r.resilience;
        assert_eq!(res.rung_attempts[Rung::Resume.index()], 0, "{res:?}");
        assert_eq!(
            res.episodes,
            res.rung_successes[Rung::Reset.index()],
            "{res:?}"
        );
        assert_eq!(res.manual_interventions, 0, "{res:?}");
        assert_eq!(res.failed_syncs, 0, "{res:?}");
        assert_eq!(res.link.retries, 0, "{res:?}");
        assert_eq!(res.backoff_cycles, 0, "{res:?}");
    }

    #[test]
    fn recorded_campaigns_are_deterministic_and_drift_free() {
        // `run_campaign_recorded` exercises the whole telemetry path:
        // recorder install, span/counter capture across every layer, and
        // the end-of-campaign counter-drift assertion (which runs inside
        // the call — reaching this point means it held).
        let a = run_campaign_recorded(short(OsKind::FreeRtos, 11, 0.02));
        let b = run_campaign_recorded(short(OsKind::FreeRtos, 11, 0.02));
        let ta = a
            .telemetry
            .as_ref()
            .expect("recorded campaign captures telemetry");
        let tb = b
            .telemetry
            .as_ref()
            .expect("recorded campaign captures telemetry");
        assert!(ta.counter("fuzz.execs") > 0);
        assert_eq!(ta.counter("fuzz.execs"), a.stats.execs);
        // The campaign phases were spanned.
        for phase in ["campaign.boot", "campaign.fuzz", "exec", "fuzz.gen"] {
            assert!(
                ta.span_aggs.contains_key(phase),
                "missing span {phase}: {:?}",
                ta.span_aggs.keys().collect::<Vec<_>>()
            );
        }
        // Identical inputs ⇒ byte-identical summaries; and recording
        // must not perturb the campaign itself.
        assert_eq!(ta.summary().to_json(), tb.summary().to_json());
        let plain = run_campaign(short(OsKind::FreeRtos, 11, 0.02));
        assert_eq!(a.branches, plain.branches);
        assert_eq!(a.stats.execs, plain.stats.execs);
        assert_eq!(a.resilience, plain.resilience);
    }

    #[test]
    fn cmplog_campaigns_run_and_account_per_operator() {
        // A cmplog campaign exercises the full Redqueen pipeline: the
        // armed ring drains into the journal, the scheduler attributes
        // every scheduled mutant to an operator, and the drift gate
        // (inside `run_campaign_recorded`) proves the `fuzz.op.*`
        // telemetry mirrors `FuzzerStats` exactly.
        let mut c = FuzzerConfig::eof_cmplog(OsKind::FreeRtos, 7);
        c.budget_hours = 0.02;
        c.snapshot_hours = 0.005;
        let r = run_campaign_recorded(c);
        let scheduled: u64 = r.stats.op_execs.iter().sum();
        assert!(scheduled > 0, "no mutants were attributed to operators");
        // Scheduled mutants are a subset of all execs (fresh generated
        // progs carry no operator).
        assert!(scheduled <= r.stats.execs, "{:?}", r.stats);
        let tel = r.telemetry.as_ref().expect("recorded");
        assert!(
            tel.counter("exec.cmp_records") > 0,
            "armed ring never produced a comparison record"
        );
    }

    #[test]
    fn different_seeds_diverge() {
        let a = run_campaign(short(OsKind::Zephyr, 1, 0.02));
        let b = run_campaign(short(OsKind::Zephyr, 2, 0.02));
        // Not a strict requirement for every pair, but for these seeds
        // the runs must not be identical.
        assert!(a.stats.execs != b.stats.execs || a.branches != b.branches);
    }
}
