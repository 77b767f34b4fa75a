//! Deterministic replay of persisted campaign stores.
//!
//! The store ([`crate::persist`]) is only worth anything if its
//! contents provably re-trigger on a fresh target — µAFL and EmbedFuzz
//! both validate crashes by re-execution over the debug link, and the
//! repo's CI gate does the same. This module owns every path that
//! re-executes persisted artifacts:
//!
//! * [`finalize_store`] — the save-time pass: confirm each unique crash
//!   on a fresh boot, minimize it, confirm the minimized reproducer on
//!   a *second* fresh boot, then record the seed pool's fresh-boot
//!   coverage baseline that replay must land on exactly;
//! * [`replay_store`] — the verification pass: re-execute every
//!   confirmed reproducer (same `BugId`/class or fail) and the seed
//!   pool in admission order (same per-seed coverage contribution and
//!   final branch count, or fail), emitting `replay.case` spans and a
//!   machine-readable verdict;
//! * [`resume_campaign_with`] — replay-based resume: because campaigns
//!   are bit-deterministic in (config, seed) and simulated time is
//!   free, resuming re-derives the interrupted prefix by re-running at
//!   the full budget, then *verifies* the persisted store is an exact
//!   prefix of the re-derived history — making a resumed campaign
//!   summary-identical to an uninterrupted one by construction.

use crate::campaign::{boot_executor, run_campaign_with_coverage, CampaignResult};
use crate::config::FuzzerConfig;
use crate::corpus::{Corpus, Seed};
use crate::crash::{dedup_key, CrashDb, CrashReport};
use crate::executor::Executor;
use crate::minimize::minimize;
use crate::persist::{
    self, config_fingerprint, CampaignStore, LoadedStore, PersistedCrash, PersistedSeed, SkipStats,
    StoreError, StoreManifest,
};
use eof_coverage::CoverageMap;
use eof_hal::FaultPlan;
use eof_rtos::OsKind;
use eof_telemetry as tel;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// Executions the finalize pass may spend minimising one crash.
const MINIMIZE_TRIALS: u32 = 96;

/// Boot a fresh target for replay/confirmation — the campaign's boot
/// path, minus the fuzzing loop. The machine and its simulated clock
/// are private to the returned executor, so replay work never perturbs
/// a live campaign.
pub(crate) fn fresh_executor(config: &FuzzerConfig) -> Executor {
    let image =
        crate::artifacts::cached_image(config.os, config.profile, &config.effective_instrument());
    boot_executor(config, &image, FaultPlan::none())
}

/// Does an observed crash match a recorded class? Triaged classes match
/// by bug number (the paper's ground truth); untriaged ones by the full
/// dedup key.
fn class_matches(observed: &CrashReport, bug_number: Option<u8>, key: &str) -> bool {
    match bug_number {
        Some(n) => observed.bug.map(|b| b.number()) == Some(n),
        None => dedup_key(observed) == key,
    }
}

/// What the save-time finalize pass did. Deterministic in the campaign
/// (no clocks, no randomness), so persisted campaigns stay bit-for-bit
/// reproducible.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FinalizeAudit {
    /// Seeds written to the pool.
    pub seeds_written: usize,
    /// Crash classes written.
    pub crashes_written: usize,
    /// Crash classes whose reproducer re-triggered on a fresh boot.
    pub confirmed: usize,
    /// Crash classes that did not re-trigger (stored raw, excluded from
    /// the replay gate).
    pub unconfirmed: usize,
    /// Confirmed classes whose stored reproducer is the minimized one.
    pub minimized: usize,
    /// Final branch count of the fresh-boot seed replay baseline.
    pub replay_branches: usize,
    /// Store write failures absorbed (counted, never fatal).
    pub write_errors: usize,
}

/// The save-time pass: confirm + minimize every unique crash, record
/// the seed pool with its fresh-boot coverage baseline, write the final
/// coverage bitmap, sweep our stale entries, and write the manifest
/// last. Runs on private fresh targets — callers inside a recorded
/// campaign wrap this in [`tel::suspended`] so the re-executions don't
/// pollute the campaign's registry.
pub fn finalize_store(
    mut store: CampaignStore,
    config: &FuzzerConfig,
    corpus: &Corpus,
    crashes: &CrashDb,
    coverage: &CoverageMap,
    consumed_hours: f64,
    execs: u64,
) -> FinalizeAudit {
    let mut audit = FinalizeAudit::default();
    let mut crash_keep = BTreeSet::new();
    for report in crashes.unique() {
        let key = dedup_key(report);
        let bug_number = report.bug.map(|b| b.number());
        // Fresh boot #1: does the raw reproducer re-trigger at all?
        let mut ex = fresh_executor(config);
        let outcome = ex.run_one(&report.prog);
        let confirmed = outcome
            .crash
            .as_ref()
            .is_some_and(|c| class_matches(c, bug_number, &key));
        let persisted = if confirmed {
            // Minimize on the warm target, then gate the minimized prog
            // on fresh boot #2 — the store must never hold a reproducer
            // that only fires from dirty state.
            let min = minimize(&mut ex, &report.prog, report, MINIMIZE_TRIALS);
            let mut confirm_ex = fresh_executor(config);
            let min_confirms = confirm_ex
                .run_one(&min.prog)
                .crash
                .as_ref()
                .is_some_and(|c| class_matches(c, bug_number, &key));
            if min_confirms && min.prog != report.prog {
                audit.minimized += 1;
                let mut entry = PersistedCrash::from_report(report, true, true);
                entry.prog = min.prog;
                entry
            } else {
                PersistedCrash::from_report(report, true, false)
            }
        } else {
            PersistedCrash::from_report(report, false, false)
        };
        if persisted.confirmed {
            audit.confirmed += 1;
        } else {
            audit.unconfirmed += 1;
        }
        crash_keep.insert(persisted.key_hash);
        store.record_crash(&persisted);
        audit.crashes_written += 1;
    }

    // Seed pool + its fresh-boot baseline: one fresh target, seeds in
    // admission order. `replay_edges` is what this exact procedure will
    // recompute at replay time, so equality there is the determinism
    // gate.
    let mut ex = fresh_executor(config);
    let mut seed_keep = BTreeSet::new();
    let mut live: Vec<&Seed> = corpus.iter().collect();
    live.sort_by_key(|s| s.ordinal);
    for seed in live {
        let outcome = ex.run_one(&seed.prog);
        let entry = PersistedSeed {
            hash: seed.hash,
            ordinal: seed.ordinal,
            new_edges: seed.new_edges,
            crashed: seed.crashed,
            replay_edges: outcome.new_edges,
            prog: seed.prog.clone(),
        };
        seed_keep.insert(entry.hash);
        store.write_seed(&entry);
        audit.seeds_written += 1;
    }
    audit.replay_branches = ex.coverage().branches();

    let edges: Vec<u64> = coverage.iter().collect();
    store.write_coverage(&edges);
    store.sweep_stale(&seed_keep, &crash_keep);
    store.write_manifest(
        consumed_hours,
        coverage.branches(),
        audit.replay_branches,
        audit.seeds_written,
        audit.crashes_written,
        execs,
    );
    audit.write_errors = store.write_errors();
    audit
}

/// One re-executed artifact's verdict.
#[derive(Debug, Clone)]
pub struct ReplayCase {
    /// `"crash"`, `"seed"` or `"coverage"`.
    pub kind: &'static str,
    /// Stable identifier (crash key hash / seed hash + ordinal).
    pub id: String,
    /// Did re-execution reproduce the record?
    pub pass: bool,
    /// Human-readable outcome.
    pub detail: String,
}

/// Verdict of replaying one store.
#[derive(Debug, Clone)]
pub struct ReplayReport {
    /// The store replayed.
    pub dir: PathBuf,
    /// Target OS.
    pub os: OsKind,
    /// Campaign seed.
    pub seed: u64,
    /// Per-artifact verdicts.
    pub cases: Vec<ReplayCase>,
    /// Crash records skipped because save time could not confirm them.
    pub skipped_unconfirmed: usize,
    /// Store entries skipped while loading (corrupt/foreign).
    pub skips: SkipStats,
}

impl ReplayReport {
    /// Cases that reproduced.
    pub fn passed(&self) -> usize {
        self.cases.iter().filter(|c| c.pass).count()
    }

    /// Cases that failed to reproduce.
    pub fn failed(&self) -> usize {
        self.cases.len() - self.passed()
    }

    /// The gate: every case reproduced.
    pub fn all_passed(&self) -> bool {
        self.failed() == 0
    }

    /// Machine-readable verdict (the CI artifact).
    pub fn to_json(&self) -> String {
        fn esc(s: &str) -> String {
            let mut out = String::new();
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out
        }
        let cases: Vec<String> = self
            .cases
            .iter()
            .map(|c| {
                format!(
                    "    {{\"kind\": \"{}\", \"id\": \"{}\", \"pass\": {}, \"detail\": \"{}\"}}",
                    c.kind,
                    esc(&c.id),
                    c.pass,
                    esc(&c.detail)
                )
            })
            .collect();
        format!(
            "{{\n  \"store\": \"{}\",\n  \"os\": \"{}\",\n  \"seed\": {},\n  \"verdict\": \"{}\",\n  \
             \"passed\": {},\n  \"failed\": {},\n  \"skipped_unconfirmed\": {},\n  \
             \"skipped_corrupt\": {},\n  \"skipped_foreign_schema\": {},\n  \
             \"skipped_foreign_config\": {},\n  \"cases\": [\n{}\n  ]\n}}\n",
            esc(&self.dir.display().to_string()),
            self.os.short(),
            self.seed,
            if self.all_passed() { "PASS" } else { "FAIL" },
            self.passed(),
            self.failed(),
            self.skipped_unconfirmed,
            self.skips.corrupt,
            self.skips.foreign_schema,
            self.skips.foreign_config,
            cases.join(",\n")
        )
    }
}

/// Reconstruct the producing configuration from a manifest. Stores
/// written by non-default configurations must be replayed via
/// [`replay_loaded`] with the producing config — the fingerprint check
/// refuses to guess.
pub fn config_for_manifest(manifest: &StoreManifest) -> Result<FuzzerConfig, StoreError> {
    let mut config = if manifest.mmio {
        FuzzerConfig::eof_driver(manifest.os, manifest.seed)
    } else {
        FuzzerConfig::eof(manifest.os, manifest.seed)
    };
    // Wire mode is not fingerprinted (per-exec behaviour is identical
    // either way), but resume re-derives a *time-budgeted* prefix, so
    // it must run at the producer's throughput.
    config.vectored = manifest.vectored;
    // Same contract for the coverage channel: equivalence-gated and
    // excluded from the fingerprint, but resume must acquire edges the
    // way the producer did.
    config.coverage_backend = manifest.coverage;
    if config.board.name != manifest.board {
        return Err(StoreError::ConfigMismatch(format!(
            "store was produced on board {:?} but {} now defaults to {:?}",
            manifest.board,
            manifest.os.display(),
            config.board.name
        )));
    }
    if config_fingerprint(&config) != manifest.fingerprint {
        return Err(StoreError::ConfigMismatch(format!(
            "store fingerprint {:016x} does not match the default {} configuration — \
             replay it with the producing config",
            manifest.fingerprint,
            manifest.os.display()
        )));
    }
    Ok(config)
}

/// Load and replay one store with the default configuration for its
/// manifest.
pub fn replay_store(dir: &Path) -> Result<ReplayReport, StoreError> {
    let loaded = persist::open(dir)?;
    let config = config_for_manifest(&loaded.manifest)?;
    Ok(replay_loaded(&loaded, &config))
}

/// Re-execute a loaded store through the real executor stack. Every
/// confirmed crash record must re-trigger its recorded `BugId`/class on
/// a fresh boot; the seed pool, replayed in admission order on one
/// fresh boot, must reproduce each seed's recorded coverage
/// contribution and the recorded final branch count exactly.
pub fn replay_loaded(loaded: &LoadedStore, config: &FuzzerConfig) -> ReplayReport {
    let mut report = ReplayReport {
        dir: loaded.dir.clone(),
        os: loaded.manifest.os,
        seed: loaded.manifest.seed,
        cases: Vec::new(),
        skipped_unconfirmed: 0,
        skips: loaded.skips,
    };
    for crash in &loaded.crashes {
        if !crash.confirmed {
            report.skipped_unconfirmed += 1;
            continue;
        }
        let span = tel::span_start("replay.case", 0);
        let mut ex = fresh_executor(config);
        let outcome = ex.run_one(&crash.prog);
        let (pass, detail) = match &outcome.crash {
            Some(observed) if class_matches(observed, crash.bug_number, &crash.key) => {
                (true, format!("re-triggered: {}", observed.message))
            }
            Some(observed) => (
                false,
                format!(
                    "crashed with a different class: got {:?} (bug {:?}), wanted bug {:?}",
                    observed.message,
                    observed.bug.map(|b| b.number()),
                    crash.bug_number
                ),
            ),
            None => (false, "did not crash on replay".to_string()),
        };
        tel::span_end(span, ex.now());
        tel::count("replay.cases", 1);
        ex.resilience().emit_telemetry();
        report.cases.push(ReplayCase {
            kind: "crash",
            id: format!("{:016x}", crash.key_hash),
            pass,
            detail,
        });
    }

    let span = tel::span_start("replay.case", 0);
    let mut ex = fresh_executor(config);
    for seed in &loaded.seeds {
        let outcome = ex.run_one(&seed.prog);
        let pass = outcome.new_edges == seed.replay_edges;
        tel::count("replay.cases", 1);
        report.cases.push(ReplayCase {
            kind: "seed",
            id: format!("{:016x}@{}", seed.hash, seed.ordinal),
            pass,
            detail: if pass {
                format!("contributed {} edges as recorded", outcome.new_edges)
            } else {
                format!(
                    "coverage contribution drifted: got {} edges, recorded {}",
                    outcome.new_edges, seed.replay_edges
                )
            },
        });
    }
    let branches = ex.coverage().branches();
    tel::span_end(span, ex.now());
    ex.resilience().emit_telemetry();
    let pass = branches == loaded.manifest.replay_branches;
    report.cases.push(ReplayCase {
        kind: "coverage",
        id: "seed-pool".to_string(),
        pass,
        detail: if pass {
            format!("seed pool reproduces {branches} branches")
        } else {
            format!(
                "seed pool branch count drifted: got {branches}, recorded {}",
                loaded.manifest.replay_branches
            )
        },
    });
    report
}

/// What a resume produced.
#[derive(Debug)]
pub struct ResumeOutcome {
    /// The full-budget campaign result (summary-identical to an
    /// uninterrupted run by the determinism contract).
    pub result: CampaignResult,
    /// The full-budget coverage map.
    pub coverage: CoverageMap,
    /// The interrupted store's manifest (pre-resume).
    pub prior: StoreManifest,
    /// Persisted seeds verified present in the re-derived history.
    pub verified_seeds: usize,
    /// Persisted crash classes verified re-derived.
    pub verified_crashes: usize,
    /// Persisted coverage edges verified re-derived.
    pub verified_edges: usize,
    /// Store entries persist skipped (corrupt / foreign) while loading
    /// the checkpoint — the fabric surfaces these as degraded-but-alive.
    pub skips: persist::SkipStats,
}

/// Resume a persisted campaign: re-run `config` (whose budget is the
/// *total* target, not the remainder) with persistence re-attached to
/// `dir`, then verify the interrupted store is an exact prefix of the
/// re-derived history. Simulated time makes the re-derivation free;
/// the verification is what makes resume trustworthy — any divergence
/// is a broken determinism contract and errors out loudly.
pub fn resume_campaign_with(
    mut config: FuzzerConfig,
    dir: &Path,
) -> Result<ResumeOutcome, StoreError> {
    let loaded = persist::open(dir)?;
    if config.os != loaded.manifest.os || config.seed != loaded.manifest.seed {
        return Err(StoreError::ConfigMismatch(format!(
            "store holds {} seed {}, resume config is {} seed {}",
            loaded.manifest.os.display(),
            loaded.manifest.seed,
            config.os.display(),
            config.seed
        )));
    }
    if config_fingerprint(&config) != loaded.manifest.fingerprint {
        return Err(StoreError::ConfigMismatch(
            "resume config fingerprint differs from the store's".to_string(),
        ));
    }
    if config.budget_hours < loaded.manifest.consumed_hours {
        return Err(StoreError::ConfigMismatch(format!(
            "resume budget {}h is shorter than the {}h already consumed",
            config.budget_hours, loaded.manifest.consumed_hours
        )));
    }
    config.persist = Some(dir.to_path_buf());
    let (result, coverage) = run_campaign_with_coverage(config);

    // Prefix verification: everything the interrupted run persisted
    // must have been re-derived by the longer run.
    let admitted: BTreeSet<u64> = result.corpus_hashes.iter().copied().collect();
    for seed in &loaded.seeds {
        if !admitted.contains(&seed.hash) {
            return Err(StoreError::Diverged(format!(
                "persisted seed {:016x} (ordinal {}) was not re-admitted",
                seed.hash, seed.ordinal
            )));
        }
    }
    let keys: BTreeSet<String> = result.crashes.iter().map(dedup_key).collect();
    for crash in &loaded.crashes {
        if !keys.contains(&crash.key) {
            return Err(StoreError::Diverged(format!(
                "persisted crash class {:016x} ({}) was not re-found",
                crash.key_hash, crash.message
            )));
        }
    }
    for &edge in &loaded.coverage_edges {
        if !coverage.contains(edge) {
            return Err(StoreError::Diverged(format!(
                "persisted coverage edge {edge:#x} was not re-covered"
            )));
        }
    }
    Ok(ResumeOutcome {
        verified_seeds: loaded.seeds.len(),
        verified_crashes: loaded.crashes.len(),
        verified_edges: loaded.coverage_edges.len(),
        skips: loaded.skips,
        prior: loaded.manifest,
        result,
        coverage,
    })
}

/// Resume a store produced by a default configuration, fuzzing on to
/// `total_hours` of simulated budget.
pub fn resume_campaign(dir: &Path, total_hours: f64) -> Result<ResumeOutcome, StoreError> {
    let loaded = persist::open(dir)?;
    let mut config = config_for_manifest(&loaded.manifest)?;
    config.budget_hours = total_hours;
    resume_campaign_with(config, dir)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::run_campaign;
    use crate::fleet::FleetRunner;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn tmpdir(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "eof-replay-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn short(os: OsKind, seed: u64, hours: f64) -> FuzzerConfig {
        let mut c = FuzzerConfig::eof(os, seed);
        c.budget_hours = hours;
        c.snapshot_hours = hours / 4.0;
        c
    }

    fn summary(r: &CampaignResult) -> String {
        format!(
            "branches={} bugs={:?} stats={:?} history={:?} crashes={:?} hashes={:?}",
            r.branches, r.bugs, r.stats, r.history, r.crashes, r.corpus_hashes
        )
    }

    #[test]
    fn persisted_campaign_round_trips_and_replays_green() {
        let dir = tmpdir("roundtrip");
        let mut config = short(OsKind::FreeRtos, 9, 0.1);
        config.persist = Some(dir.clone());
        let result = run_campaign(config.clone());
        let audit = result.persist.as_ref().expect("persisted campaign audits");
        assert_eq!(audit.write_errors, 0);
        assert!(audit.seeds_written > 0, "campaign admitted no seeds");
        assert!(
            audit.crashes_written > 0,
            "campaign found no crashes — pick a longer budget"
        );
        assert!(audit.confirmed > 0, "no crash confirmed on fresh boot");

        let loaded = persist::open(&dir).unwrap();
        assert_eq!(loaded.skips, SkipStats::default());
        assert_eq!(loaded.seeds.len(), audit.seeds_written);
        assert_eq!(loaded.crashes.len(), audit.crashes_written);
        assert_eq!(loaded.manifest.branches, result.branches);
        assert_eq!(loaded.manifest.execs, result.stats.execs);

        // The gate: everything the store holds reproduces. Recorded, the
        // fresh executors' link accounting reaches telemetry.
        let recorder = tel::begin();
        let report = replay_loaded(&loaded, &config);
        let registry = recorder.finish();
        assert!(registry.counter("dap.retry.attempts") > 0);
        assert!(
            report.all_passed(),
            "replay failures: {:?}",
            report.cases.iter().filter(|c| !c.pass).collect::<Vec<_>>()
        );
        assert!(report.to_json().contains("\"verdict\": \"PASS\""));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn persistence_never_perturbs_the_campaign() {
        let dir = tmpdir("perturb");
        let plain = run_campaign(short(OsKind::Zephyr, 11, 0.05));
        let mut config = short(OsKind::Zephyr, 11, 0.05);
        config.persist = Some(dir.clone());
        let persisted = run_campaign(config);
        assert_eq!(plain.branches, persisted.branches);
        assert_eq!(
            format!("{:?}", plain.stats),
            format!("{:?}", persisted.stats)
        );
        assert_eq!(
            format!("{:?}", plain.crashes),
            format!("{:?}", persisted.crashes)
        );
        assert_eq!(plain.corpus_hashes, persisted.corpus_hashes);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_fails_on_a_hand_broken_reproducer() {
        // The acceptance-criterion demonstration: tamper with a stored
        // reproducer and the gate must go red.
        let dir = tmpdir("tampered");
        let mut config = short(OsKind::FreeRtos, 9, 0.1);
        config.persist = Some(dir.clone());
        run_campaign(config.clone());
        let loaded = persist::open(&dir).unwrap();
        let victim = loaded
            .crashes
            .iter()
            .find(|c| c.confirmed)
            .expect("store holds a confirmed crash")
            .clone();
        // Swap the reproducer for a benign prog, keeping the record
        // well-formed (same key, same schema, same fingerprint).
        let mut broken = victim.clone();
        broken.prog = eof_speclang::prog::Prog {
            mmio: vec![],
            calls: vec![eof_speclang::prog::Call {
                api: "pvPortMalloc".to_string(),
                args: vec![eof_speclang::prog::ArgValue::Int(16)],
            }],
        };
        let mut store = CampaignStore::create(&dir, &config).unwrap();
        store.record_crash(&broken);
        store.write_manifest(
            loaded.manifest.consumed_hours,
            loaded.manifest.branches,
            loaded.manifest.replay_branches,
            loaded.manifest.seed_count,
            loaded.manifest.crash_count,
            loaded.manifest.execs,
        );
        let report = replay_store(&dir).unwrap();
        assert!(!report.all_passed(), "tampered reproducer replayed green");
        let failing: Vec<_> = report.cases.iter().filter(|c| !c.pass).collect();
        assert!(
            failing
                .iter()
                .any(|c| c.kind == "crash" && c.id == format!("{:016x}", victim.key_hash)),
            "the tampered case is the one that fails: {failing:?}"
        );
        assert!(report.to_json().contains("\"verdict\": \"FAIL\""));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resumed_campaign_is_summary_identical_to_uninterrupted() {
        let os = OsKind::FreeRtos;
        let seed = 7;
        // The uninterrupted reference at the full budget.
        let full = run_campaign(short(os, seed, 0.08));
        // An "interrupted" run: half the budget, persisted.
        let dir = tmpdir("resume");
        let mut half = short(os, seed, 0.04);
        half.persist = Some(dir.clone());
        run_campaign(half);
        // Resume to the full budget and verify the prefix property.
        let resumed = resume_campaign_with(short(os, seed, 0.08), &dir).unwrap();
        assert!(resumed.verified_seeds > 0);
        assert!(resumed.verified_edges > 0);
        assert_eq!(summary(&full), summary(&resumed.result));
        // The store now describes the full-budget run.
        let reloaded = persist::open(&dir).unwrap();
        assert_eq!(reloaded.manifest.consumed_hours, 0.08);
        assert_eq!(reloaded.manifest.branches, full.branches);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_is_identical_across_fleet_widths() {
        // The EOF_JOBS=1 vs EOF_JOBS=N half of the resume contract:
        // resuming a batch of interrupted stores through a 1-worker and
        // a 4-worker fleet must produce identical summaries.
        let cells = [(OsKind::FreeRtos, 7u64), (OsKind::Zephyr, 11u64)];
        let dirs: Vec<PathBuf> = cells
            .iter()
            .map(|(os, seed)| {
                let dir = tmpdir(&format!("fleetresume-{}-{seed}", os.short()));
                let mut c = short(*os, *seed, 0.03);
                c.persist = Some(dir.clone());
                run_campaign(c);
                dir
            })
            .collect();
        let resume_all = |jobs: usize| -> Vec<String> {
            FleetRunner::new(jobs)
                .map(
                    dirs.iter().cloned().zip(cells).collect::<Vec<_>>(),
                    |_, (dir, (os, seed))| {
                        // Each worker resumes into its own copy so the two
                        // fleet passes don't share store state.
                        let copy =
                            tmpdir(&format!("fleetresume-copy-{jobs}-{}-{seed}", os.short()));
                        copy_dir(&dir, &copy);
                        let out = resume_campaign_with(short(os, seed, 0.06), &copy).unwrap();
                        let _ = std::fs::remove_dir_all(&copy);
                        summary(&out.result)
                    },
                )
                .into_iter()
                .map(|r| r.unwrap())
                .collect()
        };
        let serial = resume_all(1);
        let parallel = resume_all(4);
        assert_eq!(serial, parallel);
        for dir in dirs {
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    fn copy_dir(from: &Path, to: &Path) {
        std::fs::create_dir_all(to).unwrap();
        for entry in std::fs::read_dir(from).unwrap().flatten() {
            let src = entry.path();
            let dst = to.join(entry.file_name());
            if src.is_dir() {
                copy_dir(&src, &dst);
            } else {
                std::fs::copy(&src, &dst).unwrap();
            }
        }
    }

    #[test]
    fn resume_refuses_foreign_and_shrunken_budgets() {
        let dir = tmpdir("refuse");
        let mut c = short(OsKind::FreeRtos, 7, 0.03);
        c.persist = Some(dir.clone());
        run_campaign(c);
        // Wrong seed.
        let err = resume_campaign_with(short(OsKind::FreeRtos, 8, 0.06), &dir).unwrap_err();
        assert!(matches!(err, StoreError::ConfigMismatch(_)), "{err}");
        // Budget shorter than what was already consumed.
        let err = resume_campaign_with(short(OsKind::FreeRtos, 7, 0.01), &dir).unwrap_err();
        assert!(matches!(err, StoreError::ConfigMismatch(_)), "{err}");
        // Missing store.
        let err = resume_campaign_with(short(OsKind::FreeRtos, 7, 0.06), &dir.join("nonexistent"))
            .unwrap_err();
        assert!(matches!(err, StoreError::MissingManifest(_)), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
