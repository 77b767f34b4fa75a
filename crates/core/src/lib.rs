//! `eof-core` — the EOF fuzzing engine (the paper's primary contribution).
//!
//! EOF is a feedback-guided fuzzer for embedded operating systems running
//! on hardware, using the debug port as its single channel of control and
//! observation. This crate is the host engine:
//!
//! * [`config`] — campaign configuration: target, budget, and the knobs
//!   that also express every baseline fuzzer (detection set, generation
//!   mode, recovery policy, coverage observability, execution-cost
//!   multiplier);
//! * [`gen`] — API-aware test-case generation and mutation over parsed
//!   specifications, with resource-dependency satisfaction and
//!   adjacency scoring (§4.5), plus the random-byte mode the baselines
//!   use;
//! * [`corpus`] — seed retention and energy-weighted scheduling;
//! * [`crash`] — crash reports, de-duplication and Table-2 triage;
//! * [`executor`] — one test case end to end over the debug link:
//!   sync-point breakpoints, prog upload, coverage drain at
//!   `_kcmp_buf_full`, exception/assert classification, stall handling
//!   and state restoration;
//! * [`supervisor`] — the recovery supervisor: an escalating
//!   restoration ladder (resume → reset → verify-reflash → full
//!   reflash → power-cycle) with bounded, backed-off retries and
//!   [`supervisor::ResilienceStats`] accounting;
//! * [`cmplog`] — the Redqueen/I2S pipeline's host half: the
//!   per-campaign comparison-operand journal, the input-to-state
//!   mutation operators, and the MOpt-style operator scheduler;
//! * [`fuzzer`] — the feedback loop;
//! * [`campaign`] — image build → flash → boot → fuzz → results;
//! * [`chaos`] — seeded chaos harness: full campaigns under randomized
//!   injected-fault schedules, with invariant checking;
//! * [`artifacts`] — memoized image/spec pipeline shared by every
//!   campaign in the process (one build per distinct key);
//! * [`fleet`] — batch campaign execution over a scoped worker pool
//!   with deterministic, submission-ordered results;
//! * [`fabric`] — the fault-tolerant distributed campaign fabric:
//!   lease-based cell assignment with heartbeats and fencing epochs,
//!   checkpoint/resume through the persist store, bounded backed-off
//!   reassignment of crashed/hung workers, worker-fault chaos
//!   schedules, and an N-workers ≡ serial determinism gate;
//! * [`persist`] — the versioned on-disk campaign store: seed pool,
//!   unique-crash reproducers, coverage bitmap and manifest, written
//!   atomically and loaded tolerantly (corrupt/foreign entries are
//!   counted skips, never fatal);
//! * [`replay`] — deterministic re-execution of persisted stores: the
//!   save-time confirm/minimize pass, the CI replay gate, and
//!   replay-based campaign resume;
//! * [`report`] — serialisable result records for the benches.

// Every dependency in Cargo.toml must actually be linked against —
// declared-but-unused crates cost compile time and mislead readers
// about what the engine is built on.
#![warn(unused_crate_dependencies)]

pub mod artifacts;
pub mod campaign;
pub mod chaos;
pub mod cmplog;
pub mod config;
pub mod corpus;
pub mod crash;
pub mod executor;
pub mod fabric;
pub mod fleet;
pub mod fuzzer;
pub mod gen;
pub mod minimize;
pub mod persist;
pub mod replay;
pub mod report;
pub mod supervisor;

pub use artifacts::{cache_stats, cached_image, cached_spec, reset_cache_stats, CacheStats};
pub use campaign::{
    build_fuzzer, run_campaign, run_campaign_recorded, run_campaign_recorded_with_faults,
    run_campaign_with_coverage, run_campaign_with_faults, CampaignResult,
};
pub use chaos::{chaos_plan, run_chaos, ChaosConfig, ChaosReport};
pub use cmplog::{CmpJournal, MutOp, OpScheduler};
pub use config::{DetectionConfig, FuzzerConfig, GenerationMode, RecoveryConfig};
pub use corpus::{Corpus, Seed};
pub use crash::{triage, CrashDb, CrashReport, DetectionSource};
pub use executor::{ExecOutcome, Executor};
pub use fabric::{
    diff_against_serial, fabric_chaos_plan, fabric_grid, run_fabric, run_serial, FabricChaosPlan,
    FabricConfig, FabricFault, FabricReport, SerialMerge,
};
pub use fleet::{FleetError, FleetResult, FleetRunner};
pub use fuzzer::{Fuzzer, FuzzerStats};
pub use gen::Generator;
pub use minimize::{minimize, MinimizeResult};
pub use persist::{
    config_fingerprint, CampaignStore, Exchange, ExchangeImport, LoadedStore, PersistedCrash,
    PersistedSeed, SkipStats, StoreError, StoreManifest, SCHEMA_VERSION,
};
pub use replay::{
    finalize_store, replay_loaded, replay_store, resume_campaign, resume_campaign_with,
    FinalizeAudit, ReplayCase, ReplayReport, ResumeOutcome,
};
pub use supervisor::{RecoveryOutcome, RecoveryReason, RecoverySupervisor, ResilienceStats, Rung};
