//! Campaign configuration.
//!
//! One configuration type expresses EOF, EOF-nf and every baseline the
//! evaluation compares against, so the comparison benches differ *only*
//! in the knobs the paper says they differ in.

use eof_coverage::{CoverageKind, InstrumentMode};
use eof_hal::BoardSpec;
use eof_rtos::image::ImageProfile;
use eof_rtos::OsKind;
use std::sync::OnceLock;

/// Process-wide defaults of the fuzzer-policy environment knobs, parsed
/// once. This is the only place they are read: the substrate crates
/// (`eof-dap`, `eof-coverage`, `eof-monitors`) take the resulting
/// values as arguments.
struct EnvDefaults {
    /// `EOF_VECTORED`: unset or anything but `"0"` = vectored.
    vectored: bool,
    /// `EOF_SNAPSHOT`: unset or anything but `"0"` = snapshot fast path.
    snapshot: bool,
    /// `EOF_CMPLOG`: off unless set to anything but `"0"`.
    cmplog: bool,
    /// `EOF_COV`: `"trace"` = hardware trace, anything else = the ring.
    coverage_backend: CoverageKind,
}

fn env_defaults() -> &'static EnvDefaults {
    static DEFAULTS: OnceLock<EnvDefaults> = OnceLock::new();
    DEFAULTS.get_or_init(|| {
        let on = |name: &str, unset: bool| std::env::var(name).map_or(unset, |v| v != "0");
        EnvDefaults {
            vectored: on("EOF_VECTORED", true),
            snapshot: on("EOF_SNAPSHOT", true),
            cmplog: on("EOF_CMPLOG", false),
            coverage_backend: match std::env::var("EOF_COV") {
                Ok(v) if v == "trace" => CoverageKind::Trace,
                _ => CoverageKind::Ring,
            },
        }
    })
}

/// How test cases are produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GenerationMode {
    /// API-aware: typed, constrained arguments and resource-dependency
    /// ordering from the specification (EOF, Tardis).
    ApiAware,
    /// AFL-style opaque byte buffers thrown at entry points (GDBFuzz,
    /// SHIFT, Gustave).
    RandomBytes,
}

/// How a campaign notices a degraded target. Exactly one channel is
/// live per campaign; the executor's slice cap backstops every one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LivenessChannel {
    /// Algorithm 1's host-side watchdog over the debug link: connection
    /// timeout and PC stall (EOF, GDBFuzz, SHIFT).
    PcStall,
    /// Power-rail plateau and idle-draw detection, which never touches
    /// the debug link (the paper's §6 extension).
    Power,
    /// A bare timeout with this many simulated seconds of patience
    /// (Tardis, Gustave).
    Timeout {
        /// Patience per execution, in simulated seconds.
        secs: u64,
    },
}

/// Which bug/state detectors a fuzzer has.
#[derive(Debug, Clone, Copy)]
pub struct DetectionConfig {
    /// Breakpoints on the OS exception and assertion handlers.
    pub exception_breakpoints: bool,
    /// UART log signature scanning.
    pub log_monitor: bool,
    /// How a stalled or dead target is noticed.
    pub liveness: LivenessChannel,
}

impl DetectionConfig {
    /// EOF's full detector set.
    pub fn eof() -> Self {
        DetectionConfig {
            exception_breakpoints: true,
            log_monitor: true,
            liveness: LivenessChannel::PcStall,
        }
    }

    /// Tardis-style: nothing but a timeout.
    pub fn timeout_only(secs: u64) -> Self {
        DetectionConfig {
            exception_breakpoints: false,
            log_monitor: false,
            liveness: LivenessChannel::Timeout { secs },
        }
    }
}

/// How degraded states are recovered.
#[derive(Debug, Clone, Copy)]
pub struct RecoveryConfig {
    /// Full reflash on unrecoverable state (vs reboot only).
    pub reflash: bool,
}

impl RecoveryConfig {
    /// EOF's recovery: the full ladder, reflash included.
    pub fn eof() -> Self {
        RecoveryConfig { reflash: true }
    }

    /// Reboot-only recovery (emulator snapshot-style).
    pub fn reboot_only() -> Self {
        RecoveryConfig { reflash: false }
    }
}

/// Full campaign configuration.
#[derive(Debug, Clone)]
pub struct FuzzerConfig {
    /// Target OS.
    pub os: OsKind,
    /// Target board.
    pub board: BoardSpec,
    /// Campaign RNG seed.
    pub seed: u64,
    /// Budget in simulated hours.
    pub budget_hours: f64,
    /// Coverage-guided corpus retention (EOF-nf switches this off).
    pub coverage_feedback: bool,
    /// Crash/log events boost seed energy (EOF's unified feedback).
    pub crash_feedback: bool,
    /// Input generation mode.
    pub gen_mode: GenerationMode,
    /// Image instrumentation.
    pub instrument: InstrumentMode,
    /// Image build profile.
    pub profile: ImageProfile,
    /// Detector set.
    pub detection: DetectionConfig,
    /// Recovery policy.
    pub recovery: RecoveryConfig,
    /// Fraction of drained edges actually observable as feedback
    /// (1.0 = SanCov; GDBFuzz's rotating hardware breakpoints see far
    /// less).
    pub cov_observe_fraction: f64,
    /// Extra execution cost multiplier (QEMU TCG ≈ 1.5×, semihosting
    /// traps ≈ 2×; hardware = 1.0).
    pub exec_cost_multiplier: f64,
    /// Maximum calls per generated prog.
    pub max_calls: usize,
    /// Specification noise seed (LLM imperfection); `None` = clean spec.
    pub spec_noise: Option<u64>,
    /// Whether the spec validation gate is enabled (ablation).
    pub spec_validation: bool,
    /// Coverage snapshot interval in simulated hours.
    pub snapshot_hours: f64,
    /// Restrict fuzzing to APIs of these modules (the paper's
    /// application-level comparison confines testing to the HTTP server
    /// and JSON modules). `None` = full system.
    pub module_filter: Option<Vec<String>>,
    /// Inject peripheral events (GPIO edges, serial RX) between test
    /// cases to drive interrupt paths — the §6 extension; off in the
    /// paper's headline configuration ("currently EOF does not exercise
    /// interrupt handlers").
    pub peripheral_events: bool,
    /// Drop `syz_` pseudo-syscalls from the specification. Pseudo
    /// functions are an EOF/LLM feature (§4.5); baselines with
    /// hand-written specs (Tardis, Gustave) never had them.
    pub exclude_pseudo: bool,
    /// Persist the campaign's artifacts (seed pool, unique crashes,
    /// coverage bitmap, manifest) into this directory: crashes
    /// incrementally on discovery, the rest at campaign end. `None` =
    /// keep nothing. Excluded from the store's config fingerprint, like
    /// the budget knobs.
    pub persist: Option<std::path::PathBuf>,
    /// Submit every debug burst (prog upload, drains, sync-point
    /// breakpoints, restores) as one vectored debug-port transaction
    /// instead of lowering it op by op onto the scalar wire. Defaults to
    /// the `EOF_VECTORED` environment knob (unset = on; `EOF_VECTORED=0`
    /// = scalar). A pure transport-level optimisation: per-exec results
    /// are bit-identical either way (`tests/vectored_equiv.rs` enforces
    /// this), so it is excluded from the store's config fingerprint.
    pub vectored: bool,
    /// Use board-state snapshots and dirty-page delta restore as the
    /// recovery ladder's cheapest rung and for inter-exec restoration.
    /// Defaults to the `EOF_SNAPSHOT` environment knob (unset = on;
    /// `EOF_SNAPSHOT=0` = reboot/reflash-only fallback). Behaviour-
    /// neutral like `vectored` — per-exec results are bit-identical
    /// either way (`tests/snapshot_equiv.rs` enforces this), so it is
    /// excluded from the store's config fingerprint.
    pub snapshot: bool,
    /// Fuzz the model-free MMIO input plane: include the SPI/I2C/DMA
    /// driver APIs in the specification and generate/mutate the
    /// peripheral response stream (`Prog::mmio`) alongside the call
    /// sequence. Off in the headline configuration; the driver-workload
    /// campaigns (`FuzzerConfig::eof_driver`) switch it on. Part of the
    /// store's config fingerprint — reproducers depend on it.
    pub mmio: bool,
    /// Redqueen/I2S cmplog: arm the on-device comparison-operand ring,
    /// drain observed operand pairs into a per-campaign cmp journal, and
    /// run the input-to-state mutation stage with MOpt-style operator
    /// scheduling. Defaults to the `EOF_CMPLOG` environment knob —
    /// **off** unless set (`EOF_CMPLOG=1`), unlike `vectored`/`snapshot`,
    /// because cmplog changes which inputs are generated. Part of the
    /// store's config fingerprint for the same reason.
    pub cmplog: bool,
    /// How coverage leaves the device: the paper's compiled-in SanCov
    /// ring ([`CoverageKind::Ring`]) or the µAFL-style hardware trace
    /// unit ([`CoverageKind::Trace`]), which needs no instrumentation
    /// in the image at all — the campaign flashes the *plain* build
    /// (see [`FuzzerConfig::effective_instrument`]). Defaults to the
    /// `EOF_COV` environment knob (unset = ring; `EOF_COV=trace` =
    /// hardware trace). Behaviour-equivalent on the edge stream
    /// (`tests/trace_equiv.rs` enforces bit-identical campaigns), so —
    /// like `wire`/`restore` — it is recorded in persist manifests
    /// (`cov =`) but excluded from the config fingerprint.
    pub coverage_backend: CoverageKind,
}

impl FuzzerConfig {
    /// EOF's own configuration for a full-system campaign.
    pub fn eof(os: OsKind, seed: u64) -> Self {
        FuzzerConfig {
            os,
            board: eof_rtos::registry::default_board(os),
            seed,
            budget_hours: 24.0,
            coverage_feedback: true,
            crash_feedback: true,
            gen_mode: GenerationMode::ApiAware,
            instrument: InstrumentMode::Full,
            profile: ImageProfile::FullSystem,
            detection: DetectionConfig::eof(),
            recovery: RecoveryConfig::eof(),
            cov_observe_fraction: 1.0,
            exec_cost_multiplier: 1.0,
            max_calls: 8,
            spec_noise: Some(seed ^ 0x5eed),
            spec_validation: true,
            snapshot_hours: 1.0,
            module_filter: None,
            peripheral_events: false,
            exclude_pseudo: false,
            persist: None,
            vectored: env_defaults().vectored,
            snapshot: env_defaults().snapshot,
            mmio: false,
            cmplog: env_defaults().cmplog,
            coverage_backend: env_defaults().coverage_backend,
        }
    }

    /// The instrumentation mode the flashed image actually carries.
    /// Under the trace backend coverage is the hardware's job, so the
    /// campaign flashes the plain build whatever `instrument` says —
    /// that is the point of the backend: zero image overhead. The ring
    /// backend flashes `instrument` as configured.
    pub fn effective_instrument(&self) -> InstrumentMode {
        match self.coverage_backend {
            CoverageKind::Trace => InstrumentMode::None,
            CoverageKind::Ring => self.instrument.clone(),
        }
    }

    /// The driver-fuzzing workload: EOF plus the model-free MMIO input
    /// plane (driver APIs in the spec, peripheral response stream as a
    /// second mutated plane).
    pub fn eof_driver(os: OsKind, seed: u64) -> Self {
        FuzzerConfig {
            mmio: true,
            ..Self::eof(os, seed)
        }
    }

    /// The cmplog driver workload: the driver campaign with the
    /// Redqueen/I2S pipeline armed — the "cmplog" arm of the pure-vs-
    /// cmplog A/B (`bench/src/bin/i2s.rs`).
    pub fn eof_cmplog(os: OsKind, seed: u64) -> Self {
        FuzzerConfig {
            cmplog: true,
            ..Self::eof_driver(os, seed)
        }
    }

    /// EOF-nf: EOF without feedback guidance.
    pub fn eof_nf(os: OsKind, seed: u64) -> Self {
        FuzzerConfig {
            coverage_feedback: false,
            crash_feedback: false,
            ..Self::eof(os, seed)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eof_defaults_match_paper() {
        let c = FuzzerConfig::eof(OsKind::Zephyr, 1);
        assert!(c.coverage_feedback);
        assert!(c.detection.exception_breakpoints);
        assert!(c.detection.log_monitor);
        assert_eq!(c.detection.liveness, LivenessChannel::PcStall);
        assert!(c.recovery.reflash);
        assert_eq!(c.budget_hours, 24.0);
    }

    #[test]
    fn eof_driver_only_adds_the_mmio_plane() {
        let base = FuzzerConfig::eof(OsKind::NuttX, 7);
        let drv = FuzzerConfig::eof_driver(OsKind::NuttX, 7);
        assert!(!base.mmio);
        assert!(drv.mmio);
        assert!(drv.coverage_feedback);
        assert_eq!(drv.gen_mode, GenerationMode::ApiAware);
        assert_eq!(drv.max_calls, base.max_calls);
    }

    #[test]
    fn eof_cmplog_only_arms_the_cmp_channel() {
        let drv = FuzzerConfig::eof_driver(OsKind::FreeRtos, 3);
        let i2s = FuzzerConfig::eof_cmplog(OsKind::FreeRtos, 3);
        assert!(!drv.cmplog, "cmplog defaults off without EOF_CMPLOG");
        assert!(i2s.cmplog);
        assert!(i2s.mmio, "cmplog builds on the driver workload");
        assert!(i2s.coverage_feedback);
        assert_eq!(i2s.max_calls, drv.max_calls);
    }

    #[test]
    fn trace_backend_flashes_the_plain_build() {
        let mut c = FuzzerConfig::eof(OsKind::Zephyr, 1);
        assert_eq!(c.effective_instrument(), c.instrument);
        c.coverage_backend = CoverageKind::Trace;
        assert_eq!(c.effective_instrument(), InstrumentMode::None);
    }

    #[test]
    fn eof_nf_only_drops_feedback() {
        let c = FuzzerConfig::eof_nf(OsKind::Zephyr, 1);
        assert!(!c.coverage_feedback);
        assert!(!c.crash_feedback);
        // Everything else identical to EOF.
        assert!(c.detection.exception_breakpoints);
        assert_eq!(c.detection.liveness, LivenessChannel::PcStall);
        assert_eq!(c.gen_mode, GenerationMode::ApiAware);
    }
}
