//! Baseline fuzzer configurations.

use eof_core::config::{
    DetectionConfig, FuzzerConfig, GenerationMode, LivenessChannel, RecoveryConfig,
};
use eof_coverage::InstrumentMode;
use eof_hal::BoardCatalog;
use eof_rtos::image::ImageProfile;
use eof_rtos::OsKind;

/// Tardis's hang patience in simulated seconds (its only detector).
pub const TARDIS_TIMEOUT_SECS: u64 = 15;

/// QEMU TCG execution-cost multiplier relative to silicon.
pub const QEMU_COST: f64 = 1.5;

/// Semihosting trap execution-cost multiplier.
pub const SEMIHOST_COST: f64 = 2.0;

/// Fraction of edges GDBFuzz's rotating hardware breakpoints observe.
pub const GDBFUZZ_OBSERVE: f64 = 0.20;

/// The fuzzers compared in the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BaselineKind {
    /// EOF itself.
    Eof,
    /// EOF without feedback guidance.
    EofNf,
    /// Tardis: Syzkaller-derived, QEMU shared-memory, timeout-only.
    Tardis,
    /// Gustave: AFL-derived, customised QEMU, POK-class targets.
    Gustave,
    /// GDBFuzz: on-hardware via GDB, random buffers, breakpoint coverage.
    GdbFuzz,
    /// SHIFT: semi-hosted fuzzing, FreeRTOS application level.
    Shift,
}

impl BaselineKind {
    /// All kinds.
    pub const ALL: [BaselineKind; 6] = [
        BaselineKind::Eof,
        BaselineKind::EofNf,
        BaselineKind::Tardis,
        BaselineKind::Gustave,
        BaselineKind::GdbFuzz,
        BaselineKind::Shift,
    ];

    /// Display name as the paper prints it.
    pub fn display(self) -> &'static str {
        match self {
            BaselineKind::Eof => "EOF",
            BaselineKind::EofNf => "EOF-nf",
            BaselineKind::Tardis => "Tardis",
            BaselineKind::Gustave => "Gustave",
            BaselineKind::GdbFuzz => "GDBFuzz",
            BaselineKind::Shift => "SHIFT",
        }
    }

    /// Whether this fuzzer can run full-system campaigns on an OS
    /// (Table 3's populated cells).
    pub fn supports_full_system(self, os: OsKind) -> bool {
        match self {
            BaselineKind::Eof | BaselineKind::EofNf => true,
            // Tardis supports the four conventional RTOSes, not POK.
            BaselineKind::Tardis => os != OsKind::PokOs,
            // Gustave's customised QEMU board is POK-specific.
            BaselineKind::Gustave => os == OsKind::PokOs,
            // Application-level tools do not do full-system testing.
            BaselineKind::GdbFuzz => false,
            BaselineKind::Shift => false,
        }
    }

    /// Full-system campaign configuration (Table 3 / Figure 7), or
    /// `None` when the tool cannot target the OS.
    pub fn full_system_config(self, os: OsKind, seed: u64) -> Option<FuzzerConfig> {
        if !self.supports_full_system(os) {
            return None;
        }
        let mut cfg = FuzzerConfig::eof(os, seed);
        match self {
            BaselineKind::Eof => {}
            BaselineKind::EofNf => {
                cfg.coverage_feedback = false;
                cfg.crash_feedback = false;
            }
            BaselineKind::Tardis | BaselineKind::Gustave => {
                // Emulation-based: runs on the QEMU board regardless of
                // the hardware target, with TCG's execution cost, a
                // timeout as the only monitor, and reboot-only recovery.
                cfg.board = BoardCatalog::qemu_virt_arm();
                cfg.detection = DetectionConfig::timeout_only(TARDIS_TIMEOUT_SECS);
                cfg.recovery = RecoveryConfig::reboot_only();
                cfg.crash_feedback = false;
                cfg.exec_cost_multiplier = QEMU_COST;
                cfg.exclude_pseudo = true;
            }
            BaselineKind::GdbFuzz | BaselineKind::Shift => unreachable!(),
        }
        Some(cfg)
    }

    /// Whether this fuzzer participates in the application-level
    /// comparison (Table 4 / Figure 8: HTTP server + JSON on FreeRTOS).
    pub fn supports_app_level(self) -> bool {
        matches!(
            self,
            BaselineKind::Eof | BaselineKind::GdbFuzz | BaselineKind::Shift
        )
    }

    /// Application-level configuration: FreeRTOS on the ESP32-class
    /// board, instrumentation strictly confined to the two modules.
    pub fn app_level_config(self, seed: u64) -> Option<FuzzerConfig> {
        if !self.supports_app_level() {
            return None;
        }
        let modules = vec!["json".to_string(), "http".to_string()];
        let mut cfg = FuzzerConfig::eof(OsKind::FreeRtos, seed);
        cfg.board = BoardCatalog::esp32_devkit();
        cfg.profile = ImageProfile::AppLevel;
        cfg.instrument = InstrumentMode::Modules(modules.clone());
        cfg.module_filter = Some(modules);
        match self {
            BaselineKind::Eof => {}
            BaselineKind::GdbFuzz => {
                // Random byte buffers; coverage only through the rotating
                // hardware-breakpoint window; no log monitor; reboot-only.
                cfg.gen_mode = GenerationMode::RandomBytes;
                cfg.cov_observe_fraction = GDBFUZZ_OBSERVE;
                cfg.crash_feedback = false;
                cfg.detection = DetectionConfig {
                    exception_breakpoints: true,
                    log_monitor: false,
                    liveness: LivenessChannel::PcStall,
                };
                cfg.recovery = RecoveryConfig::reboot_only();
            }
            BaselineKind::Shift => {
                // Sanitizer coverage through semihosting (full
                // observation, double execution cost), random buffers.
                cfg.gen_mode = GenerationMode::RandomBytes;
                cfg.exec_cost_multiplier = SEMIHOST_COST;
                cfg.crash_feedback = false;
                cfg.detection = DetectionConfig {
                    exception_breakpoints: true,
                    log_monitor: false,
                    liveness: LivenessChannel::PcStall,
                };
                cfg.recovery = RecoveryConfig::reboot_only();
            }
            _ => unreachable!(),
        }
        Some(cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_system_support_matches_paper() {
        // Table 3's rows: EOF & EOF-nf everywhere, Tardis on the four
        // RTOSes, Gustave only on PoK.
        for os in [
            OsKind::FreeRtos,
            OsKind::RtThread,
            OsKind::NuttX,
            OsKind::Zephyr,
        ] {
            assert!(BaselineKind::Eof.supports_full_system(os));
            assert!(BaselineKind::Tardis.supports_full_system(os));
            assert!(!BaselineKind::Gustave.supports_full_system(os));
        }
        assert!(!BaselineKind::Tardis.supports_full_system(OsKind::PokOs));
        assert!(BaselineKind::Gustave.supports_full_system(OsKind::PokOs));
        assert!(!BaselineKind::GdbFuzz.supports_full_system(OsKind::FreeRtos));
    }

    #[test]
    fn tardis_differs_only_where_the_paper_says() {
        let eof = BaselineKind::Eof
            .full_system_config(OsKind::Zephyr, 1)
            .unwrap();
        let tardis = BaselineKind::Tardis
            .full_system_config(OsKind::Zephyr, 1)
            .unwrap();
        // Same generation model and instrumentation.
        assert_eq!(eof.gen_mode, tardis.gen_mode);
        assert_eq!(eof.instrument, tardis.instrument);
        assert!(tardis.coverage_feedback);
        // Different monitors, recovery, substrate.
        assert_eq!(
            tardis.detection.liveness,
            LivenessChannel::Timeout {
                secs: TARDIS_TIMEOUT_SECS
            }
        );
        assert!(!tardis.detection.exception_breakpoints);
        assert!(!tardis.recovery.reflash);
        assert!(tardis.exec_cost_multiplier > 1.0);
        assert_eq!(tardis.board.name, "qemu-virt-arm");
    }

    #[test]
    fn app_level_participants() {
        assert!(BaselineKind::Eof.app_level_config(1).is_some());
        assert!(BaselineKind::GdbFuzz.app_level_config(1).is_some());
        assert!(BaselineKind::Shift.app_level_config(1).is_some());
        assert!(BaselineKind::Tardis.app_level_config(1).is_none());
        let gdb = BaselineKind::GdbFuzz.app_level_config(1).unwrap();
        assert_eq!(gdb.gen_mode, GenerationMode::RandomBytes);
        assert!(gdb.cov_observe_fraction < 1.0);
        assert!(gdb.module_filter.is_some());
        let shift = BaselineKind::Shift.app_level_config(1).unwrap();
        assert_eq!(shift.exec_cost_multiplier, SEMIHOST_COST);
    }

    #[test]
    fn display_names() {
        assert_eq!(BaselineKind::EofNf.display(), "EOF-nf");
        assert_eq!(BaselineKind::GdbFuzz.display(), "GDBFuzz");
    }
}
