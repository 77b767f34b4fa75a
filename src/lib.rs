//! # EOF — Effective On-Hardware Fuzzing of Embedded Operating Systems
//!
//! A from-scratch Rust reproduction of the EuroSys '26 paper. EOF is a
//! feedback-guided fuzzer that tests embedded operating systems *running
//! on hardware*, using the debug port (JTAG/SWD, via an OpenOCD/GDB-style
//! stack) as the single channel of control and observation: test cases go
//! down as direct memory writes, execution synchronises on hardware
//! breakpoints at the on-target agent's sync points, coverage and crash
//! state come back as memory reads and UART logs, and degraded targets
//! are revived by reflashing over the same port.
//!
//! Everything the paper runs on is implemented in this workspace:
//!
//! | crate | role |
//! |---|---|
//! | [`hal`] | simulated MCU boards (RAM, flash partitions, UART, debug surface, fault injection) |
//! | [`dap`] | the debug access port: transport, JTAG TAP, OpenOCD server, GDB RSP |
//! | [`rtos`] | kernel models of FreeRTOS, RT-Thread, NuttX, Zephyr and PoK, with the 19 Table-2 bugs seeded |
//! | [`agent`] | the cross-platform on-target execution agent |
//! | [`speclang`] | the Syzlang-style specification language and prog wire format |
//! | [`specgen`] | LLM-substitute spec extraction, noise model and validation gate |
//! | [`coverage`] | SanCov-style edge instrumentation and host coverage maps |
//! | [`monitors`] | log monitor, exception monitor, liveness watchdogs, state restoration |
//! | [`core`] | the fuzzing engine: generation, corpus, executor, campaigns |
//! | [`baselines`] | Tardis, Gustave, GDBFuzz and SHIFT as engine configurations |
//!
//! # Quickstart
//!
//! ```
//! use eof::prelude::*;
//!
//! // A short EOF campaign against the Zephyr model on the QEMU-class
//! // board (the examples run the real 24-simulated-hour setups).
//! let mut config = FuzzerConfig::eof(OsKind::Zephyr, 42);
//! config.budget_hours = 0.01;
//! let result = run_campaign(config);
//! assert!(result.stats.execs > 0);
//! assert!(result.branches > 0);
//! ```

pub use eof_agent as agent;
pub use eof_baselines as baselines;
pub use eof_core as core;
pub use eof_coverage as coverage;
pub use eof_dap as dap;
pub use eof_hal as hal;
pub use eof_monitors as monitors;
pub use eof_rtos as rtos;
pub use eof_specgen as specgen;
pub use eof_speclang as speclang;

/// The names most programs need.
pub mod prelude {
    pub use eof_agent::{agent_loader, api_table_of, boot_machine, AgentLayout};
    pub use eof_baselines::BaselineKind;
    pub use eof_core::config::{DetectionConfig, GenerationMode, LivenessChannel, RecoveryConfig};
    pub use eof_core::report::write_campaign_report;
    pub use eof_core::{
        diff_against_serial, fabric_chaos_plan, fabric_grid, run_fabric, run_serial,
        FabricChaosPlan, FabricConfig, FabricFault, FabricReport, SerialMerge,
    };
    pub use eof_core::{
        replay_store, resume_campaign, resume_campaign_with, CampaignStore, LoadedStore,
        ReplayReport, StoreError,
    };
    pub use eof_core::{run_campaign, CampaignResult, Executor, Fuzzer, FuzzerConfig, Generator};
    pub use eof_coverage::InstrumentMode;
    pub use eof_dap::{DebugTransport, LinkConfig, OcdServer, RspServer, Txn, TxnOp, TxnResult};
    pub use eof_hal::{BoardCatalog, BoardSpec, Machine};
    pub use eof_monitors::{LivenessWatchdog, LogMonitor, StateRestoration};
    pub use eof_rtos::image::{build_image, ImageProfile};
    pub use eof_rtos::{BugId, OsKind};
    pub use eof_specgen::{extract_spec_text, generate_validated, NoiseConfig};
    pub use eof_speclang::{parse_spec, Prog};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_reexports_work() {
        let board = BoardCatalog::esp32_devkit();
        assert_eq!(board.name, "esp32-devkitc");
        let spec = parse_spec(&extract_spec_text(OsKind::FreeRtos)).unwrap();
        assert!(!spec.apis.is_empty());
    }
}
