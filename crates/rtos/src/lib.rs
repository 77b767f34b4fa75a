//! `eof-rtos` — kernel models of the embedded operating systems EOF tests.
//!
//! The paper evaluates EOF on FreeRTOS, RT-Thread, NuttX, Zephyr and (for
//! the Gustave comparison) POK. This crate implements a *model* of each:
//! a full API surface with genuinely branchy subsystem implementations —
//! schedulers, heap allocators, IPC primitives, timers, a JSON library, an
//! HTTP server, a socket abstraction layer, a serial device framework —
//! running on the `eof-hal` simulated boards and instrumented through
//! `eof-coverage`.
//!
//! Each OS keeps its own personality: FreeRTOS creates tasks with
//! `xTaskCreate` and tick-driven scheduling, Zephyr with
//! `k_thread_create` under preemptive scheduling, RT-Thread routes
//! everything through its kernel object registry, NuttX exposes a
//! POSIX-flavoured libc surface, and PoK partitions time and space
//! ARINC-style. The 19 previously-unknown bugs of the paper's Table 2 are
//! seeded at the exact operations the table names, with trigger conditions
//! whose depth reproduces which fuzzers could find them.
//!
//! Layout:
//!
//! * [`api`] — API metadata (names, typed/constrained parameters,
//!   produced/consumed resources) that `eof-specgen` extracts specs from;
//! * [`ctx`] — the execution context kernels run in: bus access, cycle
//!   charging and SanCov-style coverage hooks;
//! * [`kernel`] — the [`kernel::Kernel`] trait every OS model implements;
//! * [`subsys`] — the shared subsystem building blocks;
//! * [`os`] — the five OS personalities;
//! * [`image`] — flashable image building (with instrumentation cost) and
//!   boot-time validation;
//! * [`bugs`] — the Table-2 bug inventory used by triage and the benches;
//! * [`registry`] — the (OS × board) support matrix behind Table 1.

pub mod api;
pub mod bugs;
pub mod ctx;
pub mod image;
pub mod kernel;
pub mod os;
pub mod registry;
pub mod subsys;

pub use api::{ApiDescriptor, ArgKind, ArgMeta, InvokeResult, KArg, KernelFault};
pub use bugs::{BugId, BugInfo, DetectionClass, BUG_TABLE};
pub use ctx::{CovState, ExecCtx};
pub use image::{
    build_image, image_plain, parse_image, parse_image_with, ImageInfo, OS_BASE_IMAGE_BYTES,
};
pub use kernel::{Kernel, OsKind};
pub use registry::{make_kernel, supported_boards};
