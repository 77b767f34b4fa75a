//! `eof-coverage` — SanCov-style coverage instrumentation for the EOF
//! reproduction.
//!
//! The paper (§4.5.1) instruments the target OS at compile time with
//! Sanitizer Coverage: a callback at each branch writes a record into a
//! small coverage buffer in target RAM; when the buffer fills, the firmware
//! traps at `_kcmp_buf_full` so the host can drain and reset it over the
//! debug port. This crate provides all four pieces:
//!
//! * [`edge`] — stable edge identities and the per-OS registry of
//!   instrumentable sites;
//! * [`instrument`] — the "compile-time" instrumentation plan (full-image,
//!   per-module as in the GDBFuzz comparison, or none) plus its memory and
//!   cycle cost model;
//! * [`buffer`] — the on-device ring-buffer layout and the device/host
//!   halves of the drain protocol;
//! * [`cmp`] — the comparison-operand ring (the cmplog channel): the
//!   planted `trace_cmp` hooks record operand pairs here when the host
//!   arms the region, feeding Redqueen-style input-to-state mutation;
//! * [`bitmap`] — the host-side coverage map that decides "did this input
//!   find anything new?" and accumulates branch counts for the paper's
//!   tables and curves;
//! * [`trace`] — the host half of the µAFL-style hardware trace channel:
//!   a streaming decoder for the [`eof_hal::trace`] packet format;
//! * [`backend`] — the [`CoverageBackend`] trait that makes the fuzzing
//!   loop agnostic to which of the two channels (instrumented ring or
//!   hardware trace) supplied its edges.

pub mod backend;
pub mod bitmap;
pub mod buffer;
pub mod cmp;
pub mod edge;
pub mod instrument;
pub mod trace;

pub use backend::{CoverageBackend, CoverageKind, DrainedCoverage, InstrumentedRing, TraceDecode};
pub use bitmap::{CoverageMap, Snapshot};
pub use buffer::{CovRegion, RecordOutcome, COV_HEADER_BYTES, COV_RECORD_BYTES};
pub use cmp::{CmpRecord, CmpRegion, CMP_HEADER_BYTES, CMP_RECORD_BYTES};
pub use edge::{edge_id, EdgeId, EdgeRegistry, EdgeSite};
pub use instrument::{InstrumentCost, InstrumentMode, InstrumentPlan};
pub use trace::{TraceDecoder, TraceStats};
