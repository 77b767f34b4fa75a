//! `eof-dap` — the hardware debug access port and its protocol stack.
//!
//! EOF's core design decision is to use the hardware debug interface as
//! the *single* channel for control and observation (paper §4.2): test
//! cases go down over direct memory writes, execution is synchronised with
//! hardware breakpoints, coverage and crash state come back over memory
//! reads, and recovery is a reflash through the same port. This crate
//! provides that channel for the simulated boards:
//!
//! * [`transport`] — [`DebugTransport`]: the probe session itself, with
//!   per-operation latency, timeout semantics against a dead target, and
//!   injectable link outages (the raw material of Algorithm 1's
//!   `ConnectionTimeout` check);
//! * [`tap`] — a JTAG TAP controller state machine, driven underneath
//!   JTAG-interfaced boards for protocol fidelity;
//! * [`ocd`] — an OpenOCD-style text command server (`halt`, `mdw`,
//!   `flash write_image`, …) layered on the transport;
//! * [`rsp`] — a GDB Remote Serial Protocol codec and server (`$m…#cs`
//!   packets), the path the paper's GDB/MI commands travel;
//! * [`retry`] — [`RetryPolicy`]: exponential-backoff retry of transient
//!   connection losses, so a flaky probe is ridden out at the link layer
//!   instead of escalating to a full state restoration;
//! * [`txn`] — [`Txn`]: vectored transactions batching the per-exec hot
//!   path into single link round trips with all-or-nothing semantics;
//!   the same op list lowers op by op onto the scalar wire.

pub mod error;
pub mod ocd;
pub mod retry;
pub mod rsp;
pub mod tap;
pub mod transport;
pub mod txn;

pub use error::DapError;
pub use ocd::OcdServer;
pub use retry::{RetryPolicy, RetryStats};
pub use rsp::{
    checksum, decode_txn, decode_txn_reply, encode_txn, encode_txn_reply, frame_packet,
    parse_packet, RspServer,
};
pub use tap::{TapController, TapState};
pub use transport::{DebugTransport, LinkConfig, LinkEvent};
pub use txn::{Txn, TxnOp, TxnResult};
