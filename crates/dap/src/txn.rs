//! Vectored debug-port transactions.
//!
//! The per-exec hot path — prog upload, coverage drain, sync-point
//! breakpoint churn — is a string of small debug operations, and in the
//! scalar protocol every one of them pays the full round-trip tax: link
//! latency, its own DR scan walk, its own access-port setup, and its own
//! window of exposure to link faults. Real probes batch: FTDI MPSSE
//! block shifts, CMSIS-DAP packed transfers and AHB-AP address
//! auto-increment all exist because hardware round trips dominate
//! on-target fuzzing throughput (the paper's §5.5; EmbedFuzz and
//! Ember-IO in PAPERS.md make the same argument from opposite ends).
//!
//! A [`Txn`] queues operations host-side and submits them as **one**
//! link transaction:
//!
//! * one [`LinkConfig::latency`](crate::LinkConfig) charge and one TAP
//!   scan for the whole batch, with the bulk payload shifted in block
//!   mode (the probe streams from its FIFO instead of pacing every word
//!   from the host);
//! * one fault-injection point — the submit itself. Link faults can
//!   only refuse the batch *before* anything applies, so a dropped
//!   transaction is replayed whole and partial application is
//!   impossible by construction (see `DebugTransport::run_txn`);
//! * every queued operation is validated against the target before any
//!   is applied: a bad address or an over-budget breakpoint refuses the
//!   whole batch with the target untouched.
//!
//! The scalar wire is not a second code path but a second *lowering* of
//! the same op list: a `Txn` built with [`Txn::for_wire`]`(false)` runs
//! each op as its dedicated scalar probe command — its own round trip,
//! its own fault point, its own retry unit (see
//! `DebugTransport::run_txn` and [`crate::RetryPolicy::run_txn`]).

/// Wire-descriptor bits per queued operation (command, address, length).
pub const TXN_HEADER_BITS: u64 = 32;

/// Block-mode payload shift rate: TCK cycles per core cycle. The scalar
/// path paces every word from the host at 1:8 ([`crate::tap`]); a
/// vectored batch streams its payload from the probe FIFO without
/// per-word turnarounds, an 8× faster effective shift.
pub const BLOCK_TCK_PER_CORE_CYCLE: u64 = 64;

/// One queued debug operation inside a [`Txn`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxnOp {
    /// Halt the core.
    Halt,
    /// Resume the core (non-blocking).
    Resume,
    /// Read `len` bytes of target RAM at `addr`.
    ReadMem {
        /// RAM address.
        addr: u32,
        /// Bytes to read.
        len: u32,
    },
    /// Write bytes into target RAM at `addr`.
    WriteMem {
        /// RAM address.
        addr: u32,
        /// Bytes to write.
        data: Vec<u8>,
    },
    /// Read the program counter.
    ReadPc,
    /// Install a hardware breakpoint.
    SetBreakpoint {
        /// Breakpoint address.
        addr: u32,
    },
    /// Remove a hardware breakpoint.
    ClearBreakpoint {
        /// Breakpoint address.
        addr: u32,
    },
    /// Target-side checksum of a flash partition (core-independent).
    FlashChecksum {
        /// Partition name.
        partition: String,
    },
    /// Program a flash partition (core-independent).
    FlashWrite {
        /// Partition name.
        partition: String,
        /// Image bytes.
        image: Vec<u8>,
    },
    /// Per-sector checksums of a flash partition (core-independent):
    /// the damage-localisation step of sector-delta reflash. The host
    /// states how many sector checksums it expects back so the response
    /// payload is metered honestly.
    FlashSectorChecksums {
        /// Partition name.
        partition: String,
        /// Number of sectors the partition holds (response size).
        sectors: u32,
    },
    /// Rewrite a sparse set of sectors inside a partition
    /// (core-independent). Each entry is `(sector index, bytes)` — the
    /// sector-delta reflash's write step: only the sectors that failed
    /// verification travel the wire.
    FlashWriteSectors {
        /// Partition name.
        partition: String,
        /// Sectors to rewrite, in ascending index order.
        sectors: Vec<(u32, Vec<u8>)>,
    },
    /// Hardware reset (core-independent; answers even when dead).
    ResetTarget,
    /// Scatter-write a set of RAM pages in one burst — the snapshot
    /// delta restore's bulk carrier. Each entry is `(addr, bytes)`.
    WritePages {
        /// Pages to write, in ascending address order.
        pages: Vec<(u32, Vec<u8>)>,
    },
    /// Restore the core's register file from the loaded image and
    /// restart it at the reset vector *without* a hardware reset — RAM
    /// keeps its (just delta-restored) contents and no reset latency is
    /// paid. The snapshot restore's final step.
    RestoreCore,
    /// Atomically drain **and reset** a record ring (the cmplog
    /// channel): read `header + capacity × record_bytes` at `base`, then
    /// zero the count and overflow words — one operation, so a link
    /// fault can only lose the whole drain (replayed whole), never leave
    /// the ring half-reset under a stale count. The scalar lowering is
    /// three retry units: header + live records in one, then each reset
    /// write, so a retry never re-reads a ring it already reset.
    DrainRing {
        /// Ring header address.
        base: u32,
        /// Maximum records the ring holds.
        capacity: u32,
        /// Bytes per record.
        record_bytes: u32,
    },
    /// Atomically drain the hardware trace FIFO: the 12-byte trace
    /// header streams back first, then exactly the live stream bytes it
    /// announced, and the FIFO is reset — one operation, so a link
    /// fault can only lose the whole drain (replayed whole; the host
    /// decoder's stream state is reset alongside), never split a packet
    /// across a retry. The FIFO lives in the debug subsystem, not
    /// target RAM, so the op is addressless.
    DrainTrace,
}

impl TxnOp {
    /// Whether the operation needs a live core. Flash and reset lines
    /// answer independently of core state, exactly like their scalar
    /// counterparts ([`crate::DebugTransport::flash_partition`] & co).
    pub fn needs_core(&self) -> bool {
        !matches!(
            self,
            TxnOp::FlashChecksum { .. }
                | TxnOp::FlashWrite { .. }
                | TxnOp::FlashSectorChecksums { .. }
                | TxnOp::FlashWriteSectors { .. }
                | TxnOp::ResetTarget
        )
    }

    /// Bulk payload bits this operation shifts through the probe
    /// (beyond its fixed command descriptor).
    pub fn payload_bits(&self) -> u64 {
        match self {
            TxnOp::ReadMem { len, .. } => *len as u64 * 8,
            TxnOp::WriteMem { data, .. } => data.len() as u64 * 8,
            TxnOp::FlashWrite { image, .. } => image.len() as u64 * 8,
            TxnOp::FlashChecksum { .. } => 64,
            TxnOp::FlashSectorChecksums { sectors, .. } => *sectors as u64 * 64,
            // Like WritePages: a 32-bit sector descriptor ahead of each
            // sector's bytes.
            TxnOp::FlashWriteSectors { sectors, .. } => sectors
                .iter()
                .map(|(_, data)| 32 + data.len() as u64 * 8)
                .sum(),
            TxnOp::ReadPc => 32,
            // Each page carries a 32-bit address descriptor ahead of its
            // bytes; the register-file restore ships PC + status words.
            TxnOp::WritePages { pages } => pages
                .iter()
                .map(|(_, data)| 32 + data.len() as u64 * 8)
                .sum(),
            TxnOp::RestoreCore => 64,
            // A 32-bit ring descriptor goes out and the 12-byte header
            // always streams back. The records are a probe-side
            // dependent read — the transport charges their stream bits
            // at apply time, when the live count is known, so a
            // mostly-empty ring costs a dozen bytes rather than the
            // full capacity image.
            TxnOp::DrainRing { .. } => 32 + 12 * 8,
            // Same dependent-read shape as DrainRing: descriptor out,
            // 12-byte trace header back, live stream bytes charged at
            // apply time when the FIFO's used count is known.
            TxnOp::DrainTrace => 32 + 12 * 8,
            TxnOp::Halt
            | TxnOp::Resume
            | TxnOp::SetBreakpoint { .. }
            | TxnOp::ClearBreakpoint { .. }
            | TxnOp::ResetTarget => 0,
        }
    }
}

/// Result of one [`TxnOp`], in queue order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxnResult {
    /// The operation completed with nothing to return.
    Done,
    /// Bytes read by a [`TxnOp::ReadMem`].
    Bytes(Vec<u8>),
    /// Program counter read by a [`TxnOp::ReadPc`].
    Pc(u32),
    /// Checksum computed by a [`TxnOp::FlashChecksum`].
    Checksum(u64),
    /// Per-sector checksums computed by a [`TxnOp::FlashSectorChecksums`].
    Checksums(Vec<u64>),
}

/// A host-side batch of debug operations, submitted via
/// `DebugTransport::run_txn` as one vectored link transaction or, when
/// built for the scalar wire, as the op-by-op scalar lowering.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Txn {
    ops: Vec<TxnOp>,
    /// Lower op by op over the scalar wire instead of as one round trip.
    scalar: bool,
}

impl Txn {
    /// An empty vectored transaction.
    pub fn new() -> Self {
        Txn::default()
    }

    /// An empty transaction for the given wire mode: vectored (one
    /// round trip) or scalar (each op as its dedicated probe command).
    pub fn for_wire(vectored: bool) -> Self {
        Txn {
            ops: Vec::new(),
            scalar: !vectored,
        }
    }

    /// Whether this transaction submits as one vectored round trip.
    pub fn is_vectored(&self) -> bool {
        !self.scalar
    }

    /// Queued operations, in submission order.
    pub fn ops(&self) -> &[TxnOp] {
        &self.ops
    }

    /// Number of queued operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether nothing is queued (submitting an empty txn is free).
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Whether any queued operation needs a live core.
    pub fn needs_core(&self) -> bool {
        self.ops.iter().any(TxnOp::needs_core)
    }

    /// Total bulk payload bits across the batch.
    pub fn payload_bits(&self) -> u64 {
        self.ops.iter().map(TxnOp::payload_bits).sum()
    }

    /// Total command-descriptor bits across the batch.
    pub fn header_bits(&self) -> u64 {
        self.ops.len() as u64 * TXN_HEADER_BITS
    }

    /// Queue an arbitrary operation.
    pub fn push(&mut self, op: TxnOp) -> &mut Self {
        self.ops.push(op);
        self
    }

    /// Queue a halt.
    pub fn halt(&mut self) -> &mut Self {
        self.push(TxnOp::Halt)
    }

    /// Queue a resume.
    pub fn resume(&mut self) -> &mut Self {
        self.push(TxnOp::Resume)
    }

    /// Queue a memory read of `len` bytes.
    pub fn read_mem(&mut self, addr: u32, len: u32) -> &mut Self {
        self.push(TxnOp::ReadMem { addr, len })
    }

    /// Queue a memory write.
    pub fn write_mem(&mut self, addr: u32, data: &[u8]) -> &mut Self {
        self.push(TxnOp::WriteMem {
            addr,
            data: data.to_vec(),
        })
    }

    /// Queue a PC read.
    pub fn read_pc(&mut self) -> &mut Self {
        self.push(TxnOp::ReadPc)
    }

    /// Queue a breakpoint install.
    pub fn set_breakpoint(&mut self, addr: u32) -> &mut Self {
        self.push(TxnOp::SetBreakpoint { addr })
    }

    /// Queue a breakpoint removal.
    pub fn clear_breakpoint(&mut self, addr: u32) -> &mut Self {
        self.push(TxnOp::ClearBreakpoint { addr })
    }

    /// Queue a flash checksum.
    pub fn flash_checksum(&mut self, partition: &str) -> &mut Self {
        self.push(TxnOp::FlashChecksum {
            partition: partition.to_string(),
        })
    }

    /// Queue a per-sector partition checksum; `sectors` is the count the
    /// host expects back (it knows the partition size).
    pub fn flash_sector_checksums(&mut self, partition: &str, sectors: u32) -> &mut Self {
        self.push(TxnOp::FlashSectorChecksums {
            partition: partition.to_string(),
            sectors,
        })
    }

    /// Queue a sparse sector rewrite inside a partition.
    pub fn flash_write_sectors(
        &mut self,
        partition: &str,
        sectors: Vec<(u32, Vec<u8>)>,
    ) -> &mut Self {
        self.push(TxnOp::FlashWriteSectors {
            partition: partition.to_string(),
            sectors,
        })
    }

    /// Queue a whole-partition flash program.
    pub fn flash_write(&mut self, partition: &str, image: &[u8]) -> &mut Self {
        self.push(TxnOp::FlashWrite {
            partition: partition.to_string(),
            image: image.to_vec(),
        })
    }

    /// Queue a target reset.
    pub fn reset_target(&mut self) -> &mut Self {
        self.push(TxnOp::ResetTarget)
    }

    /// Queue a scatter-write of RAM pages.
    pub fn write_pages(&mut self, pages: Vec<(u32, Vec<u8>)>) -> &mut Self {
        self.push(TxnOp::WritePages { pages })
    }

    /// Queue a register-file restore + restart at the reset vector.
    pub fn restore_core(&mut self) -> &mut Self {
        self.push(TxnOp::RestoreCore)
    }

    /// Queue an atomic ring drain-and-reset (the cmplog channel).
    pub fn drain_ring(&mut self, base: u32, capacity: u32, record_bytes: u32) -> &mut Self {
        self.push(TxnOp::DrainRing {
            base,
            capacity,
            record_bytes,
        })
    }

    /// Queue an atomic trace-FIFO drain-and-reset (the hardware-trace
    /// coverage channel).
    pub fn drain_trace(&mut self) -> &mut Self {
        self.push(TxnOp::DrainTrace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_queues_in_order() {
        let mut t = Txn::new();
        t.halt()
            .read_mem(0x100, 8)
            .write_mem(0x200, &[1, 2])
            .resume();
        assert_eq!(t.len(), 4);
        assert_eq!(t.ops()[0], TxnOp::Halt);
        assert_eq!(
            t.ops()[1],
            TxnOp::ReadMem {
                addr: 0x100,
                len: 8
            }
        );
        assert_eq!(
            t.ops()[2],
            TxnOp::WriteMem {
                addr: 0x200,
                data: vec![1, 2]
            }
        );
        assert_eq!(t.ops()[3], TxnOp::Resume);
    }

    #[test]
    fn payload_and_header_accounting() {
        let mut t = Txn::new();
        t.read_mem(0, 12).write_mem(0, &[0u8; 4]).set_breakpoint(4);
        assert_eq!(t.payload_bits(), 12 * 8 + 4 * 8);
        assert_eq!(t.header_bits(), 3 * TXN_HEADER_BITS);
        assert!(t.needs_core());
    }

    #[test]
    fn flash_ops_are_core_independent() {
        let mut t = Txn::new();
        t.flash_checksum("kernel")
            .flash_write("kernel", b"IMG!")
            .reset_target();
        assert!(!t.needs_core());
        t.read_pc();
        assert!(t.needs_core());
    }

    #[test]
    fn snapshot_ops_account_and_need_core() {
        let mut t = Txn::new();
        t.write_pages(vec![(0x100, vec![0u8; 256]), (0x300, vec![0u8; 16])])
            .restore_core();
        assert!(t.needs_core());
        assert_eq!(
            t.payload_bits(),
            (32 + 256 * 8) + (32 + 16 * 8) + 64,
            "each page ships a 32-bit descriptor + bytes; restore-core ships 64"
        );
        assert_eq!(t.header_bits(), 2 * TXN_HEADER_BITS);
    }

    #[test]
    fn drain_ring_accounts_and_needs_core() {
        let mut t = Txn::new();
        t.drain_ring(0x2000_5100, 128, 24);
        assert!(t.needs_core());
        assert_eq!(
            t.payload_bits(),
            32 + 12 * 8,
            "descriptor out, header back; live records are charged at apply time"
        );
    }

    #[test]
    fn drain_trace_accounts_and_needs_core() {
        let mut t = Txn::new();
        t.drain_trace();
        assert!(t.needs_core());
        assert_eq!(
            t.payload_bits(),
            32 + 12 * 8,
            "descriptor out, trace header back; live stream bytes are charged at apply time"
        );
    }

    #[test]
    fn empty_txn() {
        let t = Txn::new();
        assert!(t.is_empty());
        assert_eq!(t.payload_bits(), 0);
        assert_eq!(t.header_bits(), 0);
    }
}
