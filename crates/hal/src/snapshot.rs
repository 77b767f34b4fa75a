//! Board-state snapshots for delta restore.
//!
//! A [`Snapshot`] is a host-side copy of everything needed to put the
//! board back into a known-good parked state without a reboot: the full
//! RAM image, the core registers (PC), and the flash *generation
//! counter* at capture time. RAM carries a dirty-page bitmap
//! ([`crate::mem::Ram`]), cleared at capture, so a later restore only
//! has to ship the pages written since that capture — the TSFFS-style
//! "the fastest restore is the one that never reboots" fast path. A
//! restore does not clear the bitmap (writing the pages back re-marks
//! them), so the delta is cumulative over every restore to the same
//! capture.
//!
//! The generation counter is the suspicion rule: flash mutations
//! (reflash, injected bit flips) bump it, and a snapshot whose recorded
//! generation no longer matches the flash array was captured against an
//! image that has since changed underneath it. Such a snapshot must not
//! be restored — the recovery ladder escalates to the verify/reflash
//! rungs instead.

use crate::mem::PAGE_SIZE;

/// A captured board state: RAM image + core registers + the flash
/// generation the capture is only valid against.
#[derive(Debug, Clone)]
pub struct Snapshot {
    ram: Vec<u8>,
    ram_base: u32,
    pc: u32,
    flash_generation: u64,
    boot_epoch: u64,
    captured_at: u64,
    trace_enabled: bool,
}

impl Snapshot {
    /// Assemble a snapshot (called by `Machine::capture_snapshot`).
    pub(crate) fn new(
        ram: Vec<u8>,
        ram_base: u32,
        pc: u32,
        flash_generation: u64,
        boot_epoch: u64,
        captured_at: u64,
        trace_enabled: bool,
    ) -> Self {
        Snapshot {
            ram,
            ram_base,
            pc,
            flash_generation,
            boot_epoch,
            captured_at,
            trace_enabled,
        }
    }

    /// Base address of the captured RAM window.
    pub fn ram_base(&self) -> u32 {
        self.ram_base
    }

    /// Size of the captured RAM image in bytes.
    pub fn ram_len(&self) -> usize {
        self.ram.len()
    }

    /// Program counter at capture time (the parked sync point).
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// Flash generation counter this snapshot was captured against. A
    /// mismatch with the live counter means the snapshot is suspect.
    pub fn flash_generation(&self) -> u64 {
        self.flash_generation
    }

    /// Boot epoch (reset count domain) the snapshot belongs to. A reset
    /// re-baselines the dirty-page bitmap, so a snapshot from an earlier
    /// epoch can no longer tell which pages diverged.
    pub fn boot_epoch(&self) -> u64 {
        self.boot_epoch
    }

    /// The full captured RAM image.
    pub fn ram_image(&self) -> &[u8] {
        &self.ram
    }

    /// Total-cycle timestamp of the capture (diagnostics).
    pub fn captured_at(&self) -> u64 {
        self.captured_at
    }

    /// Whether the trace unit was armed at capture time. Restore
    /// re-applies the latch (and quiesces the stream — a restored state
    /// is a fresh run as far as the trace decoder is concerned).
    pub fn trace_enabled(&self) -> bool {
        self.trace_enabled
    }

    /// Number of [`PAGE_SIZE`] pages in the captured image.
    pub fn page_count(&self) -> usize {
        self.ram.len().div_ceil(PAGE_SIZE)
    }

    /// Absolute address of page `page`.
    pub fn page_addr(&self, page: usize) -> u32 {
        self.ram_base + (page * PAGE_SIZE) as u32
    }

    /// Captured contents of page `page` (the last page may be short).
    pub fn page(&self, page: usize) -> &[u8] {
        let start = page * PAGE_SIZE;
        let end = (start + PAGE_SIZE).min(self.ram.len());
        &self.ram[start..end]
    }
}
