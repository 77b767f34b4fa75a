//! Simulated NOR flash with a partition table.
//!
//! Embedded OS images are composed of several components (bootloader,
//! kernel, filesystem), each flashed at its own offset. EOF's state
//! restoration (paper §4.4.2, Algorithm 1 `StateRestoration`) extracts the
//! partition table from the build configuration and reflashes every
//! partition over the debug interface when the target enters an
//! unrecoverable state. This module models the flash array itself —
//! including NOR semantics (erase to `0xff`, writes can only clear bits)
//! and corruption, the failure mode that makes a plain reboot insufficient.

use crate::error::HalError;
use std::sync::Mutex;

/// Erased state of a NOR flash byte.
pub const ERASED: u8 = 0xff;

/// NOR sector size: the erase granularity the flash controller exposes.
/// Sector-delta reflash verifies and rewrites at this unit, so repairing
/// a flipped bit costs one sector's programming time, not a partition's.
pub const SECTOR_SIZE: usize = 4096;

/// One entry of a partition table: a named, contiguous flash region.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// Component name (e.g. `"bootloader"`, `"kernel"`, `"fs"`).
    pub name: String,
    /// Byte offset of the partition within flash.
    pub offset: u32,
    /// Size of the partition in bytes.
    pub size: u32,
}

impl Partition {
    /// Construct a partition entry.
    pub fn new(name: impl Into<String>, offset: u32, size: u32) -> Self {
        Partition {
            name: name.into(),
            offset,
            size,
        }
    }

    /// Exclusive end offset.
    pub fn end(&self) -> u32 {
        self.offset + self.size
    }
}

/// An ordered set of non-overlapping partitions.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PartitionTable {
    parts: Vec<Partition>,
}

impl PartitionTable {
    /// Build a table, validating that partitions are in-range for a flash of
    /// `flash_size` bytes and mutually non-overlapping.
    pub fn new(mut parts: Vec<Partition>, flash_size: u32) -> Result<Self, HalError> {
        parts.sort_by_key(|p| p.offset);
        for w in parts.windows(2) {
            if w[0].end() > w[1].offset {
                return Err(HalError::BadPartitionLayout(format!(
                    "partition {:?} overlaps {:?}",
                    w[0].name, w[1].name
                )));
            }
        }
        if let Some(last) = parts.last() {
            if last.end() > flash_size {
                return Err(HalError::BadPartitionLayout(format!(
                    "partition {:?} ends at {:#x}, past flash size {:#x}",
                    last.name,
                    last.end(),
                    flash_size
                )));
            }
        }
        for p in &parts {
            if p.size == 0 {
                return Err(HalError::BadPartitionLayout(format!(
                    "partition {:?} has zero size",
                    p.name
                )));
            }
        }
        Ok(PartitionTable { parts })
    }

    /// Look up a partition by name.
    pub fn get(&self, name: &str) -> Result<&Partition, HalError> {
        self.parts
            .iter()
            .find(|p| p.name == name)
            .ok_or_else(|| HalError::UnknownPartition(name.to_string()))
    }

    /// Iterate over partitions in offset order.
    pub fn iter(&self) -> impl Iterator<Item = &Partition> {
        self.parts.iter()
    }

    /// Number of partitions.
    pub fn len(&self) -> usize {
        self.parts.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.parts.is_empty()
    }
}

/// Simulated NOR flash array.
#[derive(Debug, Clone)]
pub struct Flash {
    bytes: Vec<u8>,
    table: PartitionTable,
    /// Count of program/erase operations, for wear statistics in reports.
    program_ops: u64,
    /// Bumped on every mutation (erase, program, bit flip). A snapshot
    /// records this counter at capture; a mismatch at restore time means
    /// flash changed underneath the snapshot and it cannot be trusted.
    generation: u64,
    /// Checksums already computed at the current generation.
    memo: ChecksumMemo,
}

/// Memo of [`Flash::checksum`] results, keyed on `(generation, offset,
/// len)`. Every mutation bumps the generation, so an entry can only be
/// answered for exactly the bytes it was computed over; a stale
/// generation empties the memo on the next query. Behind a mutex so
/// `checksum` stays `&self` and `Flash` stays `Sync`.
#[derive(Debug, Default)]
struct ChecksumMemo(Mutex<MemoEntries>);

#[derive(Debug, Clone, Default)]
struct MemoEntries {
    generation: u64,
    /// `(offset, len, checksum)` computed at `generation`.
    sums: Vec<(u32, usize, u64)>,
    /// Full hashing passes performed (memo misses).
    passes: u64,
}

/// Distinct ranges kept per generation. Boot validation asks for one
/// range; verify passes add one per partition.
const MEMO_RANGES: usize = 8;

impl Clone for ChecksumMemo {
    fn clone(&self) -> Self {
        ChecksumMemo(Mutex::new(self.entries().clone()))
    }
}

impl ChecksumMemo {
    fn entries(&self) -> std::sync::MutexGuard<'_, MemoEntries> {
        // The memo holds no invariant a panicking holder could break.
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }
}

impl Flash {
    /// Create an erased flash of `size` bytes with the given partition table.
    pub fn new(size: usize, table: PartitionTable) -> Self {
        Flash {
            bytes: vec![ERASED; size],
            table,
            program_ops: 0,
            generation: 0,
            memo: ChecksumMemo::default(),
        }
    }

    /// Flash size in bytes.
    pub fn size(&self) -> usize {
        self.bytes.len()
    }

    /// The partition table.
    pub fn table(&self) -> &PartitionTable {
        &self.table
    }

    /// Total program/erase operations performed since power-on.
    pub fn program_ops(&self) -> u64 {
        self.program_ops
    }

    /// Mutation generation counter: increments on every erase, program
    /// or injected bit flip. Never decreases.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    fn check(&self, offset: u32, len: usize) -> Result<usize, HalError> {
        let off = offset as usize;
        if off
            .checked_add(len)
            .is_none_or(|end| end > self.bytes.len())
        {
            return Err(HalError::OutOfBoundsFlash {
                offset,
                len,
                flash_size: self.bytes.len(),
            });
        }
        Ok(off)
    }

    /// Read `buf.len()` bytes at `offset`.
    pub fn read(&self, offset: u32, buf: &mut [u8]) -> Result<(), HalError> {
        let off = self.check(offset, buf.len())?;
        buf.copy_from_slice(&self.bytes[off..off + buf.len()]);
        Ok(())
    }

    /// Borrow a flash region as a slice.
    pub fn slice(&self, offset: u32, len: usize) -> Result<&[u8], HalError> {
        let off = self.check(offset, len)?;
        Ok(&self.bytes[off..off + len])
    }

    /// Erase a region back to `0xff` (required before programming).
    pub fn erase(&mut self, offset: u32, len: usize) -> Result<(), HalError> {
        let off = self.check(offset, len)?;
        self.bytes[off..off + len].fill(ERASED);
        self.program_ops += 1;
        self.generation += 1;
        Ok(())
    }

    /// Program a region. NOR semantics: every target byte must be erased.
    pub fn program(&mut self, offset: u32, data: &[u8]) -> Result<(), HalError> {
        let off = self.check(offset, data.len())?;
        if let Some(i) = self.bytes[off..off + data.len()]
            .iter()
            .position(|&b| b != ERASED)
        {
            return Err(HalError::FlashNotErased {
                offset: offset + i as u32,
            });
        }
        self.bytes[off..off + data.len()].copy_from_slice(data);
        self.program_ops += 1;
        self.generation += 1;
        Ok(())
    }

    /// Erase-then-program convenience used by the reflash path.
    pub fn reprogram(&mut self, offset: u32, data: &[u8]) -> Result<(), HalError> {
        self.erase(offset, data.len())?;
        self.program(offset, data)
    }

    /// Write a whole image into a named partition (truncating check).
    pub fn flash_partition(&mut self, name: &str, data: &[u8]) -> Result<(), HalError> {
        let part = self.table.get(name)?.clone();
        if data.len() > part.size as usize {
            return Err(HalError::BadPartitionLayout(format!(
                "image of {} bytes does not fit partition {:?} ({} bytes)",
                data.len(),
                part.name,
                part.size
            )));
        }
        self.erase(part.offset, part.size as usize)?;
        self.program(part.offset, data)
    }

    /// Read back the full contents of a named partition.
    pub fn read_partition(&self, name: &str) -> Result<Vec<u8>, HalError> {
        let part = self.table.get(name)?;
        Ok(self.bytes[part.offset as usize..part.end() as usize].to_vec())
    }

    /// Flip a single bit — the corruption primitive used by fault injection
    /// to model image damage that a reboot cannot fix.
    pub fn flip_bit(&mut self, offset: u32, bit: u8) -> Result<(), HalError> {
        let off = self.check(offset, 1)?;
        self.bytes[off] ^= 1 << (bit & 7);
        self.generation += 1;
        Ok(())
    }

    /// FNV-1a checksum of a region, used by boot-time image validation.
    /// Memoized per generation: the first query of a range after any
    /// mutation hashes the bytes, later queries of the same range at
    /// the same generation return that verdict without re-reading them.
    pub fn checksum(&self, offset: u32, len: usize) -> Result<u64, HalError> {
        let off = self.check(offset, len)?;
        let mut memo = self.memo.entries();
        if memo.generation != self.generation {
            memo.generation = self.generation;
            memo.sums.clear();
        }
        if let Some(&(_, _, sum)) = memo.sums.iter().find(|e| (e.0, e.1) == (offset, len)) {
            return Ok(sum);
        }
        let sum = fnv1a(&self.bytes[off..off + len]);
        if memo.sums.len() == MEMO_RANGES {
            memo.sums.remove(0);
        }
        memo.sums.push((offset, len, sum));
        memo.passes += 1;
        Ok(sum)
    }

    /// Hashing passes [`Flash::checksum`] has actually performed, i.e.
    /// queries the memo could not answer. Host-side statistic, like
    /// [`Flash::program_ops`].
    pub fn checksum_passes(&self) -> u64 {
        self.memo.entries().passes
    }

    /// Per-sector checksums of a region, chunked at [`SECTOR_SIZE`]. The
    /// verify loop of sector-delta reflash: same pass over the same bytes
    /// as [`Flash::checksum`], reported at erase granularity so the host
    /// can localise damage.
    pub fn sector_checksums(&self, offset: u32, len: usize) -> Result<Vec<u64>, HalError> {
        let off = self.check(offset, len)?;
        Ok(sector_checksums_of(&self.bytes[off..off + len]))
    }
}

/// Per-sector FNV-1a checksums of a byte image, chunked at
/// [`SECTOR_SIZE`] (trailing partial sector hashed as-is). Shared by the
/// target-side verify loop and the host's golden-image bookkeeping so
/// both ends agree on the chunking rule.
pub fn sector_checksums_of(data: &[u8]) -> Vec<u64> {
    data.chunks(SECTOR_SIZE).map(fnv1a).collect()
}

/// 64-bit FNV-1a hash, the integrity primitive shared by image headers.
pub fn fnv1a(data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> PartitionTable {
        PartitionTable::new(
            vec![
                Partition::new("bootloader", 0x0000, 0x1000),
                Partition::new("kernel", 0x1000, 0x8000),
                Partition::new("fs", 0x9000, 0x2000),
            ],
            0x10_0000,
        )
        .unwrap()
    }

    #[test]
    fn new_flash_is_erased() {
        let f = Flash::new(64, PartitionTable::default());
        assert!(f.slice(0, 64).unwrap().iter().all(|&b| b == ERASED));
    }

    #[test]
    fn overlapping_partitions_rejected() {
        let err = PartitionTable::new(
            vec![
                Partition::new("a", 0, 0x2000),
                Partition::new("b", 0x1000, 0x1000),
            ],
            0x10000,
        )
        .unwrap_err();
        assert!(matches!(err, HalError::BadPartitionLayout(_)));
    }

    #[test]
    fn partition_past_flash_end_rejected() {
        let err =
            PartitionTable::new(vec![Partition::new("a", 0xff00, 0x200)], 0x10000).unwrap_err();
        assert!(matches!(err, HalError::BadPartitionLayout(_)));
    }

    #[test]
    fn zero_size_partition_rejected() {
        let err = PartitionTable::new(vec![Partition::new("a", 0, 0)], 0x10000).unwrap_err();
        assert!(matches!(err, HalError::BadPartitionLayout(_)));
    }

    #[test]
    fn program_requires_erase() {
        let mut f = Flash::new(0x10_0000, table());
        f.program(0x1000, b"image").unwrap();
        // Second program to the same spot must fail (bits already cleared).
        let err = f.program(0x1000, b"image").unwrap_err();
        assert!(matches!(err, HalError::FlashNotErased { .. }));
        // After erase it works again.
        f.erase(0x1000, 5).unwrap();
        f.program(0x1000, b"image").unwrap();
    }

    #[test]
    fn flash_partition_roundtrip() {
        let mut f = Flash::new(0x10_0000, table());
        f.flash_partition("kernel", b"kernel-image").unwrap();
        let back = f.read_partition("kernel").unwrap();
        assert_eq!(&back[..12], b"kernel-image");
        assert!(back[12..].iter().all(|&b| b == ERASED));
    }

    #[test]
    fn oversized_image_rejected() {
        let mut f = Flash::new(0x10_0000, table());
        let img = vec![0u8; 0x2000];
        assert!(f.flash_partition("bootloader", &img).is_err());
    }

    #[test]
    fn unknown_partition() {
        let f = Flash::new(0x10_0000, table());
        assert!(matches!(
            f.read_partition("nvram").unwrap_err(),
            HalError::UnknownPartition(_)
        ));
    }

    #[test]
    fn bit_flip_changes_checksum() {
        let mut f = Flash::new(0x10_0000, table());
        f.flash_partition("kernel", b"kernel-image").unwrap();
        let before = f.checksum(0x1000, 0x8000).unwrap();
        f.flip_bit(0x1004, 3).unwrap();
        let after = f.checksum(0x1000, 0x8000).unwrap();
        assert_ne!(before, after);
        // Reflashing restores the checksum: the reboot-insufficient /
        // reflash-sufficient property Algorithm 1 relies on.
        f.flash_partition("kernel", b"kernel-image").unwrap();
        assert_eq!(f.checksum(0x1000, 0x8000).unwrap(), before);
    }

    #[test]
    fn generation_counter_tracks_every_mutation() {
        let mut f = Flash::new(0x10_0000, table());
        assert_eq!(f.generation(), 0);
        f.erase(0x1000, 0x100).unwrap();
        assert_eq!(f.generation(), 1);
        f.program(0x1000, b"image").unwrap();
        assert_eq!(f.generation(), 2);
        // The injected-fault corruption primitive also bumps it — this is
        // what invalidates a snapshot after a flash_bit_flip fault.
        f.flip_bit(0x1002, 4).unwrap();
        assert_eq!(f.generation(), 3);
        // Reads never bump it.
        let _ = f.checksum(0x1000, 0x100).unwrap();
        let _ = f.slice(0x1000, 8).unwrap();
        assert_eq!(f.generation(), 3);
    }

    #[test]
    fn checksum_hashes_once_per_generation_and_range() {
        let mut f = Flash::new(0x10_0000, table());
        f.flash_partition("kernel", b"kernel-image").unwrap();
        let cs = f.checksum(0x1000, 0x8000).unwrap();
        assert_eq!(f.checksum(0x1000, 0x8000).unwrap(), cs);
        assert_eq!(f.checksum_passes(), 1);
        // Another range is its own entry.
        f.checksum(0x1000, 12).unwrap();
        assert_eq!(f.checksum_passes(), 2);
        // A mutation and its exact undo restore the bytes but not the
        // generation: the verdict is recomputed, not served from memo.
        f.flip_bit(0x1004, 3).unwrap();
        f.flip_bit(0x1004, 3).unwrap();
        assert_eq!(f.checksum(0x1000, 0x8000).unwrap(), cs);
        assert_eq!(f.checksum_passes(), 3);
        // A clone carries the memo of the bytes it copied.
        let g = f.clone();
        assert_eq!(g.checksum(0x1000, 0x8000).unwrap(), cs);
        assert_eq!(g.checksum_passes(), 3);
    }

    #[test]
    fn fnv1a_known_vector() {
        // FNV-1a of empty input is the offset basis.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
    }

    #[test]
    fn reprogram_convenience() {
        let mut f = Flash::new(0x10_0000, table());
        f.reprogram(0x9000, b"fs-v1").unwrap();
        f.reprogram(0x9000, b"fs-v2").unwrap();
        assert_eq!(f.slice(0x9000, 5).unwrap(), b"fs-v2");
    }
}
