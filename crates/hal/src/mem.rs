//! Simulated on-chip SRAM.
//!
//! Embedded targets address RAM from a base address (e.g. `0x2000_0000` on
//! Cortex-M); the debug probe and the firmware both see the same bytes. All
//! accesses are bounds-checked and return [`HalError::OutOfBoundsRam`]
//! rather than panicking, because out-of-range accesses are a *normal*
//! event during fuzzing (a corrupted test case can make the agent compute a
//! wild pointer) and must surface as a simulated bus fault, not a host
//! crash.

use crate::arch::Endianness;
use crate::error::HalError;

/// Dirty-tracking page granularity in bytes. Snapshot delta restores
/// copy whole pages, so the page size trades bitmap overhead against
/// restore amplification; 256 B matches small MPU region granularity.
pub const PAGE_SIZE: usize = 256;

/// Byte-addressable simulated SRAM with a fixed base address.
#[derive(Debug, Clone)]
pub struct Ram {
    base: u32,
    bytes: Vec<u8>,
    /// One bit per [`PAGE_SIZE`] page, set on every mutation since the
    /// last [`Ram::clear_dirty`]. Snapshot captures (and power-on
    /// resets) clear it; restores do not — writing a page back from the
    /// snapshot marks it dirty again — so between two captures the set
    /// only grows, and each delta restore ships every page written since
    /// the capture, not just since the previous restore.
    dirty: Vec<u64>,
}

impl Ram {
    /// Create zero-filled RAM of `size` bytes mapped at `base`.
    pub fn new(base: u32, size: usize) -> Self {
        Ram {
            base,
            bytes: vec![0; size],
            dirty: vec![0; size.div_ceil(PAGE_SIZE).div_ceil(64)],
        }
    }

    /// Base address of the RAM window.
    pub fn base(&self) -> u32 {
        self.base
    }

    /// Size of the RAM in bytes.
    pub fn size(&self) -> usize {
        self.bytes.len()
    }

    /// Translate an absolute address into an offset, bounds-checked for a
    /// `len`-byte access.
    fn offset(&self, addr: u32, len: usize) -> Result<usize, HalError> {
        let off = addr.wrapping_sub(self.base) as usize;
        if addr < self.base
            || off
                .checked_add(len)
                .is_none_or(|end| end > self.bytes.len())
        {
            return Err(HalError::OutOfBoundsRam {
                addr,
                len,
                ram_size: self.bytes.len(),
            });
        }
        Ok(off)
    }

    /// Read `buf.len()` bytes starting at `addr`.
    pub fn read(&self, addr: u32, buf: &mut [u8]) -> Result<(), HalError> {
        let off = self.offset(addr, buf.len())?;
        buf.copy_from_slice(&self.bytes[off..off + buf.len()]);
        Ok(())
    }

    /// Write `buf` starting at `addr`.
    pub fn write(&mut self, addr: u32, buf: &[u8]) -> Result<(), HalError> {
        let off = self.offset(addr, buf.len())?;
        self.bytes[off..off + buf.len()].copy_from_slice(buf);
        self.mark_dirty(off, buf.len());
        Ok(())
    }

    /// Read a single byte.
    pub fn read_u8(&self, addr: u32) -> Result<u8, HalError> {
        let off = self.offset(addr, 1)?;
        Ok(self.bytes[off])
    }

    /// Write a single byte.
    pub fn write_u8(&mut self, addr: u32, v: u8) -> Result<(), HalError> {
        let off = self.offset(addr, 1)?;
        self.bytes[off] = v;
        self.mark_dirty(off, 1);
        Ok(())
    }

    /// Read a 32-bit value with the given byte order.
    pub fn read_u32(&self, addr: u32, e: Endianness) -> Result<u32, HalError> {
        let mut b = [0u8; 4];
        self.read(addr, &mut b)?;
        Ok(e.u32_from(b))
    }

    /// Write a 32-bit value with the given byte order.
    pub fn write_u32(&mut self, addr: u32, v: u32, e: Endianness) -> Result<(), HalError> {
        self.write(addr, &e.u32_bytes(v))
    }

    /// Read a 64-bit value with the given byte order.
    pub fn read_u64(&self, addr: u32, e: Endianness) -> Result<u64, HalError> {
        let mut b = [0u8; 8];
        self.read(addr, &mut b)?;
        Ok(e.u64_from(b))
    }

    /// Write a 64-bit value with the given byte order.
    pub fn write_u64(&mut self, addr: u32, v: u64, e: Endianness) -> Result<(), HalError> {
        self.write(addr, &e.u64_bytes(v))
    }

    /// Fill the whole RAM with a byte value (power-on / reset pattern).
    pub fn fill(&mut self, v: u8) {
        self.bytes.fill(v);
        let len = self.bytes.len();
        self.mark_dirty(0, len);
    }

    /// Borrow a region as a slice (host-side convenience for bulk drains).
    pub fn slice(&self, addr: u32, len: usize) -> Result<&[u8], HalError> {
        let off = self.offset(addr, len)?;
        Ok(&self.bytes[off..off + len])
    }

    fn mark_dirty(&mut self, off: usize, len: usize) {
        if len == 0 {
            return;
        }
        let first = off / PAGE_SIZE;
        let last = (off + len - 1) / PAGE_SIZE;
        for page in first..=last {
            self.dirty[page / 64] |= 1 << (page % 64);
        }
    }

    /// Number of [`PAGE_SIZE`] pages covering this RAM.
    pub fn page_count(&self) -> usize {
        self.bytes.len().div_ceil(PAGE_SIZE)
    }

    /// Whether page `page` has been written since the last
    /// [`Ram::clear_dirty`].
    pub fn page_is_dirty(&self, page: usize) -> bool {
        self.dirty[page / 64] & (1 << (page % 64)) != 0
    }

    /// Indices of all pages written since the last [`Ram::clear_dirty`],
    /// in ascending order.
    pub fn dirty_pages(&self) -> Vec<usize> {
        (0..self.page_count())
            .filter(|&p| self.page_is_dirty(p))
            .collect()
    }

    /// Number of dirty pages.
    pub fn dirty_page_count(&self) -> usize {
        self.dirty.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Clear the dirty bitmap (done by snapshot capture and power-on
    /// reset; a restore leaves it set).
    pub fn clear_dirty(&mut self) {
        self.dirty.fill(0);
    }

    /// Absolute address of the first byte of page `page`.
    pub fn page_addr(&self, page: usize) -> u32 {
        self.base + (page * PAGE_SIZE) as u32
    }

    /// Length in bytes of page `page` (the last page may be short).
    pub fn page_len(&self, page: usize) -> usize {
        (self.bytes.len() - page * PAGE_SIZE).min(PAGE_SIZE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ram() -> Ram {
        Ram::new(0x2000_0000, 0x1000)
    }

    #[test]
    fn roundtrip_bytes() {
        let mut r = ram();
        r.write(0x2000_0010, &[1, 2, 3, 4]).unwrap();
        let mut b = [0u8; 4];
        r.read(0x2000_0010, &mut b).unwrap();
        assert_eq!(b, [1, 2, 3, 4]);
    }

    #[test]
    fn word_roundtrip_both_endiannesses() {
        let mut r = ram();
        for e in [Endianness::Little, Endianness::Big] {
            r.write_u32(0x2000_0000, 0xcafe_babe, e).unwrap();
            assert_eq!(r.read_u32(0x2000_0000, e).unwrap(), 0xcafe_babe);
            r.write_u64(0x2000_0008, 0x0123_4567_89ab_cdef, e).unwrap();
            assert_eq!(r.read_u64(0x2000_0008, e).unwrap(), 0x0123_4567_89ab_cdef);
        }
    }

    #[test]
    fn below_base_is_out_of_bounds() {
        let r = ram();
        let err = r.read_u8(0x1fff_ffff).unwrap_err();
        assert!(matches!(err, HalError::OutOfBoundsRam { .. }));
    }

    #[test]
    fn end_of_ram_boundary() {
        let mut r = ram();
        // Last valid byte.
        r.write_u8(0x2000_0fff, 7).unwrap();
        assert_eq!(r.read_u8(0x2000_0fff).unwrap(), 7);
        // One past the end.
        assert!(r.write_u8(0x2000_1000, 7).is_err());
        // A 4-byte access straddling the end.
        assert!(r.read_u32(0x2000_0ffd, Endianness::Little).is_err());
    }

    #[test]
    fn overflowing_access_is_rejected() {
        let r = ram();
        let mut buf = vec![0u8; 16];
        assert!(r.read(u32::MAX - 2, &mut buf).is_err());
    }

    #[test]
    fn fill_resets_contents() {
        let mut r = ram();
        r.write_u8(0x2000_0040, 0xaa).unwrap();
        r.fill(0);
        assert_eq!(r.read_u8(0x2000_0040).unwrap(), 0);
    }

    #[test]
    fn slice_view() {
        let mut r = ram();
        r.write(0x2000_0100, b"hello").unwrap();
        assert_eq!(r.slice(0x2000_0100, 5).unwrap(), b"hello");
        assert!(r.slice(0x2000_0100, 0x1000).is_err());
    }

    #[test]
    fn fresh_ram_has_no_dirty_pages() {
        let r = ram();
        assert_eq!(r.dirty_page_count(), 0);
        assert_eq!(r.page_count(), 0x1000 / PAGE_SIZE);
        assert!(r.dirty_pages().is_empty());
    }

    #[test]
    fn single_byte_write_dirties_one_page() {
        let mut r = ram();
        r.write_u8(0x2000_0000 + PAGE_SIZE as u32 * 3 + 7, 0xaa)
            .unwrap();
        assert_eq!(r.dirty_pages(), vec![3]);
    }

    #[test]
    fn write_straddling_a_page_boundary_dirties_both_pages() {
        let mut r = ram();
        // Last 2 bytes of page 1, first 2 bytes of page 2.
        let addr = 0x2000_0000 + (2 * PAGE_SIZE - 2) as u32;
        r.write(addr, &[1, 2, 3, 4]).unwrap();
        assert_eq!(r.dirty_pages(), vec![1, 2]);
    }

    #[test]
    fn word_writes_delegate_through_dirty_tracking() {
        let mut r = ram();
        r.write_u64(
            0x2000_0000 + (PAGE_SIZE - 4) as u32,
            0x0123_4567_89ab_cdef,
            Endianness::Little,
        )
        .unwrap();
        assert_eq!(r.dirty_pages(), vec![0, 1]);
    }

    #[test]
    fn fill_marks_every_page_dirty() {
        let mut r = ram();
        r.fill(0);
        assert_eq!(r.dirty_page_count(), r.page_count());
    }

    #[test]
    fn clear_dirty_is_idempotent_and_reads_stay_clean() {
        let mut r = ram();
        r.write(0x2000_0010, &[1, 2, 3, 4]).unwrap();
        r.clear_dirty();
        assert_eq!(r.dirty_page_count(), 0);
        r.clear_dirty();
        assert_eq!(r.dirty_page_count(), 0);
        // Reads never dirty.
        let mut b = [0u8; 4];
        r.read(0x2000_0010, &mut b).unwrap();
        let _ = r.slice(0x2000_0000, 64).unwrap();
        assert_eq!(r.dirty_page_count(), 0);
    }

    #[test]
    fn failed_write_does_not_dirty() {
        let mut r = ram();
        assert!(r.write(0x2000_0ffe, &[0; 8]).is_err());
        assert_eq!(r.dirty_page_count(), 0);
    }

    #[test]
    fn last_page_may_be_short() {
        let r = Ram::new(0x2000_0000, PAGE_SIZE + PAGE_SIZE / 2);
        assert_eq!(r.page_count(), 2);
        assert_eq!(r.page_len(0), PAGE_SIZE);
        assert_eq!(r.page_len(1), PAGE_SIZE / 2);
        assert_eq!(r.page_addr(1), 0x2000_0000 + PAGE_SIZE as u32);
    }
}
