//! Property tests of the hardware substrate.

use eof_hal::flash::{fnv1a, ERASED};
use eof_hal::{Endianness, Flash, Partition, PartitionTable, Ram};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn ram_write_read_roundtrip(
        offset in 0u32..0x0f00,
        data in proptest::collection::vec(any::<u8>(), 1..128)
    ) {
        let mut ram = Ram::new(0x2000_0000, 0x1000);
        let addr = 0x2000_0000 + offset.min(0x1000 - data.len() as u32);
        ram.write(addr, &data).unwrap();
        let mut back = vec![0u8; data.len()];
        ram.read(addr, &mut back).unwrap();
        prop_assert_eq!(back, data);
    }

    #[test]
    fn ram_out_of_bounds_never_panics(addr in any::<u32>(), len in 0usize..4096) {
        let ram = Ram::new(0x2000_0000, 0x1000);
        let mut buf = vec![0u8; len];
        let _ = ram.read(addr, &mut buf);
    }

    #[test]
    fn word_accessors_roundtrip_any_endianness(
        v32 in any::<u32>(),
        v64 in any::<u64>(),
        big in any::<bool>()
    ) {
        let e = if big { Endianness::Big } else { Endianness::Little };
        let mut ram = Ram::new(0, 64);
        ram.write_u32(0, v32, e).unwrap();
        ram.write_u64(8, v64, e).unwrap();
        prop_assert_eq!(ram.read_u32(0, e).unwrap(), v32);
        prop_assert_eq!(ram.read_u64(8, e).unwrap(), v64);
    }

    #[test]
    fn flash_partition_roundtrip(
        image in proptest::collection::vec(any::<u8>(), 1..512)
    ) {
        let table = PartitionTable::new(
            vec![Partition::new("kernel", 0x100, 0x400)],
            0x1000,
        ).unwrap();
        let mut flash = Flash::new(0x1000, table);
        flash.flash_partition("kernel", &image).unwrap();
        let back = flash.read_partition("kernel").unwrap();
        prop_assert_eq!(&back[..image.len()], &image[..]);
        prop_assert!(back[image.len()..].iter().all(|&b| b == ERASED));
        // Reflash is idempotent.
        let cs1 = flash.checksum(0x100, 0x400).unwrap();
        flash.flash_partition("kernel", &image).unwrap();
        prop_assert_eq!(flash.checksum(0x100, 0x400).unwrap(), cs1);
    }

    #[test]
    fn any_bit_flip_changes_partition_checksum(
        image in proptest::collection::vec(any::<u8>(), 16..256),
        flip_off in 0u32..256,
        bit in 0u8..8
    ) {
        let table = PartitionTable::new(
            vec![Partition::new("kernel", 0, 0x400)],
            0x1000,
        ).unwrap();
        let mut flash = Flash::new(0x1000, table);
        flash.flash_partition("kernel", &image).unwrap();
        let before = flash.checksum(0, 0x400).unwrap();
        flash.flip_bit(flip_off.min(image.len() as u32 - 1), bit).unwrap();
        prop_assert_ne!(flash.checksum(0, 0x400).unwrap(), before);
    }

    #[test]
    fn memoized_checksum_always_matches_the_bytes(
        ops in proptest::collection::vec(flash_op(), 1..48),
        clone_at in 0usize..48
    ) {
        let table = PartitionTable::new(
            vec![Partition::new("kernel", 0x100, 0x400)],
            0x1000,
        ).unwrap();
        let mut flash = Flash::new(0x1000, table);
        let mut twin = None;
        for (i, op) in ops.iter().enumerate() {
            if i == clone_at {
                twin = Some(flash.clone());
            }
            // Refused operations (NOR program over unerased bytes) are
            // part of the sequence too.
            let _ = match op {
                FlashOp::Erase(off, len) => flash.erase(*off, *len),
                FlashOp::Program(off, data) => flash.program(*off, data),
                FlashOp::Reprogram(off, data) => flash.reprogram(*off, data),
                FlashOp::FlipBit(off, bit) => flash.flip_bit(*off, *bit),
                FlashOp::FlashPartition(data) => flash.flash_partition("kernel", data),
                FlashOp::Checksum(off, len) => flash.checksum(*off, *len).map(|_| ()),
            };
            for f in std::iter::once(&flash).chain(twin.as_ref()) {
                for (off, len) in checked_ranges(op) {
                    prop_assert_eq!(
                        f.checksum(off, len).unwrap(),
                        fnv1a(f.slice(off, len).unwrap())
                    );
                }
            }
            if let Some(t) = twin.as_mut() {
                // The clone lives on and mutates independently.
                t.flip_bit(0x100 + (i as u32 * 37) % 0x400, (i % 8) as u8).unwrap();
            }
        }
    }

    #[test]
    fn overlapping_partitions_always_rejected(
        a_off in 0u32..100, a_size in 1u32..100,
        b_delta in 0u32..50, b_size in 1u32..100
    ) {
        // b starts inside a.
        let b_off = a_off + b_delta % a_size;
        let r = PartitionTable::new(
            vec![
                Partition::new("a", a_off, a_size),
                Partition::new("b", b_off, b_size),
            ],
            0x10000,
        );
        prop_assert!(r.is_err());
    }

    #[test]
    fn fnv1a_sensitivity(data in proptest::collection::vec(any::<u8>(), 1..64), i in 0usize..64) {
        let mut mutated = data.clone();
        let idx = i % data.len();
        mutated[idx] ^= 0x01;
        prop_assert_ne!(fnv1a(&data), fnv1a(&mutated));
    }
}

#[derive(Debug, Clone)]
enum FlashOp {
    Erase(u32, usize),
    Program(u32, Vec<u8>),
    Reprogram(u32, Vec<u8>),
    FlipBit(u32, u8),
    FlashPartition(Vec<u8>),
    Checksum(u32, usize),
}

/// A region of the 4 KiB test flash, drawn from a few overlapping
/// offsets and lengths so queries repeat often enough to hit the memo.
fn region() -> impl Strategy<Value = (u32, usize)> {
    const OFFSETS: [u32; 4] = [0, 0x100, 0x180, 0x400];
    const LENS: [usize; 4] = [1, 0x40, 0x100, 0x400];
    (0usize..4, 0usize..4).prop_map(|(o, l)| (OFFSETS[o], LENS[l]))
}

fn flash_op() -> impl Strategy<Value = FlashOp> {
    let data = || proptest::collection::vec(any::<u8>(), 1..0x80);
    prop_oneof![
        region().prop_map(|(o, l)| FlashOp::Erase(o, l)),
        (region(), data()).prop_map(|((o, _), d)| FlashOp::Program(o, d)),
        (region(), data()).prop_map(|((o, _), d)| FlashOp::Reprogram(o, d)),
        (0u32..0x1000, 0u8..8).prop_map(|(o, b)| FlashOp::FlipBit(o, b)),
        data().prop_map(FlashOp::FlashPartition),
        region().prop_map(|(o, l)| FlashOp::Checksum(o, l)),
    ]
}

/// Ranges to cross-check after `op`: a fixed set queried every step
/// (so warm entries must survive or be invalidated correctly), plus the
/// op's own region.
fn checked_ranges(op: &FlashOp) -> Vec<(u32, usize)> {
    let mut ranges = vec![(0x100, 0x400), (0, 0x1000), (0x180, 0x40)];
    match op {
        FlashOp::Erase(o, l) | FlashOp::Checksum(o, l) => ranges.push((*o, *l)),
        FlashOp::Program(o, d) | FlashOp::Reprogram(o, d) => ranges.push((*o, d.len())),
        FlashOp::FlipBit(..) | FlashOp::FlashPartition(_) => {}
    }
    ranges
}
