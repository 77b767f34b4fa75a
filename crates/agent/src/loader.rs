//! The bootloader glue: flash image → agent firmware.
//!
//! This is the per-OS "adaptation" of the paper's §4.6 — the ~50 lines
//! that add system initialisation and boot-check logic to the agent. The
//! [`agent_loader`] closure is installed as the machine's firmware
//! loader: on every reset it reads the kernel partition in place,
//! validates the image (corruption ⇒ boot failure) and instantiates the
//! right kernel model with the instrumentation state the image was built
//! with. The checksum verdict is memoized per flash generation, so only
//! a flash that changed since the last boot is hashed again.

use crate::firmware::AgentFirmware;
use crate::layout::AgentLayout;
use eof_coverage::InstrumentMode;
use eof_hal::{BoardSpec, Endianness, FirmwareLoader, Machine};
use eof_rtos::ctx::CovState;
use eof_rtos::image::parse_image_with;
use eof_rtos::kernel::OsKind;
use eof_rtos::registry::make_kernel;
use eof_speclang::wire::{ApiBinding, ApiTable, WireOrder};

/// Map a board's endianness onto the wire byte order.
pub fn wire_order_of(board: &BoardSpec) -> WireOrder {
    match board.endianness {
        Endianness::Little => WireOrder::Little,
        Endianness::Big => WireOrder::Big,
    }
}

/// Host-side view of an OS's API table (name ⇄ id), for prog encoding.
pub fn api_table_of(os: OsKind) -> ApiTable {
    ApiTable::new(make_kernel(os).api_table().iter().map(|d| ApiBinding {
        id: d.id,
        name: d.name.to_string(),
    }))
}

/// A firmware loader that boots whatever OS image is in the kernel
/// partition.
pub fn agent_loader() -> FirmwareLoader {
    Box::new(|flash, board| {
        let part = flash.table().get("kernel")?;
        let image = flash.slice(part.offset, part.size as usize)?;
        let info = parse_image_with(image, |len| flash.checksum(part.offset, len))?;
        let layout = AgentLayout::for_board(board);
        let cov = match &info.mode {
            InstrumentMode::None => CovState::uninstrumented(),
            mode => CovState::instrumented(mode.clone(), layout.cov).with_cmp(layout.cmp),
        };
        let kernel = make_kernel(info.os);
        let order = match board.endianness {
            Endianness::Little => WireOrder::Little,
            Endianness::Big => WireOrder::Big,
        };
        Ok(Box::new(AgentFirmware::new(kernel, cov, layout, order)))
    })
}

/// Convenience: build a machine for `board`, flash an `os` image built
/// with `mode`/`profile`, and boot it.
pub fn boot_machine(
    board: BoardSpec,
    os: OsKind,
    profile: eof_rtos::image::ImageProfile,
    mode: &InstrumentMode,
) -> Machine {
    let mut m = Machine::new(board, agent_loader());
    let image = eof_rtos::image::build_image(os, profile, mode);
    m.reflash_partition("kernel", &image)
        .expect("image fits the kernel partition");
    m.reset();
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use eof_hal::{BoardCatalog, BootState, RunExit};
    use eof_rtos::image::ImageProfile;

    #[test]
    fn boots_every_os_on_its_default_board() {
        for os in OsKind::ALL {
            let board = eof_rtos::registry::default_board(os);
            let m = boot_machine(board, os, ImageProfile::FullSystem, &InstrumentMode::Full);
            assert_eq!(*m.state(), BootState::Running, "{os}");
            assert!(m.symbol("executor_main").is_some());
        }
    }

    #[test]
    fn corrupted_image_fails_boot_until_reflash() {
        let mut m = boot_machine(
            BoardCatalog::qemu_virt_arm(),
            OsKind::Zephyr,
            ImageProfile::FullSystem,
            &InstrumentMode::None,
        );
        // Corrupt the kernel partition mid-image.
        let part = m.flash().table().get("kernel").unwrap().clone();
        m.flash_mut().flip_bit(part.offset + 4096, 2).unwrap();
        m.reset();
        assert!(matches!(m.state(), BootState::Dead(_)));
        // Reflash heals it.
        let image = eof_rtos::image::build_image(
            OsKind::Zephyr,
            ImageProfile::FullSystem,
            &InstrumentMode::None,
        );
        m.reflash_partition("kernel", &image).unwrap();
        m.reset();
        assert_eq!(*m.state(), BootState::Running);
    }

    #[test]
    fn image_verdict_is_recomputed_after_any_flash_mutation() {
        let mut m = boot_machine(
            BoardCatalog::qemu_virt_arm(),
            OsKind::Zephyr,
            ImageProfile::FullSystem,
            &InstrumentMode::None,
        );
        // Warm memo: re-verifying the booted image hashes nothing.
        let warm = m.flash().checksum_passes();
        m.check_boot_image().unwrap();
        m.debug_restore_core().unwrap();
        assert_eq!(m.flash().checksum_passes(), warm);
        let snap = m.capture_snapshot().unwrap();

        let off = m.flash().table().get("kernel").unwrap().offset + 4096;
        m.flash_mut().flip_bit(off, 2).unwrap();
        assert!(m.check_boot_image().is_err());
        assert!(m.debug_restore_core().is_err());
        assert!(m.restore_snapshot(&snap).is_err());
        m.reset();
        assert!(matches!(m.state(), BootState::Dead(_)));

        // Undo the flip: the bytes equal the ones verified before, but
        // the generation moved twice, so booting takes a fresh pass.
        m.flash_mut().flip_bit(off, 2).unwrap();
        let passes = m.flash().checksum_passes();
        m.check_boot_image().unwrap();
        assert_eq!(m.flash().checksum_passes(), passes + 1);
        m.reset();
        assert_eq!(*m.state(), BootState::Running);
        assert_eq!(m.flash().checksum_passes(), passes + 1);
    }

    #[test]
    fn breakpoint_at_executor_main_fires_on_boot() {
        let mut m = boot_machine(
            BoardCatalog::esp32_devkit(),
            OsKind::FreeRtos,
            ImageProfile::FullSystem,
            &InstrumentMode::Full,
        );
        let addr = m.symbol("executor_main").unwrap();
        m.set_breakpoint(addr).unwrap();
        match m.run(10_000) {
            RunExit::Breakpoint { pc } => assert_eq!(pc, addr),
            other => panic!("expected executor_main breakpoint, got {other:?}"),
        }
    }

    #[test]
    fn api_table_is_consistent_with_kernel() {
        for os in OsKind::ALL {
            let table = api_table_of(os);
            let kernel = make_kernel(os);
            assert_eq!(table.len(), kernel.api_table().len());
            for d in kernel.api_table() {
                assert_eq!(table.id_of(d.name), Some(d.id), "{os}: {}", d.name);
            }
        }
    }

    #[test]
    fn wire_order_tracks_endianness() {
        assert!(matches!(
            wire_order_of(&BoardCatalog::esp32_devkit()),
            WireOrder::Little
        ));
        assert!(matches!(
            wire_order_of(&BoardCatalog::ppc_eval()),
            WireOrder::Big
        ));
    }
}
