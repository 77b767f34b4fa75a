//! The (OS × board) support matrix and kernel construction.
//!
//! This is the data behind Table 1: which operating systems EOF (and the
//! baseline fuzzers) can drive on which architectures, and which boards
//! each pairing is validated on.

use crate::kernel::{Kernel, OsKind};
use crate::os::{FreeRtosKernel, NuttxKernel, PokKernel, RtThreadKernel, ZephyrKernel};
use eof_hal::{Arch, BoardCatalog, BoardSpec};

/// Construct a kernel model for an OS.
pub fn make_kernel(os: OsKind) -> Box<dyn Kernel> {
    match os {
        OsKind::FreeRtos => Box::new(FreeRtosKernel::new()),
        OsKind::RtThread => Box::new(RtThreadKernel::new()),
        OsKind::NuttX => Box::new(NuttxKernel::new()),
        OsKind::Zephyr => Box::new(ZephyrKernel::new()),
        OsKind::PokOs => Box::new(PokKernel::new()),
    }
}

/// Boards each OS is supported on (EOF's own support matrix).
pub fn supported_boards(os: OsKind) -> Vec<BoardSpec> {
    match os {
        OsKind::FreeRtos => vec![
            BoardCatalog::esp32_devkit(),
            BoardCatalog::esp32_c3(),
            BoardCatalog::stm32f4_disco(),
            BoardCatalog::stm32h745_nucleo(),
        ],
        OsKind::RtThread => vec![
            BoardCatalog::stm32f4_disco(),
            BoardCatalog::stm32h745_nucleo(),
            BoardCatalog::qemu_virt_arm(),
        ],
        OsKind::NuttX => vec![
            BoardCatalog::stm32f4_disco(),
            BoardCatalog::stm32h745_nucleo(),
            BoardCatalog::qemu_virt_arm(),
        ],
        OsKind::Zephyr => vec![
            BoardCatalog::stm32f4_disco(),
            BoardCatalog::stm32h745_nucleo(),
            BoardCatalog::qemu_virt_arm(),
        ],
        OsKind::PokOs => vec![BoardCatalog::stm32f4_disco(), BoardCatalog::qemu_virt_arm()],
    }
}

/// Whether EOF supports an (OS, architecture) pair — a Table-1 cell.
pub fn eof_supports(os: OsKind, arch: Arch) -> bool {
    supported_boards(os).iter().any(|b| b.arch == arch)
}

/// The default full-system fuzzing board for an OS. EOF fuzzes real
/// silicon; only emulation-based baselines run on the QEMU machine.
pub fn default_board(os: OsKind) -> BoardSpec {
    match os {
        OsKind::FreeRtos => BoardCatalog::esp32_devkit(),
        OsKind::PokOs => BoardCatalog::stm32f4_disco(),
        _ => BoardCatalog::stm32h745_nucleo(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_os_constructs() {
        for os in OsKind::ALL {
            let k = make_kernel(os);
            assert_eq!(k.os(), os);
            assert!(!k.api_table().is_empty());
        }
    }

    #[test]
    fn api_ids_are_dense_for_every_os() {
        for os in OsKind::ALL {
            let k = make_kernel(os);
            for (i, d) in k.api_table().iter().enumerate() {
                assert_eq!(d.id as usize, i, "{os}: {0}", d.name);
            }
        }
    }

    #[test]
    fn api_names_unique_per_os() {
        for os in OsKind::ALL {
            let k = make_kernel(os);
            let mut names: Vec<&str> = k.api_table().iter().map(|d| d.name).collect();
            names.sort();
            let before = names.len();
            names.dedup();
            assert_eq!(names.len(), before, "{os}");
        }
    }

    #[test]
    fn table1_cells() {
        // EOF supports FreeRTOS on ARM and RISC-V (and Xtensa boards).
        assert!(eof_supports(OsKind::FreeRtos, Arch::Arm));
        assert!(eof_supports(OsKind::FreeRtos, Arch::RiscV));
        // But not MIPS / PowerPC (Table 1's dashes).
        assert!(!eof_supports(OsKind::FreeRtos, Arch::Mips));
        assert!(!eof_supports(OsKind::FreeRtos, Arch::PowerPc));
        // The other OSs are ARM-only in the paper's matrix.
        for os in [OsKind::RtThread, OsKind::NuttX, OsKind::Zephyr] {
            assert!(eof_supports(os, Arch::Arm));
            assert!(!eof_supports(os, Arch::RiscV));
        }
    }

    #[test]
    fn default_boards_fit_images() {
        for os in OsKind::ALL {
            let board = default_board(os);
            let img = crate::image::build_image(
                os,
                crate::image::ImageProfile::FullSystem,
                &eof_coverage::InstrumentMode::Full,
            );
            let kernel_part = board.default_partitions();
            let part = kernel_part.get("kernel").unwrap();
            assert!(
                img.len() <= part.size as usize,
                "{os}: image {} > partition {}",
                img.len(),
                part.size
            );
        }
    }

    #[test]
    fn exception_symbols_differ_across_oses() {
        let mut syms: Vec<&str> = OsKind::ALL
            .into_iter()
            .map(|os| make_kernel(os).exception_symbol())
            .collect();
        syms.sort();
        syms.dedup();
        assert_eq!(syms.len(), 5);
    }
}
