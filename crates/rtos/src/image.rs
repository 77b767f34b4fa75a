//! OS image building and boot-time validation.
//!
//! "Compiling" a kernel model produces a flashable byte image whose size
//! is the OS's real-world binary size (paper §5.5.1) plus the
//! instrumentation overhead of the chosen [`InstrumentMode`]. The image
//! carries a self-describing header and a trailing checksum; the
//! bootloader (the agent's firmware loader) validates both, so flash
//! corruption genuinely produces boot failures that only a reflash cures.
//!
//! Layout (all multi-byte fields little-endian, fixed regardless of
//! target endianness — this is the flash format, not a bus format):
//!
//! ```text
//! 0..4   magic "EIMG"
//! 4      os byte
//! 5      profile byte (0 = full system, 1 = app-level build)
//! 6      mode byte (0 none, 1 full, 2 modules)
//! 7      module count (mode 2 only; else 0)
//! then   per module: len u8, name bytes
//! then   code_size u32
//! then   code bytes (deterministic filler)
//! last 8 FNV-1a checksum of everything before it
//! ```

use crate::kernel::OsKind;
use eof_coverage::{InstrumentCost, InstrumentMode};
use eof_hal::flash::fnv1a;
use eof_hal::HalError;

/// Image magic bytes.
pub const IMAGE_MAGIC: [u8; 4] = *b"EIMG";

/// Build profile: how much of the OS is linked in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ImageProfile {
    /// The full OS (Table 3 / Figure 7 campaigns).
    FullSystem,
    /// A trimmed application build (Table 4 / Figure 8: HTTP + JSON on a
    /// small STM32) — roughly a quarter of the full image.
    AppLevel,
}

impl ImageProfile {
    fn to_byte(self) -> u8 {
        match self {
            ImageProfile::FullSystem => 0,
            ImageProfile::AppLevel => 1,
        }
    }

    fn from_byte(b: u8) -> Option<Self> {
        match b {
            0 => Some(ImageProfile::FullSystem),
            1 => Some(ImageProfile::AppLevel),
            _ => None,
        }
    }
}

/// Uninstrumented full-system image size per OS, in bytes — the §5.5.1
/// baselines (NuttX 3.36 MB, RT-Thread 2.53 MB, Zephyr 0.803 MB,
/// FreeRTOS 2.825 MB; PoK is not reported, estimated).
pub const OS_BASE_IMAGE_BYTES: [(OsKind, u64); 5] = [
    (OsKind::FreeRtos, 2_825_000),
    (OsKind::RtThread, 2_530_000),
    (OsKind::NuttX, 3_360_000),
    (OsKind::Zephyr, 803_000),
    (OsKind::PokOs, 1_200_000),
];

/// Declared total instrumentable branch sites of each full OS build.
/// Chosen so site-count × per-site bytes reproduces the paper's §5.5.1
/// image-size overheads (4.32 % / 7.11 % / 4.76 % / 9.58 %).
pub const OS_TOTAL_BRANCH_SITES: [(OsKind, usize); 5] = [
    (OsKind::FreeRtos, 8_700),
    (OsKind::RtThread, 12_800),
    (OsKind::NuttX, 11_380),
    (OsKind::Zephyr, 5_450),
    (OsKind::PokOs, 6_000),
];

/// Base image size for an OS.
pub fn base_bytes(os: OsKind) -> u64 {
    OS_BASE_IMAGE_BYTES
        .iter()
        .find(|(k, _)| *k == os)
        .map(|(_, b)| *b)
        .expect("all OS kinds present")
}

/// Declared branch sites for an OS.
pub fn total_sites(os: OsKind) -> usize {
    OS_TOTAL_BRANCH_SITES
        .iter()
        .find(|(k, _)| *k == os)
        .map(|(_, s)| *s)
        .expect("all OS kinds present")
}

/// Instrumented sites under a mode. Module modes instrument the fraction
/// of the image the modules represent — modelled as an even split over a
/// nominal 20 modules per OS.
pub fn instrumented_sites(os: OsKind, profile: ImageProfile, mode: &InstrumentMode) -> usize {
    let total = match profile {
        ImageProfile::FullSystem => total_sites(os),
        ImageProfile::AppLevel => total_sites(os) / 4,
    };
    match mode {
        InstrumentMode::None => 0,
        InstrumentMode::Full => total,
        InstrumentMode::Modules(mods) => (total / 20) * mods.len().min(20),
    }
}

/// Parsed image metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImageInfo {
    /// OS in the image.
    pub os: OsKind,
    /// Build profile.
    pub profile: ImageProfile,
    /// Instrumentation the image was built with.
    pub mode: InstrumentMode,
    /// Code section size in bytes.
    pub code_size: u32,
    /// Total image size in bytes.
    pub total_size: usize,
}

/// Build a flashable image.
pub fn build_image(os: OsKind, profile: ImageProfile, mode: &InstrumentMode) -> Vec<u8> {
    let base = match profile {
        ImageProfile::FullSystem => base_bytes(os),
        ImageProfile::AppLevel => base_bytes(os) / 4,
    };
    let sites = instrumented_sites(os, profile, mode) as u64;
    let overhead = if sites > 0 {
        sites * InstrumentCost::IMAGE_BYTES_PER_SITE + InstrumentCost::RUNTIME_BYTES
    } else {
        0
    };
    let code_size = (base + overhead) as u32;

    let mut out = Vec::with_capacity(code_size as usize + 64);
    out.extend_from_slice(&IMAGE_MAGIC);
    out.push(os.to_byte());
    out.push(profile.to_byte());
    match mode {
        InstrumentMode::None => {
            out.push(0);
            out.push(0);
        }
        InstrumentMode::Full => {
            out.push(1);
            out.push(0);
        }
        InstrumentMode::Modules(mods) => {
            out.push(2);
            out.push(mods.len() as u8);
            for m in mods {
                out.push(m.len() as u8);
                out.extend_from_slice(m.as_bytes());
            }
        }
    }
    out.extend_from_slice(&code_size.to_le_bytes());
    // Deterministic code filler: a cheap xorshift keyed by the OS.
    let mut x = fnv1a(os.short().as_bytes()) | 1;
    let mut remaining = code_size as usize;
    while remaining >= 8 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        out.extend_from_slice(&x.to_le_bytes());
        remaining -= 8;
    }
    out.extend(std::iter::repeat_n(0xA5u8, remaining));
    let cs = fnv1a(&out);
    out.extend_from_slice(&cs.to_le_bytes());
    out
}

/// Build the plain (uninstrumented) variant of an image: the bytes a
/// hardware-trace campaign flashes. Coverage is the trace unit's job,
/// so nothing coverage-related is compiled in — the image is
/// byte-identical to [`build_image`] with [`InstrumentMode::None`],
/// and therefore to what a no-coverage baseline run would flash.
pub fn image_plain(os: OsKind, profile: ImageProfile) -> Vec<u8> {
    build_image(os, profile, &InstrumentMode::None)
}

/// Validate and parse an image (the bootloader's job). Any corruption —
/// bad magic, bad fields, bad checksum — is a boot failure.
pub fn parse_image(bytes: &[u8]) -> Result<ImageInfo, HalError> {
    parse_image_with(bytes, |len| Ok(fnv1a(&bytes[..len])))
}

/// [`parse_image`] with the checksum pass supplied by the caller:
/// `checksum(len)` must return the FNV-1a of `bytes[..len]`. The boot
/// loader passes the flash's memoized [`eof_hal::Flash::checksum`], so
/// an image is hashed once per flash generation rather than once per
/// boot.
pub fn parse_image_with(
    bytes: &[u8],
    checksum: impl FnOnce(usize) -> Result<u64, HalError>,
) -> Result<ImageInfo, HalError> {
    let fail = |msg: &str| HalError::BootFailure(msg.to_string());
    if bytes.len() < 16 {
        return Err(fail("image too small"));
    }
    if bytes[..4] != IMAGE_MAGIC {
        return Err(fail("bad image magic"));
    }
    let os = OsKind::from_byte(bytes[4]).ok_or_else(|| fail("unknown OS byte"))?;
    let profile = ImageProfile::from_byte(bytes[5]).ok_or_else(|| fail("unknown profile"))?;
    let mode_byte = bytes[6];
    let nmods = bytes[7] as usize;
    let mut off = 8;
    let mode = match mode_byte {
        0 => InstrumentMode::None,
        1 => InstrumentMode::Full,
        2 => {
            let mut mods = Vec::with_capacity(nmods);
            for _ in 0..nmods {
                let len = *bytes.get(off).ok_or_else(|| fail("truncated modules"))? as usize;
                off += 1;
                let name = bytes
                    .get(off..off + len)
                    .ok_or_else(|| fail("truncated module name"))?;
                mods.push(String::from_utf8_lossy(name).into_owned());
                off += len;
            }
            InstrumentMode::Modules(mods)
        }
        _ => return Err(fail("unknown instrumentation mode")),
    };
    let size_bytes = bytes
        .get(off..off + 4)
        .ok_or_else(|| fail("truncated size"))?;
    let code_size =
        u32::from_le_bytes([size_bytes[0], size_bytes[1], size_bytes[2], size_bytes[3]]);
    off += 4;
    let total = off + code_size as usize + 8;
    if bytes.len() < total {
        return Err(fail("truncated code section"));
    }
    let stored = &bytes[total - 8..total];
    let computed = checksum(total - 8)?;
    if stored != computed.to_le_bytes() {
        return Err(fail("image checksum mismatch"));
    }
    Ok(ImageInfo {
        os,
        profile,
        mode,
        code_size,
        total_size: total,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_parse_roundtrip_all_modes() {
        for os in OsKind::ALL {
            for mode in [
                InstrumentMode::None,
                InstrumentMode::Full,
                InstrumentMode::Modules(vec!["json".into(), "http".into()]),
            ] {
                let img = build_image(os, ImageProfile::FullSystem, &mode);
                let info = parse_image(&img).unwrap();
                assert_eq!(info.os, os);
                assert_eq!(info.mode, mode);
                assert_eq!(info.total_size, img.len());
            }
        }
    }

    #[test]
    fn instrumentation_inflates_image() {
        for os in OsKind::ALL {
            let plain = build_image(os, ImageProfile::FullSystem, &InstrumentMode::None);
            let inst = build_image(os, ImageProfile::FullSystem, &InstrumentMode::Full);
            assert!(inst.len() > plain.len(), "{os}");
            let pct = (inst.len() - plain.len()) as f64 / plain.len() as f64 * 100.0;
            assert!(
                pct > 2.0 && pct < 12.0,
                "{os}: {pct:.2}% out of paper range"
            );
        }
    }

    #[test]
    fn overhead_percentages_match_paper() {
        let pct = |os: OsKind| {
            let plain =
                build_image(os, ImageProfile::FullSystem, &InstrumentMode::None).len() as f64;
            let inst =
                build_image(os, ImageProfile::FullSystem, &InstrumentMode::Full).len() as f64;
            (inst - plain) / plain * 100.0
        };
        // Paper: NuttX 4.76 %, RT-Thread 7.11 %, Zephyr 9.58 %, FreeRTOS 4.32 %.
        assert!(
            (pct(OsKind::NuttX) - 4.76).abs() < 0.3,
            "{}",
            pct(OsKind::NuttX)
        );
        assert!(
            (pct(OsKind::RtThread) - 7.11).abs() < 0.3,
            "{}",
            pct(OsKind::RtThread)
        );
        assert!(
            (pct(OsKind::Zephyr) - 9.58).abs() < 0.4,
            "{}",
            pct(OsKind::Zephyr)
        );
        assert!(
            (pct(OsKind::FreeRtos) - 4.32).abs() < 0.3,
            "{}",
            pct(OsKind::FreeRtos)
        );
    }

    #[test]
    fn plain_image_is_byte_identical_to_uninstrumented_build() {
        for os in OsKind::ALL {
            for profile in [ImageProfile::FullSystem, ImageProfile::AppLevel] {
                assert_eq!(
                    image_plain(os, profile),
                    build_image(os, profile, &InstrumentMode::None),
                    "{os}"
                );
            }
        }
    }

    #[test]
    fn app_profile_is_smaller() {
        let full = build_image(
            OsKind::FreeRtos,
            ImageProfile::FullSystem,
            &InstrumentMode::None,
        );
        let app = build_image(
            OsKind::FreeRtos,
            ImageProfile::AppLevel,
            &InstrumentMode::None,
        );
        assert!(app.len() < full.len() / 3);
    }

    #[test]
    fn corruption_fails_boot() {
        let mut img = build_image(
            OsKind::Zephyr,
            ImageProfile::FullSystem,
            &InstrumentMode::None,
        );
        parse_image(&img).unwrap();
        // Flip one bit deep in the code section.
        let mid = img.len() / 2;
        img[mid] ^= 0x01;
        assert!(matches!(parse_image(&img), Err(HalError::BootFailure(_))));
    }

    #[test]
    fn bad_magic_and_truncation() {
        let img = build_image(
            OsKind::NuttX,
            ImageProfile::FullSystem,
            &InstrumentMode::None,
        );
        assert!(parse_image(&img[..10]).is_err());
        let mut bad = img.clone();
        bad[0] = b'X';
        assert!(parse_image(&bad).is_err());
        assert!(parse_image(&img[..img.len() - 1]).is_err());
    }

    #[test]
    fn module_names_roundtrip() {
        let mode = InstrumentMode::Modules(vec!["http".into(), "json".into()]);
        let img = build_image(OsKind::FreeRtos, ImageProfile::AppLevel, &mode);
        let info = parse_image(&img).unwrap();
        assert_eq!(info.mode, mode);
        assert_eq!(info.profile, ImageProfile::AppLevel);
    }
}
