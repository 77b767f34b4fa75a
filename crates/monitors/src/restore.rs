//! State restoration: reflash every partition and reboot.
//!
//! Algorithm 1's `StateRestoration()`: when a liveness watchdog trips,
//! EOF "resets the system by reflashing the image and rebooting it using
//! the debug interface" — a plain reboot is insufficient when the image
//! is damaged (§4.4.2). The restoration holds golden images for every
//! partition named by the build configuration and writes them all back,
//! then reboots and waits the settle delay (`sleep(5s)`, line 19).

use crate::kconfig::KConfig;
use eof_dap::{DapError, DebugTransport, Txn, TxnResult};
use eof_hal::clock::secs_to_cycles;
use eof_hal::flash::{fnv1a, sector_checksums_of, ERASED, SECTOR_SIZE};
use eof_hal::{PartitionTable, Snapshot};
use eof_telemetry as tel;
use std::sync::OnceLock;

/// Post-reflash settle delay (Algorithm 1 line 19): a freshly
/// programmed image gets its first boot time to initialise.
pub const SETTLE_SECS: u64 = 5;

/// Settle after a plain reboot of a *verified-intact* image — the same
/// image that booted before needs only the reset rung's settle, not the
/// first-boot allowance.
pub const REBOOT_SETTLE_SECS: u64 = 1;

/// Sectors per full-reflash block (256 KiB at the 4 KiB sector size).
/// The unconditional golden stream is programmed block-by-block — the
/// way real flash loaders work — so a link fault mid-stream forfeits
/// one block's wire time, not the whole multi-megabyte transfer.
const FULL_REFLASH_BLOCK_SECTORS: usize = 64;

/// A restoration plan: partition map plus golden images.
#[derive(Debug, Clone)]
pub struct StateRestoration {
    table: PartitionTable,
    images: Vec<(String, Vec<u8>)>,
    /// Golden checksum tables, built on the first verify or reflash:
    /// most campaigns never climb that far up the ladder.
    golden: OnceLock<Golden>,
    restorations: u64,
    reflashes: u64,
    vectored: bool,
    snapshot_mode: bool,
    /// Armed board snapshot: the parked state a delta restore returns to.
    snapshot: Option<Snapshot>,
    snapshot_captures: u64,
    snapshot_restores: u64,
    /// Flash generation counter the last time every partition was
    /// proven golden (verified intact or just rewritten). A matching
    /// counter at restore time proves the flash untouched since — the
    /// same suspicion rule the snapshot uses — so the verify pass can
    /// be skipped outright.
    golden_generation: Option<u64>,
}

/// Golden checksums of each partition *as flashed* (image padded with
/// erased bytes to the partition size), parallel to the images.
#[derive(Debug, Clone)]
struct Golden {
    /// Whole-partition checksum.
    sums: Vec<u64>,
    /// Per-sector checksums — the reference the sector-delta repair
    /// diffs target sectors against.
    sectors: Vec<Vec<u64>>,
}

impl StateRestoration {
    /// Build from the target's build configuration and the golden images
    /// to flash (`(partition name, image bytes)`). Starts vectored with
    /// the snapshot fast path on — the values the campaign knobs take
    /// when unset; campaigns thread theirs in with [`Self::set_vectored`]
    /// and [`Self::set_snapshot_mode`].
    pub fn from_kconfig(
        kconfig: &KConfig,
        flash_size: u32,
        images: Vec<(String, Vec<u8>)>,
    ) -> Result<Self, eof_hal::HalError> {
        let table = kconfig.partition_table(flash_size)?;
        for (name, image) in &images {
            let part = table.get(name)?;
            if image.len() > part.size as usize {
                return Err(eof_hal::HalError::BadPartitionLayout(format!(
                    "golden image for {name:?} ({} bytes) exceeds partition ({} bytes)",
                    image.len(),
                    part.size
                )));
            }
        }
        Ok(StateRestoration {
            table,
            images,
            golden: OnceLock::new(),
            restorations: 0,
            reflashes: 0,
            vectored: true,
            snapshot_mode: true,
            snapshot: None,
            snapshot_captures: 0,
            snapshot_restores: 0,
            golden_generation: None,
        })
    }

    /// Select the wire mode every restore burst (delta restore,
    /// verify/reflash, full reflash) is lowered for: vectored (batched)
    /// or scalar. Campaigns thread their `vectored` knob here.
    pub fn set_vectored(&mut self, vectored: bool) {
        self.vectored = vectored;
    }

    /// Enable or disable the snapshot/delta-restore fast path. Campaigns
    /// thread their `snapshot` knob here; disabling disarms any captured
    /// snapshot.
    pub fn set_snapshot_mode(&mut self, on: bool) {
        self.snapshot_mode = on;
        if !on {
            self.snapshot = None;
        }
    }

    /// Whether the snapshot fast path is enabled.
    pub fn snapshot_mode(&self) -> bool {
        self.snapshot_mode
    }

    /// Whether a snapshot is currently armed.
    pub fn snapshot_armed(&self) -> bool {
        self.snapshot.is_some()
    }

    /// Snapshots captured.
    pub fn snapshot_captures(&self) -> u64 {
        self.snapshot_captures
    }

    /// Delta restores performed from the armed snapshot.
    pub fn snapshot_restores(&self) -> u64 {
        self.snapshot_restores
    }

    /// Capture (re-arm) the board snapshot. The wire only carries the
    /// pages written since the previous capture or power-on — the charge
    /// is proportional to the dirty-page count. No-op when snapshot mode
    /// is off; returns whether a capture was performed.
    pub fn capture_snapshot(&mut self, pipe: &mut DebugTransport) -> Result<bool, DapError> {
        if !self.snapshot_mode {
            return Ok(false);
        }
        let snap = pipe.capture_snapshot()?;
        self.snapshot = Some(snap);
        self.snapshot_captures += 1;
        tel::count("restore.snapshot.captures", 1);
        Ok(true)
    }

    /// Whether the armed snapshot still belongs to the target's current
    /// boot epoch. Host-side bookkeeping only — the host performed every
    /// reset itself, so this costs no wire traffic; flash mutations are
    /// deliberately NOT checked here (that is the recovery-time
    /// generation probe's job, see [`Self::snapshot_ready`]).
    pub fn snapshot_current_epoch(&self, pipe: &DebugTransport) -> bool {
        self.snapshot
            .as_ref()
            .is_some_and(|s| s.boot_epoch() == pipe.machine().boot_epoch())
    }

    /// Recovery-time validity probe: snapshot mode on, a snapshot armed
    /// in the current boot epoch, and the flash generation counter read
    /// back over the wire matching the capture — the suspicion rule. A
    /// mutated flash (reflash, injected bit flip) or an unreachable
    /// flash port reports not-ready and the ladder escalates to the
    /// reflash rungs instead.
    pub fn snapshot_ready(&self, pipe: &mut DebugTransport) -> bool {
        if !self.snapshot_mode {
            return false;
        }
        let Some(snap) = &self.snapshot else {
            return false;
        };
        if snap.boot_epoch() != pipe.machine().boot_epoch() {
            return false;
        }
        pipe.flash_generation()
            .map(|g| g == snap.flash_generation())
            .unwrap_or(false)
    }

    /// Delta restore from the armed snapshot: ship every dirty page back
    /// and restart the core at the reset vector, without a reboot and
    /// without touching flash: one burst (scatter write + register
    /// restore) — all-or-nothing when vectored, page by page on the
    /// scalar wire. The caller is expected to have checked
    /// [`Self::snapshot_ready`].
    pub fn snapshot_restore(&mut self, pipe: &mut DebugTransport) -> Result<(), DapError> {
        let Some(snap) = &self.snapshot else {
            return Err(DapError::Protocol("no snapshot armed".into()));
        };
        let span = tel::span_start("restore.snapshot", pipe.now());
        let pages: Vec<(u32, Vec<u8>)> = pipe
            .machine()
            .dirty_pages()
            .into_iter()
            .map(|p| (snap.page_addr(p), snap.page(p).to_vec()))
            .collect();
        let shipped = pages.len() as u64;
        let mut txn = Txn::for_wire(self.vectored);
        txn.write_pages(pages).restore_core();
        pipe.run_txn(&txn)?;
        self.snapshot_restores += 1;
        tel::count("restore.snapshot.restores", 1);
        tel::observe("restore.snapshot.pages", shipped);
        tel::span_end(span, pipe.now());
        Ok(())
    }

    /// The partition map extracted from kconfig.
    pub fn partition_table(&self) -> &PartitionTable {
        &self.table
    }

    /// Number of restorations performed.
    pub fn restorations(&self) -> u64 {
        self.restorations
    }

    /// Number of partition reflashes actually performed (restorations
    /// whose verify pass found damage).
    pub fn reflashes(&self) -> u64 {
        self.reflashes
    }

    fn golden(&self) -> &Golden {
        self.golden.get_or_init(|| {
            let mut sums = Vec::with_capacity(self.images.len());
            let mut sectors = Vec::with_capacity(self.images.len());
            for (name, image) in &self.images {
                let part = self.table.get(name).expect("validated at construction");
                let mut padded = image.clone();
                padded.resize(part.size as usize, ERASED);
                sums.push(fnv1a(&padded));
                sectors.push(sector_checksums_of(&padded));
            }
            Golden { sums, sectors }
        })
    }

    /// Golden bytes of one sector of partition `i`, as flashed (the
    /// image padded with erased bytes to the partition size).
    fn golden_sector_bytes(&self, i: usize, sector: usize) -> Vec<u8> {
        let part = self
            .table
            .get(&self.images[i].0)
            .expect("validated at construction");
        let image = &self.images[i].1;
        let start = sector * SECTOR_SIZE;
        let end = (start + SECTOR_SIZE).min(part.size as usize);
        let mut bytes = vec![ERASED; end - start];
        if start < image.len() {
            let n = (image.len() - start).min(bytes.len());
            bytes[..n].copy_from_slice(&image[start..start + n]);
        }
        bytes
    }

    /// Diff target sector checksums of partition `i` against the golden
    /// set and return the `(sector index, golden bytes)` repair list.
    fn sector_delta(&self, i: usize, target: &[u64]) -> Vec<(u32, Vec<u8>)> {
        self.golden().sectors[i]
            .iter()
            .enumerate()
            .filter(|&(s, golden)| target.get(s) != Some(golden))
            .map(|(s, _)| (s as u32, self.golden_sector_bytes(i, s)))
            .collect()
    }

    /// Cheap preflight before any reflash traffic: one read of the
    /// flash controller's generation register proves the flash port
    /// answers at all. A browned-out or hard-locked board refuses
    /// programming only *after* the image bytes have been streamed at
    /// it, so opening a multi-hundred-kilobyte transfer against a port
    /// that cannot ack wastes the entire transfer's wire time — real
    /// flash tools probe the target (IDCODE/status read) before
    /// streaming for exactly this reason. Failing here lets the
    /// supervisor escalate to the rung that can actually revive the
    /// board (usually the power rail) at register-read cost instead of
    /// image-stream cost. Returns the generation read, which doubles as
    /// the proven-golden shortcut input for [`Self::restore`].
    fn preflight(pipe: &mut DebugTransport) -> Result<u64, DapError> {
        match pipe.flash_generation() {
            Ok(generation) => Ok(generation),
            Err(e) => {
                tel::count("restore.preflight_refused", 1);
                Err(e)
            }
        }
    }

    /// Restoration: verify each partition against its golden checksum
    /// (target-side CRC, like OpenOCD `verify_image`) and repair only
    /// the damaged ones — and within a damaged partition, only the
    /// sectors whose checksums disagree, the way probe-rs/OpenOCD
    /// flashers diff sectors before programming. A flipped bit thus
    /// costs one sector's stream, not a multi-megabyte image.
    ///
    /// Three bursts: every partition checksum; then every per-sector
    /// checksum of the damaged partitions; then the sector repairs plus
    /// the reboot. Only a checksum that *answered* and disagreed counts
    /// as damage; a refused checksum burst (flash port down, fault
    /// mid-episode) proves the board cannot take a reflash either, so
    /// the error propagates and the ladder escalates instead of
    /// streaming golden images at a port that will refuse them. The
    /// `full_reflash` rung above still covers a checksum engine that
    /// answers garbage.
    pub fn restore(&mut self, pipe: &mut DebugTransport) -> Result<(), DapError> {
        let generation = Self::preflight(pipe)?;
        let span = tel::span_start("restore.verify_reflash", pipe.now());
        let mut damaged = Vec::new();
        if Some(generation) == self.golden_generation {
            // The generation counter has not moved since every partition
            // was last proven golden — and every erase, program and
            // injected bit flip bumps it — so the flash is provably
            // untouched. Skip the checksum pass and go straight to the
            // reboot.
            tel::count("restore.generation_shortcut", 1);
            pipe.reset_target()?;
        } else {
            let mut verify = Txn::for_wire(self.vectored);
            for (name, _) in &self.images {
                verify.flash_checksum(name);
            }
            damaged = pipe
                .run_txn(&verify)?
                .iter()
                .zip(self.golden().sums.iter())
                .enumerate()
                .filter(|(_, (r, golden))| !matches!(r, TxnResult::Checksum(cs) if cs == *golden))
                .map(|(i, _)| i)
                .collect();
            tel::count(
                "restore.partitions_verified_intact",
                (self.images.len() - damaged.len()) as u64,
            );
            let mut repair = Txn::for_wire(self.vectored);
            if !damaged.is_empty() {
                // Localise the damage: per-sector checksums of every
                // damaged partition, one burst.
                let mut locate = Txn::for_wire(self.vectored);
                for &i in &damaged {
                    locate.flash_sector_checksums(
                        &self.images[i].0,
                        self.golden().sectors[i].len() as u32,
                    );
                }
                let located = pipe.run_txn(&locate)?;
                for (&i, res) in damaged.iter().zip(located.iter()) {
                    let delta = match res {
                        TxnResult::Checksums(target) => self.sector_delta(i, target),
                        _ => Vec::new(),
                    };
                    if delta.is_empty() {
                        // Partition checksum disagreed yet every sector
                        // matched: the checksum engine is lying. Distrust
                        // it and stream the whole image.
                        repair.flash_write(&self.images[i].0, &self.images[i].1);
                    } else {
                        tel::count("restore.sectors_reflashed", delta.len() as u64);
                        repair.flash_write_sectors(&self.images[i].0, delta);
                    }
                }
            }
            repair.reset_target();
            pipe.run_txn(&repair)?;
        }
        if damaged.is_empty() {
            // Nothing was programmed: reads and the reboot leave the
            // counter where the preflight saw it, so that read IS the
            // proven-golden proof for the next episode — and an image
            // that was intact all along needs only a plain reboot's
            // settle, not the first-boot allowance.
            self.golden_generation = Some(generation);
            pipe.sleep(secs_to_cycles(REBOOT_SETTLE_SECS));
        } else {
            self.reflashes += damaged.len() as u64;
            tel::count("restore.partitions_reflashed", damaged.len() as u64);
            // Repairs moved the counter; the post-repair value is the
            // new proof. (Programming is write-exact here; the
            // full_reflash rung above still covers a checksum engine
            // that answers garbage.) A refused read just drops the
            // shortcut until the next full verify.
            self.golden_generation = pipe.flash_generation().ok();
            pipe.sleep(secs_to_cycles(SETTLE_SECS));
        }
        self.restorations += 1;
        tel::count("restore.restorations", 1);
        tel::span_end(span, pipe.now());
        Ok(())
    }

    /// Unconditional golden reflash: write every sector of every
    /// partition back without trusting the target-side checksum, then
    /// reboot and settle. The supervisor escalates here when a verified
    /// restore did not stick — e.g. the checksum engine itself answers
    /// garbage.
    ///
    /// The stream is programmed in [`FULL_REFLASH_BLOCK_SECTORS`]
    /// blocks, each its own transaction, and the FIRST faulted block
    /// fails the whole rung. A monolithic multi-megabyte transfer spans
    /// hundreds of simulated seconds — at chaos fault density it almost
    /// always collides with the *next* scheduled link fault and
    /// forfeits the entire transfer's wire time. Retrying blocks is
    /// worse still: retries push a doomed stream onward through
    /// successive fault windows, paying the full image plus backoffs
    /// before the final park fails anyway. Failing on the first faulted
    /// block bounds a doomed attempt at one block's wire time and lets
    /// the ladder escalate while the fault is still the problem.
    pub fn restore_full(&mut self, pipe: &mut DebugTransport) -> Result<(), DapError> {
        Self::preflight(pipe)?;
        let span = tel::span_start("restore.full_reflash", pipe.now());
        for i in 0..self.images.len() {
            let name = self.images[i].0.clone();
            let n_sectors = self.golden().sectors[i].len();
            for block in (0..n_sectors).step_by(FULL_REFLASH_BLOCK_SECTORS) {
                let sectors: Vec<(u32, Vec<u8>)> = (block
                    ..(block + FULL_REFLASH_BLOCK_SECTORS).min(n_sectors))
                    .map(|s| (s as u32, self.golden_sector_bytes(i, s)))
                    .collect();
                let mut txn = Txn::for_wire(self.vectored);
                txn.flash_write_sectors(&name, sectors);
                pipe.run_txn(&txn)?;
            }
            self.reflashes += 1;
            tel::count("restore.partitions_reflashed", 1);
        }
        pipe.reset_target()?;
        // The whole image was just rewritten: the post-stream counter
        // is the proven-golden proof for the next episode.
        self.golden_generation = pipe.flash_generation().ok();
        pipe.sleep(secs_to_cycles(SETTLE_SECS));
        self.restorations += 1;
        tel::count("restore.restorations", 1);
        tel::span_end(span, pipe.now());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kconfig::{parse_kconfig, render_kconfig};
    use crate::watchdog::LivenessWatchdog;
    use eof_agent::{agent_loader, boot_machine};
    use eof_coverage::InstrumentMode;
    use eof_dap::LinkConfig;
    use eof_hal::{BoardCatalog, FaultPlan, InjectedFault, Machine};
    use eof_rtos::image::{build_image, ImageProfile};
    use eof_rtos::OsKind;

    fn setup() -> (StateRestoration, DebugTransport) {
        let board = BoardCatalog::qemu_virt_arm();
        let image = build_image(
            OsKind::Zephyr,
            ImageProfile::FullSystem,
            &InstrumentMode::None,
        );
        let kconfig_text = render_kconfig("arm", &board.default_partitions());
        let kconfig = parse_kconfig(&kconfig_text).unwrap();
        let restoration = StateRestoration::from_kconfig(
            &kconfig,
            board.flash_size,
            vec![("kernel".to_string(), image.clone())],
        )
        .unwrap();
        let mut m = Machine::new(board, agent_loader());
        m.reflash_partition("kernel", &image).unwrap();
        m.reset();
        (
            restoration,
            DebugTransport::attach(m, LinkConfig::default()),
        )
    }

    #[test]
    fn dead_core_refused_by_preflight_until_power_cycled() {
        let (mut resto, mut t) = setup();
        t.machine_mut()
            .set_fault_plan(FaultPlan::none().at(0, InjectedFault::KillCore));
        let _ = t.continue_until_halt(100);
        assert!(t.read_pc().is_err());
        // A hard-locked core cannot ack a flash stream: the preflight
        // refuses at register-read cost instead of paying the whole
        // image's wire time, and the ladder's power rung takes over.
        let before = t.now();
        assert!(resto.restore(&mut t).is_err());
        assert!(
            t.now() - before < secs_to_cycles(1),
            "refusal must cost a register read, not an image stream"
        );
        assert_eq!(resto.restorations(), 0);
        // The power rail releases the latch; restoration then proceeds.
        t.power_cycle(secs_to_cycles(1));
        resto.restore(&mut t).unwrap();
        assert_eq!(resto.restorations(), 1);
        assert!(t.read_pc().is_ok());
        let _ = t.continue_until_halt(200);
        let mut w = LivenessWatchdog::new();
        assert!(w.check(&mut t).is_alive());
    }

    #[test]
    fn corrupted_flash_gets_restored() {
        let (mut resto, mut t) = setup();
        // Corrupt the kernel image and reboot: boot failure.
        let part = t.machine().flash().table().get("kernel").unwrap().clone();
        t.machine_mut()
            .flash_mut()
            .flip_bit(part.offset + 100, 1)
            .unwrap();
        t.reset_target().unwrap();
        assert!(t.read_pc().is_err());
        resto.restore(&mut t).unwrap();
        assert!(t.read_pc().is_ok());
    }

    #[test]
    fn restoration_costs_time() {
        let (mut resto, mut t) = setup();
        let before = t.now();
        resto.restore(&mut t).unwrap();
        let elapsed = t.now() - before;
        assert!(
            elapsed >= secs_to_cycles(SETTLE_SECS),
            "restoration must include the settle delay; took {elapsed}"
        );
    }

    #[test]
    fn generation_shortcut_skips_verify_on_proven_golden_flash() {
        let (mut resto, mut t) = setup();
        // First restore pays the verify pass and records the counter.
        let before = t.now();
        resto.restore(&mut t).unwrap();
        let first = t.now() - before;
        // Second restore: counter unmoved, checksum pass skipped — the
        // whole restoration costs reboot time, strictly under half the
        // verified one.
        let before = t.now();
        resto.restore(&mut t).unwrap();
        let second = t.now() - before;
        assert!(
            second * 2 < first,
            "proven-golden restore must skip the verify pass ({second} vs {first})"
        );
        // A bit flip bumps the counter and voids the proof: the next
        // restore verifies, repairs, and re-proves.
        let part = t.machine().flash().table().get("kernel").unwrap().clone();
        t.machine_mut()
            .flash_mut()
            .flip_bit(part.offset + 64, 1)
            .unwrap();
        let before = t.now();
        resto.restore(&mut t).unwrap();
        let repaired = t.now() - before;
        assert!(
            repaired > second,
            "a voided proof must force the verify pass again"
        );
        assert_eq!(resto.reflashes(), 1);
        // And the repair re-proved the flash: shortcut active again.
        let before = t.now();
        resto.restore(&mut t).unwrap();
        let fourth = t.now() - before;
        assert!(fourth * 2 < first);
    }

    #[test]
    fn oversize_golden_image_rejected() {
        let board = BoardCatalog::stm32f4_disco();
        let kconfig = parse_kconfig(&render_kconfig("arm", &board.default_partitions())).unwrap();
        let too_big = vec![0u8; board.flash_size as usize];
        let err = StateRestoration::from_kconfig(
            &kconfig,
            board.flash_size,
            vec![("kernel".to_string(), too_big)],
        );
        assert!(err.is_err());
    }

    #[test]
    fn unknown_partition_rejected() {
        let board = BoardCatalog::stm32f4_disco();
        let kconfig = parse_kconfig(&render_kconfig("arm", &board.default_partitions())).unwrap();
        let err = StateRestoration::from_kconfig(
            &kconfig,
            board.flash_size,
            vec![("nvram".to_string(), vec![0u8; 16])],
        );
        assert!(err.is_err());
    }

    #[test]
    fn snapshot_capture_arms_and_restore_rewinds() {
        let (mut resto, mut t) = setup();
        let _ = t.continue_until_halt(200);
        assert!(resto.capture_snapshot(&mut t).unwrap());
        assert!(resto.snapshot_armed());
        assert!(resto.snapshot_ready(&mut t));

        // Scribble over RAM and freeze the core, then delta-restore.
        let base = t.machine().board().ram_base;
        t.write_mem(base + 0x400, &[0xaa; 512]).unwrap();
        resto.snapshot_restore(&mut t).unwrap();
        assert_eq!(resto.snapshot_restores(), 1);
        let mut buf = [0u8; 4];
        t.read_mem(base + 0x400, &mut buf).unwrap();
        assert_ne!(buf, [0xaa; 4], "dirty page must rewind to the snapshot");
        // The target runs again from the restored state.
        assert!(t.read_pc().is_ok());
        let _ = t.continue_until_halt(200);
        let mut w = LivenessWatchdog::new();
        assert!(w.check(&mut t).is_alive());
    }

    #[test]
    fn snapshot_not_ready_after_flash_mutation_or_reboot() {
        let (mut resto, mut t) = setup();
        let _ = t.continue_until_halt(200);
        resto.capture_snapshot(&mut t).unwrap();
        assert!(resto.snapshot_ready(&mut t));

        // A flash bit flip bumps the generation counter: the suspicion
        // rule refuses the delta fast path.
        let part = t.machine().flash().table().get("kernel").unwrap().clone();
        t.machine_mut()
            .flash_mut()
            .flip_bit(part.offset + 100, 1)
            .unwrap();
        assert!(!resto.snapshot_ready(&mut t));

        // Heal the flash and reboot: new boot epoch, still not ready
        // without a fresh capture — and the epoch check needs no wire.
        resto.restore(&mut t).unwrap();
        assert!(!resto.snapshot_current_epoch(&t));
        assert!(!resto.snapshot_ready(&mut t));
        resto.capture_snapshot(&mut t).unwrap();
        assert!(resto.snapshot_ready(&mut t));
        assert_eq!(resto.snapshot_captures(), 2);
    }

    #[test]
    fn snapshot_mode_off_never_arms() {
        let (mut resto, mut t) = setup();
        resto.set_snapshot_mode(false);
        assert!(!resto.capture_snapshot(&mut t).unwrap());
        assert!(!resto.snapshot_armed());
        assert!(!resto.snapshot_ready(&mut t));
    }

    #[test]
    fn scalar_snapshot_restore_matches_vectored() {
        let (mut resto, mut t) = setup();
        resto.set_vectored(false);
        let _ = t.continue_until_halt(200);
        resto.capture_snapshot(&mut t).unwrap();
        let base = t.machine().board().ram_base;
        t.write_mem(base + 0x800, &[0x55; 64]).unwrap();
        resto.snapshot_restore(&mut t).unwrap();
        let mut buf = [0u8; 4];
        t.read_mem(base + 0x800, &mut buf).unwrap();
        assert_ne!(buf, [0x55; 4]);
        assert!(t.read_pc().is_ok());
    }

    #[test]
    fn boot_machine_helper_matches_kconfig_layout() {
        // The kconfig render of a board's default partitions must agree
        // with the machine the agent boots on.
        let board = BoardCatalog::qemu_virt_arm();
        let m = boot_machine(
            board.clone(),
            OsKind::NuttX,
            ImageProfile::FullSystem,
            &InstrumentMode::None,
        );
        let kconfig = parse_kconfig(&render_kconfig("arm", m.flash().table())).unwrap();
        let table = kconfig.partition_table(board.flash_size).unwrap();
        assert_eq!(&table, m.flash().table());
    }
}
