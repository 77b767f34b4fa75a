//! The simulated machine: core state, boot, breakpoints, reset and the
//! debug surface the DAP drives.
//!
//! A [`Machine`] composes a [`BoardSpec`], a [`Bus`] (RAM + UART + clock),
//! flash, and a slot for loaded [`Firmware`]. The host never calls firmware
//! directly; it either lets the machine run ([`Machine::run`]) or pokes it
//! through the same primitives a JTAG/SWD probe has: halt, resume, read and
//! write memory, set breakpoints, reset, reflash.

use crate::board::BoardSpec;
use crate::bus::Bus;
use crate::error::HalError;
use crate::fault::{FaultKind, FaultPlan, FaultRecord, InjectedFault};
use crate::firmware::{Firmware, StepResult};
use crate::flash::Flash;
use crate::snapshot::Snapshot;
use crate::trace::TRACE_HEADER_BYTES;
use crate::watchdog::HardwareWatchdog;
use eof_telemetry as tel;

/// Lifecycle state of the simulated core.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BootState {
    /// Power is off; nothing loaded.
    Off,
    /// Boot failed (bad image); the core never started. Debug reads of the
    /// core state time out in this state.
    Dead(String),
    /// Core is executing firmware.
    Running,
    /// Core is halted (breakpoint hit or debugger halt request).
    Halted,
}

/// Why [`Machine::run`] returned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunExit {
    /// A hardware breakpoint at `pc` was hit.
    Breakpoint {
        /// Address of the breakpoint.
        pc: u32,
    },
    /// The cycle budget given to `run` was exhausted while still running.
    BudgetExhausted,
    /// The core died mid-run (injected `KillCore` or boot failure).
    CoreDead,
    /// The on-chip hardware watchdog fired and warm-reset the machine.
    WatchdogReset,
}

/// Constructor for firmware from flash contents. Supplied by the OS layer
/// (`eof-rtos`); the HAL itself is OS-agnostic.
pub type FirmwareLoader =
    Box<dyn Fn(&Flash, &BoardSpec) -> Result<Box<dyn Firmware>, HalError> + Send>;

/// A simulated development board with a debug port.
pub struct Machine {
    board: BoardSpec,
    bus: Bus,
    flash: Flash,
    firmware: Option<Box<dyn Firmware>>,
    loader: FirmwareLoader,
    state: BootState,
    pc: u32,
    breakpoints: Vec<u32>,
    fault_plan: FaultPlan,
    last_fault: Option<FaultRecord>,
    watchdog: HardwareWatchdog,
    reset_count: u64,
    /// Set by an injected `KillCore`; cleared only by reflash+reset or a
    /// full power-cycle (power-on reset releases the lockup latch).
    core_killed: bool,
    /// An injected `Brownout` keeps the core unresponsive until this
    /// cycle; 0 = no sag active.
    brownout_until: u64,
    /// Number of full power-cycles performed since construction.
    power_cycles: u64,
    /// Bumped on every reset/power-cycle. Resets re-baseline the RAM
    /// dirty bitmap, so a snapshot is only restorable within the boot
    /// epoch it was captured in.
    boot_epoch: u64,
    /// Most recent power-rail sample in milliwatts (external probe view).
    power_mw: f32,
}

impl Machine {
    /// Assemble a powered-off machine for `board`, using `loader` to
    /// construct firmware from flash at boot.
    pub fn new(board: BoardSpec, loader: FirmwareLoader) -> Self {
        let mut bus = Bus::new(board.ram_base, board.ram_size, board.endianness);
        bus.silicon = !board.is_emulated;
        let flash = Flash::new(board.flash_size as usize, board.default_partitions());
        Machine {
            board,
            bus,
            flash,
            firmware: None,
            loader,
            state: BootState::Off,
            pc: 0,
            breakpoints: Vec::new(),
            fault_plan: FaultPlan::none(),
            last_fault: None,
            watchdog: HardwareWatchdog::new(u64::MAX / 2),
            reset_count: 0,
            core_killed: false,
            brownout_until: 0,
            power_cycles: 0,
            boot_epoch: 0,
            power_mw: POWER_IDLE_MW,
        }
    }

    /// Board descriptor.
    pub fn board(&self) -> &BoardSpec {
        &self.board
    }

    /// Shared bus (RAM, UART, clock).
    pub fn bus(&self) -> &Bus {
        &self.bus
    }

    /// Mutable bus access (host-side test helpers; the DAP uses the
    /// dedicated memory methods below).
    pub fn bus_mut(&mut self) -> &mut Bus {
        &mut self.bus
    }

    /// Flash array.
    pub fn flash(&self) -> &Flash {
        &self.flash
    }

    /// Mutable flash access (programming over the debug port).
    pub fn flash_mut(&mut self) -> &mut Flash {
        &mut self.flash
    }

    /// Current lifecycle state.
    pub fn state(&self) -> &BootState {
        &self.state
    }

    /// Program counter most recently reported by the firmware.
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// Number of resets (cold + warm) since construction.
    pub fn reset_count(&self) -> u64 {
        self.reset_count
    }

    /// The most recent firmware fault, if any.
    pub fn last_fault(&self) -> Option<&FaultRecord> {
        self.last_fault.as_ref()
    }

    /// Install a fault-injection plan (testing / ablation harnesses).
    ///
    /// Plan entries are measured from the moment the plan is armed, not
    /// from power-on: booting alone charges six figures of bus cycles, so
    /// absolute schedules written by a test would already be in the past
    /// and fire (then get silently absorbed) inside executor setup.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault_plan = plan.rebase(self.bus.now());
    }

    /// On-chip hardware watchdog.
    pub fn watchdog_mut(&mut self) -> &mut HardwareWatchdog {
        &mut self.watchdog
    }

    /// Whether the core is dead (boot failure, killed, or browned out).
    pub fn is_dead(&self) -> bool {
        matches!(self.state, BootState::Dead(_)) || self.core_killed || self.browned_out()
    }

    /// Whether a supply brownout currently holds the core down.
    pub fn browned_out(&self) -> bool {
        self.bus.now() < self.brownout_until
    }

    /// Number of full power-cycles performed.
    pub fn power_cycles(&self) -> u64 {
        self.power_cycles
    }

    /// Whether the core is halted under debugger control.
    pub fn is_halted(&self) -> bool {
        self.state == BootState::Halted
    }

    // ----- boot & reset ---------------------------------------------------

    /// Power-on (or warm) reset: clear RAM and peripherals, re-run the
    /// loader against current flash contents. A corrupted image leaves the
    /// machine [`BootState::Dead`]. A killed core stays dead across plain
    /// resets — only a reflash of the kernel partition revives it,
    /// reproducing the "a simple reboot is insufficient" property (§3.2).
    pub fn reset(&mut self) {
        self.reset_count += 1;
        self.boot_epoch += 1;
        self.bus.power_cycle();
        self.bus.charge(cost::RESET);
        self.last_fault = None;
        if self.core_killed {
            self.state = BootState::Dead("core killed; reflash required".into());
            self.firmware = None;
            return;
        }
        match (self.loader)(&self.flash, &self.board) {
            Ok(mut fw) => {
                fw.on_reset(&mut self.bus);
                self.pc = fw.symbols().lookup("reset_vector").unwrap_or(0);
                self.firmware = Some(fw);
                self.state = BootState::Running;
            }
            Err(e) => {
                self.firmware = None;
                self.state = BootState::Dead(e.to_string());
            }
        }
    }

    /// Reflash a partition over the debug port and clear the killed flag
    /// for kernel reflashes (new image, fresh core state).
    pub fn reflash_partition(&mut self, name: &str, image: &[u8]) -> Result<(), HalError> {
        // Debug-port flashing is slow; charge proportional to image size.
        self.bus
            .charge_debug(cost::FLASH_BASE + (image.len() as u64 / 64) * cost::FLASH_PER_64B);
        // The flash controller shares the supply rail: a sagging supply
        // corrupts programming, so the operation is refused outright.
        if self.browned_out() {
            return Err(HalError::BadMachineState {
                op: "flash write",
                state: "brownout".into(),
            });
        }
        self.flash.flash_partition(name, image)?;
        if name == "kernel" {
            self.core_killed = false;
        }
        Ok(())
    }

    /// Full power-cycle: the supply is cut for `off_cycles`, then the
    /// machine cold-boots. Unlike [`Machine::reset`], this is a power-on
    /// reset — it releases a hard-lockup latch (`KillCore`) without a
    /// reflash, and its off-time can outlast a supply brownout. The
    /// power rail is independent of the debug link, so recovery tooling
    /// can pull the plug even when the probe sees nothing.
    pub fn power_cycle(&mut self, off_cycles: u64) {
        self.power_cycles += 1;
        tel::count("hal.power_cycles", 1);
        tel::event("hal.power_cycle", self.bus.now(), || {
            format!("off_cycles={off_cycles}")
        });
        self.bus.charge(off_cycles);
        self.core_killed = false;
        self.reset();
    }

    // ----- execution ------------------------------------------------------

    /// Apply injected core/peripheral faults that are due at the current
    /// cycle. Link faults stay in the plan for the transport to collect
    /// via [`Machine::take_due_link_faults`].
    fn apply_due_faults(&mut self) {
        for f in self.fault_plan.take_due_core(self.bus.now()) {
            tel::count(fault_counter_key(&f), 1);
            tel::event("hal.fault", self.bus.now(), || f.label().to_string());
            match f {
                InjectedFault::FlashBitFlip { offset, bit } => {
                    let _ = self.flash.flip_bit(offset, bit);
                }
                InjectedFault::FreezeFirmware => {
                    if let Some(fw) = self.firmware.as_mut() {
                        fw.freeze();
                    }
                }
                InjectedFault::KillCore => {
                    self.core_killed = true;
                    self.state = BootState::Dead("core killed by injected fault".into());
                    self.bus.uart.mute();
                }
                InjectedFault::Brownout { cycles } => {
                    self.brownout_until = self.bus.now().saturating_add(cycles);
                }
                InjectedFault::UartGarbage => {
                    let noise = uart_noise(self.bus.now());
                    self.bus.uart.tx(&noise);
                }
                // Link faults are consumed by the DAP layer, not the core.
                InjectedFault::DropLink { .. } | InjectedFault::FlakyLink { .. } => {}
            }
        }
    }

    /// Remove and hand over the link faults that are due now. Called by
    /// the transport on every operation so link outages fire even while
    /// the core is halted or dead (the probe's cable does not care what
    /// the core is doing).
    pub fn take_due_link_faults(&mut self) -> Vec<InjectedFault> {
        self.fault_plan.take_due_link(self.bus.now())
    }

    /// Injected faults not yet fired (chaos-harness accounting).
    pub fn pending_injected_faults(&self) -> usize {
        self.fault_plan.pending()
    }

    /// Execute a single firmware quantum. Returns the step result, or
    /// `None` if the machine is not in a runnable state.
    pub fn step(&mut self) -> Option<StepResult> {
        if self.state != BootState::Running {
            return None;
        }
        self.apply_due_faults();
        if self.state != BootState::Running {
            return None;
        }
        let fw = self.firmware.as_mut()?;
        let result = fw.step(&mut self.bus);
        self.bus.charge(result.cycles());
        self.pc = result.pc();
        // Power model: varied workloads draw varied current; a spin loop
        // draws a flat plateau; a fault handler spikes briefly.
        self.power_mw = match &result {
            StepResult::Running { .. } => {
                POWER_ACTIVE_MW + ((self.bus.now().wrapping_mul(7919) % 100) as f32) / 8.0
            }
            StepResult::Stalled { .. } => POWER_PLATEAU_MW,
            StepResult::Fault(_) => POWER_SPIKE_MW,
        };
        if let StepResult::Fault(rec) = &result {
            // A hard lockup takes the UART with it.
            if rec.kind == FaultKind::HardLockup {
                self.bus.uart.mute();
            }
            self.last_fault = Some(rec.clone());
        }
        if self.breakpoints.contains(&self.pc) {
            self.state = BootState::Halted;
        }
        Some(result)
    }

    /// Run until a breakpoint, death, watchdog reset, or `budget` cycles
    /// elapse (measured from entry).
    pub fn run(&mut self, budget: u64) -> RunExit {
        let start = self.bus.now();
        loop {
            if self.is_dead() {
                return RunExit::CoreDead;
            }
            if self.watchdog.expired(self.bus.now()) {
                self.reset();
                return RunExit::WatchdogReset;
            }
            if self.state == BootState::Halted {
                return RunExit::Breakpoint { pc: self.pc };
            }
            if self.bus.now().saturating_sub(start) >= budget {
                return RunExit::BudgetExhausted;
            }
            if self.step().is_none() {
                // Not runnable and not halted/dead: treat as dead air.
                return RunExit::CoreDead;
            }
            if self.state == BootState::Halted {
                return RunExit::Breakpoint { pc: self.pc };
            }
        }
    }

    // ----- debug surface (what a probe can do) -----------------------------

    /// Debugger halt request.
    pub fn debug_halt(&mut self) -> Result<(), HalError> {
        match self.state {
            BootState::Running | BootState::Halted => {
                self.state = BootState::Halted;
                Ok(())
            }
            _ => Err(self.bad_state("halt")),
        }
    }

    /// Debugger resume request.
    pub fn debug_resume(&mut self) -> Result<(), HalError> {
        match self.state {
            BootState::Halted | BootState::Running => {
                self.state = BootState::Running;
                Ok(())
            }
            _ => Err(self.bad_state("resume")),
        }
    }

    /// Read target RAM over the debug port.
    pub fn debug_read(&mut self, addr: u32, buf: &mut [u8]) -> Result<(), HalError> {
        if self.is_dead() {
            return Err(self.bad_state("read memory"));
        }
        self.bus
            .charge_debug(cost::MEM_BASE + (buf.len() as u64 / 4) * cost::MEM_PER_WORD);
        self.bus.ram.read(addr, buf)
    }

    /// Write target RAM over the debug port.
    pub fn debug_write(&mut self, addr: u32, buf: &[u8]) -> Result<(), HalError> {
        if self.is_dead() {
            return Err(self.bad_state("write memory"));
        }
        self.bus
            .charge_debug(cost::MEM_BASE + (buf.len() as u64 / 4) * cost::MEM_PER_WORD);
        self.bus.ram.write(addr, buf)
    }

    /// Bounds-check a debug memory access without performing it. The
    /// vectored transaction layer validates every queued operation before
    /// applying any, so a mid-batch bad address refuses the whole batch
    /// instead of half-applying it.
    pub fn debug_check_mem(&self, addr: u32, len: usize) -> Result<(), HalError> {
        self.bus.ram.slice(addr, len).map(|_| ())
    }

    /// Like [`Machine::debug_read`] but without the per-access base
    /// charge: a vectored transaction pays [`cost::MEM_BASE`] once for
    /// the whole batch (one access-port setup) and streams payload words
    /// back-to-back.
    pub fn debug_read_batched(&mut self, addr: u32, buf: &mut [u8]) -> Result<(), HalError> {
        if self.is_dead() {
            return Err(self.bad_state("read memory"));
        }
        self.bus
            .charge_debug((buf.len() as u64 / 4) * cost::MEM_PER_WORD);
        self.bus.ram.read(addr, buf)
    }

    /// Like [`Machine::debug_write`] but without the per-access base
    /// charge (see [`Machine::debug_read_batched`]).
    pub fn debug_write_batched(&mut self, addr: u32, buf: &[u8]) -> Result<(), HalError> {
        if self.is_dead() {
            return Err(self.bad_state("write memory"));
        }
        self.bus
            .charge_debug((buf.len() as u64 / 4) * cost::MEM_PER_WORD);
        self.bus.ram.write(addr, buf)
    }

    /// Whether the flash controller's debug path answers at all. A
    /// hard-locked core takes the whole access port down and a sagging
    /// supply silences the flash controller; everything else (including
    /// a boot-dead core) still answers flash commands.
    pub fn flash_port_available(&self) -> bool {
        !self.core_killed && !self.browned_out()
    }

    /// Read the PC over the debug port. Fails when the core is dead, which
    /// is how the liveness watchdog's connection timeout manifests.
    pub fn debug_pc(&mut self) -> Result<u32, HalError> {
        if self.is_dead() {
            return Err(self.bad_state("read pc"));
        }
        self.bus.charge_debug(cost::REG_READ);
        Ok(self.pc)
    }

    /// Install a hardware breakpoint. Bounded by the board's comparator
    /// count, like real debug units.
    pub fn set_breakpoint(&mut self, addr: u32) -> Result<(), HalError> {
        if self.breakpoints.contains(&addr) {
            return Ok(());
        }
        if self.breakpoints.len() >= self.board.max_breakpoints {
            return Err(HalError::BreakpointLimit {
                max: self.board.max_breakpoints,
            });
        }
        self.bus.charge_debug(cost::BP_OP);
        self.breakpoints.push(addr);
        Ok(())
    }

    /// Remove a hardware breakpoint (no-op if absent).
    pub fn clear_breakpoint(&mut self, addr: u32) {
        self.bus.charge_debug(cost::BP_OP);
        self.breakpoints.retain(|&a| a != addr);
    }

    /// Currently installed breakpoints.
    pub fn breakpoints(&self) -> &[u32] {
        &self.breakpoints
    }

    /// Look up a firmware symbol (probe-side ELF symbol table stand-in).
    pub fn symbol(&self, name: &str) -> Option<u32> {
        self.firmware
            .as_ref()
            .and_then(|f| f.symbols().lookup(name))
    }

    /// Symbolise an address against the loaded firmware.
    pub fn symbolize(&self, addr: u32) -> Option<(String, u32)> {
        self.firmware
            .as_ref()
            .and_then(|f| f.symbols().symbolize(addr))
            .map(|(n, off)| (n.to_string(), off))
    }

    /// Target-side checksum of a flash partition (OpenOCD's
    /// `flash verify_image` runs a CRC loop on the target; this is its
    /// stand-in). Works even when the core is dead — the flash
    /// controller answers independently.
    pub fn debug_flash_checksum(&mut self, partition: &str) -> Result<u64, HalError> {
        // A hard-locked core takes the debug access port down with it;
        // only the reset/flash lines still answer. A browned-out flash
        // controller does not answer either.
        if self.core_killed || self.browned_out() {
            return Err(self.bad_state("flash checksum"));
        }
        let part = self.flash.table().get(partition)?.clone();
        // The verify loop costs time proportional to the region size.
        self.bus
            .charge_debug(cost::VERIFY_BASE + (part.size as u64 / 1024) * cost::VERIFY_PER_KB);
        self.flash.checksum(part.offset, part.size as usize)
    }

    /// Per-sector target-side checksums of a flash partition: the same
    /// verify loop as [`Machine::debug_flash_checksum`] (and the same
    /// cost — the target walks the same bytes), reported at erase
    /// granularity so the host can localise damage and rewrite only the
    /// sectors that differ, the way probe-rs/OpenOCD flashers diff
    /// sectors before programming.
    pub fn debug_flash_sector_checksums(&mut self, partition: &str) -> Result<Vec<u64>, HalError> {
        if self.core_killed || self.browned_out() {
            return Err(self.bad_state("flash sector checksums"));
        }
        let part = self.flash.table().get(partition)?.clone();
        self.bus
            .charge_debug(cost::VERIFY_BASE + (part.size as u64 / 1024) * cost::VERIFY_PER_KB);
        self.flash.sector_checksums(part.offset, part.size as usize)
    }

    /// Rewrite a sparse set of sectors inside a partition — the
    /// sector-delta counterpart of [`Machine::reflash_partition`]. Each
    /// entry is `(sector index within the partition, bytes)`. One
    /// programming session is opened for the batch and only the shipped
    /// sectors pay per-byte streaming cost, so a bit flip repairs at
    /// sector cost instead of partition cost. Unlike a full kernel
    /// stream this does NOT release the hard-lockup latch: a latched
    /// core needs a power-on reset, not a spot repair.
    pub fn debug_reflash_sectors(
        &mut self,
        partition: &str,
        sectors: &[(u32, Vec<u8>)],
    ) -> Result<(), HalError> {
        let total: u64 = sectors.iter().map(|(_, d)| d.len() as u64).sum();
        self.bus
            .charge_debug(cost::FLASH_BASE + (total / 64) * cost::FLASH_PER_64B);
        // Same supply-rail rule as reflash_partition: the cost of the
        // stream is paid before the controller refuses it. Unlike the
        // full kernel stream, a sector write cannot release the
        // hard-lockup latch, so a killed core refuses too — programming
        // sectors into a controller that cannot come back is wasted
        // wire time.
        if !self.flash_port_available() {
            return Err(self.bad_state("flash sector write"));
        }
        let part = self.flash.table().get(partition)?.clone();
        for (idx, data) in sectors {
            let off = *idx as u64 * crate::flash::SECTOR_SIZE as u64;
            if data.len() > crate::flash::SECTOR_SIZE || off + data.len() as u64 > part.size as u64
            {
                return Err(HalError::BadPartitionLayout(format!(
                    "sector {idx} write ({} bytes) exceeds partition {partition:?} ({} bytes)",
                    data.len(),
                    part.size
                )));
            }
            self.flash.reprogram(part.offset + off as u32, data)?;
        }
        Ok(())
    }

    // ----- snapshot & delta restore ----------------------------------------

    /// Current boot epoch (bumped on every reset/power-cycle).
    pub fn boot_epoch(&self) -> u64 {
        self.boot_epoch
    }

    /// Number of RAM pages written since power-on or the last snapshot
    /// capture — what a capture has to read back and what a delta
    /// restore has to write. Reading the trace unit's bitmap is what
    /// the transport layer charges for; this accessor itself is free.
    pub fn dirty_page_count(&self) -> usize {
        self.bus.ram.dirty_page_count()
    }

    /// Indices of RAM pages written since the last capture (host-side
    /// bookkeeping; free, like [`Machine::dirty_page_count`]).
    pub fn dirty_pages(&self) -> Vec<usize> {
        self.bus.ram.dirty_pages()
    }

    /// Dry-run the firmware loader against current flash without touching
    /// machine state: does the image still parse? Vectored-transaction
    /// validation uses this to refuse a doomed `RestoreCore` before
    /// anything applies.
    pub fn check_boot_image(&self) -> Result<(), HalError> {
        (self.loader)(&self.flash, &self.board).map(|_| ())
    }

    /// Capture the board state: full RAM image (host-side; the wire only
    /// ever carried the dirty pages — everything else is the
    /// architectural power-on zero fill or a previously captured page),
    /// core registers, and the flash generation + boot epoch the capture
    /// is valid against. Clears the dirty bitmap, making this capture
    /// the new delta baseline.
    pub fn capture_snapshot(&mut self) -> Result<Snapshot, HalError> {
        if self.is_dead() {
            return Err(self.bad_state("capture snapshot"));
        }
        let ram = self
            .bus
            .ram
            .slice(self.bus.ram.base(), self.bus.ram.size())?
            .to_vec();
        let snap = Snapshot::new(
            ram,
            self.bus.ram.base(),
            self.pc,
            self.flash.generation(),
            self.boot_epoch,
            self.bus.now(),
            self.bus.trace.enabled(),
        );
        self.bus.ram.clear_dirty();
        Ok(snap)
    }

    /// Whether `snap` may be restored right now: the core must answer,
    /// flash must not have mutated since capture (the generation-counter
    /// suspicion rule — an injected bit flip or a reflash makes the
    /// snapshot's view of the image stale), and no reset may have
    /// re-baselined the dirty bitmap in between.
    pub fn snapshot_valid(&self, snap: &Snapshot) -> bool {
        !self.core_killed
            && !self.browned_out()
            && snap.flash_generation() == self.flash.generation()
            && snap.boot_epoch() == self.boot_epoch
    }

    /// Snapshot-restore entry point: rebuild the core from the (still
    /// trusted) flash image without clearing RAM and without paying the
    /// reset latency — the debug-port equivalent of writing the register
    /// file and jumping to the reset vector. Peripherals are quiesced
    /// exactly as a reset would leave them. Does *not* bump the boot
    /// epoch: RAM keeps its contents and the dirty bitmap its meaning.
    pub fn debug_restore_core(&mut self) -> Result<(), HalError> {
        if self.core_killed || self.browned_out() {
            return Err(self.bad_state("restore core"));
        }
        self.bus.uart.reset();
        self.bus.pending_irqs.clear();
        self.bus.mmio.reset();
        self.bus.trace.quiesce();
        self.last_fault = None;
        match (self.loader)(&self.flash, &self.board) {
            Ok(mut fw) => {
                fw.on_reset(&mut self.bus);
                self.pc = fw.symbols().lookup("reset_vector").unwrap_or(0);
                self.firmware = Some(fw);
                self.state = BootState::Running;
                Ok(())
            }
            Err(e) => {
                self.firmware = None;
                self.state = BootState::Dead(e.to_string());
                Err(HalError::BootFailure(e.to_string()))
            }
        }
    }

    /// Host/test-side delta restore: write every dirty page back from
    /// the snapshot, then restore the core. Returns the number of pages
    /// written. The campaign path goes through the debug transport
    /// instead, which ships the same pages as one vectored transaction
    /// and meters the wire; the state transitions are identical.
    pub fn restore_snapshot(&mut self, snap: &Snapshot) -> Result<usize, HalError> {
        if !self.snapshot_valid(snap) {
            return Err(self.bad_state("restore snapshot"));
        }
        let pages = self.bus.ram.dirty_pages();
        for &p in &pages {
            self.bus.ram.write(snap.page_addr(p), snap.page(p))?;
        }
        self.debug_restore_core()?;
        self.bus.trace.set_enabled(snap.trace_enabled());
        Ok(pages.len())
    }

    /// Read the flash controller's mutation generation counter over the
    /// debug port (a register read on the flash controller; answers
    /// whenever the flash port does).
    pub fn debug_flash_generation(&mut self) -> Result<u64, HalError> {
        if !self.flash_port_available() {
            return Err(self.bad_state("flash generation"));
        }
        self.bus.charge_debug(cost::REG_READ);
        Ok(self.flash.generation())
    }

    /// Arm or disarm the hardware trace unit over the debug port. Like
    /// breakpoints, the latch lives in the debug power domain and
    /// survives target resets; the stream state does not.
    pub fn debug_trace_set_enabled(&mut self, on: bool) -> Result<(), HalError> {
        if self.is_dead() {
            return Err(self.bad_state("trace enable"));
        }
        self.bus.charge_debug(cost::BP_OP);
        self.bus.trace.set_enabled(on);
        Ok(())
    }

    /// Destructive trace drain: header first, then exactly the live
    /// stream bytes — the dependent-read shape both wire modes share,
    /// so a scalar drain and a vectored `DrainTrace` return identical
    /// bytes. Charges per-word debug cycles without the access-port
    /// base charge; the caller accounts for its own wire framing.
    pub fn debug_drain_trace_batched(&mut self) -> Result<Vec<u8>, HalError> {
        if self.is_dead() {
            return Err(self.bad_state("drain trace"));
        }
        let header = self.bus.trace.header();
        let (stream, _lost) = self.bus.trace.drain();
        let mut buf = Vec::with_capacity(TRACE_HEADER_BYTES + stream.len());
        buf.extend_from_slice(&header);
        buf.extend_from_slice(&stream);
        self.bus
            .charge_debug((buf.len() as u64 / 4) * cost::MEM_PER_WORD);
        Ok(buf)
    }

    /// Power-rail sample as an external current probe sees it — works
    /// regardless of debug-link or core state (a dead core draws idle
    /// current). The paper's §6 names power signals as a complementary
    /// liveness channel; this is its substrate.
    pub fn power_sample(&self) -> f32 {
        if self.browned_out() {
            POWER_BROWNOUT_MW
        } else if self.is_dead() {
            POWER_IDLE_MW
        } else {
            self.power_mw
        }
    }

    /// Drain pending UART output (host side of the redirected log channel).
    pub fn drain_uart(&mut self) -> Vec<u8> {
        self.bus.uart.drain()
    }

    fn bad_state(&self, op: &'static str) -> HalError {
        HalError::BadMachineState {
            op,
            state: format!("{:?}", self.state),
        }
    }
}

/// Deterministic binary line noise for an injected `UartGarbage` burst:
/// mostly high-bit bytes (never printable crash-signature text) with a
/// terminating newline so the burst cannot glue itself onto a real
/// banner line forever.
/// Telemetry counter key for an applied core fault. A match (rather than
/// formatting `hal.fault.{label}`) because counters key on `&'static str`.
fn fault_counter_key(f: &InjectedFault) -> &'static str {
    match f {
        InjectedFault::FlashBitFlip { .. } => "hal.fault.flash_bit_flip",
        InjectedFault::FreezeFirmware => "hal.fault.freeze_firmware",
        InjectedFault::KillCore => "hal.fault.kill_core",
        InjectedFault::DropLink { .. } => "hal.fault.drop_link",
        InjectedFault::FlakyLink { .. } => "hal.fault.flaky_link",
        InjectedFault::Brownout { .. } => "hal.fault.brownout",
        InjectedFault::UartGarbage => "hal.fault.uart_garbage",
    }
}

fn uart_noise(seed: u64) -> Vec<u8> {
    let mut x = seed ^ 0x9e37_79b9_7f4a_7c15;
    let mut out = Vec::with_capacity(48);
    for _ in 0..47 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        out.push(0x80 | (x as u8 & 0x7f));
    }
    out.push(b'\n');
    out
}

/// Idle/dead draw in milliwatts.
pub const POWER_IDLE_MW: f32 = 1.2;
/// Draw while the supply rail sags in a brownout.
pub const POWER_BROWNOUT_MW: f32 = 0.3;
/// Base draw of a core doing varied work.
pub const POWER_ACTIVE_MW: f32 = 18.0;
/// Flat draw of a tight spin loop.
pub const POWER_PLATEAU_MW: f32 = 24.0;
/// Brief draw while taking an exception.
pub const POWER_SPIKE_MW: f32 = 45.0;

/// Cycle costs of machine-level operations.
pub mod cost {
    /// Warm/cold reset latency.
    pub const RESET: u64 = 2_000;
    /// Fixed cost of any debug memory transaction.
    pub const MEM_BASE: u64 = 4;
    /// Additional cost per 32-bit word transferred.
    pub const MEM_PER_WORD: u64 = 1;
    /// Cost of a register (PC) read.
    pub const REG_READ: u64 = 2;
    /// Cost of installing/removing a breakpoint.
    pub const BP_OP: u64 = 2;
    /// Base cost of a flash programming session.
    pub const FLASH_BASE: u64 = 3_000;
    /// Additional cost per 64 bytes programmed.
    pub const FLASH_PER_64B: u64 = 4;
    /// Base cost of a target-side verify (CRC) pass.
    pub const VERIFY_BASE: u64 = 200;
    /// Verify cost per KiB checked.
    pub const VERIFY_PER_KB: u64 = 1;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::board::BoardCatalog;
    use crate::firmware::testfw::CountingFirmware;

    fn counting_machine() -> Machine {
        let loader: FirmwareLoader = Box::new(|flash, _board| {
            // Image validity check: kernel partition must start with magic.
            let kernel = flash.read_partition("kernel")?;
            if &kernel[..4] != b"IMG!" {
                return Err(HalError::BootFailure("bad magic".into()));
            }
            Ok(Box::new(CountingFirmware::new(0x0800_0000)))
        });
        let mut m = Machine::new(BoardCatalog::stm32f4_disco(), loader);
        m.reflash_partition("kernel", b"IMG!payload").unwrap();
        m
    }

    #[test]
    fn boot_runs_firmware() {
        let mut m = counting_machine();
        m.reset();
        assert_eq!(*m.state(), BootState::Running);
        assert_eq!(m.run(100), RunExit::BudgetExhausted);
        // Firmware wrote its step count at RAM base.
        let base = m.bus().ram.base();
        let steps = m
            .bus()
            .ram
            .read_u32(base, crate::arch::Endianness::Little)
            .unwrap();
        assert!(steps > 0);
    }

    #[test]
    fn bad_image_is_boot_failure() {
        let loader: FirmwareLoader = Box::new(|_, _| Err(HalError::BootFailure("checksum".into())));
        let mut m = Machine::new(BoardCatalog::stm32f4_disco(), loader);
        m.reset();
        assert!(matches!(m.state(), BootState::Dead(_)));
        assert!(m.debug_pc().is_err());
        assert_eq!(m.run(100), RunExit::CoreDead);
    }

    #[test]
    fn breakpoint_halts_at_exact_pc() {
        let mut m = counting_machine();
        m.reset();
        // CountingFirmware visits base+4, base+8, ...
        m.set_breakpoint(0x0800_0000 + 3 * 4).unwrap();
        match m.run(1_000) {
            RunExit::Breakpoint { pc } => assert_eq!(pc, 0x0800_000c),
            other => panic!("expected breakpoint, got {other:?}"),
        }
        assert!(m.is_halted());
        // Resume continues past it.
        m.debug_resume().unwrap();
        assert_eq!(m.run(10), RunExit::BudgetExhausted);
        assert!(m.pc() > 0x0800_000c);
    }

    #[test]
    fn breakpoint_limit_enforced() {
        let mut m = counting_machine();
        m.reset();
        let max = m.board().max_breakpoints;
        for i in 0..max {
            m.set_breakpoint(0x1000 + i as u32).unwrap();
        }
        assert!(matches!(
            m.set_breakpoint(0xffff),
            Err(HalError::BreakpointLimit { .. })
        ));
        // Duplicates do not consume slots.
        m.set_breakpoint(0x1000).unwrap();
        m.clear_breakpoint(0x1000);
        m.set_breakpoint(0xffff).unwrap();
    }

    #[test]
    fn freeze_injection_stalls_pc() {
        let mut m = counting_machine();
        m.set_fault_plan(FaultPlan::none().at(0, InjectedFault::FreezeFirmware));
        m.reset();
        m.run(50);
        let pc1 = m.debug_pc().unwrap();
        m.run(50);
        let pc2 = m.debug_pc().unwrap();
        assert_eq!(pc1, pc2, "frozen firmware must not move the PC");
    }

    #[test]
    fn kill_core_requires_reflash_not_reboot() {
        let mut m = counting_machine();
        m.set_fault_plan(FaultPlan::none().at(10, InjectedFault::KillCore));
        m.reset();
        assert_eq!(m.run(1_000), RunExit::CoreDead);
        assert!(m.debug_pc().is_err());
        // A plain reboot does NOT revive it.
        m.reset();
        assert!(m.is_dead());
        // Reflash + reboot does.
        m.reflash_partition("kernel", b"IMG!payload-v2").unwrap();
        m.reset();
        assert_eq!(*m.state(), BootState::Running);
        assert!(m.debug_pc().is_ok());
    }

    #[test]
    fn brownout_suspends_core_until_window_passes() {
        let mut m = counting_machine();
        m.reset();
        // Long enough that a reset (2k cycles) cannot simply outwait it.
        m.set_fault_plan(FaultPlan::none().at(10, InjectedFault::Brownout { cycles: 20_000 }));
        assert_eq!(m.run(1_000), RunExit::CoreDead);
        assert!(m.is_dead());
        assert!(m.debug_pc().is_err());
        // Reset and reflash do not shorten the sag.
        m.reset();
        assert!(m.is_dead());
        assert!(m.reflash_partition("kernel", b"IMG!payload").is_err());
        // Waiting it out does.
        m.bus_mut().charge(25_000);
        assert!(!m.is_dead());
        assert!(m.debug_pc().is_ok());
        assert_eq!(m.run(100), RunExit::BudgetExhausted);
    }

    #[test]
    fn power_cycle_releases_kill_latch_without_reflash() {
        let mut m = counting_machine();
        m.set_fault_plan(FaultPlan::none().at(10, InjectedFault::KillCore));
        m.reset();
        assert_eq!(m.run(1_000), RunExit::CoreDead);
        // A plain reboot does NOT revive it…
        m.reset();
        assert!(m.is_dead());
        // …but a power-on reset does, with the image untouched.
        m.power_cycle(100);
        assert_eq!(*m.state(), BootState::Running);
        assert!(m.debug_pc().is_ok());
        assert_eq!(m.power_cycles(), 1);
    }

    #[test]
    fn uart_garbage_is_binary_noise_not_a_banner() {
        let mut m = counting_machine();
        m.reset();
        m.set_fault_plan(FaultPlan::none().at(5, InjectedFault::UartGarbage));
        m.run(100);
        let noise = m.drain_uart();
        assert!(!noise.is_empty());
        assert_eq!(*noise.last().unwrap(), b'\n');
        // Nothing but high-bit bytes before the newline: can never spell
        // a crash signature.
        assert!(noise[..noise.len() - 1].iter().all(|&b| b >= 0x80));
    }

    #[test]
    fn firmware_fault_is_recorded_and_symbolized() {
        let loader: FirmwareLoader = Box::new(|_, _| {
            let mut fw = CountingFirmware::new(0x0800_0000);
            fw.fault_at_step = Some(2);
            Ok(Box::new(fw))
        });
        let mut m = Machine::new(BoardCatalog::stm32f4_disco(), loader);
        m.reset();
        m.run(100);
        let fault = m.last_fault().expect("fault recorded");
        assert_eq!(fault.kind, FaultKind::Panic);
        assert_eq!(fault.pc, 0x0fff_0000);
        assert_eq!(m.symbolize(0x0fff_0000).unwrap().0, "handle_exception");
    }

    #[test]
    fn breakpoint_on_exception_handler_halts() {
        let loader: FirmwareLoader = Box::new(|_, _| {
            let mut fw = CountingFirmware::new(0x0800_0000);
            fw.fault_at_step = Some(1);
            Ok(Box::new(fw))
        });
        let mut m = Machine::new(BoardCatalog::stm32f4_disco(), loader);
        m.reset();
        m.set_breakpoint(0x0fff_0000).unwrap();
        match m.run(1_000) {
            RunExit::Breakpoint { pc } => assert_eq!(pc, 0x0fff_0000),
            other => panic!("expected halt at exception handler, got {other:?}"),
        }
    }

    #[test]
    fn watchdog_fires_and_resets() {
        let mut m = counting_machine();
        m.reset();
        let now = m.bus().now();
        *m.watchdog_mut() = HardwareWatchdog::new(20);
        m.watchdog_mut().arm(now);
        assert_eq!(m.run(10_000), RunExit::WatchdogReset);
        assert!(m.reset_count() >= 2);
    }

    #[test]
    fn debug_ops_charge_cycles() {
        let mut m = counting_machine();
        m.reset();
        let before = m.bus().now();
        let mut buf = [0u8; 64];
        m.debug_read(m.board().ram_base, &mut buf).unwrap();
        assert!(m.bus().now() > before);
    }

    #[test]
    fn uart_drains_through_machine() {
        let mut m = counting_machine();
        m.reset();
        m.bus_mut().uart.tx_line("hello from fw");
        assert_eq!(m.drain_uart(), b"hello from fw\n");
    }

    #[test]
    fn snapshot_roundtrip_restores_ram_and_restarts_core() {
        let mut m = counting_machine();
        m.reset();
        m.run(100);
        let base = m.bus().ram.base();
        let snap = m.capture_snapshot().unwrap();
        let at_capture = m
            .bus()
            .ram
            .read_u32(base, crate::arch::Endianness::Little)
            .unwrap();
        // Keep running: RAM diverges from the snapshot.
        m.run(100);
        assert_ne!(
            m.bus()
                .ram
                .read_u32(base, crate::arch::Endianness::Little)
                .unwrap(),
            at_capture
        );
        let pages = m.restore_snapshot(&snap).unwrap();
        assert!(pages > 0);
        assert_eq!(*m.state(), BootState::Running);
        // The counting firmware's on_reset zeroes its step counter, so
        // the restored board behaves like a fresh boot over trusted RAM.
        assert_eq!(m.run(100), RunExit::BudgetExhausted);
    }

    #[test]
    fn capture_restore_capture_is_idempotent() {
        let mut m = counting_machine();
        m.reset();
        m.run(60);
        let s1 = m.capture_snapshot().unwrap();
        m.run(60);
        m.restore_snapshot(&s1).unwrap();
        // Re-running the deterministic firmware from the restored state
        // and re-capturing after the same number of cycles reproduces the
        // same RAM image bit for bit.
        m.run(60);
        let s2 = m.capture_snapshot().unwrap();
        assert_eq!(s1.ram_image(), s2.ram_image());
        assert_eq!(s1.flash_generation(), s2.flash_generation());
    }

    #[test]
    fn restore_only_touches_dirty_pages() {
        let mut m = counting_machine();
        m.reset();
        m.run(50);
        let snap = m.capture_snapshot().unwrap();
        assert_eq!(m.dirty_page_count(), 0);
        // One step dirties only the firmware's counter page.
        m.run(4);
        let dirty = m.dirty_page_count();
        assert!(dirty >= 1);
        let written = m.restore_snapshot(&snap).unwrap();
        assert_eq!(written, dirty);
        assert!(written < m.bus().ram.page_count());
    }

    #[test]
    fn seeded_flash_bit_flip_invalidates_snapshot() {
        let mut m = counting_machine();
        m.reset();
        m.run(20);
        let snap = m.capture_snapshot().unwrap();
        assert!(m.snapshot_valid(&snap));
        // A scheduled FlashBitFlip fault fires mid-run and bumps the
        // generation counter: the snapshot becomes suspect.
        m.set_fault_plan(
            FaultPlan::none().at(5, InjectedFault::FlashBitFlip { offset: 8, bit: 1 }),
        );
        m.run(50);
        assert!(!m.snapshot_valid(&snap));
        assert!(m.restore_snapshot(&snap).is_err());
    }

    #[test]
    fn reset_rebases_the_epoch_and_invalidates_snapshot() {
        let mut m = counting_machine();
        m.reset();
        m.run(20);
        let snap = m.capture_snapshot().unwrap();
        m.reset();
        assert!(!m.snapshot_valid(&snap));
        // A fresh capture in the new epoch works again.
        m.run(20);
        let snap2 = m.capture_snapshot().unwrap();
        assert!(m.snapshot_valid(&snap2));
    }

    #[test]
    fn dead_core_refuses_capture_and_restore() {
        let mut m = counting_machine();
        m.reset();
        m.run(20);
        let snap = m.capture_snapshot().unwrap();
        m.set_fault_plan(FaultPlan::none().at(1, InjectedFault::KillCore));
        m.run(50);
        assert!(!m.snapshot_valid(&snap));
        assert!(m.restore_snapshot(&snap).is_err());
        assert!(m.capture_snapshot().is_err());
    }

    /// IRQ delivery across snapshot restore: requests pending at restore
    /// time are quiesced (a restore leaves peripherals exactly as a reset
    /// would), and lines raised *after* the restore deliver normally with
    /// their payloads intact.
    #[test]
    fn snapshot_restore_quiesces_pending_irqs_then_delivers_fresh_ones() {
        let mut m = counting_machine();
        m.reset();
        m.run(50);
        let snap = m.capture_snapshot().unwrap();
        m.bus_mut().pending_irqs.push_back(crate::bus::IrqRequest {
            line: crate::bus::irq::SERIAL_RX,
            payload: b"stale".to_vec(),
        });
        m.bus_mut().mmio.load_stream(&[0x7f]);
        m.restore_snapshot(&snap).unwrap();
        assert!(
            m.bus().pending_irqs.is_empty(),
            "restore must quiesce pending IRQs"
        );
        assert_eq!(m.bus().mmio.stream_remaining(), 0);
        // Fresh raises after the restore flow through untouched.
        m.bus_mut().pending_irqs.push_back(crate::bus::IrqRequest {
            line: crate::bus::irq::GPIO,
            payload: Vec::new(),
        });
        m.bus_mut().mmio_write(
            crate::mmio::periph::SPI,
            crate::mmio::reg::CTRL,
            crate::mmio::CTRL_START,
        );
        let lines: Vec<u8> = m.bus().pending_irqs.iter().map(|r| r.line).collect();
        assert_eq!(lines, vec![crate::bus::irq::GPIO, crate::bus::irq::SPI]);
    }

    #[test]
    fn flash_generation_readable_over_debug_port() {
        let mut m = counting_machine();
        m.reset();
        let g = m.debug_flash_generation().unwrap();
        m.flash_mut().flip_bit(4, 0).unwrap();
        assert_eq!(m.debug_flash_generation().unwrap(), g + 1);
    }
}
