//! The probe session: EOF's single channel of control and observation.
//!
//! A [`DebugTransport`] owns the simulated [`Machine`] and exposes the
//! operations OpenOCD offers a client — halt/resume, memory access,
//! breakpoints, reset, flash — with the two properties the paper's
//! liveness design depends on:
//!
//! * **every operation costs simulated time** (link latency plus, for
//!   JTAG boards, the TAP scan cycles), so slow recovery genuinely eats
//!   campaign budget;
//! * **operations against a dead or disconnected target time out** after
//!   [`LinkConfig::timeout`] cycles rather than failing instantly —
//!   modelling the real blocking behaviour that makes watchdog tuning a
//!   trade-off.

use crate::error::DapError;
use crate::tap::TapController;
use crate::txn::{Txn, TxnOp, TxnResult, BLOCK_TCK_PER_CORE_CYCLE};
use eof_hal::{
    machine::cost, DebugIface, HalError, InjectedFault, Machine, RunExit, Snapshot, PAGE_SIZE,
};
use eof_telemetry as tel;

/// Link parameters of a probe session.
#[derive(Debug, Clone, Copy)]
pub struct LinkConfig {
    /// Cycles of link latency added to each operation.
    pub latency: u64,
    /// Cycles an operation blocks before reporting a connection timeout.
    pub timeout: u64,
}

impl Default for LinkConfig {
    fn default() -> Self {
        LinkConfig {
            latency: 2,
            timeout: 1_000,
        }
    }
}

/// Outcome of letting the target run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinkEvent {
    /// Target halted at a breakpoint.
    BreakpointHit {
        /// Address of the breakpoint.
        pc: u32,
    },
    /// The run budget elapsed with the target still running.
    StillRunning,
    /// The target died mid-run (boot failure, killed core).
    TargetDead,
    /// The on-chip watchdog reset the target during the run.
    WatchdogReset,
}

/// An open probe session to one board.
pub struct DebugTransport {
    machine: Machine,
    config: LinkConfig,
    tap: Option<TapController>,
    /// Scheduled link outages as `(start_cycle, end_cycle)`. Expired
    /// windows are pruned on every operation so a multi-day campaign
    /// never scans an ever-growing list.
    outages: Vec<(u64, u64)>,
    /// Flaky-link windows as `(start_cycle, end_cycle, drop_per_mille)`.
    flaky: Vec<(u64, u64, u16)>,
    ops: u64,
    timeouts: u64,
    /// Operations refused by a flaky-link window.
    flaky_drops: u64,
    /// Vectored transactions that errored *after* applying at least one
    /// queued operation. Zero by construction — validation refuses a
    /// doomed batch before anything applies — and asserted zero by the
    /// chaos harness; a nonzero count means the atomicity contract broke.
    txn_partials: u64,
}

impl DebugTransport {
    /// Attach to a machine. JTAG boards get a TAP controller underneath.
    pub fn attach(machine: Machine, config: LinkConfig) -> Self {
        let tap = match machine.board().debug_iface {
            DebugIface::Jtag => Some(TapController::new()),
            DebugIface::Swd => None,
        };
        DebugTransport {
            machine,
            config,
            tap,
            outages: Vec::new(),
            flaky: Vec::new(),
            ops: 0,
            timeouts: 0,
            flaky_drops: 0,
            txn_partials: 0,
        }
    }

    /// The attached machine (tests and image tooling).
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Mutable machine access (tests and image tooling).
    pub fn machine_mut(&mut self) -> &mut Machine {
        &mut self.machine
    }

    /// Total debug operations performed.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Total operations that ended in a connection timeout.
    pub fn timeouts(&self) -> u64 {
        self.timeouts
    }

    /// Operations dropped by an injected flaky-link window.
    pub fn flaky_drops(&self) -> u64 {
        self.flaky_drops
    }

    /// Vectored transactions that partially applied (always zero unless
    /// the atomicity contract broke; see [`DebugTransport::run_txn`]).
    pub fn txn_partials(&self) -> u64 {
        self.txn_partials
    }

    /// Schedule a link outage of `duration` cycles starting at `at_cycle`.
    pub fn schedule_outage(&mut self, at_cycle: u64, duration: u64) {
        self.outages.push((at_cycle, at_cycle + duration));
    }

    /// Schedule a flaky-link window: each operation inside it is dropped
    /// with probability `drop_per_mille`/1000 (deterministically, keyed
    /// on the operation counter).
    pub fn schedule_flaky(&mut self, at_cycle: u64, duration: u64, drop_per_mille: u16) {
        self.flaky
            .push((at_cycle, at_cycle + duration, drop_per_mille.min(1000)));
    }

    fn link_up(&self) -> bool {
        let now = self.machine.bus().now();
        !self.outages.iter().any(|&(s, e)| now >= s && now < e)
    }

    /// Collect due link faults from the machine's injection plan and turn
    /// them into outage / flaky windows starting now.
    fn poll_link_faults(&mut self) {
        // Fast path: nothing scheduled (the overwhelmingly common case).
        if self.machine.pending_injected_faults() == 0 {
            return;
        }
        let now = self.machine.bus().now();
        for fault in self.machine.take_due_link_faults() {
            match fault {
                InjectedFault::DropLink { cycles } => {
                    tel::count("dap.link.outages", 1);
                    tel::event("dap.link.outage", now, || format!("cycles={cycles}"));
                    self.outages.push((now, now + cycles));
                }
                InjectedFault::FlakyLink {
                    drop_per_mille,
                    cycles,
                } => {
                    tel::count("dap.link.flaky_windows", 1);
                    tel::event("dap.link.flaky", now, || {
                        format!("cycles={cycles} drop_per_mille={drop_per_mille}")
                    });
                    self.flaky
                        .push((now, now + cycles, drop_per_mille.min(1000)));
                }
                _ => {}
            }
        }
    }

    /// Whether an active flaky window drops this operation. Deterministic:
    /// the coin is a hash of the monotone operation counter, so identical
    /// campaigns see identical drop sequences.
    fn flaky_drop(&self) -> bool {
        let now = self.machine.bus().now();
        let Some(&(_, _, per_mille)) = self.flaky.iter().find(|&&(s, e, _)| now >= s && now < e)
        else {
            return false;
        };
        let mut x = self.ops ^ 0x9e37_79b9_7f4a_7c15;
        x ^= x >> 33;
        x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
        x ^= x >> 33;
        x % 1000 < per_mille as u64
    }

    /// Link-layer preamble shared by every operation: charge latency,
    /// fire due link faults, prune expired windows, verify the link.
    /// Used directly by the core-independent operations (reset, flash) —
    /// those lines answer even when the core is dead.
    fn begin_link_op(&mut self) -> Result<(), DapError> {
        self.ops += 1;
        self.machine.bus_mut().charge_debug(self.config.latency);
        self.poll_link_faults();
        let now = self.machine.bus().now();
        self.outages.retain(|&(_, e)| e > now);
        self.flaky.retain(|&(_, e, _)| e > now);
        if !self.link_up() {
            return Err(DapError::LinkDown);
        }
        if self.flaky_drop() {
            self.flaky_drops += 1;
            tel::count("dap.link.flaky_drops", 1);
            return Err(DapError::LinkDown);
        }
        Ok(())
    }

    /// Run one operation body and record its cycle cost and outcome as
    /// per-op telemetry. Cheaper than a span: the hot fuzzing loop does
    /// thousands of these per execution.
    fn record_op<T>(
        &mut self,
        name: &'static str,
        body: impl FnOnce(&mut Self) -> Result<T, DapError>,
    ) -> Result<T, DapError> {
        let start = self.machine.bus().now();
        let result = body(self);
        tel::op(
            name,
            self.machine.bus().now().saturating_sub(start),
            result.is_err(),
        );
        result
    }

    /// Preamble of every core-facing operation: charge latency (and TAP
    /// scan cost on JTAG), verify the link, verify the target answers.
    fn begin_op(&mut self, payload_bits: u32) -> Result<(), DapError> {
        if let Some(tap) = self.tap.as_mut() {
            // Each operation is one DR scan of the payload width; the TCK
            // cycles map 1:8 onto core cycles (TCK is slower).
            let tck = tap.scan_dr(payload_bits.max(8));
            self.machine.bus_mut().charge_debug(tck / 8);
        }
        self.begin_link_op()?;
        if self.machine.is_dead() {
            // Block for the full timeout window, then report.
            self.machine.bus_mut().charge_debug(self.config.timeout);
            self.timeouts += 1;
            tel::count("dap.timeouts", 1);
            return Err(DapError::ConnectionTimeout {
                waited: self.config.timeout,
            });
        }
        Ok(())
    }

    /// Cheap aliveness probe: succeeds iff the target answers at all.
    /// `ConnectionTimeout(DebugPipe)` in Algorithm 1 is `ping().is_err()`.
    pub fn ping(&mut self) -> Result<(), DapError> {
        self.record_op("ping", |t| t.begin_op(8))
    }

    /// Halt the core.
    pub fn halt(&mut self) -> Result<(), DapError> {
        self.record_op("halt", |t| {
            t.begin_op(32)?;
            t.machine.debug_halt().map_err(Into::into)
        })
    }

    /// Resume the core (GDB `-exec-continue` without waiting).
    pub fn resume(&mut self) -> Result<(), DapError> {
        self.record_op("resume", |t| {
            t.begin_op(32)?;
            t.machine.debug_resume().map_err(Into::into)
        })
    }

    /// Resume and run the target for at most `budget` cycles, reporting
    /// how the run ended. This is the blocking `continue` the fuzzing
    /// loop uses between sync points.
    pub fn continue_until_halt(&mut self, budget: u64) -> Result<LinkEvent, DapError> {
        self.record_op("continue_until_halt", |t| {
            t.begin_op(32)?;
            t.machine.debug_resume()?;
            Ok(match t.machine.run(budget) {
                RunExit::Breakpoint { pc } => LinkEvent::BreakpointHit { pc },
                RunExit::BudgetExhausted => LinkEvent::StillRunning,
                RunExit::CoreDead => LinkEvent::TargetDead,
                RunExit::WatchdogReset => LinkEvent::WatchdogReset,
            })
        })
    }

    /// Read target memory.
    pub fn read_mem(&mut self, addr: u32, buf: &mut [u8]) -> Result<(), DapError> {
        self.record_op("read_mem", |t| {
            t.begin_op((buf.len() as u32) * 8)?;
            t.machine.debug_read(addr, buf).map_err(Into::into)
        })
    }

    /// Write target memory.
    pub fn write_mem(&mut self, addr: u32, buf: &[u8]) -> Result<(), DapError> {
        self.record_op("write_mem", |t| {
            t.begin_op((buf.len() as u32) * 8)?;
            t.machine.debug_write(addr, buf).map_err(Into::into)
        })
    }

    /// Read the program counter.
    pub fn read_pc(&mut self) -> Result<u32, DapError> {
        self.record_op("read_pc", |t| {
            t.begin_op(32)?;
            t.machine.debug_pc().map_err(Into::into)
        })
    }

    /// Install a hardware breakpoint.
    pub fn set_breakpoint(&mut self, addr: u32) -> Result<(), DapError> {
        self.record_op("set_breakpoint", |t| {
            t.begin_op(32)?;
            t.machine.set_breakpoint(addr).map_err(Into::into)
        })
    }

    /// Remove a hardware breakpoint.
    pub fn clear_breakpoint(&mut self, addr: u32) -> Result<(), DapError> {
        self.record_op("clear_breakpoint", |t| {
            t.begin_op(32)?;
            t.machine.clear_breakpoint(addr);
            Ok(())
        })
    }

    /// Submit a transaction, lowered for its wire mode.
    ///
    /// **Vectored** ([`Txn::is_vectored`]): every queued operation in one
    /// link round trip. The batch pays one latency charge, one TAP scan
    /// (bulk payload shifted in block mode at
    /// 1:[`BLOCK_TCK_PER_CORE_CYCLE`] instead of the scalar per-word
    /// 1:8), and one access-port setup ([`cost::MEM_BASE`]) for all its
    /// memory operations.
    ///
    /// **Atomicity.** The submit itself is the only fault-injection
    /// point: link outages and flaky drops refuse the batch before
    /// anything applies, and the dead-target check runs once up front
    /// (core faults only fire while the target *runs*, so dead-ness
    /// cannot change mid-batch). Target-side preconditions — address
    /// bounds, breakpoint-comparator budget, partition names and sizes,
    /// flash-port availability — are validated for every operation
    /// before the first one applies; a doomed batch is refused whole
    /// with the target untouched. A connection-loss error therefore
    /// always means "nothing applied", which is what makes whole-batch
    /// replay ([`crate::RetryPolicy::run_txn`]) safe.
    ///
    /// **Scalar**: each op runs as its dedicated scalar method, in
    /// order, each with its own round trip, fault point and per-op
    /// telemetry (the steps are listed on `ScalarLowering`). The first
    /// failing step returns its error with the earlier steps applied.
    /// Partial application is the expected behaviour of a scalar burst,
    /// so this path records no `txn` op, no `dap.txn.*` telemetry and no
    /// [`Self::txn_partials`]; [`crate::RetryPolicy::run_txn`] resumes
    /// such a burst at the step that failed.
    pub fn run_txn(&mut self, txn: &Txn) -> Result<Vec<TxnResult>, DapError> {
        if !txn.is_vectored() {
            let mut lowering = ScalarLowering::new(txn);
            while !lowering.done() {
                lowering.step(self)?;
            }
            return Ok(lowering.finish());
        }
        if txn.is_empty() {
            return Ok(Vec::new());
        }
        self.record_op("txn", |t| t.run_txn_inner(txn))
    }

    fn run_txn_inner(&mut self, txn: &Txn) -> Result<Vec<TxnResult>, DapError> {
        tel::observe("dap.txn.ops", txn.len() as u64);
        tel::count("dap.txn.round_trips_saved", txn.len() as u64 - 1);
        // --- link phase: one scan, one latency charge, one dead check ---
        if let Some(tap) = &mut self.tap {
            let header_bits = txn.header_bits().min(u32::MAX as u64) as u32;
            let data_bits = txn
                .payload_bits()
                .min((u32::MAX as u64) - header_bits as u64) as u32;
            let tck = tap.scan_dr((header_bits + data_bits).max(8));
            // Command descriptors and the state-machine walk are paced by
            // the host like any scalar scan (1:8); the payload streams
            // from the probe FIFO in block mode.
            let walk = tck.saturating_sub(data_bits as u64);
            self.machine
                .bus_mut()
                .charge_debug(walk / 8 + data_bits as u64 / BLOCK_TCK_PER_CORE_CYCLE);
        }
        self.begin_link_op()?;
        if txn.needs_core() && self.machine.is_dead() {
            self.machine.bus_mut().charge_debug(self.config.timeout);
            self.timeouts += 1;
            tel::count("dap.timeouts", 1);
            return Err(DapError::ConnectionTimeout {
                waited: self.config.timeout,
            });
        }
        // --- validate phase: no mutation, whole-batch refusal ---
        self.validate_txn(txn)?;
        // --- apply phase: charged per payload, infallible by design ---
        let mut results = Vec::with_capacity(txn.len());
        if txn.ops().iter().any(|op| {
            matches!(
                op,
                TxnOp::ReadMem { .. }
                    | TxnOp::WriteMem { .. }
                    | TxnOp::WritePages { .. }
                    | TxnOp::DrainRing { .. }
                    | TxnOp::DrainTrace
            )
        }) {
            // One access-port setup for the whole memory burst.
            self.machine.bus_mut().charge_debug(cost::MEM_BASE);
        }
        for op in txn.ops() {
            match self.apply_txn_op(op) {
                Ok(r) => results.push(r),
                Err(e) => {
                    // Validation must make this unreachable; account it
                    // loudly if it ever is not.
                    if !results.is_empty() {
                        self.txn_partials += 1;
                    }
                    return Err(e);
                }
            }
        }
        Ok(results)
    }

    /// Check every queued operation's target-side preconditions without
    /// mutating anything. Core faults cannot fire between validation and
    /// application (the target never runs during a transaction), so a
    /// passing validation guarantees the apply phase succeeds.
    fn validate_txn(&self, txn: &Txn) -> Result<(), DapError> {
        // Simulate the comparator budget across the batch's own
        // set/clear sequence, starting from what is installed now.
        let mut bps: Vec<u32> = self.machine.breakpoints().to_vec();
        let max_bps = self.machine.board().max_breakpoints;
        // Destructive drains consume their resource: a second drain of
        // the same ring (or the trace FIFO) in one batch would read a
        // header the first drain already reset — the stale-header trap.
        // Refuse the batch whole instead of letting the duplicate
        // observe inconsistent counts.
        let mut drained_rings: Vec<u32> = Vec::new();
        let mut trace_drained = false;
        for op in txn.ops() {
            match op {
                TxnOp::Halt | TxnOp::Resume | TxnOp::ReadPc | TxnOp::ResetTarget => {}
                TxnOp::ReadMem { addr, len } => {
                    self.machine.debug_check_mem(*addr, *len as usize)?;
                }
                TxnOp::WriteMem { addr, data } => {
                    self.machine.debug_check_mem(*addr, data.len())?;
                }
                TxnOp::SetBreakpoint { addr } => {
                    if !bps.contains(addr) {
                        if bps.len() >= max_bps {
                            return Err(HalError::BreakpointLimit { max: max_bps }.into());
                        }
                        bps.push(*addr);
                    }
                }
                TxnOp::ClearBreakpoint { addr } => {
                    bps.retain(|a| a != addr);
                }
                TxnOp::FlashChecksum { partition } => {
                    if !self.machine.flash_port_available() {
                        return Err(DapError::Target(HalError::BadMachineState {
                            op: "flash checksum",
                            state: "flash port unavailable".into(),
                        }));
                    }
                    self.machine
                        .flash()
                        .table()
                        .get(partition)
                        .map_err(DapError::Target)?;
                }
                TxnOp::FlashWrite { partition, image } => {
                    if self.machine.browned_out() {
                        return Err(DapError::Target(HalError::BadMachineState {
                            op: "flash write",
                            state: "brownout".into(),
                        }));
                    }
                    let part = self
                        .machine
                        .flash()
                        .table()
                        .get(partition)
                        .map_err(DapError::Target)?;
                    if image.len() > part.size as usize {
                        return Err(DapError::Target(HalError::BadPartitionLayout(format!(
                            "image ({} bytes) exceeds partition {partition:?} ({} bytes)",
                            image.len(),
                            part.size
                        ))));
                    }
                }
                TxnOp::FlashSectorChecksums { partition, .. } => {
                    if !self.machine.flash_port_available() {
                        return Err(DapError::Target(HalError::BadMachineState {
                            op: "flash sector checksums",
                            state: "flash port unavailable".into(),
                        }));
                    }
                    self.machine
                        .flash()
                        .table()
                        .get(partition)
                        .map_err(DapError::Target)?;
                }
                TxnOp::FlashWriteSectors { partition, sectors } => {
                    // A sector write cannot release the hard-lockup
                    // latch, so a killed core refuses alongside a
                    // browned-out rail — unlike the full kernel stream.
                    if !self.machine.flash_port_available() {
                        return Err(DapError::Target(HalError::BadMachineState {
                            op: "flash sector write",
                            state: "flash port unavailable".into(),
                        }));
                    }
                    let part = self
                        .machine
                        .flash()
                        .table()
                        .get(partition)
                        .map_err(DapError::Target)?;
                    for (idx, data) in sectors {
                        let off = *idx as u64 * eof_hal::flash::SECTOR_SIZE as u64;
                        if data.len() > eof_hal::flash::SECTOR_SIZE
                            || off + data.len() as u64 > part.size as u64
                        {
                            return Err(DapError::Target(HalError::BadPartitionLayout(format!(
                                "sector {idx} write ({} bytes) exceeds partition {partition:?} ({} bytes)",
                                data.len(),
                                part.size
                            ))));
                        }
                    }
                }
                TxnOp::WritePages { pages } => {
                    for (addr, data) in pages {
                        self.machine.debug_check_mem(*addr, data.len())?;
                    }
                }
                TxnOp::RestoreCore => {
                    // Kill/brownout/boot-dead are covered by the batch-level
                    // dead check; the remaining failure mode is a flash
                    // image that no longer parses. Dry-run the loader so a
                    // doomed batch refuses whole with the target untouched.
                    self.machine.check_boot_image().map_err(DapError::Target)?;
                }
                TxnOp::DrainRing {
                    base,
                    capacity,
                    record_bytes,
                } => {
                    if drained_rings.contains(base) {
                        return Err(DapError::Target(HalError::BadMachineState {
                            op: "drain ring",
                            state: format!("duplicate drain of ring {base:#x} in one transaction"),
                        }));
                    }
                    drained_rings.push(*base);
                    let len = 12 + *capacity as usize * *record_bytes as usize;
                    self.machine.debug_check_mem(*base, len)?;
                }
                TxnOp::DrainTrace => {
                    if trace_drained {
                        return Err(DapError::Target(HalError::BadMachineState {
                            op: "drain trace",
                            state: "duplicate trace drain in one transaction".into(),
                        }));
                    }
                    trace_drained = true;
                }
            }
        }
        Ok(())
    }

    fn apply_txn_op(&mut self, op: &TxnOp) -> Result<TxnResult, DapError> {
        Ok(match op {
            TxnOp::Halt => {
                self.machine.debug_halt()?;
                TxnResult::Done
            }
            TxnOp::Resume => {
                self.machine.debug_resume()?;
                TxnResult::Done
            }
            TxnOp::ReadMem { addr, len } => {
                let mut buf = vec![0u8; *len as usize];
                self.machine.debug_read_batched(*addr, &mut buf)?;
                TxnResult::Bytes(buf)
            }
            TxnOp::WriteMem { addr, data } => {
                self.machine.debug_write_batched(*addr, data)?;
                TxnResult::Done
            }
            TxnOp::ReadPc => TxnResult::Pc(self.machine.debug_pc()?),
            TxnOp::SetBreakpoint { addr } => {
                self.machine.set_breakpoint(*addr)?;
                TxnResult::Done
            }
            TxnOp::ClearBreakpoint { addr } => {
                self.machine.clear_breakpoint(*addr);
                TxnResult::Done
            }
            TxnOp::FlashChecksum { partition } => {
                TxnResult::Checksum(self.machine.debug_flash_checksum(partition)?)
            }
            TxnOp::FlashWrite { partition, image } => {
                self.machine.reflash_partition(partition, image)?;
                TxnResult::Done
            }
            TxnOp::FlashSectorChecksums { partition, .. } => {
                TxnResult::Checksums(self.machine.debug_flash_sector_checksums(partition)?)
            }
            TxnOp::FlashWriteSectors { partition, sectors } => {
                self.machine.debug_reflash_sectors(partition, sectors)?;
                TxnResult::Done
            }
            TxnOp::ResetTarget => {
                self.machine.reset();
                TxnResult::Done
            }
            TxnOp::WritePages { pages } => {
                for (addr, data) in pages {
                    self.machine.debug_write_batched(*addr, data)?;
                }
                TxnResult::Done
            }
            TxnOp::RestoreCore => {
                self.machine.debug_restore_core()?;
                TxnResult::Done
            }
            TxnOp::DrainRing {
                base,
                capacity,
                record_bytes,
            } => {
                // Dependent read: header first, then only the live
                // records — a mostly-empty ring costs a dozen bytes on
                // the wire, not the full capacity image. Count + reset
                // still happen inside the one op, so a fault can lose
                // the drain whole but never leave the ring half-reset.
                let mut header = [0u8; 12];
                self.machine.debug_read_batched(*base, &mut header)?;
                let e = self.machine.board().endianness;
                let count = e
                    .u32_from([header[0], header[1], header[2], header[3]])
                    .min(*capacity);
                let len = 12 + count as usize * *record_bytes as usize;
                let mut buf = vec![0u8; len];
                buf[..12].copy_from_slice(&header);
                if count > 0 {
                    self.machine
                        .debug_read_batched(*base + 12, &mut buf[12..])?;
                    // The records' TCK stream bits are charged here —
                    // the static payload accounting covers only the
                    // descriptor and header, since the live count is
                    // unknown until the header comes back.
                    if self.tap.is_some() {
                        let bits = count as u64 * *record_bytes as u64 * 8;
                        self.machine
                            .bus_mut()
                            .charge_debug(bits / BLOCK_TCK_PER_CORE_CYCLE);
                    }
                }
                self.machine.debug_write_batched(*base, &[0u8; 4])?;
                self.machine.debug_write_batched(*base + 8, &[0u8; 4])?;
                TxnResult::Bytes(buf)
            }
            TxnOp::DrainTrace => {
                // Same dependent-read shape as DrainRing, against the
                // debug subsystem's trace FIFO instead of target RAM:
                // the machine returns header + live stream bytes and
                // resets the FIFO inside the one op. The stream's TCK
                // bits are charged here, once the live count is known.
                let buf = self.machine.debug_drain_trace_batched()?;
                if self.tap.is_some() {
                    let bits = buf.len().saturating_sub(12) as u64 * 8;
                    self.machine
                        .bus_mut()
                        .charge_debug(bits / BLOCK_TCK_PER_CORE_CYCLE);
                }
                TxnResult::Bytes(buf)
            }
        })
    }

    /// First step of `DrainRing`'s scalar lowering: the 12-byte ring
    /// header, then — a dependent read — only the live records behind
    /// it. Returns header and records, concatenated.
    fn read_ring(
        &mut self,
        base: u32,
        capacity: u32,
        record_bytes: u32,
    ) -> Result<Vec<u8>, DapError> {
        let mut raw = vec![0u8; 12];
        self.read_mem(base, &mut raw)?;
        let e = self.machine.board().endianness;
        let count = e.u32_from([raw[0], raw[1], raw[2], raw[3]]).min(capacity);
        if count > 0 {
            raw.resize(12 + count as usize * record_bytes as usize, 0);
            self.read_mem(base + 12, &mut raw[12..])?;
        }
        Ok(raw)
    }

    /// Look up a firmware symbol address.
    pub fn symbol(&self, name: &str) -> Option<u32> {
        self.machine.symbol(name)
    }

    /// Reset the target (OpenOCD `reset run`). Works even when the target
    /// is dead — the reset line is independent of the core.
    pub fn reset_target(&mut self) -> Result<(), DapError> {
        self.record_op("reset_target", |t| {
            t.begin_link_op()?;
            t.machine.reset();
            Ok(())
        })
    }

    /// Cut the target's power for `off_cycles`, then cold-boot it. The
    /// power rail needs no probe at all — this is the one recovery action
    /// that works with the debug link completely down, which is why it is
    /// the last rung of the restoration ladder.
    pub fn power_cycle(&mut self, off_cycles: u64) {
        let start = self.machine.bus().now();
        self.ops += 1;
        self.machine.power_cycle(off_cycles);
        tel::op(
            "power_cycle",
            self.machine.bus().now().saturating_sub(start),
            false,
        );
    }

    /// Program an image into a named flash partition (OpenOCD
    /// `flash write_image`). Also link-independent of core state.
    pub fn flash_partition(&mut self, name: &str, image: &[u8]) -> Result<(), DapError> {
        self.record_op("flash_partition", |t| {
            t.begin_link_op()?;
            t.machine.reflash_partition(name, image).map_err(Into::into)
        })
    }

    /// Target-side checksum of a flash partition (OpenOCD
    /// `flash verify_image`). Link-dependent but core-independent.
    pub fn flash_checksum(&mut self, name: &str) -> Result<u64, DapError> {
        self.record_op("flash_checksum", |t| {
            t.begin_link_op()?;
            t.machine.debug_flash_checksum(name).map_err(Into::into)
        })
    }

    /// Per-sector target-side checksums of a flash partition — the
    /// damage-localisation step of sector-delta reflash. Link-dependent
    /// but core-independent, like [`Self::flash_checksum`].
    pub fn flash_sector_checksums(&mut self, name: &str) -> Result<Vec<u64>, DapError> {
        self.record_op("flash_sector_checksums", |t| {
            t.begin_link_op()?;
            t.machine
                .debug_flash_sector_checksums(name)
                .map_err(Into::into)
        })
    }

    /// Rewrite a sparse set of sectors inside a partition (the write
    /// step of sector-delta reflash). Link-dependent but
    /// core-independent, like [`Self::flash_partition`].
    pub fn flash_write_sectors(
        &mut self,
        name: &str,
        sectors: &[(u32, Vec<u8>)],
    ) -> Result<(), DapError> {
        self.record_op("flash_write_sectors", |t| {
            t.begin_link_op()?;
            t.machine
                .debug_reflash_sectors(name, sectors)
                .map_err(Into::into)
        })
    }

    /// Read the flash controller's mutation generation counter — the
    /// snapshot suspicion probe. A register read on the flash controller;
    /// link-dependent but core-independent, like [`Self::flash_checksum`].
    pub fn flash_generation(&mut self) -> Result<u64, DapError> {
        self.record_op("flash_generation", |t| {
            t.begin_link_op()?;
            t.machine.debug_flash_generation().map_err(Into::into)
        })
    }

    /// Capture a board snapshot over the debug port. The wire only
    /// carries the pages written since the last capture (or since
    /// power-on, the architectural zero-fill baseline) — everything else
    /// the host already knows — so the charge is proportional to the
    /// dirty-page count, not the RAM size.
    pub fn capture_snapshot(&mut self) -> Result<Snapshot, DapError> {
        self.record_op("capture_snapshot", |t| {
            let dirty_bytes = (t.machine.dirty_page_count() * PAGE_SIZE) as u64;
            let bits = (dirty_bytes * 8).clamp(32, u32::MAX as u64) as u32;
            t.begin_op(bits)?;
            t.machine
                .bus_mut()
                .charge_debug(cost::MEM_BASE + dirty_bytes / 4);
            t.machine.capture_snapshot().map_err(Into::into)
        })
    }

    /// Scalar register-file restore + restart at the reset vector: the
    /// scalar lowering of [`TxnOp::RestoreCore`].
    pub fn restore_core(&mut self) -> Result<(), DapError> {
        self.record_op("restore_core", |t| {
            t.begin_op(64)?;
            t.machine.debug_restore_core().map_err(Into::into)
        })
    }

    /// Arm or disarm the hardware trace unit. A register poke in the
    /// debug power domain; the latch survives resets and power cycles
    /// like breakpoint comparators do.
    pub fn trace_set_enabled(&mut self, on: bool) -> Result<(), DapError> {
        self.record_op("trace_set_enabled", |t| {
            t.begin_op(32)?;
            t.machine.debug_trace_set_enabled(on).map_err(Into::into)
        })
    }

    /// Scalar trace-FIFO drain: the scalar lowering of
    /// [`TxnOp::DrainTrace`]. Both lowerings call the same machine
    /// primitive, so the drained bytes are identical either way — only
    /// the wire accounting differs: the scalar path paces the whole
    /// stream at the per-word 1:8 rate.
    pub fn drain_trace(&mut self) -> Result<Vec<u8>, DapError> {
        self.record_op("drain_trace", |t| {
            t.begin_op(32 + 12 * 8)?;
            let buf = t.machine.debug_drain_trace_batched()?;
            // The live stream bytes are a dependent read, charged once
            // the header's count is known — at the scalar shift rate.
            let bits = buf.len().saturating_sub(12) as u64 * 8;
            t.machine.bus_mut().charge_debug(bits / 8);
            Ok(buf)
        })
    }

    /// Raise an interrupt line on the target, as external stimulus
    /// hardware (a GPIO toggler, host-side serial TX) would. Independent
    /// of the debug link; a dead core simply never services it.
    pub fn inject_irq(&mut self, line: u8, payload: Vec<u8>) {
        self.machine.bus_mut().charge(1);
        self.machine
            .bus_mut()
            .pending_irqs
            .push_back(eof_hal::IrqRequest { line, payload });
    }

    /// Sample the target's power rail. The current probe is a separate
    /// instrument: it answers even when the debug link is down or the
    /// core is dead.
    pub fn sample_power(&mut self) -> f32 {
        self.machine.bus_mut().charge(1);
        self.machine.power_sample()
    }

    /// Drain the captured UART stream (the stdout-redirected target log).
    pub fn drain_uart(&mut self) -> Vec<u8> {
        self.machine.drain_uart()
    }

    /// Current simulated time in cycles.
    pub fn now(&self) -> u64 {
        self.machine.bus().now()
    }

    /// The target-visible cycle count: total time minus debug-port
    /// traffic. Use this for decisions that must match what the target
    /// itself could observe (its timers freeze during debug halts).
    pub fn core_now(&self) -> u64 {
        self.machine.bus().core_now()
    }

    /// Sleep for `cycles` of simulated time (Algorithm 1 line 19's
    /// post-reboot settle delay).
    pub fn sleep(&mut self, cycles: u64) {
        self.machine.bus_mut().charge(cycles);
    }
}

/// The scalar lowering of a [`Txn`]: each op as its dedicated scalar
/// method, in queue order. A step is one retry unit: one method call,
/// except that `WritePages` takes one `write_mem` per page and
/// `DrainRing` three steps (header plus live records, then each reset
/// write). A failed step leaves the lowering where it was, so calling
/// [`ScalarLowering::step`] again resumes at that step and never
/// replays one that applied.
pub(crate) struct ScalarLowering<'a> {
    ops: &'a [TxnOp],
    /// Step within the current op, `ops[results.len()]`.
    step: usize,
    /// A `DrainRing`'s bytes, read in its first step and returned once
    /// its reset writes have landed.
    ring: Vec<u8>,
    results: Vec<TxnResult>,
}

impl<'a> ScalarLowering<'a> {
    pub(crate) fn new(txn: &'a Txn) -> Self {
        ScalarLowering {
            ops: txn.ops(),
            step: 0,
            ring: Vec::new(),
            results: Vec::with_capacity(txn.len()),
        }
    }

    pub(crate) fn done(&self) -> bool {
        self.results.len() == self.ops.len()
    }

    pub(crate) fn finish(self) -> Vec<TxnResult> {
        self.results
    }

    /// Run the next step.
    pub(crate) fn step(&mut self, t: &mut DebugTransport) -> Result<(), DapError> {
        let ops = self.ops;
        let done = TxnResult::Done;
        let result = match &ops[self.results.len()] {
            TxnOp::Halt => t.halt().map(|()| done)?,
            TxnOp::Resume => t.resume().map(|()| done)?,
            TxnOp::ReadMem { addr, len } => {
                let mut buf = vec![0u8; *len as usize];
                t.read_mem(*addr, &mut buf)?;
                TxnResult::Bytes(buf)
            }
            TxnOp::WriteMem { addr, data } => t.write_mem(*addr, data).map(|()| done)?,
            TxnOp::ReadPc => TxnResult::Pc(t.read_pc()?),
            TxnOp::SetBreakpoint { addr } => t.set_breakpoint(*addr).map(|()| done)?,
            TxnOp::ClearBreakpoint { addr } => t.clear_breakpoint(*addr).map(|()| done)?,
            TxnOp::FlashChecksum { partition } => TxnResult::Checksum(t.flash_checksum(partition)?),
            TxnOp::FlashWrite { partition, image } => {
                t.flash_partition(partition, image).map(|()| done)?
            }
            TxnOp::FlashSectorChecksums { partition, .. } => {
                TxnResult::Checksums(t.flash_sector_checksums(partition)?)
            }
            TxnOp::FlashWriteSectors { partition, sectors } => {
                t.flash_write_sectors(partition, sectors).map(|()| done)?
            }
            TxnOp::ResetTarget => t.reset_target().map(|()| done)?,
            TxnOp::WritePages { pages } => {
                if let Some((addr, data)) = pages.get(self.step) {
                    t.write_mem(*addr, data)?;
                }
                if self.step + 1 < pages.len() {
                    self.step += 1;
                    return Ok(());
                }
                done
            }
            TxnOp::RestoreCore => t.restore_core().map(|()| done)?,
            TxnOp::DrainRing {
                base,
                capacity,
                record_bytes,
            } => {
                match self.step {
                    0 => self.ring = t.read_ring(*base, *capacity, *record_bytes)?,
                    1 => t.write_mem(*base, &[0u8; 4])?,
                    _ => t.write_mem(*base + 8, &[0u8; 4])?,
                }
                if self.step < 2 {
                    self.step += 1;
                    return Ok(());
                }
                TxnResult::Bytes(std::mem::take(&mut self.ring))
            }
            TxnOp::DrainTrace => TxnResult::Bytes(t.drain_trace()?),
        };
        self.step = 0;
        self.results.push(result);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eof_hal::{BoardCatalog, FaultPlan, FirmwareLoader, HalError, InjectedFault, Machine};

    /// An image whose magic is wrong, so a reset after flashing it
    /// boot-fails — the "corrupted kernel partition" fixture.
    const BROKEN_IMAGE: &[u8] = b"XXX!broken";

    // Reuse the HAL's counting firmware shape via a local copy, since the
    // HAL's test firmware is private to its crate.
    struct Walker {
        steps: u32,
        frozen: bool,
        symbols: eof_hal::SymbolTable,
    }

    impl Walker {
        fn new() -> Self {
            let mut symbols = eof_hal::SymbolTable::new();
            symbols.insert("entry", 0x0800_0000);
            Walker {
                steps: 0,
                frozen: false,
                symbols,
            }
        }
    }

    impl eof_hal::Firmware for Walker {
        fn name(&self) -> &str {
            "walker"
        }
        fn symbols(&self) -> &eof_hal::SymbolTable {
            &self.symbols
        }
        fn step(&mut self, _bus: &mut eof_hal::Bus) -> eof_hal::StepResult {
            if self.frozen {
                return eof_hal::StepResult::Stalled {
                    pc: 0x0800_0000 + self.steps * 4,
                    cycles: 1,
                };
            }
            self.steps += 1;
            eof_hal::StepResult::Running {
                pc: 0x0800_0000 + self.steps * 4,
                cycles: 2,
            }
        }
        fn on_reset(&mut self, _bus: &mut eof_hal::Bus) {
            self.steps = 0;
            self.frozen = false;
        }
        fn freeze(&mut self) {
            self.frozen = true;
        }
    }

    fn transport() -> DebugTransport {
        transport_on(BoardCatalog::esp32_devkit())
    }

    fn transport_on(board: eof_hal::BoardSpec) -> DebugTransport {
        let loader: FirmwareLoader = Box::new(|flash, _| {
            let kernel = flash.read_partition("kernel")?;
            if &kernel[..4] != b"IMG!" {
                return Err(HalError::BootFailure("bad magic".into()));
            }
            Ok(Box::new(Walker::new()))
        });
        let mut m = Machine::new(board, loader);
        m.reflash_partition("kernel", b"IMG!fw").unwrap();
        m.reset();
        DebugTransport::attach(m, LinkConfig::default())
    }

    #[test]
    fn memory_roundtrip_over_link() {
        let mut t = transport();
        let base = t.machine().board().ram_base;
        t.write_mem(base + 0x100, b"payload").unwrap();
        let mut buf = [0u8; 7];
        t.read_mem(base + 0x100, &mut buf).unwrap();
        assert_eq!(&buf, b"payload");
        assert!(t.ops() >= 2);
    }

    #[test]
    fn jtag_board_charges_tap_cycles() {
        let mut t = transport();
        let before = t.now();
        t.ping().unwrap();
        // Latency (2) + TAP scan contribution must both land.
        assert!(t.now() - before > LinkConfig::default().latency);
    }

    #[test]
    fn breakpoint_and_continue() {
        let mut t = transport();
        t.halt().unwrap();
        t.set_breakpoint(0x0800_0000 + 5 * 4).unwrap();
        match t.continue_until_halt(10_000).unwrap() {
            LinkEvent::BreakpointHit { pc } => assert_eq!(pc, 0x0800_0014),
            other => panic!("expected breakpoint, got {other:?}"),
        }
    }

    #[test]
    fn dead_target_times_out_and_costs_time() {
        let mut t = transport();
        t.machine_mut()
            .set_fault_plan(FaultPlan::none().at(0, InjectedFault::KillCore));
        let _ = t.continue_until_halt(100);
        let before = t.now();
        let err = t.read_pc().unwrap_err();
        assert!(err.is_connection_loss());
        assert!(t.now() - before >= LinkConfig::default().timeout);
        assert_eq!(t.timeouts(), 1);
    }

    #[test]
    fn outage_reports_link_down() {
        let mut t = transport();
        let now = t.now();
        t.schedule_outage(now, 10_000);
        assert_eq!(t.ping().unwrap_err(), DapError::LinkDown);
        // After the outage window, the link heals.
        t.machine_mut().bus_mut().charge(20_000);
        assert!(t.ping().is_ok());
    }

    #[test]
    fn reset_works_on_dead_target() {
        let mut t = transport();
        t.machine_mut()
            .set_fault_plan(FaultPlan::none().at(0, InjectedFault::FreezeFirmware));
        let _ = t.continue_until_halt(100);
        // Freeze is not death; PC reads still work but never change.
        let pc1 = t.read_pc().unwrap();
        let _ = t.continue_until_halt(100);
        let pc2 = t.read_pc().unwrap();
        assert_eq!(pc1, pc2);
        // Reset revives progress.
        t.reset_target().unwrap();
        let _ = t.continue_until_halt(100);
        let pc3 = t.read_pc().unwrap();
        let _ = t.continue_until_halt(100);
        let pc4 = t.read_pc().unwrap();
        assert_ne!(pc3, pc4);
    }

    #[test]
    fn reflash_over_link() {
        let mut t = transport();
        t.flash_partition("kernel", b"IMG!new-fw").unwrap();
        t.reset_target().unwrap();
        assert!(t.read_pc().is_ok());
    }

    #[test]
    fn uart_drain_over_link() {
        let mut t = transport();
        t.machine_mut()
            .bus_mut()
            .uart
            .tx_line("E (123) boot: panic");
        let log = t.drain_uart();
        assert_eq!(log, b"E (123) boot: panic\n");
    }

    #[test]
    fn sleep_advances_time() {
        let mut t = transport();
        let before = t.now();
        t.sleep(5_000);
        assert_eq!(t.now() - before, 5_000);
    }

    #[test]
    fn flaky_window_drops_some_but_not_all_ops() {
        let mut t = transport();
        let now = t.now();
        t.schedule_flaky(now, 1_000_000, 500);
        let mut ok = 0u32;
        let mut dropped = 0u32;
        for _ in 0..200 {
            match t.ping() {
                Ok(()) => ok += 1,
                Err(DapError::LinkDown) => dropped += 1,
                Err(other) => panic!("unexpected error: {other:?}"),
            }
        }
        // ~50% drop rate: both outcomes must occur in quantity.
        assert!(ok > 40, "only {ok} ops survived a 500‰ window");
        assert!(dropped > 40, "only {dropped} ops dropped in a 500‰ window");
        assert_eq!(t.flaky_drops(), dropped as u64);
    }

    #[test]
    fn flaky_drop_sequence_is_deterministic() {
        let run = || {
            let mut t = transport();
            let now = t.now();
            t.schedule_flaky(now, 1_000_000, 300);
            (0..100).map(|_| t.ping().is_ok()).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn expired_windows_are_pruned() {
        let mut t = transport();
        let now = t.now();
        for i in 0..50 {
            t.schedule_outage(now + i, 1);
            t.schedule_flaky(now + i, 1, 900);
        }
        t.machine_mut().bus_mut().charge(10_000);
        t.ping().unwrap();
        assert!(t.outages.is_empty(), "expired outages must be pruned");
        assert!(t.flaky.is_empty(), "expired flaky windows must be pruned");
    }

    #[test]
    fn drop_link_fault_reaches_transport_as_outage() {
        let mut t = transport();
        t.machine_mut()
            .set_fault_plan(FaultPlan::none().at(0, InjectedFault::DropLink { cycles: 50_000 }));
        // Even with the core halted, the next op trips over the outage.
        assert_eq!(t.ping().unwrap_err(), DapError::LinkDown);
        t.machine_mut().bus_mut().charge(60_000);
        assert!(t.ping().is_ok());
    }

    #[test]
    fn power_cycle_revives_killed_core_during_outage() {
        let mut t = transport();
        t.machine_mut()
            .set_fault_plan(FaultPlan::none().at(0, InjectedFault::KillCore));
        let _ = t.continue_until_halt(100);
        let now = t.now();
        t.schedule_outage(now, 1_000_000);
        // Probe-side actions all fail: the link is dark.
        assert!(t.reset_target().is_err());
        assert!(t.flash_partition("kernel", b"IMG!fw").is_err());
        // Pulling the power needs no probe and clears the kill latch.
        t.power_cycle(5_000);
        assert!(!t.machine().is_dead());
    }

    #[test]
    fn retry_policy_rides_out_short_outage() {
        use crate::retry::{RetryPolicy, RetryStats};
        let mut t = transport();
        let now = t.now();
        // Outage shorter than the first backoff: one retry clears it.
        t.schedule_outage(now, 100);
        let policy = RetryPolicy {
            max_attempts: 4,
            base_backoff: 512,
            max_backoff: 8_192,
        };
        let mut stats = RetryStats::default();
        policy.run(&mut stats, &mut t, |p| p.ping()).unwrap();
        assert_eq!(stats.recovered, 1);
        assert!(stats.retries >= 1);
        assert!(stats.backoff_cycles >= 512);
    }

    #[test]
    fn retry_policy_exhausts_on_long_outage() {
        use crate::retry::{RetryPolicy, RetryStats};
        let mut t = transport();
        let now = t.now();
        t.schedule_outage(now, 10_000_000);
        let mut stats = RetryStats::default();
        let err = RetryPolicy::default()
            .run(&mut stats, &mut t, |p| p.ping())
            .unwrap_err();
        assert!(err.is_connection_loss());
        assert_eq!(stats.exhausted, 1);
        assert_eq!(stats.attempts, 4);
        assert_eq!(stats.recovered, 0);
    }

    #[test]
    fn retry_policy_passes_through_target_errors() {
        use crate::retry::{RetryPolicy, RetryStats};
        let mut t = transport();
        let mut stats = RetryStats::default();
        // Unknown partition is a target error, not a connection loss —
        // it must not be retried.
        let err = RetryPolicy::default()
            .run(&mut stats, &mut t, |p| p.flash_checksum("no-such-part"))
            .unwrap_err();
        assert!(!err.is_connection_loss());
        assert_eq!(stats.attempts, 1);
        assert_eq!(stats.retries, 0);
    }

    #[test]
    fn txn_matches_scalar_results_and_costs_less() {
        // Same op sequence both ways; the vectored submit must return
        // identical data and spend strictly fewer cycles.
        let mut scalar = transport();
        let base = scalar.machine().board().ram_base;
        let start = scalar.now();
        scalar.halt().unwrap();
        scalar.write_mem(base + 0x40, b"vector-me").unwrap();
        let mut buf = [0u8; 9];
        scalar.read_mem(base + 0x40, &mut buf).unwrap();
        let pc_scalar = scalar.read_pc().unwrap();
        scalar.resume().unwrap();
        let scalar_cost = scalar.now() - start;

        let mut vectored = transport();
        let start = vectored.now();
        let mut txn = Txn::new();
        txn.halt()
            .write_mem(base + 0x40, b"vector-me")
            .read_mem(base + 0x40, 9)
            .read_pc()
            .resume();
        let results = vectored.run_txn(&txn).unwrap();
        let vectored_cost = vectored.now() - start;

        assert_eq!(results[0], TxnResult::Done);
        assert_eq!(results[2], TxnResult::Bytes(b"vector-me".to_vec()));
        assert_eq!(results[3], TxnResult::Pc(pc_scalar));
        assert!(
            vectored_cost < scalar_cost,
            "vectored {vectored_cost} !< scalar {scalar_cost}"
        );
        // 5 ops collapsed into one round trip.
        assert_eq!(vectored.txn_partials(), 0);
    }

    #[test]
    fn txn_validation_failure_applies_nothing() {
        let mut t = transport();
        let base = t.machine().board().ram_base;
        t.halt().unwrap();
        let mut txn = Txn::new();
        txn.write_mem(base + 0x80, b"poison")
            .write_mem(0xffff_0000, b"out-of-bounds");
        let err = t.run_txn(&txn).unwrap_err();
        assert!(!err.is_connection_loss());
        // The first (valid) write must NOT have landed.
        let mut buf = [0u8; 6];
        t.read_mem(base + 0x80, &mut buf).unwrap();
        assert_eq!(buf, [0u8; 6], "doomed batch half-applied");
        assert_eq!(t.txn_partials(), 0);
    }

    #[test]
    fn txn_breakpoint_budget_checked_across_batch() {
        let mut t = transport();
        let max = t.machine().board().max_breakpoints;
        t.halt().unwrap();
        let mut txn = Txn::new();
        for i in 0..=max as u32 {
            txn.set_breakpoint(0x0800_0000 + i * 4);
        }
        let err = t.run_txn(&txn).unwrap_err();
        assert!(matches!(
            err,
            DapError::Target(HalError::BreakpointLimit { .. })
        ));
        assert!(
            t.machine().breakpoints().is_empty(),
            "over-budget batch installed comparators"
        );
        // A set/clear pair inside one batch stays within budget.
        let mut txn = Txn::new();
        for i in 0..max as u32 {
            txn.set_breakpoint(0x0800_0000 + i * 4);
            txn.clear_breakpoint(0x0800_0000 + i * 4);
        }
        txn.set_breakpoint(0x0800_1000);
        t.run_txn(&txn).unwrap();
        assert_eq!(t.machine().breakpoints(), &[0x0800_1000]);
    }

    #[test]
    fn empty_txn_is_free() {
        let mut t = transport();
        let before = t.now();
        let ops_before = t.ops();
        assert!(t.run_txn(&Txn::new()).unwrap().is_empty());
        assert_eq!(t.now(), before);
        assert_eq!(t.ops(), ops_before);
    }

    #[test]
    fn txn_against_dead_target_times_out_once() {
        let mut t = transport();
        t.machine_mut()
            .set_fault_plan(FaultPlan::none().at(0, InjectedFault::KillCore));
        let _ = t.continue_until_halt(100);
        let before = t.now();
        let mut txn = Txn::new();
        txn.halt().read_pc().resume();
        let err = t.run_txn(&txn).unwrap_err();
        assert!(err.is_connection_loss());
        // One timeout charge for the whole batch, not one per op.
        let spent = t.now() - before;
        assert!(spent >= LinkConfig::default().timeout);
        assert!(spent < 2 * LinkConfig::default().timeout);
        assert_eq!(t.timeouts(), 1);
    }

    #[test]
    fn flash_txn_works_on_boot_dead_target() {
        // A target that failed to boot (bad image) is dead, but flash and
        // reset lines answer independently — exactly like the scalar path.
        let mut t = transport();
        t.machine_mut()
            .reflash_partition("kernel", BROKEN_IMAGE)
            .unwrap();
        t.machine_mut().reset();
        assert!(t.machine().is_dead());
        let mut txn = Txn::new();
        txn.flash_write("kernel", b"IMG!fixed")
            .flash_checksum("kernel")
            .reset_target();
        let results = t.run_txn(&txn).unwrap();
        assert!(matches!(results[1], TxnResult::Checksum(_)));
        assert!(!t.machine().is_dead());
        assert!(t.read_pc().is_ok());
    }

    #[test]
    fn txn_under_outage_fails_with_nothing_applied() {
        let mut t = transport();
        let base = t.machine().board().ram_base;
        t.halt().unwrap();
        let now = t.now();
        t.schedule_outage(now, 5_000);
        let mut txn = Txn::new();
        txn.write_mem(base + 0x40, b"ghost")
            .set_breakpoint(0x0800_0100);
        assert_eq!(t.run_txn(&txn).unwrap_err(), DapError::LinkDown);
        t.machine_mut().bus_mut().charge(10_000);
        let mut buf = [0u8; 5];
        t.read_mem(base + 0x40, &mut buf).unwrap();
        assert_eq!(buf, [0u8; 5], "write applied through a dark link");
        assert!(t.machine().breakpoints().is_empty());
        assert_eq!(t.txn_partials(), 0);
    }

    #[test]
    fn snapshot_delta_restore_over_txn() {
        let mut t = transport();
        let base = t.machine().board().ram_base;
        t.halt().unwrap();
        t.write_mem(base + 0x100, b"golden").unwrap();
        let snap = t.capture_snapshot().unwrap();
        // Scribble over the captured state.
        t.write_mem(base + 0x100, b"junked").unwrap();
        t.write_mem(base + 0x900, b"more junk").unwrap();
        // Ship the delta back as one vectored transaction.
        let pages: Vec<(u32, Vec<u8>)> = t
            .machine()
            .dirty_pages()
            .into_iter()
            .map(|p| (snap.page_addr(p), snap.page(p).to_vec()))
            .collect();
        assert!(!pages.is_empty());
        let mut txn = Txn::new();
        txn.write_pages(pages).restore_core();
        t.run_txn(&txn).unwrap();
        let mut buf = [0u8; 6];
        t.read_mem(base + 0x100, &mut buf).unwrap();
        assert_eq!(&buf, b"golden");
        let mut buf = [0u8; 9];
        t.read_mem(base + 0x900, &mut buf).unwrap();
        assert_eq!(buf, [0u8; 9], "junk survived the delta restore");
        assert_eq!(t.txn_partials(), 0);
        // The core restarted without a hardware reset.
        assert!(!t.machine().is_dead());
        assert!(t.continue_until_halt(100).is_ok());
    }

    #[test]
    fn restore_core_refused_whole_when_image_is_stale() {
        let mut t = transport();
        let base = t.machine().board().ram_base;
        t.halt().unwrap();
        // Corrupt the image magic without resetting: the core still
        // answers, but a RestoreCore would boot-fail.
        t.machine_mut()
            .reflash_partition("kernel", BROKEN_IMAGE)
            .unwrap();
        let mut txn = Txn::new();
        txn.write_pages(vec![(base + 0x40, b"ghost".to_vec())])
            .restore_core();
        let err = t.run_txn(&txn).unwrap_err();
        assert!(!err.is_connection_loss());
        let mut buf = [0u8; 5];
        t.read_mem(base + 0x40, &mut buf).unwrap();
        assert_eq!(buf, [0u8; 5], "doomed restore batch half-applied");
        assert_eq!(t.txn_partials(), 0);
    }

    #[test]
    fn capture_cost_scales_with_dirty_pages_not_ram_size() {
        let mut t = transport();
        let base = t.machine().board().ram_base;
        t.halt().unwrap();
        let first = t.capture_snapshot().unwrap();
        // Baseline established: a capture with nothing dirty is cheap.
        let before = t.now();
        t.capture_snapshot().unwrap();
        let clean_cost = t.now() - before;
        // Dirty a lot of pages; capture cost must grow with them.
        t.write_mem(base, &vec![0xAAu8; 64 * PAGE_SIZE]).unwrap();
        let before = t.now();
        let snap = t.capture_snapshot().unwrap();
        let dirty_cost = t.now() - before;
        assert!(
            dirty_cost > clean_cost + (64 * PAGE_SIZE as u64) / 8,
            "dirty capture ({dirty_cost}) not clearly dearer than clean ({clean_cost})"
        );
        // And far cheaper than shipping the whole RAM at scalar rates.
        let full_ram_cost = snap.ram_len() as u64 / 4;
        assert!(
            dirty_cost < full_ram_cost,
            "capture ({dirty_cost}) cost as much as a full RAM read ({full_ram_cost})"
        );
        assert_eq!(first.ram_len(), snap.ram_len());
    }

    #[test]
    fn flash_generation_probe_tracks_mutations() {
        let mut t = transport();
        let g0 = t.flash_generation().unwrap();
        t.flash_partition("kernel", b"IMG!other").unwrap();
        let g1 = t.flash_generation().unwrap();
        assert!(g1 > g0);
        let g2 = t.flash_generation().unwrap();
        assert_eq!(g1, g2, "reads must not bump the generation");
    }

    #[test]
    fn scalar_restore_core_restarts_without_reset_charge() {
        let mut t = transport();
        t.halt().unwrap();
        let resets_before = t.machine().reset_count();
        t.restore_core().unwrap();
        assert_eq!(t.machine().reset_count(), resets_before);
        assert!(t.continue_until_halt(100).is_ok());
    }

    fn prime_trace(t: &mut DebugTransport, ids: &[u64]) {
        let bus = t.machine_mut().bus_mut();
        bus.trace.set_enabled(true);
        for &id in ids {
            bus.trace.emit(id, false);
        }
    }

    #[test]
    fn vectored_trace_drain_returns_stream_and_resets_fifo() {
        let mut t = transport();
        prime_trace(&mut t, &[0x42, 0x43, 0x43]);
        t.halt().unwrap();
        let mut txn = Txn::new();
        txn.drain_trace();
        let results = t.run_txn(&txn).unwrap();
        let TxnResult::Bytes(buf) = &results[0] else {
            panic!("expected bytes, got {results:?}");
        };
        let used = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
        assert!(used > 0);
        assert_eq!(buf.len(), 12 + used);
        // The drain reset the FIFO inside the same op.
        let again = t.run_txn(&txn).unwrap();
        let TxnResult::Bytes(empty) = &again[0] else {
            panic!("expected bytes");
        };
        assert_eq!(
            u32::from_le_bytes([empty[0], empty[1], empty[2], empty[3]]),
            0
        );
    }

    #[test]
    fn scalar_and_vectored_trace_drains_return_identical_bytes() {
        let ids: &[u64] = &[7, 7, 9, 0xffff_0001, 9];
        let mut a = transport();
        prime_trace(&mut a, ids);
        a.halt().unwrap();
        let scalar = a.drain_trace().unwrap();
        let mut b = transport();
        prime_trace(&mut b, ids);
        b.halt().unwrap();
        let mut txn = Txn::new();
        txn.drain_trace();
        let results = b.run_txn(&txn).unwrap();
        assert_eq!(results[0], TxnResult::Bytes(scalar));
    }

    /// The stale-header regression (seeded): a batch that drains the
    /// same resource twice would have its second drain observe the
    /// header the first drain already reset — validation refuses the
    /// whole batch with the target untouched, for the trace FIFO and
    /// for a cmplog ring alike.
    #[test]
    fn duplicate_drains_in_one_txn_are_refused_whole() {
        let mut t = transport();
        prime_trace(&mut t, &[1, 2, 3]);
        t.halt().unwrap();
        let base = t.machine().board().ram_base;

        let mut txn = Txn::new();
        txn.drain_trace().drain_trace();
        assert!(matches!(t.run_txn(&txn), Err(DapError::Target(_))));
        // Refused whole: the FIFO still holds every packet.
        assert!(t.machine().bus().trace.used() > 0);

        // Same ring twice: refused. Two distinct rings: fine.
        let mut txn = Txn::new();
        txn.drain_ring(base + 0x100, 4, 8)
            .drain_ring(base + 0x100, 4, 8);
        assert!(matches!(t.run_txn(&txn), Err(DapError::Target(_))));
        let mut txn = Txn::new();
        txn.drain_ring(base + 0x100, 4, 8)
            .drain_ring(base + 0x200, 4, 8)
            .drain_trace();
        assert_eq!(t.run_txn(&txn).unwrap().len(), 3);
    }

    /// A retried trace drain after a dropped submit returns exactly the
    /// bytes a fault-free drain would have: the drop applied nothing, so
    /// no packet is lost or duplicated across the retry.
    #[test]
    fn trace_drain_retry_is_lossless() {
        use crate::retry::{RetryPolicy, RetryStats};
        let ids: &[u64] = &[11, 12, 12, 13];
        let mut clean = transport();
        prime_trace(&mut clean, ids);
        clean.halt().unwrap();
        let mut txn = Txn::new();
        txn.drain_trace();
        let want = clean.run_txn(&txn).unwrap();

        let mut t = transport();
        prime_trace(&mut t, ids);
        t.halt().unwrap();
        let now = t.now();
        t.schedule_outage(now, 100);
        let mut stats = RetryStats::default();
        let got = RetryPolicy::default()
            .run_txn(&mut stats, &mut t, &txn)
            .unwrap();
        assert_eq!(stats.recovered, 1);
        assert_eq!(got, want);
    }

    #[test]
    fn txn_retry_replays_whole_batch() {
        use crate::retry::{RetryPolicy, RetryStats};
        let mut t = transport();
        let base = t.machine().board().ram_base;
        t.halt().unwrap();
        let now = t.now();
        // Outage shorter than the first backoff: attempt 1 drops, the
        // replay applies the whole batch.
        t.schedule_outage(now, 100);
        let mut txn = Txn::new();
        txn.write_mem(base + 0x40, b"retry-me")
            .read_mem(base + 0x40, 8);
        let mut stats = RetryStats::default();
        let results = RetryPolicy::default()
            .run_txn(&mut stats, &mut t, &txn)
            .unwrap();
        assert_eq!(results[1], TxnResult::Bytes(b"retry-me".to_vec()));
        assert_eq!(stats.recovered, 1);
        assert_eq!(t.txn_partials(), 0);
    }

    /// A halted target with a primed trace FIFO and a two-record ring
    /// (8-byte records) at `ram_base + 0x400`: every op of the scalar
    /// lowering has something real to act on.
    fn lowering_fixture(board: eof_hal::BoardSpec) -> (DebugTransport, u32) {
        let mut t = transport_on(board);
        prime_trace(&mut t, &[0x42, 0x43, 0x43, 0x99]);
        t.halt().unwrap();
        let ring = t.machine().board().ram_base + 0x400;
        let e = t.machine().board().endianness;
        let mut header = e.u32_bytes(2).to_vec();
        header.extend_from_slice(&e.u32_bytes(4));
        header.extend_from_slice(&e.u32_bytes(0));
        t.machine_mut().debug_write(ring, &header).unwrap();
        t.machine_mut().debug_write(ring + 12, &[7u8; 16]).unwrap();
        (t, ring)
    }

    /// Run `f` under a telemetry recorder; return its result, the cycles
    /// it charged, and the recorded per-op stats and counters.
    fn recorded<T>(
        t: &mut DebugTransport,
        f: impl FnOnce(&mut DebugTransport) -> T,
    ) -> (T, u64, tel::Registry) {
        let guard = tel::begin();
        let start = t.now();
        let out = f(t);
        (out, t.now() - start, guard.finish())
    }

    /// The cost model's contract: a one-op scalar `Txn` charges exactly
    /// the simulated cycles of the op's dedicated scalar method(s) and
    /// records exactly the same per-op telemetry — on a JTAG board (TAP
    /// scans) and an SWD board alike.
    #[test]
    fn scalar_lowering_charges_each_op_like_its_scalar_method() {
        type Reference = Box<dyn Fn(&mut DebugTransport) -> TxnResult>;
        // Exhaustive on purpose: a new TxnOp variant must join the table.
        let _ = |op: &TxnOp| match op {
            TxnOp::Halt
            | TxnOp::Resume
            | TxnOp::ReadMem { .. }
            | TxnOp::WriteMem { .. }
            | TxnOp::ReadPc
            | TxnOp::SetBreakpoint { .. }
            | TxnOp::ClearBreakpoint { .. }
            | TxnOp::FlashChecksum { .. }
            | TxnOp::FlashWrite { .. }
            | TxnOp::FlashSectorChecksums { .. }
            | TxnOp::FlashWriteSectors { .. }
            | TxnOp::ResetTarget
            | TxnOp::WritePages { .. }
            | TxnOp::RestoreCore
            | TxnOp::DrainRing { .. }
            | TxnOp::DrainTrace => {}
        };
        let done = |r: Result<(), DapError>| {
            r.unwrap();
            TxnResult::Done
        };
        for board in [BoardCatalog::esp32_devkit(), BoardCatalog::stm32f4_disco()] {
            let base = board.ram_base;
            let ring = base + 0x400;
            let bp = 0x0800_0010;
            let pages = vec![
                (base + 0x100, vec![1u8; 32]),
                (base + 0x2000, vec![2u8; 16]),
            ];
            let sectors = vec![(1u32, vec![0xabu8; 64])];
            let mut all = Txn::new();
            all.halt()
                .resume()
                .read_mem(ring, 20)
                .write_mem(base + 0x40, b"lowered")
                .read_pc()
                .set_breakpoint(bp)
                .clear_breakpoint(bp)
                .flash_checksum("kernel")
                .flash_write("kernel", b"IMG!fw2")
                .flash_sector_checksums("kernel", 4)
                .flash_write_sectors("kernel", sectors.clone())
                .reset_target()
                .write_pages(pages.clone())
                .restore_core()
                .drain_ring(ring, 4, 8)
                .drain_trace();
            // Each op's dedicated scalar method(s), in the same order.
            let references: [Reference; 16] = [
                Box::new(move |t| done(t.halt())),
                Box::new(move |t| done(t.resume())),
                Box::new(move |t| {
                    let mut buf = vec![0u8; 20];
                    t.read_mem(ring, &mut buf).unwrap();
                    TxnResult::Bytes(buf)
                }),
                Box::new(move |t| done(t.write_mem(base + 0x40, b"lowered"))),
                Box::new(|t| TxnResult::Pc(t.read_pc().unwrap())),
                Box::new(move |t| done(t.set_breakpoint(bp))),
                Box::new(move |t| done(t.clear_breakpoint(bp))),
                Box::new(|t| TxnResult::Checksum(t.flash_checksum("kernel").unwrap())),
                Box::new(move |t| done(t.flash_partition("kernel", b"IMG!fw2"))),
                Box::new(|t| TxnResult::Checksums(t.flash_sector_checksums("kernel").unwrap())),
                Box::new(move |t| done(t.flash_write_sectors("kernel", &sectors))),
                Box::new(move |t| done(t.reset_target())),
                Box::new(move |t| {
                    for (addr, data) in &pages {
                        t.write_mem(*addr, data).unwrap();
                    }
                    TxnResult::Done
                }),
                Box::new(move |t| done(t.restore_core())),
                // Header, then only the live records, then the two
                // reset writes.
                Box::new(move |t| {
                    let mut raw = vec![0u8; 12];
                    t.read_mem(ring, &mut raw).unwrap();
                    raw.resize(12 + 2 * 8, 0);
                    t.read_mem(ring + 12, &mut raw[12..]).unwrap();
                    t.write_mem(ring, &[0u8; 4]).unwrap();
                    t.write_mem(ring + 8, &[0u8; 4]).unwrap();
                    TxnResult::Bytes(raw)
                }),
                Box::new(|t| TxnResult::Bytes(t.drain_trace().unwrap())),
            ];
            assert_eq!(all.len(), references.len());
            for (op, reference) in all.ops().iter().zip(references) {
                let (mut a, _) = lowering_fixture(board.clone());
                let (want, want_cycles, want_tel) = recorded(&mut a, |t| reference(t));
                let (mut b, _) = lowering_fixture(board.clone());
                let mut txn = Txn::for_wire(false);
                txn.push(op.clone());
                let (got, got_cycles, got_tel) = recorded(&mut b, |t| t.run_txn(&txn).unwrap());
                let ctx = format!("{op:?} on {}", board.name);
                assert_eq!(got, vec![want], "{ctx}: results");
                assert_eq!(got_cycles, want_cycles, "{ctx}: simulated cycles");
                assert_eq!(got_tel.ops, want_tel.ops, "{ctx}: per-op telemetry");
                assert_eq!(got_tel.counters, want_tel.counters, "{ctx}: counters");
                assert!(!got_tel.ops.contains_key("txn"), "{ctx}: recorded a txn op");
                assert_eq!(b.ops(), a.ops(), "{ctx}: round trips");
            }
        }
    }

    /// A link drop between the two ops of a scalar `[DrainTrace,
    /// DrainRing]` is retried at the failed op: the trace drain that
    /// already applied is not replayed (it would come back empty), so
    /// the burst returns exactly the fault-free bytes.
    #[test]
    fn scalar_retry_resumes_at_the_failed_op() {
        use crate::retry::{RetryPolicy, RetryStats};
        let board = BoardCatalog::esp32_devkit();
        let (mut clean, ring) = lowering_fixture(board.clone());
        let mut txn = Txn::for_wire(false);
        txn.drain_trace().drain_ring(ring, 4, 8);
        let want = clean.run_txn(&txn).unwrap();

        // When the trace drain ends, the ring drain's first link check
        // is a few cycles away: an outage starting there hits it alone.
        let (mut probe, _) = lowering_fixture(board.clone());
        let start = probe.now();
        probe.drain_trace().unwrap();
        let trace_cycles = probe.now() - start;

        let (mut t, _) = lowering_fixture(board);
        let now = t.now();
        t.schedule_outage(now + trace_cycles, 100);
        let mut stats = RetryStats::default();
        let (got, _, reg) = recorded(&mut t, |t| {
            RetryPolicy::default().run_txn(&mut stats, t, &txn).unwrap()
        });
        assert_eq!(stats.retries, 1, "{stats:?}");
        assert_eq!(stats.recovered, 1, "{stats:?}");
        assert_eq!(got, want);
        assert_eq!(reg.ops["drain_trace"].count, 1, "trace drained twice");
        assert_eq!(
            reg.ops["read_mem"].errors, 1,
            "the drop hit the ring header read"
        );
        assert_eq!(t.txn_partials(), 0);
    }
}
