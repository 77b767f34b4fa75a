//! One test case, end to end, over the debug port.
//!
//! The executor owns the probe session and implements the host half of
//! the paper's Figure 4: it parks the target at `executor_main()`,
//! writes the encoded prog into the agent's buffer, resumes, services
//! `_kcmp_buf_full` drains, classifies exception halts, catches stalls
//! with the liveness watchdogs (or a bare timeout, for the baselines),
//! and restores the target when it degrades.

use crate::config::FuzzerConfig;
use crate::crash::{triage, CrashReport, DetectionSource};
use crate::supervisor::{RecoveryReason, RecoverySupervisor, ResilienceStats};
use eof_agent::AgentLayout;
use eof_coverage::{
    CmpRecord, CoverageBackend, CoverageKind, CoverageMap, InstrumentMode, InstrumentedRing,
    TraceDecode, TraceStats, CMP_RECORD_BYTES,
};
use eof_dap::{DebugTransport, LinkEvent, RetryPolicy, RetryStats, Txn, TxnResult};
use eof_hal::clock::{secs_to_cycles, CYCLES_PER_SEC};
use eof_hal::Endianness;
use eof_monitors::{
    parse_backtrace, Liveness, LivenessWatchdog, LogMonitor, PowerWatchdog, StateRestoration,
};
use eof_speclang::prog::Prog;
use eof_speclang::wire::{encode_prog, ApiTable, WireOrder};
use eof_telemetry as tel;

/// Budget for one `continue` slice, in cycles.
const SLICE_CYCLES: u64 = 2_000;

/// Maximum slices per execution before the stall machinery engages hard.
const MAX_SLICES: u32 = 24;

/// Cycle threshold above which an execution is journalled as slow
/// (`exec.slow` telemetry event, carrying cycles and call count).
const SLOW_EXEC_CYCLES: u64 = 1_000_000;

/// Outcome of one test-case execution.
#[derive(Debug, Clone, Default)]
pub struct ExecOutcome {
    /// Edges newly discovered by this input.
    pub new_edges: usize,
    /// Total edges observed (including known ones).
    pub edges_hit: usize,
    /// Crash observed during this execution.
    pub crash: Option<CrashReport>,
    /// The target entered a degraded state (stall/timeout).
    pub stalled: bool,
    /// A restoration (reflash/reboot) was performed.
    pub restored: bool,
    /// The debug connection was lost at some point.
    pub target_lost: bool,
    /// Even after recovery the target could not be parked at the sync
    /// point — the execution was skipped (its time was still charged).
    pub sync_failed: bool,
    /// Cycles consumed by this execution, all costs included.
    pub cycles: u64,
    /// Comparison operands drained from the cmplog ring (empty unless
    /// the campaign armed the channel and the exec completed healthy).
    pub cmp_records: Vec<CmpRecord>,
    /// The coverage channel lost events this exec (ring records
    /// dropped, trace FIFO overflow, or a drain discarded whole): the
    /// edges observed are valid, but absence proves nothing.
    pub cov_partial: bool,
}

/// The host-side executor bound to one probe session.
pub struct Executor {
    transport: DebugTransport,
    config: FuzzerConfig,
    layout: AgentLayout,
    order: WireOrder,
    api_table: ApiTable,
    main_addr: u32,
    buf_full_addr: u32,
    exception_addr: Option<u32>,
    log_monitor: LogMonitor,
    watchdog: LivenessWatchdog,
    power_watchdog: PowerWatchdog,
    restoration: StateRestoration,
    supervisor: RecoverySupervisor,
    retry: RetryPolicy,
    link_retry: RetryStats,
    cov_map: CoverageMap,
    /// How edge ids leave the device: the instrumented ring or the
    /// hardware trace stream. The fuzzing loop never looks past this.
    backend: Box<dyn CoverageBackend + Send>,
    /// Sticky per-exec flag: a drain this exec reported loss.
    cov_partial_pending: bool,
    /// Trace-decoder stats already surfaced to telemetry (the decoder
    /// counts lifetime totals; we emit per-exec deltas).
    trace_seen: TraceStats,
    at_main: bool,
    execs: u64,
    restorations: u64,
    stall_events: u64,
    failed_syncs: u64,
    cmp_discards: u64,
    cov_discards: u64,
}

impl Executor {
    /// Bind an executor to a booted target. Arms the sync and monitor
    /// breakpoints and parks the target at `executor_main`.
    pub fn new(
        mut transport: DebugTransport,
        config: FuzzerConfig,
        api_table: ApiTable,
        restoration: StateRestoration,
    ) -> Result<Self, eof_dap::DapError> {
        // A mismatched board descriptor silently mis-addresses every
        // RAM transaction; fail loudly instead.
        if transport.machine().board().name != config.board.name {
            return Err(eof_dap::DapError::Protocol(format!(
                "config board {:?} does not match attached target {:?}",
                config.board.name,
                transport.machine().board().name
            )));
        }
        let layout = AgentLayout::for_board(&config.board);
        let order = eof_agent::wire_order_of(&config.board);
        let main_addr = transport
            .symbol("executor_main")
            .ok_or_else(|| eof_dap::DapError::Protocol("no executor_main symbol".into()))?;
        let buf_full_addr = transport
            .symbol("_kcmp_buf_full")
            .ok_or_else(|| eof_dap::DapError::Protocol("no _kcmp_buf_full symbol".into()))?;
        let exception_addr = if config.detection.exception_breakpoints {
            let kernel = eof_rtos::registry::make_kernel(config.os);
            let addr = transport.symbol(kernel.exception_symbol()).ok_or_else(|| {
                eof_dap::DapError::Protocol("no exception symbol on target".into())
            })?;
            Some(addr)
        } else {
            None
        };
        // What the flashed image actually carries: a trace-backend
        // campaign flashes the plain build, so the `_kcmp_buf_full`
        // trap never fires and must not be armed.
        // Arm the sync and monitor breakpoints in one burst.
        let mut txn = Txn::for_wire(config.vectored);
        txn.set_breakpoint(main_addr);
        if config.effective_instrument() != InstrumentMode::None {
            txn.set_breakpoint(buf_full_addr);
        }
        if let Some(addr) = exception_addr {
            txn.set_breakpoint(addr);
        }
        transport.run_txn(&txn)?;
        let backend: Box<dyn CoverageBackend + Send> = match config.coverage_backend {
            CoverageKind::Ring => Box::new(InstrumentedRing::new(layout.cov)),
            CoverageKind::Trace => {
                // Arm the trace unit once per session; the latch lives
                // in the debug power domain and survives every reset
                // the recovery ladder can throw at the target.
                transport.trace_set_enabled(true)?;
                Box::new(TraceDecode::new())
            }
        };
        let supervisor = RecoverySupervisor::for_policy(&config.recovery);
        let mut restoration = restoration;
        restoration.set_vectored(config.vectored);
        restoration.set_snapshot_mode(config.snapshot);
        let mut exec = Executor {
            transport,
            config,
            layout,
            order,
            api_table,
            main_addr,
            buf_full_addr,
            exception_addr,
            log_monitor: LogMonitor::new(),
            watchdog: LivenessWatchdog::new(),
            power_watchdog: PowerWatchdog::new(),
            restoration,
            supervisor,
            retry: RetryPolicy::default(),
            link_retry: RetryStats::default(),
            cov_map: CoverageMap::new(),
            backend,
            cov_partial_pending: false,
            trace_seen: TraceStats::default(),
            at_main: false,
            execs: 0,
            restorations: 0,
            stall_events: 0,
            failed_syncs: 0,
            cmp_discards: 0,
            cov_discards: 0,
        };
        exec.sync_to_main();
        Ok(exec)
    }

    /// The accumulated coverage map.
    pub fn coverage(&self) -> &CoverageMap {
        &self.cov_map
    }

    /// Mutable coverage access (for snapshots).
    pub fn coverage_mut(&mut self) -> &mut CoverageMap {
        &mut self.cov_map
    }

    /// Executions completed.
    pub fn execs(&self) -> u64 {
        self.execs
    }

    /// Restorations performed.
    pub fn restorations(&self) -> u64 {
        self.restorations
    }

    /// Stall/timeout events handled.
    pub fn stall_events(&self) -> u64 {
        self.stall_events
    }

    /// Syncs that failed even after a full recovery episode.
    pub fn failed_syncs(&self) -> u64 {
        self.failed_syncs
    }

    /// Cmp-ring drains discarded because the transaction never applied
    /// (counted, never silently swallowed — the arming header written
    /// with the next upload guarantees the ring restarts empty).
    pub fn cmp_discards(&self) -> u64 {
        self.cmp_discards
    }

    /// Coverage drains discarded whole because the transaction could
    /// not be confirmed applied even after retries (counted, never
    /// silently swallowed; the exec is marked coverage-partial).
    pub fn cov_discards(&self) -> u64 {
        self.cov_discards
    }

    /// Which coverage channel this executor acquires edges over.
    pub fn coverage_kind(&self) -> CoverageKind {
        self.backend.kind()
    }

    /// Lifetime trace-decoder statistics (all-zero on the ring
    /// backend, which has no decoder).
    pub fn trace_stats(&self) -> TraceStats {
        self.backend.stats()
    }

    /// Combined resilience accounting: supervisor ladder counters plus
    /// the link-layer retry totals and failed syncs.
    pub fn resilience(&self) -> ResilienceStats {
        let mut stats = *self.supervisor.stats();
        stats.link.absorb(&self.link_retry);
        stats.failed_syncs = self.failed_syncs;
        stats.txn_partial = self.transport.txn_partials();
        stats
    }

    /// Current simulated time in hours.
    pub fn now_hours(&self) -> f64 {
        self.transport.now() as f64 / (CYCLES_PER_SEC as f64 * 3600.0)
    }

    /// Current simulated time in cycles.
    pub fn now(&self) -> u64 {
        self.transport.now()
    }

    /// The probe session (tests).
    pub fn transport_mut(&mut self) -> &mut DebugTransport {
        &mut self.transport
    }

    /// Raise a peripheral interrupt on the target (the §6 extension).
    pub fn inject_peripheral_event(&mut self, line: u8, payload: Vec<u8>) {
        self.transport.inject_irq(line, payload);
    }

    /// Try to park the target at `executor_main` — the supervisor's
    /// health verify as well as the inter-exec sync. Intermediate
    /// breakpoint hits (coverage drains during boot) are tolerated; two
    /// consecutive budget-exhausted slices mean the target is running
    /// but not getting there (hung), and a dead target fails fast.
    fn park_at_main(pipe: &mut DebugTransport, main_addr: u32) -> bool {
        let mut still = 0u32;
        for _ in 0..8 {
            match pipe.continue_until_halt(8 * SLICE_CYCLES) {
                Ok(LinkEvent::BreakpointHit { pc }) if pc == main_addr => return true,
                Ok(LinkEvent::BreakpointHit { .. }) | Ok(LinkEvent::WatchdogReset) => {
                    still = 0;
                }
                Ok(LinkEvent::StillRunning) => {
                    still += 1;
                    if still >= 2 {
                        return false;
                    }
                }
                Ok(LinkEvent::TargetDead) | Err(_) => return false,
            }
        }
        false
    }

    /// Park the target at `executor_main`, recovering if necessary.
    /// A sync that fails even after a full supervisor episode is counted
    /// and surfaced — never swallowed.
    fn sync_to_main(&mut self) {
        if Self::park_at_main(&mut self.transport, self.main_addr) {
            self.at_main = true;
            self.rearm_snapshot();
            return;
        }
        self.recover(RecoveryReason::ConnectionLoss);
        if !self.at_main {
            self.failed_syncs += 1;
            tel::count("exec.failed_syncs", 1);
        }
    }

    /// (Re-)capture the board snapshot when the armed one no longer
    /// belongs to the current boot. Every reset is host-initiated, so
    /// the boot-epoch comparison is free host-side bookkeeping: in the
    /// fault-free steady state this never captures and the snapshot
    /// path costs nothing. Flash drift within an epoch is caught by the
    /// supervisor's recovery-time generation probe instead.
    fn rearm_snapshot(&mut self) {
        if !self.config.snapshot || !self.at_main {
            return;
        }
        if self.restoration.snapshot_current_epoch(&self.transport) {
            return;
        }
        let _ = self.restoration.capture_snapshot(&mut self.transport);
    }

    /// Run one supervisor recovery episode. The episode climbs the
    /// restoration ladder until the target verifies healthy (parked at
    /// `executor_main`) or escalates to manual intervention; either way
    /// `at_main` reflects the verified end state.
    fn recover(&mut self, reason: RecoveryReason) {
        self.restorations += 1;
        let main_addr = self.main_addr;
        let outcome =
            self.supervisor
                .recover(reason, &mut self.transport, &mut self.restoration, |pipe| {
                    Self::park_at_main(pipe, main_addr)
                });
        self.at_main = outcome.parked;
        self.watchdog.reset();
        // Whatever rung acted, the device side of the coverage stream
        // was quiesced (reset, restore and power-cycle all flush the
        // trace FIFO; a reboot re-arms the ring): drop the host
        // decoder's cross-drain state to match.
        self.backend.reset_stream();
        self.rearm_snapshot();
    }

    /// Is any coverage channel live? The ring needs hooks compiled into
    /// the image; the trace unit watches the core itself and works on
    /// the plain build.
    fn cov_active(&self) -> bool {
        match self.backend.kind() {
            CoverageKind::Trace => true,
            CoverageKind::Ring => self.config.instrument != InstrumentMode::None,
        }
    }

    /// Decode one raw drain through the backend, folding its loss flag
    /// into the exec's coverage-partial marker. Observed edges stay
    /// valid either way; absence proves nothing once events were lost.
    fn ingest(&mut self, raw: &[u8], endian: Endianness) -> Vec<u64> {
        let drained = self.backend.decode_drain(raw, endian);
        if drained.partial() {
            self.cov_partial_pending = true;
        }
        drained.edges
    }

    /// A coverage drain that could not be confirmed applied is
    /// discarded whole — counted, marked partial, and the decoder's
    /// cross-drain state dropped (an attempt may have consumed the
    /// device FIFO with its reply lost, so the stream position is no
    /// longer trustworthy; the decoder re-locks at the next SYNC).
    fn discard_cov_drain(&mut self) -> Vec<u64> {
        self.cov_discards += 1;
        self.cov_partial_pending = true;
        tel::count("exec.cov_discarded", 1);
        self.backend.reset_stream();
        Vec::new()
    }

    /// Drain the device's observation channels in one burst: the
    /// coverage backend's drain op (an atomic trace drain, or a ring
    /// header peek) and, when `with_cmp`, the cmplog ring's atomic
    /// `DrainRing` riding the same burst — so the comparison channel
    /// costs no extra wire conversation. A non-empty ring takes a second
    /// burst: its records plus the reset. Transient link drops are
    /// retried at the link layer; a channel whose drain still could not
    /// be confirmed applied is discarded whole and counted, never
    /// silently lost.
    fn drain(&mut self, with_cmp: bool) -> (Vec<u64>, Vec<CmpRecord>) {
        let cov_span = tel::span_start("exec.cov_drain", self.transport.now());
        let cmp_span = with_cmp.then(|| tel::span_start("exec.cmp_drain", self.transport.now()));
        let cov = self.cov_active();
        let ring = self.backend.kind() == CoverageKind::Ring;
        let (cov_region, cmp) = (self.layout.cov, self.layout.cmp);
        let (vectored, endian) = (self.config.vectored, self.config.board.endianness);
        let policy = self.retry;
        let mut txn = Txn::for_wire(vectored);
        if cov && ring {
            txn.read_mem(cov_region.base, 12);
        } else if cov {
            txn.drain_trace();
        }
        if with_cmp {
            txn.drain_ring(cmp.base, cmp.capacity, CMP_RECORD_BYTES);
        }
        let mut results = policy
            .run_txn(&mut self.link_retry, &mut self.transport, &txn)
            .unwrap_or_default()
            .into_iter();
        let mut next_bytes = || match results.next() {
            Some(TxnResult::Bytes(raw)) => Some(raw),
            _ => None,
        };
        let cov_raw = if cov { next_bytes() } else { None };
        let cmp_raw = if with_cmp { next_bytes() } else { None };
        let records = match cmp_raw {
            Some(raw) => {
                let (records, overflow) = cmp.parse_drain(&raw, endian);
                if overflow > 0 {
                    tel::count("exec.cmp_overflow", overflow as u64);
                }
                records
            }
            None if with_cmp => self.discard_cmp_drain(),
            None => Vec::new(),
        };
        let edges = match cov_raw {
            Some(header) if ring => {
                let count = endian
                    .u32_from([header[0], header[1], header[2], header[3]])
                    .min(cov_region.capacity);
                if count == 0 {
                    // Nothing buffered, nothing to reset.
                    Vec::new()
                } else {
                    // The one wire-mode-aware choice in the drain: a
                    // vectored burst re-reads the header with the records
                    // as one auto-incrementing block, while a scalar read
                    // fetches only the records behind the header the
                    // host already holds. Each keeps its mode's cycles
                    // exact; the bytes decoded are the same either way.
                    // The core stays halted across both bursts and a
                    // dropped step applies nothing, so the peeked count
                    // still holds when a record read is retried.
                    let skip = if vectored { 0 } else { 12 };
                    let zero = endian.u32_bytes(0);
                    let mut txn = Txn::for_wire(vectored);
                    txn.read_mem(cov_region.base + skip, 12 - skip + count * 8)
                        .write_mem(cov_region.base, &zero)
                        .write_mem(cov_region.base + 8, &zero);
                    match policy
                        .run_txn(&mut self.link_retry, &mut self.transport, &txn)
                        .map(|results| results.into_iter().next())
                    {
                        Ok(Some(TxnResult::Bytes(tail))) => {
                            self.ingest(&[&header[..skip as usize], &tail[..]].concat(), endian)
                        }
                        _ => self.discard_cov_drain(),
                    }
                }
            }
            Some(raw) => self.ingest(&raw, endian),
            None if cov => self.discard_cov_drain(),
            None => Vec::new(),
        };
        if let Some(span) = cmp_span {
            tel::span_end(span, self.transport.now());
        }
        tel::span_end(cov_span, self.transport.now());
        if !records.is_empty() {
            tel::count("exec.cmp_records", records.len() as u64);
        }
        (edges, records)
    }

    /// A cmp-ring drain that could not be confirmed applied is counted
    /// and dropped — never a half-parsed journal entry; the next exec's
    /// arming header restarts the ring empty regardless.
    fn discard_cmp_drain(&mut self) -> Vec<CmpRecord> {
        self.cmp_discards += 1;
        tel::count("exec.cmp_discarded", 1);
        Vec::new()
    }

    /// Apply the coverage observability model (GDBFuzz's rotating
    /// hardware breakpoints see only a deterministic subset of edges).
    fn observe(&self, edges: Vec<u64>) -> Vec<u64> {
        let f = self.config.cov_observe_fraction.clamp(0.0, 1.0);
        if f >= 1.0 {
            return edges;
        }
        let threshold = (f * 1024.0) as u64;
        edges
            .into_iter()
            .filter(|e| {
                // Deterministic per-edge visibility: an edge either has a
                // breakpoint slot in the rotation or it does not.
                let h = (e ^ self.config.seed).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 54;
                h < threshold
            })
            .collect()
    }

    /// Harvest UART output into the log monitor; returns matched lines.
    fn scan_uart(&mut self) -> Vec<eof_monitors::LogHit> {
        let bytes = self.transport.drain_uart();
        self.log_monitor.feed(&bytes)
    }

    /// Build a crash report from the current banner tail.
    fn crash_from_banner(&mut self, source: DetectionSource, prog: &Prog) -> CrashReport {
        let span = tel::span_start("exec.triage", self.transport.now());
        let report = self.crash_from_banner_inner(source, prog);
        tel::span_end(span, self.transport.now());
        report
    }

    fn crash_from_banner_inner(&mut self, source: DetectionSource, prog: &Prog) -> CrashReport {
        let tail: Vec<String> = self.log_monitor.tail().to_vec();
        let backtrace = parse_backtrace(&tail);
        // The banner's headline: the most recent crash-looking line that
        // is not a frame line.
        let message = tail
            .iter()
            .rev()
            .find(|l| !l.starts_with("Level:") && !l.starts_with("Stack frames"))
            .cloned()
            .unwrap_or_else(|| "crash".to_string());
        let bug = triage(self.config.os, &message, &backtrace).or_else(|| {
            tail.iter()
                .rev()
                .find_map(|l| triage(self.config.os, l, &backtrace))
        });
        CrashReport {
            os: self.config.os,
            message,
            backtrace,
            source,
            prog: prog.clone(),
            at_hours: self.now_hours(),
            bug,
        }
    }

    /// Execute one prog. This is the body of the fuzzing loop.
    pub fn run_one(&mut self, prog: &Prog) -> ExecOutcome {
        let span = tel::span_start("exec", self.transport.now());
        let outcome = self.run_one_inner(prog);
        tel::span_end(span, self.transport.now());
        outcome
    }

    fn run_one_inner(&mut self, prog: &Prog) -> ExecOutcome {
        let start = self.transport.now();
        let mut outcome = ExecOutcome::default();
        let mut all_edges: Vec<u64> = Vec::new();
        self.cov_partial_pending = false;
        // Scope crash attribution to this execution: stale banner lines
        // from an earlier test case must not leak into this one's
        // backtrace recovery.
        self.log_monitor.clear_tail();

        if !self.at_main {
            self.sync_to_main();
            if !self.at_main {
                // Target unreachable even after a full supervisor
                // episode; give up on this exec (time was charged) and
                // surface the failed sync instead of swallowing it.
                outcome.restored = true;
                outcome.target_lost = true;
                outcome.sync_failed = true;
                outcome.cycles = self.transport.now() - start;
                return outcome;
            }
        }

        // Upload the prog. Transient link drops are retried at the link
        // layer; only a persistent loss escalates to the supervisor.
        let translate_span = tel::span_start("exec.translate", self.transport.now());
        let encoded = encode_prog(prog, &self.api_table, self.order);
        tel::span_end(translate_span, self.transport.now());
        let Ok(bytes) = encoded else {
            outcome.cycles = self.transport.now() - start;
            return outcome;
        };
        let endian = self.config.board.endianness;
        let len_bytes = endian.u32_bytes(bytes.len() as u32);
        let prog_addr = self.layout.prog_addr;
        let policy = self.retry;
        // Cmplog campaigns arm the operand ring alongside the upload: a
        // fresh header (count 0, capacity set) every exec, so the ring
        // starts empty even if the previous drain was lost. Without
        // cmplog no extra bytes touch the wire — the exec is
        // bit-identical to the pre-cmplog pipeline.
        let armed_header = self
            .config
            .cmplog
            .then(|| self.layout.cmp.armed_header(endian));
        // Length word, prog body (and arming header) land in one burst.
        let mut txn = Txn::for_wire(self.config.vectored);
        txn.write_mem(prog_addr, &len_bytes)
            .write_mem(prog_addr + 4, &bytes);
        if let Some(header) = armed_header.as_ref() {
            txn.write_mem(self.layout.cmp.base, header);
        }
        let uploaded = policy
            .run_txn(&mut self.link_retry, &mut self.transport, &txn)
            .is_ok();
        if !uploaded {
            self.recover(RecoveryReason::ConnectionLoss);
            outcome.restored = true;
            outcome.target_lost = true;
            outcome.cycles = self.transport.now() - start;
            return outcome;
        }
        self.at_main = false;

        let mut crashed_this_exec = false;
        let mut parked_hits = 0u32;
        let mut slices = 0u32;
        loop {
            slices += 1;
            if slices > MAX_SLICES {
                // Pathologically long execution: treat as degraded.
                self.stall_events += 1;
                outcome.stalled = true;
                let _ = self.scan_uart();
                self.recover(RecoveryReason::Stall);
                outcome.restored = true;
                break;
            }
            // Transient link errors on the continue are retried at the
            // link layer (re-issuing a resume is idempotent); only a
            // persistent loss reaches the supervisor below.
            let step = policy.run(&mut self.link_retry, &mut self.transport, |p| {
                p.continue_until_halt(SLICE_CYCLES)
            });
            match step {
                Ok(LinkEvent::BreakpointHit { pc }) if pc == self.main_addr => {
                    // Prog finished.
                    self.at_main = true;
                    break;
                }
                Ok(LinkEvent::BreakpointHit { pc }) if pc == self.buf_full_addr => {
                    all_edges.extend(self.drain(false).0);
                    continue;
                }
                Ok(LinkEvent::BreakpointHit { pc })
                    if Some(pc) == self.exception_addr && !crashed_this_exec =>
                {
                    crashed_this_exec = true;
                    // Let the handler print its banner: the banner steps
                    // keep the PC on the handler, so each one re-halts.
                    for _ in 0..12 {
                        match self.transport.continue_until_halt(64) {
                            Ok(LinkEvent::BreakpointHit { pc: p })
                                if Some(p) == self.exception_addr =>
                            {
                                continue
                            }
                            _ => break,
                        }
                    }
                    let _ = self.scan_uart();
                    // Crash-path coverage matters (the paper feeds crash
                    // signals back as guidance): drain before anything
                    // resets the buffer.
                    all_edges.extend(self.drain(false).0);
                    let report = self.crash_from_banner(DetectionSource::ExceptionMonitor, prog);
                    outcome.crash = Some(report);
                    continue;
                }
                Ok(LinkEvent::BreakpointHit { pc }) if Some(pc) == self.exception_addr => {
                    // Still parked in the handler after reporting. A
                    // recoverable fault walks out within a couple of
                    // resumes; a hanging one never does — apply the
                    // configured liveness channel to decide how fast the
                    // campaign notices.
                    parked_hits += 1;
                    if parked_hits < 3 {
                        continue;
                    }
                    let declare = if self.config.recovery.stall_watchdog {
                        // Algorithm 1's PC check: the PC has provably not
                        // left the handler across three resumes.
                        true
                    } else if self.config.recovery.power_liveness {
                        self.power_watchdog
                            .check(&mut self.transport)
                            .is_liveness_issue()
                    } else if let Some(secs) = self.config.detection.timeout_only_secs {
                        self.transport.now() - start >= secs_to_cycles(secs)
                    } else {
                        false
                    };
                    if declare {
                        self.stall_events += 1;
                        outcome.stalled = true;
                        all_edges.extend(self.drain(false).0);
                        let _ = self.scan_uart();
                        self.recover(RecoveryReason::Stall);
                        outcome.restored = true;
                        break;
                    }
                    continue;
                }
                Ok(LinkEvent::BreakpointHit { .. }) => continue,
                Ok(LinkEvent::WatchdogReset) => {
                    outcome.stalled = true;
                    self.at_main = false;
                    break;
                }
                Ok(LinkEvent::StillRunning) => {
                    if self.config.recovery.power_liveness && !self.config.recovery.stall_watchdog {
                        // §6 extension: the current probe spots plateaus
                        // (spin loops) and idle draw (dead core) without
                        // touching the debug link.
                        if self
                            .power_watchdog
                            .check(&mut self.transport)
                            .is_liveness_issue()
                        {
                            self.stall_events += 1;
                            outcome.stalled = true;
                            let hits = self.scan_uart();
                            if self.config.detection.log_monitor {
                                if let Some(hit) = hits.first() {
                                    let mut report =
                                        self.crash_from_banner(DetectionSource::LogMonitor, prog);
                                    report.message = hit.line.clone();
                                    report.bug =
                                        triage(self.config.os, &hit.line, &report.backtrace)
                                            .or(report.bug);
                                    outcome.crash = Some(report);
                                }
                            }
                            self.recover(RecoveryReason::Stall);
                            outcome.restored = true;
                            break;
                        }
                        continue;
                    }
                    if self.config.recovery.stall_watchdog {
                        match self.watchdog.check(&mut self.transport) {
                            Liveness::Alive => continue,
                            verdict @ (Liveness::Stalled { .. } | Liveness::ConnectionTimeout) => {
                                self.stall_events += 1;
                                outcome.stalled = true;
                                all_edges.extend(self.drain(false).0);
                                let hits = self.scan_uart();
                                if self.config.detection.log_monitor {
                                    if let Some(hit) = hits.first() {
                                        let mut report = self
                                            .crash_from_banner(DetectionSource::LogMonitor, prog);
                                        report.message = hit.line.clone();
                                        report.bug =
                                            triage(self.config.os, &hit.line, &report.backtrace)
                                                .or(report.bug);
                                        outcome.crash = Some(report);
                                    }
                                }
                                // Algorithm 1 distinguishes the two
                                // liveness failures; so does the ladder.
                                let reason = match verdict {
                                    Liveness::ConnectionTimeout => RecoveryReason::ConnectionLoss,
                                    _ => RecoveryReason::Stall,
                                };
                                self.recover(reason);
                                outcome.restored = true;
                                break;
                            }
                        }
                    } else if let Some(secs) = self.config.detection.timeout_only_secs {
                        // Timeout-only liveness: keep burning slices until
                        // the patience runs out.
                        if self.transport.now() - start >= secs_to_cycles(secs) {
                            self.stall_events += 1;
                            outcome.stalled = true;
                            all_edges.extend(self.drain(false).0);
                            // Offline triage of whatever the UART holds.
                            let _ = self.scan_uart();
                            let tail = self.log_monitor.tail().to_vec();
                            let crash_line = tail.iter().rev().find(|l| {
                                eof_monitors::PatternSet::default_crash_patterns()
                                    .first_match(l)
                                    .is_some()
                            });
                            if let Some(line) = crash_line {
                                let backtrace = parse_backtrace(&tail);
                                let bug = triage(self.config.os, line, &backtrace);
                                outcome.crash = Some(CrashReport {
                                    os: self.config.os,
                                    message: line.clone(),
                                    backtrace,
                                    source: DetectionSource::Timeout,
                                    prog: prog.clone(),
                                    at_hours: self.now_hours(),
                                    bug,
                                });
                            }
                            self.recover(RecoveryReason::Stall);
                            outcome.restored = true;
                            break;
                        }
                        continue;
                    } else {
                        // No stall detection at all: rely on MAX_SLICES.
                        continue;
                    }
                }
                Ok(LinkEvent::TargetDead) | Err(_) => {
                    outcome.target_lost = true;
                    outcome.stalled = true;
                    let _ = self.scan_uart();
                    self.recover(RecoveryReason::ConnectionLoss);
                    outcome.restored = true;
                    break;
                }
            }
        }

        // Final drain (healthy completion path). The operand ring rides
        // the coverage drain's burst; degraded paths skip it
        // deliberately: a restoration wipes the ring with the rest of
        // board state anyway.
        if self.at_main {
            let (edges, records) = self.drain(self.config.cmplog);
            all_edges.extend(edges);
            outcome.cmp_records = records;
        }

        // Log monitor on the healthy path too (non-hanging assert spam).
        let hits = self.scan_uart();
        if self.config.detection.log_monitor && outcome.crash.is_none() {
            if let Some(hit) = hits.first() {
                let mut report = self.crash_from_banner(DetectionSource::LogMonitor, prog);
                report.message = hit.line.clone();
                report.bug = triage(self.config.os, &hit.line, &report.backtrace).or(report.bug);
                outcome.crash = Some(report);
            }
        }

        let observed = self.observe(all_edges);
        outcome.edges_hit = observed.len();
        outcome.new_edges = self.cov_map.merge(&observed);
        outcome.cov_partial = self.cov_partial_pending;
        if outcome.cov_partial {
            tel::count("exec.cov_partial", 1);
        }
        self.execs += 1;

        // Surface the trace decoder's per-exec deltas (its counters are
        // lifetime totals). Zero-cost on the ring backend: its stats
        // are all-zero and nothing is emitted.
        let stats = self.backend.stats();
        for (name, v) in [
            ("cov.trace.packets", stats.packets - self.trace_seen.packets),
            ("cov.trace.bytes", stats.bytes - self.trace_seen.bytes),
            (
                "cov.trace.overflow",
                stats.overflows - self.trace_seen.overflows,
            ),
            ("cov.trace.resyncs", stats.resyncs - self.trace_seen.resyncs),
        ] {
            if v > 0 {
                tel::count(name, v);
            }
        }
        self.trace_seen = stats;

        // Drain the MMIO-plane counters once per exec so campaign totals
        // are exact; a restoration wipes the space's stats with the rest
        // of the board state, so anything not drained here is gone.
        let mmio = self.transport.machine_mut().bus_mut().mmio.take_stats();
        for (name, v) in [
            ("mmio.reads", mmio.reads),
            ("mmio.replay_hits", mmio.replay_hits),
            ("mmio.inject_bytes", mmio.inject_bytes),
            ("mmio.irq.spi", mmio.irq_spi),
            ("mmio.irq.i2c", mmio.irq_i2c),
            ("mmio.irq.dma", mmio.irq_dma),
        ] {
            if v > 0 {
                tel::count(name, v);
            }
        }

        // Baseline execution-cost model (QEMU TCG, semihosting traps).
        let spent = self.transport.now() - start;
        if self.config.exec_cost_multiplier > 1.0 {
            let extra = ((self.config.exec_cost_multiplier - 1.0) * spent as f64) as u64;
            self.transport.sleep(extra);
        }
        outcome.cycles = self.transport.now() - start;
        if outcome.cycles >= SLOW_EXEC_CYCLES {
            tel::count("exec.slow", 1);
            tel::event("exec.slow", self.transport.now(), || {
                format!("cycles={} calls={}", outcome.cycles, prog.calls.len())
            });
        }

        if !self.at_main {
            self.sync_to_main();
        }
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DetectionConfig, FuzzerConfig};
    use eof_agent::{api_table_of, boot_machine};
    use eof_dap::LinkConfig;
    use eof_monitors::{parse_kconfig, render_kconfig};
    use eof_rtos::image::build_image;
    use eof_rtos::OsKind;
    use eof_speclang::prog::{ArgValue, Call};

    fn executor_for(config: FuzzerConfig) -> Executor {
        // What the campaign would flash: the plain build when the trace
        // backend is selected, the instrumented build otherwise.
        let instrument = config.effective_instrument();
        let image = build_image(config.os, config.profile, &instrument);
        let machine = boot_machine(config.board.clone(), config.os, config.profile, &instrument);
        let kconfig = parse_kconfig(&render_kconfig("arm", machine.flash().table())).unwrap();
        let restoration = StateRestoration::from_kconfig(
            &kconfig,
            config.board.flash_size,
            vec![("kernel".to_string(), image)],
        )
        .unwrap();
        let transport = DebugTransport::attach(machine, LinkConfig::default());
        let table = api_table_of(config.os);
        Executor::new(transport, config, table, restoration).unwrap()
    }

    fn call(api: &str, args: Vec<ArgValue>) -> Call {
        Call {
            api: api.into(),
            args,
        }
    }

    #[test]
    fn healthy_prog_executes_and_covers() {
        let mut e = executor_for(FuzzerConfig::eof(OsKind::FreeRtos, 1));
        let prog = Prog {
            mmio: vec![],
            calls: vec![
                call("xQueueCreate", vec![ArgValue::Int(4), ArgValue::Int(16)]),
                call(
                    "xQueueSend",
                    vec![ArgValue::ResourceRef(0), ArgValue::Buffer(vec![1, 2, 3])],
                ),
                call(
                    "json_parse",
                    vec![ArgValue::Buffer(br#"{"a":[1,2]}"#.to_vec())],
                ),
            ],
        };
        let out = e.run_one(&prog);
        assert!(out.crash.is_none(), "{:?}", out.crash);
        assert!(!out.stalled);
        assert!(out.new_edges > 0, "no coverage observed");
        assert_eq!(e.execs(), 1);
        // Re-running the same prog finds nothing new.
        let out2 = e.run_one(&prog);
        assert_eq!(out2.new_edges, 0);
        assert!(out2.edges_hit > 0);
    }

    #[test]
    fn exception_bug_is_caught_and_triaged() {
        let mut e = executor_for(FuzzerConfig::eof(OsKind::FreeRtos, 2));
        let prog = Prog {
            mmio: vec![],
            calls: vec![call(
                "load_partitions",
                vec![ArgValue::Int(3), ArgValue::Int(0x10)],
            )],
        };
        let out = e.run_one(&prog);
        let crash = out.crash.expect("crash detected");
        assert_eq!(crash.source, DetectionSource::ExceptionMonitor);
        assert_eq!(crash.bug.map(|b| b.number()), Some(13));
        assert!(crash
            .backtrace
            .iter()
            .any(|f| f.contains("load_partitions")));
        // Recoverable fault: no restoration needed.
        assert!(!out.restored);
        // The target keeps fuzzing.
        let out2 = e.run_one(&Prog {
            mmio: vec![],
            calls: vec![call("json_parse", vec![ArgValue::Buffer(b"[]".to_vec())])],
        });
        assert!(out2.crash.is_none());
    }

    #[test]
    fn hanging_bug_is_caught_by_log_monitor_and_restored() {
        let mut e = executor_for(FuzzerConfig::eof(OsKind::RtThread, 3));
        // Bug #8: assert + hang; detection class is the log monitor.
        let prog = Prog {
            mmio: vec![],
            calls: vec![call(
                "rt_object_init",
                vec![ArgValue::Int(6), ArgValue::CString(String::new())],
            )],
        };
        let out = e.run_one(&prog);
        let crash = out.crash.expect("crash detected");
        assert_eq!(crash.source, DetectionSource::LogMonitor);
        assert_eq!(crash.bug.map(|b| b.number()), Some(8));
        assert!(out.stalled);
        assert!(out.restored);
        // Target restored and fuzzing continues.
        let out2 = e.run_one(&Prog {
            mmio: vec![],
            calls: vec![call("rt_malloc", vec![ArgValue::Int(64)])],
        });
        assert!(out2.crash.is_none(), "{:?}", out2.crash);
        assert!(e.restorations() >= 1);
    }

    #[test]
    fn legit_hang_is_degraded_state_not_bug() {
        let mut e = executor_for(FuzzerConfig::eof(OsKind::Zephyr, 4));
        // A K_FOREVER get on an empty queue is bounded by the agent and
        // is NOT a degraded state.
        let bounded = Prog {
            mmio: vec![],
            calls: vec![
                call(
                    "k_msgq_alloc_init",
                    vec![ArgValue::Int(4), ArgValue::Int(16)],
                ),
                call(
                    "z_impl_k_msgq_get",
                    vec![ArgValue::ResourceRef(0), ArgValue::Int(u64::MAX)],
                ),
            ],
        };
        let out = e.run_one(&bounded);
        assert!(!out.stalled);
        assert!(out.crash.is_none(), "{:?}", out.crash);
        // A frozen core (injected execution stall) IS a degraded state:
        // the watchdog recovers it without calling it a bug.
        e.transport_mut().machine_mut().set_fault_plan(
            eof_hal::FaultPlan::none().at(10, eof_hal::InjectedFault::FreezeFirmware),
        );
        let out = e.run_one(&bounded);
        assert!(out.stalled);
        assert!(out.restored);
        assert!(out.crash.is_none(), "{:?}", out.crash);
        assert!(e.stall_events() >= 1);
    }

    #[test]
    fn reset_rung_recovers_frozen_firmware() {
        use crate::supervisor::Rung;
        let mut cfg = FuzzerConfig::eof(OsKind::FreeRtos, 31);
        // With the snapshot fast path armed, SnapshotRestore would absorb
        // the episode before Reset ever runs; disable it to exercise the
        // reboot rung in isolation.
        cfg.snapshot = false;
        let mut e = executor_for(cfg);
        let prog = Prog {
            mmio: vec![],
            calls: vec![call("json_parse", vec![ArgValue::Buffer(b"[1]".to_vec())])],
        };
        e.transport_mut().machine_mut().set_fault_plan(
            eof_hal::FaultPlan::none().at(10, eof_hal::InjectedFault::FreezeFirmware),
        );
        let out = e.run_one(&prog);
        assert!(out.stalled);
        assert!(out.restored);
        let r = e.resilience();
        // Frozen firmware means the flash is intact: the first rung that
        // acts on the core — reset — must be the one that sticks, and a
        // stall must never burn the resume rung (the PC provably cannot
        // move, so re-parking without action is futile).
        assert_eq!(r.rung_successes[Rung::Reset.index()], 1, "{r:?}");
        assert_eq!(r.rung_attempts[Rung::Resume.index()], 0, "{r:?}");
        assert_eq!(r.rung_attempts[Rung::VerifyReflash.index()], 0, "{r:?}");
        // Target is healthy again.
        assert!(e.run_one(&prog).crash.is_none());
    }

    #[test]
    fn snapshot_rung_recovers_frozen_firmware_without_reboot() {
        use crate::supervisor::Rung;
        let mut cfg = FuzzerConfig::eof(OsKind::FreeRtos, 31);
        cfg.snapshot = true;
        let mut e = executor_for(cfg);
        let prog = Prog {
            mmio: vec![],
            calls: vec![call("json_parse", vec![ArgValue::Buffer(b"[1]".to_vec())])],
        };
        let resets_before = e.transport_mut().machine().reset_count();
        e.transport_mut().machine_mut().set_fault_plan(
            eof_hal::FaultPlan::none().at(10, eof_hal::InjectedFault::FreezeFirmware),
        );
        let out = e.run_one(&prog);
        assert!(out.stalled);
        assert!(out.restored);
        let r = e.resilience();
        // The armed snapshot is valid (flash untouched, same boot): the
        // delta rung must absorb the whole episode without a reboot —
        // the reset line is never pulled.
        assert_eq!(r.rung_successes[Rung::SnapshotRestore.index()], 1, "{r:?}");
        assert_eq!(r.rung_attempts[Rung::Reset.index()], 0, "{r:?}");
        assert_eq!(
            e.transport_mut().machine().reset_count(),
            resets_before,
            "snapshot restore must not reboot"
        );
        assert!(e.run_one(&prog).crash.is_none());
    }

    #[test]
    fn reflash_rung_heals_corrupted_flash() {
        use crate::supervisor::Rung;
        let mut e = executor_for(FuzzerConfig::eof(OsKind::FreeRtos, 32));
        let prog = Prog {
            mmio: vec![],
            calls: vec![call("json_parse", vec![ArgValue::Buffer(b"[1]".to_vec())])],
        };
        let kernel = e
            .transport_mut()
            .machine_mut()
            .flash()
            .table()
            .get("kernel")
            .unwrap()
            .clone();
        // Corrupt the stored image, then freeze the (still-loaded) copy:
        // the stall forces recovery, and every plain reset now boots the
        // corrupted flash — only the checksum-verify rung can heal it.
        e.transport_mut().machine_mut().set_fault_plan(
            eof_hal::FaultPlan::none()
                .at(
                    5,
                    eof_hal::InjectedFault::FlashBitFlip {
                        offset: kernel.offset + 4096,
                        bit: 2,
                    },
                )
                .at(10, eof_hal::InjectedFault::FreezeFirmware),
        );
        let out = e.run_one(&prog);
        assert!(out.restored);
        let r = e.resilience();
        assert_eq!(r.rung_successes[Rung::VerifyReflash.index()], 1, "{r:?}");
        // The reset rung was tried (its full budget) and could not help.
        assert_eq!(r.rung_attempts[Rung::Reset.index()], 2, "{r:?}");
        assert_eq!(r.rung_successes[Rung::Reset.index()], 0, "{r:?}");
        assert!(e.run_one(&prog).crash.is_none());
    }

    #[test]
    fn power_cycle_rung_revives_killed_core_under_link_outage() {
        use crate::supervisor::Rung;
        let mut e = executor_for(FuzzerConfig::eof(OsKind::FreeRtos, 33));
        let prog = Prog {
            mmio: vec![],
            calls: vec![call("json_parse", vec![ArgValue::Buffer(b"[1]".to_vec())])],
        };
        // A killed core with the probe link down defeats every rung that
        // needs the debug port: reset and reflash all fail while the
        // outage lasts, and a plain reset cannot release the lockup latch
        // anyway. The power rail is independent of the link, so the
        // power-cycle rung revives the core; by the time its verify runs
        // the outage has expired and the park succeeds.
        e.transport_mut().machine_mut().set_fault_plan(
            eof_hal::FaultPlan::none()
                .at(10, eof_hal::InjectedFault::KillCore)
                .at(10, eof_hal::InjectedFault::DropLink { cycles: 12_000 }),
        );
        let out = e.run_one(&prog);
        assert!(out.restored);
        let r = e.resilience();
        assert_eq!(r.rung_successes[Rung::PowerCycle.index()], 1, "{r:?}");
        assert_eq!(r.rung_successes[Rung::FullReflash.index()], 0, "{r:?}");
        assert_eq!(r.manual_interventions, 0, "{r:?}");
        assert!(e.transport_mut().machine_mut().power_cycles() >= 1);
        assert!(e.run_one(&prog).crash.is_none());
    }

    #[test]
    fn outage_mid_run_loses_no_coverage_or_crash() {
        // A transient link drop during the exec must be absorbed by the
        // link-layer retry: the coverage drained and the crash detected
        // must match a fault-free run of the identical prog bit-for-bit.
        let prog = Prog {
            mmio: vec![],
            calls: vec![
                call(
                    "json_parse",
                    vec![ArgValue::Buffer(br#"{"a":[1,2]}"#.to_vec())],
                ),
                call(
                    "load_partitions",
                    vec![ArgValue::Int(3), ArgValue::Int(0x10)],
                ),
            ],
        };
        let mut control = executor_for(FuzzerConfig::eof(OsKind::FreeRtos, 34));
        let clean = control.run_one(&prog);
        let mut faulted = executor_for(FuzzerConfig::eof(OsKind::FreeRtos, 34));
        faulted.transport_mut().machine_mut().set_fault_plan(
            eof_hal::FaultPlan::none().at(300, eof_hal::InjectedFault::DropLink { cycles: 600 }),
        );
        let noisy = faulted.run_one(&prog);
        let r = faulted.resilience();
        assert!(
            r.link.recovered > 0,
            "outage never hit a link op (retune the fault time): {r:?}"
        );
        assert_eq!(r.link.exhausted, 0, "{r:?}");
        // Nothing escalated to the supervisor...
        assert_eq!(r.episodes, 0, "{r:?}");
        // ...and nothing was lost: same edges, same crash class.
        assert_eq!(noisy.new_edges, clean.new_edges);
        assert_eq!(
            noisy.crash.as_ref().map(|c| c.bug),
            clean.crash.as_ref().map(|c| c.bug)
        );
        assert_eq!(faulted.coverage().branches(), control.coverage().branches());
    }

    #[test]
    fn exhausted_ring_drain_is_counted_and_marks_the_exec_partial() {
        // A drain the retry layer gives up on is discarded whole and
        // counted on every channel — the coverage ring included, in both
        // wire modes. The link drop lands on the exec's final ring drain
        // and outlasts the whole retry budget.
        let prog = Prog {
            mmio: vec![],
            calls: vec![call(
                "json_parse",
                vec![ArgValue::Buffer(br#"{"a":[1,2]}"#.to_vec())],
            )],
        };
        for vectored in [true, false] {
            let mut cfg = FuzzerConfig::eof(OsKind::FreeRtos, 51);
            cfg.coverage_backend = CoverageKind::Ring;
            cfg.vectored = vectored;
            // A fault-free twin tells when the final drain starts.
            let mut control = executor_for(cfg.clone());
            let t0 = control.now();
            let recorder = tel::begin();
            let clean = control.run_one(&prog);
            let reg = recorder.finish();
            assert!(!clean.cov_partial && clean.new_edges > 0);
            let drain_at = reg
                .spans
                .iter()
                .filter(|s| s.name == "exec.cov_drain")
                .map(|s| s.start_cycles)
                .max()
                .expect("the exec drained its ring");

            let mut e = executor_for(cfg);
            assert_eq!(e.now(), t0);
            e.transport_mut()
                .machine_mut()
                .set_fault_plan(eof_hal::FaultPlan::none().at(
                    drain_at - t0,
                    eof_hal::InjectedFault::DropLink { cycles: 50_000 },
                ));
            let out = e.run_one(&prog);
            assert_eq!(e.resilience().link.exhausted, 1, "vectored={vectored}");
            assert_eq!(e.cov_discards(), 1, "vectored={vectored}");
            assert!(out.cov_partial, "vectored={vectored}");
        }
    }

    #[test]
    fn timeout_only_detection_sees_hanging_bug_late() {
        let mut cfg = FuzzerConfig::eof(OsKind::Zephyr, 5);
        cfg.detection = DetectionConfig::timeout_only(10);
        cfg.recovery = crate::config::RecoveryConfig::reboot_only();
        let mut e = executor_for(cfg);
        // Bug #4 hangs after the fault; timeout-only tools notice the
        // hang and triage offline from the UART tail.
        let prog = Prog {
            mmio: vec![],
            calls: vec![call(
                "k_heap_init",
                vec![ArgValue::Int(12), ArgValue::Int(7)],
            )],
        };
        let before = e.now();
        let out = e.run_one(&prog);
        let crash = out.crash.expect("timeout-detected crash");
        assert_eq!(crash.source, DetectionSource::Timeout);
        assert_eq!(crash.bug.map(|b| b.number()), Some(4));
        // And it took at least the timeout patience.
        assert!(e.now() - before >= secs_to_cycles(10));
    }

    #[test]
    fn timeout_only_misses_recoverable_bug() {
        let mut cfg = FuzzerConfig::eof(OsKind::FreeRtos, 6);
        cfg.detection = DetectionConfig::timeout_only(10);
        let mut e = executor_for(cfg);
        // Bug #13 does not hang: without exception breakpoints it is
        // invisible.
        let prog = Prog {
            mmio: vec![],
            calls: vec![call(
                "load_partitions",
                vec![ArgValue::Int(3), ArgValue::Int(0x10)],
            )],
        };
        let out = e.run_one(&prog);
        assert!(out.crash.is_none());
        assert!(!out.stalled);
    }

    #[test]
    fn uninstrumented_run_sees_no_edges() {
        let mut cfg = FuzzerConfig::eof(OsKind::FreeRtos, 7);
        cfg.instrument = InstrumentMode::None;
        let mut e = executor_for(cfg);
        let out = e.run_one(&Prog {
            mmio: vec![],
            calls: vec![call("json_parse", vec![ArgValue::Buffer(b"[1]".to_vec())])],
        });
        assert_eq!(out.new_edges, 0);
        assert!(out.crash.is_none());
    }

    #[test]
    fn trace_backend_covers_an_uninstrumented_image() {
        use eof_coverage::CoverageKind;
        let mut cfg = FuzzerConfig::eof(OsKind::FreeRtos, 7);
        cfg.coverage_backend = CoverageKind::Trace;
        // The flashed image carries no hooks at all...
        assert_eq!(cfg.effective_instrument(), InstrumentMode::None);
        let mut e = executor_for(cfg);
        assert_eq!(e.coverage_kind(), CoverageKind::Trace);
        let prog = Prog {
            mmio: vec![],
            calls: vec![call(
                "json_parse",
                vec![ArgValue::Buffer(br#"{"a":[1,2]}"#.to_vec())],
            )],
        };
        // ...yet the trace unit delivers full edge feedback.
        let out = e.run_one(&prog);
        assert!(out.new_edges > 0, "trace backend observed no edges");
        assert!(!out.cov_partial, "default FIFO must not overflow");
        let stats = e.trace_stats();
        assert!(stats.packets > 0 && stats.bytes > 0);
        assert_eq!(stats.overflows, 0);
        // Re-running the same prog finds nothing new — the stream
        // decodes deterministically across drains.
        let out2 = e.run_one(&prog);
        assert_eq!(out2.new_edges, 0);
        assert!(out2.edges_hit > 0);
    }

    #[test]
    fn trace_and_ring_merge_identical_coverage() {
        use eof_coverage::CoverageKind;
        let prog = Prog {
            mmio: vec![],
            calls: vec![
                call("xQueueCreate", vec![ArgValue::Int(4), ArgValue::Int(16)]),
                call(
                    "json_parse",
                    vec![ArgValue::Buffer(br#"{"a":[1,{"b":true}]}"#.to_vec())],
                ),
            ],
        };
        let mut ring = executor_for(FuzzerConfig::eof(OsKind::FreeRtos, 41));
        let mut cfg = FuzzerConfig::eof(OsKind::FreeRtos, 41);
        cfg.coverage_backend = CoverageKind::Trace;
        let mut trace = executor_for(cfg);
        let r = ring.run_one(&prog);
        let t = trace.run_one(&prog);
        // Same edges observed, same bitmap — backend invisible above
        // the trait. (The full 4-OS campaign-level gate lives in
        // tests/trace_equiv.rs; this is the single-exec kernel of it.)
        assert_eq!(r.edges_hit, t.edges_hit);
        assert_eq!(r.new_edges, t.new_edges);
        assert_eq!(
            ring.coverage().sorted_edges(),
            trace.coverage().sorted_edges()
        );
    }

    #[test]
    fn observe_fraction_reduces_feedback() {
        let mut full_cfg = FuzzerConfig::eof(OsKind::FreeRtos, 8);
        full_cfg.instrument = InstrumentMode::Modules(vec!["json".into(), "http".into()]);
        let mut partial_cfg = full_cfg.clone();
        partial_cfg.cov_observe_fraction = 0.15;
        let prog = Prog {
            mmio: vec![],
            calls: vec![
                call(
                    "json_parse",
                    vec![ArgValue::Buffer(br#"{"k":[1,true,"s"],"m":{}}"#.to_vec())],
                ),
                call(
                    "http_request",
                    vec![ArgValue::Buffer(
                        b"GET /status HTTP/1.1\r\nHost: x\r\n\r\n".to_vec(),
                    )],
                ),
            ],
        };
        let mut full = executor_for(full_cfg);
        let mut partial = executor_for(partial_cfg);
        let f = full.run_one(&prog);
        let p = partial.run_one(&prog);
        assert!(
            p.new_edges < f.new_edges,
            "partial observation ({}) must see less than full ({})",
            p.new_edges,
            f.new_edges
        );
    }

    #[test]
    fn exec_cost_multiplier_slows_execution() {
        let mut fast_cfg = FuzzerConfig::eof(OsKind::FreeRtos, 9);
        fast_cfg.board = eof_rtos::registry::default_board(OsKind::FreeRtos);
        let mut slow_cfg = fast_cfg.clone();
        slow_cfg.exec_cost_multiplier = 2.0;
        let prog = Prog {
            mmio: vec![],
            calls: vec![call(
                "json_parse",
                vec![ArgValue::Buffer(b"[1,2]".to_vec())],
            )],
        };
        let mut fast = executor_for(fast_cfg);
        let mut slow = executor_for(slow_cfg);
        let cf = fast.run_one(&prog).cycles;
        let cs = slow.run_one(&prog).cycles;
        assert!(cs > cf + cf / 2, "multiplier not applied: {cf} vs {cs}");
    }
}
