//! The traced run's per-layer numbers.
//!
//! Two sources, both outside the program:
//! * **T** — host timers this file wraps around calls into each layer's
//!   public functions, fed with inputs the workload's own generator,
//!   spec, image and board produce;
//! * **R** — deterministic counters and simulated-cycle span aggregates
//!   the program already returns from `run_campaign_recorded` and in
//!   `FabricReport`.

use std::path::Path;
use std::time::Instant;

use eof_agent::{agent_loader, api_table_of, wire_order_of, AgentLayout};
use eof_core::artifacts::{cached_image, cached_spec_scoped, clear_caches};
use eof_core::{
    build_fuzzer, finalize_store, replay_loaded, resume_campaign_with, run_fabric, run_serial,
    CmpJournal, FabricChaosPlan, FabricConfig, FabricReport, FuzzerConfig, Generator, MutOp,
};
use eof_coverage::{CoverageBackend, CoverageKind, CoverageMap, InstrumentedRing, TraceDecode};
use eof_dap::{DebugTransport, LinkConfig, LinkEvent, Txn, TxnResult};
use eof_hal::{FaultPlan, Machine};
use eof_monitors::{parse_kconfig, render_kconfig, StateRestoration};
use eof_specgen::NoiseConfig;
use eof_speclang::prog::Prog;
use eof_speclang::{decode_prog, encode_prog};
use eof_telemetry::TelemetrySummary;

use crate::report::Metric;
use crate::stats::Summary;
use crate::workload::FABRIC_WORKERS;

/// Progs each probe cell generates, mutates, encodes and executes.
const PROBE_PROGS: usize = 240;

/// Warm `build_fuzzer` calls timed per probe cell.
const WARM_BUILDS: usize = 3;

/// Boot-time snapshot captures timed per probe cell.
const CAPTURES: usize = 3;

/// The probe board restores its snapshot after every stalled exec and
/// after this many healthy ones.
const RESTORE_EVERY: usize = 8;

/// Cells whose store the persistence probes finalize, open, replay and
/// resume.
const PERSIST_CELLS: usize = 2;

/// The executor's continue slice and slice cap (`executor.rs`).
const SLICE_CYCLES: u64 = 2_000;
const MAX_SLICES: u32 = 24;

/// One named timing series. The unit is the name's suffix.
pub struct Timing {
    name: &'static str,
    samples: Vec<f64>,
}

impl Timing {
    fn new(name: &'static str) -> Self {
        Timing {
            name,
            samples: Vec::new(),
        }
    }

    fn unit(&self) -> &'static str {
        ["_ns", "_us", "_ms", "_s"]
            .into_iter()
            .find(|u| self.name.ends_with(u))
            .map_or("", |u| &u[1..])
    }

    fn scale(&self) -> f64 {
        match self.unit() {
            "ns" => 1e9,
            "us" => 1e6,
            "ms" => 1e3,
            _ => 1.0,
        }
    }

    /// Time `f` and record the sample. The result passes through
    /// `black_box` so the timed call cannot be optimised away.
    fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = std::hint::black_box(f());
        self.record(t.elapsed().as_secs_f64());
        r
    }

    /// Record a sample given in seconds.
    fn record(&mut self, secs: f64) {
        let scale = self.scale();
        self.samples.push(secs * scale);
    }

    /// Median of the samples, in seconds (0 when empty): the typical
    /// cost of one call, which the split estimate multiplies by the
    /// campaign's own call counts.
    pub fn p50_secs(&self) -> f64 {
        Summary::of(&self.samples).map_or(0.0, |s| s.p50 / self.scale())
    }

    /// `<name>.p50`, `<name>.tail` and `<name>.n`, plus a note naming
    /// the tail percentile and the quartiles.
    fn emit(&self, metrics: &mut Vec<Metric>, notes: &mut Vec<String>) {
        let s = Summary::of(&self.samples);
        let unit = self.unit();
        let (p50, tail, n) = s.map_or((f64::NAN, f64::NAN, 0), |s| (s.p50, s.tail, s.n));
        metrics.push(Metric::new(format!("{}.p50", self.name), p50, unit));
        metrics.push(Metric::new(format!("{}.tail", self.name), tail, unit));
        metrics.push(Metric::new(format!("{}.n", self.name), n as f64, "count"));
        if let Some(s) = s {
            notes.push(format!(
                "{:<28} n={:<6} p25={:<12.4} p50={:<12.4} p75={:<12.4} tail={}={:.4} {unit}",
                self.name,
                s.n,
                s.p25,
                s.p50,
                s.p75,
                s.tail_label(),
                s.tail
            ));
        }
    }
}

/// Every T series, in report order.
pub struct Timings {
    pub step: Timing,
    pub build_fuzzer: Timing,
    pub spec: Timing,
    pub image: Timing,
    pub generate: Timing,
    pub mutate: Timing,
    pub mutate_op: Timing,
    pub encode: Timing,
    pub decode: Timing,
    pub run_one: Timing,
    pub run_txn: Timing,
    pub cont: Timing,
    pub restore: Timing,
    pub capture: Timing,
    pub ring_decode: Timing,
    pub trace_decode: Timing,
    pub merge: Timing,
    pub finalize: Timing,
    pub open: Timing,
    pub replay: Timing,
    pub resume: Timing,
}

impl Timings {
    fn new() -> Self {
        Timings {
            step: Timing::new("fuzzer.step_us"),
            build_fuzzer: Timing::new("campaign.build_fuzzer_ms"),
            spec: Timing::new("artifacts.spec_ms"),
            image: Timing::new("artifacts.image_ms"),
            generate: Timing::new("gen.generate_ns"),
            mutate: Timing::new("gen.mutate_ns"),
            mutate_op: Timing::new("gen.mutate_op_ns"),
            encode: Timing::new("wire.encode_ns"),
            decode: Timing::new("wire.decode_ns"),
            run_one: Timing::new("executor.run_one_us"),
            run_txn: Timing::new("dap.run_txn_us"),
            cont: Timing::new("rtos.continue_us"),
            restore: Timing::new("restore.snapshot_ms"),
            capture: Timing::new("hal.capture_snapshot_ms"),
            ring_decode: Timing::new("cov.ring_decode_ns"),
            trace_decode: Timing::new("cov.trace_decode_ns"),
            merge: Timing::new("cov.merge_ns"),
            finalize: Timing::new("persist.finalize_ms"),
            open: Timing::new("persist.open_ms"),
            replay: Timing::new("replay.store_ms"),
            resume: Timing::new("replay.resume_ms"),
        }
    }

    fn all(&self) -> [&Timing; 21] {
        [
            &self.step,
            &self.build_fuzzer,
            &self.spec,
            &self.image,
            &self.generate,
            &self.mutate,
            &self.mutate_op,
            &self.encode,
            &self.decode,
            &self.run_one,
            &self.run_txn,
            &self.cont,
            &self.restore,
            &self.capture,
            &self.ring_decode,
            &self.trace_decode,
            &self.merge,
            &self.finalize,
            &self.open,
            &self.replay,
            &self.resume,
        ]
    }

    /// Emit every series.
    pub fn emit(&self, metrics: &mut Vec<Metric>, notes: &mut Vec<String>) {
        for t in self.all() {
            t.emit(metrics, notes);
        }
    }
}

/// What the T probes produced besides timings.
pub struct Probed {
    /// Host timings.
    pub timings: Timings,
    /// Mean upload bytes per prog.
    pub prog_bytes: f64,
    /// Mean edges the cell's own coverage backend decoded per exec on the
    /// probe board.
    pub edges_per_exec: f64,
    /// Probe findings that make the run incorrect.
    pub mismatches: Vec<String>,
}

/// Run every T probe on `probe_cells` (one cell per distinct
/// OS × wire × coverage setting of the workload).
pub fn run_probes(probe_cells: &[FuzzerConfig], work: &Path) -> Probed {
    let mut t = Timings::new();
    let mut mismatches = Vec::new();
    let mut prog_bytes = Vec::new();
    let mut edges = Vec::new();
    for (i, cell) in probe_cells.iter().enumerate() {
        probe_setup(cell, &mut t);
        let progs = probe_gen(cell, &mut t);
        let journal = probe_executor(cell, &progs, &mut t);
        probe_mutate_op(cell, &progs, &journal, &mut t);
        prog_bytes.extend(probe_wire(cell, &progs, &mut t));
        match probe_board(cell, &progs, &mut t) {
            Ok(e) => edges.extend(e),
            Err(e) => mismatches.push(format!("{} probe board: {e}", cell.os.short())),
        }
        if i < PERSIST_CELLS {
            if let Err(e) = probe_persist(cell, &work.join(format!("persist{i}")), &mut t) {
                mismatches.push(format!("{} persistence probe: {e}", cell.os.short()));
            }
        }
    }
    Probed {
        timings: t,
        prog_bytes: mean(&prog_bytes),
        edges_per_exec: mean(&edges),
        mismatches,
    }
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

fn noise_of(cell: &FuzzerConfig) -> NoiseConfig {
    cell.spec_noise
        .map_or_else(NoiseConfig::none, NoiseConfig::default_llm)
}

/// Cold artifact builds, warm `build_fuzzer`, then `Fuzzer::step` over
/// one campaign budget.
fn probe_setup(cell: &FuzzerConfig, t: &mut Timings) {
    clear_caches();
    let noise = noise_of(cell);
    t.spec.time(|| {
        cached_spec_scoped(cell.os, &noise, cell.spec_validation, cell.mmio);
    });
    t.image.time(|| {
        cached_image(cell.os, cell.profile, &cell.effective_instrument());
    });
    let mut fuzzer = None;
    for _ in 0..WARM_BUILDS {
        fuzzer = Some(
            t.build_fuzzer
                .time(|| build_fuzzer(cell.clone(), FaultPlan::none()).0),
        );
    }
    let mut fuzzer = fuzzer.expect("at least one warm build");
    let end = fuzzer.executor().now_hours() + cell.budget_hours;
    while fuzzer.executor().now_hours() < end {
        t.step.time(|| fuzzer.step());
    }
}

/// A fresh generator on the cell's spec and seed.
fn generator(cell: &FuzzerConfig) -> Generator {
    let (spec, _) =
        (*cached_spec_scoped(cell.os, &noise_of(cell), cell.spec_validation, cell.mmio)).clone();
    Generator::new(spec, cell.seed, cell.gen_mode, cell.max_calls).with_mmio(cell.mmio)
}

/// `generate` and `mutate`; returns the probe progs (half generated,
/// half mutants of those), the inputs of every later probe.
fn probe_gen(cell: &FuzzerConfig, t: &mut Timings) -> Vec<Prog> {
    let mut gen = generator(cell);
    let mut progs: Vec<Prog> = (0..PROBE_PROGS / 2)
        .map(|_| t.generate.time(|| gen.generate()))
        .collect();
    for i in 0..PROBE_PROGS / 2 {
        let mutant = t.mutate.time(|| gen.mutate(&progs[i]));
        progs.push(mutant);
    }
    progs.retain(|p| !p.is_empty());
    progs
}

/// `Executor::run_one` on a freshly built fuzzer; returns the operand
/// journal its drains filled (empty without cmplog).
fn probe_executor(cell: &FuzzerConfig, progs: &[Prog], t: &mut Timings) -> CmpJournal {
    let (mut fuzzer, _, _) = build_fuzzer(cell.clone(), FaultPlan::none());
    let mut journal = CmpJournal::new();
    for prog in progs {
        let outcome = t.run_one.time(|| fuzzer.executor_mut().run_one(prog));
        journal.absorb(&outcome.cmp_records);
    }
    journal
}

/// `mutate_op` with the live journal, cycling through the operators.
fn probe_mutate_op(cell: &FuzzerConfig, progs: &[Prog], journal: &CmpJournal, t: &mut Timings) {
    let mut gen = generator(cell);
    for (i, prog) in progs.iter().enumerate() {
        let op = MutOp::ALL[i % MutOp::ALL.len()];
        t.mutate_op.time(|| gen.mutate_op(prog, op, journal));
    }
}

/// `encode_prog` / `decode_prog`; returns each prog's encoded size.
fn probe_wire(cell: &FuzzerConfig, progs: &[Prog], t: &mut Timings) -> Vec<f64> {
    let table = api_table_of(cell.os);
    let order = wire_order_of(&cell.board);
    let mut sizes = Vec::new();
    for prog in progs {
        let Ok(bytes) = t.encode.time(|| encode_prog(prog, &table, order)) else {
            continue;
        };
        let _ = t.decode.time(|| decode_prog(&bytes, &table, order));
        sizes.push(bytes.len() as f64);
    }
    sizes
}

/// A board booted the way `build_fuzzer` boots one, driven directly
/// over the debug transport.
struct ProbeBoard {
    pipe: DebugTransport,
    restoration: StateRestoration,
    layout: AgentLayout,
    main: u32,
    buf_full: u32,
}

impl ProbeBoard {
    fn boot(cell: &FuzzerConfig) -> Result<ProbeBoard, String> {
        let image = cached_image(cell.os, cell.profile, &cell.effective_instrument());
        let mut machine = Machine::new(cell.board.clone(), agent_loader());
        machine
            .reflash_partition("kernel", &image)
            .map_err(|e| format!("flash: {e:?}"))?;
        machine.reset();
        let kconfig_text = render_kconfig(
            &cell.board.arch.to_string().to_lowercase(),
            machine.flash().table(),
        );
        let kconfig = parse_kconfig(&kconfig_text).map_err(|e| format!("kconfig: {e:?}"))?;
        let mut restoration = StateRestoration::from_kconfig(
            &kconfig,
            cell.board.flash_size,
            vec![("kernel".to_string(), (*image).clone())],
        )
        .map_err(|e| format!("restoration: {e:?}"))?;
        restoration.set_vectored(cell.vectored);
        restoration.set_snapshot_mode(true);
        let mut pipe = DebugTransport::attach(machine, LinkConfig::default());
        let main = pipe.symbol("executor_main").ok_or("no executor_main")?;
        let buf_full = pipe.symbol("_kcmp_buf_full").ok_or("no _kcmp_buf_full")?;
        let exception = eof_rtos::make_kernel(cell.os).exception_symbol();
        let exception = pipe.symbol(exception).ok_or("no exception symbol")?;
        let mut txn = Txn::new();
        txn.set_breakpoint(main).set_breakpoint(exception);
        if cell.effective_instrument() != eof_coverage::InstrumentMode::None {
            txn.set_breakpoint(buf_full);
        }
        pipe.run_txn(&txn)
            .map_err(|e| format!("breakpoints: {e:?}"))?;
        // The trace unit watches the core on any image, so every
        // workload gets a trace stream to decode.
        pipe.trace_set_enabled(true)
            .map_err(|e| format!("trace unit: {e:?}"))?;
        let mut board = ProbeBoard {
            pipe,
            restoration,
            layout: AgentLayout::for_board(&cell.board),
            main,
            buf_full,
        };
        if !board.park() {
            return Err("target never reached executor_main after boot".into());
        }
        Ok(board)
    }

    /// Park the target at `executor_main` (the executor's sync rule).
    fn park(&mut self) -> bool {
        let mut still = 0;
        for _ in 0..8 {
            match self.pipe.continue_until_halt(8 * SLICE_CYCLES) {
                Ok(LinkEvent::BreakpointHit { pc }) if pc == self.main => return true,
                Ok(LinkEvent::BreakpointHit { .. }) | Ok(LinkEvent::WatchdogReset) => still = 0,
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

    /// Drain the coverage ring: header peek, then read + reset in one
    /// transaction (the executor's vectored drain). Returns the raw
    /// bytes, header first.
    fn drain_ring(&mut self, endian: eof_hal::Endianness) -> Result<Vec<u8>, String> {
        let cov = self.layout.cov;
        let mut peek = Txn::new();
        peek.read_mem(cov.base, 12);
        let header = match self
            .pipe
            .run_txn(&peek)
            .map_err(|e| format!("{e:?}"))?
            .pop()
        {
            Some(TxnResult::Bytes(h)) => h,
            _ => return Err("ring peek returned no bytes".into()),
        };
        let count = endian
            .u32_from([header[0], header[1], header[2], header[3]])
            .min(cov.capacity);
        if count == 0 {
            return Ok(header);
        }
        let zero = endian.u32_bytes(0);
        let mut drain = Txn::new();
        drain
            .read_mem(cov.base, 12 + count * 8)
            .write_mem(cov.base, &zero)
            .write_mem(cov.base + 8, &zero);
        match self
            .pipe
            .run_txn(&drain)
            .map_err(|e| format!("{e:?}"))?
            .into_iter()
            .next()
        {
            Some(TxnResult::Bytes(raw)) => Ok(raw),
            _ => Err("ring drain returned no bytes".into()),
        }
    }
}

/// Drive the workload's progs on a probe board: the upload transaction,
/// the kernel model between halts, coverage decode and merge, boot-time
/// snapshot captures and delta restores. Returns edges decoded per exec
/// by the cell's own backend.
fn probe_board(cell: &FuzzerConfig, progs: &[Prog], t: &mut Timings) -> Result<Vec<f64>, String> {
    let mut board = ProbeBoard::boot(cell)?;
    for _ in 0..CAPTURES {
        board
            .pipe
            .reset_target()
            .map_err(|e| format!("reset: {e:?}"))?;
        if !board.park() {
            return Err("target never reached executor_main after reset".into());
        }
        let captured = t
            .capture
            .time(|| board.restoration.capture_snapshot(&mut board.pipe));
        captured.map_err(|e| format!("capture: {e:?}"))?;
    }
    let endian = cell.board.endianness;
    let table = api_table_of(cell.os);
    let order = wire_order_of(&cell.board);
    let mut ring = InstrumentedRing::new(board.layout.cov);
    let mut trace = TraceDecode::new();
    let mut map = CoverageMap::new();
    let mut per_exec = Vec::new();
    let mut since_restore = 0;
    for prog in progs {
        let Ok(bytes) = encode_prog(prog, &table, order) else {
            continue;
        };
        let mut txn = Txn::new();
        txn.write_mem(
            board.layout.prog_addr,
            &endian.u32_bytes(bytes.len() as u32),
        )
        .write_mem(board.layout.prog_addr + 4, &bytes);
        if cell.cmplog {
            txn.write_mem(
                board.layout.cmp.base,
                &board.layout.cmp.armed_header(endian),
            );
        }
        t.run_txn
            .time(|| board.pipe.run_txn(&txn))
            .map_err(|e| format!("upload: {e:?}"))?;
        let mut ring_raw = Vec::new();
        let mut parked = false;
        let start = Instant::now();
        let mut inner = 0.0;
        for _ in 0..MAX_SLICES {
            match board.pipe.continue_until_halt(SLICE_CYCLES) {
                Ok(LinkEvent::BreakpointHit { pc }) if pc == board.main => {
                    parked = true;
                    break;
                }
                Ok(LinkEvent::BreakpointHit { pc }) if pc == board.buf_full => {
                    let d = Instant::now();
                    ring_raw.push(board.drain_ring(endian)?);
                    inner += d.elapsed().as_secs_f64();
                }
                Ok(LinkEvent::BreakpointHit { .. }) | Ok(LinkEvent::StillRunning) => {}
                Ok(LinkEvent::WatchdogReset) | Ok(LinkEvent::TargetDead) | Err(_) => break,
            }
        }
        t.cont.record(start.elapsed().as_secs_f64() - inner);
        if parked {
            ring_raw.push(board.drain_ring(endian)?);
        }
        let trace_raw = board
            .pipe
            .drain_trace()
            .map_err(|e| format!("trace drain: {e:?}"))?;
        let mut ring_edges = Vec::new();
        for raw in &ring_raw {
            ring_edges.extend(t.ring_decode.time(|| ring.decode_drain(raw, endian)).edges);
        }
        let trace_edges = t
            .trace_decode
            .time(|| trace.decode_drain(&trace_raw, endian))
            .edges;
        let edges = match cell.coverage_backend {
            CoverageKind::Ring => ring_edges,
            CoverageKind::Trace => trace_edges,
        };
        per_exec.push(edges.len() as f64);
        t.merge.time(|| map.merge(&edges));
        since_restore += 1;
        if !parked || since_restore >= RESTORE_EVERY {
            since_restore = 0;
            t.restore
                .time(|| board.restoration.snapshot_restore(&mut board.pipe))
                .map_err(|e| format!("restore: {e:?}"))?;
            trace.reset_stream();
            if !board.park() {
                return Err("target never reached executor_main after a restore".into());
            }
        }
    }
    Ok(per_exec)
}

/// Finalize a persisted campaign of the cell, open its store, replay it,
/// and resume it one checkpoint slice forward.
fn probe_persist(cell: &FuzzerConfig, dir: &Path, t: &mut Timings) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(dir);
    let mut config = cell.clone();
    config.persist = Some(dir.to_path_buf());
    let (mut fuzzer, _, _) = build_fuzzer(config.clone(), FaultPlan::none());
    fuzzer.run_to_budget();
    let store = fuzzer
        .take_store()
        .ok_or("persisted campaign has no store")?;
    t.finalize.time(|| {
        finalize_store(
            store,
            fuzzer.config(),
            fuzzer.corpus(),
            fuzzer.crashes(),
            fuzzer.executor().coverage(),
            fuzzer.config().budget_hours,
            fuzzer.stats().execs,
        )
    });
    for _ in 0..3 {
        t.open
            .time(|| eof_core::persist::open(dir))
            .map_err(|e| format!("open: {e}"))?;
    }
    // `replay_store` with the producing config instead of the manifest's
    // default one, which cmplog and trace stores do not match.
    let report = t
        .replay
        .time(|| eof_core::persist::open(dir).map(|loaded| replay_loaded(&loaded, &config)))
        .map_err(|e| format!("replay: {e}"))?;
    if !report.all_passed() {
        return Err(format!("replay gate failed {} cases", report.failed()));
    }
    // One slice forward, at the fabric's default slice count.
    let slices = FabricConfig::new(Vec::new(), 1, dir).slices_per_cell as f64;
    config.budget_hours = cell.budget_hours * (1.0 + 1.0 / slices);
    t.resume
        .time(|| resume_campaign_with(config, dir))
        .map_err(|e| format!("resume: {e}"))?;
    let _ = std::fs::remove_dir_all(dir);
    Ok(())
}

/// A fault-free fabric and its serial reference over `cells`, both timed.
pub struct FabricProbe {
    /// The fabric run.
    pub report: FabricReport,
    /// Host seconds of `run_fabric`.
    pub fabric_s: f64,
    /// The serial reference.
    pub serial: eof_core::SerialMerge,
    /// Host seconds of `run_serial` (artifact cache cold).
    pub serial_s: f64,
}

/// Run [`FabricProbe`] in `root`.
pub fn probe_fabric(cells: &[FuzzerConfig], root: &Path) -> FabricProbe {
    let _ = std::fs::remove_dir_all(root);
    let config = FabricConfig::new(cells.to_vec(), FABRIC_WORKERS, root);
    clear_caches();
    let t = Instant::now();
    let report = run_fabric(&config, &FabricChaosPlan::none());
    let fabric_s = t.elapsed().as_secs_f64();
    let _ = std::fs::remove_dir_all(root);
    clear_caches();
    let t = Instant::now();
    let serial = run_serial(cells);
    let serial_s = t.elapsed().as_secs_f64();
    FabricProbe {
        report,
        fabric_s,
        serial,
        serial_s,
    }
}

/// The R metrics from the recorded reruns' merged telemetry.
pub fn recorded_metrics(summary: &TelemetrySummary) -> Vec<Metric> {
    let c = |name: &str| summary.counters.get(name).copied().unwrap_or(0) as f64;
    let execs = c("fuzz.execs").max(1.0);
    let span_mean = |name: &str| {
        summary
            .spans
            .get(name)
            .filter(|s| s.count > 0)
            .map_or(0.0, |s| s.total_cycles as f64 / s.count as f64)
    };
    let txns = summary.ops.get("txn").map_or(0, |o| o.count) as f64;
    let ops: u64 = summary.ops.values().map(|o| o.count).sum();
    let link_cycles: u64 = summary.ops.values().map(|o| o.cycles.sum).sum();
    let i2s = [MutOp::I2sInt, MutOp::I2sMmio];
    let i2s_execs: f64 = i2s.iter().map(|op| c(op.execs_counter())).sum();
    let i2s_hits: f64 = i2s.iter().map(|op| c(op.interesting_counter())).sum();
    vec![
        Metric::new("executor.sim_cycles_per_exec", span_mean("exec"), "cycles"),
        Metric::new("dap.txn_per_exec", txns / execs, "txn/exec"),
        Metric::new("dap.ops_per_exec", ops as f64 / execs, "ops/exec"),
        Metric::new(
            "dap.link_cycles_per_exec",
            link_cycles as f64 / execs,
            "cycles/exec",
        ),
        Metric::new("dap.retries", c("dap.retry.retries"), "count"),
        Metric::new(
            "restore.per_kexec",
            c("fuzz.restorations") * 1000.0 / execs,
            "restores/kexec",
        ),
        Metric::new(
            "restore.sim_cycles",
            span_mean("restore.snapshot"),
            "cycles",
        ),
        Metric::new(
            "cov.trace_bytes_per_exec",
            c("cov.trace.bytes") / execs,
            "bytes/exec",
        ),
        Metric::new(
            "fuzz.interesting_ratio",
            c("fuzz.interesting") / execs,
            "ratio",
        ),
        Metric::new(
            "cmplog.records_per_exec",
            c("exec.cmp_records") / execs,
            "records/exec",
        ),
        Metric::new(
            "cmplog.i2s_interesting_ratio",
            if i2s_execs > 0.0 {
                i2s_hits / i2s_execs
            } else {
                0.0
            },
            "ratio",
        ),
    ]
}
