//! Kernel execution context: bus access, cycle metering and coverage hooks.
//!
//! Kernel model code runs with an [`ExecCtx`] in hand. Its `cov` methods
//! are the reproduction's `__sanitizer_cov_trace_cmp()`: when the build's
//! instrumentation mode covers the site's module, the hook burns the
//! instrumentation cycles and appends the edge id to the on-device
//! coverage buffer; when the buffer fills, a flag is raised so the agent
//! traps at `_kcmp_buf_full` for the host to drain (paper §4.5.1).
//!
//! Instrumentation cycles are charged through
//! [`eof_hal::Bus::charge_instr`]: campaign budgets and the throughput
//! A/B see the slowdown, but the core-visible clock does not, so an
//! instrumented build and a plain build execute identical
//! target-visible histories. Independently of instrumentation, every
//! hook first offers the branch to the bus's hardware trace unit —
//! which captures it even on a fully uninstrumented image, at zero
//! core cycles.

use eof_coverage::{
    edge_id, CmpRecord, CmpRegion, CovRegion, InstrumentCost, InstrumentMode, RecordOutcome,
};
use eof_hal::Bus;

/// Per-boot coverage state shared between the agent and the kernel.
#[derive(Debug, Clone)]
pub struct CovState {
    /// What the image build instrumented.
    pub mode: InstrumentMode,
    /// Where the on-device buffer lives (None when uninstrumented).
    pub region: Option<CovRegion>,
    /// Raised when the buffer filled; cleared after the host drains.
    pub buffer_full: bool,
    /// Total coverage callback executions (instrumentation overhead
    /// accounting).
    pub hits: u64,
    /// Records dropped because the buffer was full.
    pub dropped: u64,
    /// Suppress *every* coverage channel, the trace unit included.
    /// For internal kernel probes that model inlined, specialised
    /// helper code: its branches are not modelled edge sites, so
    /// neither the ring nor the silicon's packet engine may see them
    /// — otherwise the two acquisition backends could never observe
    /// identical campaigns.
    pub silent: bool,
    /// The comparison-operand ring (cmplog channel), if the layout has
    /// one. It boots disarmed — hooks stay free until a host arms it.
    pub cmp_region: Option<CmpRegion>,
    /// Comparison hook executions while armed.
    pub cmp_hits: u64,
    /// Comparison records dropped (ring full or broken region).
    pub cmp_dropped: u64,
}

impl CovState {
    /// State for an uninstrumented image.
    pub fn uninstrumented() -> Self {
        CovState {
            mode: InstrumentMode::None,
            region: None,
            buffer_full: false,
            hits: 0,
            dropped: 0,
            silent: false,
            cmp_region: None,
            cmp_hits: 0,
            cmp_dropped: 0,
        }
    }

    /// State for a silent internal probe: no channel — ring, counters
    /// or trace packets — observes anything executed under it.
    pub fn silent_probe() -> Self {
        let mut cov = Self::uninstrumented();
        cov.silent = true;
        cov
    }

    /// State for an instrumented image with a buffer at `region`.
    pub fn instrumented(mode: InstrumentMode, region: CovRegion) -> Self {
        CovState {
            mode,
            region: Some(region),
            buffer_full: false,
            hits: 0,
            dropped: 0,
            silent: false,
            cmp_region: None,
            cmp_hits: 0,
            cmp_dropped: 0,
        }
    }

    /// Attach the comparison-operand ring (still disarmed until a host
    /// writes its capacity word).
    pub fn with_cmp(mut self, region: CmpRegion) -> Self {
        self.cmp_region = Some(region);
        self
    }

    /// Whether a site in `module` carries a callback in this build.
    pub fn module_active(&self, module: &str) -> bool {
        match &self.mode {
            InstrumentMode::None => false,
            InstrumentMode::Full => true,
            InstrumentMode::Modules(mods) => mods.iter().any(|m| m == module),
        }
    }
}

/// The context kernel code executes in.
pub struct ExecCtx<'a> {
    /// Bus (RAM, UART, clock).
    pub bus: &'a mut Bus,
    /// Coverage state.
    pub cov: &'a mut CovState,
}

impl<'a> ExecCtx<'a> {
    /// Build a context.
    pub fn new(bus: &'a mut Bus, cov: &'a mut CovState) -> Self {
        ExecCtx { bus, cov }
    }

    /// Charge `n` cycles of kernel work.
    pub fn charge(&mut self, n: u64) {
        self.bus.charge(n);
    }

    /// Coverage hook at a static site. Site names are fully qualified:
    /// `"<os>::<module>::<function>::<branch>"`. Models a direct branch
    /// for the trace unit.
    pub fn cov(&mut self, site: &'static str) {
        self.cov_id(site, edge_id(site), false);
    }

    /// Coverage hook for a *variant* site: a family of edges derived from
    /// one static name (e.g. one edge per parser state). Cheap — no
    /// allocation — and deterministic. Models an indirect branch (the
    /// target depends on runtime data), so the trace unit emits an
    /// address packet rather than a direct-branch delta.
    pub fn cov_var(&mut self, site: &'static str, variant: u64) {
        // Mix the variant in with a splitmix-style finaliser so variants
        // of one site do not collide with other sites' base ids.
        let mut v = edge_id(site) ^ variant.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        v ^= v >> 30;
        v = v.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        self.cov_id(site, v, true);
    }

    fn cov_id(&mut self, site: &str, id: u64, indirect: bool) {
        if self.cov.silent {
            return;
        }
        // The hardware trace unit sees every branch the core retires,
        // before and regardless of what the image compiled in — tracing
        // is the silicon's job, not the image's — and at zero core
        // cycles: the packet engine runs in the debug power domain.
        self.bus.trace.emit(id, indirect);
        let module = site.split("::").nth(1).unwrap_or("");
        if !self.cov.module_active(module) {
            return;
        }
        self.cov.hits += 1;
        self.bus.charge_instr(InstrumentCost::CYCLES_PER_HIT);
        if let Some(region) = self.cov.region {
            match region.record(&mut self.bus.ram, self.bus.endianness, id) {
                Ok(RecordOutcome::Stored) => {}
                Ok(RecordOutcome::Full) => self.cov.buffer_full = true,
                Ok(RecordOutcome::Dropped) => self.cov.dropped += 1,
                // A broken region (misconfigured address) degrades to
                // counting only; never crashes the host.
                Err(_) => self.cov.dropped += 1,
            }
        }
    }

    /// Comparison hook at a static site (the planted `trace_cmp`
    /// callback). Free unless the site's module is instrumented AND the
    /// layout has a cmp ring AND a host armed it — so an image with the
    /// ring laid out but nobody listening costs zero cycles, and the
    /// `EOF_CMPLOG=0` campaign is bit-identical to a pre-cmplog one.
    pub fn cmp(&mut self, site: &'static str, width: u32, lhs: u64, rhs: u64) {
        let module = site.split("::").nth(1).unwrap_or("");
        if !self.cov.module_active(module) {
            return;
        }
        let Some(region) = self.cov.cmp_region else {
            return;
        };
        let e = self.bus.endianness;
        if !region.armed(&self.bus.ram, e) {
            return;
        }
        self.cov.cmp_hits += 1;
        self.bus.charge_instr(InstrumentCost::CYCLES_PER_HIT);
        let id = (edge_id(site) & 0xffff_ffff) as u32;
        let rec = CmpRecord {
            site: id,
            width,
            lhs,
            rhs,
        };
        match region.record(&mut self.bus.ram, e, rec) {
            Ok(RecordOutcome::Stored) | Ok(RecordOutcome::Full) => {}
            // Ring full or broken region: degrade to counting only.
            Ok(RecordOutcome::Dropped) | Err(_) => self.cov.cmp_dropped += 1,
        }
    }

    /// Emit a kernel log line over the UART.
    pub fn klog(&mut self, line: &str) {
        self.bus.charge(1 + line.len() as u64 / 8);
        self.bus.uart.tx_line(line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eof_hal::Endianness;

    fn bus() -> Bus {
        Bus::new(0x2000_0000, 0x4000, Endianness::Little)
    }

    #[test]
    fn uninstrumented_hooks_are_free() {
        let mut b = bus();
        let mut cov = CovState::uninstrumented();
        let before = b.now();
        let mut ctx = ExecCtx::new(&mut b, &mut cov);
        ctx.cov("os::kernel::f::a");
        assert_eq!(cov.hits, 0);
        assert_eq!(b.now(), before);
    }

    #[test]
    fn full_mode_records_and_charges() {
        let mut b = bus();
        let region = CovRegion::new(0x2000_0100, 8);
        region.init(&mut b.ram, Endianness::Little).unwrap();
        let mut cov = CovState::instrumented(InstrumentMode::Full, region);
        let before = b.now();
        {
            let mut ctx = ExecCtx::new(&mut b, &mut cov);
            ctx.cov("os::kernel::f::a");
            ctx.cov("os::kernel::f::b");
        }
        assert_eq!(cov.hits, 2);
        assert!(b.now() > before);
        assert_eq!(region.count(&b.ram, Endianness::Little).unwrap(), 2);
    }

    #[test]
    fn module_confinement_filters_sites() {
        let mut b = bus();
        let region = CovRegion::new(0x2000_0100, 8);
        region.init(&mut b.ram, Endianness::Little).unwrap();
        let mut cov = CovState::instrumented(InstrumentMode::Modules(vec!["json".into()]), region);
        {
            let mut ctx = ExecCtx::new(&mut b, &mut cov);
            ctx.cov("os::json::parse::digit");
            ctx.cov("os::kernel::sched::tick");
        }
        assert_eq!(cov.hits, 1);
    }

    #[test]
    fn buffer_full_raises_flag() {
        let mut b = bus();
        let region = CovRegion::new(0x2000_0100, 2);
        region.init(&mut b.ram, Endianness::Little).unwrap();
        let mut cov = CovState::instrumented(InstrumentMode::Full, region);
        {
            let mut ctx = ExecCtx::new(&mut b, &mut cov);
            ctx.cov("os::m::f::a");
            assert!(!ctx.cov.buffer_full);
            ctx.cov("os::m::f::b");
            assert!(ctx.cov.buffer_full);
            ctx.cov("os::m::f::c");
        }
        assert_eq!(cov.dropped, 1);
    }

    #[test]
    fn variant_sites_are_distinct() {
        let mut b = bus();
        let region = CovRegion::new(0x2000_0100, 16);
        region.init(&mut b.ram, Endianness::Little).unwrap();
        let mut cov = CovState::instrumented(InstrumentMode::Full, region);
        {
            let mut ctx = ExecCtx::new(&mut b, &mut cov);
            for k in 0..4 {
                ctx.cov_var("os::json::parse::state", k);
            }
        }
        let raw = b
            .ram
            .slice(0x2000_0100, region.drain_len())
            .unwrap()
            .to_vec();
        let (edges, _) = region.parse_drain(&raw, Endianness::Little);
        let mut dedup = edges.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), 4, "all four variants must be distinct edges");
    }

    #[test]
    fn disarmed_cmp_hook_is_free() {
        let mut b = bus();
        let region = CovRegion::new(0x2000_0100, 8);
        region.init(&mut b.ram, Endianness::Little).unwrap();
        let cmp = CmpRegion::new(0x2000_0300, 8);
        cmp.init(&mut b.ram, Endianness::Little).unwrap();
        let mut cov = CovState::instrumented(InstrumentMode::Full, region).with_cmp(cmp);
        let before = b.now();
        ExecCtx::new(&mut b, &mut cov).cmp("os::m::f::guard", 4, 7, 0xdead_beef);
        assert_eq!(cov.cmp_hits, 0, "disarmed ring must not count hits");
        assert_eq!(b.now(), before, "disarmed hook must be free");
        assert_eq!(cmp.count(&b.ram, Endianness::Little).unwrap(), 0);
    }

    #[test]
    fn armed_cmp_hook_records_and_charges() {
        let mut b = bus();
        let region = CovRegion::new(0x2000_0100, 8);
        region.init(&mut b.ram, Endianness::Little).unwrap();
        let cmp = CmpRegion::new(0x2000_0300, 8);
        cmp.init(&mut b.ram, Endianness::Little).unwrap();
        cmp.arm(&mut b.ram, Endianness::Little).unwrap();
        let mut cov =
            CovState::instrumented(InstrumentMode::Modules(vec!["m".into()]), region).with_cmp(cmp);
        let before = b.now();
        {
            let mut ctx = ExecCtx::new(&mut b, &mut cov);
            ctx.cmp("os::m::f::guard", 4, 7, 0xdead_beef);
            // An uninstrumented module stays silent even when armed.
            ctx.cmp("other::quiet::f::guard", 8, 1, 2);
        }
        assert_eq!(cov.cmp_hits, 1);
        assert!(b.now() > before);
        let raw = b.ram.slice(0x2000_0300, cmp.drain_len()).unwrap().to_vec();
        let (recs, _) = cmp.parse_drain(&raw, Endianness::Little);
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].width, 4);
        assert_eq!(recs[0].lhs, 7);
        assert_eq!(recs[0].rhs, 0xdead_beef);
        assert_eq!(
            recs[0].site,
            (edge_id("os::m::f::guard") & 0xffff_ffff) as u32
        );
    }

    #[test]
    fn full_cmp_ring_counts_drops() {
        let mut b = bus();
        let region = CovRegion::new(0x2000_0100, 8);
        region.init(&mut b.ram, Endianness::Little).unwrap();
        let cmp = CmpRegion::new(0x2000_0300, 2);
        cmp.init(&mut b.ram, Endianness::Little).unwrap();
        cmp.arm(&mut b.ram, Endianness::Little).unwrap();
        let mut cov = CovState::instrumented(InstrumentMode::Full, region).with_cmp(cmp);
        {
            let mut ctx = ExecCtx::new(&mut b, &mut cov);
            ctx.cmp("os::m::f::a", 4, 1, 2);
            ctx.cmp("os::m::f::b", 4, 3, 4);
            ctx.cmp("os::m::f::c", 4, 5, 6);
        }
        assert_eq!(cov.cmp_hits, 3, "drops still count as hits (cycles burned)");
        assert_eq!(cov.cmp_dropped, 1);
        assert_eq!(cmp.count(&b.ram, Endianness::Little).unwrap(), 2);
    }

    #[test]
    fn instrumentation_charges_burn_budget_but_not_core_time() {
        let mut b = bus();
        let region = CovRegion::new(0x2000_0100, 8);
        region.init(&mut b.ram, Endianness::Little).unwrap();
        let mut cov = CovState::instrumented(InstrumentMode::Full, region);
        let core_before = b.core_now();
        {
            let mut ctx = ExecCtx::new(&mut b, &mut cov);
            ctx.cov("os::kernel::f::a");
            ctx.cov("os::kernel::f::b");
        }
        // The campaign clock moved (overheads A/B sees the slowdown)…
        assert_eq!(b.now(), 2 * InstrumentCost::CYCLES_PER_HIT);
        // …but the kernel-visible clock did not: an instrumented image
        // and a plain one run identical target histories.
        assert_eq!(b.core_now(), core_before);
    }

    #[test]
    fn armed_trace_captures_uninstrumented_hooks_for_free() {
        let mut b = bus();
        b.trace.set_enabled(true);
        let mut cov = CovState::uninstrumented();
        let before = b.now();
        {
            let mut ctx = ExecCtx::new(&mut b, &mut cov);
            ctx.cov("os::kernel::f::a");
            ctx.cov_var("os::json::parse::state", 3);
            ctx.cov("os::kernel::f::a");
        }
        // Trace is the hardware's job, not the image's: no hook fired,
        // no cycle burned, yet every branch is in the FIFO.
        assert_eq!(cov.hits, 0);
        assert_eq!(b.now(), before);
        assert_eq!(b.trace.packets(), 3);
        let (bytes, lost) = b.trace.drain();
        assert_eq!(lost, 0);
        let mut d = eof_coverage::TraceDecoder::new();
        let edges = d.feed(&bytes);
        assert_eq!(edges.len(), 3);
        assert_eq!(edges[0], edges[2]);
        assert_eq!(edges[0], edge_id("os::kernel::f::a"));
    }

    #[test]
    fn trace_and_ring_see_the_same_hit_sequence() {
        let mut b = bus();
        b.trace.set_enabled(true);
        let region = CovRegion::new(0x2000_0100, 32);
        region.init(&mut b.ram, Endianness::Little).unwrap();
        let mut cov = CovState::instrumented(InstrumentMode::Full, region);
        {
            let mut ctx = ExecCtx::new(&mut b, &mut cov);
            ctx.cov("os::m::f::a");
            ctx.cov_var("os::m::g::state", 1);
            ctx.cov_var("os::m::g::state", 2);
            ctx.cov("os::m::f::a");
        }
        let raw = b
            .ram
            .slice(0x2000_0100, region.drain_len())
            .unwrap()
            .to_vec();
        let (ring_edges, _) = region.parse_drain(&raw, Endianness::Little);
        let (bytes, _) = b.trace.drain();
        let mut d = eof_coverage::TraceDecoder::new();
        let trace_edges = d.feed(&bytes);
        assert_eq!(
            trace_edges, ring_edges,
            "both channels record every hit in order"
        );
    }

    #[test]
    fn klog_reaches_uart() {
        let mut b = bus();
        let mut cov = CovState::uninstrumented();
        ExecCtx::new(&mut b, &mut cov).klog("I (0) kernel: up");
        assert_eq!(b.uart.drain(), b"I (0) kernel: up\n");
    }
}
