//! Coverage acquisition backends.
//!
//! The fuzzing loop only needs one thing from coverage: *the per-hit
//! edge-id sequence each execution produced*. How those ids got off the
//! device is a backend concern — compiled-in SanCov hooks filling an
//! in-RAM ring ([`InstrumentedRing`], the paper's §4.5.1 channel), or
//! an ETM-style hardware trace unit streaming packets that the host
//! decodes ([`TraceDecode`], the µAFL channel, which needs no
//! instrumentation in the image at all). `eof-core` selects a backend
//! via `FuzzerConfig::coverage_backend` / the `EOF_COV` env knob and
//! treats it uniformly from there.

use crate::buffer::CovRegion;
use crate::trace::{TraceDecoder, TraceStats};
use eof_hal::Endianness;

/// Which coverage channel a campaign acquires edges over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoverageKind {
    /// Compiled-in SanCov-style hooks + on-device ring buffer.
    Ring,
    /// Hardware trace unit + host-side packet decode; the image carries
    /// no coverage instrumentation.
    Trace,
}

impl CoverageKind {
    /// Manifest/display token (`cov = ring|trace`).
    pub fn token(self) -> &'static str {
        match self {
            CoverageKind::Ring => "ring",
            CoverageKind::Trace => "trace",
        }
    }

    /// Parse a manifest token; unknown tokens read as the default ring
    /// channel (absent-tolerant, like `wire =` / `io =`).
    pub fn from_token(s: &str) -> Self {
        match s {
            "trace" => CoverageKind::Trace,
            _ => CoverageKind::Ring,
        }
    }
}

/// One decoded coverage drain.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DrainedCoverage {
    /// Per-hit edge ids, in device emission order.
    pub edges: Vec<u64>,
    /// Events the device lost this window (ring records dropped past
    /// capacity, or trace FIFO overflow).
    pub lost: u32,
}

impl DrainedCoverage {
    /// Did this window lose events? Downstream marks the exec's
    /// coverage partial — observed edges stay valid, absence proves
    /// nothing.
    pub fn partial(&self) -> bool {
        self.lost > 0
    }
}

/// A coverage acquisition channel, as the executor sees it: raw drain
/// bytes in, edge sequence out.
pub trait CoverageBackend {
    /// Which channel this is (drives wire-op selection and manifests).
    fn kind(&self) -> CoverageKind;

    /// Decode one raw drain payload as the wire shipped it (header
    /// first, then live bytes).
    fn decode_drain(&mut self, bytes: &[u8], endianness: Endianness) -> DrainedCoverage;

    /// Drop any cross-drain streaming state. Called when the target is
    /// recovered (reset/reflash/restore) or a drain is discarded whole.
    fn reset_stream(&mut self);

    /// Decoder statistics (zero for channels without a decoder).
    fn stats(&self) -> TraceStats {
        TraceStats::default()
    }
}

/// The paper's channel: SanCov hooks + in-RAM ring, drained and parsed
/// with [`CovRegion`]. Stateless across drains.
#[derive(Debug, Clone)]
pub struct InstrumentedRing {
    region: CovRegion,
}

impl InstrumentedRing {
    /// Backend over the given ring region.
    pub fn new(region: CovRegion) -> Self {
        InstrumentedRing { region }
    }
}

impl CoverageBackend for InstrumentedRing {
    fn kind(&self) -> CoverageKind {
        CoverageKind::Ring
    }

    fn decode_drain(&mut self, bytes: &[u8], endianness: Endianness) -> DrainedCoverage {
        let (edges, lost) = self.region.parse_drain(bytes, endianness);
        DrainedCoverage { edges, lost }
    }

    fn reset_stream(&mut self) {}
}

/// The µAFL channel: hardware trace packets, decoded host-side. Holds
/// the streaming decoder (packets span drains).
#[derive(Debug, Clone, Default)]
pub struct TraceDecode {
    decoder: TraceDecoder,
}

impl TraceDecode {
    /// A fresh decode backend.
    pub fn new() -> Self {
        Self::default()
    }
}

impl CoverageBackend for TraceDecode {
    fn kind(&self) -> CoverageKind {
        CoverageKind::Trace
    }

    fn decode_drain(&mut self, bytes: &[u8], _endianness: Endianness) -> DrainedCoverage {
        // The trace unit is debug-subsystem hardware: fixed LE framing
        // regardless of core endianness.
        let (edges, lost) = self.decoder.feed_drain(bytes);
        DrainedCoverage { edges, lost }
    }

    fn reset_stream(&mut self) {
        self.decoder.reset();
    }

    fn stats(&self) -> TraceStats {
        self.decoder.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eof_hal::{Ram, TraceUnit};

    #[test]
    fn tokens_roundtrip_and_unknowns_default_to_ring() {
        assert_eq!(CoverageKind::from_token("trace"), CoverageKind::Trace);
        assert_eq!(CoverageKind::from_token("ring"), CoverageKind::Ring);
        assert_eq!(CoverageKind::from_token("???"), CoverageKind::Ring);
        assert_eq!(CoverageKind::Trace.token(), "trace");
    }

    #[test]
    fn ring_backend_matches_parse_drain() {
        let mut ram = Ram::new(0x2000_0000, 0x1000);
        let region = CovRegion::new(0x2000_0100, 8);
        let e = Endianness::Little;
        region.init(&mut ram, e).unwrap();
        for id in [3u64, 4, 3] {
            region.record(&mut ram, e, id).unwrap();
        }
        let raw = ram.slice(region.base, region.drain_len()).unwrap().to_vec();
        let mut b = InstrumentedRing::new(region);
        let d = b.decode_drain(&raw, e);
        assert_eq!(d.edges, vec![3, 4, 3]);
        assert!(!d.partial());
    }

    #[test]
    fn trace_backend_decodes_a_wire_drain_and_flags_loss() {
        let mut t = TraceUnit::with_capacity(12);
        t.set_enabled(true);
        t.emit(1, false);
        t.emit(0x100, false); // 3-byte packet: dropped (10+3 > 12)
        let mut wire = t.header().to_vec();
        let (stream, _) = t.drain();
        wire.extend_from_slice(&stream);
        let mut b = TraceDecode::new();
        let d = b.decode_drain(&wire, Endianness::Big);
        assert_eq!(d.edges, vec![1]);
        assert!(d.partial());
        assert!(b.stats().overflows >= 1);
    }
}
