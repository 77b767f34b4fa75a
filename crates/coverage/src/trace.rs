//! Host-side streaming decoder for the hardware trace stream.
//!
//! The device half lives in [`eof_hal::trace`]: an ETM-style unit that
//! compresses the kernel's branch events into byte packets (SYNC /
//! REPEAT / delta / ADDR / OVERFLOW) in a bounded FIFO. This is the
//! probe half: a state machine that eats drained byte chunks — packets
//! may span drain boundaries — and reconstructs the per-hit edge-id
//! sequence, in device order, exactly as the instrumented ring would
//! have recorded it.
//!
//! Degradation is explicit and lossy-safe: an OVERFLOW marker (or a
//! malformed byte) never fabricates edges. On malformed input the
//! decoder drops bytes until the next `00 A5` SYNC preamble and counts
//! a resync; on OVERFLOW it counts the gap and re-locks at the SYNC
//! the encoder guarantees next.

use eof_hal::trace::{
    PKT_ADDR, PKT_BRANCH, PKT_OVERFLOW, PKT_REPEAT, PKT_SYNC0, PKT_SYNC1, TRACE_HEADER_BYTES,
};

/// Decoder statistics, surfaced as `cov.trace.*` telemetry by the
/// executor.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// Packets decoded.
    pub packets: u64,
    /// Stream bytes consumed.
    pub bytes: u64,
    /// FIFO overflow gaps observed (markers plus header loss counts).
    pub overflows: u64,
    /// Times the decoder lost lock and scanned for a SYNC preamble.
    pub resyncs: u64,
}

/// Streaming packet decoder. Feed it drained chunks; it buffers
/// partial packets internally and never invents an edge.
#[derive(Debug, Clone, Default)]
pub struct TraceDecoder {
    buf: Vec<u8>,
    last: Option<u64>,
    scanning: bool,
    stats: TraceStats,
}

impl TraceDecoder {
    /// A fresh decoder, locked and waiting for the stream's first SYNC.
    pub fn new() -> Self {
        Self::default()
    }

    /// Decoder statistics so far.
    pub fn stats(&self) -> TraceStats {
        self.stats
    }

    /// Drop all stream state (partial packet, address register). Called
    /// when the target is recovered or a drain is discarded whole — the
    /// next stream the device produces will open with its own SYNC.
    pub fn reset(&mut self) {
        self.buf.clear();
        self.last = None;
        self.scanning = false;
    }

    /// Consume one drained chunk, returning the edge ids it completes.
    pub fn feed(&mut self, chunk: &[u8]) -> Vec<u64> {
        self.buf.extend_from_slice(chunk);
        let mut edges = Vec::new();
        let mut pos = 0usize;
        loop {
            if self.scanning {
                // Lost lock: skip to the next SYNC preamble.
                match self.buf[pos..]
                    .windows(2)
                    .position(|w| w == [PKT_SYNC0, PKT_SYNC1])
                {
                    Some(off) => {
                        pos += off;
                        self.scanning = false;
                    }
                    None => {
                        // Keep at most one byte in case a preamble is
                        // split across this chunk boundary.
                        pos = self.buf.len().saturating_sub(1).max(pos);
                        break;
                    }
                }
            }
            let Some(&header) = self.buf.get(pos) else {
                break;
            };
            match header {
                PKT_SYNC0 => {
                    if self.buf.len() < pos + 10 {
                        break; // partial SYNC — wait for more bytes
                    }
                    if self.buf[pos + 1] != PKT_SYNC1 {
                        self.desync(&mut pos);
                        continue;
                    }
                    let id = u64::from_le_bytes(self.buf[pos + 2..pos + 10].try_into().unwrap());
                    self.last = Some(id);
                    edges.push(id);
                    self.packet(&mut pos, 10);
                }
                PKT_REPEAT => match self.last {
                    Some(id) => {
                        edges.push(id);
                        self.packet(&mut pos, 1);
                    }
                    None => self.desync(&mut pos),
                },
                PKT_OVERFLOW => {
                    // Events were lost; the encoder re-locks with a SYNC
                    // next. Nothing to emit — gaps never become edges.
                    self.stats.overflows += 1;
                    self.packet(&mut pos, 1);
                }
                h if (h & 0xF0 == PKT_BRANCH || h & 0xF0 == PKT_ADDR)
                    && (1..=8).contains(&(h & 0x0F)) =>
                {
                    let n = (h & 0x0F) as usize;
                    if self.buf.len() < pos + 1 + n {
                        break; // partial delta — wait for more bytes
                    }
                    let Some(prev) = self.last else {
                        self.desync(&mut pos);
                        continue;
                    };
                    let mut d = [0u8; 8];
                    d[..n].copy_from_slice(&self.buf[pos + 1..pos + 1 + n]);
                    let id = prev ^ u64::from_le_bytes(d);
                    self.last = Some(id);
                    edges.push(id);
                    self.packet(&mut pos, 1 + n);
                }
                _ => self.desync(&mut pos),
            }
        }
        self.buf.drain(..pos);
        edges
    }

    fn packet(&mut self, pos: &mut usize, len: usize) {
        self.stats.packets += 1;
        self.stats.bytes += len as u64;
        *pos += len;
    }

    fn desync(&mut self, pos: &mut usize) {
        self.stats.resyncs += 1;
        self.last = None;
        self.scanning = true;
        *pos += 1;
    }

    /// Decode a full wire drain (12-byte header + stream bytes) as the
    /// transport ships it. Returns the completed edges and the header's
    /// lost-event count; a non-zero count also bumps the overflow stat,
    /// so header-reported loss is visible even if the drain races ahead
    /// of the in-stream OVERFLOW marker.
    pub fn feed_drain(&mut self, bytes: &[u8]) -> (Vec<u64>, u32) {
        if bytes.len() < TRACE_HEADER_BYTES {
            return (Vec::new(), 0);
        }
        let used = u32::from_le_bytes(bytes[0..4].try_into().unwrap()) as usize;
        let lost = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
        let body_end = (TRACE_HEADER_BYTES + used).min(bytes.len());
        let edges = self.feed(&bytes[TRACE_HEADER_BYTES..body_end]);
        if lost > 0 {
            self.stats.overflows += u64::from(lost);
        }
        (edges, lost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eof_hal::TraceUnit;

    fn armed(cap: usize) -> TraceUnit {
        let mut t = TraceUnit::with_capacity(cap);
        t.set_enabled(true);
        t
    }

    #[test]
    fn roundtrip_reproduces_the_hit_sequence() {
        let mut t = armed(4096);
        let seq = [7u64, 7, 9, 0xffff_ffff_0000_0001, 9, 9, 7];
        for (i, &id) in seq.iter().enumerate() {
            t.emit(id, i % 3 == 0);
        }
        let (bytes, lost) = t.drain();
        assert_eq!(lost, 0);
        let mut d = TraceDecoder::new();
        assert_eq!(d.feed(&bytes), seq.to_vec());
        assert_eq!(d.stats().resyncs, 0);
    }

    #[test]
    fn packets_split_across_chunk_boundaries_decode_identically() {
        let mut t = armed(4096);
        let seq: Vec<u64> = (0..40)
            .map(|i| (i as u64).wrapping_mul(0x9e37_79b9))
            .collect();
        for &id in &seq {
            t.emit(id, false);
        }
        let (bytes, _) = t.drain();
        for split in [1usize, 3, 7, 9, 11] {
            let mut d = TraceDecoder::new();
            let mut got = Vec::new();
            for chunk in bytes.chunks(split) {
                got.extend(d.feed(chunk));
            }
            assert_eq!(got, seq, "split {split}");
        }
    }

    #[test]
    fn stream_continues_across_drains() {
        let mut t = armed(4096);
        let mut d = TraceDecoder::new();
        t.emit(1, false);
        t.emit(2, false);
        let (b1, _) = t.drain();
        t.emit(2, false); // repeat relative to pre-drain state
        t.emit(3, false);
        let (b2, _) = t.drain();
        let mut got = d.feed(&b1);
        got.extend(d.feed(&b2));
        assert_eq!(got, vec![1, 2, 2, 3]);
    }

    #[test]
    fn overflow_gap_is_counted_and_never_invents_edges() {
        let mut t = armed(16);
        t.emit(0xAAAA, false); // sync: 10 bytes
        t.emit(0xAAAB, false); // delta: 2 bytes
        t.emit(0xBBBB, false); // 3 bytes needed, 4 left: fits
        t.emit(0xCCCC, false); // lost
        assert_eq!(t.lost(), 1);
        let (b1, lost1) = t.drain();
        let mut d = TraceDecoder::new();
        let got1 = d.feed(&b1);
        assert_eq!(got1, vec![0xAAAA, 0xAAAB, 0xBBBB]);
        assert_eq!(lost1, 1);
        // Post-drain the encoder re-locks: OVERFLOW + SYNC.
        t.emit(0xDDDD, false);
        let (b2, _) = t.drain();
        let got2 = d.feed(&b2);
        assert_eq!(got2, vec![0xDDDD]);
        assert_eq!(d.stats().overflows, 1);
        assert_eq!(d.stats().resyncs, 0);
    }

    #[test]
    fn garbage_triggers_resync_at_the_next_preamble() {
        let mut t = armed(4096);
        t.emit(42, false);
        t.emit(43, false);
        let (tail, _) = t.drain();
        let mut stream = vec![0xFEu8, 0x33, 0x07]; // line noise
        stream.extend_from_slice(&tail);
        let mut d = TraceDecoder::new();
        let got = d.feed(&stream);
        assert_eq!(got, vec![42, 43]);
        assert!(d.stats().resyncs >= 1);
    }

    #[test]
    fn wire_drain_header_framing_roundtrips() {
        let mut t = armed(4096);
        t.emit(5, false);
        t.emit(6, true);
        let mut wire = t.header().to_vec();
        let (stream, _) = t.drain();
        wire.extend_from_slice(&stream);
        let mut d = TraceDecoder::new();
        let (edges, lost) = d.feed_drain(&wire);
        assert_eq!(edges, vec![5, 6]);
        assert_eq!(lost, 0);
    }

    #[test]
    fn reset_drops_partial_state() {
        let mut t = armed(4096);
        t.emit(9, false);
        let (bytes, _) = t.drain();
        let mut d = TraceDecoder::new();
        d.feed(&bytes[..4]); // partial SYNC held
        d.reset();
        assert_eq!(d.feed(&bytes[4..]), Vec::<u64>::new());
        // A fresh stream after reset decodes cleanly.
        t.quiesce();
        t.emit(11, false);
        let (b2, _) = t.drain();
        let got = d.feed(&b2);
        assert_eq!(got, vec![11]);
    }
}
