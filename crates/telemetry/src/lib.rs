//! # eof-telemetry — deterministic, simulated-clock observability
//!
//! A campaign-scoped telemetry layer for the EOF reproduction. Every
//! instrumented layer (DAP transport, HAL fault machinery, executor,
//! fuzzer, recovery supervisor) records into a thread-local
//! [`Registry`] installed for the duration of one campaign; the fleet
//! then merges per-job registries **in submission order**, so identical
//! seeds produce identical merged telemetry regardless of `EOF_JOBS`.
//!
//! ## Determinism contract
//!
//! - All recorded quantities live in the *simulated-cycle* domain
//!   (`eof_hal::clock`), never wall time — except span `wall_ns`, which
//!   is auxiliary profiling data carried only by the detailed trace and
//!   JSONL journal, and excluded from [`TelemetrySummary`].
//! - A recorder is installed per campaign (per fleet job), not per
//!   thread-pool worker: which OS thread ran a job never affects what
//!   that job records.
//! - Record functions check only "is a recorder installed on this
//!   thread" — they do not re-read the `EOF_TRACE` environment — so a
//!   campaign's telemetry cannot change shape mid-run.
//!
//! ## Cost when disabled
//!
//! With `EOF_TRACE` unset no recorder is ever installed, and every
//! record function is a single thread-local boolean load followed by a
//! predictable branch — no allocation, no formatting (event details are
//! built by closures that never run), no locks.
//!
//! ## Usage
//!
//! ```
//! use eof_telemetry as tel;
//!
//! let guard = tel::begin(); // normally: only when tel::enabled()
//! tel::count("fuzz.execs", 1);
//! let span = tel::span_start("exec", 100);
//! tel::span_end(span, 250);
//! tel::event("exec.slow", 250, || "cycles=150".to_string());
//! let registry = guard.finish();
//! assert_eq!(registry.counter("fuzz.execs"), 1);
//! assert_eq!(registry.span_aggs["exec"].total_cycles, 150);
//! ```

mod export;
mod registry;

pub use export::{chrome_trace, jsonl_journal, prometheus_text};
pub use registry::{
    bit_width, EventRecord, Histogram, Merged, OpStats, Registry, SpanAgg, SpanRecord,
    TelemetrySummary, MAX_EVENTS, MAX_SPANS,
};

use std::cell::{Cell, RefCell};
use std::sync::OnceLock;
use std::time::Instant;

thread_local! {
    /// Fast-path flag: true iff a recorder is installed on this thread.
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
    /// The installed recorder, if any.
    static CURRENT: RefCell<Option<Registry>> = const { RefCell::new(None) };
}

/// Whether tracing was requested for this process (`EOF_TRACE` set to
/// anything but `0`/empty). Cached on first call; callers use this to
/// decide whether to [`begin`] a recorder — record functions themselves
/// only consult the thread-local installation state.
pub fn enabled() -> bool {
    static ENABLED: OnceLock<bool> = OnceLock::new();
    *ENABLED.get_or_init(|| match std::env::var("EOF_TRACE") {
        Ok(v) => !(v.is_empty() || v == "0"),
        Err(_) => false,
    })
}

/// Whether a recorder is installed on the current thread.
#[inline]
pub fn active() -> bool {
    ACTIVE.with(|a| a.get())
}

/// Scope guard for an installed recorder. Obtain via [`begin`]; call
/// [`RecorderGuard::finish`] to take the recorded [`Registry`]. If the
/// guard is dropped without `finish` (e.g. a campaign panicked), the
/// recorder is uninstalled and its data discarded, so panic-isolated
/// fleet jobs never leak a recorder into the next job on that thread.
#[must_use = "dropping the guard discards recorded telemetry; call finish()"]
pub struct RecorderGuard {
    finished: bool,
}

/// Install a fresh recorder on the current thread.
///
/// # Panics
/// Panics if a recorder is already installed (campaigns don't nest).
pub fn begin() -> RecorderGuard {
    ACTIVE.with(|a| {
        assert!(
            !a.get(),
            "telemetry recorder already installed on this thread"
        );
        a.set(true);
    });
    CURRENT.with(|c| *c.borrow_mut() = Some(Registry::new()));
    RecorderGuard { finished: false }
}

impl RecorderGuard {
    /// Uninstall the recorder and return everything it captured.
    pub fn finish(mut self) -> Registry {
        self.finished = true;
        ACTIVE.with(|a| a.set(false));
        CURRENT
            .with(|c| c.borrow_mut().take())
            .expect("recorder guard live but no registry installed")
    }
}

impl Drop for RecorderGuard {
    fn drop(&mut self) {
        if !self.finished {
            ACTIVE.with(|a| a.set(false));
            CURRENT.with(|c| *c.borrow_mut() = None);
        }
    }
}

/// Run `f` with any installed recorder temporarily uninstalled, then
/// restore it. Auxiliary work that re-executes instrumented layers —
/// replaying a persisted reproducer, minimizing a crash on a fresh
/// executor — would otherwise pollute the campaign's counters;
/// wrapping such work in `suspended` keeps the campaign registry
/// describing only the campaign. The recorder is
/// restored even if `f` panics.
pub fn suspended<R>(f: impl FnOnce() -> R) -> R {
    struct Restore(Option<Registry>);
    impl Drop for Restore {
        fn drop(&mut self) {
            if let Some(reg) = self.0.take() {
                CURRENT.with(|c| *c.borrow_mut() = Some(reg));
                ACTIVE.with(|a| a.set(true));
            }
        }
    }
    let saved = if active() {
        ACTIVE.with(|a| a.set(false));
        CURRENT.with(|c| c.borrow_mut().take())
    } else {
        None
    };
    let _restore = Restore(saved);
    f()
}

#[inline]
fn with_registry(f: impl FnOnce(&mut Registry)) {
    if !active() {
        return;
    }
    CURRENT.with(|c| {
        if let Some(reg) = c.borrow_mut().as_mut() {
            f(reg);
        }
    });
}

/// Add `delta` to the named monotonic counter.
#[inline]
pub fn count(name: &'static str, delta: u64) {
    with_registry(|r| r.count(name, delta));
}

/// Record a histogram sample.
#[inline]
pub fn observe(name: &'static str, value: u64) {
    with_registry(|r| r.observe(name, value));
}

/// Record one operation outcome (count + error flag + cycle cost).
/// Cheaper than a span for hot request-shaped paths like DAP ops.
#[inline]
pub fn op(name: &'static str, cycles: u64, failed: bool) {
    with_registry(|r| r.op(name, cycles, failed));
}

/// An open span. Produced by [`span_start`]; close with [`span_end`].
/// When no recorder is installed the token is inert (`wall` is `None`)
/// and `span_end` is a single branch.
#[derive(Debug)]
pub struct SpanToken {
    name: &'static str,
    start_cycles: u64,
    wall: Option<Instant>,
}

/// Open a span at the given simulated-cycle timestamp.
#[inline]
pub fn span_start(name: &'static str, start_cycles: u64) -> SpanToken {
    let wall = if active() { Some(Instant::now()) } else { None };
    SpanToken {
        name,
        start_cycles,
        wall,
    }
}

/// Close a span at the given simulated-cycle timestamp.
#[inline]
pub fn span_end(token: SpanToken, end_cycles: u64) {
    let Some(started) = token.wall else { return };
    let wall_ns = started.elapsed().as_nanos().min(u64::MAX as u128) as u64;
    with_registry(|r| {
        r.span(SpanRecord {
            name: token.name,
            start_cycles: token.start_cycles,
            end_cycles,
            wall_ns,
        })
    });
}

/// Record a journal event. The detail string is built lazily: `detail`
/// never runs unless a recorder is installed, so callers may format
/// freely without a disabled-path cost.
#[inline]
pub fn event(name: &'static str, cycles: u64, detail: impl FnOnce() -> String) {
    if !active() {
        return;
    }
    let detail = detail();
    with_registry(|r| {
        r.event(EventRecord {
            name,
            cycles,
            detail,
        })
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_calls_are_noops_without_a_recorder() {
        assert!(!active());
        count("x", 1);
        observe("h", 2);
        op("o", 3, false);
        let t = span_start("s", 0);
        assert!(t.wall.is_none());
        span_end(t, 10);
        let mut ran = false;
        event("e", 0, || {
            ran = true;
            String::new()
        });
        assert!(!ran, "event detail closure ran while disabled");
        // A subsequent recorder sees none of it.
        let guard = begin();
        let reg = guard.finish();
        assert!(reg.counters.is_empty());
        assert!(reg.spans.is_empty());
    }

    #[test]
    fn guard_captures_and_finish_uninstalls() {
        let guard = begin();
        assert!(active());
        count("fuzz.execs", 2);
        count("fuzz.execs", 3);
        observe("lat", 16);
        op("read_mem", 4, true);
        let t = span_start("exec", 100);
        event("note", 150, || "hello".to_string());
        span_end(t, 250);
        let reg = guard.finish();
        assert!(!active());
        assert_eq!(reg.counter("fuzz.execs"), 5);
        assert_eq!(reg.hist("lat").unwrap().count, 1);
        assert_eq!(reg.ops["read_mem"].errors, 1);
        assert_eq!(reg.spans.len(), 1);
        assert_eq!(reg.spans[0].end_cycles, 250);
        assert_eq!(reg.events[0].detail, "hello");
    }

    #[test]
    fn dropped_guard_discards_and_allows_reinstall() {
        {
            let _guard = begin();
            count("x", 1);
            // dropped without finish(), as after a campaign panic
        }
        assert!(!active());
        let guard = begin();
        count("x", 10);
        let reg = guard.finish();
        assert_eq!(reg.counter("x"), 10);
    }

    #[test]
    #[should_panic(expected = "already installed")]
    fn nested_begin_panics() {
        let _a = begin();
        let _b = begin();
    }

    #[test]
    fn suspended_hides_records_and_restores_recorder() {
        let guard = begin();
        count("kept", 1);
        let out = suspended(|| {
            assert!(!active(), "recorder visible inside suspended scope");
            count("hidden", 7);
            42
        });
        assert_eq!(out, 42);
        assert!(active(), "recorder not restored");
        count("kept", 1);
        let reg = guard.finish();
        assert_eq!(reg.counter("kept"), 2);
        assert_eq!(reg.counter("hidden"), 0, "suspended work leaked");
    }

    #[test]
    fn suspended_without_recorder_is_a_noop() {
        assert!(!active());
        let out = suspended(|| {
            count("x", 1);
            5
        });
        assert_eq!(out, 5);
        assert!(!active());
    }

    #[test]
    fn suspended_restores_after_panic() {
        let guard = begin();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            suspended(|| panic!("boom"))
        }));
        assert!(caught.is_err());
        assert!(active(), "recorder lost after panic inside suspended");
        count("after", 3);
        assert_eq!(guard.finish().counter("after"), 3);
    }
}
