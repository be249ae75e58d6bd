//! Hierarchical wall-clock span timing with thread-local span stacks.
//!
//! [`span("advise")`](span) returns a [`SpanGuard`]; the span covers
//! the guard's lifetime. Guards nest lexically — a guard created while
//! another is live is its child — and the nesting is tracked per
//! thread, so parallel grading workers each get their own stack.
//!
//! Recording is off by default and the disabled cost is one relaxed
//! atomic load per span, cheap enough to leave `span()` calls in the
//! solver hot path permanently. When enabled ([`enable_tracing`]),
//! each completed span appends one event to a process-global buffer;
//! [`take_events`] drains it and [`chrome_trace_json`] renders the
//! events as Chrome trace-event JSON (`"ph":"X"` complete events) for
//! `chrome://tracing` / Perfetto.
//!
//! Guards record on `Drop`, so a span that unwinds through a panic
//! still pops its stack frame and reports the time it spent — nesting
//! depth stays consistent for whoever catches the panic.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Cap on buffered events; beyond it spans are timed but not stored
/// (the drop count is reported by [`take_events`]). A single advise
/// emits tens of thousands of oracle spans at most, far below this.
const MAX_EVENTS: usize = 1 << 20;

/// One completed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    pub name: &'static str,
    /// Microseconds since the process trace anchor.
    pub ts_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// Stable per-thread id (dense, assigned on first span).
    pub tid: u64,
    /// Nesting depth at the time the span opened (0 = root).
    pub depth: u32,
}

#[derive(Default)]
struct Sink {
    events: Vec<SpanEvent>,
    dropped: u64,
}

fn sink() -> &'static Mutex<Sink> {
    static SINK: OnceLock<Mutex<Sink>> = OnceLock::new();
    SINK.get_or_init(Mutex::default)
}

/// Process-wide monotonic anchor so `ts_us` is comparable across
/// threads. First use pins it; timestamps are relative to it.
fn anchor() -> Instant {
    static ANCHOR: OnceLock<Instant> = OnceLock::new();
    *ANCHOR.get_or_init(Instant::now)
}

thread_local! {
    /// Per-thread nesting depth. A full stack is unnecessary: the
    /// guard itself carries everything needed to emit its event, so
    /// the thread only tracks how deep it currently is.
    static DEPTH: RefCell<u32> = const { RefCell::new(0) };
    static TID: u64 = {
        static NEXT_TID: AtomicU64 = AtomicU64::new(0);
        NEXT_TID.fetch_add(1, Ordering::Relaxed)
    };
}

/// Turn span recording on. Also pins the trace anchor so the first
/// span doesn't pay for `OnceLock` initialization.
pub fn enable_tracing() {
    anchor();
    ENABLED.store(true, Ordering::Release);
}

/// Turn span recording off. Spans already buffered stay until
/// [`take_events`]; guards currently live were created enabled and
/// will still record on drop.
pub fn disable_tracing() {
    ENABLED.store(false, Ordering::Release);
}

pub fn tracing_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Open a span named `name`; it closes (and records, if tracing is
/// enabled) when the returned guard drops.
#[must_use = "the span covers the guard's lifetime; dropping it immediately records an empty span"]
pub fn span(name: &'static str) -> SpanGuard {
    if !ENABLED.load(Ordering::Relaxed) {
        return SpanGuard { rec: None };
    }
    let depth = DEPTH.with(|d| {
        let mut d = d.borrow_mut();
        let cur = *d;
        *d += 1;
        cur
    });
    SpanGuard {
        rec: Some(Recording {
            name,
            start: Instant::now(),
            depth,
            tid: TID.with(|t| *t),
        }),
    }
}

struct Recording {
    name: &'static str,
    start: Instant,
    depth: u32,
    tid: u64,
}

/// RAII guard for one span. Records on drop — including during panic
/// unwinding — and decrements the thread's nesting depth.
pub struct SpanGuard {
    /// `None` when tracing was disabled at creation: drop is a no-op.
    rec: Option<Recording>,
}

impl SpanGuard {
    /// Whether this guard will record an event on drop.
    pub fn is_recording(&self) -> bool {
        self.rec.is_some()
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(rec) = self.rec.take() else { return };
        let dur_us = rec.start.elapsed().as_micros() as u64;
        let ts_us = rec.start.duration_since(anchor()).as_micros() as u64;
        DEPTH.with(|d| {
            let mut d = d.borrow_mut();
            *d = d.saturating_sub(1);
        });
        let mut sink = sink().lock().unwrap_or_else(|e| e.into_inner());
        if sink.events.len() < MAX_EVENTS {
            sink.events.push(SpanEvent { name: rec.name, ts_us, dur_us, tid: rec.tid, depth: rec.depth });
        } else {
            sink.dropped += 1;
        }
    }
}

/// Current nesting depth on this thread (0 outside any span). Only
/// meaningful while tracing is enabled — disabled spans don't nest.
pub fn current_depth() -> u32 {
    DEPTH.with(|d| *d.borrow())
}

/// Drain all buffered events, returning `(events, dropped)` where
/// `dropped` counts spans discarded past the buffer cap.
pub fn take_events() -> (Vec<SpanEvent>, u64) {
    let mut sink = sink().lock().unwrap_or_else(|e| e.into_inner());
    let events = std::mem::take(&mut sink.events);
    let dropped = std::mem::take(&mut sink.dropped);
    (events, dropped)
}

/// Render events as a Chrome trace-event JSON document (the
/// `{"traceEvents": [...]}` object form, `"ph":"X"` complete events,
/// timestamps in microseconds). Loadable in `chrome://tracing` and
/// Perfetto. Names are escaped; everything else is numeric.
pub fn chrome_trace_json(events: &[SpanEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 96 + 64);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n{\"name\":\"");
        for c in e.name.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push_str(&format!(
            "\",\"cat\":\"qrhint\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{},\"args\":{{\"depth\":{}}}}}",
            e.tid, e.ts_us, e.dur_us, e.depth
        ));
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // Span tests share the process-global ENABLED flag and sink, so
    // they serialize on one lock to avoid cross-talk.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _serial = serial();
        disable_tracing();
        let _ = take_events();
        {
            let g = span("quiet");
            assert!(!g.is_recording());
            assert_eq!(current_depth(), 0, "disabled spans must not nest");
        }
        let (events, dropped) = take_events();
        assert!(events.is_empty());
        assert_eq!(dropped, 0);
    }

    #[test]
    fn nesting_depth_tracks_guard_scopes() {
        let _serial = serial();
        enable_tracing();
        let _ = take_events();
        {
            let _a = span("advise");
            assert_eq!(current_depth(), 1);
            {
                let _b = span("stage:where");
                assert_eq!(current_depth(), 2);
                let _c = span("solver:check");
                assert_eq!(current_depth(), 3);
            }
            assert_eq!(current_depth(), 1);
        }
        assert_eq!(current_depth(), 0);
        disable_tracing();
        let (events, _) = take_events();
        // Children drop before parents, so events arrive leaf-first.
        let names: Vec<&str> = events.iter().map(|e| e.name).collect();
        assert_eq!(names, ["solver:check", "stage:where", "advise"]);
        let depths: Vec<u32> = events.iter().map(|e| e.depth).collect();
        assert_eq!(depths, [2, 1, 0]);
        // All on one thread, and parents envelop children in time.
        assert!(events.iter().all(|e| e.tid == events[0].tid));
        let advise = &events[2];
        let oracle = &events[0];
        assert!(advise.ts_us <= oracle.ts_us);
        assert!(advise.ts_us + advise.dur_us >= oracle.ts_us + oracle.dur_us);
    }

    #[test]
    fn panicking_span_still_records_and_unwinds_depth() {
        let _serial = serial();
        enable_tracing();
        let _ = take_events();
        let result = std::panic::catch_unwind(|| {
            let _outer = span("outer");
            let _inner = span("inner");
            panic!("boom");
        });
        assert!(result.is_err());
        assert_eq!(current_depth(), 0, "unwinding must pop every frame");
        disable_tracing();
        let (events, _) = take_events();
        let names: Vec<&str> = events.iter().map(|e| e.name).collect();
        assert_eq!(names, ["inner", "outer"], "both spans record despite the panic");
    }

    #[test]
    fn chrome_trace_json_is_loadable_shape() {
        let events = vec![
            SpanEvent { name: "advise", ts_us: 10, dur_us: 500, tid: 0, depth: 0 },
            SpanEvent { name: "weird\"name\\", ts_us: 20, dur_us: 80, tid: 1, depth: 1 },
        ];
        let json = chrome_trace_json(&events);
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(json.contains("\"name\":\"advise\",\"cat\":\"qrhint\",\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":10,\"dur\":500"));
        assert!(json.contains("\"name\":\"weird\\\"name\\\\\""));
        assert!(json.trim_end().ends_with("]}"));
        // Balanced braces/brackets as a cheap well-formedness check.
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn threads_get_distinct_tids() {
        let _serial = serial();
        enable_tracing();
        let _ = take_events();
        let handles: Vec<_> = (0..3)
            .map(|_| {
                std::thread::spawn(|| {
                    let _g = span("worker");
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        disable_tracing();
        let (events, _) = take_events();
        let worker_tids: std::collections::BTreeSet<u64> =
            events.iter().filter(|e| e.name == "worker").map(|e| e.tid).collect();
        assert_eq!(worker_tids.len(), 3, "each thread has its own tid: {events:?}");
    }
}
