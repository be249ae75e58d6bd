//! # qrhint-obs
//!
//! The telemetry substrate shared by every qr-hint layer: one place for
//! the counters the server exposes, the spans the solver emits, and the
//! log lines the daemon writes — std-only, per the offline vendor
//! policy (no `tracing`, no `prometheus`).
//!
//! Three facilities, each usable alone:
//!
//! * [`metrics`] — a metrics [`metrics::Registry`]: atomic counters,
//!   gauges, and fixed-bucket latency histograms, grouped into named
//!   families with labels and rendered as Prometheus text exposition
//!   ([`metrics::Registry::render`]). Quantiles (p50/p99/p999) are
//!   derivable from the cumulative buckets by any scraper.
//! * [`mod@span`] — hierarchical wall-clock span timing
//!   (`advise` → `stage:where` → `solver:check`) recorded through
//!   thread-local span stacks. Disabled by default: the per-span cost is
//!   one relaxed atomic load. When enabled, completed spans accumulate
//!   in a process-global buffer and drain as Chrome trace-event JSON
//!   ([`span::chrome_trace_json`]) — load the file in `chrome://tracing`
//!   or Perfetto for a flame view of a single advise. Guards are
//!   panic-safe: a span that unwinds still pops its stack frame and
//!   records its duration.
//! * [`log`] — structured log events with levels and key-value fields,
//!   rendered as logfmt-style text or one-JSON-object-per-line
//!   ([`log::LogFormat`]), written to stderr. The process-global level
//!   defaults to [`log::Level::Warn`] so library consumers stay quiet;
//!   `qr-hint serve` raises it for access logs.
//!
//! [`expo::validate`] checks a rendered exposition against the text
//! format's line grammar; the `promcheck` binary wraps it for CI.

#![forbid(unsafe_code)]

pub mod expo;
pub mod log;
pub mod metrics;
pub mod span;

pub use log::{LogFormat, Level};
pub use metrics::{Counter, Gauge, Histogram, Registry};
pub use span::{span, SpanGuard};
