//! Span trees and the per-layer self-time table.
//!
//! The benchmark opens its own spans (through `qrhint_obs::span`, so
//! they nest with the program's existing `advise > stage:* > oracle:* >
//! solver:check` spans on one timeline) around every public call it
//! makes. Each op is one tree under a root span named [`OP`]; the
//! events of one op are drained right after it ends, so a drained batch
//! is tagged with its op by construction.
//!
//! A span's self time is its duration minus the part its direct
//! children cover. Children of one span never overlap (spans nest per
//! thread), so the self times of a tree partition its root duration.

use std::collections::BTreeMap;

/// Root span of one benchmark op. Its self time is the benchmark's own
/// glue between calls: op wall time no layer accounts for.
pub const OP: &str = "op";

/// One completed span: a layer name and its interval in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub layer: &'static str,
    pub ts_us: u64,
    pub dur_us: u64,
    pub tid: u64,
    /// Nesting depth when the span opened (0 = root).
    pub depth: u32,
}

/// Layer a span name belongs to. The benchmark's spans are named after
/// their layer already; the program's spans are renamed here; a span
/// this table does not know lands in `other`, so spans the program
/// gains later are still counted.
pub fn layer_of(name: &str) -> &'static str {
    match name {
        OP => "bench",
        "sqlparse" => "sqlparse",
        "sqlast" => "sqlast",
        "analysis" => "analysis",
        "core.compile" => "core.compile",
        "core.session" => "core.session",
        "core.report" => "core.report",
        "advise" => "core.advise",
        "stage:from" => "core.stage_from",
        "stage:where" => "core.stage_where",
        "stage:groupby" => "core.stage_groupby",
        "stage:having" => "core.stage_having",
        "stage:select" => "core.stage_select",
        "oracle:equiv_batch" | "oracle:equiv_scalar_batch" => "core.oracle_batch",
        "solver:check" => "smt.solver",
        _ => "other",
    }
}

/// Layers measured by spans, in report order (`bench` excluded: it is
/// the uncovered remainder of an op).
pub const SPAN_LAYERS: &[&str] = &[
    "sqlparse",
    "sqlast",
    "analysis",
    "core.compile",
    "core.session",
    "core.advise",
    "core.stage_from",
    "core.stage_where",
    "core.stage_groupby",
    "core.stage_having",
    "core.stage_select",
    "core.oracle_batch",
    "smt.solver",
    "core.report",
    "other",
];

/// Self time of every span, index-aligned with `spans`. Spans may come
/// from several threads and in any order.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut order: Vec<usize> = (0..spans.len()).collect();
    // Parents sort before the children that start in the same
    // microsecond: ties on start break on depth.
    order.sort_by_key(|&i| (spans[i].tid, spans[i].ts_us, spans[i].depth));
    let mut covered = vec![0u64; spans.len()];
    let mut stack: Vec<usize> = Vec::new();
    let mut tid = None;
    for &i in &order {
        if tid != Some(spans[i].tid) {
            stack.clear();
            tid = Some(spans[i].tid);
        }
        while stack
            .last()
            .is_some_and(|&top| spans[top].depth >= spans[i].depth)
        {
            stack.pop();
        }
        if let Some(&parent) = stack.last() {
            covered[parent] += spans[i].dur_us;
        }
        stack.push(i);
    }
    // Microsecond truncation can make children sum past their parent.
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| s.dur_us.saturating_sub(c))
        .collect()
}

/// Per-layer self time accumulated over many ops.
#[derive(Debug, Default, Clone)]
pub struct LayerTable {
    /// Layer name → total self time, microseconds.
    pub self_us: BTreeMap<&'static str, u64>,
    /// Summed duration of op roots, microseconds.
    pub op_us: u64,
    /// Ops recorded.
    pub ops: u64,
}

impl LayerTable {
    /// Add a batch of spans: whole op trees (each under an [`OP`] root)
    /// and set-up spans outside any op.
    pub fn add(&mut self, spans: &[Span]) {
        for (span, own) in spans.iter().zip(self_times(spans)) {
            *self.self_us.entry(span.layer).or_default() += own;
            if span.layer == "bench" && span.depth == 0 {
                self.op_us += span.dur_us;
                self.ops += 1;
            }
        }
    }

    /// Count one op measured without an [`OP`] root span.
    pub fn add_op(&mut self, wall_us: u64) {
        self.op_us += wall_us;
        self.ops += 1;
    }

    /// Add time measured without spans (a difference of round trips).
    pub fn add_measured(&mut self, layer: &'static str, us: u64) {
        *self.self_us.entry(layer).or_default() += us;
    }

    /// Mean self time of `layer` per op, in milliseconds.
    pub fn per_op_ms(&self, layer: &str) -> f64 {
        if self.ops == 0 {
            return 0.0;
        }
        self.self_us.get(layer).copied().unwrap_or(0) as f64 / self.ops as f64 / 1000.0
    }

    /// Share of op wall time covered by layer self times: one minus the
    /// op roots' own share.
    pub fn coverage(&self) -> f64 {
        if self.op_us == 0 {
            return 0.0;
        }
        let uncovered = self.self_us.get("bench").copied().unwrap_or(0);
        1.0 - uncovered as f64 / self.op_us as f64
    }
}

/// Drain the program's span buffer into layer-tagged spans.
pub fn drain() -> Vec<Span> {
    let (events, dropped) = qrhint_obs::span::take_events();
    assert_eq!(dropped, 0, "span buffer overflowed: drain more often");
    events
        .into_iter()
        .map(|e| Span {
            layer: layer_of(e.name),
            ts_us: e.ts_us,
            dur_us: e.dur_us,
            tid: e.tid,
            depth: e.depth,
        })
        .collect()
}
