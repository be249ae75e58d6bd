//! Metric catalogue and the result line.
//!
//! Untraced runs report [`END_TO_END`]; traced runs report
//! [`PER_LAYER`]. Every run reports every metric of its set, so runs of
//! different workloads compare name by name; a layer a workload does
//! not exercise reads 0.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("rss_peak_mb", "MiB"),
];

/// Per-layer metrics: `(name, unit)`. Times are self time per op.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("cli.self_ms", "ms"),
    ("sqlparse.self_ms", "ms"),
    ("sqlast.self_ms", "ms"),
    ("analysis.self_ms", "ms"),
    ("analysis.diagnostics", "count"),
    ("core.compile.self_ms", "ms"),
    ("core.session.self_ms", "ms"),
    ("core.advise.self_ms", "ms"),
    ("core.advice_cache.hit_ratio", "ratio"),
    ("core.from_groups", "count"),
    ("core.mapping_reuses", "count"),
    ("core.stage_from.self_ms", "ms"),
    ("core.stage_where.self_ms", "ms"),
    ("core.repair.candidates", "count"),
    ("core.equiv_batches", "count"),
    ("core.stage_groupby.self_ms", "ms"),
    ("core.stage_having.self_ms", "ms"),
    ("core.stage_select.self_ms", "ms"),
    ("core.oracle_batch.self_ms", "ms"),
    ("smt.solver.self_ms", "ms"),
    ("smt.solver_runs", "count"),
    ("smt.theory_pushes", "count"),
    ("smt.theory_full_checks", "count"),
    ("smt.quick_conflicts", "count"),
    ("core.prescreen_skips", "count"),
    ("core.stages_short_circuited", "count"),
    ("core.solver_calls", "count"),
    ("core.verdict_cache.hit_ratio", "ratio"),
    ("core.verdict_cache.cross_thread_hits", "count"),
    ("core.verdict_cache.evictions", "count"),
    ("core.interned_formulas", "count"),
    ("core.interner.dedup_hits", "count"),
    ("core.lowering_memo.hit_ratio", "ratio"),
    ("core.cache_bytes", "bytes"),
    ("core.report.self_ms", "ms"),
    ("other.self_ms", "ms"),
    ("bench.self_ms", "ms"),
    ("core.hints.from", "count"),
    ("core.hints.where", "count"),
    ("core.hints.groupby", "count"),
    ("core.hints.having", "count"),
    ("core.hints.select", "count"),
    ("core.hints.done", "count"),
    ("server.handler_ms", "ms"),
    ("server.http_ms", "ms"),
    ("server.status.2xx", "count"),
    ("server.status.4xx", "count"),
    ("server.status.5xx", "count"),
    ("server.shed", "count"),
    ("server.registry.evictions", "count"),
    ("router.forward_ms", "ms"),
    ("router.pool.hit_ratio", "ratio"),
    ("router.pool.retries", "count"),
    ("router.shed", "count"),
    ("loadgen.late_p99_ms", "ms"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_pct", "%"),
];

/// One run's result.
#[derive(Debug)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Metric values by name; names outside the run's set are ignored.
    pub values: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed above the result line: sample
    /// counts, per-workload metric names, check findings.
    pub notes: Vec<String>,
}

impl Default for Outcome {
    fn default() -> Outcome {
        Outcome {
            correct: true,
            attempted: 0,
            failed: 0,
            values: BTreeMap::new(),
            notes: Vec::new(),
        }
    }
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Record a failed output check; the run then reports `correct:
    /// false`. Only the first few findings are kept.
    pub fn problem(&mut self, what: impl Into<String>) {
        if self
            .notes
            .iter()
            .filter(|n| n.starts_with("CHECK FAILED"))
            .count()
            < 8
        {
            self.notes.push(format!("CHECK FAILED: {}", what.into()));
        }
        self.correct = false;
    }

    /// The result line: `correct`, `attempted`, `failed` and every
    /// metric of `set` with its unit.
    pub fn json(&self, set: &[(&str, &str)]) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, unit)) in set.iter().enumerate() {
            let value = self.values.get(name).copied().unwrap_or(0.0);
            // `+ 0.0` turns an empty float sum's -0.0 into 0.
            let value = if value.is_finite() { value + 0.0 } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            )
            .expect("write to String");
        }
        out.push_str("}}");
        out
    }

    /// Print the notes, a metric table, and the result line last.
    pub fn print(&self, set: &[(&str, &str)]) {
        for line in &self.notes {
            println!("{line}");
        }
        for (name, unit) in set {
            let value = self.values.get(name).copied().unwrap_or(0.0) + 0.0;
            println!("  {name:<40} {value:>16.6} {unit}");
        }
        println!("{}", self.json(set));
    }
}

/// The percentile `latency_tail_ms` reports. On a shared 2-vCPU host
/// p99 follows how late threads and processes get scheduled (it spread
/// 3–6 ms for cli-cold across seeds, and 4–10 ms for routed advises in
/// the serving phase); p90 is steady. The p99 is printed beside it,
/// unbounded.
pub const TAIL_Q: f64 = 0.9;

/// What `latency_p50_ms` and `latency_tail_ms` are taken over.
pub enum Spread<'a> {
    /// Passes that repeat the same ops in the same order: the p50 of all
    /// samples, and the median of these per-pass banded p90s. Pooling n
    /// passes would put the p90 rank exactly where the n repeats of one
    /// op meet the n repeats of the next, so host noise would flip it
    /// between two ops of very different cost from run to run.
    Passes(&'a [f64]),
    /// Inputs timed repeatedly: the p50 and banded p90 over these
    /// per-input typical times ([`crate::stats::typical_times`]). The
    /// tail is then which inputs are slow, not which repeats met a
    /// burst of host noise.
    Inputs(&'a [f64]),
}

/// Set `latency_p50_ms` and `latency_tail_ms` (the banded p90, see
/// [`crate::stats::banded_percentile`]), and note them with their sample
/// counts beside the p99 of all samples.
pub fn set_latency(out: &mut Outcome, lat: &mut crate::stats::Latencies, over: Spread<'_>) {
    use crate::stats;
    let (p50, tail, how, tail_n) = match over {
        Spread::Passes(tails) => {
            let per_pass = lat.len() / tails.len().max(1);
            (
                lat.at(0.5),
                stats::median(tails),
                format!(
                    "p50 of all samples, p90 the median of the p90s of {} pass(es) of {per_pass} samples",
                    tails.len()
                ),
                per_pass,
            )
        }
        Spread::Inputs(typical) => {
            let mut sorted = typical.to_vec();
            sorted.sort_by(f64::total_cmp);
            (
                stats::percentile(&sorted, 0.5),
                stats::banded_percentile(&sorted, TAIL_Q),
                format!(
                    "both over the median times of {} inputs, timed {:.1} times each on average",
                    sorted.len(),
                    lat.len() as f64 / sorted.len() as f64
                ),
                sorted.len(),
            )
        }
    };
    out.set("latency_p50_ms", p50);
    out.set("latency_tail_ms", tail);
    let highest =
        stats::highest_supported(lat.len()).map_or("none".into(), |h| format!("p{}", h * 100.0));
    out.note(format!(
        "latency_p50_ms {p50:.4} ms, latency_p90_ms {tail:.4} ms (mean of p{:.1}..p{:.1}) from n={} samples: {how}; latency_p99_ms {:.4} ms (all samples, unbounded); highest percentile with {} samples beyond: {highest}",
        (TAIL_Q - stats::TAIL_BAND) * 100.0,
        (TAIL_Q + stats::TAIL_BAND) * 100.0,
        lat.len(),
        lat.at(0.99),
        stats::MIN_BEYOND
    ));
    if !stats::supports(tail_n, TAIL_Q) {
        out.note(format!(
            "warning: {tail_n} samples are too few for latency_p90_ms"
        ));
    }
}

/// Note `error_rate`: failed over attempted ops.
pub fn note_errors(out: &mut Outcome) {
    let rate = out.failed as f64 / out.attempted.max(1) as f64;
    out.note(format!(
        "error_rate {rate} ({} of {})",
        out.failed, out.attempted
    ));
}

/// Counters of one or more `SessionStats` snapshots, summed by field.
pub type StatsMap = BTreeMap<String, u64>;

/// Add a serialized `SessionStats` (a JSON object of counters) into
/// `acc`.
pub fn add_stats(acc: &mut StatsMap, stats: &serde_json::Value) {
    if let serde_json::Value::Map(fields) = stats {
        for (k, v) in fields {
            if let serde_json::Value::Int(n) = v {
                *acc.entry(k.clone()).or_default() += (*n).max(0) as u64;
            }
        }
    }
}

/// The per-layer counters derived from summed session stats.
pub fn set_stats_counters(out: &mut Outcome, s: &StatsMap) {
    let get = |k: &str| s.get(k).copied().unwrap_or(0) as f64;
    let ratio = |hit: f64, miss: f64| {
        if hit + miss > 0.0 {
            hit / (hit + miss)
        } else {
            0.0
        }
    };
    out.set("analysis.diagnostics", get("diagnostics_emitted"));
    out.set(
        "core.advice_cache.hit_ratio",
        ratio(get("advice_cache_hits"), get("advice_cache_misses")),
    );
    out.set("core.from_groups", get("from_groups"));
    out.set("core.mapping_reuses", get("mapping_reuses"));
    out.set("core.repair.candidates", get("equiv_batch_candidates"));
    out.set("core.equiv_batches", get("equiv_batches"));
    out.set(
        "smt.solver_runs",
        get("verdict_cache_misses") - get("solver_calls_skipped"),
    );
    out.set("smt.theory_pushes", get("theory_pushes"));
    out.set("smt.theory_full_checks", get("theory_full_checks"));
    out.set("smt.quick_conflicts", get("quick_conflicts"));
    out.set("core.prescreen_skips", get("solver_calls_skipped"));
    out.set("core.stages_short_circuited", get("stages_short_circuited"));
    out.set("core.solver_calls", get("solver_calls"));
    out.set(
        "core.verdict_cache.hit_ratio",
        ratio(get("verdict_cache_hits"), get("verdict_cache_misses")),
    );
    out.set(
        "core.verdict_cache.cross_thread_hits",
        get("verdict_cache_cross_thread_hits"),
    );
    out.set(
        "core.verdict_cache.evictions",
        get("verdict_cache_evictions"),
    );
    out.set("core.interned_formulas", get("interned_formulas"));
    out.set("core.interner.dedup_hits", get("interner_dedup_hits"));
    out.set(
        "core.lowering_memo.hit_ratio",
        ratio(get("lowering_memo_hits"), get("lowering_memo_misses")),
    );
}

/// Metric name of the per-stage hint count for a stage's display name.
pub fn hint_metric(stage: &str) -> &'static str {
    match stage {
        "FROM" => "core.hints.from",
        "WHERE" => "core.hints.where",
        "GROUP BY" => "core.hints.groupby",
        "HAVING" => "core.hints.having",
        "SELECT" => "core.hints.select",
        _ => "core.hints.done",
    }
}

/// Set the span-measured layer metrics from a layer table.
pub fn set_layers(out: &mut Outcome, table: &crate::trace::LayerTable) {
    for layer in crate::trace::SPAN_LAYERS.iter().chain(&["bench", "cli"]) {
        let name = layer_metric(layer);
        out.set(name, table.per_op_ms(layer));
    }
    out.set("trace.coverage", table.coverage());
}

/// Metric name of a span layer's self time.
pub fn layer_metric(layer: &str) -> &'static str {
    PER_LAYER
        .iter()
        .map(|(name, _)| *name)
        .find(|name| name.strip_suffix(".self_ms") == Some(layer))
        .unwrap_or_else(|| panic!("layer {layer} has no self-time metric"))
}
