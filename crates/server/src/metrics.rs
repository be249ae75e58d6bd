//! The daemon's metrics surface: HTTP-layer instrumentation plus the
//! scrape-time aggregation behind `GET /metrics`.
//!
//! Two kinds of series share one [`qrhint_obs::Registry`]:
//!
//! * **Streamed** — bumped on every request by
//!   [`ServerMetrics::observe_request`]: per-(route, status) request
//!   counts, per-route latency histograms, request/response byte
//!   totals, and the in-flight gauge.
//! * **Mirrored** — copied in by [`ServerMetrics::render`] at scrape
//!   time from state that already has an owner: target-registry
//!   lifetime totals (monotone, so counters) and occupancy, plus every
//!   resident target's [`SessionStats`] summed across the registry.
//!   The per-target sums are exposed as **gauges**, not counters: a
//!   target eviction removes its contribution, so the sum across
//!   *resident* targets can legally go down.
//!
//! Routes are labeled by template (`/targets/{id}/advise` → `advise`),
//! never by raw path — per-id label sets would make series cardinality
//! grow with registration traffic.

use crate::registry::TargetRegistry;
use qrhint_core::SessionStats;
use qrhint_obs::metrics::default_latency_buckets;
use qrhint_obs::Registry as MetricsRegistry;
use std::time::Duration;

/// Per-process server metrics; owned by the service, one per daemon.
pub struct ServerMetrics {
    registry: MetricsRegistry,
}

impl Default for ServerMetrics {
    fn default() -> ServerMetrics {
        ServerMetrics::new()
    }
}

/// The aggregated-session gauge catalogue: one row per [`SessionStats`]
/// field, by field name, with its HELP text. Gauge `qrhint_session_<field>`
/// sums that field over resident targets; `render` reads each value by
/// name from the stats' serialized form, and a test checks that the rows
/// name exactly the fields of [`SessionStats`], in order.
pub const SESSION_GAUGES: &[(&str, &str)] = &[
    ("advise_calls", "Advise calls answered, summed over resident targets."),
    ("advice_cache_hits", "Whole-advice cache hits, summed over resident targets."),
    ("advice_cache_misses", "Whole-advice cache misses, summed over resident targets."),
    ("advice_cache_evictions", "Advice-cache entries dropped by cache sheds, summed over resident targets."),
    ("advice_cache_entries", "Resident advice-cache entries, summed over resident targets."),
    ("advice_cache_bytes", "Approximate advice-cache bytes, summed over resident targets."),
    ("solver_calls", "Solver checks issued, summed over resident targets."),
    ("diagnostics_emitted", "Analyzer diagnostics emitted, summed over resident targets."),
    ("verdict_cache_hits", "Shared verdict-cache hits, summed over resident targets."),
    ("verdict_cache_misses", "Shared verdict-cache misses, summed over resident targets."),
    ("verdict_cache_evictions", "Shared-verdict entries dropped by cache sheds, summed over resident targets."),
    ("verdict_cache_entries", "Resident shared-verdict entries, summed over resident targets."),
    ("verdict_cache_bytes", "Approximate shared-verdict bytes, summed over resident targets."),
    ("interned_terms", "Distinct interned term nodes, summed over resident targets."),
    ("interned_formulas", "Distinct interned formula nodes, summed over resident targets."),
    ("interner_dedup_hits", "Interner hash-consing hits, summed over resident targets."),
    ("interner_bytes", "Approximate interner bytes, summed over resident targets."),
    ("theory_pushes", "Theory-stack literal pushes, summed over resident targets."),
    ("theory_full_checks", "Full theory checks, summed over resident targets."),
    ("quick_conflicts", "Branches cut by the quick-conflict detector, summed over resident targets."),
    ("theory_memo_hits", "Theory decisions answered by the solver's per-call memo, summed over resident targets."),
    ("equiv_batches", "Candidate lists checked against one context, summed over resident targets."),
    ("equiv_batch_candidates", "Candidates in those lists, summed over resident targets."),
    ("unknown_verdicts", "Solver checks answered Unknown, summed over resident targets."),
    ("whole_clause_fallbacks", "Whole-clause WHERE or HAVING fallback hints, summed over resident targets."),
];

/// `stats` as serialized, one `(field name, value)` pair per field in
/// declaration order.
fn session_fields(stats: &SessionStats) -> Vec<(String, u64)> {
    let Ok(serde_json::Value::Map(fields)) = serde_json::to_value(stats) else {
        return Vec::new();
    };
    fields
        .into_iter()
        .map(|(name, v)| match v {
            serde_json::Value::Int(n) => (name, n as u64),
            _ => (name, 0),
        })
        .collect()
}

impl ServerMetrics {
    pub fn new() -> ServerMetrics {
        let metrics = ServerMetrics { registry: MetricsRegistry::new() };
        // Pre-register the in-flight gauge and shed counter so a scrape
        // before the first request (or first overload) still shows the
        // families.
        metrics.in_flight_gauge();
        metrics.shed_counter();
        metrics
    }

    fn in_flight_gauge(&self) -> std::sync::Arc<qrhint_obs::Gauge> {
        self.registry.gauge(
            "qrhint_http_requests_in_flight",
            "Requests currently being handled.",
            &[],
        )
    }

    /// Mark a request as started; pair with [`ServerMetrics::observe_request`].
    pub fn begin_request(&self) {
        self.in_flight_gauge().inc();
    }

    /// Requests currently in flight (for `/healthz`).
    pub fn in_flight(&self) -> i64 {
        self.in_flight_gauge().get()
    }

    fn shed_counter(&self) -> std::sync::Arc<qrhint_obs::Counter> {
        self.registry.counter(
            "qrhint_http_shed_total",
            "Connections shed with 429 because the bounded dispatch queue was full.",
            &[],
        )
    }

    /// Record one overload shed (429 before the request was even read).
    /// Distinct from `qrhint_registry_shed_total`, which is cache
    /// shedding inside the target registry.
    pub fn observe_shed(&self) {
        self.shed_counter().inc();
    }

    /// Lifetime overload sheds (for `/healthz`).
    pub fn shed_total(&self) -> u64 {
        self.shed_counter().get()
    }

    /// Record one finished request: count, latency, bytes, in-flight
    /// decrement. `route` must be a route template, never a raw path.
    pub fn observe_request(
        &self,
        route: &str,
        status: u16,
        elapsed: Duration,
        bytes_in: usize,
        bytes_out: usize,
    ) {
        self.registry
            .counter(
                "qrhint_http_requests_total",
                "Requests served, by route template and status code.",
                &[("route", route), ("status", &status.to_string())],
            )
            .inc();
        self.registry
            .histogram(
                "qrhint_http_request_duration_seconds",
                "Wall-clock request latency, by route template.",
                &[("route", route)],
                &default_latency_buckets(),
            )
            .observe_duration(elapsed);
        self.registry
            .counter(
                "qrhint_http_request_bytes_total",
                "Request body bytes received, by route template.",
                &[("route", route)],
            )
            .add(bytes_in as u64);
        self.registry
            .counter(
                "qrhint_http_response_bytes_total",
                "Response body bytes sent, by route template.",
                &[("route", route)],
            )
            .add(bytes_out as u64);
        self.in_flight_gauge().dec();
    }

    /// Render the full exposition: mirror the target registry's state
    /// into the metrics registry, then render everything.
    pub fn render(&self, targets: &TargetRegistry) -> String {
        let (registered, shed, dropped) = targets.totals();
        self.registry
            .counter(
                "qrhint_registry_registered_total",
                "Targets registered over the process lifetime.",
                &[],
            )
            .store(registered);
        self.registry
            .counter(
                "qrhint_registry_shed_total",
                "Cache sheds forced by the registry byte budget (lifetime).",
                &[],
            )
            .store(shed);
        self.registry
            .counter(
                "qrhint_registry_dropped_total",
                "Targets dropped by capacity or byte budget (lifetime).",
                &[],
            )
            .store(dropped);
        let resident = targets.snapshot_targets();
        self.registry
            .gauge("qrhint_registry_targets", "Targets resident right now.", &[])
            .set(resident.len() as i64);
        // Sum per-target session stats outside any registry lock (each
        // `stats()` takes per-target locks of its own), then mirror.
        let mut bytes = 0u64;
        let mut sums = [0u64; SESSION_GAUGES.len()];
        for target in &resident {
            bytes += target.prepared.approx_cache_bytes() as u64;
            let fields = session_fields(&target.prepared.stats());
            for (acc, (field, _)) in sums.iter_mut().zip(SESSION_GAUGES) {
                *acc += fields.iter().find(|(name, _)| name == field).map_or(0, |&(_, v)| v);
            }
        }
        self.registry
            .gauge(
                "qrhint_registry_cache_bytes",
                "Approximate cache bytes across resident targets.",
                &[],
            )
            .set(bytes.min(i64::MAX as u64) as i64);
        for ((field, help), value) in SESSION_GAUGES.iter().zip(sums) {
            let name = format!("qrhint_session_{field}");
            self.registry.gauge(&name, help, &[]).set(value.min(i64::MAX as u64) as i64);
        }
        self.registry.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::RegistryConfig;

    #[test]
    fn session_gauge_catalogue_matches_session_stats_fields() {
        let rows: Vec<&str> = SESSION_GAUGES.iter().map(|&(field, _)| field).collect();
        let fields = session_fields(&SessionStats::default());
        let fields: Vec<&str> = fields.iter().map(|(name, _)| name.as_str()).collect();
        assert_eq!(rows, fields, "one catalogue row per SessionStats field, in field order");
    }

    #[test]
    fn empty_registry_renders_valid_exposition() {
        let m = ServerMetrics::new();
        let targets = TargetRegistry::new(RegistryConfig::default());
        let text = m.render(&targets);
        let summary = qrhint_obs::expo::validate(&text).expect("valid exposition");
        assert!(summary.samples > 0);
        assert!(text.contains("qrhint_http_requests_in_flight 0"), "{text}");
        assert!(text.contains("qrhint_registry_targets 0"), "{text}");
        assert!(text.contains("qrhint_session_solver_calls 0"), "{text}");
    }

    #[test]
    fn observe_request_populates_all_http_families() {
        let m = ServerMetrics::new();
        m.begin_request();
        assert_eq!(m.in_flight(), 1);
        m.observe_request("advise", 200, Duration::from_millis(3), 120, 450);
        assert_eq!(m.in_flight(), 0);
        let targets = TargetRegistry::new(RegistryConfig::default());
        let text = m.render(&targets);
        qrhint_obs::expo::validate(&text).expect("valid exposition");
        assert!(
            text.contains("qrhint_http_requests_total{route=\"advise\",status=\"200\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("qrhint_http_request_duration_seconds_count{route=\"advise\"} 1"),
            "{text}"
        );
        assert!(text.contains("qrhint_http_request_bytes_total{route=\"advise\"} 120"), "{text}");
        assert!(text.contains("qrhint_http_response_bytes_total{route=\"advise\"} 450"), "{text}");
    }
}
