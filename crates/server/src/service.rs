//! Route dispatch and JSON request/response shapes for the daemon.
//!
//! The service is transport-agnostic: it maps one parsed [`Request`]
//! to one [`Response`], and the connection loop in [`crate::server`]
//! owns the sockets. That split keeps every handler unit-testable
//! without a listener.
//!
//! Status-code contract (enforced by `tests/server_http.rs`):
//!
//! * `400` — the request itself is broken: unparseable JSON, missing
//!   fields, non-UTF-8 body.
//! * `404` — unknown route or unknown/evicted target id.
//! * `405` — known route, wrong method.
//! * `422` — the request is well-formed but the SQL in it is not:
//!   schema/target errors at registration, malformed or unsupported
//!   submissions at advise time.
//! * `500` — a grading-internal invariant failed (never the client's
//!   fault).
//! * `503` — the server is draining after `POST /shutdown`.

use crate::http::{Request, Response};
use crate::metrics::ServerMetrics;
use crate::registry::{RegistryConfig, TargetRegistry};
use qrhint_core::{AdviceReport, QrHint, QrHintError, SessionStats};
use qrhint_obs::log::{self as obs_log, Level};
use qrhint_sqlparse::{parse_schema, FlattenOptions};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// Service-level knobs (the CLI's `serve` flags land here).
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads for one `grade` batch (`0` = use
    /// `std::thread::available_parallelism`).
    pub jobs: usize,
    pub registry: RegistryConfig,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig { jobs: 1, registry: RegistryConfig::default() }
    }
}

// The 0 = available-parallelism convention lives beside the worker
// pool itself ([`qrhint_core::parallel`]); re-exported here because it
// is part of the service's configuration surface.
pub use qrhint_core::parallel::resolve_jobs;

// ---------------------------------------------------------------------------
// Wire shapes
// ---------------------------------------------------------------------------

#[derive(Debug, Deserialize)]
struct RegisterRequest {
    schema: String,
    target: String,
    /// Compile with the multi-block front end.
    #[serde(default)]
    extended: bool,
    /// Also rewrite positive subqueries into joins; implies `extended`,
    /// as `--rewrite-subqueries` does on the CLI.
    #[serde(default)]
    rewrite_subqueries: bool,
}

#[derive(Debug, Serialize)]
struct RegisterResponse {
    id: String,
    /// Target ids the capacity bound dropped to make room.
    evicted: Vec<String>,
}

#[derive(Debug, Deserialize)]
struct AdviseRequest {
    sql: String,
}

/// Body of `POST /targets/{id}/lint`: analyzer-only, no grading.
#[derive(Debug, Deserialize)]
struct LintRequest {
    sql: String,
}

#[derive(Debug, Serialize)]
struct LintResponse {
    /// True when the analyzer found nothing at all.
    clean: bool,
    /// True when at least one diagnostic is error-severity (the query
    /// is statically guaranteed to misbehave under execution).
    errors: bool,
    diagnostics: Vec<qrhint_core::Diagnostic>,
}

#[derive(Debug, Deserialize)]
struct GradeRequest {
    submissions: Vec<String>,
    /// `0` (or omitted) = the server's configured default.
    #[serde(default)]
    jobs: usize,
}

/// One graded submission; `report` mirrors the CLI's `grade --json`
/// entry shape byte-for-byte (same [`AdviceReport`] serialization).
#[derive(Debug, Serialize)]
struct GradeEntry {
    index: usize,
    ok: bool,
    error: Option<String>,
    report: Option<AdviceReport>,
}

#[derive(Debug, Serialize)]
struct GradeResponse {
    jobs: usize,
    entries: Vec<GradeEntry>,
}

#[derive(Debug, Serialize)]
struct StatsResponse {
    id: String,
    stats: SessionStats,
    approx_cache_bytes: u64,
}

#[derive(Debug, Serialize)]
struct HealthResponse {
    status: String,
    version: String,
    targets: usize,
    uptime_ms: u64,
    /// Whole seconds of `uptime_ms` — the unit soak harnesses plot.
    uptime_seconds: u64,
    requests_served: u64,
    /// Requests currently being handled (includes this one).
    in_flight: i64,
    registered_total: u64,
    shed_total: u64,
    evicted_total: u64,
    /// Connections answered `429` by the bounded-queue overload guard
    /// (distinct from `shed_total`, which counts registry cache sheds).
    overload_shed_total: u64,
    draining: bool,
}

/// Body of `GET /version`: build identity on its own route, so
/// monitoring can pin a deployment without parsing health payloads.
#[derive(Debug, Serialize)]
struct VersionResponse {
    name: String,
    version: String,
}

#[derive(Debug, Serialize)]
struct ShutdownResponse {
    status: String,
}

/// Every non-2xx body: a human-readable message plus a stable
/// machine-checkable kind.
#[derive(Debug, Serialize)]
pub struct ErrorBody {
    pub error: String,
    pub kind: String,
}

pub fn error_response(status: u16, kind: &str, error: impl Into<String>) -> Response {
    let body = ErrorBody { error: error.into(), kind: kind.to_string() };
    Response::new(status, serde_json::to_string(&body).expect("error body serializes"))
}

fn json_response<T: Serialize>(status: u16, value: &T) -> Response {
    match serde_json::to_string(value) {
        Ok(body) => Response::new(status, body),
        Err(e) => error_response(500, "internal", format!("response serialization: {e}")),
    }
}

fn parse_body<T: serde::Deserialize>(req: &Request) -> Result<T, Response> {
    let text = req
        .body_str()
        .map_err(|_| error_response(400, "bad_request", "request body is not valid UTF-8"))?;
    serde_json::from_str::<T>(text)
        .map_err(|e| error_response(400, "bad_request", format!("bad JSON body: {e}")))
}

/// Map a grading-pipeline error to the side at fault, mirroring the
/// CLI's exit-code contract (3 = student's SQL, 1 = ours).
fn sql_error_response(context: &str, e: &QrHintError) -> Response {
    match e {
        QrHintError::Parse(_) | QrHintError::Resolve(_) | QrHintError::Unsupported(_) => {
            error_response(422, "bad_sql", format!("{context}: {e}"))
        }
        QrHintError::Internal(_) => error_response(500, "internal", format!("{context}: {e}")),
    }
}

/// Collapse a request path to its route template for metric labels:
/// `/targets/t17/advise` → `advise`. Bounded vocabulary by design —
/// labeling by raw path would grow series cardinality with every
/// registered target and every scanner probing random URLs.
pub(crate) fn route_template(segments: &[&str]) -> &'static str {
    match segments {
        ["targets"] => "register",
        ["targets", _, "advise"] => "advise",
        ["targets", _, "grade"] => "grade",
        ["targets", _, "lint"] => "lint",
        ["targets", _, "stats"] => "stats",
        ["healthz"] => "healthz",
        ["metrics"] => "metrics",
        ["version"] => "version",
        ["shutdown"] => "shutdown",
        _ => "other",
    }
}

// ---------------------------------------------------------------------------
// The service
// ---------------------------------------------------------------------------

/// The grading service: a [`TargetRegistry`] plus request dispatch.
pub struct QrHintService {
    registry: TargetRegistry,
    metrics: ServerMetrics,
    jobs: usize,
    started: Instant,
    draining: AtomicBool,
    requests_served: AtomicU64,
    /// Request-id source for access logs; dense per process, never
    /// reused, so a log line identifies one request exactly.
    next_request_id: AtomicU64,
}

impl QrHintService {
    pub fn new(cfg: ServiceConfig) -> QrHintService {
        QrHintService {
            registry: TargetRegistry::new(cfg.registry),
            metrics: ServerMetrics::new(),
            jobs: resolve_jobs(cfg.jobs),
            started: Instant::now(),
            draining: AtomicBool::new(false),
            requests_served: AtomicU64::new(0),
            next_request_id: AtomicU64::new(0),
        }
    }

    pub fn registry(&self) -> &TargetRegistry {
        &self.registry
    }

    pub fn metrics(&self) -> &ServerMetrics {
        &self.metrics
    }

    /// Default per-batch grading parallelism.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Record one overload shed: the acceptor refused a readable
    /// connection because the bounded dispatch queue was full and
    /// answered `429` without reading the request.
    pub fn observe_shed(&self) {
        self.metrics.observe_shed();
    }

    /// Handle one request. Infallible by construction: every failure
    /// mode is a well-formed JSON error response. Every request —
    /// including malformed and refused ones — is counted, timed, and
    /// access-logged under a fresh request id.
    pub fn handle(&self, req: &Request) -> Response {
        self.requests_served.fetch_add(1, Ordering::Relaxed);
        let request_id = self.next_request_id.fetch_add(1, Ordering::Relaxed) + 1;
        self.metrics.begin_request();
        let started = Instant::now();
        let path = req.path.trim_end_matches('/');
        let segments: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
        let route = route_template(segments.as_slice());
        let resp = self.dispatch(req, segments.as_slice());
        let elapsed = started.elapsed();
        self.metrics.observe_request(
            route,
            resp.status,
            elapsed,
            req.body.len(),
            resp.body.len(),
        );
        // 500 is our fault and always log-worthy; a drain-time 503 is
        // expected operational behavior and stays at access-log level.
        let level =
            if resp.status >= 500 && resp.status != 503 { Level::Error } else { Level::Info };
        if obs_log::enabled(level) {
            obs_log::event(
                level,
                "server",
                "request",
                &[
                    ("request_id", &request_id.to_string()),
                    ("method", &req.method),
                    ("path", &req.path),
                    ("route", route),
                    ("status", &resp.status.to_string()),
                    ("dur_us", &elapsed.as_micros().to_string()),
                    ("bytes_in", &req.body.len().to_string()),
                    ("bytes_out", &resp.body.len().to_string()),
                ],
            );
        }
        resp
    }

    fn dispatch(&self, req: &Request, segments: &[&str]) -> Response {
        // Draining: answer health checks and scrapes (monitoring wants
        // to watch the drain) but refuse new work.
        if self.is_draining()
            && !matches!(segments, ["healthz"] | ["metrics"] | ["version"])
        {
            return error_response(503, "draining", "server is shutting down");
        }
        match (req.method.as_str(), segments) {
            ("POST", ["targets"]) => self.handle_register(req),
            ("POST", ["targets", id, "advise"]) => self.handle_advise(req, id),
            ("POST", ["targets", id, "grade"]) => self.handle_grade(req, id),
            ("POST", ["targets", id, "lint"]) => self.handle_lint(req, id),
            ("GET", ["targets", id, "stats"]) => self.handle_stats(id),
            ("GET", ["healthz"]) => self.handle_health(),
            ("GET", ["metrics"]) => self.handle_metrics(),
            ("GET", ["version"]) => self.handle_version(),
            ("POST", ["shutdown"]) => self.handle_shutdown(),
            // Known routes with the wrong verb get 405, unknown paths 404.
            (_, ["targets"]) | (_, ["targets", _, "advise" | "grade" | "lint" | "stats"])
            | (_, ["healthz"]) | (_, ["metrics"]) | (_, ["version"]) | (_, ["shutdown"]) => {
                error_response(405, "method_not_allowed", format!("{} {}", req.method, req.path))
            }
            _ => error_response(404, "not_found", format!("no route for {}", req.path)),
        }
    }

    fn handle_register(&self, req: &Request) -> Response {
        let body: RegisterRequest = match parse_body(req) {
            Ok(b) => b,
            Err(resp) => return resp,
        };
        let schema = match parse_schema(&body.schema) {
            Ok(s) => s,
            Err(e) => return error_response(422, "bad_sql", format!("schema: {e}")),
        };
        let qr = QrHint::new(schema);
        let compiled = if body.extended || body.rewrite_subqueries {
            let opts = FlattenOptions { rewrite_positive_subqueries: body.rewrite_subqueries };
            qr.compile_target_extended(&body.target, &opts)
        } else {
            qr.compile_target(&body.target)
        };
        let prepared = match compiled {
            Ok(p) => p,
            Err(e) => return sql_error_response("target query", &e),
        };
        let (target, eviction) = self.registry.register(prepared);
        json_response(
            201,
            &RegisterResponse { id: target.id.clone(), evicted: eviction.dropped },
        )
    }

    fn handle_advise(&self, req: &Request, id: &str) -> Response {
        let body: AdviseRequest = match parse_body(req) {
            Ok(b) => b,
            Err(resp) => return resp,
        };
        let Some(target) = self.registry.get(id) else {
            return error_response(404, "unknown_target", format!("no target `{id}`"));
        };
        let prepared = &target.prepared;
        let resp = match prepared.prepare(&body.sql) {
            Ok(q) => match prepared.advise(&q) {
                Ok(advice) => {
                    let diagnostics = prepared.lint(&q);
                    json_response(200, &AdviceReport::with_diagnostics(advice, diagnostics))
                }
                Err(e) => sql_error_response("submission", &e),
            },
            Err(e) => sql_error_response("submission", &e),
        };
        self.registry.enforce_byte_budget();
        resp
    }

    fn handle_lint(&self, req: &Request, id: &str) -> Response {
        let body: LintRequest = match parse_body(req) {
            Ok(b) => b,
            Err(resp) => return resp,
        };
        let Some(target) = self.registry.get(id) else {
            return error_response(404, "unknown_target", format!("no target `{id}`"));
        };
        let prepared = &target.prepared;
        match prepared.prepare(&body.sql) {
            Ok(q) => {
                let diagnostics = prepared.lint(&q);
                json_response(
                    200,
                    &LintResponse {
                        clean: diagnostics.is_empty(),
                        errors: qrhint_core::analysis::has_errors(&diagnostics),
                        diagnostics,
                    },
                )
            }
            Err(e) => sql_error_response("submission", &e),
        }
    }

    fn handle_grade(&self, req: &Request, id: &str) -> Response {
        let body: GradeRequest = match parse_body(req) {
            Ok(b) => b,
            Err(resp) => return resp,
        };
        let Some(target) = self.registry.get(id) else {
            return error_response(404, "unknown_target", format!("no target `{id}`"));
        };
        // A request may narrow or widen parallelism, within reason: the
        // cap keeps one request from spawning unbounded threads.
        let jobs = if body.jobs == 0 { self.jobs } else { body.jobs.min(64) };
        let prepared = &target.prepared;
        let entries = qrhint_core::parallel::run_indexed(body.submissions.len(), jobs, |i| {
            let working = prepared.prepare(&body.submissions[i]);
            match working.and_then(|q| prepared.advise(&q).map(|a| (q, a))) {
                Ok((q, advice)) => GradeEntry {
                    index: i,
                    ok: true,
                    error: None,
                    report: Some(AdviceReport::with_diagnostics(advice, prepared.lint(&q))),
                },
                Err(e) => GradeEntry {
                    index: i,
                    ok: false,
                    error: Some(e.to_string()),
                    report: None,
                },
            }
        });
        let resp = json_response(200, &GradeResponse { jobs, entries });
        self.registry.enforce_byte_budget();
        resp
    }

    fn handle_stats(&self, id: &str) -> Response {
        let Some(target) = self.registry.get(id) else {
            return error_response(404, "unknown_target", format!("no target `{id}`"));
        };
        json_response(
            200,
            &StatsResponse {
                id: target.id.clone(),
                stats: target.prepared.stats(),
                approx_cache_bytes: target.prepared.approx_cache_bytes() as u64,
            },
        )
    }

    fn handle_health(&self) -> Response {
        let (registered_total, shed_total, evicted_total) = self.registry.totals();
        let uptime_ms = self.started.elapsed().as_millis() as u64;
        json_response(
            200,
            &HealthResponse {
                status: if self.is_draining() { "draining".into() } else { "ok".into() },
                version: env!("CARGO_PKG_VERSION").to_string(),
                targets: self.registry.len(),
                uptime_ms,
                uptime_seconds: uptime_ms / 1000,
                requests_served: self.requests_served.load(Ordering::Relaxed),
                in_flight: self.metrics.in_flight(),
                registered_total,
                shed_total,
                evicted_total,
                overload_shed_total: self.metrics.shed_total(),
                draining: self.is_draining(),
            },
        )
    }

    fn handle_metrics(&self) -> Response {
        Response::with_content_type(
            200,
            self.metrics.render(&self.registry),
            "text/plain; version=0.0.4",
        )
    }

    fn handle_version(&self) -> Response {
        json_response(
            200,
            &VersionResponse {
                name: env!("CARGO_PKG_NAME").to_string(),
                version: env!("CARGO_PKG_VERSION").to_string(),
            },
        )
    }

    fn handle_shutdown(&self) -> Response {
        self.draining.store(true, Ordering::SeqCst);
        json_response(200, &ShutdownResponse { status: "draining".into() })
    }
}

impl crate::server::HttpHandler for QrHintService {
    fn handle(&self, req: &Request) -> Response {
        QrHintService::handle(self, req)
    }

    fn is_draining(&self) -> bool {
        QrHintService::is_draining(self)
    }

    fn observe_shed(&self) {
        QrHintService::observe_shed(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SCHEMA: &str = "CREATE TABLE Serves (bar VARCHAR(20), beer VARCHAR(20), \
                          price INT, PRIMARY KEY (bar, beer));";

    fn post(path: &str, body: &str) -> Request {
        Request {
            method: "POST".into(),
            path: path.into(),
            headers: Vec::new(),
            body: body.as_bytes().to_vec(),
            keep_alive: true,
        }
    }

    fn get(path: &str) -> Request {
        Request {
            method: "GET".into(),
            path: path.into(),
            headers: Vec::new(),
            body: Vec::new(),
            keep_alive: true,
        }
    }

    fn service() -> QrHintService {
        QrHintService::new(ServiceConfig::default())
    }

    fn register(svc: &QrHintService, target: &str) -> String {
        let body = serde_json::to_string(&{
            let mut m: std::collections::BTreeMap<String, String> =
                std::collections::BTreeMap::new();
            m.insert("schema".into(), SCHEMA.into());
            m.insert("target".into(), target.into());
            m
        })
        .unwrap();
        let resp = svc.handle(&post("/targets", &body));
        assert_eq!(resp.status, 201, "{}", resp.body);
        // `{"id":"tN", ...}` — pull the id out structurally.
        let v: serde::Value = serde_json::from_str(&resp.body).unwrap();
        match v {
            serde::Value::Map(m) => match m.iter().find(|(k, _)| k == "id") {
                Some((_, serde::Value::Str(id))) => id.clone(),
                other => panic!("no id in register response: {other:?}"),
            },
            other => panic!("register response not a map: {other:?}"),
        }
    }

    #[test]
    fn register_advise_stats_round_trip() {
        let svc = service();
        let id = register(&svc, "SELECT s.bar FROM Serves s WHERE s.price >= 3");
        let resp = svc.handle(&post(
            &format!("/targets/{id}/advise"),
            "{\"sql\": \"SELECT s.bar FROM Serves s WHERE s.price > 3\"}",
        ));
        assert_eq!(resp.status, 200, "{}", resp.body);
        assert!(resp.body.contains("\"equivalent\":false"), "{}", resp.body);
        let stats = svc.handle(&get(&format!("/targets/{id}/stats")));
        assert_eq!(stats.status, 200);
        assert!(stats.body.contains("\"advise_calls\":1"), "{}", stats.body);
        // PR 5: interner + shared-verdict-cache counters ride along.
        assert!(stats.body.contains("\"verdict_cache_misses\""), "{}", stats.body);
        assert!(stats.body.contains("\"interned_formulas\""), "{}", stats.body);
    }

    #[test]
    fn lint_route_reports_diagnostics_and_stats_count_them() {
        let svc = service();
        let id = register(&svc, "SELECT s.bar FROM Serves s WHERE s.price >= 3");
        let resp = svc.handle(&post(
            &format!("/targets/{id}/lint"),
            "{\"sql\": \"SELECT s.bar FROM Serves s WHERE s.price >= 3\"}",
        ));
        assert_eq!(resp.status, 200, "{}", resp.body);
        assert!(resp.body.contains("\"clean\":true"), "{}", resp.body);
        let resp = svc.handle(&post(
            &format!("/targets/{id}/lint"),
            "{\"sql\": \"SELECT s.bar FROM Serves s WHERE s.price > 5 AND s.price < 3\"}",
        ));
        assert_eq!(resp.status, 200, "{}", resp.body);
        assert!(resp.body.contains("\"clean\":false"), "{}", resp.body);
        assert!(resp.body.contains("QH-P01"), "{}", resp.body);
        let stats = svc.handle(&get(&format!("/targets/{id}/stats")));
        assert!(stats.body.contains("\"diagnostics_emitted\":1"), "{}", stats.body);
        assert!(stats.body.contains("\"quick_conflicts\""), "{}", stats.body);
        // Bad submission SQL → 422; wrong verb → 405.
        let bad = svc.handle(&post(&format!("/targets/{id}/lint"), "{\"sql\": \"SELEKT\"}"));
        assert_eq!(bad.status, 422, "{}", bad.body);
        assert_eq!(svc.handle(&get(&format!("/targets/{id}/lint"))).status, 405);
    }

    #[test]
    fn advise_attaches_diagnostics_only_when_present() {
        let svc = service();
        let id = register(&svc, "SELECT s.bar FROM Serves s WHERE s.price >= 3");
        // Analyzer-clean submission: the key is absent (byte parity with
        // pre-analyzer reports).
        let resp = svc.handle(&post(
            &format!("/targets/{id}/advise"),
            "{\"sql\": \"SELECT s.bar FROM Serves s WHERE s.price > 3\"}",
        ));
        assert_eq!(resp.status, 200, "{}", resp.body);
        assert!(!resp.body.contains("diagnostics"), "{}", resp.body);
        // Contradictory submission: diagnostics ride along with advice.
        let resp = svc.handle(&post(
            &format!("/targets/{id}/advise"),
            "{\"sql\": \"SELECT s.bar FROM Serves s WHERE s.price > 5 AND s.price < 3\"}",
        ));
        assert_eq!(resp.status, 200, "{}", resp.body);
        assert!(resp.body.contains("\"diagnostics\""), "{}", resp.body);
        assert!(resp.body.contains("QH-P01"), "{}", resp.body);
    }

    #[test]
    fn error_statuses_are_stable() {
        let svc = service();
        // Bad JSON → 400.
        assert_eq!(svc.handle(&post("/targets", "{not json")).status, 400);
        // Missing field → 400.
        assert_eq!(svc.handle(&post("/targets", "{\"schema\": \"x\"}")).status, 400);
        // Bad target SQL → 422.
        let resp = svc.handle(&post(
            "/targets",
            &format!("{{\"schema\": \"{}\", \"target\": \"SELEKT nope\"}}",
                     SCHEMA.replace('"', "\\\"")),
        ));
        assert_eq!(resp.status, 422, "{}", resp.body);
        // Unknown target → 404.
        assert_eq!(
            svc.handle(&post("/targets/t99/advise", "{\"sql\": \"SELECT 1\"}")).status,
            404
        );
        // Unknown route → 404; known route, wrong verb → 405.
        assert_eq!(svc.handle(&get("/nope")).status, 404);
        assert_eq!(svc.handle(&get("/targets")).status, 405);
        assert_eq!(svc.handle(&get("/shutdown")).status, 405);
    }

    #[test]
    fn malformed_submission_is_422_not_500() {
        let svc = service();
        let id = register(&svc, "SELECT s.bar FROM Serves s WHERE s.price >= 3");
        let resp = svc.handle(&post(
            &format!("/targets/{id}/advise"),
            "{\"sql\": \"SELEKT nonsense\"}",
        ));
        assert_eq!(resp.status, 422, "{}", resp.body);
        assert!(resp.body.contains("bad_sql"));
    }

    #[test]
    fn grade_batch_reports_per_submission_errors_in_order() {
        let svc = service();
        let id = register(&svc, "SELECT s.bar FROM Serves s WHERE s.price >= 3");
        let resp = svc.handle(&post(
            &format!("/targets/{id}/grade"),
            "{\"submissions\": [\"SELECT s.bar FROM Serves s WHERE s.price >= 3\", \
              \"SELEKT nonsense\"], \"jobs\": 2}",
        ));
        assert_eq!(resp.status, 200, "{}", resp.body);
        assert!(resp.body.contains("\"equivalent\":true"), "{}", resp.body);
        assert!(resp.body.contains("parse error"), "{}", resp.body);
    }

    #[test]
    fn draining_refuses_new_work_but_answers_health_and_scrapes() {
        let svc = service();
        assert_eq!(svc.handle(&post("/shutdown", "")).status, 200);
        assert!(svc.is_draining());
        assert_eq!(svc.handle(&post("/targets", "{}")).status, 503);
        let health = svc.handle(&get("/healthz"));
        assert_eq!(health.status, 200);
        assert!(health.body.contains("\"draining\":true"));
        // Monitoring keeps watching the drain.
        assert_eq!(svc.handle(&get("/metrics")).status, 200);
        assert_eq!(svc.handle(&get("/version")).status, 200);
    }

    #[test]
    fn version_route_reports_build_identity() {
        let svc = service();
        let resp = svc.handle(&get("/version"));
        assert_eq!(resp.status, 200, "{}", resp.body);
        assert_eq!(resp.content_type, "application/json");
        assert!(resp.body.contains("\"name\":\"qrhint-server\""), "{}", resp.body);
        assert!(
            resp.body.contains(&format!("\"version\":\"{}\"", env!("CARGO_PKG_VERSION"))),
            "{}",
            resp.body
        );
        assert_eq!(svc.handle(&post("/version", "")).status, 405);
    }

    #[test]
    fn healthz_reports_uptime_seconds_and_in_flight() {
        let svc = service();
        let resp = svc.handle(&get("/healthz"));
        assert_eq!(resp.status, 200);
        assert!(resp.body.contains("\"uptime_seconds\":"), "{}", resp.body);
        // The health request itself is the one in flight.
        assert!(resp.body.contains("\"in_flight\":1"), "{}", resp.body);
    }

    #[test]
    fn metrics_scrape_is_valid_and_counts_requests() {
        let svc = service();
        let id = register(&svc, "SELECT s.bar FROM Serves s WHERE s.price >= 3");
        let resp = svc.handle(&post(
            &format!("/targets/{id}/advise"),
            "{\"sql\": \"SELECT s.bar FROM Serves s WHERE s.price > 3\"}",
        ));
        assert_eq!(resp.status, 200, "{}", resp.body);
        let scrape = svc.handle(&get("/metrics"));
        assert_eq!(scrape.status, 200);
        assert_eq!(scrape.content_type, "text/plain; version=0.0.4");
        qrhint_obs::expo::validate(&scrape.body).expect("valid exposition");
        assert!(
            scrape.body.contains("qrhint_http_requests_total{route=\"register\",status=\"201\"} 1"),
            "{}",
            scrape.body
        );
        assert!(
            scrape.body.contains("qrhint_http_requests_total{route=\"advise\",status=\"200\"} 1"),
            "{}",
            scrape.body
        );
        assert!(scrape.body.contains("qrhint_registry_targets 1"), "{}", scrape.body);
        // Aggregated session counters reflect the one advise.
        assert!(scrape.body.contains("qrhint_session_advise_calls 1"), "{}", scrape.body);
        // Route templates keep label cardinality bounded: the target id
        // never appears in the exposition.
        assert!(!scrape.body.contains(&id), "target id leaked into labels: {}", scrape.body);
    }

    #[test]
    fn route_template_is_total_and_bounded() {
        assert_eq!(route_template(&["targets"]), "register");
        assert_eq!(route_template(&["targets", "t9", "advise"]), "advise");
        assert_eq!(route_template(&["targets", "t9", "stats"]), "stats");
        assert_eq!(route_template(&["metrics"]), "metrics");
        assert_eq!(route_template(&["not", "a", "route"]), "other");
        assert_eq!(route_template(&[]), "other");
    }

    #[test]
    fn resolve_jobs_zero_uses_available_parallelism() {
        assert!(resolve_jobs(0) >= 1);
        assert_eq!(resolve_jobs(3), 3);
    }
}
