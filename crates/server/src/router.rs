//! `qr-hint route`: the scale-out layer. One router daemon owns the
//! public address and consistent-hashes **target ids** across N backend
//! `serve` daemons, so adding a process adds capacity — the ceiling
//! ROADMAP item 3 names.
//!
//! ## Topology
//!
//! ```text
//!   clients ──► router ──┬─► backend serve #0   (spawned or joined)
//!                        ├─► backend serve #1
//!                        └─► backend serve #2
//! ```
//!
//! Backends are either **spawned** as child processes (`--spawn N`,
//! each on an ephemeral port) or **joined** (`--backend ADDR`,
//! already-running daemons the router does not own). `POST /shutdown`
//! on the router drains the router itself and the *spawned* children;
//! joined backends are left running.
//!
//! ## Placement and re-sharding
//!
//! Each registration gets a router-global id (`t1`, `t2`, …). Its home
//! backend is chosen on a consistent-hash ring: every backend
//! contributes [`REPLICAS`] virtual points
//! (`hash(label#replica)`), and a target lands on the first point at or
//! after `hash(id)` whose backend is currently healthy. The walk makes
//! failover **deterministic**: when a backend dies, each of its targets
//! moves to the next healthy backend on the ring (and only *its*
//! targets move — everyone else stays put); when it rejoins, exactly
//! those targets move home again.
//!
//! The router retains every registration body, so re-sharding is
//! re-registration: on a health transition it re-plays the stored body
//! against the new home and rewrites its id mapping. Session caches are
//! rebuilt on the new backend — state the paper's pipeline can always
//! recompute — so failover costs warm-up, not correctness.
//!
//! ## Health and backpressure
//!
//! A background loop probes every backend's `/healthz` each
//! [`RouterConfig::health_interval`]; a forward that fails with an I/O
//! error marks the backend down immediately (no waiting for the next
//! probe) and retries on the re-sharded home. The router's own shell
//! applies the same bounded-queue `429` + `Retry-After` contract as the
//! backends.

use crate::http::{Request, Response};
use crate::pool::ClientPool;
use crate::server::{HttpHandler, Server, ShellConfig};
use crate::service::{error_response, route_template};
use qrhint_obs::metrics::default_latency_buckets;
use qrhint_obs::Registry as MetricsRegistry;
use serde::Serialize;
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Consistent-hash ring
// ---------------------------------------------------------------------------

/// FNV-1a 64-bit: tiny, dependency-free, and stable across processes —
/// placement must not change between router restarts with the same
/// backend set (`DefaultHasher` explicitly reserves the right to).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Ring position of a key: FNV-1a plus a full-avalanche finalizer
/// (murmur3's `fmix64`). Raw FNV-1a barely diffuses the last byte into
/// the high bits, so near-identical strings (`addr#0`, `addr#1`, …,
/// `t1`, `t2`, …) land on **adjacent** ring positions — one backend's
/// virtual points would own long contiguous arcs and load would skew
/// badly (measured: 59/17/24% shares for 3 backends × 64 replicas).
pub fn ring_position(bytes: &[u8]) -> u64 {
    let mut h = fnv1a64(bytes);
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^= h >> 33;
    h
}

/// Virtual points each backend contributes to the [`Ring`].
pub const REPLICAS: usize = 64;

/// The ring: each backend contributes [`REPLICAS`] virtual points so
/// load splits evenly even with few backends.
#[derive(Debug, Clone)]
pub struct Ring {
    /// `(point, backend index)`, sorted by point.
    points: Vec<(u64, usize)>,
}

impl Ring {
    /// Build from backend labels (their address strings). Labels — not
    /// indices — are hashed, so joining or losing one backend moves
    /// only that backend's share of targets.
    pub fn new(labels: &[String]) -> Ring {
        let mut points = Vec::with_capacity(labels.len() * REPLICAS);
        for (idx, label) in labels.iter().enumerate() {
            for r in 0..REPLICAS {
                points.push((ring_position(format!("{label}#{r}").as_bytes()), idx));
            }
        }
        points.sort_unstable();
        Ring { points }
    }

    /// Place `id`: first point at or after `hash(id)` (wrapping) whose
    /// backend passes `healthy`. `None` iff no backend does.
    pub fn place(&self, id: &str, healthy: impl Fn(usize) -> bool) -> Option<usize> {
        if self.points.is_empty() {
            return None;
        }
        let h = ring_position(id.as_bytes());
        let start = self.points.partition_point(|&(p, _)| p < h);
        let n = self.points.len();
        for i in 0..n {
            let (_, backend) = self.points[(start + i) % n];
            if healthy(backend) {
                return Some(backend);
            }
        }
        None
    }
}

// ---------------------------------------------------------------------------
// Config
// ---------------------------------------------------------------------------

/// Everything `qr-hint route` configures.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// The router's own bind address.
    pub addr: String,
    /// Already-running backends to join (not owned by the router).
    pub backends: Vec<SocketAddr>,
    /// Backend `serve` children of this executable (`current_exe`) to
    /// spawn on ephemeral ports.
    pub spawn: usize,
    /// `/healthz` probe period (also the failover-recovery bound).
    pub health_interval: Duration,
    /// Router request workers (`0` = available parallelism).
    pub workers: usize,
    /// Bounded dispatch queue; beyond it, `429` + `Retry-After`.
    pub max_pending: usize,
}

impl Default for RouterConfig {
    fn default() -> RouterConfig {
        RouterConfig {
            addr: "127.0.0.1:7979".into(),
            backends: Vec::new(),
            spawn: 0,
            health_interval: Duration::from_millis(250),
            workers: 0,
            max_pending: ShellConfig::default().max_pending,
        }
    }
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

/// The router's `/metrics` surface, on the shared `qrhint-obs`
/// substrate. Backend labels are bounded (one per configured backend),
/// route labels come from the same template vocabulary as the daemon.
struct RouterMetrics {
    registry: MetricsRegistry,
}

impl RouterMetrics {
    fn new() -> RouterMetrics {
        let m = RouterMetrics { registry: MetricsRegistry::new() };
        m.shed_counter();
        m
    }

    fn shed_counter(&self) -> Arc<qrhint_obs::Counter> {
        self.registry.counter(
            "qrhint_router_shed_total",
            "Connections shed with 429 because the router's dispatch queue was full.",
            &[],
        )
    }

    fn set_backend_up(&self, backend: &str, up: bool) {
        self.registry
            .gauge(
                "qrhint_router_backend_up",
                "1 if the backend answered its last health probe, else 0.",
                &[("backend", backend)],
            )
            .set(if up { 1 } else { 0 });
    }

    fn observe_forward(&self, backend: &str, route: &str, status: u16, elapsed: Duration) {
        self.registry
            .counter(
                "qrhint_router_forwarded_total",
                "Requests forwarded, by backend, route template and status code.",
                &[("backend", backend), ("route", route), ("status", &status.to_string())],
            )
            .inc();
        self.registry
            .histogram(
                "qrhint_router_forward_duration_seconds",
                "Forwarded-request latency (router-side), by backend.",
                &[("backend", backend)],
                &default_latency_buckets(),
            )
            .observe_duration(elapsed);
    }

    fn observe_reshards(&self, moved: u64) {
        self.registry
            .counter(
                "qrhint_router_reshards_total",
                "Targets re-registered on a new home after a health transition.",
                &[],
            )
            .add(moved);
    }

    fn render(&self, targets: usize, pool: &ClientPool) -> String {
        self.registry
            .gauge("qrhint_router_targets", "Targets the router is tracking.", &[])
            .set(targets as i64);
        let stats = pool.stats();
        for (name, help, value) in [
            (
                "qrhint_router_pool_checkouts_total",
                "Backend connections handed to forwarders (hits + misses).",
                stats.checkouts,
            ),
            (
                "qrhint_router_pool_hits_total",
                "Forwards served over a reused keep-alive backend connection.",
                stats.hits,
            ),
            (
                "qrhint_router_pool_misses_total",
                "Forwards that had to open a fresh backend connection.",
                stats.misses,
            ),
            (
                "qrhint_router_pool_discarded_total",
                "Backend connections dropped instead of parked.",
                stats.discarded,
            ),
            (
                "qrhint_router_pool_retries_total",
                "Forwards retried on a fresh connection after a stale pooled one.",
                stats.retries,
            ),
        ] {
            self.registry.counter(name, help, &[]).store(value);
        }
        self.registry.render()
    }
}

// ---------------------------------------------------------------------------
// The routing service
// ---------------------------------------------------------------------------

struct BackendState {
    addr: SocketAddr,
    /// The ring label and metric label: the address string.
    label: String,
    healthy: AtomicBool,
    /// Spawned child (owned) vs joined (not ours to shut down).
    spawned: bool,
}

/// One tracked registration.
#[derive(Clone)]
struct TargetEntry {
    /// The original registration body, retained so failover can re-play
    /// it against a new home.
    body: String,
    /// Current home: index into the backend table.
    home: usize,
    /// The id the home backend knows this target by.
    local: String,
}

/// Body of the router's `GET /healthz`.
#[derive(Debug, Serialize)]
struct RouterHealth {
    status: String,
    version: String,
    role: String,
    backends: Vec<BackendHealth>,
    healthy_backends: usize,
    targets: usize,
    uptime_ms: u64,
    overload_shed_total: u64,
    draining: bool,
}

#[derive(Debug, Serialize)]
struct BackendHealth {
    addr: String,
    healthy: bool,
    spawned: bool,
    targets: usize,
}

/// The forwarding handler behind the router's serving shell.
pub struct RouterService {
    backends: Vec<BackendState>,
    ring: Ring,
    pool: ClientPool,
    targets: Mutex<HashMap<String, TargetEntry>>,
    /// Serializes re-shard passes (they do network I/O and rewrite the
    /// target table; two interleaved passes could ping-pong a target).
    reshard_lock: Mutex<()>,
    next_id: AtomicU64,
    draining: AtomicBool,
    metrics: RouterMetrics,
    started: Instant,
    health_interval: Duration,
}

impl RouterService {
    fn new(backends: Vec<BackendState>, health_interval: Duration) -> RouterService {
        let labels: Vec<String> = backends.iter().map(|b| b.label.clone()).collect();
        let metrics = RouterMetrics::new();
        for b in &backends {
            metrics.set_backend_up(&b.label, b.healthy.load(Ordering::SeqCst));
        }
        RouterService {
            ring: Ring::new(&labels),
            backends,
            pool: ClientPool::new(),
            targets: Mutex::new(HashMap::new()),
            reshard_lock: Mutex::new(()),
            next_id: AtomicU64::new(0),
            draining: AtomicBool::new(false),
            metrics,
            started: Instant::now(),
            health_interval,
        }
    }

    fn healthy(&self, idx: usize) -> bool {
        self.backends[idx].healthy.load(Ordering::SeqCst)
    }

    fn place(&self, id: &str) -> Option<usize> {
        self.ring.place(id, |idx| self.healthy(idx))
    }

    /// Mark a backend down right now (probe failure or forward I/O
    /// error); drops its pooled connections. Returns whether this was a
    /// transition.
    fn mark_down(&self, idx: usize) -> bool {
        let was = self.backends[idx].healthy.swap(false, Ordering::SeqCst);
        if was {
            self.metrics.set_backend_up(&self.backends[idx].label, false);
            self.pool.evict_addr(self.backends[idx].addr);
        }
        was
    }

    fn mark_up(&self, idx: usize) -> bool {
        let was = self.backends[idx].healthy.swap(true, Ordering::SeqCst);
        if !was {
            self.metrics.set_backend_up(&self.backends[idx].label, true);
        }
        !was
    }

    /// One health pass over all backends; re-shards if any transition
    /// happened. Called by the router's background loop, and harmless
    /// to call from tests.
    pub fn health_tick(&self) {
        let mut transitions = false;
        for (idx, backend) in self.backends.iter().enumerate() {
            let up = probe_healthz(backend.addr, self.health_interval.max(Duration::from_millis(250)));
            let changed = if up { self.mark_up(idx) } else { self.mark_down(idx) };
            transitions |= changed;
        }
        if transitions {
            self.reshard();
        }
    }

    /// Move every target whose deterministic placement no longer
    /// matches its current home: re-play the stored registration on the
    /// new home, then atomically rewrite the mapping.
    fn reshard(&self) {
        let _pass = self.reshard_lock.lock().unwrap();
        let snapshot: Vec<(String, TargetEntry)> = {
            let targets = self.targets.lock().unwrap();
            targets.iter().map(|(k, v)| (k.clone(), v.clone())).collect()
        };
        let mut moved = 0u64;
        for (gid, entry) in snapshot {
            let Some(desired) = self.place(&gid) else { continue };
            if desired == entry.home && self.healthy(entry.home) {
                continue;
            }
            let addr = self.backends[desired].addr;
            match self.pool.request(addr, "POST", "/targets", &entry.body) {
                Ok((201, body)) => {
                    if let Some(local) = extract_id(&body) {
                        let mut targets = self.targets.lock().unwrap();
                        if let Some(e) = targets.get_mut(&gid) {
                            e.home = desired;
                            e.local = local;
                            moved += 1;
                        }
                    }
                }
                Ok(_) => {
                    // The backend refused a body it (or a peer) once
                    // accepted — leave the old mapping; the target will
                    // surface errors to its callers rather than vanish.
                }
                Err(_) => {
                    // New home is unreachable too; the next health tick
                    // (or forward failure) will mark it down and try
                    // the next ring successor.
                }
            }
        }
        if moved > 0 {
            self.metrics.observe_reshards(moved);
        }
    }

    // -- request handling ------------------------------------------------

    fn handle_register(&self, req: &Request) -> Response {
        let Ok(body) = std::str::from_utf8(&req.body) else {
            return error_response(400, "bad_request", "registration body is not UTF-8");
        };
        let gid = format!("t{}", self.next_id.fetch_add(1, Ordering::SeqCst) + 1);
        // Bounded by the backend count: each failed attempt marks a
        // backend down, shrinking the healthy set.
        for _ in 0..=self.backends.len() {
            let Some(home) = self.place(&gid) else {
                return error_response(503, "no_backend", "no healthy backend to place target on");
            };
            let addr = self.backends[home].addr;
            let started = Instant::now();
            match self.pool.request(addr, "POST", "/targets", body) {
                Ok((status, resp_body)) => {
                    self.metrics.observe_forward(
                        &self.backends[home].label,
                        "register",
                        status,
                        started.elapsed(),
                    );
                    if status != 201 {
                        // Bad schema/target: the backend's error is the
                        // user's answer; nothing to track.
                        return Response::new(status, resp_body);
                    }
                    let Some(local) = extract_id(&resp_body) else {
                        return error_response(
                            500,
                            "internal",
                            "backend register response had no id",
                        );
                    };
                    self.targets.lock().unwrap().insert(
                        gid.clone(),
                        TargetEntry { body: body.to_string(), home, local },
                    );
                    return Response::new(
                        201,
                        format!(
                            "{{\"id\":\"{gid}\",\"backend\":\"{}\"}}",
                            self.backends[home].label
                        ),
                    );
                }
                Err(_) => {
                    self.mark_down(home);
                    self.reshard();
                }
            }
        }
        error_response(503, "no_backend", "no healthy backend to place target on")
    }

    /// Forward an advise/grade/lint/stats request for a tracked target,
    /// failing over (mark down → re-shard → retry) on backend I/O
    /// errors. The backend's response body is passed through
    /// **verbatim** — advice JSON stays byte-identical to a direct hit.
    fn forward(&self, req: &Request, gid: &str, tail: &str, route: &'static str) -> Response {
        let Ok(body) = std::str::from_utf8(&req.body) else {
            return error_response(400, "bad_request", "request body is not UTF-8");
        };
        for _ in 0..=self.backends.len() {
            let entry = {
                let targets = self.targets.lock().unwrap();
                let Some(entry) = targets.get(gid) else {
                    return error_response(404, "unknown_target", format!("no target `{gid}`"));
                };
                entry.clone()
            };
            if !self.healthy(entry.home) {
                // Home died since placement; re-shard moves the mapping,
                // then retry with the fresh entry.
                self.reshard();
                continue;
            }
            let addr = self.backends[entry.home].addr;
            let path = if tail.is_empty() {
                format!("/targets/{}", entry.local)
            } else {
                format!("/targets/{}/{tail}", entry.local)
            };
            let started = Instant::now();
            match self.pool.request(addr, &req.method, &path, body) {
                Ok((status, resp_body)) => {
                    self.metrics.observe_forward(
                        &self.backends[entry.home].label,
                        route,
                        status,
                        started.elapsed(),
                    );
                    return Response::new(status, resp_body);
                }
                Err(_) => {
                    self.mark_down(entry.home);
                    self.reshard();
                }
            }
        }
        error_response(503, "no_backend", format!("no healthy backend for `{gid}`"))
    }

    fn handle_health(&self) -> Response {
        let targets = self.targets.lock().unwrap();
        let mut per_backend = vec![0usize; self.backends.len()];
        for entry in targets.values() {
            per_backend[entry.home] += 1;
        }
        let backends: Vec<BackendHealth> = self
            .backends
            .iter()
            .zip(&per_backend)
            .map(|(b, &targets)| BackendHealth {
                addr: b.label.clone(),
                healthy: b.healthy.load(Ordering::SeqCst),
                spawned: b.spawned,
                targets,
            })
            .collect();
        let healthy_backends = backends.iter().filter(|b| b.healthy).count();
        let body = RouterHealth {
            status: if self.is_draining() {
                "draining".into()
            } else if healthy_backends == 0 {
                "degraded".into()
            } else {
                "ok".into()
            },
            version: env!("CARGO_PKG_VERSION").to_string(),
            role: "router".into(),
            backends,
            healthy_backends,
            targets: targets.len(),
            uptime_ms: self.started.elapsed().as_millis() as u64,
            overload_shed_total: self.metrics.shed_counter().get(),
            draining: self.is_draining(),
        };
        match serde_json::to_string(&body) {
            Ok(json) => Response::new(200, json),
            Err(e) => error_response(500, "internal", format!("health serialization: {e}")),
        }
    }

    fn handle_metrics(&self) -> Response {
        let targets = self.targets.lock().unwrap().len();
        Response::with_content_type(
            200,
            self.metrics.render(targets, &self.pool),
            "text/plain; version=0.0.4",
        )
    }
}

impl HttpHandler for RouterService {
    fn handle(&self, req: &Request) -> Response {
        let path = req.path.trim_end_matches('/');
        let segments: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
        if self.is_draining() && !matches!(segments.as_slice(), ["healthz"] | ["metrics"] | ["version"]) {
            return error_response(503, "draining", "router is shutting down");
        }
        let route = route_template(segments.as_slice());
        match (req.method.as_str(), segments.as_slice()) {
            ("POST", ["targets"]) => self.handle_register(req),
            ("POST", ["targets", id, tail @ ("advise" | "grade" | "lint")]) => {
                self.forward(req, id, tail, route)
            }
            ("GET", ["targets", id, "stats"]) => self.forward(req, id, "stats", route),
            ("GET", ["healthz"]) => self.handle_health(),
            ("GET", ["metrics"]) => self.handle_metrics(),
            ("GET", ["version"]) => Response::new(
                200,
                format!(
                    "{{\"name\":\"qrhint-router\",\"version\":\"{}\"}}",
                    env!("CARGO_PKG_VERSION")
                ),
            ),
            ("POST", ["shutdown"]) => {
                self.draining.store(true, Ordering::SeqCst);
                Response::new(200, "{\"status\":\"draining\"}".into())
            }
            (_, ["targets"]) | (_, ["targets", _, "advise" | "grade" | "lint" | "stats"])
            | (_, ["healthz"]) | (_, ["metrics"]) | (_, ["version"]) | (_, ["shutdown"]) => {
                error_response(405, "method_not_allowed", format!("{} {}", req.method, req.path))
            }
            _ => error_response(404, "not_found", format!("no route for {}", req.path)),
        }
    }

    fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    fn observe_shed(&self) {
        self.metrics.shed_counter().inc();
    }
}

/// Pull `"id":"…"` out of a backend register response without a full
/// deserialize round-trip (the body shape is ours; see `RegisterResponse`).
fn extract_id(body: &str) -> Option<String> {
    match serde_json::from_str::<serde_json::Value>(body).ok()? {
        serde_json::Value::Map(entries) => entries.into_iter().find_map(|(k, v)| match v {
            serde_json::Value::Str(s) if k == "id" => Some(s),
            _ => None,
        }),
        _ => None,
    }
}

/// Probe one backend's `/healthz` with a bounded connect + read budget.
/// Any well-formed `200` counts as up — a draining backend answers 200
/// with `"status":"draining"`, but it still serves its registered
/// targets until drained, and it will disappear (connect refused)
/// moments later anyway.
fn probe_healthz(addr: SocketAddr, budget: Duration) -> bool {
    let Ok(stream) = TcpStream::connect_timeout(&addr, budget) else {
        return false;
    };
    if stream.set_read_timeout(Some(budget)).is_err() || stream.set_nodelay(true).is_err() {
        return false;
    }
    let mut stream = stream;
    let req = "GET /healthz HTTP/1.1\r\nHost: qrhint\r\nConnection: close\r\nContent-Length: 0\r\n\r\n";
    if stream.write_all(req.as_bytes()).is_err() {
        return false;
    }
    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    if reader.read_line(&mut status_line).is_err() {
        return false;
    }
    // Drain the rest so the backend doesn't see an abortive close.
    let mut sink = Vec::new();
    let _ = reader.read_to_end(&mut sink);
    status_line.split_whitespace().nth(1) == Some("200")
}

// ---------------------------------------------------------------------------
// The router daemon
// ---------------------------------------------------------------------------

/// A bound router: serving shell + forwarding service + health loop +
/// spawned backend children.
pub struct Router {
    server: Server<RouterService>,
    service: Arc<RouterService>,
    children: Vec<Child>,
    health_interval: Duration,
}

impl Router {
    /// Spawn/join backends, verify initial health, bind the shell and
    /// build the service. The health loop starts inside [`Router::run`].
    pub fn start(cfg: RouterConfig) -> io::Result<Router> {
        let mut backends: Vec<BackendState> = cfg
            .backends
            .iter()
            .map(|&addr| BackendState {
                addr,
                label: addr.to_string(),
                healthy: AtomicBool::new(true),
                spawned: false,
            })
            .collect();
        let mut children = Vec::with_capacity(cfg.spawn);
        for _ in 0..cfg.spawn {
            let (child, addr) = spawn_backend()?;
            backends.push(BackendState {
                addr,
                label: addr.to_string(),
                healthy: AtomicBool::new(true),
                spawned: true,
            });
            children.push(child);
        }
        if backends.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "router needs at least one backend (--spawn N or --backend ADDR)",
            ));
        }
        // Initial probe so a typo'd --backend fails fast instead of
        // 503-ing every request until the first health tick.
        for b in &backends {
            let up = probe_healthz(b.addr, Duration::from_secs(2));
            b.healthy.store(up, Ordering::SeqCst);
            if !up && !b.spawned {
                return Err(io::Error::new(
                    io::ErrorKind::ConnectionRefused,
                    format!("backend {} failed its initial health probe", b.addr),
                ));
            }
        }
        let service = Arc::new(RouterService::new(backends, cfg.health_interval));
        let shell =
            ShellConfig { addr: cfg.addr, workers: cfg.workers, max_pending: cfg.max_pending };
        let server = Server::bind_with(shell, Arc::clone(&service))?;
        Ok(Router { server, service, children, health_interval: cfg.health_interval })
    }

    /// The router's bound address (resolves `:0`).
    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    pub fn service(&self) -> &Arc<RouterService> {
        &self.service
    }

    /// Backend addresses (joined first, then spawned), for harnesses.
    pub fn backend_addrs(&self) -> Vec<SocketAddr> {
        self.service.backends.iter().map(|b| b.addr).collect()
    }

    /// Serve until drained, then shut down spawned children. Joined
    /// backends are left running — they are not ours.
    pub fn run(self) -> io::Result<()> {
        let Router { server, service, mut children, health_interval } = self;
        let result = std::thread::scope(|scope| {
            let health_service = Arc::clone(&service);
            scope.spawn(move || {
                while !health_service.is_draining() {
                    health_service.health_tick();
                    std::thread::sleep(health_interval);
                }
            });
            server.run()
            // Scope joins the health thread: it exits on its first
            // draining check after `run` returns (run only returns
            // once draining).
        });
        // Drain spawned children; joined backends stay up.
        let spawned_addrs: Vec<SocketAddr> = service
            .backends
            .iter()
            .filter(|b| b.spawned)
            .map(|b| b.addr)
            .collect();
        for addr in spawned_addrs {
            let _ = crate::client::request_once(addr, "POST", "/shutdown", "");
        }
        for child in &mut children {
            let _ = child.wait();
        }
        result
    }
}

/// Spawn one backend `serve` child on an ephemeral port and parse its
/// announce line (`qr-hint serving on http://ADDR`) for the address.
fn spawn_backend() -> io::Result<(Child, SocketAddr)> {
    let mut child = Command::new(std::env::current_exe()?)
        .args(["serve", "--addr", "127.0.0.1:0"])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()?;
    let stdout = child.stdout.take().expect("piped stdout");
    let mut reader = BufReader::new(stdout);
    let mut line = String::new();
    reader.read_line(&mut line)?;
    let addr = line
        .rsplit("http://")
        .next()
        .and_then(|s| s.trim().parse::<SocketAddr>().ok());
    let Some(addr) = addr else {
        let _ = child.kill();
        let _ = child.wait();
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("backend announce line not understood: {line:?}"),
        ));
    };
    // Keep the pipe drained so the child can never block on stdout.
    std::thread::spawn(move || {
        let mut sink = String::new();
        loop {
            sink.clear();
            match reader.read_line(&mut sink) {
                Ok(0) | Err(_) => break,
                Ok(_) => {}
            }
        }
    });
    Ok((child, addr))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    fn labels(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("127.0.0.1:{}", 9000 + i)).collect()
    }

    #[test]
    fn placement_is_deterministic_and_total() {
        let ring = Ring::new(&labels(3));
        for i in 0..100 {
            let id = format!("t{i}");
            let a = ring.place(&id, |_| true).unwrap();
            let b = ring.place(&id, |_| true).unwrap();
            assert_eq!(a, b, "placement must be a pure function of (ring, id)");
            assert!(a < 3);
        }
    }

    #[test]
    fn placement_spreads_across_backends() {
        let ring = Ring::new(&labels(3));
        let mut counts = [0usize; 3];
        for i in 0..300 {
            counts[ring.place(&format!("t{i}"), |_| true).unwrap()] += 1;
        }
        for (idx, &count) in counts.iter().enumerate() {
            assert!(count > 30, "backend {idx} starved: {counts:?}");
        }
    }

    #[test]
    fn failover_moves_only_the_dead_backends_targets() {
        let ring = Ring::new(&labels(3));
        let ids: Vec<String> = (0..200).map(|i| format!("t{i}")).collect();
        let before: Vec<usize> =
            ids.iter().map(|id| ring.place(id, |_| true).unwrap()).collect();
        let dead = 1usize;
        let after: Vec<usize> =
            ids.iter().map(|id| ring.place(id, |b| b != dead).unwrap()).collect();
        for ((id, &b), &a) in ids.iter().zip(&before).zip(&after) {
            if b == dead {
                assert_ne!(a, dead, "{id} must leave the dead backend");
            } else {
                assert_eq!(a, b, "{id} must not move: its home {b} is still healthy");
            }
        }
        // And rejoining restores the original placement exactly.
        let rejoined: Vec<usize> =
            ids.iter().map(|id| ring.place(id, |_| true).unwrap()).collect();
        assert_eq!(rejoined, before);
    }

    #[test]
    fn empty_ring_places_nothing() {
        let ring = Ring::new(&[]);
        assert_eq!(ring.place("t1", |_| true), None);
        let ring = Ring::new(&labels(2));
        assert_eq!(ring.place("t1", |_| false), None, "no healthy backend");
    }

    #[test]
    fn extract_id_reads_register_response() {
        assert_eq!(extract_id("{\"id\":\"t7\",\"evicted\":[]}"), Some("t7".into()));
        assert_eq!(extract_id("{\"evicted\":[]}"), None);
        assert_eq!(extract_id("not json"), None);
    }
}
