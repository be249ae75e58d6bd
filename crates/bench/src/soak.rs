//! Scale-out soak benchmark (PR 10): sustained mixed load through the
//! `qr-hint route` consistent-hash router in front of two backend
//! daemons, all in-process over real TCP.
//!
//! Five phases, each answering one question about the serving tier:
//!
//! 1. **Parity** — is an advice response forwarded through the router
//!    byte-identical (status line included) to the same submission
//!    advised directly against the owning backend? The router must be
//!    a transparent placement layer, never a re-serializer.
//! 2. **Unloaded baseline** — single-client advise p50/p99/p999
//!    through the router; the denominator for the overload gate.
//! 3. **Steady mixed load** — several keep-alive clients driving the
//!    register/advise/grade mix the paper's classroom deployment
//!    implies (mostly advise, periodic batch grades, occasional new
//!    target registrations).
//! 4. **Overload** — offered load ≥ 2× the router's worker+queue
//!    capacity. The bounded dispatch queue must shed the excess as
//!    `429 Too Many Requests` while the *accepted* requests' p99 stays
//!    within 10× the unloaded p99 (the whole point of shedding: queues
//!    stay short, so latency stays bounded). Every request must be
//!    accounted for as ok, shed, or error — no silent drops.
//! 5. **Ingest** — a seeded [`qrhint_workloads::mutate`] fuzz corpus
//!    streamed through the advise route, surfacing registry-level
//!    cache behaviour under real traffic; then **failover**: one of
//!    the two backends is shut down mid-serve and the time until the
//!    router re-shards its targets onto the survivor and answers again
//!    is measured against the health-check interval.
//!
//! Latency-sensitive gates (overload ratio, failover budget) are
//! recorded as waived on hosts with < 4 cores, where router, backends,
//! clients and health prober all contend for the same core — same
//! policy as the PR 3/PR 8 scaling gates. Parity, shed accounting and
//! the fact of failover recovery are gated everywhere.
//!
//! Results land in `BENCH_soak.json` (run from the repo root:
//! `cargo run --release --bin exp_soak`).

use qr_hint::server::{
    Client, RegistryConfig, Router, RouterConfig, Server, ServerConfig, ServiceConfig,
};
use qrhint_workloads::mutate::Fuzzer;
use serde::Serialize;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// One load phase's aggregate measurement. Percentiles are over
/// *accepted* (non-429) requests — shed responses return in
/// microseconds and would make overload latency look better than it is.
#[derive(Debug, Clone, Serialize)]
pub struct SoakRow {
    /// `"unloaded"`, `"steady"`, `"overload"` or `"ingest"`.
    pub phase: String,
    /// Concurrent keep-alive clients.
    pub concurrency: usize,
    /// Total requests issued.
    pub requests: usize,
    /// `200`/`201`/`422` responses (422 = unsupported-fragment advise,
    /// a correct answer for some fuzzed mutants).
    pub ok: usize,
    /// `429` overload sheds.
    pub shed: usize,
    /// Transport errors and unexpected statuses.
    pub errors: usize,
    pub req_per_s: f64,
    pub p50_ms: f64,
    pub p99_ms: f64,
    pub p999_ms: f64,
    /// `shed / requests`.
    pub shed_rate: f64,
}

/// Knob block so the in-tree smoke test can run the whole topology in
/// seconds while the exp binary soaks properly.
#[derive(Debug, Clone)]
pub struct SoakConfig {
    pub steady_clients: usize,
    pub steady_requests_per_client: usize,
    pub overload_clients: usize,
    pub overload_requests_per_client: usize,
    /// Fuzz pairs streamed in the ingest phase (the PR 4 corpus scale
    /// is 10⁴; `exp_soak --ingest` runs it in full).
    pub ingest_pairs: usize,
    pub health_interval: Duration,
    /// Router request workers — kept small and explicit so "capacity"
    /// (workers + queue) is a known constant the overload phase can
    /// deliberately exceed.
    pub router_workers: usize,
    /// Router bounded-queue depth.
    pub router_max_pending: usize,
    /// Corpus seed (`generate` is deterministic given seed + index).
    pub seed: u64,
}

impl Default for SoakConfig {
    fn default() -> SoakConfig {
        SoakConfig {
            steady_clients: 4,
            steady_requests_per_client: 120,
            overload_clients: 12,
            overload_requests_per_client: 60,
            ingest_pairs: 2_000,
            health_interval: Duration::from_millis(150),
            router_workers: 2,
            router_max_pending: 4,
            seed: 42,
        }
    }
}

/// The full benchmark artifact (`BENCH_soak.json`).
#[derive(Debug, Clone, Serialize)]
pub struct SoakReport {
    pub cores: usize,
    pub backends: usize,
    /// Targets registered through the router before load starts.
    pub targets: usize,
    pub rows: Vec<SoakRow>,
    /// Routed advice byte-identical to direct-to-backend advice.
    pub parity_ok: bool,
    pub unloaded_p99_ms: f64,
    pub overload_p99_ms: f64,
    /// `overload_p99_ms / unloaded_p99_ms`.
    pub overload_ratio: f64,
    pub overload_threshold: f64,
    pub overload_ok: bool,
    /// `429`s during the overload phase; must be nonzero (offered load
    /// exceeds capacity by construction) and every request accounted.
    pub overload_shed: usize,
    pub shed_accounted_ok: bool,
    /// The router answered for a target homed on the killed backend.
    pub failover_recovered: bool,
    pub failover_recovery_ms: f64,
    /// Probe cycles + re-registration headroom the recovery must fit.
    pub failover_budget_ms: f64,
    pub failover_ok: bool,
    pub health_interval_ms: u64,
    /// Backend registry counters after ingest (summed over backends):
    /// cache sheds and target evictions the corpus provoked.
    pub registry_shed_total: u64,
    pub registry_evicted_total: u64,
    /// Router→backend connection pool hit rate over the whole soak.
    pub pool_hit_rate: f64,
    pub gate_waived_low_cores: bool,
    pub gate_ok: bool,
}

// ---------------------------------------------------------------------------
// Small helpers
// ---------------------------------------------------------------------------

fn json_escape(s: &str) -> String {
    serde_json::to_string(s).expect("string serializes")
}

/// Cheap structural extraction of a string field from a flat JSON
/// object.
fn json_str_field(body: &str, key: &str) -> Option<String> {
    body.split(&format!("\"{key}\":\""))
        .nth(1)
        .and_then(|rest| rest.split('"').next())
        .map(str::to_string)
}

/// Extraction of a numeric field from a flat JSON object.
fn json_u64_field(body: &str, key: &str) -> Option<u64> {
    let rest = body.split(&format!("\"{key}\":")).nth(1)?;
    let digits: String = rest.trim_start().chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ms.len() as f64 - 1.0) * p).round() as usize;
    sorted_ms[idx.min(sorted_ms.len() - 1)]
}

/// One prepared request.
#[derive(Debug, Clone)]
struct Op {
    method: &'static str,
    path: String,
    body: String,
}

#[derive(Debug, Default)]
struct Tally {
    accepted_ms: Vec<f64>,
    ok: usize,
    shed: usize,
    errors: usize,
}

/// Drive `clients` threads through the shared op list (client `c`
/// starts at offset `c`, stride 1) and merge the tallies. Shed (`429`)
/// and transport errors drop the connection and reconnect — exactly
/// what a well-behaved client does after `Connection: close`.
fn blast(addr: SocketAddr, ops: &[Op], clients: usize, per_client: usize) -> (Tally, f64) {
    let started = Instant::now();
    let tallies: Vec<Tally> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    let mut tally = Tally::default();
                    let mut conn: Option<Client> = None;
                    for r in 0..per_client {
                        let op = &ops[(c + r) % ops.len()];
                        let mut client = match conn.take() {
                            Some(existing) => existing,
                            None => match Client::connect(addr) {
                                Ok(fresh) => fresh,
                                Err(_) => {
                                    tally.errors += 1;
                                    continue;
                                }
                            },
                        };
                        let t = Instant::now();
                        match client.request(op.method, &op.path, &op.body) {
                            Ok((status, _body)) => {
                                match status {
                                    200 | 201 | 422 => {
                                        tally.ok += 1;
                                        tally
                                            .accepted_ms
                                            .push(t.elapsed().as_secs_f64() * 1e3);
                                    }
                                    429 => tally.shed += 1,
                                    _ => tally.errors += 1,
                                }
                                if client.is_reusable() {
                                    conn = Some(client);
                                }
                            }
                            Err(_) => tally.errors += 1,
                        }
                    }
                    tally
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("soak client panicked")).collect()
    });
    let wall_s = started.elapsed().as_secs_f64();
    let mut merged = Tally::default();
    for t in tallies {
        merged.accepted_ms.extend(t.accepted_ms);
        merged.ok += t.ok;
        merged.shed += t.shed;
        merged.errors += t.errors;
    }
    merged.accepted_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    (merged, wall_s)
}

fn row(phase: &str, clients: usize, per_client: usize, tally: &Tally, wall_s: f64) -> SoakRow {
    let requests = clients * per_client;
    SoakRow {
        phase: phase.into(),
        concurrency: clients,
        requests,
        ok: tally.ok,
        shed: tally.shed,
        errors: tally.errors,
        req_per_s: requests as f64 / wall_s,
        p50_ms: percentile(&tally.accepted_ms, 0.50),
        p99_ms: percentile(&tally.accepted_ms, 0.99),
        p999_ms: percentile(&tally.accepted_ms, 0.999),
        shed_rate: tally.shed as f64 / requests as f64,
    }
}

fn request_ok(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    Client::connect(addr)
        .and_then(|mut c| c.request(method, path, body))
        .unwrap_or_else(|e| panic!("{method} {path}: {e}"))
}

// ---------------------------------------------------------------------------
// The benchmark
// ---------------------------------------------------------------------------

/// Run the full soak against a fresh in-process topology: two backend
/// daemons joined (not spawned — same process, real sockets) behind a
/// router.
pub fn run(cfg: &SoakConfig) -> SoakReport {
    let cores = crate::report::host_cores();
    let fuzzer = Fuzzer::for_schema("students").expect("students workload");
    let schema_ddl = fuzzer.schema().to_ddl();
    let corpus_len = cfg.ingest_pairs.max(256);
    let cases = fuzzer.generate(corpus_len, cfg.seed);

    // ---- Topology: two backends + router, all on ephemeral ports.
    let backend_cfg = || ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        service: ServiceConfig { jobs: 1, registry: RegistryConfig::default() },
        ..ServerConfig::default()
    };
    let b0 = Server::bind(backend_cfg()).expect("bind backend 0");
    let b1 = Server::bind(backend_cfg()).expect("bind backend 1");
    let backend_addrs = [b0.addr(), b1.addr()];
    let b0_thread = std::thread::spawn(move || b0.run());
    let b1_thread = std::thread::spawn(move || b1.run());

    let router = Router::start(RouterConfig {
        addr: "127.0.0.1:0".into(),
        backends: backend_addrs.to_vec(),
        health_interval: cfg.health_interval,
        workers: cfg.router_workers,
        max_pending: cfg.router_max_pending,
        ..RouterConfig::default()
    })
    .expect("start router");
    let router_addr = router.addr();
    let router_thread = std::thread::spawn(move || router.run());

    // ---- Register every base target through the router; remember each
    // gid's home backend for the parity and failover phases.
    let mut gid_of_base: Vec<(String, String, String)> = Vec::new(); // (base_id, gid, home)
    for (base_id, target) in fuzzer.bases() {
        let body = format!(
            "{{\"schema\": {}, \"target\": {}}}",
            json_escape(&schema_ddl),
            json_escape(&target.to_string())
        );
        let (status, resp) = request_ok(router_addr, "POST", "/targets", &body);
        assert_eq!(status, 201, "register {base_id} through router: {resp}");
        let gid = json_str_field(&resp, "id").expect("gid in register response");
        let home = json_str_field(&resp, "backend").expect("backend in register response");
        gid_of_base.push((base_id.clone(), gid, home));
    }
    let targets = gid_of_base.len();
    let gid_for = |base_id: &str| -> &str {
        &gid_of_base.iter().find(|(b, _, _)| b == base_id).expect("registered base").1
    };

    // ---- Phase 1: parity. Register the first base directly on its
    // home backend and compare direct vs routed advice byte-for-byte.
    let parity_case = &cases[0];
    let (base_id, gid, home) = gid_of_base
        .iter()
        .find(|(b, _, _)| *b == parity_case.base_id)
        .expect("case base registered")
        .clone();
    let home_addr: SocketAddr = home.parse().expect("backend addr");
    let reg_body = format!(
        "{{\"schema\": {}, \"target\": {}}}",
        json_escape(&schema_ddl),
        json_escape(&parity_case.target.to_string())
    );
    let (status, resp) = request_ok(home_addr, "POST", "/targets", &reg_body);
    assert_eq!(status, 201, "direct register {base_id}: {resp}");
    let local_id = json_str_field(&resp, "id").expect("local id");
    let advise_body = format!("{{\"sql\": {}}}", json_escape(&parity_case.working.to_string()));
    let direct = request_ok(home_addr, "POST", &format!("/targets/{local_id}/advise"), &advise_body);
    let routed = request_ok(router_addr, "POST", &format!("/targets/{gid}/advise"), &advise_body);
    let parity_ok = direct == routed;

    // ---- Shared op lists, derived from the corpus prefix.
    let advise_op = |case_idx: usize| -> Op {
        let case = &cases[case_idx % cases.len()];
        Op {
            method: "POST",
            path: format!("/targets/{}/advise", gid_for(&case.base_id)),
            body: format!("{{\"sql\": {}}}", json_escape(&case.working.to_string())),
        }
    };
    let advise_ops: Vec<Op> = (0..128).map(advise_op).collect();

    // ---- Phase 2: unloaded baseline (1 client, advise only).
    let (tally, wall_s) = blast(router_addr, &advise_ops, 1, 64);
    assert_eq!(tally.errors, 0, "unloaded phase saw transport errors");
    let unloaded = row("unloaded", 1, 64, &tally, wall_s);
    let unloaded_p99_ms = unloaded.p99_ms;

    // ---- Phase 3: steady mixed load. Every 10th op a 2-submission
    // grade batch, every 25th a fresh registration, advise otherwise.
    let steady_ops: Vec<Op> = (0..100)
        .map(|i| {
            if i % 25 == 24 {
                let (_, target) = &fuzzer.bases()[i % fuzzer.bases().len()];
                Op {
                    method: "POST",
                    path: "/targets".into(),
                    body: format!(
                        "{{\"schema\": {}, \"target\": {}}}",
                        json_escape(&schema_ddl),
                        json_escape(&target.to_string())
                    ),
                }
            } else if i % 10 == 9 {
                let a = &cases[i % cases.len()];
                let b = &cases[(i + 1) % cases.len()];
                Op {
                    method: "POST",
                    path: format!("/targets/{}/grade", gid_for(&a.base_id)),
                    body: format!(
                        "{{\"submissions\": [{}, {}]}}",
                        json_escape(&a.working.to_string()),
                        json_escape(&b.working.to_string())
                    ),
                }
            } else {
                advise_op(i)
            }
        })
        .collect();
    let (tally, wall_s) =
        blast(router_addr, &steady_ops, cfg.steady_clients, cfg.steady_requests_per_client);
    let steady = row("steady", cfg.steady_clients, cfg.steady_requests_per_client, &tally, wall_s);

    // ---- Phase 4: overload. Advise-only blast from enough clients to
    // exceed workers + queue (offered ≥ 2× capacity by construction).
    let capacity = cfg.router_workers + cfg.router_max_pending;
    assert!(
        cfg.overload_clients >= 2 * capacity,
        "overload clients ({}) must offer ≥ 2× router capacity ({capacity})",
        cfg.overload_clients
    );
    let (tally, wall_s) =
        blast(router_addr, &advise_ops, cfg.overload_clients, cfg.overload_requests_per_client);
    let overload =
        row("overload", cfg.overload_clients, cfg.overload_requests_per_client, &tally, wall_s);
    let overload_p99_ms = overload.p99_ms;
    let overload_shed = overload.shed;
    let shed_accounted_ok =
        overload.ok + overload.shed + overload.errors == overload.requests && overload.errors == 0;

    // ---- Phase 5a: ingest — stream the fuzz corpus through advise.
    let ingest_clients = 2;
    let per_client = cfg.ingest_pairs.div_ceil(ingest_clients);
    let ingest_ops: Vec<Op> = (0..cfg.ingest_pairs).map(advise_op).collect();
    let (tally, wall_s) = blast(router_addr, &ingest_ops, ingest_clients, per_client);
    let ingest = row("ingest", ingest_clients, per_client, &tally, wall_s);
    let mut registry_shed_total = 0;
    let mut registry_evicted_total = 0;
    for addr in backend_addrs {
        let (status, health) = request_ok(addr, "GET", "/healthz", "");
        assert_eq!(status, 200);
        registry_shed_total += json_u64_field(&health, "shed_total").unwrap_or(0);
        registry_evicted_total += json_u64_field(&health, "evicted_total").unwrap_or(0);
    }

    // ---- Phase 5b: failover. Kill the backend homing the first base
    // gid if possible, else the other one; measure until the router
    // answers for a target that lived there.
    let victim_addr = backend_addrs[1];
    let moved_gid = gid_of_base
        .iter()
        .find(|(_, _, home)| home == &victim_addr.to_string())
        .map(|(_, gid, _)| gid.clone());
    let (status, _) = request_ok(victim_addr, "POST", "/shutdown", "");
    assert_eq!(status, 200, "backend shutdown");
    let killed_at = Instant::now();
    let probe_gid = moved_gid.unwrap_or_else(|| gid_of_base[0].1.clone());
    let probe_path = format!("/targets/{probe_gid}/advise");
    let probe_body = &advise_ops[0].body;
    let deadline = killed_at + Duration::from_secs(15);
    let mut failover_recovered = false;
    while Instant::now() < deadline {
        let answered = Client::connect(router_addr)
            .and_then(|mut c| c.request("POST", &probe_path, probe_body))
            .map(|(status, _)| status == 200 || status == 422)
            .unwrap_or(false);
        if answered {
            let (_, health) = request_ok(router_addr, "GET", "/healthz", "");
            if json_u64_field(&health, "healthy_backends") == Some(1) {
                failover_recovered = true;
                break;
            }
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let failover_recovery_ms = killed_at.elapsed().as_secs_f64() * 1e3;
    b1_thread.join().expect("backend 1 thread").expect("backend 1 run");

    // ---- Pool statistics before teardown.
    let (_, metrics) = request_ok(router_addr, "GET", "/metrics", "");
    let pool_hits = prom_counter(&metrics, "qrhint_router_pool_hits_total");
    let pool_checkouts = prom_counter(&metrics, "qrhint_router_pool_checkouts_total").max(1);
    let pool_hit_rate = pool_hits as f64 / pool_checkouts as f64;

    // ---- Teardown: drain router, then the surviving backend.
    let (status, _) = request_ok(router_addr, "POST", "/shutdown", "");
    assert_eq!(status, 200);
    router_thread.join().expect("router thread").expect("router run");
    let (status, _) = request_ok(backend_addrs[0], "POST", "/shutdown", "");
    assert_eq!(status, 200);
    b0_thread.join().expect("backend 0 thread").expect("backend 0 run");

    let overload_threshold = 10.0;
    let overload_ratio =
        if unloaded_p99_ms > 0.0 { overload_p99_ms / unloaded_p99_ms } else { f64::INFINITY };
    let gate_waived_low_cores = cores < 4;
    let overload_ok = overload_ratio <= overload_threshold;
    let health_interval_ms = cfg.health_interval.as_millis() as u64;
    // Detection can take a full probe cycle; re-registering the moved
    // targets on the survivor costs target compilation on top.
    let failover_budget_ms = (4 * health_interval_ms + 1_000) as f64;
    let failover_ok = failover_recovered && failover_recovery_ms <= failover_budget_ms;
    let gate_ok = parity_ok
        && shed_accounted_ok
        && overload_shed > 0
        && failover_recovered
        && (overload_ok || gate_waived_low_cores)
        && (failover_ok || gate_waived_low_cores);
    SoakReport {
        cores,
        backends: backend_addrs.len(),
        targets,
        rows: vec![unloaded, steady, overload, ingest],
        parity_ok,
        unloaded_p99_ms,
        overload_p99_ms,
        overload_ratio,
        overload_threshold,
        overload_ok,
        overload_shed,
        shed_accounted_ok,
        failover_recovered,
        failover_recovery_ms,
        failover_budget_ms,
        failover_ok,
        health_interval_ms,
        registry_shed_total,
        registry_evicted_total,
        pool_hit_rate,
        gate_waived_low_cores,
        gate_ok,
    }
}

/// Sum a counter's samples (across label sets) out of a Prometheus
/// text exposition.
fn prom_counter(exposition: &str, name: &str) -> u64 {
    exposition
        .lines()
        .filter(|l| l.starts_with(name) && !l.starts_with('#'))
        .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
        .sum::<f64>() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prom_counter_sums_label_sets() {
        let text = "# TYPE x counter\nx_total{a=\"1\"} 3\nx_total{a=\"2\"} 4\ny_total 9\n";
        assert_eq!(prom_counter(text, "x_total"), 7);
        assert_eq!(prom_counter(text, "y_total"), 9);
        assert_eq!(prom_counter(text, "z_total"), 0);
    }

    #[test]
    fn json_field_extraction() {
        let body = "{\"id\":\"t3\",\"backend\":\"127.0.0.1:9\",\"healthy_backends\":2}";
        assert_eq!(json_str_field(body, "id").as_deref(), Some("t3"));
        assert_eq!(json_str_field(body, "backend").as_deref(), Some("127.0.0.1:9"));
        assert_eq!(json_u64_field(body, "healthy_backends"), Some(2));
        assert_eq!(json_u64_field(body, "missing"), None);
    }

    /// A miniature end-to-end soak: tiny sizes, but the full topology —
    /// parity, shedding accounting, failover. The real numbers come
    /// from `exp_soak`.
    #[test]
    fn smoke_soak_runs_the_full_topology() {
        let report = run(&SoakConfig {
            steady_clients: 2,
            steady_requests_per_client: 15,
            overload_clients: 12,
            overload_requests_per_client: 15,
            ingest_pairs: 60,
            health_interval: Duration::from_millis(100),
            ..SoakConfig::default()
        });
        assert!(report.parity_ok, "routed advice must match direct advice");
        assert!(report.shed_accounted_ok);
        assert!(report.failover_recovered, "router never re-sharded after backend kill");
        assert_eq!(report.rows.len(), 4);
        assert!(report.rows.iter().all(|r| r.requests > 0));
    }
}
