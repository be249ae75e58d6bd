//! The serving stack under classroom traffic: `qr-hint route` in front
//! of two `qr-hint serve` backends, driven over HTTP from this process.
//! It runs in `classroom`'s traced run and fills the `server.*`,
//! `router.*` and `loadgen.*` layer metrics.
//!
//! Set-up starts the three daemons and registers every course target
//! through the router. An open loop sends the seeded plan at
//! [`OPEN_RATE`] from at most `nproc` (and at most two) connections,
//! timing each request from its scheduled send time. Then each warm
//! advise goes routed and direct to its owning backend, so router and
//! HTTP time fall out as differences of round trips. Every response is
//! checked against the library's answer for the same SQL, computed
//! in-process before the timed phases.
//!
//! This is not an end-to-end workload of its own: on a shared 2-vCPU
//! host its open-loop p90 spread 0.45–1.6 ms across runs of one seed, and
//! its closed-loop rate 3,300–8,300 req/s, so no bound could hold.

use crate::check;
use crate::corpus::Corpus;
use crate::http::Conn;
use crate::procs::Daemon;
use crate::report::Outcome;
use crate::schedule::{self, Inputs, Planned, Req, OPEN_RATE};
use crate::stats::Latencies;
use qr_hint::core::QrHint;
use qr_hint::parse::parse_schema;
use serde_json::Value;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// New registrations one run may add (course targets: 44), keeping
/// every backend below its 64-target capacity.
const MAX_REGISTRATIONS: usize = 16;
/// Connections (and generator threads) at most.
const MAX_CONNS: usize = 2;

/// The three daemons.
struct Topology {
    backends: Vec<Daemon>,
    router: Daemon,
    /// Router id of each registered target, by base index.
    ids: Vec<String>,
    /// Backend each target was placed on, by base index.
    homes: Vec<SocketAddr>,
}

impl Topology {
    fn start(exe: &Path, corpus: &Corpus) -> Result<Topology, String> {
        let spawn =
            |args: &[&str]| Daemon::spawn(exe, args).map_err(|e| format!("start daemon: {e}"));
        let backends = vec![
            spawn(&["serve", "--addr", "127.0.0.1:0"])?,
            spawn(&["serve", "--addr", "127.0.0.1:0"])?,
        ];
        let (a, b) = (backends[0].addr.to_string(), backends[1].addr.to_string());
        let router = spawn(&[
            "route",
            "--addr",
            "127.0.0.1:0",
            "--backend",
            &a,
            "--backend",
            &b,
        ])?;
        let mut topo = Topology {
            backends,
            router,
            ids: Vec::new(),
            homes: Vec::new(),
        };
        let mut conn = Conn::new(topo.router.addr);
        for base in &corpus.bases {
            let body = register_body(corpus, base.schema, &base.sql);
            let (status, resp) = conn
                .request("POST", "/targets", &body)
                .map_err(|e| format!("register: {e}"))?;
            let doc = parse(&resp);
            let id = field(&doc, "id").and_then(|v| string(&v));
            let home = field(&doc, "backend")
                .and_then(|v| string(&v))
                .and_then(|a| a.parse().ok());
            match (status, id, home) {
                (201, Some(id), Some(home)) => {
                    topo.ids.push(id);
                    topo.homes.push(home);
                }
                _ => return Err(format!("register {}: {status} {resp}", base.id)),
            }
        }
        Ok(topo)
    }

    /// Drain the router, then the backends, and reap all three.
    fn shutdown(self) -> bool {
        let mut clean = true;
        for daemon in [self.router].into_iter().chain(self.backends) {
            let asked = Conn::new(daemon.addr)
                .request("POST", "/shutdown", "")
                .is_ok();
            clean &= daemon.wait(Duration::from_secs(5)) && asked;
        }
        clean
    }
}

fn parse(body: &str) -> Value {
    serde_json::from_str(body).unwrap_or(Value::Null)
}

fn field(v: &Value, key: &str) -> Option<Value> {
    match v {
        Value::Map(m) => m.iter().find(|(k, _)| k == key).map(|(_, v)| v.clone()),
        _ => None,
    }
}

fn string(v: &Value) -> Option<String> {
    match v {
        Value::Str(s) => Some(s.clone()),
        _ => None,
    }
}

fn json_str(s: &str) -> String {
    serde_json::to_string(&s.to_string()).expect("string serializes")
}

fn register_body(corpus: &Corpus, schema: usize, target: &str) -> String {
    format!(
        "{{\"schema\": {}, \"target\": {}}}",
        json_str(&corpus.schemas[schema].ddl),
        json_str(target)
    )
}

/// One advise submission and its expected answer.
struct Key {
    base: usize,
    sql: String,
    status: u16,
    body: String,
}

/// Submissions in fresh order: each sampled session's working query,
/// then every intermediate query of its tutoring trail. Expected
/// answers come from in-process targets.
fn keys(corpus: &Corpus) -> Vec<Key> {
    let mut keys = Vec::new();
    let targets: Vec<_> = corpus
        .bases
        .iter()
        .map(|b| {
            let schema = parse_schema(&corpus.schemas[b.schema].ddl).expect("fuzz schema parses");
            QrHint::new(schema)
                .compile_target(&b.sql)
                .expect("fuzz target compiles")
        })
        .collect();
    for s in &corpus.sessions {
        let prepared = &targets[s.base];
        let mut trail = vec![s.sql.clone()];
        if let Ok(q) = prepared.prepare(&s.sql) {
            let mut session = prepared.tutor(q);
            for _ in 0..prepared.config().max_stage_applications {
                if session.step().is_err() || session.is_done() {
                    break;
                }
                trail.push(session.working().to_string());
            }
        }
        for sql in trail {
            let (status, body) = check::expected_advise(prepared, &sql);
            keys.push(Key {
                base: s.base,
                sql,
                status,
                body,
            });
        }
    }
    keys
}

/// A request rendered for the wire.
struct Wire {
    path: String,
    body: String,
}

fn render(req: &Req, keys: &[Key], corpus: &Corpus, ids: &[String]) -> Wire {
    match req {
        Req::Advise(k) => Wire {
            path: format!("/targets/{}/advise", ids[keys[*k].base]),
            body: format!("{{\"sql\": {}}}", json_str(&keys[*k].sql)),
        },
        Req::Grade(ks) => {
            let subs: Vec<String> = ks.iter().map(|k| json_str(&keys[*k].sql)).collect();
            Wire {
                path: format!("/targets/{}/grade", ids[keys[ks[0]].base]),
                body: format!("{{\"submissions\": [{}]}}", subs.join(", ")),
            }
        }
        Req::Register(b) => Wire {
            path: "/targets".into(),
            body: register_body(corpus, corpus.bases[*b].schema, &corpus.bases[*b].sql),
        },
    }
}

/// One sent request.
struct Record {
    plan: usize,
    /// Send time minus scheduled time.
    late: Duration,
    /// Completion minus scheduled time.
    latency: Duration,
    response: Result<(u16, String), String>,
}

/// Send `wires` from `conns` threads against `addr`, each request at
/// its scheduled time.
fn open_loop(addr: SocketAddr, plan: &[Planned], wires: &[Wire], conns: usize) -> Vec<Record> {
    let next = AtomicUsize::new(0);
    let mut warm: Vec<Conn> = (0..conns).map(|_| Conn::new(addr)).collect();
    for conn in &mut warm {
        let _ = conn.request("GET", "/healthz", "");
    }
    let start = Instant::now();
    let mut records: Vec<Record> = std::thread::scope(|scope| {
        let handles: Vec<_> = warm
            .into_iter()
            .map(|mut conn| {
                let next = &next;
                scope.spawn(move || {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(planned) = plan.get(i) else {
                            return mine;
                        };
                        let due = start + Duration::from_micros(planned.at_us);
                        if let Some(wait) = due.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        let sent = Instant::now();
                        let response = conn
                            .request("POST", &wires[i].path, &wires[i].body)
                            .map_err(|e| e.to_string());
                        mine.push(Record {
                            plan: i,
                            late: sent.saturating_duration_since(due),
                            latency: due.elapsed(),
                            response,
                        });
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("generator thread"))
            .collect()
    });
    records.sort_by_key(|r| r.plan);
    records
}

/// Check every response; count failures (transport errors, 5xx, 404,
/// 429) into `out.failed`.
fn check_records(records: &[Record], plan: &[Planned], keys: &[Key], out: &mut Outcome) {
    for r in records {
        out.attempted += 1;
        let Ok((status, body)) = &r.response else {
            out.failed += 1;
            continue;
        };
        if *status >= 500 || *status == 404 || *status == 429 {
            out.failed += 1;
            continue;
        }
        match &plan[r.plan].req {
            Req::Advise(k) => {
                let key = &keys[*k];
                if *status != key.status {
                    out.problem(format!(
                        "advise {:?}: status {status}, expected {}",
                        key.sql, key.status
                    ));
                } else if *status == 200 {
                    if let Err(e) = check::same_bytes(&key.body, body) {
                        out.problem(format!("advise {:?}: {e}", key.sql));
                    }
                }
            }
            Req::Grade(ks) => check_grade(ks, keys, *status, body, out),
            Req::Register(_) => {
                if *status != 201 || field(&parse(body), "id").is_none() {
                    out.problem(format!("register answered {status}: {body}"));
                }
            }
        }
    }
}

/// A grade batch must carry, per submission, the report the advise
/// route gives for it.
fn check_grade(ks: &[usize], keys: &[Key], status: u16, body: &str, out: &mut Outcome) {
    let entries = match field(&parse(body), "entries") {
        Some(Value::Seq(entries)) if status == 200 && entries.len() == ks.len() => entries,
        _ => return out.problem(format!("grade answered {status}: {body}")),
    };
    for (entry, k) in entries.iter().zip(ks) {
        let key = &keys[*k];
        let ok = matches!(field(entry, "ok"), Some(Value::Bool(true)));
        let good = if key.status == 200 {
            ok && field(entry, "report") == Some(parse(&key.body))
        } else {
            !ok
        };
        if !good {
            out.problem(format!(
                "grade entry for {:?} differs from its advise",
                key.sql
            ));
        }
    }
}

/// Label-filtered sum over a Prometheus text exposition.
fn scrape(text: &str, name: &str, keep: impl Fn(&str) -> bool) -> f64 {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (series, value) = l.rsplit_once(' ')?;
            let (metric, labels) = series.split_once('{').unwrap_or((series, ""));
            (metric == name && keep(labels))
                .then(|| value.parse::<f64>().ok())
                .flatten()
        })
        .sum()
}

fn metrics(addr: SocketAddr) -> String {
    Conn::new(addr)
        .request("GET", "/metrics", "")
        .map(|(_, body)| body)
        .unwrap_or_default()
}

/// Drive the serving stack for `seconds` (a third open loop, the rest
/// round-trip differences) and set the serving layer metrics.
pub fn measure_layers(
    exe: &Path,
    corpus: &Corpus,
    seed: u64,
    seconds: f64,
    out: &mut Outcome,
) -> Result<(), String> {
    let keys = keys(corpus);
    let topo = Topology::start(exe, corpus)?;
    let result = drive(&topo, corpus, &keys, seed, seconds, out);
    if !topo.shutdown() {
        out.problem("a daemon did not drain cleanly on POST /shutdown");
    }
    result
}

fn drive(
    topo: &Topology,
    corpus: &Corpus,
    keys: &[Key],
    seed: u64,
    seconds: f64,
    out: &mut Outcome,
) -> Result<(), String> {
    let conns = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(MAX_CONNS);
    let target_of: Vec<usize> = keys.iter().map(|k| k.base).collect();
    let inputs = Inputs {
        target_of: &target_of,
        targets: corpus.bases.len(),
        registrations: MAX_REGISTRATIONS,
    };
    let open_s = seconds / 3.0;
    let plan = schedule::plan(seed, (open_s * OPEN_RATE) as usize, OPEN_RATE, &inputs);
    let wires: Vec<Wire> = plan
        .iter()
        .map(|p| render(&p.req, keys, corpus, &topo.ids))
        .collect();
    let records = open_loop(topo.router.addr, &plan, &wires, conns);
    check_records(&records, &plan, keys, out);
    let (mut lat, mut late) = (Latencies::default(), Latencies::default());
    for r in &records {
        lat.push(r.latency.as_secs_f64() * 1e3);
        late.push(r.late.as_secs_f64() * 1e3);
    }
    out.set("loadgen.late_p99_ms", late.at(0.99));
    out.note(format!(
        "serving open loop: {} requests at {OPEN_RATE} req/s from {conns} connection(s): p50 {:.4} ms, p90 {:.4} ms, p99 {:.4} ms; generator late p99 {:.3} ms; {} failed",
        records.len(),
        lat.at(0.5),
        lat.at(0.9),
        lat.at(0.99),
        late.at(0.99),
        out.failed
    ));
    round_trips(topo, keys, seconds - open_s, out)?;

    let backend_text: Vec<String> = topo.backends.iter().map(|b| metrics(b.addr)).collect();
    let total = |name: &str, keep: &dyn Fn(&str) -> bool| -> f64 {
        backend_text.iter().map(|t| scrape(t, name, keep)).sum()
    };
    for (class, metric) in [
        ('2', "server.status.2xx"),
        ('4', "server.status.4xx"),
        ('5', "server.status.5xx"),
    ] {
        let pattern = format!("status=\"{class}");
        out.set(
            metric,
            total("qrhint_http_requests_total", &|l: &str| {
                l.contains(&pattern)
            }),
        );
    }
    out.set(
        "server.shed",
        total("qrhint_http_shed_total", &|_: &str| true),
    );
    out.set(
        "server.registry.evictions",
        total("qrhint_registry_dropped_total", &|_: &str| true),
    );
    let router = metrics(topo.router.addr);
    let all = |_: &str| true;
    let checkouts = scrape(&router, "qrhint_router_pool_checkouts_total", all);
    out.set(
        "router.pool.hit_ratio",
        scrape(&router, "qrhint_router_pool_hits_total", all) / checkouts.max(1.0),
    );
    out.set(
        "router.pool.retries",
        scrape(&router, "qrhint_router_pool_retries_total", all),
    );
    out.set(
        "router.shed",
        scrape(&router, "qrhint_router_shed_total", all),
    );
    Ok(())
}

/// Each advise (all warm by now) goes routed, then direct to its owning
/// backend; the backends' own histogram gives handler time. Router and
/// HTTP time are the differences.
fn round_trips(
    topo: &Topology,
    keys: &[Key],
    seconds: f64,
    out: &mut Outcome,
) -> Result<(), String> {
    let mut routed = Conn::new(topo.router.addr);
    let mut locals = Vec::new();
    for id in &topo.ids {
        let (_, body) = routed
            .request("GET", &format!("/targets/{id}/stats"), "")
            .map_err(|e| format!("stats: {e}"))?;
        let local = field(&parse(&body), "id").and_then(|v| string(&v));
        locals.push(local.ok_or(format!("no backend id for target {id}: {body}"))?);
    }
    let before: Vec<String> = topo.backends.iter().map(|b| metrics(b.addr)).collect();
    let mut direct: Vec<Conn> = topo.backends.iter().map(|b| Conn::new(b.addr)).collect();
    let (mut routed_us, mut direct_us) = (0u64, 0u64);
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut n = 0usize;
    while start.elapsed() < budget {
        let key = &keys[n % keys.len()];
        n += 1;
        let body = format!("{{\"sql\": {}}}", json_str(&key.sql));
        let t = Instant::now();
        let r = routed.request(
            "POST",
            &format!("/targets/{}/advise", topo.ids[key.base]),
            &body,
        );
        routed_us += t.elapsed().as_micros() as u64;
        let home = topo.homes[key.base];
        let conn = &mut direct[topo
            .backends
            .iter()
            .position(|b| b.addr == home)
            .expect("home is a backend")];
        let t = Instant::now();
        let d = conn.request(
            "POST",
            &format!("/targets/{}/advise", locals[key.base]),
            &body,
        );
        direct_us += t.elapsed().as_micros() as u64;
        for resp in [r, d] {
            match resp {
                Ok((s, b)) if s == key.status && (s != 200 || b == key.body) => {}
                other => out.problem(format!(
                    "round-trip advise {:?}: {:?}",
                    key.sql,
                    other.map(|x| x.0)
                )),
            }
        }
    }
    let after: Vec<String> = topo.backends.iter().map(|b| metrics(b.addr)).collect();
    let advise = |l: &str| l.contains("route=\"advise\"");
    let delta = |name: &str| -> f64 {
        before
            .iter()
            .zip(&after)
            .map(|(b, a)| scrape(a, name, advise) - scrape(b, name, advise))
            .sum()
    };
    let handled = delta("qrhint_http_request_duration_seconds_count");
    let handler_ms = delta("qrhint_http_request_duration_seconds_sum") * 1e3 / handled.max(1.0);
    let ops = n.max(1) as f64;
    let (routed_ms, direct_ms) = (routed_us as f64 / ops / 1e3, direct_us as f64 / ops / 1e3);
    out.set("server.handler_ms", handler_ms);
    out.set("server.http_ms", (direct_ms - handler_ms).max(0.0));
    out.set("router.forward_ms", (routed_ms - direct_ms).max(0.0));
    out.note(format!(
        "serving round trips: {n} warm advises, routed {routed_ms:.4} ms, direct {direct_ms:.4} ms, backend handler {handler_ms:.4} ms"
    ));
    Ok(())
}
