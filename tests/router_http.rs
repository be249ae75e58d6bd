//! End-to-end coverage of the `qr-hint route` scale-out layer over real
//! `TcpStream`s: consistent-hash placement stability, advice-JSON byte
//! parity between routed and direct-to-backend responses, failover
//! re-sharding when a backend dies mid-serve, and the bounded-queue
//! `429` shedding contract under a saturated router.

use qr_hint::server::{
    Client, RegistryConfig, Ring, Router, RouterConfig, Server, ServerConfig, ServiceConfig,
};
use serde::Value;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

const SCHEMA: &str = "CREATE TABLE Serves (\
    bar VARCHAR(20), beer VARCHAR(20), price INT, PRIMARY KEY (bar, beer));";

/// Distinct targets so placement has something to spread.
const TARGETS: &[&str] = &[
    "SELECT s.bar FROM Serves s WHERE s.price >= 3",
    "SELECT s.beer FROM Serves s WHERE s.price < 5",
    "SELECT s.bar, s.beer FROM Serves s WHERE s.price = 4",
    "SELECT DISTINCT s.bar FROM Serves s",
    "SELECT s.bar FROM Serves s WHERE s.price >= 3 AND s.beer = 'ipa'",
    "SELECT s.beer FROM Serves s WHERE s.bar = 'alehouse'",
    "SELECT s.bar FROM Serves s WHERE s.price > 1 AND s.price < 9",
    "SELECT s.beer, s.price FROM Serves s WHERE s.price <> 2",
];

const SUBMISSION: &str = "SELECT s.bar FROM Serves s WHERE s.price > 2";

fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    qr_hint::server::client::request_once(addr, method, path, body).expect("request")
}

fn json_get<'v>(v: &'v Value, key: &str) -> &'v Value {
    match v {
        Value::Map(m) => m
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("no key `{key}` in {v:?}")),
        other => panic!("expected map for `{key}`, got {other:?}"),
    }
}

fn json_str(v: &Value) -> &str {
    match v {
        Value::Str(s) => s.as_str(),
        other => panic!("expected string, got {other:?}"),
    }
}

fn json_int(v: &Value) -> i64 {
    match v {
        Value::Int(i) => *i,
        other => panic!("expected integer, got {other:?}"),
    }
}

fn parse_json(body: &str) -> Value {
    serde_json::from_str::<Value>(body).unwrap_or_else(|e| panic!("bad JSON ({e}): {body}"))
}

// ---------------------------------------------------------------------------
// Harness: two in-process backends joined by a router
// ---------------------------------------------------------------------------

struct Topology {
    router_addr: SocketAddr,
    backend_addrs: Vec<SocketAddr>,
    router_thread: Option<std::thread::JoinHandle<std::io::Result<()>>>,
    backend_threads: Vec<std::thread::JoinHandle<std::io::Result<()>>>,
}

impl Topology {
    fn start(backends: usize, health_interval: Duration) -> Topology {
        let mut backend_addrs = Vec::new();
        let mut backend_threads = Vec::new();
        for _ in 0..backends {
            let server = Server::bind(ServerConfig {
                addr: "127.0.0.1:0".into(),
                workers: 2,
                service: ServiceConfig { jobs: 1, registry: RegistryConfig::default() },
                ..ServerConfig::default()
            })
            .expect("bind backend");
            backend_addrs.push(server.addr());
            backend_threads.push(std::thread::spawn(move || server.run()));
        }
        let router = Router::start(RouterConfig {
            addr: "127.0.0.1:0".into(),
            backends: backend_addrs.clone(),
            health_interval,
            workers: 2,
            ..RouterConfig::default()
        })
        .expect("start router");
        let router_addr = router.addr();
        let router_thread = Some(std::thread::spawn(move || router.run()));
        Topology { router_addr, backend_addrs, router_thread, backend_threads }
    }

    /// Register through the router; returns (gid, home backend addr).
    fn register(&self, target: &str) -> (String, String) {
        let body = format!(
            "{{\"schema\": {}, \"target\": {}}}",
            serde_json::to_string(SCHEMA).unwrap(),
            serde_json::to_string(target).unwrap()
        );
        let (status, body) = request(self.router_addr, "POST", "/targets", &body);
        assert_eq!(status, 201, "register through router failed: {body}");
        let v = parse_json(&body);
        (json_str(json_get(&v, "id")).to_string(), json_str(json_get(&v, "backend")).to_string())
    }

    /// Drain the router, then every still-listening backend.
    fn shutdown(mut self) {
        let (status, body) = request(self.router_addr, "POST", "/shutdown", "");
        assert_eq!(status, 200, "{body}");
        self.router_thread
            .take()
            .unwrap()
            .join()
            .expect("router thread panicked")
            .expect("router run() errored");
        for &addr in &self.backend_addrs {
            if let Ok(mut client) = Client::connect(addr) {
                let _ = client.request("POST", "/shutdown", "");
            }
        }
        for handle in self.backend_threads.drain(..) {
            handle.join().expect("backend thread panicked").expect("backend run() errored");
        }
    }
}

// ---------------------------------------------------------------------------
// Consistent-hash placement
// ---------------------------------------------------------------------------

/// The ring is a pure function of its labels: the same labels
/// place every id identically across rebuilds, and removing one
/// backend moves only the ids it owned — the property routed failover
/// relies on.
#[test]
fn ring_placement_is_deterministic_and_only_moves_dead_shares() {
    let labels: Vec<String> =
        ["10.0.0.1:7878", "10.0.0.2:7878", "10.0.0.3:7878"].map(String::from).to_vec();
    let ring_a = Ring::new(&labels);
    let ring_b = Ring::new(&labels);
    let ids: Vec<String> = (0..200).map(|i| format!("t{i}")).collect();
    let all_up = |_: usize| true;
    let before: Vec<usize> =
        ids.iter().map(|id| ring_a.place(id, all_up).expect("placed")).collect();
    let rebuilt: Vec<usize> =
        ids.iter().map(|id| ring_b.place(id, all_up).expect("placed")).collect();
    assert_eq!(before, rebuilt, "identical rings must place identically");

    // Kill backend 1: its ids move, everyone else's stay put.
    let survives = |idx: usize| idx != 1;
    for (id, &home) in ids.iter().zip(&before) {
        let after = ring_a.place(id, survives).expect("still placeable");
        if home == 1 {
            assert_ne!(after, 1, "{id} still placed on the dead backend");
        } else {
            assert_eq!(after, home, "{id} moved although its backend survived");
        }
    }
}

#[test]
fn router_reports_stable_placement_across_scrapes() {
    let topo = Topology::start(2, Duration::from_millis(200));
    let mut homes = Vec::new();
    for target in TARGETS {
        let (_, home) = topo.register(target);
        homes.push(home);
    }

    let scrape = || {
        let (status, body) = request(topo.router_addr, "GET", "/healthz", "");
        assert_eq!(status, 200);
        let v = parse_json(&body);
        assert_eq!(json_int(json_get(&v, "healthy_backends")), 2, "{body}");
        assert_eq!(json_int(json_get(&v, "targets")), TARGETS.len() as i64, "{body}");
        match json_get(&v, "backends") {
            Value::Seq(backends) => backends
                .iter()
                .map(|b| {
                    (
                        json_str(json_get(b, "addr")).to_string(),
                        json_int(json_get(b, "targets")),
                    )
                })
                .collect::<Vec<_>>(),
            other => panic!("expected backend list, got {other:?}"),
        }
    };
    let first = scrape();
    let second = scrape();
    assert_eq!(first, second, "placement changed with no topology change");
    let per_backend: Vec<i64> = first.iter().map(|(_, t)| *t).collect();
    assert_eq!(per_backend.iter().sum::<i64>(), TARGETS.len() as i64);
    // The register responses and the health report must tell one story.
    for (addr, count) in &first {
        let owned = homes.iter().filter(|h| *h == addr).count() as i64;
        assert_eq!(owned, *count, "health report disagrees with register responses");
    }
    topo.shutdown();
}

// ---------------------------------------------------------------------------
// Byte parity routed vs direct
// ---------------------------------------------------------------------------

#[test]
fn routed_advice_is_byte_identical_to_direct_backend_advice() {
    let topo = Topology::start(2, Duration::from_millis(200));
    let (gid, home) = topo.register(TARGETS[0]);
    let home_addr: SocketAddr = home.parse().expect("backend addr");

    // Register the same target directly on the home backend.
    let reg_body = format!(
        "{{\"schema\": {}, \"target\": {}}}",
        serde_json::to_string(SCHEMA).unwrap(),
        serde_json::to_string(TARGETS[0]).unwrap()
    );
    let (status, body) = request(home_addr, "POST", "/targets", &reg_body);
    assert_eq!(status, 201, "{body}");
    let local_id = json_str(json_get(&parse_json(&body), "id")).to_string();

    let advise_body = format!("{{\"sql\": {}}}", serde_json::to_string(SUBMISSION).unwrap());
    for _ in 0..3 {
        let direct =
            request(home_addr, "POST", &format!("/targets/{local_id}/advise"), &advise_body);
        let routed =
            request(topo.router_addr, "POST", &format!("/targets/{gid}/advise"), &advise_body);
        assert_eq!(direct.0, routed.0, "status diverged");
        assert_eq!(direct.1, routed.1, "routed advice is not byte-identical to direct");
    }

    // Unknown ids answer 404 through the router exactly like a backend.
    let (status, body) =
        request(topo.router_addr, "POST", "/targets/t999/advise", &advise_body);
    assert_eq!(status, 404, "{body}");
    topo.shutdown();
}

// ---------------------------------------------------------------------------
// Failover
// ---------------------------------------------------------------------------

#[test]
fn killing_a_backend_reshards_its_targets_onto_the_survivor() {
    let topo = Topology::start(2, Duration::from_millis(100));
    let mut placed = Vec::new();
    for target in TARGETS {
        placed.push(topo.register(target));
    }
    let victim = topo.backend_addrs[1];
    let moved: Vec<&String> = placed
        .iter()
        .filter(|(_, home)| home == &victim.to_string())
        .map(|(gid, _)| gid)
        .collect();
    assert!(!moved.is_empty(), "no target landed on the victim backend; placement is broken");

    // Kill the victim (drain directly — the router doesn't own it).
    let (status, _) = request(victim, "POST", "/shutdown", "");
    assert_eq!(status, 200);

    // Every moved target must answer through the router again, and the
    // health report must converge on one healthy backend owning all.
    let advise_body = format!("{{\"sql\": {}}}", serde_json::to_string(SUBMISSION).unwrap());
    let deadline = Instant::now() + Duration::from_secs(10);
    'gids: for gid in &moved {
        loop {
            let path = format!("/targets/{gid}/advise");
            if let Ok((status, _)) = qr_hint::server::client::request_once(
                topo.router_addr,
                "POST",
                &path,
                &advise_body,
            ) {
                if status == 200 || status == 422 {
                    continue 'gids;
                }
            }
            assert!(Instant::now() < deadline, "{gid} never recovered after backend kill");
            std::thread::sleep(Duration::from_millis(20));
        }
    }
    loop {
        let (status, body) = request(topo.router_addr, "GET", "/healthz", "");
        assert_eq!(status, 200);
        let v = parse_json(&body);
        if json_int(json_get(&v, "healthy_backends")) == 1 {
            assert_eq!(json_int(json_get(&v, "targets")), TARGETS.len() as i64, "{body}");
            break;
        }
        assert!(Instant::now() < deadline, "health never converged: {body}");
        std::thread::sleep(Duration::from_millis(20));
    }
    topo.shutdown();
}

// ---------------------------------------------------------------------------
// Overload shedding
// ---------------------------------------------------------------------------

/// A scripted fake backend: healthy on `/healthz`, answers registers,
/// and stalls on everything else for `stall` — pinning a router worker
/// so the test can saturate the bounded dispatch queue on purpose.
fn stalling_backend(stall: Duration) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake backend");
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { continue };
            std::thread::spawn(move || {
                let mut buf = [0u8; 4096];
                let n = stream.read(&mut buf).unwrap_or(0);
                let head = String::from_utf8_lossy(&buf[..n]).to_string();
                let respond = |stream: &mut TcpStream, status: &str, body: &str| {
                    let _ = write!(
                        stream,
                        "HTTP/1.1 {status}\r\nContent-Type: application/json\r\n\
                         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
                        body.len()
                    );
                };
                if head.starts_with("GET /healthz") {
                    respond(&mut stream, "200 OK", "{\"status\":\"ok\"}");
                } else if head.starts_with("POST /targets ") {
                    respond(&mut stream, "201 Created", "{\"id\":\"t1\"}");
                } else {
                    std::thread::sleep(stall);
                    respond(&mut stream, "200 OK", "{}");
                }
            });
        }
    });
    addr
}

/// With one router worker and a one-deep dispatch queue, a burst of
/// connections beyond capacity must be refused with the documented
/// shape: `429 Too Many Requests`, `Retry-After`, `Connection: close`,
/// and a JSON error body — written without reading the request.
#[test]
fn saturated_router_sheds_429_with_retry_after() {
    let backend = stalling_backend(Duration::from_millis(300));
    let router = Router::start(RouterConfig {
        addr: "127.0.0.1:0".into(),
        backends: vec![backend],
        health_interval: Duration::from_millis(500),
        workers: 1,
        max_pending: 1,
        ..RouterConfig::default()
    })
    .expect("start router");
    let router_addr = router.addr();
    let router_thread = std::thread::spawn(move || router.run());

    // Register through the router: the fake backend stalls on the
    // forwarded advise, pinning the single worker.
    let advise = "POST /targets/t1/advise HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\nContent-Length: 12\r\n\r\n{\"sql\": \"x\"}";
    let (status, body) = request(
        router_addr,
        "POST",
        "/targets",
        "{\"schema\": \"CREATE TABLE T (a INT);\", \"target\": \"SELECT t.a FROM T t\"}",
    );
    assert_eq!(status, 201, "{body}");

    // The shell clamps the pool to two workers; pin both with advises
    // stalled at the backend.
    let mut pinned = Vec::new();
    for i in 1..=2 {
        let mut conn = TcpStream::connect(router_addr).expect("pinned conn");
        conn.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        conn.write_all(advise.as_bytes()).unwrap_or_else(|e| panic!("pin {i}: {e}"));
        pinned.push(conn);
        std::thread::sleep(Duration::from_millis(100));
    }

    // Burst: far more readable connections than the one-deep dispatch
    // queue can hold. Whatever the interleaving, most must be shed.
    let mut burst = Vec::new();
    for i in 0..8 {
        let mut conn = TcpStream::connect(router_addr).expect("burst conn");
        conn.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        conn.write_all(advise.as_bytes()).unwrap_or_else(|e| panic!("burst {i}: {e}"));
        burst.push(conn);
    }
    let mut shed = 0;
    let mut accepted = 0;
    for mut conn in burst {
        // Responses go out in a single write; the first read has the
        // status line.
        let mut buf = [0u8; 1024];
        let n = conn.read(&mut buf).expect("burst response");
        let head = String::from_utf8_lossy(&buf[..n]).to_string();
        if head.starts_with("HTTP/1.1 429 Too Many Requests") {
            // Shed conns are closed by the server: read to EOF.
            let mut rest = String::new();
            let _ = conn.read_to_string(&mut rest);
            let full = head + &rest;
            assert!(full.contains("Retry-After: 1"), "no Retry-After: {full}");
            assert!(full.contains("Connection: close"), "no Connection: close: {full}");
            assert!(full.contains("\"kind\":\"overloaded\""), "no JSON error body: {full}");
            shed += 1;
        } else {
            assert!(head.starts_with("HTTP/1.1 200"), "unexpected response: {head}");
            accepted += 1;
        }
    }
    assert_eq!(shed + accepted, 8, "every request must be accounted ok or shed");
    assert!(shed >= 1, "the saturated queue never shed");

    // Let the pinned requests finish (first response byte is enough —
    // the conns are keep-alive), then release them.
    for conn in &mut pinned {
        let mut byte = [0u8; 1];
        let _ = conn.read(&mut byte);
    }
    drop(pinned);

    // The EOF events of the dropped conns can transiently refill the
    // one-deep queue, shedding the shutdown itself: honor Retry-After.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (status, body) = request(router_addr, "POST", "/shutdown", "");
        if status == 200 {
            break;
        }
        assert_eq!(status, 429, "{body}");
        assert!(Instant::now() < deadline, "shutdown kept being shed");
        std::thread::sleep(Duration::from_millis(100));
    }
    router_thread.join().expect("router thread").expect("router run");
}
