//! End-to-end coverage of the `qr-hint serve` daemon over real
//! `TcpStream`s: register → advise → batch-grade round trips, JSON
//! parity with the offline `grade --json` path, the 400/422/404/405
//! error contract (malformed input answers, never silently drops the
//! connection), LRU eviction, concurrent clients hammering one target,
//! and graceful shutdown — both in-process ([`Server`]) and through the
//! actual `qr-hint serve` binary.

use qr_hint::server::http::{Request, Response};
use qr_hint::server::{
    Client, HttpHandler, RegistryConfig, Server, ServerConfig, ServiceConfig, ShellConfig,
};
use serde::Value;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

const SCHEMA: &str = "CREATE TABLE Serves (\
    bar VARCHAR(20), beer VARCHAR(20), price INT, PRIMARY KEY (bar, beer));";
const TARGET: &str = "SELECT s.bar FROM Serves s WHERE s.price >= 3";

const SUBMISSIONS: &[&str] = &[
    "SELECT s.bar FROM Serves s WHERE s.price > 2",   // equivalent
    "SELECT s.bar FROM Serves s WHERE s.price > 3",   // WHERE hint
    "SELECT s.beer FROM Serves s WHERE s.price >= 3", // SELECT hint
    "SELEKT nonsense",                                // malformed
];

// ---------------------------------------------------------------------------
// Client + JSON helpers (the HTTP client itself is the daemon crate's
// own `qrhint_server::Client`, exercised here over real sockets)
// ---------------------------------------------------------------------------

/// One-shot request on a fresh connection.
fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    qr_hint::server::client::request_once(addr, method, path, body).expect("request")
}

/// One bodiless request on a fresh connection, giving up after
/// `within`: the status, or `None` if the server did not answer in time.
fn status_within(addr: SocketAddr, method: &str, path: &str, within: Duration) -> Option<u16> {
    let mut stream = TcpStream::connect_timeout(&addr, within).ok()?;
    stream.set_read_timeout(Some(within)).ok()?;
    let wire = format!("{method} {path} HTTP/1.1\r\nHost: qrhint\r\nContent-Length: 0\r\n\r\n");
    stream.write_all(wire.as_bytes()).ok()?;
    let mut status_line = String::new();
    BufReader::new(stream).read_line(&mut status_line).ok()?;
    status_line.split_whitespace().nth(1)?.parse().ok()
}

/// The address a `qr-hint serve` child announces on its first stdout
/// line.
fn announced_addr(stdout: &mut impl BufRead) -> SocketAddr {
    let mut first = String::new();
    stdout.read_line(&mut first).expect("read announce line");
    first
        .trim()
        .strip_prefix("qr-hint serving on http://")
        .unwrap_or_else(|| panic!("bad announce line: {first:?}"))
        .parse()
        .expect("parse announced address")
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

fn parse_json(body: &str) -> Value {
    serde_json::from_str::<Value>(body)
        .unwrap_or_else(|e| panic!("bad JSON ({e}): {body}"))
}

/// Canonical compact serialization: both the CLI's pretty JSON and the
/// server's compact JSON parse into the same `Value` tree, and this
/// writer is deterministic, so equal canonical strings ⇔ byte-identical
/// advice JSON.
fn canonical(v: &Value) -> String {
    serde_json::to_string(v).unwrap()
}

// ---------------------------------------------------------------------------
// Server harness
// ---------------------------------------------------------------------------

struct TestServer {
    addr: SocketAddr,
    handle: Option<std::thread::JoinHandle<std::io::Result<()>>>,
}

impl TestServer {
    fn start(max_targets: usize) -> TestServer {
        let server = Server::bind(ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            service: ServiceConfig {
                jobs: 2,
                registry: RegistryConfig { max_targets, ..RegistryConfig::default() },
            },
            ..ServerConfig::default()
        })
        .expect("bind test server");
        let addr = server.addr();
        let handle = std::thread::spawn(move || server.run());
        TestServer { addr, handle: Some(handle) }
    }

    fn register(&self, schema: &str, target: &str) -> String {
        self.register_with(schema, target, "")
    }

    /// Register with extra request fields (`extra` is spliced into the
    /// JSON object, e.g. `, "extended": true`).
    fn register_with(&self, schema: &str, target: &str, extra: &str) -> String {
        let body = format!(
            "{{\"schema\": {}, \"target\": {}{extra}}}",
            serde_json::to_string(schema).unwrap(),
            serde_json::to_string(target).unwrap()
        );
        let (status, body) = request(self.addr, "POST", "/targets", &body);
        assert_eq!(status, 201, "register failed: {body}");
        json_str(json_get(&parse_json(&body), "id")).to_string()
    }

    /// Drain and join; asserts a clean exit.
    fn shutdown(mut self) {
        let (status, body) = request(self.addr, "POST", "/shutdown", "");
        assert_eq!(status, 200, "{body}");
        self.handle
            .take()
            .unwrap()
            .join()
            .expect("server thread panicked")
            .expect("server run() errored");
    }
}

impl Drop for TestServer {
    fn drop(&mut self) {
        // Best-effort drain if a failing test returns early.
        if let Some(handle) = self.handle.take() {
            if let Ok(mut client) = Client::connect(self.addr) {
                let _ = client.request("POST", "/shutdown", "");
            }
            let _ = handle.join();
        }
    }
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

#[test]
fn register_advise_grade_stats_round_trip() {
    let server = TestServer::start(8);
    let id = server.register(SCHEMA, TARGET);

    // Advise: an equivalent submission.
    let (status, body) = request(
        server.addr,
        "POST",
        &format!("/targets/{id}/advise"),
        "{\"sql\": \"SELECT s.bar FROM Serves s WHERE s.price > 2\"}",
    );
    assert_eq!(status, 200, "{body}");
    let report = parse_json(&body);
    assert_eq!(json_get(&report, "equivalent"), &Value::Bool(true));

    // Advise: a WHERE mistake gets a WHERE-stage hint.
    let (status, body) = request(
        server.addr,
        "POST",
        &format!("/targets/{id}/advise"),
        "{\"sql\": \"SELECT s.bar FROM Serves s WHERE s.price > 3\"}",
    );
    assert_eq!(status, 200, "{body}");
    let report = parse_json(&body);
    assert_eq!(json_get(&report, "equivalent"), &Value::Bool(false));
    assert_eq!(json_str(json_get(&report, "stage")), "WHERE");

    // Batch grade: entries in order, per-submission errors in place.
    let grade_body = format!(
        "{{\"submissions\": {}, \"jobs\": 4}}",
        serde_json::to_string(&SUBMISSIONS.iter().map(|s| s.to_string()).collect::<Vec<_>>())
            .unwrap()
    );
    let (status, body) =
        request(server.addr, "POST", &format!("/targets/{id}/grade"), &grade_body);
    assert_eq!(status, 200, "{body}");
    let resp = parse_json(&body);
    let Value::Seq(entries) = json_get(&resp, "entries") else { panic!("entries not a list") };
    assert_eq!(entries.len(), SUBMISSIONS.len());
    assert_eq!(json_get(&entries[0], "ok"), &Value::Bool(true));
    assert_eq!(json_get(&entries[3], "ok"), &Value::Bool(false));
    assert!(json_str(json_get(&entries[3], "error")).contains("parse error"));

    // Stats reflect the traffic (2 advises + 4 batch entries).
    let (status, body) = request(server.addr, "GET", &format!("/targets/{id}/stats"), "");
    assert_eq!(status, 200, "{body}");
    let stats = json_get(&parse_json(&body), "stats").clone();
    assert_eq!(json_get(&stats, "advise_calls"), &Value::Int(5), "{body}");

    server.shutdown();
}

#[test]
fn advice_json_is_byte_identical_to_offline_grade_json() {
    // The same target and submissions through (a) the offline CLI
    // `grade --json --jobs 2` and (b) the HTTP daemon must produce
    // byte-identical advice JSON (canonical serialization of each
    // submission's report, including the structured Advice tree).
    use std::process::Command;

    let dir = std::env::temp_dir().join(format!("qrhint-server-parity-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(dir.join("subs")).unwrap();
    std::fs::write(dir.join("schema.sql"), SCHEMA).unwrap();
    std::fs::write(dir.join("target.sql"), TARGET).unwrap();
    for (i, sql) in SUBMISSIONS.iter().enumerate() {
        std::fs::write(dir.join("subs").join(format!("s{i}.sql")), sql).unwrap();
    }

    let out = Command::new(env!("CARGO_BIN_EXE_qr-hint"))
        .arg("grade")
        .args(["--schema", &dir.join("schema.sql").display().to_string()])
        .args(["--target", &dir.join("target.sql").display().to_string()])
        .args(["--submissions", &dir.join("subs").display().to_string()])
        .args(["--jobs", "2", "--json"])
        .output()
        .expect("run qr-hint grade");
    let cli_json = String::from_utf8(out.stdout).unwrap();
    // `grade --json` wraps the entries in a `{summary, entries}` object.
    let cli_output = parse_json(&cli_json);
    let Value::Seq(cli_entries) = json_get(&cli_output, "entries").clone() else {
        panic!("CLI output has no entries list")
    };
    assert_eq!(cli_entries.len(), SUBMISSIONS.len());

    let server = TestServer::start(8);
    let id = server.register(SCHEMA, TARGET);

    // (1) Single-submission advise parity.
    for (i, sql) in SUBMISSIONS.iter().enumerate() {
        let body = format!("{{\"sql\": {}}}", serde_json::to_string(*sql).unwrap());
        let (status, resp) =
            request(server.addr, "POST", &format!("/targets/{id}/advise"), &body);
        let cli_report = json_get(&cli_entries[i], "report");
        if status == 200 {
            assert_eq!(
                canonical(&parse_json(&resp)),
                canonical(cli_report),
                "submission {i}: server advise diverged from grade --json"
            );
        } else {
            // Malformed submission: CLI reports it in-place, server 422s.
            assert_eq!(status, 422, "{resp}");
            assert_eq!(cli_report, &Value::Null);
        }
    }

    // (2) Batch-grade parity, entry by entry, jobs 1 vs 4 as well.
    let subs_json =
        serde_json::to_string(&SUBMISSIONS.iter().map(|s| s.to_string()).collect::<Vec<_>>())
            .unwrap();
    let mut batch_bodies = Vec::new();
    for jobs in [1usize, 4] {
        let (status, resp) = request(
            server.addr,
            "POST",
            &format!("/targets/{id}/grade"),
            &format!("{{\"submissions\": {subs_json}, \"jobs\": {jobs}}}"),
        );
        assert_eq!(status, 200, "{resp}");
        let parsed = parse_json(&resp);
        let Value::Seq(entries) = json_get(&parsed, "entries").clone() else {
            panic!("entries not a list")
        };
        for (i, entry) in entries.iter().enumerate() {
            assert_eq!(
                canonical(json_get(entry, "report")),
                canonical(json_get(&cli_entries[i], "report")),
                "jobs={jobs}, submission {i}: batch report diverged from grade --json"
            );
            assert_eq!(
                canonical(json_get(entry, "error")),
                canonical(json_get(&cli_entries[i], "error")),
                "jobs={jobs}, submission {i}: error text diverged"
            );
        }
        batch_bodies.push(canonical(json_get(&parsed, "entries")));
    }
    assert_eq!(batch_bodies[0], batch_bodies[1], "grade entries must not depend on jobs");

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn extended_targets_parse_submissions_with_their_front_end() {
    // A target registered with `"extended": true` parses its submissions
    // with the multi-block front end: a JOIN submission gets exactly the
    // advice `qr-hint --extended --json` prints. `"rewrite_subqueries"`
    // alone implies `extended`, as `--rewrite-subqueries` does.
    use std::process::Command;

    const BEERS: &str = "CREATE TABLE Likes (drinker VARCHAR(20), beer VARCHAR(20), \
        PRIMARY KEY (drinker, beer)); CREATE TABLE Serves (bar VARCHAR(20), \
        beer VARCHAR(20), price INT, PRIMARY KEY (bar, beer));";
    let target = "SELECT s.bar FROM Serves s JOIN Likes l ON s.beer = l.beer \
                  WHERE s.price >= 3";
    let working = "SELECT s.bar FROM Serves s JOIN Likes l ON s.beer = l.beer \
                   WHERE s.price > 3";

    let dir = std::env::temp_dir().join(format!("qrhint-server-extended-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    for (name, text) in [("schema.sql", BEERS), ("target.sql", target), ("working.sql", working)] {
        std::fs::write(dir.join(name), text).unwrap();
    }
    let path = |name: &str| dir.join(name).display().to_string();
    let out = Command::new(env!("CARGO_BIN_EXE_qr-hint"))
        .args(["--schema", &path("schema.sql")])
        .args(["--target", &path("target.sql")])
        .args(["--working", &path("working.sql")])
        .args(["--extended", "--json"])
        .output()
        .expect("run qr-hint --extended --json");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let cli = parse_json(&String::from_utf8(out.stdout).unwrap());
    let _ = std::fs::remove_dir_all(&dir);

    let server = TestServer::start(8);
    let id = server.register_with(BEERS, target, ", \"extended\": true");
    let body = format!("{{\"sql\": {}}}", serde_json::to_string(working).unwrap());
    let (status, resp) = request(server.addr, "POST", &format!("/targets/{id}/advise"), &body);
    assert_eq!(status, 200, "{resp}");
    let report = parse_json(&resp);
    assert_eq!(json_str(json_get(&report, "stage")), "WHERE");
    assert_eq!(canonical(&report), canonical(&cli), "server advice diverged from the CLI's");

    let exists = "SELECT DISTINCT l.drinker FROM Likes l \
                  WHERE EXISTS (SELECT * FROM Serves s WHERE s.beer = l.beer)";
    let id = server.register_with(BEERS, exists, ", \"rewrite_subqueries\": true");
    let joined = "SELECT DISTINCT l.drinker FROM Likes l JOIN Serves s ON l.beer = s.beer";
    let body = format!("{{\"sql\": {}}}", serde_json::to_string(joined).unwrap());
    let (status, resp) = request(server.addr, "POST", &format!("/targets/{id}/advise"), &body);
    assert_eq!(status, 200, "{resp}");
    assert_eq!(json_get(&parse_json(&resp), "equivalent"), &Value::Bool(true), "{resp}");

    server.shutdown();
}

/// A handler that panics on `/boom` and otherwise answers `200`.
#[derive(Default)]
struct PanickyHandler {
    draining: std::sync::atomic::AtomicBool,
}

impl HttpHandler for PanickyHandler {
    fn handle(&self, req: &Request) -> Response {
        match req.path.as_str() {
            "/boom" => panic!("boom"),
            "/shutdown" => {
                self.draining.store(true, std::sync::atomic::Ordering::SeqCst);
                Response::new(200, "{\"status\":\"draining\"}".into())
            }
            _ => Response::new(200, "{}".into()),
        }
    }

    fn is_draining(&self) -> bool {
        self.draining.load(std::sync::atomic::Ordering::SeqCst)
    }

    fn observe_shed(&self) {}
}

#[test]
fn a_panicking_handler_answers_500_and_keeps_its_worker() {
    let shell = ShellConfig { addr: "127.0.0.1:0".into(), workers: 2, ..ShellConfig::default() };
    let server = Server::bind_with(shell, std::sync::Arc::new(PanickyHandler::default()))
        .expect("bind test server");
    let addr = server.addr();
    let handle = std::thread::spawn(move || server.run());

    // More panics than workers: each is answered, and none costs a
    // worker, so the shell still serves and drains afterwards.
    let within = Duration::from_secs(5);
    for _ in 0..3 {
        assert_eq!(status_within(addr, "GET", "/boom", within), Some(500));
    }
    assert_eq!(status_within(addr, "GET", "/healthz", within), Some(200), "workers lost");
    assert_eq!(status_within(addr, "POST", "/shutdown", within), Some(200));
    handle.join().expect("server thread panicked").expect("server run() errored");
}

#[test]
fn malformed_http_and_sql_get_clean_error_responses() {
    let server = TestServer::start(8);

    // Garbage that is not HTTP at all → a real 400 response, not a
    // silent connection drop.
    {
        let mut stream = TcpStream::connect(server.addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        stream.write_all(b"THIS IS NOT HTTP\r\n\r\n").unwrap();
        let mut resp = String::new();
        stream.read_to_string(&mut resp).unwrap();
        assert!(resp.starts_with("HTTP/1.1 400"), "got: {resp:?}");
        assert!(resp.contains("bad_http"), "got: {resp:?}");
    }

    // Unsupported HTTP version → 400.
    {
        let mut stream = TcpStream::connect(server.addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        stream.write_all(b"GET /healthz HTTP/2.0\r\n\r\n").unwrap();
        let mut resp = String::new();
        stream.read_to_string(&mut resp).unwrap();
        assert!(resp.starts_with("HTTP/1.1 400"), "got: {resp:?}");
    }

    // Two Content-Length lines that disagree → 400 and close, not a
    // 2-byte body with `llo` left as the start of the next request.
    {
        let mut stream = TcpStream::connect(server.addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        stream
            .write_all(
                b"POST /targets HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 5\r\n\r\nhello",
            )
            .unwrap();
        let mut resp = String::new();
        stream.read_to_string(&mut resp).unwrap();
        assert!(resp.starts_with("HTTP/1.1 400"), "got: {resp:?}");
        assert!(resp.contains("Connection: close\r\n"), "got: {resp:?}");
    }

    // Bad JSON body → 400 with a reason.
    let (status, body) = request(server.addr, "POST", "/targets", "{this is not json");
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("bad JSON"), "{body}");

    // Well-formed JSON, malformed target SQL → 422.
    let (status, body) = request(
        server.addr,
        "POST",
        "/targets",
        &format!(
            "{{\"schema\": {}, \"target\": \"SELEKT broken\"}}",
            serde_json::to_string(SCHEMA).unwrap()
        ),
    );
    assert_eq!(status, 422, "{body}");
    assert!(body.contains("bad_sql"), "{body}");

    // Malformed submission against a real target → 422.
    let id = server.register(SCHEMA, TARGET);
    let (status, body) = request(
        server.addr,
        "POST",
        &format!("/targets/{id}/advise"),
        "{\"sql\": \"SELEKT nonsense\"}",
    );
    assert_eq!(status, 422, "{body}");

    // Unknown target → 404; unknown route → 404; wrong verb → 405.
    let (status, _) =
        request(server.addr, "POST", "/targets/t999/advise", "{\"sql\": \"SELECT 1\"}");
    assert_eq!(status, 404);
    let (status, _) = request(server.addr, "GET", "/no/such/route", "");
    assert_eq!(status, 404);
    let (status, _) = request(server.addr, "GET", "/targets", "");
    assert_eq!(status, 405);

    // The connection survives an application-level error (keep-alive):
    // a 422 then a 200 on the same socket.
    {
        let mut client = Client::connect(server.addr).unwrap();
        let (status, _) = client
            .request(
                "POST",
                &format!("/targets/{id}/advise"),
                "{\"sql\": \"SELEKT nonsense\"}",
            )
            .unwrap();
        assert_eq!(status, 422);
        let (status, _) = client.request("GET", "/healthz", "").unwrap();
        assert_eq!(status, 200, "keep-alive must survive a 422");
    }

    server.shutdown();
}

#[test]
fn concurrent_clients_hammer_one_target_consistently() {
    let server = TestServer::start(8);
    let id = server.register(SCHEMA, TARGET);
    let addr = server.addr;

    // Expected equivalence per submission, established up front.
    let expected: Vec<bool> = vec![true, false, false];
    let clients = 6usize;
    let rounds = 8usize;

    std::thread::scope(|scope| {
        let id = &id;
        let expected = &expected;
        for c in 0..clients {
            scope.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                for r in 0..rounds {
                    let i = (c + r) % expected.len();
                    let body = format!(
                        "{{\"sql\": {}}}",
                        serde_json::to_string(SUBMISSIONS[i]).unwrap()
                    );
                    let (status, resp) = client
                        .request("POST", &format!("/targets/{id}/advise"), &body)
                        .unwrap();
                    assert_eq!(status, 200, "client {c} round {r}: {resp}");
                    let report = parse_json(&resp);
                    assert_eq!(
                        json_get(&report, "equivalent"),
                        &Value::Bool(expected[i]),
                        "client {c} round {r} submission {i}"
                    );
                }
            });
        }
    });

    // Every request hit the one shared prepared target.
    let (status, body) = request(addr, "GET", &format!("/targets/{id}/stats"), "");
    assert_eq!(status, 200);
    let stats = json_get(&parse_json(&body), "stats").clone();
    assert_eq!(
        json_get(&stats, "advise_calls"),
        &Value::Int((clients * rounds) as i64),
        "{body}"
    );
    // Duplicates dominated, so the bounded advice cache must have hits.
    // Racing first-grades of the same submission can each miss (both
    // grade for real, deterministically), so the worst case is one miss
    // per client per distinct submission — not one per submission.
    let Value::Int(hits) = json_get(&stats, "advice_cache_hits") else { panic!("{body}") };
    let Value::Int(misses) = json_get(&stats, "advice_cache_misses") else { panic!("{body}") };
    assert_eq!(*hits + *misses, (clients * rounds) as i64, "{body}");
    assert!(
        *hits >= (clients * rounds - clients * expected.len()) as i64,
        "{body}"
    );

    server.shutdown();
}

#[test]
fn lru_eviction_over_http_keeps_touched_targets() {
    let server = TestServer::start(2);
    let t1 = server.register(SCHEMA, TARGET);
    let t2 = server.register(SCHEMA, "SELECT s.beer FROM Serves s WHERE s.price >= 1");
    // Touch t1 so t2 is the LRU entry when t3 arrives.
    let (status, _) = request(server.addr, "GET", &format!("/targets/{t1}/stats"), "");
    assert_eq!(status, 200);
    let t3 = server.register(SCHEMA, "SELECT s.bar FROM Serves s");

    let (status, _) = request(server.addr, "GET", &format!("/targets/{t2}/stats"), "");
    assert_eq!(status, 404, "LRU target must be evicted");
    for alive in [&t1, &t3] {
        let (status, _) = request(server.addr, "GET", &format!("/targets/{alive}/stats"), "");
        assert_eq!(status, 200, "{alive} must survive");
    }
    // healthz reports the eviction.
    let (_, body) = request(server.addr, "GET", "/healthz", "");
    let health = parse_json(&body);
    assert_eq!(json_get(&health, "targets"), &Value::Int(2));
    assert_eq!(json_get(&health, "evicted_total"), &Value::Int(1));

    server.shutdown();
}

#[test]
fn graceful_shutdown_drains_and_frees_the_port() {
    let server = TestServer::start(8);
    let addr = server.addr;
    let id = server.register(SCHEMA, TARGET);
    // Work before the drain completes normally.
    let (status, _) = request(
        addr,
        "POST",
        &format!("/targets/{id}/advise"),
        "{\"sql\": \"SELECT s.bar FROM Serves s WHERE s.price > 2\"}",
    );
    assert_eq!(status, 200);

    server.shutdown(); // asserts run() returned Ok

    // The listener is gone: a fresh connection must fail (or be
    // instantly closed with nothing listening).
    match TcpStream::connect_timeout(&addr, Duration::from_millis(500)) {
        Err(_) => {}
        Ok(mut stream) => {
            // A racing TIME_WAIT accept can succeed; the read must fail.
            stream.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
            let _ = stream.write_all(b"GET /healthz HTTP/1.1\r\n\r\n");
            let mut buf = String::new();
            assert_eq!(
                stream.read_to_string(&mut buf).map(|_| buf.clone()).ok().filter(|b| !b.is_empty()),
                None,
                "server answered after drain"
            );
        }
    }
}

#[test]
fn serve_binary_smoke_round_trip() {
    // The actual `qr-hint serve` subcommand: spawn, parse the announced
    // address, register/advise/healthz, then drain and check exit 0.
    use std::process::{Command, Stdio};

    let mut child = Command::new(env!("CARGO_BIN_EXE_qr-hint"))
        .args(["serve", "--addr", "127.0.0.1:0", "--jobs", "auto", "--max-targets", "4"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn qr-hint serve");
    // Kept open until the child exits: its drain message goes here.
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let addr = announced_addr(&mut stdout);

    let (status, body) = request(addr, "GET", "/healthz", "");
    assert_eq!(status, 200, "{body}");
    let body = format!(
        "{{\"schema\": {}, \"target\": {}}}",
        serde_json::to_string(SCHEMA).unwrap(),
        serde_json::to_string(TARGET).unwrap()
    );
    let (status, resp) = request(addr, "POST", "/targets", &body);
    assert_eq!(status, 201, "{resp}");
    let id = json_str(json_get(&parse_json(&resp), "id")).to_string();
    let (status, resp) = request(
        addr,
        "POST",
        &format!("/targets/{id}/advise"),
        "{\"sql\": \"SELECT s.bar FROM Serves s WHERE s.price > 3\"}",
    );
    assert_eq!(status, 200, "{resp}");
    let (status, _) = request(addr, "POST", "/shutdown", "");
    assert_eq!(status, 200);

    let exit = child.wait().expect("wait for serve to drain");
    assert!(exit.success(), "serve must exit 0 after a graceful drain, got {exit:?}");
}

#[test]
fn idle_keep_alive_connections_neither_pin_workers_nor_hold_up_drain() {
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        ..ServerConfig::default()
    })
    .expect("bind test server");
    let addr = server.addr();
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let handle = std::thread::spawn(move || {
        let result = server.run();
        let _ = done_tx.send(());
        result
    });

    // Twice as many idle keep-alive connections as workers.
    let idle: Vec<Client> = (0..4)
        .map(|_| {
            let mut client = Client::connect(addr).expect("connect");
            let (status, body) = client.request("GET", "/healthz", "").expect("healthz");
            assert_eq!(status, 200, "{body}");
            client
        })
        .collect();
    let within = Duration::from_secs(2);
    assert_eq!(status_within(addr, "GET", "/healthz", within), Some(200), "workers are pinned");
    assert_eq!(status_within(addr, "POST", "/shutdown", within), Some(200));
    done_rx.recv_timeout(within).expect("run() must return while idle connections stay open");
    handle.join().expect("server thread panicked").expect("server run() errored");
    drop(idle);
}

#[cfg(unix)]
#[test]
fn serve_resumes_accepting_after_file_descriptor_exhaustion() {
    use std::process::{Command, Stdio};

    // 32 fds hold the daemon's own handful plus about a dozen
    // connections (each takes two), so 40 clients run `accept` into
    // EMFILE.
    let mut child = Command::new("sh")
        .args(["-c", "ulimit -n 32 && exec \"$0\" serve --addr 127.0.0.1:0 --jobs 1"])
        .arg(env!("CARGO_BIN_EXE_qr-hint"))
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn qr-hint serve");
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let addr = announced_addr(&mut stdout);
    fn fail(child: &mut std::process::Child, what: &str) -> ! {
        let _ = child.kill();
        let _ = child.wait();
        panic!("{what}");
    }
    if status_within(addr, "GET", "/healthz", Duration::from_secs(5)) != Some(200) {
        fail(&mut child, "no /healthz before the clients connect");
    }

    let clients: Vec<TcpStream> =
        (0..40).map(|_| TcpStream::connect(addr).expect("connect")).collect();
    std::thread::sleep(Duration::from_millis(200));
    drop(clients);

    // The closed connections free their fds; accepting must resume.
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut healthy = false;
    while !healthy && Instant::now() < deadline {
        let left = deadline.saturating_duration_since(Instant::now());
        healthy = status_within(addr, "GET", "/healthz", left) == Some(200);
        if !healthy {
            std::thread::sleep(Duration::from_millis(50));
        }
    }
    if !healthy {
        fail(&mut child, "/healthz unanswered 5 s after the clients closed");
    }
    if status_within(addr, "POST", "/shutdown", Duration::from_secs(5)) != Some(200) {
        fail(&mut child, "/shutdown unanswered");
    }
    let deadline = Instant::now() + Duration::from_secs(5);
    let exit = loop {
        match child.try_wait().expect("poll serve") {
            Some(exit) => break exit,
            None if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(20)),
            None => fail(&mut child, "serve did not exit after /shutdown"),
        }
    };
    assert!(exit.success(), "serve must exit 0 after a graceful drain, got {exit:?}");
}
