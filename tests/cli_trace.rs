//! The `advise --trace-out` flame-profile path through the real
//! binary: the trace file is valid Chrome trace-event JSON, carries
//! the expected span hierarchy (advise > stage > oracle/solver), and
//! the flag is rejected outside advise mode. Stdout must be identical
//! with and without tracing — profiles ride stderr and the trace file,
//! never the deterministic output. In-process, batch grading with span
//! recording on must give the same advice as with it off.

use qr_hint::prelude::*;
use qrhint_workloads::batches::{beers_batch, fingerprint};
use serde::Value;
use std::process::Command;

const SCHEMA: &str = "CREATE TABLE Serves (\
    bar VARCHAR(20), beer VARCHAR(20), price INT, PRIMARY KEY (bar, beer));";
const TARGET: &str = "SELECT s.bar FROM Serves s WHERE s.price >= 3";
const WORKING: &str = "SELECT s.bar FROM Serves s WHERE s.price > 3";

struct Fixture {
    dir: std::path::PathBuf,
}

impl Fixture {
    fn new(tag: &str) -> Fixture {
        let dir = std::env::temp_dir().join(format!("qrhint-trace-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("schema.sql"), SCHEMA).unwrap();
        std::fs::write(dir.join("target.sql"), TARGET).unwrap();
        std::fs::write(dir.join("working.sql"), WORKING).unwrap();
        Fixture { dir }
    }

    fn path(&self, name: &str) -> String {
        self.dir.join(name).display().to_string()
    }

    fn advise(&self, extra: &[&str]) -> std::process::Output {
        Command::new(env!("CARGO_BIN_EXE_qr-hint"))
            .args(["advise", "--schema", &self.path("schema.sql")])
            .args(["--target", &self.path("target.sql")])
            .args(["--working", &self.path("working.sql")])
            .args(extra)
            .output()
            .expect("run qr-hint advise")
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

#[test]
fn trace_out_writes_chrome_trace_json_without_touching_stdout() {
    let fx = Fixture::new("ok");
    let trace_path = fx.path("trace.json");

    let plain = fx.advise(&["--json"]);
    assert!(plain.status.success(), "{plain:?}");
    let traced = fx.advise(&["--json", "--trace-out", &trace_path]);
    assert!(traced.status.success(), "{traced:?}");
    assert_eq!(
        String::from_utf8(plain.stdout).unwrap(),
        String::from_utf8(traced.stdout).unwrap(),
        "tracing must not change the advice output"
    );
    let stderr = String::from_utf8(traced.stderr).unwrap();
    assert!(stderr.contains("span(s) written to"), "{stderr}");

    let trace = std::fs::read_to_string(&trace_path).expect("trace file written");
    let parsed: Value = serde_json::from_str(&trace)
        .unwrap_or_else(|e| panic!("trace is not valid JSON ({e}):\n{trace}"));
    let Value::Map(top) = parsed else { panic!("trace root not a map") };
    let events = match top.iter().find(|(k, _)| k == "traceEvents") {
        Some((_, Value::Seq(events))) => events,
        other => panic!("no traceEvents list ({other:?})"),
    };
    assert!(!events.is_empty(), "trace recorded no spans");

    // The span hierarchy the profile is for: the advise envelope, at
    // least one stage, and solver work beneath it.
    let names: Vec<&str> = events
        .iter()
        .filter_map(|e| match e {
            Value::Map(fields) => fields.iter().find_map(|(k, v)| match (k.as_str(), v) {
                ("name", Value::Str(s)) => Some(s.as_str()),
                _ => None,
            }),
            _ => None,
        })
        .collect();
    assert_eq!(names.len(), events.len(), "every event carries a name");
    assert!(names.contains(&"advise"), "{names:?}");
    assert!(names.iter().any(|n| n.starts_with("stage:")), "{names:?}");
    assert!(names.iter().any(|n| n.starts_with("solver:") || n.starts_with("oracle:")), "{names:?}");
}

#[test]
fn trace_out_is_rejected_outside_advise_mode() {
    let fx = Fixture::new("reject");
    let out = Command::new(env!("CARGO_BIN_EXE_qr-hint"))
        .args(["grade", "--schema", &fx.path("schema.sql")])
        .args(["--target", &fx.path("target.sql")])
        .args(["--submissions", &fx.dir.display().to_string()])
        .args(["--trace-out", &fx.path("trace.json")])
        .output()
        .expect("run qr-hint grade");
    assert_eq!(out.status.code(), Some(2), "usage error expected: {out:?}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("--trace-out only applies to advise mode"), "{stderr}");
    assert!(!fx.dir.join("trace.json").exists(), "rejected flag must not write a trace");
}

// The only test in this binary that flips the process-global tracing
// switch; the others trace inside child processes, so nothing else here
// can record into (or drain) the shared span sink meanwhile.
#[test]
fn span_tracing_records_spans_without_changing_batch_advice() {
    let (schema, target, subs) = beers_batch(4);
    let qr = QrHint::new(schema);
    // A fresh target per pass, so the traced pass cannot be answered
    // from the first pass's advice cache.
    let grade = || {
        let prepared = qr.compile_target(&target).expect("target compiles");
        fingerprint(&prepared.grade_batch(&subs))
    };

    let plain = grade();
    let (events, _) = qrhint_obs::span::take_events();
    assert_eq!(events.len(), 0, "tracing is off by default");

    qrhint_obs::span::enable_tracing();
    let traced = grade();
    qrhint_obs::span::disable_tracing();
    let (events, dropped) = qrhint_obs::span::take_events();

    assert_eq!(traced, plain, "span tracing must not change the advice");
    assert!(!events.is_empty(), "tracing on must record spans");
    assert_eq!(dropped, 0, "a lossy profile would undercount");
    assert!(!qrhint_obs::span::tracing_enabled());
}
