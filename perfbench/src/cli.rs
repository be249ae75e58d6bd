//! `cli-cold`: one `qr-hint --schema S --target T --working W
//! --interactive --json` process per course submission, run back to
//! back. Every op pays process start, schema parsing and target
//! compilation with cold caches.

use crate::check;
use crate::corpus::Corpus;
use crate::procs;
use crate::report::{self, Outcome};
use crate::stats::{self, Latencies};
use crate::trace::{self, LayerTable};
use qr_hint::core::{AdviceReport, PreparedTarget, QrHint};
use qr_hint::parse::{parse_query, parse_schema};
use qrhint_obs::span;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Least time between two `qr-hint --version` spawns, whose median is
/// the set-up time. Timed in one burst they would sample a single
/// moment of a drifting host; spread between the jobs they span the run.
const SETUP_GAP: Duration = Duration::from_millis(50);
/// Processes per submission a run should reach for the per-submission
/// medians to set a burst of host noise aside.
const MIN_REPEATS: usize = 3;

/// Layers the CLI's own `--trace-out` file measures; the in-process
/// replica measures every other layer.
const TRACED_IN_PROCESS: &[&str] = &[
    "core.advise",
    "core.stage_from",
    "core.stage_where",
    "core.stage_groupby",
    "core.stage_having",
    "core.stage_select",
    "core.oracle_batch",
    "smt.solver",
    "other",
];

/// One submission's command line and expected answer.
struct Job {
    args: Vec<String>,
    exit: i32,
    stdout: String,
}

/// Write the inputs as files and compute each expected answer
/// in-process.
fn prepare(dir: &Path, corpus: &Corpus) -> Result<Vec<Job>, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let write = |name: String, text: &str| -> Result<String, String> {
        let path = dir.join(name);
        std::fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))?;
        Ok(path.display().to_string())
    };
    let schema_files = corpus
        .schemas
        .iter()
        .enumerate()
        .map(|(i, s)| write(format!("schema{i}.sql"), &s.ddl))
        .collect::<Result<Vec<_>, _>>()?;
    let mut targets = Vec::new();
    for (i, b) in corpus.bases.iter().enumerate() {
        let schema = parse_schema(&corpus.schemas[b.schema].ddl).expect("fuzz schema parses");
        let prepared = QrHint::new(schema)
            .compile_target(&b.sql)
            .expect("fuzz target compiles");
        targets.push((write(format!("target{i}.sql"), &b.sql)?, prepared));
    }
    let mut jobs = Vec::new();
    for (i, s) in corpus.sessions.iter().enumerate() {
        let (target_file, prepared) = &targets[s.base];
        let (exit, stdout) = check::expected_cli(prepared, &s.sql);
        let args = vec![
            "--schema".into(),
            schema_files[corpus.bases[s.base].schema].clone(),
            "--target".into(),
            target_file.clone(),
            "--working".into(),
            write(format!("working{i}.sql"), &s.sql)?,
            "--interactive".into(),
            "--json".into(),
        ];
        jobs.push(Job { args, exit, stdout });
    }
    Ok(jobs)
}

/// Run one process to completion: exit code, stdout, wall time.
fn spawn(exe: &Path, args: &[String]) -> Result<(i32, String, Duration), String> {
    let t = Instant::now();
    let output = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
    let wall = t.elapsed();
    let stdout = String::from_utf8(output.stdout).map_err(|_| "stdout is not UTF-8")?;
    Ok((output.status.code().unwrap_or(-1), stdout, wall))
}

/// Compare one process's answer with the expected one. An exit other
/// than 0 or 3 (unsupported SQL) is a failed op; a wrong answer is an
/// incorrect output.
fn check_answer(job: &Job, exit: i32, stdout: &str, out: &mut Outcome) {
    if exit != 0 && exit != 3 {
        out.failed += 1;
    } else if exit != job.exit {
        out.problem(format!(
            "exit {exit}, expected {} for {:?}",
            job.exit, job.args
        ));
    } else if let Err(e) = check::same_bytes(&job.stdout, stdout) {
        out.problem(format!("{e} for {:?}", job.args));
    }
}

pub fn run(
    exe: &Path,
    work: &Path,
    corpus: &Corpus,
    seconds: u64,
    traced: bool,
) -> Result<Outcome, String> {
    let dir: PathBuf = work.join(format!("cli-{}", std::process::id()));
    let result = prepare(&dir, corpus).and_then(|jobs| {
        if traced {
            run_traced(exe, &dir, corpus, &jobs, seconds)
        } else {
            run_plain(exe, &jobs, seconds)
        }
    });
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn run_plain(exe: &Path, jobs: &[Job], seconds: u64) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let version = ["--version".to_string()];
    let mut setups = Vec::new();
    let mut last_setup: Option<Instant> = None;
    let mut lat = Latencies::default();
    // Process times per submission: the job list is cycled, so each
    // submission's repeats are spread over the whole run.
    let mut per_job: Vec<Vec<f64>> = vec![Vec::new(); jobs.len()];
    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    while start.elapsed() < budget {
        if last_setup.is_none_or(|t| t.elapsed() >= SETUP_GAP) {
            let (exit, _, wall) = spawn(exe, &version)?;
            if exit != 0 {
                return Err(format!("qr-hint --version exited {exit}"));
            }
            setups.push(wall.as_secs_f64());
            last_setup = Some(Instant::now());
        }
        let k = out.attempted as usize % jobs.len();
        let job = &jobs[k];
        let (exit, stdout, wall) = spawn(exe, &job.args)?;
        let ms = wall.as_secs_f64() * 1e3;
        lat.push(ms);
        per_job[k].push(ms);
        out.attempted += 1;
        check_answer(job, exit, &stdout, &mut out);
    }
    let typical = stats::typical_times(&per_job);
    out.set("setup_s", stats::median(&setups));
    out.set(
        "ops_per_s",
        1e3 * typical.len() as f64 / typical.iter().sum::<f64>(),
    );
    out.set("rss_peak_mb", procs::children_peak_rss_mb());
    out.note(format!(
        "{} processes over {} submissions; ops_per_s is the rate of one process per timed submission at each submission's median time; setup_s the median of {} `qr-hint --version` spawns spread over the run",
        out.attempted,
        typical.len(),
        setups.len()
    ));
    if (out.attempted as usize) < MIN_REPEATS * jobs.len() {
        out.note(format!(
            "warning: fewer than {MIN_REPEATS} processes per submission, too few for medians to set host noise aside"
        ));
    }
    report::set_latency(&mut out, &mut lat, report::Spread::Inputs(&typical));
    report::note_errors(&mut out);
    Ok(out)
}

/// The CLI's in-process work besides the advise tree, replayed in this
/// process under spans: schema parse, target compile, working parse and
/// resolve, the session loop, report encoding.
fn replica(ddl: &str, target_sql: &str, working_sql: &str, counts: &mut Counts) {
    let schema = {
        let _g = span("sqlparse");
        parse_schema(ddl).expect("fuzz schema parses")
    };
    let prepared: PreparedTarget = {
        let _g = span("core.compile");
        QrHint::new(schema)
            .compile_target(target_sql)
            .expect("fuzz target compiles")
    };
    let Ok(parsed) = ({
        let _g = span("sqlparse");
        parse_query(working_sql)
    }) else {
        return;
    };
    let Ok(working) = ({
        let _g = span("sqlast");
        qr_hint::ast::resolve::resolve_query(prepared.schema(), &parsed)
    }) else {
        return;
    };
    let mut session = prepared.tutor(working);
    let mut reports = Vec::new();
    for _ in 0..prepared.config().max_stage_applications {
        let step = {
            let _g = span("core.session");
            session.step()
        };
        let Ok(advice) = step else { break };
        *counts
            .hints
            .entry(report::hint_metric(&advice.stage.to_string()))
            .or_default() += 1.0;
        let _g = span("core.report");
        reports.push(AdviceReport::new(advice));
        if session.is_done() {
            std::hint::black_box(serde_json::to_string_pretty(&reports).expect("serializes"));
            break;
        }
    }
    let stats = serde_json::to_value(&prepared.stats()).expect("stats serialize");
    report::add_stats(&mut counts.stats, &stats);
    counts.cache_bytes += prepared.approx_cache_bytes() as f64;
}

/// Counters summed over the replayed processes: each compiles its
/// target cold, so these are what the CLI processes did.
#[derive(Default)]
struct Counts {
    stats: report::StatsMap,
    hints: std::collections::BTreeMap<&'static str, f64>,
    cache_bytes: f64,
}

/// Spans of a Chrome trace file written by `--trace-out`.
fn read_trace(path: &Path) -> Result<Vec<trace::Span>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read trace: {e}"))?;
    let doc: serde_json::Value =
        serde_json::from_str(&text).map_err(|e| format!("trace JSON: {e}"))?;
    let field = |v: &serde_json::Value, key: &str| match v {
        serde_json::Value::Map(m) => m.iter().find(|(k, _)| k == key).map(|(_, v)| v.clone()),
        _ => None,
    };
    let int = |v: Option<serde_json::Value>| match v {
        Some(serde_json::Value::Int(n)) => Ok(n.max(0) as u64),
        other => Err(format!("trace event field is {other:?}")),
    };
    let Some(serde_json::Value::Seq(events)) = field(&doc, "traceEvents") else {
        return Err("trace has no traceEvents".into());
    };
    events
        .iter()
        .map(|e| {
            let Some(serde_json::Value::Str(name)) = field(e, "name") else {
                return Err("trace event has no name".to_string());
            };
            Ok(trace::Span {
                layer: trace::layer_of(&name),
                ts_us: int(field(e, "ts"))?,
                dur_us: int(field(e, "dur"))?,
                tid: int(field(e, "tid"))?,
                depth: int(field(e, "args").and_then(|a| field(&a, "depth")))? as u32,
            })
        })
        .collect()
}

fn run_traced(
    exe: &Path,
    dir: &Path,
    corpus: &Corpus,
    jobs: &[Job],
    seconds: u64,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut table = LayerTable::default();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let trace_file = dir.join("trace.json");
    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    let mut cli_us = 0u64;
    let mut counts = Counts::default();
    while start.elapsed() < budget {
        let k = table.ops as usize % jobs.len();
        let job = &jobs[k];
        let (exit, stdout, wall) = spawn(exe, &job.args)?;
        plain.push(wall.as_secs_f64());
        out.attempted += 1;
        check_answer(job, exit, &stdout, &mut out);

        let mut args = job.args.clone();
        args.extend(["--trace-out".to_string(), trace_file.display().to_string()]);
        let (exit, stdout, wall) = spawn(exe, &args)?;
        traced.push(wall.as_secs_f64());
        out.attempted += 1;
        check_answer(job, exit, &stdout, &mut out);
        let in_cli = read_trace(&trace_file)?;

        let session = &corpus.sessions[k];
        let base = &corpus.bases[session.base];
        qrhint_obs::span::enable_tracing();
        replica(
            &corpus.schemas[base.schema].ddl,
            &base.sql,
            &session.sql,
            &mut counts,
        );
        qrhint_obs::span::disable_tracing();
        let replayed: Vec<trace::Span> = trace::drain();
        let mut op = LayerTable::default();
        op.add(&in_cli);
        let mut rest = LayerTable::default();
        rest.add(&replayed);
        for (layer, us) in rest.self_us {
            if !TRACED_IN_PROCESS.contains(&layer) {
                op.add_measured(layer, us);
            }
        }
        let wall_us = wall.as_micros() as u64;
        let measured: u64 = op.self_us.values().sum();
        let remainder = wall_us.saturating_sub(measured);
        cli_us += remainder;
        for (layer, us) in op.self_us {
            table.add_measured(layer, us);
        }
        table.add_measured("cli", remainder);
        table.add_op(wall_us);
    }
    let _ = std::fs::remove_file(&trace_file);
    report::set_layers(&mut out, &table);
    report::set_stats_counters(&mut out, &counts.stats);
    out.set("core.cache_bytes", counts.cache_bytes);
    for (name, count) in counts.hints {
        out.set(name, count);
    }
    let coverage = 1.0 - cli_us as f64 / table.op_us.max(1) as f64;
    out.set("trace.coverage", coverage);
    let overhead = stats::median(&traced) / stats::median(&plain) - 1.0;
    out.set("trace.overhead_pct", overhead * 100.0);
    out.note(format!(
        "{} traced processes; {:.1}% of process wall inside measured library layers, overhead {:.2}%",
        table.ops,
        coverage * 100.0,
        overhead * 100.0
    ));
    Ok(out)
}
