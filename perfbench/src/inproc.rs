//! In-process tutoring workloads (`classroom`, `wide-where`).
//!
//! A pass compiles every target fresh from SQL text, then runs every
//! session of the sample: parse and resolve the submission, then one
//! op per hint — `lint` the current query, `TutorSession::step`, and
//! encode `AdviceReport::with_diagnostics` as JSON, which is the
//! daemon's advise handler minus HTTP. Passes repeat until the run's
//! time is spent; every pass does the same work, so rates do not depend
//! on how many passes fit.
//!
//! Set-up (compiling every target) takes under a millisecond. Timed in
//! one burst it samples a single moment of a drifting host, so besides
//! each pass's own compile, untraced passes time one more set-up
//! between sessions whenever [`SETUP_GAP`] has passed: the samples span
//! the whole run. Work the benchmark does inside a pass for itself
//! (these samples, folding spans into the layer table) is taken out of
//! the pass wall.

use crate::check::{self, End};
use crate::corpus::{Corpus, CORPUS_SEED};
use crate::procs;
use crate::report::{self, Outcome, StatsMap};
use crate::stats::{self, Latencies};
use crate::trace::{self, LayerTable, OP};
use qr_hint::ast::resolve::resolve_query;
use qr_hint::ast::{Query, Schema};
use qr_hint::core::{AdviceReport, PreparedTarget, QrHint, QrHintError};
use qr_hint::parse::{parse_query, parse_schema};
use qrhint_obs::span;
use std::time::{Duration, Instant};

/// Least time between two set-up samples taken between sessions.
const SETUP_GAP: Duration = Duration::from_millis(50);

/// Compiled targets of one pass.
struct Compiled {
    schemas: Vec<Schema>,
    targets: Vec<PreparedTarget>,
}

fn compile(corpus: &Corpus) -> Compiled {
    let schemas: Vec<Schema> = corpus
        .schemas
        .iter()
        .map(|s| {
            let _g = span("sqlparse");
            parse_schema(&s.ddl).expect("fuzz schema DDL parses")
        })
        .collect();
    let targets = corpus
        .bases
        .iter()
        .map(|b| {
            let _g = span("core.compile");
            QrHint::new(schemas[b.schema].clone())
                .compile_target(&b.sql)
                .expect("fuzz base target compiles")
        })
        .collect();
    Compiled { schemas, targets }
}

/// How a session ended, owned.
enum Ending {
    Fixed(Box<Query>, usize),
    Unsupported,
    NonConvergent,
    Internal,
}

/// One session's outputs: every report's JSON, each advice's stage,
/// and how it ended.
struct SessionOut {
    reports: Vec<String>,
    stages: Vec<&'static str>,
    ending: Ending,
}

/// Set-up samples of a run, in seconds.
struct Setups {
    secs: Vec<f64>,
    last: Instant,
}

impl Setups {
    fn push(&mut self, secs: f64) {
        self.secs.push(secs);
        self.last = Instant::now();
    }
}

/// Per-pass accumulators.
struct Pass<'a> {
    lat: &'a mut Latencies,
    /// Traced passes: the table each op's spans are folded into.
    table: Option<&'a mut LayerTable>,
    /// Untraced passes: set-up samples taken between sessions.
    setups: Option<&'a mut Setups>,
    /// Time the benchmark spent on itself inside the pass.
    excluded: Duration,
    ops: u64,
    failed: u64,
}

impl<'a> Pass<'a> {
    fn new(
        lat: &'a mut Latencies,
        table: Option<&'a mut LayerTable>,
        setups: Option<&'a mut Setups>,
    ) -> Pass<'a> {
        Pass {
            lat,
            table,
            setups,
            excluded: Duration::ZERO,
            ops: 0,
            failed: 0,
        }
    }

    /// Close one op: its root span must already be dropped.
    fn finish_op(&mut self, t0: Instant) {
        self.lat.push(t0.elapsed().as_secs_f64() * 1e3);
        self.ops += 1;
        if let Some(table) = self.table.as_deref_mut() {
            let t = Instant::now();
            table.add(&trace::drain());
            self.excluded += t.elapsed();
        }
    }

    /// Between sessions: time one set-up if [`SETUP_GAP`] has passed
    /// since the last.
    fn sample_setup(&mut self, corpus: &Corpus) {
        let Some(setups) = self.setups.as_deref_mut() else {
            return;
        };
        if setups.last.elapsed() < SETUP_GAP {
            return;
        }
        let t = Instant::now();
        setups.push(timed_compile(corpus).1);
        self.excluded += t.elapsed();
    }

    /// Wall time of a pass started at `t`, without the excluded time.
    fn wall(&self, t: Instant) -> Duration {
        t.elapsed().saturating_sub(self.excluded)
    }

    /// A session the pipeline stopped: unsupported SQL is a correct
    /// answer, anything else a failed op.
    fn error_ending(&mut self, e: &QrHintError) -> Ending {
        if check::is_user_error(e) {
            Ending::Unsupported
        } else {
            self.failed += 1;
            Ending::Internal
        }
    }
}

fn run_session(prepared: &PreparedTarget, sql: &str, pass: &mut Pass<'_>) -> SessionOut {
    let mut out = SessionOut {
        reports: Vec::new(),
        stages: Vec::new(),
        ending: Ending::Internal,
    };
    let mut t0 = Instant::now();
    let mut op = span(OP);
    let parsed = {
        let _g = span("sqlparse");
        parse_query(sql)
    };
    let working = parsed.map_err(QrHintError::from).and_then(|q| {
        let _g = span("sqlast");
        resolve_query(prepared.schema(), &q).map_err(QrHintError::from)
    });
    let mut session = match working {
        Ok(q) => prepared.tutor(q),
        Err(e) => {
            drop(op);
            pass.finish_op(t0);
            out.ending = pass.error_ending(&e);
            return out;
        }
    };
    let cap = prepared.config().max_stage_applications;
    loop {
        let diagnostics = {
            let _g = span("analysis");
            prepared.lint(session.working())
        };
        let step = {
            let _g = span("core.session");
            session.step()
        };
        let advice = match step {
            Ok(advice) => advice,
            Err(e) => {
                drop(op);
                pass.finish_op(t0);
                out.ending = pass.error_ending(&e);
                return out;
            }
        };
        let stage = report::hint_metric(&advice.stage.to_string());
        let json = {
            let _g = span("core.report");
            serde_json::to_string(&AdviceReport::with_diagnostics(advice, diagnostics))
                .expect("report serializes")
        };
        drop(op);
        pass.finish_op(t0);
        out.reports.push(json);
        out.stages.push(stage);
        if session.is_done() {
            out.ending = Ending::Fixed(Box::new(session.working().clone()), out.reports.len() - 1);
            return out;
        }
        if out.reports.len() >= cap {
            pass.failed += 1;
            out.ending = Ending::NonConvergent;
            return out;
        }
        t0 = Instant::now();
        op = span(OP);
    }
}

fn run_pass(corpus: &Corpus, compiled: &Compiled, pass: &mut Pass<'_>) -> Vec<SessionOut> {
    corpus
        .sessions
        .iter()
        .map(|s| {
            pass.sample_setup(corpus);
            run_session(&compiled.targets[s.base], &s.sql, pass)
        })
        .collect()
}

/// Compile once, timed.
fn timed_compile(corpus: &Corpus) -> (Compiled, f64) {
    let t = Instant::now();
    let compiled = compile(corpus);
    (compiled, t.elapsed().as_secs_f64())
}

/// Judge every session of a pass and check that a later pass produced
/// the very same advice bytes.
fn check_pass(
    corpus: &Corpus,
    compiled: &Compiled,
    sessions: &[SessionOut],
    reference: Option<&[SessionOut]>,
    out: &mut Outcome,
) {
    if let Some(reference) = reference {
        for (i, (a, b)) in reference.iter().zip(sessions).enumerate() {
            if a.reports != b.reports {
                out.problem(format!(
                    "session {} advised differently on a later pass",
                    corpus.sessions[i].case_id
                ));
            }
        }
        return;
    }
    let mut classes = std::collections::BTreeMap::<&str, usize>::new();
    for (input, session) in corpus.sessions.iter().zip(sessions) {
        let base = &corpus.bases[input.base];
        let schema = &compiled.schemas[base.schema];
        let prepared = &compiled.targets[input.base];
        let working = prepared.prepare(&input.sql).ok();
        let end = match &session.ending {
            Ending::Fixed(q, stages) => End::Fixed {
                query: q,
                stages: *stages,
            },
            Ending::Unsupported => End::Unsupported,
            Ending::NonConvergent => End::NonConvergent,
            Ending::Internal => End::Internal,
        };
        let class = check::judge(
            schema,
            prepared.target(),
            working.as_ref(),
            end,
            CORPUS_SEED,
        );
        *classes.entry(class.key()).or_default() += 1;
        if !check::passes(class) {
            out.problem(format!(
                "{}: {} ({})",
                input.case_id,
                class.key(),
                input.sql
            ));
        }
    }
    out.note(format!(
        "taxonomy of {} sessions: {classes:?}",
        sessions.len()
    ));
}

/// Untraced run: end-to-end metrics.
pub fn run(corpus: &Corpus, seconds: u64) -> Outcome {
    let mut out = Outcome::default();
    let mut setups = Setups {
        secs: Vec::new(),
        last: Instant::now(),
    };
    let mut lat = Latencies::default();
    let mut pass_tails = Vec::new();
    let mut measured = Duration::ZERO;
    let mut chunks = Vec::new();
    let (mut ops, mut failed) = (0u64, 0u64);
    let mut reference: Option<(Compiled, Vec<SessionOut>)> = None;
    let mut rss_mb = 0.0;
    let budget = Duration::from_secs(seconds);
    // The memory figure covers the program's work from here on, not the
    // corpus this process generated before.
    let rss_base = procs::reset_peak_rss();
    // Whole passes until the budget is spent: a pass is the unit of work.
    while measured < budget {
        let (compiled, setup) = timed_compile(corpus);
        setups.push(setup);
        let pass_start = lat.len();
        let mut pass = Pass::new(&mut lat, None, Some(&mut setups));
        let t = Instant::now();
        let sessions = run_pass(corpus, &compiled, &mut pass);
        let wall = pass.wall(t);
        measured += wall;
        chunks.push((pass.ops, wall.as_secs_f64()));
        ops += pass.ops;
        failed += pass.failed;
        pass_tails.push(lat.banded_since(pass_start, report::TAIL_Q));
        match &reference {
            None => {
                // Peak memory of one pass: later passes run beside the
                // reference pass kept for comparison.
                rss_mb = procs::self_peak_rss_mb();
                reference = Some((compiled, sessions));
            }
            Some((_, first)) => check_pass(corpus, &compiled, &sessions, Some(first), &mut out),
        }
    }
    if let Some((compiled, sessions)) = &reference {
        check_pass(corpus, compiled, sessions, None, &mut out);
    }
    out.attempted = ops;
    out.failed = failed;
    out.set("setup_s", stats::median(&setups.secs));
    out.set("ops_per_s", stats::chunked_rate(&chunks));
    out.set("rss_peak_mb", rss_mb);
    out.note(format!(
        "{} pass(es) of {} sessions: {ops} hints in {:.3} s; ops_per_s is the median pass rate from {} passes on; setup_s the median of {} set-ups spread over the run",
        chunks.len(),
        corpus.sessions.len(),
        measured.as_secs_f64(),
        stats::MIN_CHUNKS,
        setups.secs.len()
    ));
    out.note(match rss_base {
        Ok(base) => format!(
            "rss_peak_mb {rss_mb:.3} MiB: peak through the first pass, from {base:.3} MiB resident when the peak was reset"
        ),
        Err(e) => format!(
            "rss_peak_mb {rss_mb:.3} MiB: the peak could not be reset ({e}), so it is the process's lifetime peak"
        ),
    });
    report::set_latency(&mut out, &mut lat, report::Spread::Passes(&pass_tails));
    report::note_errors(&mut out);
    out
}

/// Traced run: untraced and traced passes alternate; the traced ones
/// fill the layer table, the pair gives the tracing overhead.
pub fn run_traced(corpus: &Corpus, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let mut table = LayerTable::default();
    let (mut plain_walls, mut traced_walls) = (Vec::new(), Vec::new());
    let mut lat = Latencies::default();
    let (mut ops, mut failed) = (0u64, 0u64);
    let mut counted = false;
    let start = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    loop {
        let cycle = Instant::now();
        let (compiled, _) = timed_compile(corpus);
        let mut pass = Pass::new(&mut lat, None, None);
        let t = Instant::now();
        let first = run_pass(corpus, &compiled, &mut pass);
        plain_walls.push(pass.wall(t).as_secs_f64());
        if !counted {
            check_pass(corpus, &compiled, &first, None, &mut out);
        }

        qrhint_obs::span::enable_tracing();
        let compiled = compile(corpus);
        table.add(&trace::drain());
        let mut pass = Pass::new(&mut lat, Some(&mut table), None);
        let t = Instant::now();
        let sessions = run_pass(corpus, &compiled, &mut pass);
        traced_walls.push(pass.wall(t).as_secs_f64());
        qrhint_obs::span::disable_tracing();
        ops += pass.ops;
        failed += pass.failed;
        table.add(&trace::drain());
        check_pass(corpus, &compiled, &sessions, Some(&first), &mut out);
        if !counted {
            counted = true;
            count_pass(&compiled, &sessions, &mut out);
        }
        let cycle = cycle.elapsed();
        if start.elapsed() + cycle / 2 >= budget {
            break;
        }
    }
    out.attempted = ops;
    out.failed = failed;
    report::set_layers(&mut out, &table);
    let overhead = stats::median(&traced_walls) / stats::median(&plain_walls) - 1.0;
    out.set("trace.overhead_pct", overhead * 100.0);
    out.note(format!(
        "{} traced pass(es), {} ops traced; coverage {:.4}, overhead {:.2}%",
        traced_walls.len(),
        table.ops,
        table.coverage(),
        overhead * 100.0
    ));
    out
}

/// Machine-independent counts of one traced pass.
fn count_pass(compiled: &Compiled, sessions: &[SessionOut], out: &mut Outcome) {
    let mut sums = StatsMap::new();
    let mut bytes = 0usize;
    for target in &compiled.targets {
        let value = serde_json::to_value(&target.stats()).expect("stats serialize");
        report::add_stats(&mut sums, &value);
        bytes += target.approx_cache_bytes();
    }
    report::set_stats_counters(out, &sums);
    out.set("core.cache_bytes", bytes as f64);
    let mut hints = std::collections::BTreeMap::<&'static str, f64>::new();
    for stage in sessions.iter().flat_map(|s| &s.stages) {
        *hints.entry(stage).or_default() += 1.0;
    }
    for (name, count) in hints {
        out.set(name, count);
    }
}
