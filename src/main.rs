//! `qr-hint` command-line interface.
//!
//! ```text
//! qr-hint [advise] --schema schema.sql --target solution.sql --working student.sql
//!         [--interactive] [--extended] [--rewrite-subqueries] [--json]
//!         [--trace-out trace.json]
//! qr-hint grade --schema schema.sql --target solution.sql --submissions dir/
//!         [--jobs N|auto] [--extended] [--rewrite-subqueries] [--json]
//! qr-hint serve [--addr HOST:PORT] [--jobs N|auto] [--max-targets N]
//!         [--max-cache-mb MB] [--max-pending N] [--log-format text|json]
//!         [--log-level LEVEL]
//! qr-hint route [--addr HOST:PORT] (--spawn N | --backend HOST:PORT ...)
//!         [--health-interval-ms MS] [--max-pending N]
//!         [--log-format text|json] [--log-level LEVEL]
//! qr-hint fuzz --schema NAME [--count N] [--seed N] [--jobs N|auto]
//!         [--instances N] [--json]
//! qr-hint lint --schema schema.sql file.sql... [--extended]
//!         [--rewrite-subqueries] [--json]
//! qr-hint --version
//! ```
//!
//! **advise** (the default mode) prints the hints for the first failing
//! stage; with `--interactive`, auto-applies each stage's repair and keeps
//! going until the working query is equivalent to the target (showing
//! every hint on the way). **grade** compiles the target once and grades
//! every `*.sql` file in a submissions directory — the classroom batch
//! mode, backed by [`PreparedTarget`]'s shared caches. `--jobs N` fans
//! the batch out over N worker threads against the one shared prepared
//! target (its caches are sharded for concurrent grading); output is
//! identical to `--jobs 1`, in the same submission order. `--jobs 0` or
//! `--jobs auto` uses `std::thread::available_parallelism`.
//!
//! **fuzz** runs the differential-testing loop: generate a seeded
//! mutation corpus for a named workload schema (`beers`, `beers-course`,
//! `brass`, `dblp`, `students`, `tpch`), grade every pair, auto-apply the
//! emitted repairs, execute repaired vs. target on generated databases,
//! and print the classification taxonomy. The report on stdout is
//! deterministic for a given (schema, count, seed, instances) — identical
//! across `--jobs` settings; throughput goes to stderr. Exit code is `1`
//! if any case lands in the `unclassified` bucket, else `0`.
//!
//! **lint** runs the schema-aware static analyzer alone — no target
//! query, no solver: typed lints, aggregate-placement checks and
//! interval abstract interpretation over each file (see the
//! `qrhint-analysis` crate for the diagnostic catalogue). Exit `0` if
//! every file is clean, `4` if diagnostics were found.
//!
//! **serve** runs the long-lived grading daemon (see `qrhint-server`):
//! targets are registered over HTTP and stay hot — compiled once,
//! advice/grade requests ride the session layer's warm caches. The first
//! stdout line is `qr-hint serving on http://ADDR` (with the resolved
//! ephemeral port for `--addr ...:0`); `POST /shutdown` drains
//! gracefully. Per-request access logs (request id, route, status,
//! latency, bytes) go to stderr at `info` level — `--log-level`
//! (`error|warn|info|debug|trace`, default `info`) filters them and
//! `--log-format json` switches from logfmt text to one JSON object
//! per line. `GET /metrics` serves Prometheus text exposition.
//!
//! **route** runs the scale-out router (see `qrhint_server::router`):
//! it consistent-hashes target ids across N backend `serve` daemons —
//! spawned as children (`--spawn N`, ephemeral ports) and/or joined
//! (`--backend ADDR`, repeatable) — forwards requests over pooled
//! keep-alive connections, health-checks every backend each
//! `--health-interval-ms`, and re-shards deterministically when a
//! backend dies or rejoins. The first stdout line is
//! `qr-hint routing on http://ADDR (N backends)`. `POST /shutdown`
//! drains the router and its *spawned* children; joined backends stay
//! up. Both serve and route take `--max-pending`, the bounded dispatch
//! queue behind the `429 Too Many Requests` + `Retry-After` overload
//! contract.
//!
//! **advise `--trace-out trace.json`** records hierarchical span
//! timings (session → stage → oracle → solver) during the advise and
//! writes them as Chrome trace-event JSON — open the file in
//! `chrome://tracing` or <https://ui.perfetto.dev> for a flame view of
//! where the wall-clock went.
//!
//! `--json` switches either mode to machine-readable output: the full
//! serde-serialized [`Advice`] plus the rendered hint strings.
//! `--extended` enables the multi-block front-end (footnote 2 of the
//! paper: WITH, aggregation-free FROM subqueries, non-outer JOINs);
//! `--rewrite-subqueries` additionally opts into the positive EXISTS/IN
//! join rewrite of §3 (duplicate-count caveat applies).
//!
//! Exit codes distinguish whose fault a failure is (the full contract
//! lives in [`qr_hint::exitcode`]):
//! `0` success · `1` internal/tool error · `2` usage error ·
//! `3` the **working/submitted** SQL is malformed or unsupported ·
//! `4` lint diagnostics found (`lint` mode only)
//! (graders can separate "student wrote bad SQL" from "tool bug").
//! In grade mode the codes apply batch-wide, independent of `--jobs`:
//! `1` if any submission hit a tool-internal error (or a file was
//! unreadable), else `3` if any submission was malformed/unsupported,
//! else `0` — individual failures are still reported in place and never
//! abort the batch. A reader that closes the output pipe early
//! (`qr-hint --help | head -1`) ends the output, not the command: the
//! exit code stays the one above.

use qr_hint::exitcode;
use qr_hint::prelude::*;
use qrhint_core::QrHintError;
use qrhint_sqlparse::parse_schema;
use serde::Serialize;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};

/// `println!` through [`emit`]: never panics on a closed stdout.
macro_rules! outln {
    ($($arg:tt)*) => { emit(Stream::Out, format_args!($($arg)*)) };
}

/// `eprintln!` through [`emit`]: never panics on a closed stderr.
macro_rules! errln {
    ($($arg:tt)*) => { emit(Stream::Err, format_args!($($arg)*)) };
}

#[derive(Clone, Copy)]
enum Stream {
    Out = 0,
    Err = 1,
}

/// Per stream: a write has failed, so later lines are dropped.
static CLOSED: [AtomicBool; 2] = [AtomicBool::new(false), AtomicBool::new(false)];
/// A write failed for a reason other than a reader closing its pipe.
static WRITE_FAILED: AtomicBool = AtomicBool::new(false);

/// Write one line of CLI output. `println!` panics (exit 101) when the
/// reader has gone, as in `qr-hint --help | head -1`; here the first
/// failed write stops all later output to that stream instead. A closed
/// pipe keeps the exit status the command computes; any other write
/// error turns a success into `1` (see `main`), since output was lost.
fn emit(stream: Stream, line: std::fmt::Arguments) {
    use std::io::Write as _;
    let closed = &CLOSED[stream as usize];
    if closed.load(Ordering::Relaxed) {
        return;
    }
    let written = match stream {
        Stream::Out => writeln!(std::io::stdout(), "{line}"),
        Stream::Err => writeln!(std::io::stderr(), "{line}"),
    };
    if let Err(e) = written {
        closed.store(true, Ordering::Relaxed);
        if e.kind() != std::io::ErrorKind::BrokenPipe {
            WRITE_FAILED.store(true, Ordering::Relaxed);
        }
    }
}

// The full contract (including `4` = lint findings) lives in
// [`qr_hint::exitcode`]; these aliases keep the match arms short.
const EXIT_INTERNAL: u8 = exitcode::INTERNAL;
const EXIT_USAGE: u8 = exitcode::USAGE;
const EXIT_BAD_WORKING: u8 = exitcode::BAD_WORKING;

struct CliError {
    msg: String,
    code: u8,
}

impl CliError {
    fn internal(msg: impl Into<String>) -> CliError {
        CliError { msg: msg.into(), code: EXIT_INTERNAL }
    }

    fn bad_working(msg: impl Into<String>) -> CliError {
        CliError { msg: msg.into(), code: EXIT_BAD_WORKING }
    }
}

enum Mode {
    Advise,
    Grade,
    Serve,
    Route,
    Fuzz,
    Lint,
}

struct Args {
    mode: Mode,
    /// advise/grade: the schema file (serve receives schemas over HTTP).
    schema: String,
    target: String,
    /// advise mode: the student's working query file.
    working: Option<String>,
    /// grade mode: directory of `*.sql` submissions.
    submissions: Option<String>,
    /// Worker threads for batches/connections (1 = sequential, 0 =
    /// available parallelism via `--jobs 0` or `--jobs auto`).
    jobs: usize,
    /// serve mode: bind address.
    addr: String,
    /// serve mode: registry entry capacity.
    max_targets: usize,
    /// serve mode: registry byte budget, in MiB (0 = unlimited).
    max_cache_mb: usize,
    /// serve/route: bounded dispatch queue; beyond it requests shed 429.
    max_pending: usize,
    /// route mode: backend `serve` children to spawn.
    spawn: usize,
    /// route mode: already-running backends to join (repeatable).
    backends: Vec<String>,
    /// route mode: `/healthz` probe period in milliseconds.
    health_interval_ms: u64,
    /// fuzz mode: corpus size.
    count: usize,
    /// fuzz mode: corpus seed.
    seed: u64,
    /// fuzz mode: database instances per case.
    instances: usize,
    /// fuzz mode: write the corpus to a directory instead of grading it
    /// (schema DDL + base targets + mutant working queries, for `lint`).
    emit_corpus: Option<String>,
    /// advise mode: write a Chrome trace-event JSON span profile here.
    trace_out: Option<String>,
    /// serve mode: access-log format (default text/logfmt).
    log_format: qrhint_obs::LogFormat,
    /// serve mode: stderr log threshold (default info, so access logs
    /// are on; the library default of warn stays for the other modes).
    log_level: qrhint_obs::Level,
    /// lint mode: the `*.sql` files to analyze (positional).
    files: Vec<String>,
    interactive: bool,
    extended: bool,
    rewrite_subqueries: bool,
    json: bool,
}

const USAGE: &str = "usage: qr-hint [advise] --schema <schema.sql> --target <solution.sql> \
                     --working <student.sql> [--interactive] [--extended] \
                     [--rewrite-subqueries] [--json] [--trace-out <trace.json>]\n\
                     \x20      qr-hint grade --schema <schema.sql> --target <solution.sql> \
                     --submissions <dir> [--jobs <N|auto>] [--extended] \
                     [--rewrite-subqueries] [--json]\n\
                     \x20      qr-hint serve [--addr <host:port>] [--jobs <N|auto>] \
                     [--max-targets <N>] [--max-cache-mb <MB, 0=unlimited>] \
                     [--max-pending <N>] [--log-format <text|json>] \
                     [--log-level <error|warn|info|debug|trace>]\n\
                     \x20      qr-hint route [--addr <host:port>] (--spawn <N> | \
                     --backend <host:port> ...) \
                     [--health-interval-ms <MS>] [--max-pending <N>] \
                     [--log-format <text|json>] [--log-level <error|warn|info|debug|trace>]\n\
                     \x20      qr-hint fuzz --schema <beers|beers-course|brass|dblp|students|tpch> \
                     [--count <N>] [--seed <N>] [--jobs <N|auto>] [--instances <N>] \
                     [--emit-corpus <dir>] [--json]\n\
                     \x20      qr-hint lint --schema <schema.sql> <file.sql>... [--extended] \
                     [--rewrite-subqueries] [--json]\n\
                     \x20      qr-hint --version";

fn parse_args() -> Result<Args, String> {
    let mut schema = None;
    let mut target = None;
    let mut working = None;
    let mut submissions = None;
    let mut jobs = 1usize;
    let mut addr: Option<String> = None;
    let mut max_targets = 64usize;
    let mut max_cache_mb = 256usize;
    let mut max_pending = 1024usize;
    let mut spawn = 0usize;
    let mut backends: Vec<String> = Vec::new();
    let mut health_interval_ms = 250u64;
    let mut count = 1000usize;
    let mut seed = 42u64;
    let mut instances = 3usize;
    let mut emit_corpus = None;
    let mut trace_out = None;
    let mut log_format = None;
    let mut log_level = None;
    let mut interactive = false;
    let mut extended = false;
    let mut rewrite_subqueries = false;
    let mut json = false;
    let mut mode = Mode::Advise;
    let mut it = std::env::args().skip(1).peekable();
    // Optional leading subcommand.
    match it.peek().map(String::as_str) {
        Some("advise") => {
            it.next();
        }
        Some("grade") => {
            mode = Mode::Grade;
            it.next();
        }
        Some("serve") => {
            mode = Mode::Serve;
            jobs = 0; // a daemon defaults to the hardware's parallelism
            it.next();
        }
        Some("route") => {
            mode = Mode::Route;
            jobs = 0;
            it.next();
        }
        Some("fuzz") => {
            mode = Mode::Fuzz;
            it.next();
        }
        Some("lint") => {
            mode = Mode::Lint;
            it.next();
        }
        _ => {}
    }
    let mut files: Vec<String> = Vec::new();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--schema" => schema = Some(it.next().ok_or("--schema needs a file")?),
            "--target" => target = Some(it.next().ok_or("--target needs a file")?),
            "--working" => working = Some(it.next().ok_or("--working needs a file")?),
            "--submissions" => {
                submissions = Some(it.next().ok_or("--submissions needs a directory")?)
            }
            "--jobs" | "-j" => {
                let n = it.next().ok_or("--jobs needs a thread count")?;
                // `auto` and `0` both mean "use available parallelism".
                jobs = if n == "auto" {
                    0
                } else {
                    n.parse::<usize>()
                        .map_err(|_| format!("--jobs needs a count or `auto`, got `{n}`"))?
                };
            }
            "--addr" => addr = Some(it.next().ok_or("--addr needs host:port")?),
            "--max-targets" => {
                let n = it.next().ok_or("--max-targets needs a count")?;
                max_targets = n
                    .parse::<usize>()
                    .ok()
                    .filter(|n| *n >= 1)
                    .ok_or_else(|| format!("--max-targets needs a positive integer, got `{n}`"))?;
            }
            "--max-cache-mb" => {
                let n = it.next().ok_or("--max-cache-mb needs a size")?;
                max_cache_mb = n
                    .parse::<usize>()
                    .map_err(|_| format!("--max-cache-mb needs an integer, got `{n}`"))?;
            }
            "--max-pending" => {
                let n = it.next().ok_or("--max-pending needs a queue bound")?;
                max_pending = n
                    .parse::<usize>()
                    .ok()
                    .filter(|n| *n >= 1)
                    .ok_or_else(|| format!("--max-pending needs a positive integer, got `{n}`"))?;
            }
            "--spawn" => {
                let n = it.next().ok_or("--spawn needs a backend count")?;
                spawn = n
                    .parse::<usize>()
                    .ok()
                    .filter(|n| *n >= 1)
                    .ok_or_else(|| format!("--spawn needs a positive integer, got `{n}`"))?;
            }
            "--backend" => backends.push(it.next().ok_or("--backend needs host:port")?),
            "--health-interval-ms" => {
                let n = it.next().ok_or("--health-interval-ms needs milliseconds")?;
                health_interval_ms = n
                    .parse::<u64>()
                    .ok()
                    .filter(|n| *n >= 1)
                    .ok_or_else(|| {
                        format!("--health-interval-ms needs a positive integer, got `{n}`")
                    })?;
            }
            "--count" => {
                let n = it.next().ok_or("--count needs a number of pairs")?;
                count = n
                    .parse::<usize>()
                    .ok()
                    .filter(|n| *n >= 1)
                    .ok_or_else(|| format!("--count needs a positive integer, got `{n}`"))?;
            }
            "--seed" => {
                let n = it.next().ok_or("--seed needs an integer")?;
                seed = n
                    .parse::<u64>()
                    .map_err(|_| format!("--seed needs an unsigned integer, got `{n}`"))?;
            }
            "--instances" => {
                let n = it.next().ok_or("--instances needs a count")?;
                instances = n
                    .parse::<usize>()
                    .ok()
                    .filter(|n| *n >= 1)
                    .ok_or_else(|| format!("--instances needs a positive integer, got `{n}`"))?;
            }
            "--emit-corpus" => {
                emit_corpus = Some(it.next().ok_or("--emit-corpus needs a directory")?)
            }
            "--trace-out" => trace_out = Some(it.next().ok_or("--trace-out needs a file")?),
            "--log-format" => {
                let v = it.next().ok_or("--log-format needs `text` or `json`")?;
                log_format = Some(
                    qrhint_obs::LogFormat::parse(&v).ok_or_else(|| {
                        format!("--log-format needs `text` or `json`, got `{v}`")
                    })?,
                );
            }
            "--log-level" => {
                let v = it.next().ok_or("--log-level needs a level name")?;
                log_level = Some(qrhint_obs::Level::parse(&v).ok_or_else(|| {
                    format!("--log-level needs error|warn|info|debug|trace, got `{v}`")
                })?);
            }
            "--interactive" | "-i" => interactive = true,
            "--extended" | "-x" => extended = true,
            "--rewrite-subqueries" => {
                extended = true;
                rewrite_subqueries = true;
            }
            "--json" => json = true,
            // --help/--version are intercepted in main() (success path).
            // lint takes its files positionally.
            other if matches!(mode, Mode::Lint) && !other.starts_with('-') => {
                files.push(other.to_string())
            }
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    // serve receives schemas/targets over HTTP (POST /targets, where
    // `extended`/`rewrite_subqueries` are per-target request fields);
    // accepting the file-mode flags here and ignoring them would make
    // `serve --target t.sql` look like it pre-registered a target.
    let (schema, target) = match mode {
        Mode::Serve => {
            if schema.is_some()
                || target.is_some()
                || working.is_some()
                || submissions.is_some()
                || interactive
                || extended
                || json
            {
                return Err(format!(
                    "serve mode takes no file or output flags — targets are registered \
                     over HTTP (POST /targets)\n{USAGE}"
                ));
            }
            (String::new(), String::new())
        }
        Mode::Route => {
            if schema.is_some()
                || target.is_some()
                || working.is_some()
                || submissions.is_some()
                || interactive
                || extended
                || json
            {
                return Err(format!(
                    "route mode takes no file or output flags — targets are registered \
                     over HTTP (POST /targets)\n{USAGE}"
                ));
            }
            if spawn == 0 && backends.is_empty() {
                return Err(format!(
                    "route mode needs at least one backend: --spawn <N> and/or \
                     --backend <host:port>\n{USAGE}"
                ));
            }
            (String::new(), String::new())
        }
        Mode::Fuzz => {
            if target.is_some() || working.is_some() || submissions.is_some() || interactive {
                return Err(format!(
                    "fuzz mode takes a workload schema name plus corpus flags only\n{USAGE}"
                ));
            }
            let name = schema
                .ok_or_else(|| format!("fuzz mode requires --schema <workload name>\n{USAGE}"))?;
            if !qr_hint::workloads::mutate::SCHEMA_NAMES.contains(&name.as_str()) {
                return Err(format!(
                    "unknown workload schema `{name}` (expected one of: {})\n{USAGE}",
                    qr_hint::workloads::mutate::SCHEMA_NAMES.join(", ")
                ));
            }
            (name, String::new())
        }
        Mode::Lint => {
            if target.is_some() || working.is_some() || submissions.is_some() || interactive {
                return Err(format!(
                    "lint mode takes --schema plus positional SQL files only\n{USAGE}"
                ));
            }
            if files.is_empty() {
                return Err(format!("lint mode requires at least one SQL file\n{USAGE}"));
            }
            (
                schema.ok_or_else(|| format!("--schema is required\n{USAGE}"))?,
                String::new(),
            )
        }
        _ => (
            schema.ok_or_else(|| format!("--schema is required\n{USAGE}"))?,
            target.ok_or_else(|| format!("--target is required\n{USAGE}"))?,
        ),
    };
    if emit_corpus.is_some() && !matches!(mode, Mode::Fuzz) {
        return Err(format!("--emit-corpus only applies to fuzz mode\n{USAGE}"));
    }
    if trace_out.is_some() && !matches!(mode, Mode::Advise) {
        return Err(format!("--trace-out only applies to advise mode\n{USAGE}"));
    }
    if (log_format.is_some() || log_level.is_some())
        && !matches!(mode, Mode::Serve | Mode::Route)
    {
        return Err(format!(
            "--log-format/--log-level only apply to serve and route modes\n{USAGE}"
        ));
    }
    if (spawn > 0 || !backends.is_empty() || health_interval_ms != 250)
        && !matches!(mode, Mode::Route)
    {
        return Err(format!(
            "--spawn/--backend/--health-interval-ms only apply to route mode\n{USAGE}"
        ));
    }
    match mode {
        Mode::Advise if working.is_none() => {
            return Err(format!("--working is required\n{USAGE}"))
        }
        Mode::Grade if submissions.is_none() => {
            return Err(format!("grade mode requires --submissions\n{USAGE}"))
        }
        _ => {}
    }
    // The router sits in front of `serve` daemons, so the two defaults
    // must not collide on one host.
    let addr = addr.unwrap_or_else(|| {
        if matches!(mode, Mode::Route) {
            "127.0.0.1:7979".to_string()
        } else {
            "127.0.0.1:7878".to_string()
        }
    });
    Ok(Args {
        mode,
        schema,
        target,
        working,
        submissions,
        jobs,
        addr,
        max_targets,
        max_cache_mb,
        max_pending,
        spawn,
        backends,
        health_interval_ms,
        count,
        seed,
        instances,
        emit_corpus,
        trace_out,
        log_format: log_format.unwrap_or(qrhint_obs::LogFormat::Text),
        log_level: log_level.unwrap_or(qrhint_obs::Level::Info),
        files,
        interactive,
        extended,
        rewrite_subqueries,
        json,
    })
}

/// One graded submission in batch mode.
#[derive(Serialize)]
struct GradeEntry {
    file: String,
    ok: bool,
    /// Parse/resolve/unsupported error for this submission, if any.
    error: Option<String>,
    report: Option<AdviceReport>,
}

/// Batch-wide rollup for `grade --json`. Every field is derived from the
/// per-entry results, so the summary — like the entries — is
/// byte-identical across `--jobs` settings. (The session's cache and
/// solver counters are *not* here for exactly that reason: cache-race
/// timing makes them jobs-dependent, so they stay on the server's stats
/// endpoint.)
#[derive(Serialize)]
struct GradeSummary {
    submissions: usize,
    equivalent: usize,
    hinted: usize,
    malformed: usize,
    /// Total analyzer diagnostics across all graded submissions.
    diagnostics: usize,
    /// Submissions with at least one error-severity diagnostic.
    diagnostic_errors: usize,
}

#[derive(Serialize)]
struct GradeOutput {
    summary: GradeSummary,
    entries: Vec<GradeEntry>,
}

fn summarize(entries: &[GradeEntry]) -> GradeSummary {
    let equivalent =
        entries.iter().filter(|e| e.report.as_ref().is_some_and(|r| r.equivalent)).count();
    let malformed = entries.iter().filter(|e| !e.ok).count();
    GradeSummary {
        submissions: entries.len(),
        equivalent,
        hinted: entries.len() - equivalent - malformed,
        malformed,
        diagnostics: entries
            .iter()
            .filter_map(|e| e.report.as_ref())
            .map(|r| r.diagnostics.len())
            .sum(),
        diagnostic_errors: entries
            .iter()
            .filter_map(|e| e.report.as_ref())
            .filter(|r| qr_hint::analysis::has_errors(&r.diagnostics))
            .count(),
    }
}

fn read(path: &str) -> Result<String, CliError> {
    std::fs::read_to_string(path)
        .map_err(|e| CliError::internal(format!("cannot read {path}: {e}")))
}

/// Classify a pipeline error on the *working* side: the student's SQL
/// being malformed/unsupported is their problem (exit 3), anything else
/// is ours (exit 1).
fn working_error(e: QrHintError) -> CliError {
    match e {
        QrHintError::Parse(_) | QrHintError::Resolve(_) | QrHintError::Unsupported(_) => {
            CliError::bad_working(format!("working query: {e}"))
        }
        other => CliError::internal(format!("working query: {other}")),
    }
}

fn compile(args: &Args) -> Result<PreparedTarget, CliError> {
    let schema = parse_schema(&read(&args.schema)?)
        .map_err(|e| CliError::internal(format!("schema: {e}")))?;
    let qr = QrHint::new(schema);
    let opts = FlattenOptions { rewrite_positive_subqueries: args.rewrite_subqueries };
    let target_sql = read(&args.target)?;
    let prepared = if args.extended {
        qr.compile_target_extended(&target_sql, &opts)
    } else {
        qr.compile_target(&target_sql)
    };
    prepared.map_err(|e| CliError::internal(format!("target query: {e}")))
}

fn emit_json<T: Serialize>(value: &T) -> Result<(), CliError> {
    let json = serde_json::to_string_pretty(value)
        .map_err(|e| CliError::internal(format!("JSON serialization failed: {e}")))?;
    outln!("{json}");
    Ok(())
}

/// `advise --trace-out`: record span events around the whole advise
/// pipeline and write them as Chrome trace-event JSON. The trace is
/// written even when advising fails — a profile of the failing run is
/// exactly what one wants then — but the advise error stays the exit
/// status.
fn run_advise(args: &Args) -> Result<(), CliError> {
    let Some(path) = &args.trace_out else {
        return run_advise_inner(args);
    };
    qrhint_obs::span::enable_tracing();
    let result = run_advise_inner(args);
    qrhint_obs::span::disable_tracing();
    let (events, dropped) = qrhint_obs::span::take_events();
    if dropped > 0 {
        errln!("trace: {dropped} span(s) dropped (buffer full)");
    }
    let json = qrhint_obs::span::chrome_trace_json(&events);
    match std::fs::write(path, json) {
        Ok(()) => {
            errln!("trace: {} span(s) written to {path}", events.len());
            result
        }
        // An advise failure outranks the write failure as the reported
        // error (`and` keeps the first Err).
        Err(e) => result.and(Err(CliError::internal(format!("cannot write {path}: {e}")))),
    }
}

fn run_advise_inner(args: &Args) -> Result<(), CliError> {
    let prepared = compile(args)?;
    let working_sql = read(args.working.as_deref().expect("checked in parse_args"))?;
    let working = prepared.prepare(&working_sql).map_err(working_error)?;

    if !args.interactive {
        let advice = prepared.advise(&working).map_err(|e| CliError::internal(e.to_string()))?;
        let diagnostics = prepared.lint(&working);
        if args.json {
            return emit_json(&AdviceReport::with_diagnostics(advice, diagnostics));
        }
        if advice.is_equivalent() {
            outln!("✓ The working query is already equivalent to the target.");
        } else {
            outln!("[1] stage {}:", advice.stage);
            for hint in &advice.hints {
                outln!("  {hint}");
            }
        }
        if !diagnostics.is_empty() {
            outln!("analyzer:");
            for d in &diagnostics {
                outln!("  {d}");
            }
        }
        return Ok(());
    }

    // Interactive: the session loop, skipping cleared stages.
    let mut session = prepared.tutor(working);
    let mut reports = Vec::new();
    let mut round = 0usize;
    let cap = prepared.config().max_stage_applications;
    while !session.is_done() {
        round += 1;
        if round > cap {
            return Err(CliError::internal(format!(
                "did not converge within {cap} stage applications"
            )));
        }
        let advice = session.step().map_err(|e| CliError::internal(e.to_string()))?;
        if args.json {
            reports.push(AdviceReport::new(advice));
            continue;
        }
        if advice.is_equivalent() {
            if round == 1 {
                outln!("✓ The working query is already equivalent to the target.");
            } else {
                outln!("✓ Equivalent after {} stage(s).", round - 1);
                outln!("Final query:\n  {}", session.working());
            }
        } else {
            outln!("[{}] stage {}:", round, advice.stage);
            for hint in &advice.hints {
                outln!("  {hint}");
            }
        }
    }
    if args.json {
        emit_json(&reports)?;
    }
    Ok(())
}

/// Grade one submission file. The second component classifies failures
/// for the batch-wide exit code: `0` graded, `EXIT_BAD_WORKING` the
/// student's SQL is malformed/unsupported, `EXIT_INTERNAL` tool error.
fn grade_one(prepared: &PreparedTarget, path: &std::path::Path) -> (GradeEntry, u8) {
    let file = path.display().to_string();
    match std::fs::read_to_string(path) {
        Err(e) => (
            GradeEntry {
                file,
                ok: false,
                error: Some(format!("cannot read: {e}")),
                report: None,
            },
            EXIT_INTERNAL,
        ),
        Ok(sql) => match prepared.prepare(&sql).and_then(|q| prepared.advise(&q).map(|a| (q, a)))
        {
            Ok((q, advice)) => (
                GradeEntry {
                    file,
                    ok: true,
                    error: None,
                    report: Some(AdviceReport::with_diagnostics(advice, prepared.lint(&q))),
                },
                0,
            ),
            Err(e) => {
                let code = working_error(e.clone()).code;
                (
                    GradeEntry { file, ok: false, error: Some(e.to_string()), report: None },
                    code,
                )
            }
        },
    }
}

fn run_grade(args: &Args) -> Result<u8, CliError> {
    let prepared = compile(args)?;
    let dir = args.submissions.as_deref().expect("checked in parse_args");
    let mut files: Vec<std::path::PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| CliError::internal(format!("cannot read {dir}: {e}")))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "sql"))
        .collect();
    files.sort();
    if files.is_empty() {
        return Err(CliError::internal(format!("no *.sql submissions in {dir}")));
    }

    // The prepared target's caches are sharded for concurrency, so
    // the workers share it directly; results come back in file order
    // and are identical to the sequential (`--jobs 1`) output.
    let jobs = qrhint_core::parallel::resolve_jobs(args.jobs);
    let graded = qrhint_core::parallel::run_indexed(files.len(), jobs, |i| {
        grade_one(&prepared, &files[i])
    });
    // Batch-wide exit code: any internal error wins over any malformed
    // submission, which wins over success.
    let exit = if graded.iter().any(|(_, c)| *c == EXIT_INTERNAL) {
        EXIT_INTERNAL
    } else if graded.iter().any(|(_, c)| *c == EXIT_BAD_WORKING) {
        EXIT_BAD_WORKING
    } else {
        0
    };
    let entries: Vec<GradeEntry> = graded.into_iter().map(|(entry, _)| entry).collect();

    if args.json {
        emit_json(&GradeOutput { summary: summarize(&entries), entries })?;
        return Ok(exit);
    }
    let summary = summarize(&entries);
    for e in &entries {
        match (&e.report, &e.error) {
            (Some(r), _) if r.equivalent => outln!("✓ {}", e.file),
            (Some(r), _) => {
                outln!("✗ {} — stage {}:", e.file, r.stage);
                for hint in &r.rendered_hints {
                    outln!("    {hint}");
                }
            }
            (None, Some(err)) => outln!("! {} — {err}", e.file),
            (None, None) => unreachable!("entry without report or error"),
        }
    }
    outln!(
        "\n{} submission(s): {} equivalent, {} hinted, {} malformed, {} diagnostic(s)",
        summary.submissions, summary.equivalent, summary.hinted, summary.malformed,
        summary.diagnostics
    );
    Ok(exit)
}

/// The `lint` subcommand: schema-aware static analysis only — no target,
/// no solver. Exit codes: `0` every file clean, `4` diagnostics found,
/// `3` a file's SQL is malformed/unsupported, `1` a file is unreadable
/// (folded batch-wide by [`exitcode::worst`]).
fn run_lint(args: &Args) -> Result<u8, CliError> {
    use qr_hint::ast::resolve::resolve_query;

    #[derive(Serialize)]
    struct LintEntry {
        file: String,
        ok: bool,
        error: Option<String>,
        clean: bool,
        errors: bool,
        diagnostics: Vec<qr_hint::analysis::Diagnostic>,
    }

    let schema = parse_schema(&read(&args.schema)?)
        .map_err(|e| CliError::internal(format!("schema: {e}")))?;
    let opts = FlattenOptions { rewrite_positive_subqueries: args.rewrite_subqueries };
    let mut entries = Vec::new();
    let mut codes = Vec::new();
    for file in &args.files {
        let entry = match std::fs::read_to_string(file) {
            Err(e) => {
                codes.push(exitcode::INTERNAL);
                LintEntry {
                    file: file.clone(),
                    ok: false,
                    error: Some(format!("cannot read: {e}")),
                    clean: false,
                    errors: false,
                    diagnostics: Vec::new(),
                }
            }
            Ok(sql) => {
                let parsed = if args.extended {
                    parse_query_extended(&sql, &opts).map_err(QrHintError::from)
                } else {
                    parse_query(&sql).map_err(QrHintError::from)
                };
                match parsed.and_then(|q| Ok(resolve_query(&schema, &q)?)) {
                    Ok(q) => {
                        let diagnostics = qr_hint::analysis::analyze(&schema, &q);
                        codes.push(if diagnostics.is_empty() {
                            exitcode::SUCCESS
                        } else {
                            exitcode::LINT_FINDINGS
                        });
                        LintEntry {
                            file: file.clone(),
                            ok: true,
                            error: None,
                            clean: diagnostics.is_empty(),
                            errors: qr_hint::analysis::has_errors(&diagnostics),
                            diagnostics,
                        }
                    }
                    Err(e) => {
                        codes.push(working_error(e.clone()).code);
                        LintEntry {
                            file: file.clone(),
                            ok: false,
                            error: Some(e.to_string()),
                            clean: false,
                            errors: false,
                            diagnostics: Vec::new(),
                        }
                    }
                }
            }
        };
        entries.push(entry);
    }

    if args.json {
        emit_json(&entries)?;
    } else {
        let mut total = 0usize;
        for e in &entries {
            match &e.error {
                Some(err) => outln!("! {} — {err}", e.file),
                None if e.clean => outln!("✓ {}", e.file),
                None => {
                    total += e.diagnostics.len();
                    for d in &e.diagnostics {
                        outln!("{}: {d}", e.file);
                    }
                }
            }
        }
        outln!(
            "\n{} file(s): {} diagnostic(s), {} with errors",
            entries.len(),
            total,
            entries.iter().filter(|e| e.errors).count()
        );
    }
    Ok(exitcode::worst(codes))
}

/// The `fuzz` subcommand: seeded mutation corpus → grade → repair →
/// execute → classify. Stdout carries only the deterministic report
/// (text or `--json`); wall-clock throughput goes to stderr so output
/// can be diffed across `--jobs` settings.
fn run_fuzz(args: &Args) -> Result<u8, CliError> {
    use qr_hint::workloads::differential::{run, RunConfig};
    let cfg = RunConfig { jobs: args.jobs, instances: args.instances };
    let started = std::time::Instant::now();
    // Corpus-export mode: write the deterministic corpus for offline
    // tooling (CI's lint-smoke job points `qr-hint lint` at it) and
    // skip grading entirely.
    if let Some(dir) = &args.emit_corpus {
        return emit_fuzz_corpus(&args.schema, args.count, args.seed, dir);
    }
    // An unknown schema name is the caller's mistake, not a tool error:
    // exit 2, consistent with the `parse_args` validation (this path is
    // the backstop in case the two schema lists ever drift).
    let report = run(&args.schema, args.count, args.seed, &cfg).ok_or(CliError {
        msg: format!("unknown workload schema {}\n{USAGE}", args.schema),
        code: EXIT_USAGE,
    })?;
    let elapsed = started.elapsed().as_secs_f64();
    errln!(
        "fuzzed {} pairs in {:.2}s ({:.0} pairs/s)",
        report.total,
        elapsed,
        report.total as f64 / elapsed.max(1e-9)
    );
    if args.json {
        emit_json(&report)?;
    } else {
        outln!(
            "schema {} · {} pairs · seed {} · {} instance(s) per pair",
            report.schema, report.total, report.seed, report.exec_instances
        );
        for (class, n) in &report.classes {
            outln!("  {class:<22} {n}");
        }
        for d in &report.divergent {
            outln!("divergent {} [{}]: {}", d.id, d.class, d.detail);
            outln!("  target:  {}", d.target_sql);
            outln!("  working: {}", d.working_sql);
        }
        if report.divergent_truncated {
            outln!("(divergent list truncated at {})", report.divergent.len());
        }
    }
    Ok(if report.unclassified > 0 { EXIT_INTERNAL } else { 0 })
}

/// `fuzz --emit-corpus <dir>`: materialize the seeded corpus on disk —
/// `schema.sql` (DDL that round-trips the schema parser),
/// `targets/<base>.sql` (the reference queries; analyzer-clean by the
/// no-false-positives property), and `cases/<id>.sql` (the mutant
/// working queries). Layout is consumed by CI's lint-smoke job.
fn emit_fuzz_corpus(schema: &str, count: usize, seed: u64, dir: &str) -> Result<u8, CliError> {
    use qr_hint::workloads::mutate::Fuzzer;
    let fuzzer = Fuzzer::for_schema(schema).ok_or(CliError {
        msg: format!("unknown workload schema {schema}\n{USAGE}"),
        code: EXIT_USAGE,
    })?;
    let base = std::path::Path::new(dir);
    let write = |rel: std::path::PathBuf, contents: String| -> Result<(), CliError> {
        std::fs::write(&rel, contents)
            .map_err(|e| CliError::internal(format!("write {}: {e}", rel.display())))
    };
    for sub in ["targets", "cases"] {
        std::fs::create_dir_all(base.join(sub))
            .map_err(|e| CliError::internal(format!("create {dir}/{sub}: {e}")))?;
    }
    write(base.join("schema.sql"), fuzzer.schema().to_ddl())?;
    for (id, target) in fuzzer.bases() {
        write(base.join("targets").join(format!("{id}.sql")), format!("{target}\n"))?;
    }
    let cases = fuzzer.generate(count, seed);
    for case in &cases {
        write(base.join("cases").join(format!("{}.sql", case.id)), format!("{}\n", case.working))?;
    }
    errln!(
        "emitted {} corpus to {dir}: schema.sql, {} target(s), {} case(s)",
        schema,
        fuzzer.bases().len(),
        cases.len()
    );
    Ok(exitcode::SUCCESS)
}

/// The `serve` subcommand: bind, announce the resolved address on the
/// first stdout line (scripts and the CI smoke job parse it), then
/// block until a `POST /shutdown` drains the daemon.
fn run_serve(args: &Args) -> Result<(), CliError> {
    // A daemon wants its access logs: raise the library's quiet `warn`
    // default to `info` unless the operator said otherwise.
    qrhint_obs::log::set_format(args.log_format);
    qrhint_obs::log::set_level(args.log_level);
    let cfg = ServerConfig {
        addr: args.addr.clone(),
        workers: args.jobs,
        service: ServiceConfig {
            jobs: args.jobs,
            registry: qr_hint::server::RegistryConfig {
                max_targets: args.max_targets,
                max_cache_bytes: args.max_cache_mb * 1024 * 1024,
            },
        },
        max_pending: args.max_pending,
    };
    let server = Server::bind(cfg)
        .map_err(|e| CliError::internal(format!("cannot bind {}: {e}", args.addr)))?;
    outln!("qr-hint serving on http://{}", server.addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    server
        .run()
        .map_err(|e| CliError::internal(format!("server error: {e}")))?;
    outln!("qr-hint drained; bye");
    Ok(())
}

/// The `route` subcommand: spawn/join backends, bind the router,
/// announce the resolved address on the first stdout line (scripts and
/// the CI smoke job parse it), then block until a `POST /shutdown`
/// drains the router and its spawned children.
fn run_route(args: &Args) -> Result<(), CliError> {
    use qr_hint::server::router::{Router, RouterConfig};
    qrhint_obs::log::set_format(args.log_format);
    qrhint_obs::log::set_level(args.log_level);
    let mut backends = Vec::with_capacity(args.backends.len());
    for b in &args.backends {
        backends.push(b.parse().map_err(|e| CliError {
            msg: format!("--backend `{b}` is not host:port: {e}"),
            code: EXIT_USAGE,
        })?);
    }
    let cfg = RouterConfig {
        addr: args.addr.clone(),
        backends,
        spawn: args.spawn,
        health_interval: std::time::Duration::from_millis(args.health_interval_ms),
        workers: args.jobs,
        max_pending: args.max_pending,
    };
    let router = Router::start(cfg)
        .map_err(|e| CliError::internal(format!("cannot start router on {}: {e}", args.addr)))?;
    outln!(
        "qr-hint routing on http://{} ({} backends)",
        router.addr(),
        router.backend_addrs().len()
    );
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    router
        .run()
        .map_err(|e| CliError::internal(format!("router error: {e}")))?;
    outln!("qr-hint router drained; bye");
    Ok(())
}

fn main() -> ExitCode {
    let code = run();
    if code == exitcode::SUCCESS && WRITE_FAILED.load(Ordering::Relaxed) {
        errln!("error: output could not be written");
        return ExitCode::from(EXIT_INTERNAL);
    }
    ExitCode::from(code)
}

/// Parse the command line and run its mode; returns the exit code.
fn run() -> u8 {
    // `--version`/`--help` anywhere on the line: print to stdout, exit 0.
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--version" || a == "-V") {
        outln!("qr-hint {}", env!("CARGO_PKG_VERSION"));
        return exitcode::SUCCESS;
    }
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        outln!("{USAGE}");
        return exitcode::SUCCESS;
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            errln!("{msg}");
            return EXIT_USAGE;
        }
    };
    let result = match args.mode {
        Mode::Advise => run_advise(&args).map(|()| 0),
        Mode::Grade => run_grade(&args),
        Mode::Serve => run_serve(&args).map(|()| 0),
        Mode::Route => run_route(&args).map(|()| 0),
        Mode::Fuzz => run_fuzz(&args),
        Mode::Lint => run_lint(&args),
    };
    result.unwrap_or_else(|e| {
        errln!("error: {}", e.msg);
        e.code
    })
}
