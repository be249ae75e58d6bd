//! `perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! --qr-hint PATH --work-dir DIR`
//!
//! Runs one workload and prints, last on stdout, one JSON object with
//! `correct`, `attempted`, `failed` and the metrics: the end-to-end set
//! untraced, the per-layer set with `--trace 1`. `run.sh` in this
//! directory builds the program and this benchmark, then calls this.

use qrhint_perfbench::corpus::{Corpus, DEFAULT_SEED};
use qrhint_perfbench::report::{Outcome, END_TO_END, PER_LAYER};
use qrhint_perfbench::{cli, inproc, serving};
use std::path::PathBuf;
use std::process::ExitCode;

const WORKLOADS: &[&str] = &["classroom", "wide-where", "cli-cold"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    qr_hint: Option<PathBuf>,
    work_dir: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10,
        trace: false,
        qr_hint: None,
        work_dir: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let number = |v: String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: `{v}` is not a number"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = number(value()?)?,
            "--seconds" => args.seconds = number(value()?)?.max(1),
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got `{v}`")),
                }
            }
            "--qr-hint" => args.qr_hint = Some(PathBuf::from(value()?)),
            "--work-dir" => args.work_dir = Some(PathBuf::from(value()?)),
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    Ok(args)
}

fn run(args: &Args) -> Result<Outcome, String> {
    let binary = || {
        args.qr_hint
            .clone()
            .filter(|p| p.is_file())
            .ok_or_else(|| "this workload needs --qr-hint pointing at the built binary".to_string())
    };
    Ok(match args.workload.as_str() {
        "classroom" => {
            let corpus = Corpus::course(args.seed);
            if !args.trace {
                return Ok(inproc::run(&corpus, args.seconds));
            }
            // Half the traced run is in-process, half the serving stack
            // under the same submissions.
            let half = args.seconds as f64 / 2.0;
            let mut out = inproc::run_traced(&corpus, half);
            serving::measure_layers(&binary()?, &corpus, args.seed, half, &mut out)?;
            out
        }
        "wide-where" => {
            let corpus = Corpus::wide(args.seed);
            if args.trace {
                inproc::run_traced(&corpus, args.seconds as f64)
            } else {
                inproc::run(&corpus, args.seconds)
            }
        }
        "cli-cold" => {
            let corpus = Corpus::course(args.seed);
            let work = args.work_dir.clone().ok_or("cli-cold needs --work-dir")?;
            cli::run(&binary()?, &work, &corpus, args.seconds, args.trace)?
        }
        _ => unreachable!("workload validated in parse_args"),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            return ExitCode::from(2);
        }
    };
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    match run(&args) {
        Ok(outcome) => {
            outcome.print(if args.trace { PER_LAYER } else { END_TO_END });
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            ExitCode::FAILURE
        }
    }
}
