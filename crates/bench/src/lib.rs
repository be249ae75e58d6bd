//! # qrhint-bench
//!
//! The experiment harness regenerating every table and figure of the
//! Qr-Hint paper's evaluation (§9) and user study (§10). Each experiment
//! has a library function (reused by the Criterion benches) and a binary
//! that prints the paper-shaped rows and emits machine-readable JSON
//! next to them:
//!
//! | Binary | Paper artifact |
//! |--------|----------------|
//! | `exp_students` | §9.1 Students+ coverage, App. Tables 4–5 (E1/E10/E11) |
//! | `exp_fig2` | Figure 2a/2b — conjunctive WHERE, 4–11 atoms |
//! | `exp_fig3` | Figure 3a/3b — nested AND/OR, 1–5 errors |
//! | `exp_fig4` | Figure 4a/4b — cost-over-time traces |
//! | `exp_user_study` | Figures 5–6 — simulated-participant replay |
//! | `exp_dblp_hints` | App. Tables 2–3 — study hints regeneration |
//! | `exp_fuzz` | Mutation-fuzz grading: pairs/sec and verdict-cache hit rate at 1/4/8 threads (`BENCH_fuzz.json`) |
//! | `exp_analyze` | Static analyzer: corpus throughput (`BENCH_analyze.json`) |
//! | `exp_soak` | Scale-out serving soak: router + 2 backends, mixed load, overload shedding, fuzz-corpus ingest, failover recovery (`BENCH_soak.json`) |
//!
//! The repository's end-to-end benchmark is `perfbench/`, declared by
//! `BENCHMARK.json`; the last three binaries measure what it does not
//! run.

#![forbid(unsafe_code)]

pub mod analyze;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fuzz;
pub mod report;
pub mod soak;
pub mod students_exp;
pub mod userstudy;

/// Default output directory for experiment artifacts.
pub const RESULTS_DIR: &str = "target/experiments";

/// Ensure the results directory exists and return the path for a file.
pub fn results_path(name: &str) -> std::path::PathBuf {
    let dir = std::path::PathBuf::from(RESULTS_DIR);
    let _ = std::fs::create_dir_all(&dir);
    dir.join(name)
}
