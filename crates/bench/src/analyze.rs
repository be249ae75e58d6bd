//! Static-analysis benchmark (PR 7): analyzer throughput over the
//! seeded fuzz corpora.
//!
//! `qrhint_analysis::analyze` runs over every working query of each
//! workload's seed-42 mutation corpus (min-of-reps wall clock). The
//! analyzer sits on the hot path of `advise`/`lint`/`serve`, so
//! queries/sec is the number that bounds how much latency the pass adds
//! per submission. The numbers are report-only (CI runs this without
//! gating on speed). Results land in `BENCH_analyze.json` (run from the
//! repo root: `cargo run --release --bin exp_analyze`).

use qrhint_workloads::mutate::{Fuzzer, SCHEMA_NAMES};
use serde::Serialize;
use std::time::Instant;

/// Corpus seed: the same default `qr-hint fuzz` advertises.
pub const SEED: u64 = 42;
/// Working queries analyzed per schema in the throughput pass.
pub const CORPUS_PER_SCHEMA: usize = 120;
const TIMED_REPS: usize = 3;

/// Analyzer throughput over one workload corpus.
#[derive(Debug, Clone, Serialize)]
pub struct ThroughputRow {
    pub schema: String,
    pub queries: usize,
    /// Total diagnostics across the corpus (mutants included, so
    /// nonzero is expected — contradictions and ungrouped columns are
    /// exactly what the fuzzer injects).
    pub diagnostics: usize,
    /// Min-of-reps wall clock for analyzing the whole corpus.
    pub ms: f64,
    pub queries_per_s: f64,
}

#[derive(Debug, Clone, Serialize)]
pub struct AnalyzeReport {
    pub seed: u64,
    pub rows: Vec<ThroughputRow>,
}

fn throughput() -> Vec<ThroughputRow> {
    SCHEMA_NAMES
        .iter()
        .map(|name| {
            let fuzzer = Fuzzer::for_schema(name).expect("known schema");
            let cases = fuzzer.generate(CORPUS_PER_SCHEMA, SEED);
            let schema = fuzzer.schema();
            let mut diagnostics = 0usize;
            let mut best_ms = f64::INFINITY;
            for rep in 0..TIMED_REPS {
                let started = Instant::now();
                let mut count = 0usize;
                for case in &cases {
                    count += qr_hint::analysis::analyze(schema, &case.working).len();
                }
                best_ms = best_ms.min(started.elapsed().as_secs_f64() * 1e3);
                if rep == 0 {
                    diagnostics = count;
                }
            }
            ThroughputRow {
                schema: name.to_string(),
                queries: cases.len(),
                diagnostics,
                ms: best_ms,
                queries_per_s: cases.len() as f64 / (best_ms / 1e3),
            }
        })
        .collect()
}

pub fn run() -> AnalyzeReport {
    AnalyzeReport { seed: SEED, rows: throughput() }
}
