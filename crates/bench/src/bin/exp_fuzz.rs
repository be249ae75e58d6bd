//! Fuzz-throughput benchmark binary: pairs/sec through
//! `grade_batch_parallel` over the seeded mutation corpora, with the
//! shared verdict cache's hit rate and parallel fingerprint parity
//! against the sequential baseline. Persists `BENCH_fuzz.json` in the
//! working directory (run from the repo root) and exits nonzero if
//! parity breaks or if no multi-thread pass beats the sequential
//! baseline on a ≥4-core host (<4-core hosts record a waiver — the pool
//! cannot scale there).

use qrhint_bench::{fuzz, report};

fn main() {
    let report = fuzz::run(120);
    println!(
        "{}",
        report::table(
            &["schema", "jobs", "bases", "pairs", "ms", "pairs/s", "hit rate", "parity"],
            &report
                .rows
                .iter()
                .map(|r| vec![
                    r.schema.clone(),
                    r.jobs.to_string(),
                    r.bases.to_string(),
                    r.pairs.to_string(),
                    format!("{:.1}", r.ms),
                    format!("{:.0}", r.pairs_per_s),
                    format!("{:.0}%", r.hit_rate * 100.0),
                    if r.parity_ok { "ok".into() } else { "MISMATCH".into() },
                ])
                .collect::<Vec<_>>(),
        )
    );
    println!(
        "host cores: {} · corpus seed: {} · best parallel speedup: {:.2}x{}",
        report.cores,
        report.seed,
        report.best_speedup,
        if report.gate_waived_low_cores { " (speedup gate waived: <4 cores)" } else { "" }
    );
    report::write_bench("fuzz", &report);
    if !report.gate_ok {
        eprintln!(
            "FAIL: parity={} parallel-faster={} on a {}-core host",
            report.parity_ok, report.parallel_faster_ok, report.cores
        );
        std::process::exit(1);
    }
}
