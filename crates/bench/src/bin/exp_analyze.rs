//! Static-analysis benchmark binary (PR 7): analyzer throughput over
//! the seed-42 fuzz corpora. Persists `BENCH_analyze.json` in the
//! working directory (run from the repo root); throughput is
//! report-only.

use qrhint_bench::{analyze, report};

fn main() {
    let report = analyze::run();
    println!(
        "{}",
        report::table(
            &["schema", "queries", "diagnostics", "ms", "queries/s"],
            &report
                .rows
                .iter()
                .map(|r| vec![
                    r.schema.clone(),
                    r.queries.to_string(),
                    r.diagnostics.to_string(),
                    format!("{:.2}", r.ms),
                    format!("{:.0}", r.queries_per_s),
                ])
                .collect::<Vec<_>>(),
        )
    );
    report::write_bench("analyze", &report);
}
