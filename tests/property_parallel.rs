//! Property test (vendored proptest shim): randomly generated,
//! duplicate-heavy submission batches grade identically under
//! [`PreparedTarget::grade_batch`] and
//! [`PreparedTarget::grade_batch_parallel`] — the advice-cache read
//! path and the verdicts concurrent advises share must never change an
//! answer, only the wall-clock.

use proptest::prelude::*;
use qr_hint::prelude::*;
use qrhint_sqlast::SqlType;
use qrhint_workloads::batches::fingerprint;

fn beers_schema() -> Schema {
    Schema::new()
        .with_table(
            "Likes",
            &[("drinker", SqlType::Str), ("beer", SqlType::Str)],
            &["drinker", "beer"],
        )
        .with_table(
            "Serves",
            &[("bar", SqlType::Str), ("beer", SqlType::Str), ("price", SqlType::Int)],
            &["bar", "beer"],
        )
}

const TARGET: &str = "SELECT s.bar FROM Serves s WHERE s.price >= 3 AND s.beer = 'Bud'";

/// Submission templates spanning the interesting paths: equivalent
/// rewrites, WHERE/SELECT/structure mistakes, a distinct FROM binding,
/// a FROM-stage failure, and a parse error. Batches sample these *with*
/// replacement, so duplicates (the advice-cache read path) dominate.
const TEMPLATES: &[&str] = &[
    "SELECT s.bar FROM Serves s WHERE s.price >= 3 AND s.beer = 'Bud'",
    "SELECT s.bar FROM Serves s WHERE s.beer = 'Bud' AND s.price > 2",
    "SELECT s.bar FROM Serves s WHERE s.price > 3 AND s.beer = 'Bud'",
    "SELECT s.bar FROM Serves s WHERE s.price >= 3",
    "SELECT s.beer FROM Serves s WHERE s.price >= 3 AND s.beer = 'Bud'",
    "SELECT x.bar FROM Serves x WHERE x.price >= 3 AND x.beer = 'Bud'",
    "SELECT s.bar, COUNT(*) FROM Serves s WHERE s.price >= 3 GROUP BY s.bar",
    "SELECT l.beer FROM Likes l",
    "SELEKT bogus FROM nowhere",
];

proptest! {
    // Each case grades a whole batch twice; 24 cases keeps the suite in
    // test-budget while still mixing batch shapes and worker counts.
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn duplicate_heavy_batches_grade_identically(
        picks in prop::collection::vec(0usize..TEMPLATES.len(), 1..32),
        jobs_pick in 0usize..3,
    ) {
        let jobs = [2usize, 4, 8][jobs_pick];
        let batch: Vec<&str> = picks.iter().map(|&i| TEMPLATES[i]).collect();
        let qr = QrHint::new(beers_schema());
        let sequential = {
            let prepared = qr.compile_target(TARGET).unwrap();
            fingerprint(&prepared.grade_batch(&batch))
        };
        let parallel = {
            let prepared = qr.compile_target(TARGET).unwrap();
            fingerprint(&prepared.grade_batch_parallel(&batch, jobs))
        };
        prop_assert_eq!(&parallel, &sequential);
        // And a second hammer over the now-warm parallel target (pure
        // advice-cache read path under contention) must agree too.
        let warm = {
            let prepared = qr.compile_target(TARGET).unwrap();
            prepared.grade_batch_parallel(&batch, jobs);
            fingerprint(&prepared.grade_batch_parallel(&batch, jobs))
        };
        prop_assert_eq!(&warm, &sequential);
    }
}
