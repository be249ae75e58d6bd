//! Session-layer soundness: grading through a shared [`PreparedTarget`]
//! (one verdict cache shared by every advise's oracle, duplicate-advice
//! cache) must produce
//! exactly the advice the cold stateless path produces, across the
//! Students corpus — including the self-join questions that exercise
//! signature-based mapping.

use qr_hint::prelude::*;
use qrhint_workloads::students;
use std::collections::BTreeMap;

#[test]
fn prepared_grading_matches_cold_grading_on_students_corpus() {
    let qr = QrHint::new(students::schema());
    let mut prepared: BTreeMap<String, PreparedTarget> = BTreeMap::new();
    let mut compared = 0usize;
    for (i, e) in students::corpus().iter().enumerate() {
        // Every 3rd supported entry keeps the test fast while covering
        // all four questions and every error category.
        if e.category == "UNSUPPORTED" || i % 3 != 0 {
            continue;
        }
        let target = prepared
            .entry(e.pair.target_sql.clone())
            .or_insert_with(|| qr.compile_target(&e.pair.target_sql).unwrap());
        let warm = target.advise_sql(&e.pair.working_sql).unwrap();
        let cold = qr.advise_sql(&e.pair.target_sql, &e.pair.working_sql).unwrap();
        assert_eq!(cold.stage, warm.stage, "{}", e.pair.id);
        assert_eq!(cold.hints, warm.hints, "{}", e.pair.id);
        assert_eq!(cold.fixed, warm.fixed, "{}", e.pair.id);
        compared += 1;
    }
    assert!(compared >= 80, "only {compared} entries compared");
    // Verdict sharing across submissions must actually have been
    // exercised by the sweep.
    let stats: Vec<SessionStats> = prepared.values().map(|p| p.stats()).collect();
    assert!(stats.iter().any(|s| s.verdict_cache_hits > 0), "{stats:?}");
}

#[test]
fn tutor_sessions_converge_like_fix_fully_on_a_corpus_slice() {
    let qr = QrHint::new(students::schema());
    let mut prepared: BTreeMap<String, PreparedTarget> = BTreeMap::new();
    for (i, e) in students::corpus().iter().enumerate() {
        if e.category == "UNSUPPORTED" || i % 11 != 0 {
            continue;
        }
        let target = prepared
            .entry(e.pair.target_sql.clone())
            .or_insert_with(|| qr.compile_target(&e.pair.target_sql).unwrap());
        let session = target.tutor_sql(&e.pair.working_sql).unwrap();
        let (final_q, trail) = session.run_to_completion().unwrap();
        assert!(trail.last().unwrap().is_equivalent(), "{}", e.pair.id);
        // The converged query must be equivalent under a *cold* check —
        // stage-resume trust must never manufacture a bogus Done.
        let verdict = qr
            .advise(&qr.prepare(&e.pair.target_sql).unwrap(), &final_q)
            .unwrap();
        assert!(verdict.is_equivalent(), "{}: {final_q}", e.pair.id);
    }
}
