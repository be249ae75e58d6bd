//! Classroom-sized grading batches — one hidden target, many
//! submissions — and the parity fingerprint that compares two gradings
//! of a batch.
//!
//! The concurrency, interning and tracing tests grade these batches,
//! and every parity check over graded batches — those tests, the
//! parallel-grading property test and the fuzz-grading benchmark —
//! compares outputs with [`fingerprint`], so "identical" means the same
//! thing everywhere.

use crate::{beers, inject, students};
use qrhint_core::{Advice, QrResult};
use qrhint_sqlast::Schema;
use qrhint_sqlparse::parse_query;

/// The students-workload batch: one question's target and up to
/// `cap` supported submissions against it (question (b) of the
/// Students+ corpus, its largest — every entry shares the same hidden
/// target, the shape of a real grading run).
pub fn students_batch(cap: usize) -> (Schema, String, Vec<String>) {
    let mut target = None;
    let mut all = Vec::new();
    for e in students::corpus() {
        if e.question != "b" || e.category == "UNSUPPORTED" {
            continue;
        }
        target.get_or_insert_with(|| e.pair.target_sql.clone());
        all.push(e.pair.working_sql.clone());
    }
    // The corpus generator emits entries grouped by error category
    // (FROM, then WHERE, …, SELECT); sample uniformly across the whole
    // question so the batch carries the corpus's Table-4 category mix
    // instead of the first category only.
    let n = all.len();
    let subs: Vec<String> =
        (0..cap.min(n)).map(|i| all[i * n / cap.min(n)].clone()).collect();
    (students::schema(), target.expect("question (b) has entries"), subs)
}

/// The beers-workload batch: fault-injected variants of one course
/// question (deterministic seeds), the shape of the §9 robustness
/// experiments.
pub fn beers_batch(cap: usize) -> (Schema, String, Vec<String>) {
    let schema = beers::course_schema();
    let target_sql = beers::course_questions()
        .into_iter()
        .find(|(id, _)| *id == "c")
        .map(|(_, sql)| sql.to_string())
        .expect("question (c) exists");
    let target = parse_query(&target_sql).expect("target parses");
    let mut subs = Vec::new();
    'outer: for seed in 0..u64::MAX {
        for k in 1..=2usize {
            if subs.len() >= cap {
                break 'outer;
            }
            let (broken, _) = inject::inject_atom_errors(&target.where_pred, k, seed);
            let mut wrong = target.clone();
            wrong.where_pred = broken;
            subs.push(wrong.to_string());
        }
    }
    (schema, target_sql, subs)
}

/// Serde-JSON fingerprint of a graded batch, errors included, index
/// aligned — equality means the outputs are interchangeable.
pub fn fingerprint(advices: &[QrResult<Advice>]) -> Vec<String> {
    advices
        .iter()
        .map(|r| match r {
            Ok(a) => serde_json::to_string(a).expect("advice serializes"),
            Err(e) => format!("error: {e}"),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn beers_batch_is_deterministic() {
        let (_, _, a) = beers_batch(10);
        let (_, _, b) = beers_batch(10);
        assert_eq!(a, b);
    }
}
