//! Concurrency soundness of the sharded session layer: hammering one
//! [`PreparedTarget`] from many threads must produce advice that is
//! **byte-identical** (serde-JSON form) to the sequential
//! [`PreparedTarget::grade_batch`] output, in input order, for every
//! worker count — and the atomic [`SessionStats`] counters must stay
//! coherent (no lost updates) under the same contention.
//!
//! Run under `--release` in CI as well: debug-build scheduling is too
//! tame to surface real interleavings.

use qr_hint::prelude::*;
use qrhint_workloads::batches::{self, fingerprint};
use qrhint_workloads::{beers, students};
use std::collections::BTreeMap;

/// Students-corpus batches: every 4th supported submission, grouped by
/// target (all four questions, every error category) — the shape of a
/// real grading run, self-joins included.
fn students_batches() -> (Schema, Vec<(String, Vec<String>)>) {
    let mut by_target: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for (i, e) in students::corpus().iter().enumerate() {
        if e.category == "UNSUPPORTED" || i % 4 != 0 {
            continue;
        }
        by_target
            .entry(e.pair.target_sql.clone())
            .or_default()
            .push(e.pair.working_sql.clone());
    }
    (students::schema(), by_target.into_iter().collect())
}

/// Beers batch: fault-injected WHERE variants of course question (c)
/// — 24 distinct submissions sharing one FROM binding, so every worker
/// works in the same memo group, each advise with its own oracle.
fn beers_batch() -> (Schema, String, Vec<String>) {
    batches::beers_batch(24)
}

fn assert_parallel_matches_sequential(
    schema: &Schema,
    target: &str,
    subs: &[String],
    label: &str,
) {
    let qr = QrHint::new(schema.clone());
    let sequential = {
        let prepared = qr.compile_target(target).unwrap();
        fingerprint(&prepared.grade_batch(subs))
    };
    for jobs in [1usize, 2, 4, 8] {
        // Cold pass on a *fresh* target per job count: every worker
        // does real concurrent run_stages work (shared memo seeding) —
        // a shared target would be all advice-cache hits
        // after the first job count and hide cold-path races.
        let hammered = qr.compile_target(target).unwrap();
        let cold = fingerprint(&hammered.grade_batch_parallel(subs, jobs));
        assert_eq!(cold.len(), subs.len(), "{label}: jobs={jobs}");
        for (i, (p, s)) in cold.iter().zip(&sequential).enumerate() {
            assert_eq!(
                p, s,
                "{label}: jobs={jobs}, cold submission {i} diverged from sequential"
            );
        }
        // Warm pass on the same target: the concurrent advice-cache
        // read path must agree too.
        let warm = fingerprint(&hammered.grade_batch_parallel(subs, jobs));
        for (i, (p, s)) in warm.iter().zip(&sequential).enumerate() {
            assert_eq!(
                p, s,
                "{label}: jobs={jobs}, warm submission {i} diverged from sequential"
            );
        }
    }
}

#[test]
fn eight_thread_hammer_matches_sequential_on_students_corpus() {
    let (schema, batches) = students_batches();
    assert!(batches.len() >= 4, "expected all four questions");
    for (i, (target, subs)) in batches.iter().enumerate() {
        assert_parallel_matches_sequential(&schema, target, subs, &format!("students-q{i}"));
    }
}

#[test]
fn eight_thread_hammer_matches_sequential_on_beers_injections() {
    let (schema, target, subs) = beers_batch();
    assert!(subs.len() >= 20);
    assert_parallel_matches_sequential(&schema, &target, &subs, "beers-inject-c");
}

#[test]
fn session_stats_stay_coherent_under_concurrency() {
    let schema = beers::schema();
    let target = "SELECT s.bar FROM Serves s WHERE s.price >= 3";
    // A mixed batch with known structure: two FROM bindings (`s` and
    // `t`), a FROM-stage failure (wrong table), and heavy duplication.
    let distinct = [
        "SELECT s.bar FROM Serves s WHERE s.price > 3",
        "SELECT s.bar FROM Serves s WHERE s.price >= 2",
        "SELECT s.bar FROM Serves s WHERE s.price >= 3",
        "SELECT t.bar FROM Serves t WHERE t.price >= 3",
        "SELECT t.bar FROM Serves t WHERE t.price > 1",
        "SELECT l.beer FROM Likes l",
    ];
    let mut batch: Vec<&str> = Vec::new();
    for _ in 0..6 {
        batch.extend(distinct);
    }
    let n = batch.len() as u64;

    // Sequential ground truth: exact counter values.
    let qr = QrHint::new(schema.clone());
    let sequential = qr.compile_target(target).unwrap();
    sequential.grade_batch(&batch);
    let seq = sequential.stats();
    assert_eq!(seq.advise_calls, n);
    // Each distinct submission is graded once; every repeat hits the
    // advice cache.
    assert_eq!(seq.advice_cache_hits, n - distinct.len() as u64);
    assert_eq!(seq.advice_cache_entries, distinct.len() as u64);

    // Concurrent run: atomics must lose nothing that is deterministic
    // under races. advise_calls and the resident entries (one per
    // distinct submission) are exact; cache hits depend on interleaving
    // (two threads may both miss on the same duplicate) so they are
    // bounded, not exact.
    let hammered = qr.compile_target(target).unwrap();
    hammered.grade_batch_parallel(&batch, 8);
    let par = hammered.stats();
    assert_eq!(par.advise_calls, n, "lost advise_calls updates");
    assert_eq!(par.advice_cache_entries, distinct.len() as u64, "{par:?}");
    assert_eq!(par.advice_cache_hits + par.advice_cache_misses, n, "{par:?}");
    assert!(
        par.advice_cache_hits <= n - distinct.len() as u64,
        "more hits than duplicates: {par:?}"
    );
    assert!(par.solver_calls > 0);
    assert!(par.solver_calls >= seq.solver_calls, "{par:?} vs {seq:?}");

    // Batched equivalence checks share context *preparation*, not
    // accounting: every underlying sat check counts exactly one
    // `solver_calls` bump and exactly one verdict-cache hit or miss —
    // never one per candidate-batch membership.
    assert_eq!(
        seq.verdict_cache_hits + seq.verdict_cache_misses,
        seq.solver_calls,
        "sequential batched checks broke hit/miss pairing: {seq:?}"
    );
    assert_eq!(
        par.verdict_cache_hits + par.verdict_cache_misses,
        par.solver_calls,
        "parallel batched checks broke hit/miss pairing: {par:?}"
    );
    // The workload exercises the batch routes (SELECT positional
    // equivalence at minimum, WHERE repair for the off-by-one bounds).
    assert!(seq.equiv_batches > 0, "no candidate batch issued: {seq:?}");
    assert!(
        seq.equiv_batch_candidates >= seq.equiv_batches,
        "batch candidate accounting inverted: {seq:?}"
    );
    // The solver's assumption stack must have done per-literal
    // translation work on the cold pass.
    assert!(seq.theory_pushes > 0, "theory stack idle: {seq:?}");
    assert!(seq.theory_full_checks > 0, "{seq:?}");
}

#[test]
fn stats_advise_calls_exact_across_many_rounds() {
    // The counter most exposed to lost updates: bump it from 8 threads
    // over repeated rounds on one target and require exactness.
    let schema = beers::schema();
    let qr = QrHint::new(schema);
    let prepared = qr.compile_target("SELECT s.bar FROM Serves s WHERE s.price >= 3").unwrap();
    let batch: Vec<String> = (0..40)
        .map(|i| format!("SELECT s.bar FROM Serves s WHERE s.price >= {}", i % 10))
        .collect();
    for round in 1..=3u64 {
        prepared.grade_batch_parallel(&batch, 8);
        assert_eq!(prepared.stats().advise_calls, round * batch.len() as u64);
    }
    assert_eq!(prepared.stats().advice_cache_entries, 10, "one entry per distinct submission");
}
