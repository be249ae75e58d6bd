//! Golden advice fingerprints over the seed-42 fuzz corpora.
//!
//! Every fuzz case is tutored to completion from its working SQL (the
//! simulated user applies each suggested fix), and the `AdviceReport`
//! JSON of every step is hashed with 64-bit FNV-1a. One fingerprint per
//! 50-case block is checked in at `tests/golden/advice_fnv.txt`, so any
//! change to any hint, repair, cost or stage on these corpora fails here
//! with the block that moved.
//!
//! The `tpch-opt` and `dblp-opt` blocks tutor the two wide corpora with
//! `FixStrategy::Optimized` (the paper's DeriveFixesOPT), whose
//! `min_fix_mult` builds and minimizes MinFix truth tables itself.
//!
//! When a change is *meant* to move advice, the failure message prints
//! the recomputed file; review the per-case differences before
//! replacing it.

use qr_hint::core::FixStrategy;
use qr_hint::prelude::*;
use qrhint_workloads::mutate::Fuzzer;
use std::collections::BTreeMap;

/// Corpus seed of every checked-in block.
const SEED: u64 = 42;
/// Cases per fingerprinted block.
const BLOCK: usize = 50;
const GOLDEN: &str = include_str!("golden/advice_fnv.txt");

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// The tutoring trail of one submission (the simulated user applies
/// every fix until `Done`): one report JSON line per step, or the error
/// that stopped the session.
fn trail_text(prepared: &PreparedTarget, sql: &str) -> String {
    match prepared.tutor_sql(sql).and_then(TutorSession::run_to_completion) {
        Ok((_, trail)) => trail
            .into_iter()
            .map(|advice| {
                serde_json::to_string(&AdviceReport::new(advice)).expect("report serializes") + "\n"
            })
            .collect(),
        Err(e) => format!("error: {e}\n"),
    }
}

/// `"<key> <block> <fnv>"` lines for the leading `count` cases of
/// `schema`, tutored under `strategy`.
fn fingerprint_lines(schema: &str, key: &str, count: usize, strategy: FixStrategy) -> Vec<String> {
    let fuzzer = Fuzzer::for_schema(schema).expect("known workload schema");
    let mut cfg = QrHintConfig::default();
    cfg.repair.strategy = strategy;
    let qr = QrHint::with_config(fuzzer.schema().clone(), cfg);
    let targets: BTreeMap<&str, PreparedTarget> = fuzzer
        .bases()
        .iter()
        .map(|(id, q)| (id.as_str(), qr.compile_target(&q.to_string()).expect("base compiles")))
        .collect();
    fuzzer
        .generate(count, SEED)
        .chunks(BLOCK)
        .enumerate()
        .map(|(block, cases)| {
            let h = cases.iter().fold(FNV_OFFSET, |h, case| {
                let trail = trail_text(&targets[case.base_id.as_str()], &case.working.to_string());
                fnv1a(h, trail.as_bytes())
            });
            format!("{key} {block} {h:016x}")
        })
        .collect()
}

fn assert_golden(schema: &str, count: usize) {
    assert_golden_as(schema, schema, count, FixStrategy::Basic);
}

/// Check the blocks checked in under `key` against `schema`'s leading
/// `count` cases tutored under `strategy`.
fn assert_golden_as(schema: &str, key: &str, count: usize, strategy: FixStrategy) {
    let want: Vec<&str> =
        GOLDEN.lines().filter(|l| l.split_whitespace().next() == Some(key)).collect();
    assert_eq!(want.len(), count.div_ceil(BLOCK), "{key}: golden block count");
    let got = fingerprint_lines(schema, key, count, strategy);
    assert!(
        got.iter().map(String::as_str).eq(want.iter().copied()),
        "{key}: advice moved; recomputed blocks:\n{}",
        got.join("\n")
    );
}

#[test]
fn students_advice_matches_golden() {
    assert_golden("students", 2000);
}

#[test]
fn beers_course_advice_matches_golden() {
    assert_golden("beers-course", 2000);
}

#[test]
fn brass_advice_matches_golden() {
    assert_golden("brass", 2000);
}

#[test]
fn beers_advice_matches_golden() {
    assert_golden("beers", 300);
}

#[test]
fn tpch_advice_matches_golden() {
    assert_golden("tpch", 60);
}

#[test]
fn dblp_advice_matches_golden() {
    assert_golden("dblp", 30);
}

#[test]
fn tpch_optimized_advice_matches_golden() {
    assert_golden_as("tpch", "tpch-opt", 60, FixStrategy::Optimized);
}

#[test]
fn dblp_optimized_advice_matches_golden() {
    assert_golden_as("dblp", "dblp-opt", 30, FixStrategy::Optimized);
}
