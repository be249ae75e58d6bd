//! PR 5 parity harness for the interned oracle.
//!
//! The oracle layer was rebuilt around hash-consed `TermId`/`FormulaId`
//! arenas with one shared, sharded verdict cache per prepared target.
//! These tests pin the refactor to the seed's behavior:
//!
//! 1. **Structural parity (proptest).** For random predicates, solving
//!    through the interned oracle must return exactly the verdicts of
//!    the seed's structural path — reconstructed here as tree lowering
//!    with first-use variable allocation plus the seed's `equiv`
//!    (syntactic-equality fast path, then two implications) driven
//!    straight through [`qrhint_smt::Solver`].
//! 2. **Corpus parity.** On the students/beers corpora, `AdviceReport`
//!    JSON is byte-identical across the stateless baseline, a prepared
//!    target (cold and warm), a target that was shed mid-run, and
//!    8-way parallel grading.
//! 3. **Cross-thread sharing.** An 8-thread hammer on one target must
//!    run the solver fewer times than its submissions do when each is
//!    graded on a fresh target, and the stats counters must stay
//!    coherent.

use proptest::prelude::*;
use qr_hint::prelude::*;
use qrhint_core::{AdviceReport, Oracle};
use qrhint_smt::{Formula, Rel, Solver, Sort, Term, TriBool, VarPool};
use qrhint_sqlast::{ArithOp, CmpOp, ColRef, Pred, Scalar};
use qrhint_workloads::batches::{self, fingerprint};
use std::collections::BTreeMap;

// ---------------------------------------------------------------------
// 1. Structural parity
// ---------------------------------------------------------------------

/// The seed's tree lowering: first-use variable allocation over an
/// all-integer typing (the generators below never produce strings), so
/// variable numbering — and therefore every canonical atom — matches
/// what the interned oracle allocates walking the same predicate.
struct TreeLower {
    pool: VarPool,
    vars: BTreeMap<ColRef, qrhint_smt::VarId>,
}

impl TreeLower {
    fn new() -> TreeLower {
        TreeLower { pool: VarPool::new(), vars: BTreeMap::new() }
    }

    fn scalar(&mut self, e: &Scalar) -> Term {
        match e {
            Scalar::Col(c) => {
                let v = match self.vars.get(c) {
                    Some(v) => *v,
                    None => {
                        let v = self.pool.fresh(Sort::Int);
                        self.vars.insert(c.clone(), v);
                        v
                    }
                };
                Term::var(v)
            }
            Scalar::Int(k) => Term::IntConst(*k),
            Scalar::Arith(l, op, r) => {
                let (lt, rt) = (self.scalar(l), self.scalar(r));
                match op {
                    ArithOp::Add => Term::add(lt, rt),
                    ArithOp::Sub => Term::sub(lt, rt),
                    ArithOp::Mul => Term::mul(lt, rt),
                    ArithOp::Div => Term::div(lt, rt),
                }
            }
            Scalar::Neg(inner) => Term::Neg(Box::new(self.scalar(inner))),
            other => panic!("generator produced unsupported scalar {other}"),
        }
    }

    fn pred(&mut self, p: &Pred) -> Formula {
        match p {
            Pred::True => Formula::True,
            Pred::False => Formula::False,
            Pred::Cmp(l, op, r) => {
                let rel = match op {
                    CmpOp::Eq => Rel::Eq,
                    CmpOp::Ne => Rel::Ne,
                    CmpOp::Lt => Rel::Lt,
                    CmpOp::Le => Rel::Le,
                    CmpOp::Gt => Rel::Gt,
                    CmpOp::Ge => Rel::Ge,
                };
                let (lt, rt) = (self.scalar(l), self.scalar(r));
                Formula::cmp(lt, rel, rt)
            }
            Pred::And(cs) => Formula::and(cs.iter().map(|c| self.pred(c)).collect()),
            Pred::Or(cs) => Formula::or(cs.iter().map(|c| self.pred(c)).collect()),
            Pred::Not(c) => Formula::not(self.pred(c)),
            other => panic!("generator produced unsupported pred {other}"),
        }
    }
}

/// The seed oracle's `equiv_f` driven on trees: syntactic-equality fast
/// path, then `Unsat(ctx ∧ f ∧ ¬g)` in both directions.
fn tree_equiv(
    solver: &Solver,
    f: &Formula,
    g: &Formula,
    ctx: &[Formula],
    pool: &mut VarPool,
) -> TriBool {
    if f == g {
        return TriBool::True;
    }
    let fw = solver.implies(f, g, ctx, pool);
    if fw == TriBool::False {
        return TriBool::False;
    }
    let bw = solver.implies(g, f, ctx, pool);
    if bw == TriBool::False {
        return TriBool::False;
    }
    fw.and(bw)
}

fn arb_scalar() -> impl Strategy<Value = Scalar> {
    let col = prop_oneof![Just("a"), Just("b"), Just("c")]
        .prop_map(|c| Scalar::Col(ColRef::new("t", c)));
    let leaf = prop_oneof![col, (-4i64..10).prop_map(Scalar::Int)];
    leaf.prop_recursive(2, 4, 2, |inner| {
        (inner.clone(), prop_oneof![Just(ArithOp::Add), Just(ArithOp::Sub), Just(ArithOp::Mul)], inner)
            .prop_map(|(l, op, r)| Scalar::Arith(Box::new(l), op, Box::new(r)))
    })
}

fn arb_atom() -> impl Strategy<Value = Pred> {
    let op = prop_oneof![
        Just(CmpOp::Eq),
        Just(CmpOp::Ne),
        Just(CmpOp::Lt),
        Just(CmpOp::Le),
        Just(CmpOp::Gt),
        Just(CmpOp::Ge),
    ];
    (arb_scalar(), op, arb_scalar()).prop_map(|(l, op, r)| Pred::Cmp(l, op, r))
}

fn arb_pred() -> impl Strategy<Value = Pred> {
    arb_atom().prop_recursive(2, 8, 3, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 2..4).prop_map(Pred::And),
            prop::collection::vec(inner.clone(), 2..4).prop_map(Pred::Or),
            inner.prop_map(|p| Pred::Not(Box::new(p))),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn interned_sat_matches_structural_sat(p in arb_pred(), ctx in prop::collection::vec(arb_atom(), 0..3)) {
        // Interned path: the oracle's public pred-level API (which caches
        // in the shared verdict table and consults it on re-checks).
        let ctx_refs: Vec<&Pred> = ctx.iter().collect();
        let mut preds: Vec<&Pred> = vec![&p];
        preds.extend(ctx_refs.iter().copied());
        let mut oracle = Oracle::for_preds(&preds);
        let interned = oracle.sat_pred(&p, &ctx_refs);
        let again = oracle.sat_pred(&p, &ctx_refs);
        prop_assert_eq!(interned, again, "cached re-check must agree");

        // Structural path: the same walk on boxed trees, solver driven
        // directly. Allocation order matches, so the formulas are
        // literally identical and the verdicts must be too.
        let mut lower = TreeLower::new();
        let ftree = lower.pred(&p);
        let ctx_trees: Vec<Formula> = ctx.iter().map(|c| lower.pred(c)).collect();
        let structural =
            Solver::default().is_satisfiable(&ftree, &ctx_trees, &mut lower.pool);
        prop_assert_eq!(interned, structural, "p = {}", p);
    }

    #[test]
    fn interned_equiv_matches_structural_equiv(p in arb_pred(), q in arb_pred()) {
        let mut oracle = Oracle::for_preds(&[&p, &q]);
        let interned = oracle.equiv_pred(&p, &q, &[]);

        let mut lower = TreeLower::new();
        // Lower p then q, exactly as the oracle's equiv_pred does.
        let ftree = lower.pred(&p);
        let gtree = lower.pred(&q);
        let structural =
            tree_equiv(&Solver::default(), &ftree, &gtree, &[], &mut lower.pool);
        prop_assert_eq!(interned, structural, "p = {} ; q = {}", p, q);
    }
}

// ---------------------------------------------------------------------
// 2. Corpus parity: byte-identical AdviceReport JSON
// ---------------------------------------------------------------------

fn report_json(advices: &[qrhint_core::QrResult<Advice>]) -> Vec<String> {
    advices
        .iter()
        .map(|r| match r {
            Ok(a) => serde_json::to_string(&AdviceReport::new(a.clone()))
                .expect("report serializes"),
            Err(e) => format!("error: {e}"),
        })
        .collect()
}

fn assert_corpus_parity(schema: &Schema, target: &str, subs: &[String], label: &str) {
    let qr = QrHint::new(schema.clone());
    // Stateless baseline: one-shot advises that share nothing.
    let baseline: Vec<qrhint_core::QrResult<Advice>> =
        subs.iter().map(|s| qr.prepare(s).and_then(|q| {
            let q_star = qr.prepare(target)?;
            qr.advise(&q_star, &q)
        })).collect();
    let baseline_json = report_json(&baseline);

    let prepared = qr.compile_target(target).unwrap();
    let cold = report_json(&prepared.grade_batch(subs));
    assert_eq!(cold, baseline_json, "{label}: cold prepared vs stateless");

    // Warm pass: advice cache and shared verdicts both hot.
    let warm = report_json(&prepared.grade_batch(subs));
    assert_eq!(warm, baseline_json, "{label}: warm prepared vs stateless");

    // Shed mid-run: the swapped-in fresh context must answer identically.
    assert!(prepared.shed_caches() > 0);
    let after_shed = report_json(&prepared.grade_batch(subs));
    assert_eq!(after_shed, baseline_json, "{label}: post-shed vs stateless");

    // Parallel on a fresh target per job count: cross-thread verdict
    // sharing engaged at every worker width.
    for jobs in [1usize, 4, 8] {
        let hammered = qr.compile_target(target).unwrap();
        let parallel = report_json(&hammered.grade_batch_parallel(subs, jobs));
        assert_eq!(parallel, baseline_json, "{label}: {jobs}-thread vs stateless");
    }
}

#[test]
fn students_corpus_reports_are_byte_identical() {
    let (schema, target, subs) = batches::students_batch(24);
    assert!(subs.len() >= 8);
    assert_corpus_parity(&schema, &target, &subs, "students-b");
}

#[test]
fn beers_corpus_reports_are_byte_identical() {
    let (schema, target, subs) = batches::beers_batch(24);
    assert!(subs.len() >= 8);
    assert_corpus_parity(&schema, &target, &subs, "beers-inject-c");
}

// ---------------------------------------------------------------------
// 3. Cross-thread verdict sharing + stats coherence
// ---------------------------------------------------------------------

#[test]
fn eight_thread_hammer_shares_verdicts_across_threads() {
    // Distinct submissions sharing heavy WHERE-repair work: every advise
    // re-derives the same implications with its own oracle, so advises
    // hit verdicts that earlier or concurrent advises inserted, however
    // the threads are scheduled, and the batch runs the solver fewer
    // times than its submissions do graded each on a fresh target.
    let (schema, target, subs) = batches::beers_batch(32);
    let qr = QrHint::new(schema);
    let sequential = {
        let prepared = qr.compile_target(&target).unwrap();
        fingerprint(&prepared.grade_batch(&subs))
    };
    let prepared = qr.compile_target(&target).unwrap();
    let out = fingerprint(&prepared.grade_batch_parallel(&subs, 8));
    assert_eq!(out, sequential, "parallel output diverged");
    let stats = prepared.stats();
    // Coherence: every solver call is exactly one shared-cache hit or
    // one miss, batch-wide, regardless of interleaving.
    assert_eq!(
        stats.verdict_cache_hits + stats.verdict_cache_misses,
        stats.solver_calls,
        "{stats:?}"
    );
    assert!(stats.verdict_cache_hits > 0, "shared cache must hit: {stats:?}");
    let unshared: u64 = subs
        .iter()
        .map(|sub| {
            let alone = qr.compile_target(&target).unwrap();
            let _ = alone.advise_sql(sub);
            alone.stats().verdict_cache_misses
        })
        .sum();
    assert!(
        stats.verdict_cache_misses < unshared,
        "verdicts must be shared across advises: {} misses vs {unshared} unshared",
        stats.verdict_cache_misses
    );
    assert!(stats.verdict_cache_entries > 0);
    assert!(stats.interned_formulas > 0);
}

#[test]
fn shed_then_advise_resyncs_scratch_and_regrades_identically() {
    // Shedding swaps the whole `SolverContext` — interner, variable
    // pool and verdict cache. Every later advise builds its oracle on
    // the fresh context, with a scratch pool synced from zero (a stale
    // sync mark larger than the fresh pool would misalign every
    // variable index).
    let (schema, target, subs) = batches::beers_batch(8);
    let qr = QrHint::new(schema);
    let prepared = qr.compile_target(&target).unwrap();
    let before = fingerprint(&prepared.grade_batch(&subs));
    assert!(prepared.stats().verdict_cache_entries > 0);
    assert!(prepared.shed_caches() > 0);
    let shed_stats = prepared.stats();
    assert_eq!(
        (shed_stats.verdict_cache_entries, shed_stats.verdict_cache_bytes),
        (0, 0),
        "the verdicts must be shed with the context: {shed_stats:?}"
    );
    let after = fingerprint(&prepared.grade_batch(&subs));
    assert_eq!(after, before, "post-shed advise diverged");
    let final_stats = prepared.stats();
    assert!(final_stats.verdict_cache_entries > 0, "verdicts repopulate after shed");
    assert_eq!(
        final_stats.verdict_cache_hits + final_stats.verdict_cache_misses,
        final_stats.solver_calls,
        "hit/miss pairing must survive the shed boundary: {final_stats:?}"
    );
}
