//! Property-based tests (proptest) for the repair machinery's paper
//! lemmas:
//!
//! * Lemma 5.3 — any repair applied at any site set lands inside
//!   `CreateBounds`;
//! * Lemma 5.4 — whenever the target is inside the bounds, `DeriveFixes`
//!   produces a repair whose application is equivalent to the target;
//! * solver soundness — `Unsat` formulas have no model among random
//!   assignments; models returned on `Sat` satisfy the formula.

use proptest::prelude::*;
use qrhint_core::repair::{bounds_admit, create_bounds, derive_fixes, Repair};
use qrhint_core::Oracle;
use qrhint_smt::{Model, SatResult, Solver, Value};
use qrhint_sqlast::pred::PredPath;
use qrhint_sqlast::{CmpOp, Pred, Scalar};

/// Random atomic predicates over a small variable/constant universe so
/// interactions (implications, contradictions) actually occur.
fn arb_atom() -> impl Strategy<Value = Pred> {
    let col = prop_oneof![Just("a"), Just("b"), Just("c"), Just("d")];
    let op = prop_oneof![
        Just(CmpOp::Eq),
        Just(CmpOp::Ne),
        Just(CmpOp::Lt),
        Just(CmpOp::Le),
        Just(CmpOp::Gt),
        Just(CmpOp::Ge),
    ];
    let rhs = prop_oneof![
        (0i64..5).prop_map(Scalar::Int),
        prop_oneof![Just("a"), Just("b"), Just("c")]
            .prop_map(|c| Scalar::Col(qrhint_sqlast::ColRef::new("t", c))),
    ];
    (col, op, rhs).prop_map(|(c, op, rhs)| {
        Pred::Cmp(Scalar::Col(qrhint_sqlast::ColRef::new("t", c)), op, rhs)
    })
}

/// Random small predicate trees (≤ 3 levels, ≤ 7 atoms).
fn arb_pred() -> impl Strategy<Value = Pred> {
    arb_atom().prop_recursive(3, 10, 3, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 2..4).prop_map(Pred::And),
            prop::collection::vec(inner.clone(), 2..4).prop_map(Pred::Or),
            inner.prop_map(|p| Pred::Not(Box::new(p))),
        ]
    })
}

/// Evaluate a predicate over an integer assignment (total on t.a..t.d).
fn eval_pred(p: &Pred, vals: &[i64; 4]) -> bool {
    fn scalar(e: &Scalar, vals: &[i64; 4]) -> i64 {
        match e {
            Scalar::Col(c) => match c.column.as_str() {
                "a" => vals[0],
                "b" => vals[1],
                "c" => vals[2],
                _ => vals[3],
            },
            Scalar::Int(v) => *v,
            _ => unreachable!("generator emits cols and ints only"),
        }
    }
    match p {
        Pred::True => true,
        Pred::False => false,
        Pred::Cmp(l, op, r) => op.eval(&scalar(l, vals), &scalar(r, vals)),
        Pred::And(cs) => cs.iter().all(|c| eval_pred(c, vals)),
        Pred::Or(cs) => cs.iter().any(|c| eval_pred(c, vals)),
        Pred::Not(c) => !eval_pred(c, vals),
        Pred::Like { .. } => unreachable!("generator emits no LIKE"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Lemma 5.3: applying any fixes at the chosen sites stays within the
    /// computed repair bounds — checked *semantically* by exhaustive
    /// evaluation over a small grid (no solver in the loop, so this also
    /// cross-validates the solver-based tests).
    #[test]
    fn lemma_5_3_bounds_are_valid(
        p in arb_pred(),
        fixes_src in prop::collection::vec(arb_atom(), 1..=2),
        site_seed in any::<prop::sample::Index>(),
    ) {
        let paths = p.all_paths();
        let site = paths[site_seed.index(paths.len())].clone();
        let sites = vec![site];
        let (lo, hi) = create_bounds(&p, &sites);
        let repair = Repair { sites: sites.clone(), fixes: vec![fixes_src[0].clone()] };
        let applied = repair.apply(&p);
        // lo ⇒ applied ⇒ hi pointwise over the grid.
        for a in 0..3i64 {
            for b in 0..3 {
                for c in 0..3 {
                    for d in 0..3 {
                        let vals = [a, b, c, d];
                        let lv = eval_pred(&lo, &vals);
                        let av = eval_pred(&applied, &vals);
                        let hv = eval_pred(&hi, &vals);
                        prop_assert!(!lv || av, "lower bound violated at {vals:?}");
                        prop_assert!(!av || hv, "upper bound violated at {vals:?}");
                    }
                }
            }
        }
    }

    /// Lemma 5.4: if the viability check admits the target, DeriveFixes
    /// produces a correct repair.
    #[test]
    fn lemma_5_4_derive_fixes_correct(
        p in arb_pred(),
        p_star in arb_pred(),
        sites in prop::collection::vec(any::<prop::sample::Index>(), 1..=2),
    ) {
        let paths = p.all_paths();
        let mut chosen: Vec<PredPath> = Vec::new();
        for s in &sites {
            let cand = paths[s.index(paths.len())].clone();
            if chosen.iter().all(|c| {
                let m = c.len().min(cand.len());
                c[..m] != cand[..m]
            }) {
                chosen.push(cand);
            }
        }
        let mut oracle = Oracle::for_preds(&[&p, &p_star]);
        let (lo, hi) = create_bounds(&p, &chosen);
        let target = oracle.lower_pred(&p_star);
        if bounds_admit(&mut oracle, &lo, &hi, target, &[]).is_true() {
            let fixes = derive_fixes(&mut oracle, &[], &p, &chosen, &p_star, &p_star);
            let mut ordered = Vec::new();
            for s in &chosen {
                let fix = fixes.iter().find(|(path, _)| path == s);
                prop_assert!(fix.is_some(), "missing fix for {s:?}");
                ordered.push(fix.unwrap().1.clone());
            }
            let repair = Repair { sites: chosen.clone(), fixes: ordered };
            let applied = repair.apply(&p);
            // Semantic check over the grid (ground truth, solver-free).
            for a in 0..3i64 {
                for b in 0..3 {
                    for c in 0..3 {
                        for d in 0..3 {
                            let vals = [a, b, c, d];
                            prop_assert_eq!(
                                eval_pred(&applied, &vals),
                                eval_pred(&p_star, &vals),
                                "applied {} != target {} at {:?}",
                                applied, p_star, vals
                            );
                        }
                    }
                }
            }
        }
    }

    /// Solver soundness: on Unsat no grid assignment satisfies the
    /// formula (Sat answers are model-validated inside the solver).
    #[test]
    fn solver_verdicts_are_sound(p in arb_pred()) {
        let mut oracle = Oracle::for_preds(&[&p]);
        let outcome = oracle.sat_pred(&p, &[]);
        let mut any_grid_model = false;
        for a in 0..4i64 {
            for b in 0..4 {
                for c in 0..4 {
                    for d in 0..4 {
                        if eval_pred(&p, &[a, b, c, d]) {
                            any_grid_model = true;
                        }
                    }
                }
            }
        }
        match outcome {
            qrhint_smt::TriBool::False => {
                prop_assert!(!any_grid_model, "solver said Unsat but {p} has a model");
            }
            qrhint_smt::TriBool::True | qrhint_smt::TriBool::Unknown => {}
        }
    }
}

#[test]
fn solver_models_validate() {
    // Deterministic spot-check that Sat models satisfy formulas when
    // driving the solver directly (not through the oracle).
    let p = qrhint_sqlparse::parse_pred("t.a > t.b AND (t.b = 3 OR t.a < 0)").unwrap();
    let mut oracle = Oracle::for_preds(&[&p]);
    let fid = oracle.lower_pred(&p);
    let f = oracle.formula(fid);
    let solver = Solver::default();
    // Build a standalone pool covering the formula's variables.
    let mut vars = Vec::new();
    f.collect_vars(&mut vars);
    let mut pool = qrhint_smt::VarPool::new();
    for _ in 0..=vars.iter().map(|v| v.0).max().unwrap_or(0) {
        pool.fresh(qrhint_smt::Sort::Int);
    }
    let outcome = solver.check(&f, &mut pool);
    assert_eq!(outcome.result, SatResult::Sat);
    let m: Model = outcome.model.unwrap();
    assert_eq!(m.eval_formula(&f), Some(true));
    // And the model's values are genuine integers.
    for (_, v) in m.iter() {
        assert!(matches!(v, Value::Int(_)));
    }
}
