//! Property-based soundness tests for the solver, cross-checked against
//! brute-force evaluation over a small integer grid (the ground truth
//! never touches the solver's own code paths).

use proptest::prelude::*;
use qrhint_smt::{Atom, Formula, Model, Rel, SatResult, Solver, Sort, Term, Value, VarPool};

const NVARS: usize = 3;
const GRID: i64 = 4; // values 0..GRID per variable

fn pool() -> VarPool {
    let mut p = VarPool::new();
    for _ in 0..NVARS {
        p.fresh(Sort::Int);
    }
    p
}

fn var(i: usize) -> Term {
    Term::var(qrhint_smt::VarId(i as u32))
}

fn arb_term() -> impl Strategy<Value = Term> {
    prop_oneof![
        (0..NVARS).prop_map(var),
        (0i64..4).prop_map(Term::IntConst),
        ((0..NVARS), (1i64..3), (-2i64..3)).prop_map(|(v, c, k)| Term::add(
            Term::mul(Term::IntConst(c), var(v)),
            Term::IntConst(k)
        )),
        ((0..NVARS), (0..NVARS)).prop_map(|(a, b)| Term::sub(var(a), var(b))),
    ]
}

fn arb_rel() -> impl Strategy<Value = Rel> {
    prop_oneof![
        Just(Rel::Eq),
        Just(Rel::Ne),
        Just(Rel::Lt),
        Just(Rel::Le),
        Just(Rel::Gt),
        Just(Rel::Ge),
    ]
}

fn arb_formula() -> impl Strategy<Value = Formula> {
    let atom = (arb_term(), arb_rel(), arb_term())
        .prop_map(|(l, r, t)| Formula::Atom(Atom::Cmp(l, r, t)));
    atom.prop_recursive(3, 12, 3, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 2..4).prop_map(Formula::And),
            prop::collection::vec(inner.clone(), 2..4).prop_map(Formula::Or),
            inner.prop_map(|f| Formula::Not(Box::new(f))),
        ]
    })
}

/// Evaluate via the Model machinery at a grid point (Model::eval_formula
/// uses the real term semantics, independent of the search).
fn eval_at(f: &Formula, vals: &[i64]) -> Option<bool> {
    let mut m = Model::new();
    for (i, v) in vals.iter().enumerate() {
        m.set(qrhint_smt::VarId(i as u32), Value::Int(*v));
    }
    m.eval_formula(f)
}

fn grid_sat(f: &Formula) -> bool {
    for a in 0..GRID {
        for b in 0..GRID {
            for c in 0..GRID {
                if eval_at(f, &[a, b, c]) == Some(true) {
                    return true;
                }
            }
        }
    }
    false
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    /// Unsat verdicts are never wrong: no grid point satisfies the
    /// formula. (The converse does not hold — grid-unsat formulas may be
    /// satisfiable outside the grid — so only this direction is checked.)
    #[test]
    fn unsat_is_sound(f in arb_formula()) {
        let solver = Solver::default();
        let mut p = pool();
        let outcome = solver.check(&f, &mut p);
        if outcome.result == SatResult::Unsat {
            prop_assert!(!grid_sat(&f), "solver said Unsat but grid satisfies {f}");
        }
    }

    /// Sat verdicts come with models that really satisfy the formula.
    #[test]
    fn sat_models_validate(f in arb_formula()) {
        let solver = Solver::default();
        let mut p = pool();
        let outcome = solver.check(&f, &mut p);
        if outcome.result == SatResult::Sat {
            let m = outcome.model.expect("Sat implies model");
            prop_assert_eq!(m.eval_formula(&f), Some(true), "model fails {}", f);
        }
    }

    /// Grid-satisfiable formulas are never called Unsat, and whenever the
    /// grid has a witness the solver must find Sat (completeness on this
    /// easy fragment — all atoms are linear with small constants).
    #[test]
    fn grid_witness_implies_sat(f in arb_formula()) {
        if grid_sat(&f) {
            let solver = Solver::default();
            let mut p = pool();
            let outcome = solver.check(&f, &mut p);
            prop_assert_eq!(outcome.result, SatResult::Sat, "grid-sat {} got {:?}", f, outcome.result);
        }
    }

    /// Double negation and De Morgan preserve the verdict.
    #[test]
    fn negation_laws(f in arb_formula()) {
        let solver = Solver::default();
        let mut p = pool();
        let direct = solver.check(&f, &mut p).result;
        let mut p2 = pool();
        let doubled = solver
            .check(&Formula::Not(Box::new(Formula::Not(Box::new(f.clone())))), &mut p2)
            .result;
        // Definitive verdicts must agree (Unknowns may differ).
        if direct != SatResult::Unknown && doubled != SatResult::Unknown {
            prop_assert_eq!(direct, doubled);
        }
    }

    /// `f ∧ ¬f` is never Sat.
    #[test]
    fn contradiction_never_sat(f in arb_formula()) {
        let solver = Solver::default();
        let mut p = pool();
        let contra = Formula::and(vec![f.clone(), Formula::not(f.clone())]);
        let outcome = solver.check(&contra, &mut p);
        prop_assert_ne!(outcome.result, SatResult::Sat, "f ∧ ¬f Sat for {}", f);
    }
}
