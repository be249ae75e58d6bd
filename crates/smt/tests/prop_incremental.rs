//! Parity of the incremental assumption-stack theory with the
//! from-scratch conjunction check, agreement of the solver's definitive
//! verdicts with a truth-table reference, and the regression guard that
//! the assumption stack keeps per-branch theory work linear in depth.

use proptest::prelude::*;
use qrhint_smt::conj::{check_conjunction, Lit, Translation};
use qrhint_smt::theory::TheoryState;
use qrhint_smt::{Atom, Formula, Rel, SatResult, Solver, Sort, Term, VarId, VarPool};

const NI: usize = 3; // int vars, ids 0..NI
const NS: usize = 2; // str vars, ids NI..NI+NS

fn base_pool() -> VarPool {
    let mut p = VarPool::new();
    for i in 0..NI {
        p.fresh(&format!("x{i}"), Sort::Int);
    }
    for i in 0..NS {
        p.fresh(&format!("s{i}"), Sort::Str);
    }
    p
}

fn int_var(i: usize) -> Term {
    Term::Var(VarId(i as u32))
}

fn str_var(i: usize) -> Term {
    Term::Var(VarId((NI + i) as u32))
}

fn arb_int_term() -> impl Strategy<Value = Term> {
    prop_oneof![
        (0..NI).prop_map(int_var),
        (-4i64..5).prop_map(Term::IntConst),
        ((0..NI), -3i64..4, -4i64..5).prop_map(|(v, c, k)| Term::add(
            Term::mul(Term::IntConst(c), int_var(v)),
            Term::IntConst(k)
        )),
        ((0..NI), (0..NI)).prop_map(|(a, b)| Term::mul(int_var(a), int_var(b))),
        ((0..NI), (0..NI)).prop_map(|(a, b)| Term::sub(int_var(a), int_var(b))),
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

fn arb_str_term() -> impl Strategy<Value = Term> {
    prop_oneof![
        (0..NS).prop_map(str_var),
        prop_oneof![Just("Amy"), Just("Bob"), Just("Eve"), Just("")]
            .prop_map(|s| Term::StrConst(s.into())),
    ]
}

/// Random literals over both sorts, including disequalities (which the
/// conjunction check case-splits) and LIKE patterns.
fn arb_lit() -> impl Strategy<Value = Lit> {
    let int_atom = (arb_int_term(), arb_rel(), arb_int_term())
        .prop_map(|(l, r, t)| Atom::Cmp(l, r, t).canonical().0);
    let str_atom = (arb_str_term(), arb_rel(), arb_str_term())
        .prop_map(|(l, r, t)| Atom::Cmp(l, r, t).canonical().0);
    let like_atom = ((0..NS), prop_oneof![Just("A%"), Just("_m%"), Just("B_b"), Just("%")])
        .prop_map(|(v, p)| Atom::Like(str_var(v), p.into()));
    (prop_oneof![int_atom, str_atom, like_atom], any::<bool>())
}

fn arb_formula() -> impl Strategy<Value = Formula> {
    let leaf = arb_lit().prop_map(|(a, p)| {
        let f = Formula::atom(a);
        if p {
            f
        } else {
            Formula::not(f)
        }
    });
    leaf.prop_recursive(3, 16, 3, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 1..4).prop_map(Formula::and),
            proptest::collection::vec(inner.clone(), 1..4).prop_map(Formula::or),
            inner.prop_map(Formula::not),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Pushing a literal stack one element at a time gives the exact
    /// verdict *and model* of a from-scratch `check_conjunction` at every
    /// prefix.
    #[test]
    fn incremental_check_matches_from_scratch(
        lits in proptest::collection::vec(arb_lit(), 0..10),
    ) {
        let base = base_pool();
        let mut inc_pool = base.clone();
        let mut th = TheoryState::new();
        for (i, (a, pol)) in lits.iter().enumerate() {
            th.push(a.clone(), *pol, &mut inc_pool);
            let mut fs_pool = base.clone();
            let expect = check_conjunction(&lits[..=i], &mut fs_pool);
            let got = th.check_full();
            prop_assert_eq!(got.0, expect.0, "verdict diverged at prefix {}", i + 1);
            prop_assert_eq!(got.1, expect.1, "model diverged at prefix {}", i + 1);
        }
    }

    /// Arbitrary push/pop interleavings leave the theory state exactly
    /// where a from-scratch translation of the surviving stack would be
    /// (verdict, model, and pool allocation all agree).
    #[test]
    fn pop_restores_from_scratch_state(
        lits in proptest::collection::vec(arb_lit(), 1..10),
        ops in proptest::collection::vec(any::<bool>(), 1..20),
    ) {
        let base = base_pool();
        let mut inc_pool = base.clone();
        let mut th = TheoryState::new();
        let mut reference: Vec<Lit> = Vec::new();
        let mut next = 0usize;
        for push in ops {
            if push || reference.is_empty() {
                let (a, p) = lits[next % lits.len()].clone();
                next += 1;
                th.push(a.clone(), p, &mut inc_pool);
                reference.push((a, p));
            } else {
                th.pop(&mut inc_pool);
                reference.pop();
            }
            prop_assert_eq!(th.depth(), reference.len());
            let mut fs_pool = base.clone();
            let expect = check_conjunction(&reference, &mut fs_pool);
            let got = th.check_full();
            prop_assert_eq!(got.0, expect.0, "verdict diverged");
            prop_assert_eq!(got.1, expect.1, "model diverged");
            // Pool allocation must match a full from-scratch translation
            // of the surviving stack. (`check_conjunction` itself can
            // return early on a constant conflict, skipping later
            // literals' opaque allocations, so translate explicitly.)
            let mut tr_pool = base.clone();
            let mut tr = Translation::default();
            for (a, p) in &reference {
                tr.push_lit(a, *p, &mut tr_pool);
            }
            prop_assert_eq!(inc_pool.len(), tr_pool.len(), "pool allocation diverged");
        }
    }

    /// The solver's definitive verdicts agree with the truth-table
    /// reference, and a `Sat` model satisfies the formula.
    #[test]
    fn solver_agrees_with_truth_table(f in arb_formula()) {
        let mut atoms = Vec::new();
        f.collect_atoms(&mut atoms);
        if atoms.len() <= MAX_TABLE_ATOMS {
            let out = Solver::new().check(&f, &mut base_pool());
            let reference = truth_table_verdict(&f, &atoms);
            match (out.result, reference) {
                (SatResult::Sat, SatResult::Unsat) | (SatResult::Unsat, SatResult::Sat) => {
                    prop_assert!(false, "solver {:?} vs truth table {:?} on {}", out.result, reference, f);
                }
                _ => {}
            }
            if out.result == SatResult::Sat {
                prop_assert_eq!(out.model.unwrap().eval_formula(&f), Some(true));
            }
        }
    }
}

/// Widest formula the truth-table reference enumerates.
const MAX_TABLE_ATOMS: usize = 12;

/// Reference verdict of `f` over its canonical `atoms`: run
/// `check_conjunction` on every full assignment that satisfies the
/// Boolean skeleton. `Sat` if any such conjunction is, `Unsat` if all
/// are, `Unknown` otherwise.
fn truth_table_verdict(f: &Formula, atoms: &[Atom]) -> SatResult {
    let mut verdict = SatResult::Unsat;
    for mask in 0u32..(1 << atoms.len()) {
        let bit = |i: usize| mask & (1 << i) != 0;
        let value = |a: &Atom| atoms.iter().position(|x| x == a).map(bit);
        if f.eval3(&value) != Some(true) {
            continue;
        }
        let lits: Vec<Lit> = atoms.iter().enumerate().map(|(i, a)| (a.clone(), bit(i))).collect();
        match check_conjunction(&lits, &mut base_pool()).0 {
            SatResult::Sat => return SatResult::Sat,
            SatResult::Unknown => verdict = SatResult::Unknown,
            SatResult::Unsat => {}
        }
    }
    verdict
}

/// Regression guard for the stride-prune bugfix: along one branch of
/// depth `d` the assumption stack translates each pushed literal once, so
/// theory translation work stays linear in depth. (Each conjunct is a
/// disjunction so its atoms are branched on, not assigned as root units.)
#[test]
fn incremental_theory_work_is_linear_in_depth() {
    let run = |d: usize| {
        let mut p = VarPool::new();
        let parts: Vec<Formula> = (0..d)
            .map(|i| {
                let v = Term::var(p.fresh(&format!("y{i}"), Sort::Int));
                Formula::or(vec![
                    Formula::cmp(v.clone(), Rel::Ge, Term::IntConst(0)),
                    Formula::cmp(v, Rel::Le, Term::IntConst(-5)),
                ])
            })
            .collect();
        let f = Formula::and(parts);
        let s = Solver { max_atoms: 64, ..Solver::default() };
        let out = s.check(&f, &mut p);
        assert_eq!(out.result, SatResult::Sat);
        out.stats
    };
    let inc16 = run(16);
    let inc32 = run(32);
    assert!(
        inc32.theory_lits_translated <= inc16.theory_lits_translated * 5 / 2,
        "incremental translation work grew superlinearly with depth: {} -> {}",
        inc16.theory_lits_translated,
        inc32.theory_lits_translated,
    );
}
