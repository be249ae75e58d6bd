//! Parity of the incremental assumption-stack theory with the
//! from-scratch conjunction check (also when its decider memo answers a
//! revisited or sibling stack), parity of the shared-stack truth-table
//! walk (`Solver::check_rows`) with per-row checks, agreement of the
//! solver's definitive verdicts with a truth-table reference, and the
//! regression guard that the assumption stack keeps per-branch theory
//! work linear in depth.

use proptest::prelude::*;
use qrhint_smt::conj::{check_conjunction, Lit, Translation};
use qrhint_smt::theory::TheoryState;
use qrhint_smt::{Atom, Formula, Rel, SatResult, Solver, Sort, Term, VarId, VarPool};

const NI: usize = 3; // int vars, ids 0..NI
const NS: usize = 2; // str vars, ids NI..NI+NS

fn base_pool() -> VarPool {
    let mut p = VarPool::new();
    for _ in 0..NI {
        p.fresh(Sort::Int);
    }
    for _ in 0..NS {
        p.fresh(Sort::Str);
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

fn literal(a: Atom, polarity: bool) -> Formula {
    let f = Formula::atom(a);
    if polarity {
        f
    } else {
        Formula::not(f)
    }
}

/// How one literal of a random truth table is built.
#[derive(Debug, Clone)]
enum LitSpec {
    Leaf(Formula),
    False,
    /// The context's `i`-th atom (modulo its atom count) in a polarity;
    /// `True` when the context has no atoms.
    CtxAtom(usize, bool),
    /// `x_a · x_b ≤ k`: the product is an opaque pool variable.
    NonLinear(usize, usize, i64),
    /// A disjunction of 21 distinct atoms, so any row holding it is over
    /// the 20-atom budget.
    Wide,
}

impl LitSpec {
    fn build(&self, ctx_atoms: &[Atom]) -> Formula {
        match self {
            LitSpec::Leaf(f) => f.clone(),
            LitSpec::False => Formula::False,
            LitSpec::CtxAtom(_, _) if ctx_atoms.is_empty() => Formula::True,
            LitSpec::CtxAtom(i, p) => literal(ctx_atoms[i % ctx_atoms.len()].clone(), *p),
            LitSpec::NonLinear(a, b, k) => {
                Formula::cmp(Term::mul(int_var(*a), int_var(*b)), Rel::Le, Term::IntConst(*k))
            }
            LitSpec::Wide => Formula::or(
                (0..21)
                    .map(|k| Formula::cmp(int_var(k % NI), Rel::Eq, Term::IntConst(100 + k as i64)))
                    .collect(),
            ),
        }
    }
}

fn arb_lit_spec() -> impl Strategy<Value = LitSpec> {
    let leaf = || arb_lit().prop_map(|(a, p)| LitSpec::Leaf(literal(a, p)));
    let ctx_atom = || ((0..16usize), any::<bool>()).prop_map(|(i, p)| LitSpec::CtxAtom(i, p));
    prop_oneof![
        leaf(),
        leaf(),
        leaf(),
        ctx_atom(),
        ctx_atom(),
        Just(LitSpec::False),
        ((0..NI), (0..NI), -4i64..5).prop_map(|(a, b, k)| LitSpec::NonLinear(a, b, k)),
        Just(LitSpec::Wide),
    ]
}

/// A context of random formulas (disjunctions among them), one to five
/// `[negative, positive]` literal specs, and a random needed-row mask.
fn arb_table() -> impl Strategy<Value = (Vec<Formula>, Vec<(LitSpec, LitSpec)>, Vec<bool>)> {
    (
        proptest::collection::vec(arb_formula(), 0..3),
        proptest::collection::vec((arb_lit_spec(), arb_lit_spec()), 1..6),
    )
        .prop_flat_map(|(ctx, specs)| {
            let rows = 1usize << specs.len();
            proptest::collection::vec(any::<bool>(), rows)
                .prop_map(move |needed| (ctx.clone(), specs.clone(), needed))
        })
}

/// `check_rows` gives every needed row the verdict `check_parts(ctx ++
/// [and of the row's literals])` gives it, and no verdict to the others;
/// it leaves the pool at its starting length and runs exactly the full
/// theory checks the per-row checks run.
fn assert_rows_match_check_parts(ctx: &[Formula], lits: &[[Formula; 2]], needed: &[bool]) {
    let solver = Solver::new();
    let ctx: Vec<&Formula> = ctx.iter().collect();
    let lit_refs: Vec<[&Formula; 2]> = lits.iter().map(|[n, p]| [n, p]).collect();
    let mut pool = base_pool();
    let out = solver.check_rows(&ctx, &lit_refs, needed, &mut pool);
    assert_eq!(pool.len(), base_pool().len(), "check_rows must leave the pool as it found it");
    let mut full_checks = 0;
    for (row, verdict) in out.verdicts.iter().enumerate() {
        if !needed[row] {
            assert_eq!(*verdict, None, "row {row:b} was not needed");
            continue;
        }
        let conj =
            Formula::and(lits.iter().enumerate().map(|(i, l)| l[row >> i & 1].clone()).collect());
        let mut parts = ctx.clone();
        parts.push(&conj);
        let expect = solver.check_parts(&parts, &mut base_pool());
        assert_eq!(*verdict, Some(expect.result), "row {row:b}: {conj}");
        full_checks += expect.stats.theory_full_checks;
    }
    assert_eq!(out.stats.theory_full_checks, full_checks);
}

/// One fixed table with every literal kind the random tables draw.
#[test]
fn check_rows_matches_check_parts_on_every_literal_kind() {
    let ctx = vec![
        Formula::or(vec![
            Formula::cmp(int_var(0), Rel::Ge, Term::IntConst(1)),
            Formula::cmp(int_var(1), Rel::Le, Term::IntConst(2)),
        ]),
        Formula::cmp(int_var(2), Rel::Eq, Term::IntConst(3)),
    ];
    let mut ctx_atoms = Vec::new();
    ctx.iter().for_each(|p| p.collect_atoms(&mut ctx_atoms));
    let leaf = |v: usize, rel: Rel, k: i64| {
        LitSpec::Leaf(Formula::cmp(int_var(v), rel, Term::IntConst(k)))
    };
    let specs = [
        (LitSpec::CtxAtom(0, false), LitSpec::CtxAtom(0, true)),
        // ¬(x2 = 3) conflicts with the context's unit; x2 = 3 repeats it.
        (LitSpec::CtxAtom(2, false), LitSpec::CtxAtom(2, true)),
        (LitSpec::NonLinear(0, 1, 4), LitSpec::NonLinear(1, 0, -1)),
        (leaf(1, Rel::Eq, 0), LitSpec::False),
        (LitSpec::Wide, leaf(0, Rel::Le, 5)),
    ];
    let lits: Vec<[Formula; 2]> =
        specs.iter().map(|(n, p)| [n.build(&ctx_atoms), p.build(&ctx_atoms)]).collect();
    let needed: Vec<bool> = (0..32).map(|row| row % 5 != 3).collect();
    assert_rows_match_check_parts(&ctx, &lits, &needed);
    // Without literals the one row is the context alone.
    assert_rows_match_check_parts(&ctx, &[], &[true]);
    assert_rows_match_check_parts(&ctx, &[], &[false]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// `check_rows` matches per-row `check_parts` on random tables.
    #[test]
    fn check_rows_matches_check_parts_per_row((ctx, specs, needed) in arb_table()) {
        let mut ctx_atoms = Vec::new();
        ctx.iter().for_each(|p| p.collect_atoms(&mut ctx_atoms));
        let lits: Vec<[Formula; 2]> =
            specs.iter().map(|(n, p)| [n.build(&ctx_atoms), p.build(&ctx_atoms)]).collect();
        assert_rows_match_check_parts(&ctx, &lits, &needed);
    }

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

/// Pop `th` down to the longest common prefix of its stack and
/// `target`, then push the rest of `target`.
fn move_to(th: &mut TheoryState, pool: &mut VarPool, target: &[Lit]) {
    let keep = th.lits().iter().zip(target).take_while(|(x, y)| x == y).count();
    while th.depth() > keep {
        th.pop(pool);
    }
    for (a, p) in &target[keep..] {
        th.push(a.clone(), *p, pool);
    }
}

/// Siblings that differ only in a string literal share their integer
/// system, siblings that differ only in an integer literal share their
/// string constraints, and a revisited stack shares both: the memo
/// answers each of those decisions, and every check gives the verdict
/// and model of the memo-free `check_conjunction`.
#[test]
fn sibling_and_revisited_stacks_reuse_decisions() {
    let lit = |l: Term, r: Term| (Atom::Cmp(l, Rel::Eq, r).canonical().0, true);
    let ne = (Atom::Cmp(int_var(1), Rel::Ne, int_var(0)).canonical().0, true);
    let le = |k: i64| (Atom::Cmp(int_var(0), Rel::Le, Term::IntConst(k)).canonical().0, true);
    let name = |c: &str| lit(str_var(0), Term::StrConst(c.into()));
    let steps = [
        (vec![ne.clone(), le(3), name("Amy")], 0),
        // A string sibling: the integer decision is reused.
        (vec![ne.clone(), le(3), name("Bob")], 1),
        // An integer sibling: the string decision is reused.
        (vec![ne.clone(), le(7), name("Bob")], 2),
        // The first stack again: both decisions are reused.
        (vec![ne, le(3), name("Amy")], 4),
    ];
    let mut pool = base_pool();
    let mut th = TheoryState::new();
    for (stack, hits) in steps {
        move_to(&mut th, &mut pool, &stack);
        let got = th.check_full();
        assert_eq!(got.0, SatResult::Sat, "{stack:?}");
        assert_eq!(got, check_conjunction(&stack, &mut base_pool()), "{stack:?}");
        assert_eq!(th.memo_hits(), hits, "{stack:?}");
    }
    assert_eq!(th.memo_len(), (2, 2), "two distinct inputs per decider");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A random stack is checked with a last literal `a`, then with a
    /// sibling `b` in its place, then with `a` again: every check equals
    /// the memo-free one, and the revisit is answered from the memo
    /// unless the translation alone refuted it.
    #[test]
    fn revisited_stacks_match_from_scratch(
        base in proptest::collection::vec(arb_lit(), 0..6),
        a in arb_lit(),
        b in arb_lit(),
    ) {
        let mut pool = base_pool();
        let mut th = TheoryState::new();
        let mut hits = Vec::new();
        for last in [&a, &b, &a] {
            let mut stack = base.clone();
            stack.push(last.clone());
            move_to(&mut th, &mut pool, &stack);
            let got = th.check_full();
            prop_assert_eq!(&got, &check_conjunction(&stack, &mut base_pool()));
            hits.push((th.memo_hits(), got.0));
        }
        prop_assert!(hits[2].0 > hits[1].0 || hits[2].1 == SatResult::Unsat, "{:?}", hits);
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
            .map(|_| {
                let v = Term::var(p.fresh(Sort::Int));
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
