//! `MinFix` (Algorithm 6) with its helpers `MapAtomPreds` (Algorithm 5)
//! and `BuildTruthTable`: find a smallest predicate within a target bound
//! `[l★, u★]`, optionally under a solver context.
//!
//! The Boolean-minimization back end is `qrhint-boolmin` (the ESPRESSO
//! stand-in). Infeasible atom combinations (detected by the solver) and
//! rows where the bound leaves slack become don't-cares, exactly as in
//! §5.2's encoding; only the rows the bound pins go to the solver.

use crate::oracle::Oracle;
use qrhint_boolmin::{minimize, Dnf, Out, TruthTable};
use qrhint_smt::{FormulaId, TriBool};
use qrhint_sqlast::Pred;
use std::collections::BTreeMap;

/// Which normal form `min_fix` should produce. DNF is used under `∨`
/// parents, CNF under `∧` parents, so `DistributeFixes` can split clauses
/// across combined repair sites.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NormalForm {
    Dnf,
    Cnf,
}

/// Maximum number of semantically unique atoms MinFix will build a truth
/// table over (2^N rows, each one its bound pins theory-checked).
pub const MAX_MINFIX_ATOMS: usize = 12;

/// The result of `MapAtomPreds`: a list of semantically unique atoms and
/// a mapping from structural atoms to (index, polarity).
#[derive(Debug, Clone, Default)]
pub struct AtomMap {
    /// Representative atoms, positive form.
    pub atoms: Vec<Pred>,
    /// atom (as written) → (index into `atoms`, polarity).
    phi: BTreeMap<Pred, (usize, bool)>,
}

impl AtomMap {
    /// Register every atomic predicate of `p`, deduplicating semantically
    /// equivalent (or negation-equivalent) atoms via the oracle
    /// (Algorithm 5).
    pub fn absorb(&mut self, p: &Pred, oracle: &mut Oracle, ctx: &[&Pred]) {
        for atom in p.atoms() {
            if matches!(atom, Pred::True | Pred::False) {
                continue;
            }
            if self.phi.contains_key(atom) {
                continue;
            }
            let mut mapped = None;
            for (i, rep) in self.atoms.iter().enumerate() {
                if oracle.equiv_pred(atom, rep, ctx).is_true() {
                    mapped = Some((i, true));
                    break;
                }
                let neg = rep.negated_nnf();
                if oracle.equiv_pred(atom, &neg, ctx).is_true() {
                    mapped = Some((i, false));
                    break;
                }
            }
            let entry = mapped.unwrap_or_else(|| {
                self.atoms.push(atom.clone());
                (self.atoms.len() - 1, true)
            });
            self.phi.insert(atom.clone(), entry);
        }
    }

    pub fn len(&self) -> usize {
        self.atoms.len()
    }

    pub fn is_empty(&self) -> bool {
        self.atoms.is_empty()
    }

    /// The atom index of `atom` and the polarity it has there. Panics if
    /// neither `atom` nor its negation is registered.
    fn literal(&self, atom: &Pred) -> (usize, bool) {
        if let Some(&entry) = self.phi.get(atom) {
            return entry;
        }
        // Negated forms of registered atoms appear when bounds are
        // complemented (CNF mode, NOT nodes); invert the polarity.
        let (i, pol) = *self
            .phi
            .get(&atom.negated_nnf())
            .unwrap_or_else(|| panic!("unregistered atom {atom} in AtomMap::eval"));
        (i, !pol)
    }

    /// Evaluate `p` under a row of the truth table (bit i of `row` is the
    /// value of atom i). Panics if `p` contains unregistered atoms.
    pub fn eval(&self, p: &Pred, row: u32) -> bool {
        match p {
            Pred::True => true,
            Pred::False => false,
            Pred::And(cs) => cs.iter().all(|c| self.eval(c, row)),
            Pred::Or(cs) => cs.iter().any(|c| self.eval(c, row)),
            Pred::Not(c) => !self.eval(c, row),
            atom => {
                let (i, pol) = self.literal(atom);
                (row >> i & 1 == 1) == pol
            }
        }
    }

    /// [`AtomMap::eval`] on every row of the table at once: bit `r % 64`
    /// of word `r / 64` is `p`'s value in row `r` (a table of fewer than
    /// 64 rows uses the low bits of one word). Each node of `p` is
    /// evaluated once, word by word; the same atoms panic.
    pub fn eval_words(&self, p: &Pred) -> Vec<u64> {
        let words = (1usize << self.len()).div_ceil(64);
        let fold = |cs: &[Pred], init: u64, op: fn(u64, u64) -> u64| {
            let mut acc = vec![init; words];
            for c in cs {
                for (a, w) in acc.iter_mut().zip(self.eval_words(c)) {
                    *a = op(*a, w);
                }
            }
            acc
        };
        match p {
            Pred::True => vec![!0; words],
            Pred::False => vec![0; words],
            Pred::And(cs) => fold(cs, !0, |a, b| a & b),
            Pred::Or(cs) => fold(cs, 0, |a, b| a | b),
            Pred::Not(c) => self.eval_words(c).into_iter().map(|w| !w).collect(),
            atom => {
                let (i, pol) = self.literal(atom);
                let flip = if pol { 0 } else { !0 };
                (0..words).map(|w| column(i, w) ^ flip).collect()
            }
        }
    }

    /// The conjunction of literals corresponding to a row: the reference
    /// `RowLiterals::conjunction` is tested against.
    #[cfg(test)]
    pub fn row_conjunction(&self, row: u32) -> Pred {
        Pred::and(
            self.atoms
                .iter()
                .enumerate()
                .map(|(i, a)| {
                    if row & (1 << i) != 0 {
                        a.clone()
                    } else {
                        a.negated_nnf()
                    }
                })
                .collect(),
        )
    }

    /// Rebuild a `Dnf` over the atom list as a predicate.
    pub fn dnf_to_pred(&self, dnf: &Dnf) -> Pred {
        if dnf.is_false() {
            return Pred::False;
        }
        if dnf.is_true() {
            return Pred::True;
        }
        Pred::or(
            dnf.terms
                .iter()
                .map(|cube| {
                    Pred::and(
                        cube.literals(dnf.nvars)
                            .into_iter()
                            .map(|(i, pos)| {
                                if pos {
                                    self.atoms[i].clone()
                                } else {
                                    self.atoms[i].negated_nnf()
                                }
                            })
                            .collect(),
                    )
                })
                .collect(),
        )
    }

    /// Rebuild a `Dnf` of the *negated* function as a CNF predicate:
    /// `f = ¬(Σ cubes)` = Π (negated cubes).
    pub fn negated_dnf_to_cnf_pred(&self, dnf: &Dnf) -> Pred {
        if dnf.is_false() {
            return Pred::True;
        }
        if dnf.is_true() {
            return Pred::False;
        }
        Pred::and(
            dnf.terms
                .iter()
                .map(|cube| {
                    Pred::or(
                        cube.literals(dnf.nvars)
                            .into_iter()
                            .map(|(i, pos)| {
                                if pos {
                                    self.atoms[i].negated_nnf()
                                } else {
                                    self.atoms[i].clone()
                                }
                            })
                            .collect(),
                    )
                })
                .collect(),
        )
    }
}

/// Word `w` of atom `i`'s column: bit `b` is set when atom `i` is true in
/// row `64·w + b`. The low six atoms repeat one pattern in every word;
/// each higher atom fills whole words.
fn column(i: usize, w: usize) -> u64 {
    const LOW: [u64; 6] = [
        0xAAAA_AAAA_AAAA_AAAA,
        0xCCCC_CCCC_CCCC_CCCC,
        0xF0F0_F0F0_F0F0_F0F0,
        0xFF00_FF00_FF00_FF00,
        0xFFFF_0000_FFFF_0000,
        0xFFFF_FFFF_0000_0000,
    ];
    match LOW.get(i) {
        Some(&pattern) => pattern,
        None if w >> (i - 6) & 1 == 1 => !0,
        None => 0,
    }
}

/// Lower every atom's `[negative, positive]` literal pair and the context
/// once per table. The negative literals are lowered first, then the
/// context, then the positive literals: lowering each row's conjunction
/// and then the context, row by row, would first meet them in this order
/// (row 0 is all negative), so variables are allocated as that would
/// allocate them.
fn lower_literals(
    map: &AtomMap,
    oracle: &mut Oracle,
    ctx: &[&Pred],
) -> (Vec<[FormulaId; 2]>, Vec<FormulaId>) {
    let neg: Vec<FormulaId> =
        map.atoms.iter().map(|a| oracle.lower_pred(&a.negated_nnf())).collect();
    let ctx = ctx.iter().map(|c| oracle.lower_pred(c)).collect();
    let lits = neg.into_iter().zip(&map.atoms).map(|(n, a)| [n, oracle.lower_pred(a)]).collect();
    (lits, ctx)
}

/// Build the truth table for the target bound `[lower, upper]` over the
/// atom map: infeasible rows and slack rows become don't-cares. Each
/// bound is evaluated on all rows at once ([`AtomMap::eval_words`]), and
/// only the rows they pin (where they agree) are decided, by one
/// [`Oracle::sat_rows`] call; a slack row is a don't-care whatever its
/// feasibility.
pub fn build_truth_table(
    map: &AtomMap,
    oracle: &mut Oracle,
    ctx: &[&Pred],
    lower: &Pred,
    upper: &Pred,
) -> TruthTable {
    let (lits, ctx) = lower_literals(map, oracle, ctx);
    let (lower, upper) = (map.eval_words(lower), map.eval_words(upper));
    let bit = |words: &[u64], row: u32| words[row as usize / 64] >> (row % 64) & 1 == 1;
    // `l ⇒ u` precludes (true, false), but bounds derived under Unknown
    // answers may have such rows; they are slack too.
    let pinned: Vec<bool> =
        (0..1u32 << map.len()).map(|row| bit(&lower, row) == bit(&upper, row)).collect();
    let feasible = oracle.sat_rows(&lits, &ctx, &pinned);
    TruthTable::from_fn(map.len(), |row| {
        // Only a definitive UNSAT may mark a pinned row infeasible
        // (paper's soundness discipline).
        if !pinned[row as usize] || feasible[row as usize] == TriBool::False {
            Out::DontCare
        } else if bit(&lower, row) {
            Out::One
        } else {
            Out::Zero
        }
    })
}

/// Find a smallest predicate within `[lower, upper]` under `ctx`, in the
/// requested normal form. Falls back to `lower` when the bound involves
/// too many unique atoms (a valid, if not minimal, fix — optimality
/// degrades gracefully, correctness does not).
pub fn min_fix(
    oracle: &mut Oracle,
    ctx: &[&Pred],
    lower: &Pred,
    upper: &Pred,
    form: NormalForm,
) -> Pred {
    let mut map = AtomMap::default();
    map.absorb(lower, oracle, ctx);
    map.absorb(upper, oracle, ctx);
    if map.len() > MAX_MINFIX_ATOMS {
        return lower.clone();
    }
    match form {
        NormalForm::Dnf => {
            let table = build_truth_table(&map, oracle, ctx, lower, upper);
            map.dnf_to_pred(&minimize(&table))
        }
        NormalForm::Cnf => {
            // Minimize the complement within [¬upper, ¬lower], then negate.
            let neg_l = upper.negated_nnf();
            let neg_u = lower.negated_nnf();
            let table = build_truth_table(&map, oracle, ctx, &neg_l, &neg_u);
            map.negated_dnf_to_cnf_pred(&minimize(&table))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{LowerEnv, SolverContext, TypeEnv};
    use proptest::prelude::*;
    use qrhint_sqlast::ColRef;
    use qrhint_sqlparse::parse_pred;
    use std::sync::Arc;

    fn oracle_for(preds: &[&Pred]) -> Oracle {
        Oracle::for_preds(preds)
    }

    /// An oracle typed by inference over `preds`, on the given context.
    fn oracle_on(preds: &[&Pred], ctx: Arc<SolverContext>) -> Oracle {
        Oracle::with_context(TypeEnv::infer_from_preds(preds), ctx)
    }

    /// An oracle from `fresh` on a fresh context, which the caller keeps
    /// to read the interner's size.
    fn on_fresh_context(
        fresh: &impl Fn(Arc<SolverContext>) -> Oracle,
    ) -> (Oracle, Arc<SolverContext>) {
        let ctx = Arc::new(SolverContext::default());
        (fresh(Arc::clone(&ctx)), ctx)
    }

    fn interned_formulas(ctx: &SolverContext) -> u64 {
        ctx.stats_snapshot().interner.formulas
    }

    /// Build one table on two fresh oracles from `fresh`: through
    /// `build_truth_table`, and with one `sat_f` per row the bounds pin
    /// (where `lower` and `upper` agree). The table asks exactly those
    /// rows, for the same verdicts, counts and full theory checks, but
    /// shares the pushes of common row prefixes; a slack row is a
    /// don't-care that interns no formula and counts nothing. A later
    /// per-row sweep over the rows' lowered predicates hits the verdict
    /// cache on every pinned row (each is interned, and keyed, like its
    /// predicate) and misses on every slack one.
    fn assert_table_asks_its_pinned_rows(
        fresh: impl Fn(Arc<SolverContext>) -> Oracle,
        ctx: &Pred,
        lower: &Pred,
        upper: &Pred,
    ) {
        let atom_map = |o: &mut Oracle| {
            let mut map = AtomMap::default();
            map.absorb(lower, o, &[ctx]);
            map.absorb(upper, o, &[ctx]);
            map
        };
        let (mut table_oracle, table_ctx) = on_fresh_context(&fresh);
        let map = atom_map(&mut table_oracle);
        assert!(map.len() >= 3, "atoms: {:?}", map.atoms);
        let rows = 1u32 << map.len();
        let pinned: Vec<bool> =
            (0..rows).map(|row| map.eval(lower, row) == map.eval(upper, row)).collect();
        let asked = pinned.iter().filter(|&&p| p).count() as u64;
        assert!(0 < asked && asked < u64::from(rows), "{asked} of {rows} rows pinned");
        table_oracle.counters = Default::default();
        let before = interned_formulas(&table_ctx);
        let table = build_truth_table(&map, &mut table_oracle, &[ctx], lower, upper);
        let table_formulas = interned_formulas(&table_ctx) - before;
        let table_work = std::mem::take(&mut table_oracle.counters);

        let (mut row_oracle, row_ctx) = on_fresh_context(&fresh);
        assert_eq!(atom_map(&mut row_oracle).atoms, map.atoms);
        row_oracle.counters = Default::default();
        let before = interned_formulas(&row_ctx);
        let (lits, ctx_ids) = lower_literals(&map, &mut row_oracle, &[ctx]);
        let per_row: Vec<Option<TriBool>> = (0..rows)
            .map(|row| {
                pinned[row as usize].then(|| {
                    let lits = lits.iter().enumerate().map(|(i, l)| l[(row >> i & 1) as usize]);
                    let f = row_oracle.and_f(lits.collect());
                    row_oracle.sat_f(f, &ctx_ids)
                })
            })
            .collect();
        let row_formulas = interned_formulas(&row_ctx) - before;
        let row_work = std::mem::take(&mut row_oracle.counters);
        assert!(per_row.contains(&Some(TriBool::False)), "some pinned rows must be infeasible");
        assert!(per_row.contains(&Some(TriBool::True)));

        assert_eq!(table_work.solver_calls, asked);
        assert_eq!(
            (table_work.solver_calls, table_work.verdict_hits, table_work.verdict_misses),
            (row_work.solver_calls, row_work.verdict_hits, row_work.verdict_misses),
        );
        assert_eq!(table_work.unknown_verdicts, row_work.unknown_verdicts);
        assert_eq!(table_work.theory_full_checks, row_work.theory_full_checks);
        assert!(
            table_work.theory_pushes < row_work.theory_pushes,
            "{table_work:?} vs {row_work:?}"
        );
        assert_eq!(table_formulas, row_formulas, "slack rows intern no formula");
        for row in 0..rows {
            let want = match per_row[row as usize] {
                None | Some(TriBool::False) => Out::DontCare,
                Some(_) if map.eval(lower, row) => Out::One,
                Some(_) => Out::Zero,
            };
            assert_eq!(table.get(row), want, "row {row:b}");
        }

        let ctx_id = table_oracle.lower_pred(ctx);
        for row in 0..rows {
            table_oracle.counters = Default::default();
            let f = table_oracle.lower_pred(&map.row_conjunction(row));
            let verdict = table_oracle.sat_f(f, &[ctx_id]);
            let sweep = std::mem::take(&mut table_oracle.counters);
            match per_row[row as usize] {
                Some(asked) => {
                    assert_eq!(verdict, asked, "row {row:b}");
                    assert_eq!(sweep.verdict_hits, 1, "pinned row {row:b}: {sweep:?}");
                }
                None => assert_eq!(sweep.verdict_misses, 1, "slack row {row:b}: {sweep:?}"),
            }
        }
    }

    #[test]
    fn truth_table_rows_intern_like_their_predicates() {
        // Rows with `t.x > 12` false and `t.x < 20` false contradict each
        // other; the bound pins two of them.
        let ctx = parse_pred("t.x > 10").unwrap();
        let lower = parse_pred("t.x > 12 AND t.s NOT LIKE 'a%' AND t.y = 1").unwrap();
        let upper = parse_pred("t.s NOT LIKE 'a%' OR t.y = 1 OR t.x < 20").unwrap();
        let fresh = |c| oracle_on(&[&ctx, &lower, &upper], c);
        assert_table_asks_its_pinned_rows(fresh, &ctx, &lower, &upper);
    }

    #[test]
    fn truth_table_rows_intern_like_their_predicates_when_grouped() {
        // The HAVING stage's ambient state: grouped lowering, with the
        // WHERE facts and aggregate axioms as ambient context. The
        // MIN ≤ MAX axiom makes rows with MIN(s.d) > 4 and MAX(s.d) < 3
        // infeasible.
        let ctx = parse_pred("g.a > 4").unwrap();
        let lower = parse_pred("SUM(s.d) > 10 AND g.b NOT LIKE 'x%' AND COUNT(*) >= 2").unwrap();
        let upper = parse_pred("SUM(s.d) > 10 OR MAX(s.d) < 3 OR g.a = 5 OR MIN(s.d) > 4").unwrap();
        let fresh = |c| {
            let mut o = oracle_on(&[&ctx, &lower, &upper], c);
            let env = LowerEnv::grouped([ColRef::new("g", "a"), ColRef::new("g", "b")].into());
            o.lower_pred_env(&lower, &env);
            o.lower_pred_env(&upper, &env);
            let mut ambient = vec![o.lower_pred_env(&ctx, &env)];
            ambient.extend(o.aggregate_axioms(&ctx));
            o.set_ambient(env, ambient);
            o
        };
        assert_table_asks_its_pinned_rows(fresh, &ctx, &lower, &upper);
    }

    /// Atoms over `t.x`, `t.y` and `t.s` that constrain each other, so
    /// some of their combinations are infeasible.
    const REAL_ATOMS: [&str; 6] =
        ["t.x > 10", "t.x < 5", "t.y = 1", "t.x = t.y", "t.s LIKE 'a%'", "t.s = 'ab'"];

    /// An atom map over `n` atoms `t.c{i} > i`, registered as `absorb`
    /// can register them: atom `i % 3 == 0` as written, `1` both as
    /// written and negated (polarity `false`), `2` only negated — so
    /// `eval` meets each polarity both directly and through the
    /// negated-form lookup.
    fn column_atoms(n: usize) -> AtomMap {
        let mut map = AtomMap::default();
        for i in 0..n {
            let atom = parse_pred(&format!("t.c{i} > {i}")).unwrap();
            if i % 3 != 2 {
                map.phi.insert(atom.clone(), (i, true));
            }
            if i % 3 != 0 {
                map.phi.insert(atom.negated_nnf(), (i, false));
            }
            map.atoms.push(atom);
        }
        map
    }

    /// Random bounds over atoms `0..n`: each leaf an atom as written or
    /// complemented, or a constant, under And/Or/Not.
    fn arb_bound(n: usize) -> impl Strategy<Value = Pred> {
        arb_bound_over(n, |i| format!("t.c{i} > {i}"))
    }

    /// [`arb_bound`] with atom `i` written as `atom(i)`.
    fn arb_bound_over(n: usize, atom: fn(usize) -> String) -> impl Strategy<Value = Pred> {
        let leaf = prop_oneof![
            ((0..n), any::<bool>()).prop_map(move |(i, complement)| {
                let atom = parse_pred(&atom(i)).unwrap();
                if complement {
                    atom.negated_nnf()
                } else {
                    atom
                }
            }),
            Just(Pred::True),
            Just(Pred::False),
        ];
        leaf.prop_recursive(4, 24, 4, |inner| {
            prop_oneof![
                proptest::collection::vec(inner.clone(), 1..5).prop_map(Pred::And),
                proptest::collection::vec(inner.clone(), 1..5).prop_map(Pred::Or),
                inner.prop_map(|p| Pred::Not(Box::new(p))),
            ]
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// `eval_words` gives every row the value per-row `eval` gives
        /// it, for a bound and for its complement (MinFix's CNF mode),
        /// over 1–12 atoms: tables of one partial word up to 64 words.
        #[test]
        fn word_parallel_bounds_match_per_row_eval(
            (n, bound) in (1usize..=12).prop_flat_map(|n| (Just(n), arb_bound(n))),
        ) {
            let map = column_atoms(n);
            for p in [bound.clone(), bound.negated_nnf()] {
                let words = map.eval_words(&p);
                prop_assert_eq!(words.len(), (1usize << n).div_ceil(64));
                for row in 0..1u32 << n {
                    let bit = words[row as usize / 64] >> (row % 64) & 1 == 1;
                    prop_assert_eq!(bit, map.eval(&p, row), "row {:b} of {}", row, p);
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The table that decides only its pinned rows equals the table
        /// that decides every row by `sat_f` of the row's predicate, on
        /// random bounds (not always `l ⇒ u`) over atoms that contradict
        /// each other, with and without a context.
        #[test]
        fn pinned_row_table_matches_every_row_decided(
            lower in arb_bound_over(REAL_ATOMS.len(), |i| REAL_ATOMS[i].to_string()),
            upper in arb_bound_over(REAL_ATOMS.len(), |i| REAL_ATOMS[i].to_string()),
            ctx in prop_oneof![Just(Pred::True), Just(parse_pred("t.y > 0").unwrap())],
        ) {
            let preds = [&ctx, &lower, &upper];
            let mut table_oracle = oracle_for(&preds);
            let mut map = AtomMap::default();
            map.absorb(&lower, &mut table_oracle, &[&ctx]);
            map.absorb(&upper, &mut table_oracle, &[&ctx]);
            let table = build_truth_table(&map, &mut table_oracle, &[&ctx], &lower, &upper);

            let mut row_oracle = oracle_for(&preds);
            let (lits, ctx_ids) = lower_literals(&map, &mut row_oracle, &[&ctx]);
            let every_row = TruthTable::from_fn(map.len(), |row| {
                let lits = lits.iter().enumerate().map(|(i, l)| l[(row >> i & 1) as usize]);
                let f = row_oracle.and_f(lits.collect());
                if row_oracle.sat_f(f, &ctx_ids) == TriBool::False {
                    return Out::DontCare;
                }
                match (map.eval(&lower, row), map.eval(&upper, row)) {
                    (true, true) => Out::One,
                    (false, false) => Out::Zero,
                    _ => Out::DontCare,
                }
            });
            prop_assert_eq!(table, every_row, "[{}, {}] under {}", lower, upper, ctx);
        }
    }

    #[test]
    #[should_panic(expected = "unregistered atom")]
    fn word_parallel_eval_rejects_unregistered_atoms() {
        column_atoms(7).eval_words(&parse_pred("t.c9 > 9").unwrap());
    }

    #[test]
    fn atom_map_dedupes_semantic_equivalents() {
        // a = b and a+1 = b+1 are the same atom; a >= b vs a < b are
        // negations of each other.
        let p = parse_pred("a = b AND a + 1 = b + 1 AND a >= b AND a < b").unwrap();
        let mut o = oracle_for(&[&p]);
        let mut map = AtomMap::default();
        map.absorb(&p, &mut o, &[]);
        assert_eq!(map.len(), 2, "atoms: {:?}", map.atoms);
    }

    #[test]
    fn example14_truth_table_minimization() {
        // Paper Example 14: l★ = (a≥b ∧ f=e) ∨ a=b ; u★ = a=b ∨ e=f ∨ a>b
        // → minimal fix is a ≥ b.
        let lower = parse_pred("(a >= b AND f = e) OR a = b").unwrap();
        let upper = parse_pred("a = b OR e = f OR a > b").unwrap();
        let mut o = oracle_for(&[&lower, &upper]);
        let fix = min_fix(&mut o, &[], &lower, &upper, NormalForm::Dnf);
        let expect = parse_pred("a >= b").unwrap();
        assert!(
            o.equiv_pred(&fix, &expect, &[]).is_true(),
            "expected a >= b, got {fix}"
        );
        // And it is literally a single atom (optimal size).
        assert!(fix.is_atomic(), "got {fix}");
    }

    #[test]
    fn tight_bound_returns_the_bound() {
        let p = parse_pred("a = 1 AND b = 2").unwrap();
        let mut o = oracle_for(&[&p]);
        let fix = min_fix(&mut o, &[], &p, &p, NormalForm::Dnf);
        assert!(o.equiv_pred(&fix, &p, &[]).is_true(), "got {fix}");
    }

    #[test]
    fn loose_bound_prefers_smaller() {
        // [a1 ∧ a2 ∧ a3, (a1 ∧ a2) ∨ a3] admits just a3 (Example 13).
        let lower = parse_pred("a = 1 AND b = 2 AND c = 3").unwrap();
        let upper = parse_pred("(a = 1 AND b = 2) OR c = 3").unwrap();
        let mut o = oracle_for(&[&lower, &upper]);
        let fix = min_fix(&mut o, &[], &lower, &upper, NormalForm::Dnf);
        let expect = parse_pred("c = 3").unwrap();
        assert_eq!(fix, expect, "expected the single atom c = 3");
    }

    #[test]
    fn full_slack_gives_constant() {
        let mut o = oracle_for(&[]);
        let fix = min_fix(&mut o, &[], &Pred::False, &Pred::True, NormalForm::Dnf);
        assert_eq!(fix, Pred::False);
        let fix_cnf = min_fix(&mut o, &[], &Pred::False, &Pred::True, NormalForm::Cnf);
        assert_eq!(fix_cnf, Pred::True);
    }

    #[test]
    fn cnf_mode_produces_equivalent_conjunction() {
        let lower = parse_pred("a = 1 AND b = 2").unwrap();
        let upper = lower.clone();
        let mut o = oracle_for(&[&lower]);
        let fix = min_fix(&mut o, &[], &lower, &upper, NormalForm::Cnf);
        assert!(o.equiv_pred(&fix, &lower, &[]).is_true(), "got {fix}");
        // CNF of a conjunction of atoms is the conjunction itself.
        assert!(matches!(fix, Pred::And(_)), "got {fix}");
    }

    #[test]
    fn context_don_t_cares_shrink_fixes() {
        // Under ctx x > 10, the bound [x > 10 ∧ y = 1, y = 1] should
        // minimize to just y = 1.
        let ctx = parse_pred("x > 10").unwrap();
        let lower = parse_pred("x > 10 AND y = 1").unwrap();
        let upper = parse_pred("y = 1").unwrap();
        let mut o = oracle_for(&[&ctx, &lower, &upper]);
        let fix = min_fix(&mut o, &[&ctx], &lower, &upper, NormalForm::Dnf);
        assert_eq!(fix, parse_pred("y = 1").unwrap(), "got {fix}");
    }

    #[test]
    fn interdependent_atoms_become_dont_cares() {
        // Atoms a=b and a>b cannot both hold: rows setting both true are
        // infeasible, enabling e.g. [a>=b ∧ ¬(a=b), a>b ∨ a=b] → a>=b...
        // Here we just check minimization semantics stay within bounds.
        let lower = parse_pred("a > b").unwrap();
        let upper = parse_pred("a >= b").unwrap();
        let mut o = oracle_for(&[&lower, &upper]);
        let fix = min_fix(&mut o, &[], &lower, &upper, NormalForm::Dnf);
        assert!(o.implies_pred(&lower, &fix, &[]).is_true());
        assert!(o.implies_pred(&fix, &upper, &[]).is_true());
    }

    #[test]
    fn too_many_atoms_falls_back_to_lower() {
        // 13 unique atoms exceeds MAX_MINFIX_ATOMS.
        let parts: Vec<String> = (0..13).map(|i| format!("c{i} = {i}")).collect();
        let sql = parts.join(" AND ");
        let lower = parse_pred(&sql).unwrap();
        let mut o = oracle_for(&[&lower]);
        let fix = min_fix(&mut o, &[], &lower, &Pred::True, NormalForm::Dnf);
        assert_eq!(fix, lower);
    }
}
