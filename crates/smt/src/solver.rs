//! The top-level solver: Boolean-skeleton enumeration over canonicalized
//! atoms with three-valued pruning and per-branch theory checks.
//!
//! This implements the three primitives of §3 of the paper —
//! `IsSatisfiable`, `IsUnSatisfiable` and `IsEquiv` — with the same
//! soundness contract as the paper's use of Z3: definitive answers are
//! never wrong; `Unknown` is possible and callers act only on definitive
//! answers.
//!
//! Before branching (and before the atom budget is consulted), every
//! *root literal* — an atom reachable from the top of the checked
//! conjunction through conjunctions and negations only — is assigned as a
//! unit and pushed onto the [`TheoryState`], as root-level unit assignment
//! does in DPLL(T). A quick conflict among the units refutes the whole
//! check, so a statically contradictory predicate is `Unsat` however many
//! atoms the rest of the formula carries.
//!
//! The solver consumes the *tree* representation. Callers that work in
//! interned ids ([`crate::intern`]) extract trees only when they are
//! about to pay for a real check (their verdict caches answer everything
//! else), so the per-check tree cost is dominated by the search itself.

use std::sync::Arc;

use crate::conj::Lit;
use crate::formula::{Atom, Formula};
use crate::model::Model;
use crate::term::VarPool;
use crate::theory::TheoryState;
use crate::{SatResult, TriBool};

/// Solver configuration.
#[derive(Debug, Clone)]
pub struct Solver {
    /// Maximum number of distinct atoms before giving up with `Unknown`.
    pub max_atoms: usize,
    /// Run an intermediate theory check every this many assigned atoms
    /// (prunes contradictory partial assignments early).
    pub partial_check_stride: usize,
    /// Hard cap on theory-checked leaves per `check` call.
    pub max_leaves: usize,
}

impl Default for Solver {
    fn default() -> Self {
        Solver {
            max_atoms: 20,
            partial_check_stride: 4,
            max_leaves: 1 << 20,
        }
    }
}

/// Counters describing the theory work one `check` call performed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// Literals pushed onto the theory stack (root units plus branch
    /// assignments); each is translated exactly once.
    pub theory_lits_translated: u64,
    /// Full string+LIA conjunction checks (leaves plus stride prunes).
    pub theory_full_checks: u64,
    /// Branches (or, among the root units, whole checks) refuted by the
    /// quick conflict detector at push time.
    pub quick_conflicts: u64,
    /// Theory-checked leaves.
    pub leaves: u64,
}

impl SolveStats {
    pub fn add(&mut self, other: &SolveStats) {
        self.theory_lits_translated += other.theory_lits_translated;
        self.theory_full_checks += other.theory_full_checks;
        self.quick_conflicts += other.quick_conflicts;
        self.leaves += other.leaves;
    }
}

/// Outcome of a `check` call: verdict plus a validated model on `Sat`.
#[derive(Debug, Clone)]
pub struct CheckOutcome {
    pub result: SatResult,
    pub model: Option<Model>,
    pub stats: SolveStats,
}

impl CheckOutcome {
    fn without_model(result: SatResult, stats: SolveStats) -> Self {
        CheckOutcome { result, model: None, stats }
    }
}

/// A context digested once by [`Solver::prepare_prefix`] and shared by a
/// batch of [`Solver::check_assuming`] calls: the parts themselves (for
/// defensive model validation), their canonical atoms, and their
/// abstracted skeletons. Per-candidate work is then limited to the one
/// formula pushed on top of the prefix.
#[derive(Debug, Clone)]
pub struct AssumptionPrefix {
    parts: Vec<Arc<Formula>>,
    atoms: Vec<Atom>,
    /// Empty when the context is `False` or already over the atom budget.
    iforms: Vec<IForm>,
    has_false: bool,
}

/// Formula abstracted over canonical atom indices: the hot structure the
/// skeleton search evaluates (avoids re-canonicalizing and re-comparing
/// atoms at every search node).
#[derive(Debug, Clone)]
enum IForm {
    True,
    False,
    Atom(usize),
    And(Vec<IForm>),
    Or(Vec<IForm>),
    Not(Box<IForm>),
}

fn abstract_formula(f: &Formula, atoms: &[Atom]) -> IForm {
    match f {
        Formula::True => IForm::True,
        Formula::False => IForm::False,
        Formula::Atom(a) => {
            let (c, _) = a.canonical();
            let idx = atoms.iter().position(|x| *x == c).expect("atom registered");
            IForm::Atom(idx)
        }
        Formula::And(cs) => IForm::And(cs.iter().map(|c| abstract_formula(c, atoms)).collect()),
        Formula::Or(cs) => IForm::Or(cs.iter().map(|c| abstract_formula(c, atoms)).collect()),
        Formula::Not(c) => IForm::Not(Box::new(abstract_formula(c, atoms))),
    }
}

/// Collect the root literals of `f` under `polarity`: atoms reachable
/// through conjunctions and negations only, so every model of `f`
/// satisfies each of them.
fn root_lits(f: &Formula, polarity: bool, out: &mut Vec<Lit>) {
    match f {
        Formula::Atom(a) => out.push((a.canonical().0, polarity)),
        Formula::Not(c) => root_lits(c, !polarity, out),
        Formula::And(cs) if polarity => cs.iter().for_each(|c| root_lits(c, true, out)),
        _ => {}
    }
}

fn eval3_idx(f: &IForm, assign: &[Option<bool>]) -> Option<bool> {
    match f {
        IForm::True => Some(true),
        IForm::False => Some(false),
        IForm::Atom(i) => assign[*i],
        IForm::And(cs) => {
            let mut unknown = false;
            for c in cs {
                match eval3_idx(c, assign) {
                    Some(false) => return Some(false),
                    None => unknown = true,
                    Some(true) => {}
                }
            }
            if unknown {
                None
            } else {
                Some(true)
            }
        }
        IForm::Or(cs) => {
            let mut unknown = false;
            for c in cs {
                match eval3_idx(c, assign) {
                    Some(true) => return Some(true),
                    None => unknown = true,
                    Some(false) => {}
                }
            }
            if unknown {
                None
            } else {
                Some(false)
            }
        }
        IForm::Not(c) => eval3_idx(c, assign).map(|b| !b),
    }
}

struct Search<'a> {
    solver: &'a Solver,
    /// Conjunction parts of the query (for defensive model validation).
    parts: &'a [&'a Formula],
    iform: &'a IForm,
    atoms: Vec<Atom>,
    assign: Vec<Option<bool>>,
    pool: &'a mut VarPool,
    /// Assumption stack holding exactly the assigned literals, root units
    /// first, then branch decisions in assignment order.
    theory: TheoryState,
    stats: SolveStats,
    unknown_seen: bool,
    leaves: usize,
}

impl Search<'_> {
    /// Full theory check of the currently assigned literals.
    fn full_check(&mut self) -> (SatResult, Option<Model>) {
        self.stats.theory_full_checks += 1;
        self.theory.check_full()
    }

    /// Returns `Some(model)` when a satisfying, validated model is found.
    fn dfs(&mut self, depth: usize) -> Option<Model> {
        if self.leaves > self.solver.max_leaves {
            self.unknown_seen = true;
            return None;
        }
        // Three-valued evaluation under the current partial assignment.
        let value = eval3_idx(self.iform, &self.assign);
        match value {
            Some(false) => return None,
            Some(true) => {
                // Formula already true: theory-check the assigned literals.
                self.leaves += 1;
                self.stats.leaves += 1;
                let (r, m) = self.full_check();
                match r {
                    SatResult::Sat => {
                        let m = m.expect("Sat implies model");
                        // Defensive final validation on the whole formula.
                        if self.parts.iter().all(|p| m.eval_formula(p) == Some(true)) {
                            return Some(m);
                        }
                        self.unknown_seen = true;
                        return None;
                    }
                    SatResult::Unsat => return None,
                    SatResult::Unknown => {
                        self.unknown_seen = true;
                        return None;
                    }
                }
            }
            None => {}
        }
        // Periodic partial-conjunction pruning.
        if depth > 0 && depth.is_multiple_of(self.solver.partial_check_stride) {
            if let (SatResult::Unsat, _) = self.full_check() {
                return None;
            }
        }
        // Branch on the first unassigned atom.
        let next = self.assign.iter().position(Option::is_none);
        let Some(i) = next else {
            // Fully assigned but formula undetermined cannot happen.
            return None;
        };
        for b in [true, false] {
            self.assign[i] = Some(b);
            self.stats.theory_lits_translated += 1;
            if self.theory.push(self.atoms[i].clone(), b, self.pool) {
                // Quick conflict: the stacked prefix is already
                // unsatisfiable, so no leaf below can be Sat.
                self.stats.quick_conflicts += 1;
                self.theory.pop(self.pool);
                self.assign[i] = None;
                continue;
            }
            let found = self.dfs(depth + 1);
            self.theory.pop(self.pool);
            self.assign[i] = None;
            if found.is_some() {
                return found;
            }
        }
        None
    }
}

impl Solver {
    pub fn new() -> Self {
        Solver::default()
    }

    /// Check satisfiability of `formula`; returns a validated model on
    /// `Sat`.
    pub fn check(&self, formula: &Formula, pool: &mut VarPool) -> CheckOutcome {
        self.check_parts(&[formula], pool)
    }

    /// Check satisfiability of the conjunction of `parts`. Equivalent to
    /// `check(&Formula::and(parts))` — any `False` part short-circuits to
    /// `Unsat`, atoms are collected across parts in order — but without
    /// cloning the parts into a single tree.
    pub fn check_parts(&self, parts: &[&Formula], pool: &mut VarPool) -> CheckOutcome {
        if parts.iter().any(|p| matches!(p, Formula::False)) {
            return CheckOutcome::without_model(SatResult::Unsat, SolveStats::default());
        }
        let mut atoms = Vec::new();
        for p in parts {
            p.collect_atoms(&mut atoms);
        }
        let skeleton =
            |atoms: &[Atom]| IForm::And(parts.iter().map(|p| abstract_formula(p, atoms)).collect());
        self.run(parts, atoms, skeleton, pool)
    }

    /// [`Solver::search`], then drop the throwaway linearization
    /// variables its root units allocated (the branch search unwinds its
    /// own), so a check leaves `pool` as it found it.
    fn run(
        &self,
        parts: &[&Formula],
        atoms: Vec<Atom>,
        skeleton: impl FnOnce(&[Atom]) -> IForm,
        pool: &mut VarPool,
    ) -> CheckOutcome {
        let pool_len = pool.len();
        let out = self.search(parts, atoms, skeleton, pool);
        pool.truncate(pool_len);
        out
    }

    /// Assign the root units of `parts`, then (within the atom budget)
    /// search the Boolean skeleton that `skeleton` builds over `atoms`.
    fn search(
        &self,
        parts: &[&Formula],
        atoms: Vec<Atom>,
        skeleton: impl FnOnce(&[Atom]) -> IForm,
        pool: &mut VarPool,
    ) -> CheckOutcome {
        let mut stats = SolveStats::default();
        let mut theory = TheoryState::new();
        let mut assign = vec![None; atoms.len()];
        let mut units = Vec::new();
        for p in parts {
            root_lits(p, true, &mut units);
        }
        for (atom, polarity) in units {
            let i = atoms.iter().position(|a| *a == atom).expect("atom registered");
            match assign[i] {
                Some(b) if b == polarity => continue,
                Some(_) => {
                    // The same atom is a unit with both polarities.
                    stats.quick_conflicts += 1;
                    return CheckOutcome::without_model(SatResult::Unsat, stats);
                }
                None => assign[i] = Some(polarity),
            }
            stats.theory_lits_translated += 1;
            if theory.push(atom, polarity, pool) {
                stats.quick_conflicts += 1;
                return CheckOutcome::without_model(SatResult::Unsat, stats);
            }
        }
        if atoms.len() > self.max_atoms {
            return CheckOutcome::without_model(SatResult::Unknown, stats);
        }
        let iform = skeleton(&atoms);
        let mut search = Search {
            solver: self,
            parts,
            iform: &iform,
            atoms,
            assign,
            pool,
            theory,
            stats,
            unknown_seen: false,
            leaves: 0,
        };
        match search.dfs(0) {
            Some(m) => {
                CheckOutcome { result: SatResult::Sat, model: Some(m), stats: search.stats }
            }
            None => CheckOutcome {
                result: if search.unknown_seen { SatResult::Unknown } else { SatResult::Unsat },
                model: None,
                stats: search.stats,
            },
        }
    }

    /// Check satisfiability of `formula` under a context of assertions
    /// (the paper's `IsSatisfiable_C`).
    pub fn check_with_ctx(
        &self,
        formula: &Formula,
        ctx: &[Formula],
        pool: &mut VarPool,
    ) -> CheckOutcome {
        let mut parts: Vec<&Formula> = ctx.iter().collect();
        parts.push(formula);
        self.check_parts(&parts, pool)
    }

    /// Digest a context once so a batch of [`Solver::check_assuming`]
    /// calls shares its atom collection and skeleton abstraction instead
    /// of redoing both per candidate.
    pub fn prepare_prefix(&self, ctx: &[Arc<Formula>]) -> AssumptionPrefix {
        let has_false = ctx.iter().any(|p| matches!(p.as_ref(), Formula::False));
        let mut atoms = Vec::new();
        if !has_false {
            for p in ctx {
                p.collect_atoms(&mut atoms);
            }
        }
        let iforms = if has_false || atoms.len() > self.max_atoms {
            Vec::new()
        } else {
            ctx.iter().map(|p| abstract_formula(p, &atoms)).collect()
        };
        AssumptionPrefix { parts: ctx.to_vec(), atoms, iforms, has_false }
    }

    /// `check_with_ctx` against a prepared prefix. Returns exactly what
    /// `check_with_ctx(formula, ctx, pool)` would: the context atoms are
    /// a stable prefix of the combined atom list, so the prepared
    /// skeletons' atom indices stay valid in the extended search.
    pub fn check_assuming(
        &self,
        prefix: &AssumptionPrefix,
        formula: &Formula,
        pool: &mut VarPool,
    ) -> CheckOutcome {
        if prefix.has_false || matches!(formula, Formula::False) {
            return CheckOutcome::without_model(SatResult::Unsat, SolveStats::default());
        }
        let mut atoms = prefix.atoms.clone();
        formula.collect_atoms(&mut atoms);
        let mut parts: Vec<&Formula> = prefix.parts.iter().map(|a| a.as_ref()).collect();
        parts.push(formula);
        // Over the budget `run` stops after the root units, before it
        // would need the (then empty) prepared skeletons.
        let skeleton = |atoms: &[Atom]| {
            let mut iforms = prefix.iforms.clone();
            iforms.push(abstract_formula(formula, atoms));
            IForm::And(iforms)
        };
        self.run(&parts, atoms, skeleton, pool)
    }

    /// `IsSatisfiable` with tri-valued result.
    pub fn is_satisfiable(&self, f: &Formula, ctx: &[Formula], pool: &mut VarPool) -> TriBool {
        match self.check_with_ctx(f, ctx, pool).result {
            SatResult::Sat => TriBool::True,
            SatResult::Unsat => TriBool::False,
            SatResult::Unknown => TriBool::Unknown,
        }
    }

    /// `IsUnSatisfiable` with tri-valued result.
    pub fn is_unsatisfiable(&self, f: &Formula, ctx: &[Formula], pool: &mut VarPool) -> TriBool {
        self.is_satisfiable(f, ctx, pool).negate()
    }

    /// Does `f ⟹ g` hold under the context? (`Unsat(ctx ∧ f ∧ ¬g)`)
    pub fn implies(&self, f: &Formula, g: &Formula, ctx: &[Formula], pool: &mut VarPool) -> TriBool {
        let q = Formula::and(vec![f.clone(), Formula::not(g.clone())]);
        self.is_unsatisfiable(&q, ctx, pool)
    }

    /// `IsEquiv`: does `f ⇔ g` hold under the context?
    pub fn equiv(&self, f: &Formula, g: &Formula, ctx: &[Formula], pool: &mut VarPool) -> TriBool {
        match self.implies(f, g, ctx, pool) {
            TriBool::False => TriBool::False,
            fw => match self.implies(g, f, ctx, pool) {
                TriBool::False => TriBool::False,
                bw => fw.and(bw),
            },
        }
    }

    /// Is `f` a tautology under the context?
    pub fn is_valid(&self, f: &Formula, ctx: &[Formula], pool: &mut VarPool) -> TriBool {
        self.is_unsatisfiable(&Formula::not(f.clone()), ctx, pool)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formula::Rel;
    use crate::term::{Sort, Term};

    fn setup() -> (Solver, VarPool, Term, Term, Term, Term, Term) {
        let mut p = VarPool::new();
        let a = Term::var(p.fresh("a", Sort::Int));
        let b = Term::var(p.fresh("b", Sort::Int));
        let c = Term::var(p.fresh("c", Sort::Int));
        let d = Term::var(p.fresh("d", Sort::Int));
        let e = Term::var(p.fresh("e", Sort::Int));
        (Solver::new(), p, a, b, c, d, e)
    }

    #[test]
    fn tautology_and_contradiction() {
        let (s, mut p, a, ..) = setup();
        // a ≤ 5 ∨ a > 5 is valid.
        let f = Formula::or(vec![
            Formula::cmp(a.clone(), Rel::Le, Term::IntConst(5)),
            Formula::cmp(a.clone(), Rel::Gt, Term::IntConst(5)),
        ]);
        assert_eq!(s.is_valid(&f, &[], &mut p), TriBool::True);
        // a ≤ 5 ∧ a > 5 is unsat.
        let g = Formula::and(vec![
            Formula::cmp(a.clone(), Rel::Le, Term::IntConst(5)),
            Formula::cmp(a, Rel::Gt, Term::IntConst(5)),
        ]);
        assert_eq!(s.is_unsatisfiable(&g, &[], &mut p), TriBool::True);
    }

    #[test]
    fn equivalence_via_transitivity() {
        let (s, mut p, a, b, c, ..) = setup();
        // Under ctx a=b: (a=c) ⇔ (b=c).
        let ctx = vec![Formula::cmp(a.clone(), Rel::Eq, b.clone())];
        let f = Formula::cmp(a, Rel::Eq, c.clone());
        let g = Formula::cmp(b, Rel::Eq, c);
        assert_eq!(s.equiv(&f, &g, &ctx, &mut p), TriBool::True);
    }

    #[test]
    fn paper_example5_equivalence_check() {
        // P*: (A=C ∧ (E<5 ∨ D>10 ∨ D<7)) ∨ (A=B ∧ (D≠E ∨ D>F))
        // P : (A=C ∧ (D≠E ∨ D>F)) ∨ (A=C ∧ (D>11 ∨ D<7 ∨ E≤5))
        // These are NOT equivalent.
        let mut p = VarPool::new();
        let a = Term::var(p.fresh("A", Sort::Int));
        let b = Term::var(p.fresh("B", Sort::Int));
        let c = Term::var(p.fresh("C", Sort::Int));
        let d = Term::var(p.fresh("D", Sort::Int));
        let e = Term::var(p.fresh("E", Sort::Int));
        let ff = Term::var(p.fresh("F", Sort::Int));
        let s = Solver::new();
        let pstar = Formula::or(vec![
            Formula::and(vec![
                Formula::cmp(a.clone(), Rel::Eq, c.clone()),
                Formula::or(vec![
                    Formula::cmp(e.clone(), Rel::Lt, Term::IntConst(5)),
                    Formula::cmp(d.clone(), Rel::Gt, Term::IntConst(10)),
                    Formula::cmp(d.clone(), Rel::Lt, Term::IntConst(7)),
                ]),
            ]),
            Formula::and(vec![
                Formula::cmp(a.clone(), Rel::Eq, b.clone()),
                Formula::or(vec![
                    Formula::cmp(d.clone(), Rel::Ne, e.clone()),
                    Formula::cmp(d.clone(), Rel::Gt, ff.clone()),
                ]),
            ]),
        ]);
        let pwork = Formula::or(vec![
            Formula::and(vec![
                Formula::cmp(a.clone(), Rel::Eq, c.clone()),
                Formula::or(vec![
                    Formula::cmp(d.clone(), Rel::Ne, e.clone()),
                    Formula::cmp(d.clone(), Rel::Gt, ff.clone()),
                ]),
            ]),
            Formula::and(vec![
                Formula::cmp(a.clone(), Rel::Eq, c.clone()),
                Formula::or(vec![
                    Formula::cmp(d.clone(), Rel::Gt, Term::IntConst(11)),
                    Formula::cmp(d.clone(), Rel::Lt, Term::IntConst(7)),
                    Formula::cmp(e.clone(), Rel::Le, Term::IntConst(5)),
                ]),
            ]),
        ]);
        assert_eq!(s.equiv(&pstar, &pwork, &[], &mut p), TriBool::False);
        // And the fixed version (x4→A=B, x10→D>10, x12→E<5) IS equivalent.
        let pfixed = Formula::or(vec![
            Formula::and(vec![
                Formula::cmp(a.clone(), Rel::Eq, b.clone()),
                Formula::or(vec![
                    Formula::cmp(d.clone(), Rel::Ne, e.clone()),
                    Formula::cmp(d.clone(), Rel::Gt, ff.clone()),
                ]),
            ]),
            Formula::and(vec![
                Formula::cmp(a.clone(), Rel::Eq, c.clone()),
                Formula::or(vec![
                    Formula::cmp(d.clone(), Rel::Gt, Term::IntConst(10)),
                    Formula::cmp(d.clone(), Rel::Lt, Term::IntConst(7)),
                    Formula::cmp(e.clone(), Rel::Lt, Term::IntConst(5)),
                ]),
            ]),
        ]);
        assert_eq!(s.equiv(&pstar, &pfixed, &[], &mut p), TriBool::True);
    }

    #[test]
    fn inequality_tightening_example() {
        let (s, mut p, a, ..) = setup();
        // a > 100 implies a ≥ 101 over the integers (paper Example 3's
        // per-row core).
        let f = Formula::cmp(a.clone(), Rel::Gt, Term::IntConst(100));
        let g = Formula::cmp(a, Rel::Ge, Term::IntConst(101));
        assert_eq!(s.equiv(&f, &g, &[], &mut p), TriBool::True);
    }

    #[test]
    fn strings_and_like_in_full_solver() {
        let mut p = VarPool::new();
        let name = Term::var(p.fresh("name", Sort::Str));
        let s = Solver::new();
        // name = 'Amy' ∧ name NOT LIKE 'A%' is unsat.
        let f = Formula::and(vec![
            Formula::cmp(name.clone(), Rel::Eq, Term::StrConst("Amy".into())),
            Formula::not(Formula::atom(Atom::Like(name.clone(), "A%".into()))),
        ]);
        assert_eq!(s.is_unsatisfiable(&f, &[], &mut p), TriBool::True);
        // name LIKE 'A%' ∧ name ≠ 'Amy' is sat.
        let g = Formula::and(vec![
            Formula::atom(Atom::Like(name.clone(), "A%".into())),
            Formula::cmp(name, Rel::Ne, Term::StrConst("Amy".into())),
        ]);
        let out = s.check(&g, &mut p);
        assert_eq!(out.result, SatResult::Sat);
        assert_eq!(out.model.unwrap().eval_formula(&g), Some(true));
    }

    #[test]
    fn too_many_atoms_is_unknown() {
        let mut p = VarPool::new();
        let s = Solver { max_atoms: 3, ..Solver::default() };
        let mut parts = vec![];
        for i in 0..5 {
            let v = Term::var(p.fresh(&format!("x{i}"), Sort::Int));
            parts.push(Formula::cmp(v, Rel::Gt, Term::IntConst(i)));
        }
        let f = Formula::and(parts);
        assert_eq!(s.check(&f, &mut p).result, SatResult::Unknown);
    }

    /// Verdict of `Solver::check_parts` over `parts` with default budgets.
    fn parts_verdict(parts: &[Formula], pool: &mut VarPool) -> SatResult {
        let refs: Vec<&Formula> = parts.iter().collect();
        Solver::new().check_parts(&refs, pool).result
    }

    #[test]
    fn interval_contradiction_is_refuted() {
        let (_, mut p, x, ..) = setup();
        let f = Formula::and(vec![
            Formula::cmp(x.clone(), Rel::Gt, Term::IntConst(5)),
            Formula::cmp(x, Rel::Lt, Term::IntConst(3)),
        ]);
        assert_eq!(parts_verdict(std::slice::from_ref(&f), &mut p), SatResult::Unsat);
        // Root units are refuted before the 20-atom budget is consulted.
        let wide = Formula::or(
            (0..20)
                .map(|i| {
                    let v = Term::var(p.fresh(&format!("w{i}"), Sort::Int));
                    Formula::cmp(v, Rel::Eq, Term::IntConst(i))
                })
                .collect(),
        );
        assert_eq!(parts_verdict(&[f, wide], &mut p), SatResult::Unsat);
    }

    #[test]
    fn integer_tightening_applies() {
        let (_, mut p, x, ..) = setup();
        // x > 4 ∧ x < 6 has the single model x = 5.
        let sat = Formula::and(vec![
            Formula::cmp(x.clone(), Rel::Gt, Term::IntConst(4)),
            Formula::cmp(x.clone(), Rel::Lt, Term::IntConst(6)),
        ]);
        assert_eq!(parts_verdict(&[sat], &mut p), SatResult::Sat);
        // x > 4 ∧ x < 5 has none over the integers.
        let unsat = Formula::and(vec![
            Formula::cmp(x.clone(), Rel::Gt, Term::IntConst(4)),
            Formula::cmp(x, Rel::Lt, Term::IntConst(5)),
        ]);
        assert_eq!(parts_verdict(&[unsat], &mut p), SatResult::Unsat);
    }

    #[test]
    fn string_equalities_conflict() {
        let mut p = VarPool::new();
        let s = Term::var(p.fresh("s", Sort::Str));
        let eq = |c: &str| Formula::cmp(s.clone(), Rel::Eq, Term::StrConst(c.into()));
        let f = Formula::and(vec![eq("a"), eq("b")]);
        assert_eq!(parts_verdict(&[f], &mut p), SatResult::Unsat);
        let f = Formula::and(vec![eq("a"), Formula::not(eq("a"))]);
        assert_eq!(parts_verdict(&[f], &mut p), SatResult::Unsat);
    }

    #[test]
    fn context_formulas_participate() {
        let (_, mut p, x, ..) = setup();
        let ctx = Formula::cmp(x.clone(), Rel::Le, Term::IntConst(3));
        let f = Formula::cmp(x, Rel::Ge, Term::IntConst(10));
        assert_eq!(parts_verdict(&[ctx, f], &mut p), SatResult::Unsat);
    }

    #[test]
    fn opaque_shapes_never_decide() {
        let (_, mut p, x, y, ..) = setup();
        let s = Term::var(p.fresh("s", Sort::Str));
        // Satisfiable shapes stay Sat: a disjunction (no root facts), a
        // lone LIKE unit, and bounds on different variables.
        let f = Formula::or(vec![
            Formula::cmp(x.clone(), Rel::Gt, Term::IntConst(5)),
            Formula::cmp(x.clone(), Rel::Lt, Term::IntConst(3)),
        ]);
        assert_eq!(parts_verdict(&[f], &mut p), SatResult::Sat);
        let like = Formula::atom(Atom::Like(s, "x%".into()));
        assert_eq!(parts_verdict(&[like], &mut p), SatResult::Sat);
        // Different variables never conflict.
        let f = Formula::and(vec![
            Formula::cmp(x, Rel::Gt, Term::IntConst(5)),
            Formula::cmp(y, Rel::Lt, Term::IntConst(3)),
        ]);
        assert_eq!(parts_verdict(&[f], &mut p), SatResult::Sat);
    }

    #[test]
    fn trivial_constants_fold() {
        let (_, mut p, x, ..) = setup();
        let one_gt_two = Formula::cmp(Term::IntConst(1), Rel::Gt, Term::IntConst(2));
        assert_eq!(parts_verdict(&[one_gt_two], &mut p), SatResult::Unsat);
        let x_ne_x = Formula::cmp(x.clone(), Rel::Ne, x.clone());
        assert_eq!(parts_verdict(&[x_ne_x], &mut p), SatResult::Unsat);
        let s = Term::var(p.fresh("s", Sort::Str));
        for rel in [Rel::Lt, Rel::Gt] {
            let s_s = Formula::cmp(s.clone(), rel, s.clone());
            assert_eq!(parts_verdict(&[s_s], &mut p), SatResult::Unsat, "{rel}");
        }
        let x_eq_x = Formula::cmp(x.clone(), Rel::Eq, x);
        assert_eq!(parts_verdict(&[x_eq_x], &mut p), SatResult::Sat);
        assert_eq!(parts_verdict(&[Formula::False], &mut p), SatResult::Unsat);
        assert_eq!(parts_verdict(&[Formula::True], &mut p), SatResult::Sat);
    }

    #[test]
    fn root_units_leave_the_pool_as_they_found_it() {
        let (s, mut p, x, y, ..) = setup();
        let before = p.len();
        // A non-linear unit allocates an opaque linearization variable.
        let f = Formula::and(vec![
            Formula::cmp(Term::mul(x.clone(), y.clone()), Rel::Ge, Term::IntConst(0)),
            Formula::or(vec![
                Formula::cmp(x, Rel::Eq, Term::IntConst(1)),
                Formula::cmp(y, Rel::Eq, Term::IntConst(1)),
            ]),
        ]);
        assert_ne!(s.check(&f, &mut p).result, SatResult::Unsat);
        assert_eq!(p.len(), before);
    }

    #[test]
    fn tautological_where_condition() {
        // The Brass-et-al efficiency issue: A >= B OR A < B is a tautology
        // — Qr-Hint must see the equivalence with TRUE.
        let (s, mut p, a, b, ..) = setup();
        let f = Formula::or(vec![
            Formula::cmp(a.clone(), Rel::Ge, b.clone()),
            Formula::cmp(a, Rel::Lt, b),
        ]);
        assert_eq!(s.equiv(&f, &Formula::True, &[], &mut p), TriBool::True);
    }

    #[test]
    fn context_makes_condition_redundant() {
        let (s, mut p, a, b, ..) = setup();
        // Under ctx {a > 4}: (a > 4 ∧ b = 1) ⇔ (b = 1).
        let ctx = vec![Formula::cmp(a.clone(), Rel::Gt, Term::IntConst(4))];
        let f = Formula::and(vec![
            Formula::cmp(a, Rel::Gt, Term::IntConst(4)),
            Formula::cmp(b.clone(), Rel::Eq, Term::IntConst(1)),
        ]);
        let g = Formula::cmp(b, Rel::Eq, Term::IntConst(1));
        assert_eq!(s.equiv(&f, &g, &ctx, &mut p), TriBool::True);
    }
}
