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
//! The solver consumes the *tree* representation; callers that work in
//! interned ids ([`crate::intern`]) extract trees only for the checks
//! their verdict caches miss. It has two entry points, which share the
//! root-unit loop and the skeleton search:
//!
//! * [`Solver::check_parts`] decides one conjunction from scratch (the
//!   `check*`, `is_*`, `implies`, `equiv` helpers all reduce to it);
//! * [`Solver::check_rows`] decides a whole truth table of literal
//!   combinations (MinFix's rows) on one theory stack: it pushes the
//!   context's units once and walks the rows depth-first, so rows sharing
//!   a prefix share its pushes, and each leaf runs the same skeleton
//!   search a from-scratch check of that row runs.
//!
//! Either way one call owns one [`TheoryState`], whose memo answers a
//! full check's string or integer decision when an earlier check of the
//! same call decided the same input — in a table, rows that differ only
//! in a string literal share their integer system, and the other way
//! round — so a table pays one decider run per distinct subproblem, not
//! per row. [`SolveStats::theory_memo_hits`] counts the reuse; every
//! other count is what the memo-free search would report.

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
    /// Decider runs of full checks answered by the theory stack's memo
    /// ([`TheoryState::memo_hits`]): a full check counts up to two, its
    /// string and its integer decision.
    pub theory_memo_hits: u64,
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

/// Outcome of a [`Solver::check_rows`] call.
#[derive(Debug, Clone)]
pub struct RowsOutcome {
    /// One entry per row: the verdict of a needed row, `None` for a row
    /// the mask left out.
    pub verdicts: Vec<Option<SatResult>>,
    /// Theory work of the whole walk.
    pub stats: SolveStats,
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

/// Three-valued conjunction of `cs` under a partial assignment.
fn eval3_and(cs: &[IForm], assign: &[Option<bool>]) -> Option<bool> {
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

fn eval3_idx(f: &IForm, assign: &[Option<bool>]) -> Option<bool> {
    match f {
        IForm::True => Some(true),
        IForm::False => Some(false),
        IForm::Atom(i) => assign[*i],
        IForm::And(cs) => eval3_and(cs, assign),
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

/// The assignment state the root units and the skeleton search share:
/// the canonical atoms of the check, their current assignment, and the
/// theory stack holding exactly the assigned literals, root units first,
/// then branch decisions in assignment order.
struct Stack<'p> {
    atoms: Vec<Atom>,
    assign: Vec<Option<bool>>,
    /// Atom index of each root unit, in push order: one theory frame
    /// each.
    units: Vec<usize>,
    theory: TheoryState,
    pool: &'p mut VarPool,
    stats: SolveStats,
}

impl<'p> Stack<'p> {
    fn new(pool: &'p mut VarPool) -> Self {
        Stack {
            assign: Vec::new(),
            atoms: Vec::new(),
            units: Vec::new(),
            theory: TheoryState::new(),
            pool,
            stats: SolveStats::default(),
        }
    }

    /// Register the canonical atoms of `f` after those already known.
    fn add_atoms(&mut self, f: &Formula) {
        f.collect_atoms(&mut self.atoms);
        self.assign.resize(self.atoms.len(), None);
    }

    /// Assign and push the root literals of `parts` as units. Returns
    /// `false` on a quick conflict, including an atom that is a unit with
    /// both polarities.
    fn assign_units(&mut self, parts: &[&Formula]) -> bool {
        let mut units = Vec::new();
        for p in parts {
            root_lits(p, true, &mut units);
        }
        for (atom, polarity) in units {
            let i = self.atoms.iter().position(|a| *a == atom).expect("atom registered");
            match self.assign[i] {
                Some(b) if b == polarity => continue,
                Some(_) => {
                    self.stats.quick_conflicts += 1;
                    return false;
                }
                None => self.assign[i] = Some(polarity),
            }
            self.units.push(i);
            self.stats.theory_lits_translated += 1;
            if self.theory.push(atom, polarity, self.pool) {
                self.stats.quick_conflicts += 1;
                return false;
            }
        }
        true
    }

    /// The work counters so far, memo hits included.
    fn stats(&self) -> SolveStats {
        SolveStats { theory_memo_hits: self.theory.memo_hits(), ..self.stats }
    }

    /// Undo every unit pushed after the first `units` and forget the
    /// atoms registered after the first `atoms`.
    fn unwind(&mut self, units: usize, atoms: usize) {
        for i in self.units.drain(units..).rev() {
            self.assign[i] = None;
            self.theory.pop(self.pool);
        }
        self.atoms.truncate(atoms);
        self.assign.truncate(atoms);
    }
}

struct Search<'a, 'p> {
    solver: &'a Solver,
    /// Conjunction parts of the query (for defensive model validation).
    parts: &'a [&'a Formula],
    /// Skeletons of `parts`, abstracted over the stack's atoms.
    skeleton: &'a [IForm],
    stack: &'a mut Stack<'p>,
    unknown_seen: bool,
    leaves: usize,
}

impl Search<'_, '_> {
    /// Full theory check of the currently assigned literals.
    fn full_check(&mut self) -> (SatResult, Option<Model>) {
        self.stack.stats.theory_full_checks += 1;
        self.stack.theory.check_full()
    }

    /// Returns `Some(model)` when a satisfying, validated model is found.
    fn dfs(&mut self, depth: usize) -> Option<Model> {
        if self.leaves > self.solver.max_leaves {
            self.unknown_seen = true;
            return None;
        }
        // Three-valued evaluation under the current partial assignment.
        let value = eval3_and(self.skeleton, &self.stack.assign);
        match value {
            Some(false) => return None,
            Some(true) => {
                // Formula already true: theory-check the assigned literals.
                self.leaves += 1;
                self.stack.stats.leaves += 1;
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
        let next = self.stack.assign.iter().position(Option::is_none);
        let Some(i) = next else {
            // Fully assigned but formula undetermined cannot happen.
            return None;
        };
        for b in [true, false] {
            let st = &mut *self.stack;
            st.assign[i] = Some(b);
            st.stats.theory_lits_translated += 1;
            if st.theory.push(st.atoms[i].clone(), b, st.pool) {
                // Quick conflict: the stacked prefix is already
                // unsatisfiable, so no leaf below can be Sat.
                st.stats.quick_conflicts += 1;
                st.theory.pop(st.pool);
                st.assign[i] = None;
                continue;
            }
            let found = self.dfs(depth + 1);
            let st = &mut *self.stack;
            st.theory.pop(st.pool);
            st.assign[i] = None;
            if found.is_some() {
                return found;
            }
        }
        None
    }
}

/// The depth-first walk of [`Solver::check_rows`]: `parts` and
/// `skeleton` hold the context followed by one literal per depth.
struct RowWalk<'a, 'p> {
    solver: &'a Solver,
    lits: &'a [[&'a Formula; 2]],
    parts: Vec<&'a Formula>,
    skeleton: Vec<IForm>,
    stack: Stack<'p>,
    verdicts: Vec<Option<SatResult>>,
}

impl RowWalk<'_, '_> {
    fn refute(&mut self, rows: &[u32]) {
        for &r in rows {
            self.verdicts[r as usize] = Some(SatResult::Unsat);
        }
    }

    /// Decide `rows`, which agree on bits `0..depth` (the literals
    /// already on the stack).
    fn descend(&mut self, depth: usize, rows: &mut [u32]) {
        if depth == self.lits.len() {
            // Every bit is fixed, so exactly one row is left.
            let verdict = if self.stack.atoms.len() > self.solver.max_atoms {
                SatResult::Unknown
            } else {
                self.solver.search(&mut self.stack, &self.parts, &self.skeleton).0
            };
            self.verdicts[rows[0] as usize] = Some(verdict);
            return;
        }
        let mut split = 0;
        for j in 0..rows.len() {
            if rows[j] >> depth & 1 == 0 {
                rows.swap(split, j);
                split += 1;
            }
        }
        let (neg, pos) = rows.split_at_mut(split);
        for (bit, sub) in [(0, neg), (1, pos)] {
            if sub.is_empty() {
                continue;
            }
            let lit = self.lits[depth][bit];
            if matches!(lit, Formula::False) {
                self.refute(sub);
                continue;
            }
            let (units, atoms) = (self.stack.units.len(), self.stack.atoms.len());
            self.stack.add_atoms(lit);
            if self.stack.assign_units(&[lit]) {
                self.skeleton.push(abstract_formula(lit, &self.stack.atoms));
                self.parts.push(lit);
                self.descend(depth + 1, sub);
                self.parts.pop();
                self.skeleton.pop();
            } else {
                // A quick conflict among the units refutes every row
                // below.
                self.refute(sub);
            }
            self.stack.unwind(units, atoms);
        }
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
    ///
    /// Assigns the root units of `parts`, then (within the atom budget)
    /// searches their Boolean skeleton. Drops the throwaway linearization
    /// variables the root units allocated (the branch search unwinds its
    /// own), so a check leaves `pool` as it found it.
    pub fn check_parts(&self, parts: &[&Formula], pool: &mut VarPool) -> CheckOutcome {
        if parts.iter().any(|p| matches!(p, Formula::False)) {
            return CheckOutcome::without_model(SatResult::Unsat, SolveStats::default());
        }
        let pool_len = pool.len();
        let mut stack = Stack::new(pool);
        let (result, model) = self.decide_parts(&mut stack, parts);
        let stats = stack.stats();
        pool.truncate(pool_len);
        CheckOutcome { result, model, stats }
    }

    /// The body of [`Solver::check_parts`] on a fresh `stack`: assign the
    /// root units of `parts`, then search within the atom budget.
    fn decide_parts(&self, stack: &mut Stack, parts: &[&Formula]) -> (SatResult, Option<Model>) {
        parts.iter().for_each(|p| stack.add_atoms(p));
        if !stack.assign_units(parts) {
            (SatResult::Unsat, None)
        } else if stack.atoms.len() > self.max_atoms {
            (SatResult::Unknown, None)
        } else {
            let skeleton: Vec<IForm> =
                parts.iter().map(|p| abstract_formula(p, &stack.atoms)).collect();
            self.search(stack, parts, &skeleton)
        }
    }

    /// Search the Boolean skeleton of `parts` on top of the units already
    /// on `stack`.
    fn search(
        &self,
        stack: &mut Stack,
        parts: &[&Formula],
        skeleton: &[IForm],
    ) -> (SatResult, Option<Model>) {
        let mut search =
            Search { solver: self, parts, skeleton, stack, unknown_seen: false, leaves: 0 };
        match search.dfs(0) {
            Some(m) => (SatResult::Sat, Some(m)),
            None if search.unknown_seen => (SatResult::Unknown, None),
            None => (SatResult::Unsat, None),
        }
    }

    /// Decide the needed rows of a truth table under a context: row `r`
    /// is the conjunction of `ctx` and, for each `i`, `lits[i][1]` when
    /// bit `i` of `r` is set and `lits[i][0]` otherwise. `needed` has one
    /// entry per row.
    ///
    /// Each needed row gets the verdict `check_parts(ctx ++
    /// [Formula::and(row literals)])` gives it: the context's units are
    /// pushed once, the rows are walked depth-first pushing literal `i`'s
    /// units at depth `i`, and each leaf's stack holds the literals that
    /// row's from-scratch root units would push, in the same order. A
    /// quick conflict refutes every row below it; each surviving leaf
    /// applies the atom budget and runs the same skeleton search as
    /// [`Solver::check_parts`], its full checks drawing on the one
    /// stack's decider memo, so a string or integer subproblem that
    /// several rows share is decided once. `pool` ends as it started.
    pub fn check_rows(
        &self,
        ctx: &[&Formula],
        lits: &[[&Formula; 2]],
        needed: &[bool],
        pool: &mut VarPool,
    ) -> RowsOutcome {
        assert_eq!(needed.len(), 1 << lits.len(), "one mask entry per row");
        let mut rows: Vec<u32> = (0..needed.len() as u32).filter(|&r| needed[r as usize]).collect();
        let pool_len = pool.len();
        let mut walk = RowWalk {
            solver: self,
            lits,
            parts: ctx.to_vec(),
            skeleton: Vec::new(),
            stack: Stack::new(pool),
            verdicts: vec![None; needed.len()],
        };
        if ctx.iter().any(|p| matches!(p, Formula::False)) {
            walk.refute(&rows);
        } else {
            ctx.iter().for_each(|p| walk.stack.add_atoms(p));
            if !walk.stack.assign_units(ctx) {
                walk.refute(&rows);
            } else if !rows.is_empty() {
                walk.skeleton =
                    ctx.iter().map(|p| abstract_formula(p, &walk.stack.atoms)).collect();
                walk.descend(0, &mut rows);
            }
        }
        let RowWalk { verdicts, stack, .. } = walk;
        let stats = stack.stats();
        pool.truncate(pool_len);
        RowsOutcome { verdicts, stats }
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
        let a = Term::var(p.fresh(Sort::Int));
        let b = Term::var(p.fresh(Sort::Int));
        let c = Term::var(p.fresh(Sort::Int));
        let d = Term::var(p.fresh(Sort::Int));
        let e = Term::var(p.fresh(Sort::Int));
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
        let a = Term::var(p.fresh(Sort::Int));
        let b = Term::var(p.fresh(Sort::Int));
        let c = Term::var(p.fresh(Sort::Int));
        let d = Term::var(p.fresh(Sort::Int));
        let e = Term::var(p.fresh(Sort::Int));
        let ff = Term::var(p.fresh(Sort::Int));
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
        let name = Term::var(p.fresh(Sort::Str));
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
            let v = Term::var(p.fresh(Sort::Int));
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
                    let v = Term::var(p.fresh(Sort::Int));
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
        let s = Term::var(p.fresh(Sort::Str));
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
        let s = Term::var(p.fresh(Sort::Str));
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
        let s = Term::var(p.fresh(Sort::Str));
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
    fn a_search_past_the_memo_cap_keeps_the_memo_at_the_cap() {
        use crate::theory::THEORY_MEMO_CAP;
        // y ≥ 1 ∧ y + z = 0 ∧ (z ≥ 1 ∨ z ≥ 2) is refuted by Fourier–Motzkin
        // alone (the quick detector does not read `y + z`), so every leaf
        // is a full check. Eleven independent pairs (x ≥ 0 ∨ x ≤ −5)
        // before it give every leaf its own integer system.
        let mut p = VarPool::new();
        let mut var = || Term::var(p.fresh(Sort::Int));
        let (y, z) = (var(), var());
        let mut parts = vec![
            Formula::cmp(y.clone(), Rel::Ge, Term::IntConst(1)),
            Formula::cmp(Term::add(y, z.clone()), Rel::Eq, Term::IntConst(0)),
        ];
        for _ in 0..11 {
            let x = var();
            parts.push(Formula::or(vec![
                Formula::cmp(x.clone(), Rel::Ge, Term::IntConst(0)),
                Formula::cmp(x, Rel::Le, Term::IntConst(-5)),
            ]));
        }
        parts.push(Formula::or(vec![
            Formula::cmp(z.clone(), Rel::Ge, Term::IntConst(1)),
            Formula::cmp(z, Rel::Ge, Term::IntConst(2)),
        ]));
        let refs: Vec<&Formula> = parts.iter().collect();
        let s = Solver { max_atoms: 64, ..Solver::default() };
        let mut stack = Stack::new(&mut p);
        let (verdict, _) = s.decide_parts(&mut stack, &refs);
        assert_eq!(verdict, SatResult::Unsat);
        let stats = stack.stats();
        assert!(stats.leaves > THEORY_MEMO_CAP as u64, "{stats:?}");
        assert_eq!(stack.theory.memo_len(), (1, THEORY_MEMO_CAP), "{stats:?}");
        assert!(stats.theory_memo_hits > 0, "{stats:?}");
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
