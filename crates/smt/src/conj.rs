//! Conjunction checking: the theory layer of the DPLL(T)-lite solver.
//!
//! Given a conjunction of literals (atoms with polarities), dispatch to
//! the string theory and the linear-integer theory, case-splitting integer
//! disequalities, and assemble a combined model. `Sat` is only returned
//! after the candidate model has been validated against the *original*
//! literal semantics (including non-linear arithmetic that was abstracted
//! during solving).
//!
//! A check is two pure deciders and one assembly step:
//! [`strings::check`] over the translation's string constraints,
//! [`decide_ints`] over its integer section (`ineqs`, `eqs`, `nes`), and
//! `Translation::assemble`, which maps their models back onto the
//! check's own variables and validates them against its own literals.
//! The deciders see only their inputs, so equal inputs give equal answers
//! — which is what lets [`crate::theory::TheoryState`] memoize them across
//! the leaves of one search, while [`check_conjunction`] (the reference
//! the tests compare against) runs both every time.

use crate::formula::{Atom, Rel};
use crate::lia::{self, LiaResult};
use crate::model::{Model, Value};
use crate::strings::{self, StrConstraint, StrOperand, StrResult};
use crate::term::{linearize, LinExpr, OpaqueMap, Sort, Term, VarId, VarPool};
use crate::SatResult;
use std::collections::BTreeMap;

/// A literal: an atom plus a polarity.
pub type Lit = (Atom, bool);

/// Maximum number of integer disequalities to case-split (2^k branches).
const MAX_NE_SPLIT: usize = 10;

/// Determine whether a term is string-sorted.
fn is_str_term(t: &Term, pool: &VarPool) -> bool {
    match t {
        Term::Var(v) => pool.sort(*v) == Sort::Str,
        Term::StrConst(_) => true,
        _ => false,
    }
}

fn as_str_operand(
    t: &Term,
    var_index: &mut BTreeMap<VarId, usize>,
    var_order: &mut Vec<VarId>,
) -> Option<StrOperand> {
    match t {
        Term::Var(v) => {
            let next = var_index.len();
            let idx = *var_index.entry(*v).or_insert_with(|| {
                var_order.push(*v);
                next
            });
            Some(StrOperand::Var(idx))
        }
        Term::StrConst(s) => Some(StrOperand::Const(s.clone())),
        _ => None,
    }
}

/// Literals of a conjunction partitioned by theory, built one literal at
/// a time. This is the shared translation layer: the from-scratch
/// [`check_conjunction`] feeds a whole literal slice through
/// [`Translation::push_lit`] and then solves; the incremental
/// [`crate::theory::TheoryState`] pushes at every search-branch
/// assignment and unwinds the same vectors on backtrack. Because both
/// paths run the identical per-literal translation in the identical
/// order, their leaf verdicts agree by construction.
#[derive(Debug, Default)]
pub struct Translation {
    pub(crate) str_constraints: Vec<StrConstraint>,
    pub(crate) str_var_index: BTreeMap<VarId, usize>,
    /// String variables in first-use order (`str_var_index` insertion
    /// order), so the incremental caller can unwind the index map.
    pub(crate) str_var_order: Vec<VarId>,
    /// Integer constraints, as LinExpr ≤ 0 / = 0 / ≠ 0.
    pub(crate) ineqs: Vec<LinExpr>,
    pub(crate) eqs: Vec<LinExpr>,
    pub(crate) nes: Vec<LinExpr>,
    pub(crate) opaque: OpaqueMap,
}

impl Translation {
    /// Translate one literal into the partitioned constraint vectors.
    /// Returns `true` when the literal alone refutes the conjunction (a
    /// false constant-constant lexicographic string comparison, or a
    /// strict one between a string operand and itself — the cases the
    /// translation itself decides).
    ///
    /// Literals no theory can express are skipped here; the final
    /// validation pass in [`Translation::solve`] still evaluates them
    /// against the candidate model, so `Sat` stays sound (and turns into
    /// `Unknown` when the model cannot decide a skipped literal).
    pub fn push_lit(&mut self, atom: &Atom, polarity: bool, pool: &mut VarPool) -> bool {
        match atom {
            Atom::Like(t, p) => {
                if let Some(op) =
                    as_str_operand(t, &mut self.str_var_index, &mut self.str_var_order)
                {
                    self.str_constraints.push(StrConstraint::Like {
                        operand: op,
                        pattern: p.clone(),
                        positive: polarity,
                    });
                }
                // else: skipped, caught by final validation
                false
            }
            Atom::Cmp(l, rel, r) => {
                let rel = if polarity { *rel } else { rel.negate() };
                if is_str_term(l, pool) || is_str_term(r, pool) {
                    let (Some(lo), Some(ro)) = (
                        as_str_operand(l, &mut self.str_var_index, &mut self.str_var_order),
                        as_str_operand(r, &mut self.str_var_index, &mut self.str_var_order),
                    ) else {
                        return false; // skipped, caught by final validation
                    };
                    match rel {
                        Rel::Eq => self.str_constraints.push(StrConstraint::Eq(lo, ro)),
                        Rel::Ne => self.str_constraints.push(StrConstraint::Ne(lo, ro)),
                        // Lexicographic order on string variables: decide
                        // only the constant-constant case and `s < s` /
                        // `s > s`; otherwise unknown (conservative; skipped
                        // pairs are caught by the final validation).
                        _ => {
                            if let (StrOperand::Const(a), StrOperand::Const(b)) = (&lo, &ro) {
                                if !rel.eval(a, b) {
                                    return true;
                                }
                            }
                            if lo == ro && matches!(rel, Rel::Lt | Rel::Gt) {
                                return true;
                            }
                        }
                    }
                    false
                } else {
                    let le = linearize(l, pool, &mut self.opaque);
                    let re = linearize(r, pool, &mut self.opaque);
                    let one = LinExpr::constant(1);
                    let d = le.sub(&re); // l - r
                    let (constraints, e) = match rel {
                        Rel::Eq => (&mut self.eqs, d),
                        Rel::Ne => (&mut self.nes, d),
                        Rel::Le => (&mut self.ineqs, d),
                        Rel::Lt => (&mut self.ineqs, d.and_then(|d| d.add(&one))),
                        Rel::Ge => (&mut self.ineqs, d.and_then(|d| d.negate())),
                        Rel::Gt => (&mut self.ineqs, d.and_then(|d| d.negate()?.add(&one))),
                    };
                    // A constraint that leaves i128 is skipped, caught by
                    // final validation.
                    constraints.extend(e);
                    false
                }
            }
        }
    }

    /// Decide the translated conjunction and, on `Sat`, assemble a model
    /// validated against the original literals in `lits` (the exact
    /// literal sequence that was pushed).
    pub fn solve(&self, lits: &[Lit]) -> (SatResult, Option<Model>) {
        let strs = strings::check(self.str_var_index.len(), &self.str_constraints);
        if strs == StrResult::Unsat {
            return (SatResult::Unsat, None);
        }
        let ints = decide_ints(&self.ineqs, &self.eqs, &self.nes);
        self.assemble(lits, &strs, &ints)
    }

    /// Combine the two deciders' answers for this translation — `strs`
    /// from [`strings::check`] (never `Unsat`: that verdict is final
    /// before the integers are decided) and `ints` from [`decide_ints`]
    /// — into a verdict, and on `Sat` a model validated against `lits`.
    pub(crate) fn assemble(
        &self,
        lits: &[Lit],
        strs: &StrResult,
        ints: &LiaResult,
    ) -> (SatResult, Option<Model>) {
        // A model found in one disequality branch is usable even when other
        // branches (or skipped literals) were undecided: the validation loop
        // below re-checks every original literal, which is what makes Sat
        // sound. Only a missing theory model forces Unknown outright.
        let int_model = match ints {
            LiaResult::Sat(m) => m,
            LiaResult::Unsat => return (SatResult::Unsat, None),
            LiaResult::Unknown => return (SatResult::Unknown, None),
        };
        let str_model = match strs {
            StrResult::Sat(m) => Some(m),
            StrResult::Unsat | StrResult::Unknown => None,
        };
        if !self.str_var_index.is_empty() && str_model.is_none() {
            return (SatResult::Unknown, None);
        }
        let mut model = Model::new();
        if let Some(sm) = str_model {
            let rev: BTreeMap<usize, VarId> =
                self.str_var_index.iter().map(|(v, i)| (*i, *v)).collect();
            for (idx, val) in sm {
                model.set(rev[idx], Value::Str(val.clone()));
            }
        }
        for (v, val) in int_model {
            // Values outside i64 range would be a resource anomaly; clamp
            // conservatively (validation below will reject if wrong).
            let as64 = i64::try_from(*val).unwrap_or(if *val > 0 { i64::MAX } else { i64::MIN });
            model.set(*v, Value::Int(as64));
        }
        // Validate against the original literal semantics.
        for (atom, polarity) in lits {
            match model.eval_atom(atom) {
                Some(b) if b == *polarity => {}
                _ => return (SatResult::Unknown, None),
            }
        }
        (SatResult::Sat, Some(model))
    }
}

/// Decide the integer section of a translation: `ineqs` (`e ≤ 0`) ∧
/// `eqs` (`e = 0`) ∧ `nes` (`e ≠ 0`), case-splitting each disequality
/// into its two strict sides. `Sat` carries the model of the first
/// satisfiable branch; `Unsat` means every branch is refuted; `Unknown`
/// covers more than `MAX_NE_SPLIT` (10) disequalities and an undecided
/// branch with no satisfiable sibling. A pure function of its inputs, as
/// [`strings::check`] is of its own.
pub fn decide_ints(ineqs: &[LinExpr], eqs: &[LinExpr], nes: &[LinExpr]) -> LiaResult {
    if nes.len() > MAX_NE_SPLIT {
        return LiaResult::Unknown;
    }
    let one = LinExpr::constant(1);
    let mut undecided = false;
    for mask in 0..1u64 << nes.len() {
        let mut branch = ineqs.to_vec();
        for (i, ne) in nes.iter().enumerate() {
            // A side that leaves i128 is skipped: the branch only
            // grows, so its Unsat stays sound.
            if mask & (1 << i) != 0 {
                // d ≥ 1, i.e. -d + 1 ≤ 0
                branch.extend(ne.negate().and_then(|e| e.add(&one)));
            } else {
                // d ≤ -1, i.e. d + 1 ≤ 0
                branch.extend(ne.add(&one));
            }
        }
        match lia::solve(&branch, eqs) {
            LiaResult::Sat(m) => return LiaResult::Sat(m),
            LiaResult::Unsat => {}
            // This branch is undecided, so Unsat is off the table — but a
            // sibling branch may still produce a model.
            LiaResult::Unknown => undecided = true,
        }
    }
    if undecided {
        LiaResult::Unknown
    } else {
        LiaResult::Unsat
    }
}

/// Check a conjunction of literals from scratch. Returns the verdict
/// and, on `Sat`, a model validated against every input literal.
pub fn check_conjunction(lits: &[Lit], pool: &mut VarPool) -> (SatResult, Option<Model>) {
    let mut tr = Translation::default();
    for (atom, polarity) in lits {
        if tr.push_lit(atom, *polarity, pool) {
            return (SatResult::Unsat, None);
        }
    }
    tr.solve(lits)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn int_var(pool: &mut VarPool) -> Term {
        Term::var(pool.fresh(Sort::Int))
    }
    fn str_var(pool: &mut VarPool) -> Term {
        Term::var(pool.fresh(Sort::Str))
    }

    #[test]
    fn simple_int_conjunction() {
        let mut p = VarPool::new();
        let a = int_var(&mut p);
        let b = int_var(&mut p);
        // a > b ∧ b > a → unsat
        let lits = vec![
            (Atom::Cmp(a.clone(), Rel::Gt, b.clone()), true),
            (Atom::Cmp(b.clone(), Rel::Gt, a.clone()), true),
        ];
        assert_eq!(check_conjunction(&lits, &mut p).0, SatResult::Unsat);
        // a > b alone → sat
        let lits2 = vec![(Atom::Cmp(a, Rel::Gt, b), true)];
        let (r, m) = check_conjunction(&lits2, &mut p);
        assert_eq!(r, SatResult::Sat);
        assert!(m.is_some());
    }

    #[test]
    fn negative_polarity() {
        let mut p = VarPool::new();
        let a = int_var(&mut p);
        // ¬(a ≤ 5) ∧ a < 3 → unsat
        let lits = vec![
            (Atom::Cmp(a.clone(), Rel::Le, Term::IntConst(5)), false),
            (Atom::Cmp(a, Rel::Lt, Term::IntConst(3)), true),
        ];
        assert_eq!(check_conjunction(&lits, &mut p).0, SatResult::Unsat);
    }

    #[test]
    fn disequality_case_split() {
        let mut p = VarPool::new();
        let a = int_var(&mut p);
        // a ≠ 5 ∧ a ≥ 5 ∧ a ≤ 5 → unsat (both split branches die)
        let lits = vec![
            (Atom::Cmp(a.clone(), Rel::Ne, Term::IntConst(5)), true),
            (Atom::Cmp(a.clone(), Rel::Ge, Term::IntConst(5)), true),
            (Atom::Cmp(a.clone(), Rel::Le, Term::IntConst(5)), true),
        ];
        assert_eq!(check_conjunction(&lits, &mut p).0, SatResult::Unsat);
        // a ≠ 5 ∧ a ≥ 5 → sat with a ≥ 6
        let lits2 = vec![
            (Atom::Cmp(a.clone(), Rel::Ne, Term::IntConst(5)), true),
            (Atom::Cmp(a, Rel::Ge, Term::IntConst(5)), true),
        ];
        let (r, m) = check_conjunction(&lits2, &mut p);
        assert_eq!(r, SatResult::Sat);
        let m = m.unwrap();
        let first = m.iter().next().unwrap().1.clone();
        match first {
            Value::Int(v) => assert!(v >= 6),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn transitivity_of_equality() {
        let mut p = VarPool::new();
        let a = int_var(&mut p);
        let b = int_var(&mut p);
        let c = int_var(&mut p);
        // a = b ∧ b = c ∧ a ≠ c → unsat (the Example-1 inference that
        // Likes.beer = s1.beer ∧ Likes.beer = s2.beer ⟹ s1.beer = s2.beer).
        let lits = vec![
            (Atom::Cmp(a.clone(), Rel::Eq, b.clone()), true),
            (Atom::Cmp(b, Rel::Eq, c.clone()), true),
            (Atom::Cmp(a, Rel::Eq, c), false),
        ];
        assert_eq!(check_conjunction(&lits, &mut p).0, SatResult::Unsat);
    }

    #[test]
    fn mixed_sorts() {
        let mut p = VarPool::new();
        let d = str_var(&mut p);
        let x = int_var(&mut p);
        let lits = vec![
            (Atom::Cmp(d.clone(), Rel::Eq, Term::StrConst("Amy".into())), true),
            (Atom::Cmp(x.clone(), Rel::Gt, Term::IntConst(3)), true),
            (Atom::Like(d.clone(), "A%".into()), true),
        ];
        let (r, m) = check_conjunction(&lits, &mut p);
        assert_eq!(r, SatResult::Sat);
        let m = m.unwrap();
        assert_eq!(m.eval_str(&d), Some("Amy".into()));
        // Conflicting pattern:
        let lits2 = vec![
            (Atom::Cmp(d.clone(), Rel::Eq, Term::StrConst("Amy".into())), true),
            (Atom::Like(d, "B%".into()), true),
        ];
        assert_eq!(check_conjunction(&lits2, &mut p).0, SatResult::Unsat);
    }

    #[test]
    fn arithmetic_equivalence_of_atoms() {
        let mut p = VarPool::new();
        let a = int_var(&mut p);
        let b = int_var(&mut p);
        // a + 1 = b + 1 ∧ a ≠ b → unsat (normalization cancels the +1).
        let lits = vec![
            (
                Atom::Cmp(
                    Term::add(a.clone(), Term::IntConst(1)),
                    Rel::Eq,
                    Term::add(b.clone(), Term::IntConst(1)),
                ),
                true,
            ),
            (Atom::Cmp(a, Rel::Eq, b), false),
        ];
        assert_eq!(check_conjunction(&lits, &mut p).0, SatResult::Unsat);
    }

    #[test]
    fn nonlinear_is_validated_not_trusted() {
        let mut p = VarPool::new();
        let a = int_var(&mut p);
        // a * a < 0 — the abstraction is rational-sat, but validation must
        // reject any candidate model, so the result is Unknown or Unsat,
        // never Sat.
        let lits = vec![(
            Atom::Cmp(Term::mul(a.clone(), a.clone()), Rel::Lt, Term::IntConst(0)),
            true,
        )];
        let (r, _) = check_conjunction(&lits, &mut p);
        assert_ne!(r, SatResult::Sat);
        // a * a >= 0 with a = 3 should be genuinely sat (validated).
        let lits2 = vec![
            (Atom::Cmp(a.clone(), Rel::Eq, Term::IntConst(3)), true),
            (Atom::Cmp(Term::mul(a.clone(), a), Rel::Ge, Term::IntConst(9)), true),
        ];
        let (r2, m2) = check_conjunction(&lits2, &mut p);
        // The opaque var for a*a is unconstrained relative to a, so the
        // candidate model may or may not validate; Sat and Unknown are both
        // acceptable, Unsat is not.
        assert_ne!(r2, SatResult::Unsat);
        if r2 == SatResult::Sat {
            assert!(m2.is_some());
        }
    }

    #[test]
    fn reflexive_strict_string_order_is_unsat() {
        let mut p = VarPool::new();
        let s = str_var(&mut p);
        for rel in [Rel::Lt, Rel::Gt] {
            let lits = vec![(Atom::Cmp(s.clone(), rel, s.clone()), true)];
            assert_eq!(check_conjunction(&lits, &mut p).0, SatResult::Unsat, "{rel}");
        }
        // `¬(s ≤ s)` is the same strict comparison.
        let lits = vec![(Atom::Cmp(s.clone(), Rel::Le, s.clone()), false)];
        assert_eq!(check_conjunction(&lits, &mut p).0, SatResult::Unsat);
        // The non-strict orders hold for every string.
        for rel in [Rel::Le, Rel::Ge] {
            let lits = vec![(Atom::Cmp(s.clone(), rel, s.clone()), true)];
            assert_ne!(check_conjunction(&lits, &mut p).0, SatResult::Unsat, "{rel}");
        }
    }

    #[test]
    fn empty_conjunction_is_sat() {
        let mut p = VarPool::new();
        let (r, m) = check_conjunction(&[], &mut p);
        assert_eq!(r, SatResult::Sat);
        assert!(m.is_some());
    }
}
