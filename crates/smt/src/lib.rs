//! # qrhint-smt
//!
//! A from-scratch DPLL(T)-lite SMT solver covering exactly the logic
//! Qr-Hint (SIGMOD 2024) exercises through Z3 in the original system:
//!
//! * quantifier-free formulas over two sorts (INT, VARCHAR, all NOT NULL);
//! * linear integer arithmetic (comparisons, +, −, ×/÷ by constants) via
//!   Fourier–Motzkin elimination with integer tightening and integer model
//!   reconstruction ([`lia`]);
//! * equalities/disequalities and SQL `LIKE` patterns over strings via a
//!   witness-constructing union-find theory ([`strings`], [`pattern`]);
//! * non-linear escape hatch: non-affine terms are abstracted as opaque
//!   congruence variables and every `Sat` verdict is validated against the
//!   original semantics ([`model`]).
//!
//! ## Soundness contract (paper §3)
//!
//! The three primitives `IsSatisfiable`, `IsUnSatisfiable` and `IsEquiv`
//! return three-valued answers. Definitive answers are never wrong:
//! `Unsat` is backed by a theory-level refutation of every Boolean branch
//! and `Sat` by a concrete model that the original formula evaluates true
//! under. All Qr-Hint algorithms act only on definitive answers, so hint
//! *correctness* never depends on solver completeness — only hint
//! *optimality* does, exactly as in the paper.

#![forbid(unsafe_code)]

pub mod conj;
pub mod formula;
pub mod intern;
pub mod lia;
pub mod model;
pub mod pattern;
pub mod solver;
pub mod strings;
pub mod term;
pub mod theory;

pub use formula::{Atom, Formula, Rel};
pub use intern::{FormulaId, Interner, TermId};
pub use model::{Model, Value};
pub use solver::{CheckOutcome, RowsOutcome, SolveStats, Solver};
pub use theory::TheoryState;
pub use term::{LinExpr, Sort, Term, VarId, VarPool};

/// Three-valued satisfiability verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SatResult {
    Sat,
    Unsat,
    Unknown,
}

/// Three-valued Boolean used by the solver's high-level predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TriBool {
    True,
    False,
    Unknown,
}

impl TriBool {
    /// Definitively true?
    pub fn is_true(self) -> bool {
        self == TriBool::True
    }

    /// Definitively false?
    pub fn is_false(self) -> bool {
        self == TriBool::False
    }

    pub fn negate(self) -> TriBool {
        match self {
            TriBool::True => TriBool::False,
            TriBool::False => TriBool::True,
            TriBool::Unknown => TriBool::Unknown,
        }
    }

    /// Kleene conjunction.
    pub fn and(self, other: TriBool) -> TriBool {
        match (self, other) {
            (TriBool::False, _) | (_, TriBool::False) => TriBool::False,
            (TriBool::True, TriBool::True) => TriBool::True,
            _ => TriBool::Unknown,
        }
    }

    /// Kleene disjunction.
    pub fn or(self, other: TriBool) -> TriBool {
        match (self, other) {
            (TriBool::True, _) | (_, TriBool::True) => TriBool::True,
            (TriBool::False, TriBool::False) => TriBool::False,
            _ => TriBool::Unknown,
        }
    }

    pub fn from_bool(b: bool) -> TriBool {
        if b {
            TriBool::True
        } else {
            TriBool::False
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tribool_algebra() {
        use TriBool::*;
        assert_eq!(True.and(Unknown), Unknown);
        assert_eq!(False.and(Unknown), False);
        assert_eq!(True.or(Unknown), True);
        assert_eq!(False.or(Unknown), Unknown);
        assert_eq!(Unknown.negate(), Unknown);
        assert!(TriBool::from_bool(true).is_true());
        assert!(TriBool::from_bool(false).is_false());
    }
}
