//! Quantifier-free formulas and their atoms — the *tree* representation.
//!
//! Two representations coexist in this crate:
//!
//! * the boxed trees here ([`Formula`], [`crate::term::Term`]), which the
//!   solver consumes and tests construct directly; and
//! * the hash-consed arena ([`crate::intern::Interner`] with
//!   [`crate::intern::FormulaId`] ids), which the oracle layer builds
//!   formulas in: structurally equal subformulas intern to one node, so
//!   equality/hashing are integer compares and verdict caches key on ids
//!   instead of walking trees.
//!
//! The smart constructors below ([`Formula::and`], [`Formula::or`],
//! [`Formula::not`]) define the canonical simplified shape; the interner's
//! constructors replicate them node-for-node, so a tree extracted from the
//! arena is exactly what the constructors here would have produced.

use crate::term::{Term, VarId};
use std::fmt;

/// Comparison relations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rel {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl Rel {
    /// Logical negation.
    pub fn negate(self) -> Rel {
        match self {
            Rel::Eq => Rel::Ne,
            Rel::Ne => Rel::Eq,
            Rel::Lt => Rel::Ge,
            Rel::Le => Rel::Gt,
            Rel::Gt => Rel::Le,
            Rel::Ge => Rel::Lt,
        }
    }

    /// Relation with the operands swapped.
    pub fn flip(self) -> Rel {
        match self {
            Rel::Eq => Rel::Eq,
            Rel::Ne => Rel::Ne,
            Rel::Lt => Rel::Gt,
            Rel::Le => Rel::Ge,
            Rel::Gt => Rel::Lt,
            Rel::Ge => Rel::Le,
        }
    }

    pub fn eval<T: PartialOrd>(self, l: &T, r: &T) -> bool {
        match self {
            Rel::Eq => l == r,
            Rel::Ne => l != r,
            Rel::Lt => l < r,
            Rel::Le => l <= r,
            Rel::Gt => l > r,
            Rel::Ge => l >= r,
        }
    }
}

impl fmt::Display for Rel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Rel::Eq => "=",
            Rel::Ne => "!=",
            Rel::Lt => "<",
            Rel::Le => "<=",
            Rel::Gt => ">",
            Rel::Ge => ">=",
        };
        write!(f, "{s}")
    }
}

/// Atomic formulas.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Atom {
    /// `lhs rel rhs` over terms (both int-sorted or both str-sorted).
    Cmp(Term, Rel, Term),
    /// `term LIKE 'pattern'` with SQL `%`/`_` wildcards. The negated form
    /// is a negative literal over this atom.
    Like(Term, String),
}

impl Atom {
    pub fn collect_vars(&self, out: &mut Vec<VarId>) {
        match self {
            Atom::Cmp(l, _, r) => {
                l.collect_vars(out);
                r.collect_vars(out);
            }
            Atom::Like(t, _) => t.collect_vars(out),
        }
    }

    /// Canonical form used for atom deduplication in the Boolean skeleton:
    /// orders comparison operands so `a < b` and `b > a` become one atom.
    pub fn canonical(&self) -> (Atom, bool) {
        match self {
            Atom::Cmp(l, rel, r) => {
                // Flip so that lhs <= rhs structurally; polarity unchanged
                // (flip keeps logical meaning).
                if l > r {
                    (Atom::Cmp(r.clone(), rel.flip(), l.clone()), false)
                } else {
                    (self.clone(), false)
                }
            }
            Atom::Like(..) => (self.clone(), false),
        }
    }
}

/// Quantifier-free formulas.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Formula {
    True,
    False,
    Atom(Atom),
    And(Vec<Formula>),
    Or(Vec<Formula>),
    Not(Box<Formula>),
}

#[allow(clippy::should_implement_trait)] // `not` is the smart-negation constructor
impl Formula {
    pub fn atom(a: Atom) -> Formula {
        Formula::Atom(a)
    }

    pub fn cmp(l: Term, rel: Rel, r: Term) -> Formula {
        Formula::Atom(Atom::Cmp(l, rel, r))
    }

    /// Smart conjunction (flattens, short-circuits constants).
    pub fn and(children: Vec<Formula>) -> Formula {
        let mut flat = Vec::with_capacity(children.len());
        for c in children {
            match c {
                Formula::True => {}
                Formula::False => return Formula::False,
                Formula::And(g) => flat.extend(g),
                other => flat.push(other),
            }
        }
        match flat.len() {
            0 => Formula::True,
            1 => flat.pop().unwrap(),
            _ => Formula::And(flat),
        }
    }

    /// Smart disjunction.
    pub fn or(children: Vec<Formula>) -> Formula {
        let mut flat = Vec::with_capacity(children.len());
        for c in children {
            match c {
                Formula::False => {}
                Formula::True => return Formula::True,
                Formula::Or(g) => flat.extend(g),
                other => flat.push(other),
            }
        }
        match flat.len() {
            0 => Formula::False,
            1 => flat.pop().unwrap(),
            _ => Formula::Or(flat),
        }
    }

    /// Smart negation.
    pub fn not(f: Formula) -> Formula {
        match f {
            Formula::True => Formula::False,
            Formula::False => Formula::True,
            Formula::Not(inner) => *inner,
            other => Formula::Not(Box::new(other)),
        }
    }

    /// Collect distinct atoms in first-occurrence order (canonicalized).
    pub fn collect_atoms(&self, out: &mut Vec<Atom>) {
        match self {
            Formula::True | Formula::False => {}
            Formula::Atom(a) => {
                let (c, _) = a.canonical();
                if !out.contains(&c) {
                    out.push(c);
                }
            }
            Formula::And(cs) | Formula::Or(cs) => cs.iter().for_each(|c| c.collect_atoms(out)),
            Formula::Not(c) => c.collect_atoms(out),
        }
    }

    pub fn collect_vars(&self, out: &mut Vec<VarId>) {
        match self {
            Formula::True | Formula::False => {}
            Formula::Atom(a) => a.collect_vars(out),
            Formula::And(cs) | Formula::Or(cs) => cs.iter().for_each(|c| c.collect_vars(out)),
            Formula::Not(c) => c.collect_vars(out),
        }
    }

    /// Three-valued evaluation under a partial atom assignment
    /// (`None` = unassigned). Used to prune the skeleton search.
    pub fn eval3(&self, assign: &impl Fn(&Atom) -> Option<bool>) -> Option<bool> {
        match self {
            Formula::True => Some(true),
            Formula::False => Some(false),
            Formula::Atom(a) => {
                let (c, _) = a.canonical();
                assign(&c)
            }
            Formula::And(cs) => {
                let mut any_unknown = false;
                for c in cs {
                    match c.eval3(assign) {
                        Some(false) => return Some(false),
                        None => any_unknown = true,
                        Some(true) => {}
                    }
                }
                if any_unknown {
                    None
                } else {
                    Some(true)
                }
            }
            Formula::Or(cs) => {
                let mut any_unknown = false;
                for c in cs {
                    match c.eval3(assign) {
                        Some(true) => return Some(true),
                        None => any_unknown = true,
                        Some(false) => {}
                    }
                }
                if any_unknown {
                    None
                } else {
                    Some(false)
                }
            }
            Formula::Not(c) => c.eval3(assign).map(|b| !b),
        }
    }
}

impl fmt::Display for Formula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Formula::True => write!(f, "true"),
            Formula::False => write!(f, "false"),
            Formula::Atom(Atom::Cmp(l, rel, r)) => write!(f, "({l:?} {rel} {r:?})"),
            Formula::Atom(Atom::Like(t, p)) => write!(f, "({t:?} LIKE '{p}')"),
            Formula::And(cs) => {
                write!(f, "(and")?;
                for c in cs {
                    write!(f, " {c}")?;
                }
                write!(f, ")")
            }
            Formula::Or(cs) => {
                write!(f, "(or")?;
                for c in cs {
                    write!(f, " {c}")?;
                }
                write!(f, ")")
            }
            Formula::Not(c) => write!(f, "(not {c})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::{Sort, VarPool};

    #[test]
    fn canonical_merges_flipped_atoms() {
        let mut p = VarPool::new();
        let a = Term::var(p.fresh(Sort::Int));
        let b = Term::var(p.fresh(Sort::Int));
        let f = Formula::and(vec![
            Formula::cmp(a.clone(), Rel::Lt, b.clone()),
            Formula::cmp(b.clone(), Rel::Gt, a.clone()),
        ]);
        let mut atoms = vec![];
        f.collect_atoms(&mut atoms);
        assert_eq!(atoms.len(), 1, "a<b and b>a should canonicalize to one atom");
    }

    #[test]
    fn smart_constructors() {
        assert_eq!(Formula::and(vec![]), Formula::True);
        assert_eq!(Formula::or(vec![]), Formula::False);
        assert_eq!(Formula::not(Formula::True), Formula::False);
        let mut p = VarPool::new();
        let a = Term::var(p.fresh(Sort::Int));
        let atom = Formula::cmp(a, Rel::Eq, Term::IntConst(1));
        assert_eq!(
            Formula::and(vec![Formula::True, atom.clone()]),
            atom.clone()
        );
        assert_eq!(Formula::or(vec![Formula::True, atom.clone()]), Formula::True);
        assert_eq!(Formula::not(Formula::not(atom.clone())), atom);
    }

    #[test]
    fn eval3_three_valued() {
        let mut p = VarPool::new();
        let a = Atom::Cmp(Term::var(p.fresh(Sort::Int)), Rel::Eq, Term::IntConst(1));
        let b = Atom::Cmp(Term::var(p.fresh(Sort::Int)), Rel::Eq, Term::IntConst(2));
        let f = Formula::or(vec![Formula::atom(a.clone()), Formula::atom(b.clone())]);
        // b unknown, a true => true
        assert_eq!(
            f.eval3(&|x| if *x == a { Some(true) } else { None }),
            Some(true)
        );
        // a false, b unknown => unknown
        assert_eq!(f.eval3(&|x| if *x == a { Some(false) } else { None }), None);
        // both false => false
        assert_eq!(f.eval3(&|_| Some(false)), Some(false));
    }
}
