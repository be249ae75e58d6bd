//! Models: concrete assignments of solver variables, and evaluation of
//! terms, atoms and formulas under a model with full (non-abstracted)
//! semantics.
//!
//! Model validation is the linchpin of the solver's soundness: a `Sat`
//! verdict is only ever reported after the original formula evaluates to
//! `true` under the candidate model, so abstractions used during solving
//! (opaque non-linear terms, string witnesses) can never produce false
//! positives.

use crate::formula::{Atom, Formula, Rel};
use crate::pattern;
use crate::term::{Term, VarId};
use std::collections::BTreeMap;
use std::fmt;

/// A concrete value.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Value {
    Int(i64),
    Str(String),
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "'{s}'"),
        }
    }
}

/// A (partial) assignment of variables to values. Variables missing from
/// the model default to `0` / `""` during evaluation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Model {
    assign: BTreeMap<VarId, Value>,
}

impl Model {
    pub fn new() -> Self {
        Model::default()
    }

    pub fn set(&mut self, v: VarId, val: Value) {
        self.assign.insert(v, val);
    }

    pub fn get(&self, v: VarId) -> Option<&Value> {
        self.assign.get(&v)
    }

    pub fn iter(&self) -> impl Iterator<Item = (&VarId, &Value)> {
        self.assign.iter()
    }

    pub fn len(&self) -> usize {
        self.assign.len()
    }

    pub fn is_empty(&self) -> bool {
        self.assign.is_empty()
    }

    /// Merge another model into this one (right-biased).
    pub fn merge(&mut self, other: &Model) {
        for (v, val) in &other.assign {
            self.assign.insert(*v, val.clone());
        }
    }

    /// Evaluate an integer-sorted term; `None` on division by zero or if a
    /// string value flows into arithmetic (type-confused input).
    pub fn eval_int(&self, t: &Term) -> Option<i64> {
        match t {
            Term::Var(v) => match self.assign.get(v) {
                Some(Value::Int(x)) => Some(*x),
                Some(Value::Str(_)) => None,
                None => Some(0),
            },
            Term::IntConst(c) => Some(*c),
            Term::StrConst(_) => None,
            Term::Add(l, r) => self.eval_int(l)?.checked_add(self.eval_int(r)?),
            Term::Sub(l, r) => self.eval_int(l)?.checked_sub(self.eval_int(r)?),
            Term::Mul(l, r) => self.eval_int(l)?.checked_mul(self.eval_int(r)?),
            Term::Div(l, r) => {
                let d = self.eval_int(r)?;
                if d == 0 {
                    None
                } else {
                    self.eval_int(l)?.checked_div(d)
                }
            }
            Term::Neg(x) => self.eval_int(x)?.checked_neg(),
        }
    }

    /// Evaluate a string-sorted term (only vars and constants are
    /// string-sorted).
    pub fn eval_str(&self, t: &Term) -> Option<String> {
        match t {
            Term::Var(v) => match self.assign.get(v) {
                Some(Value::Str(s)) => Some(s.clone()),
                Some(Value::Int(_)) => None,
                None => Some(String::new()),
            },
            Term::StrConst(s) => Some(s.clone()),
            _ => None,
        }
    }

    /// Evaluate an atom; `None` when evaluation is undefined (division by
    /// zero, sort confusion).
    pub fn eval_atom(&self, a: &Atom) -> Option<bool> {
        match a {
            Atom::Cmp(l, rel, r) => {
                // Try integers first, then strings.
                if let (Some(lv), Some(rv)) = (self.eval_int(l), self.eval_int(r)) {
                    return Some(rel.eval(&lv, &rv));
                }
                let (ls, rs) = (self.eval_str(l)?, self.eval_str(r)?);
                Some(match rel {
                    Rel::Eq => ls == rs,
                    Rel::Ne => ls != rs,
                    Rel::Lt => ls < rs,
                    Rel::Le => ls <= rs,
                    Rel::Gt => ls > rs,
                    Rel::Ge => ls >= rs,
                })
            }
            Atom::Like(t, p) => Some(pattern::like_match(&self.eval_str(t)?, p)),
        }
    }

    /// Evaluate a formula; `None` propagates undefined atom evaluations.
    pub fn eval_formula(&self, f: &Formula) -> Option<bool> {
        match f {
            Formula::True => Some(true),
            Formula::False => Some(false),
            Formula::Atom(a) => self.eval_atom(a),
            Formula::And(cs) => {
                let mut all = true;
                for c in cs {
                    match self.eval_formula(c) {
                        Some(false) => return Some(false),
                        Some(true) => {}
                        None => all = false,
                    }
                }
                if all {
                    Some(true)
                } else {
                    None
                }
            }
            Formula::Or(cs) => {
                let mut any_none = false;
                for c in cs {
                    match self.eval_formula(c) {
                        Some(true) => return Some(true),
                        Some(false) => {}
                        None => any_none = true,
                    }
                }
                if any_none {
                    None
                } else {
                    Some(false)
                }
            }
            Formula::Not(c) => self.eval_formula(c).map(|b| !b),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::{Sort, VarPool};

    #[test]
    fn eval_arith() {
        let mut p = VarPool::new();
        let a = p.fresh(Sort::Int);
        let mut m = Model::new();
        m.set(a, Value::Int(7));
        // (a * 2 - 4) / 2 == 5 with truncating division
        let t = Term::div(
            Term::sub(Term::mul(Term::var(a), Term::IntConst(2)), Term::IntConst(4)),
            Term::IntConst(2),
        );
        assert_eq!(m.eval_int(&t), Some(5));
        // Division by zero is undefined.
        let dz = Term::div(Term::var(a), Term::IntConst(0));
        assert_eq!(m.eval_int(&dz), None);
    }

    #[test]
    fn eval_atoms_both_sorts() {
        let mut p = VarPool::new();
        let a = p.fresh(Sort::Int);
        let s = p.fresh(Sort::Str);
        let mut m = Model::new();
        m.set(a, Value::Int(10));
        m.set(s, Value::Str("Eve".into()));
        assert_eq!(
            m.eval_atom(&Atom::Cmp(Term::var(a), Rel::Gt, Term::IntConst(5))),
            Some(true)
        );
        assert_eq!(
            m.eval_atom(&Atom::Cmp(Term::var(s), Rel::Eq, Term::StrConst("Eve".into()))),
            Some(true)
        );
        assert_eq!(m.eval_atom(&Atom::Like(Term::var(s), "Ev%".into())), Some(true));
        assert_eq!(m.eval_atom(&Atom::Like(Term::var(s), "X%".into())), Some(false));
    }

    #[test]
    fn default_values_for_missing_vars() {
        let mut p = VarPool::new();
        let a = p.fresh(Sort::Int);
        let m = Model::new();
        assert_eq!(m.eval_int(&Term::var(a)), Some(0));
    }

    #[test]
    fn eval_formula_short_circuits() {
        let mut p = VarPool::new();
        let a = p.fresh(Sort::Int);
        let mut m = Model::new();
        m.set(a, Value::Int(1));
        let t = Formula::cmp(Term::var(a), Rel::Eq, Term::IntConst(1));
        let undef = Formula::cmp(
            Term::div(Term::var(a), Term::IntConst(0)),
            Rel::Eq,
            Term::IntConst(1),
        );
        // OR short-circuits past the undefined disjunct.
        assert_eq!(m.eval_formula(&Formula::or(vec![t.clone(), undef.clone()])), Some(true));
        // AND with undefined and no false => None.
        assert_eq!(m.eval_formula(&Formula::and(vec![t, undef])), None);
    }
}
