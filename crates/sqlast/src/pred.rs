//! Predicate syntax trees.
//!
//! Predicates are represented exactly as in §5 of the paper: internal nodes
//! are the logical operators `AND`/`OR` (n-ary, ≥ 2 children) and `NOT`
//! (1 child); leaves are atomic predicates over scalar expressions.
//! [`Pred::size`] reports the node count used in the repair cost model.

use crate::expr::{ColRef, Scalar};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Comparison operators of atomic predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    /// SQL spelling.
    pub fn sql(self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }

    /// Logical negation of the operator (`¬(a < b) ⇔ a >= b`).
    pub fn negate(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Ne,
            CmpOp::Ne => CmpOp::Eq,
            CmpOp::Lt => CmpOp::Ge,
            CmpOp::Le => CmpOp::Gt,
            CmpOp::Gt => CmpOp::Le,
            CmpOp::Ge => CmpOp::Lt,
        }
    }

    /// Operator with operands swapped (`a < b ⇔ b > a`).
    pub fn flip(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }

    /// Evaluate the comparison on a totally ordered domain.
    pub fn eval<T: PartialOrd>(self, l: &T, r: &T) -> bool {
        match self {
            CmpOp::Eq => l == r,
            CmpOp::Ne => l != r,
            CmpOp::Lt => l < r,
            CmpOp::Le => l <= r,
            CmpOp::Gt => l > r,
            CmpOp::Ge => l >= r,
        }
    }
}

/// A quantifier-free predicate.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Pred {
    /// Constant TRUE (e.g. a missing WHERE clause).
    True,
    /// Constant FALSE.
    False,
    /// Atomic comparison `lhs op rhs`.
    Cmp(Scalar, CmpOp, Scalar),
    /// `expr [NOT] LIKE 'pattern'` (with `%`/`_` wildcards).
    Like {
        expr: Scalar,
        pattern: String,
        negated: bool,
    },
    /// n-ary conjunction (≥ 2 children after normalization).
    And(Vec<Pred>),
    /// n-ary disjunction (≥ 2 children after normalization).
    Or(Vec<Pred>),
    /// Negation.
    Not(Box<Pred>),
}

#[allow(clippy::should_implement_trait)] // `not` is the smart-negation constructor
impl Pred {
    /// Build an atomic comparison.
    pub fn cmp(lhs: Scalar, op: CmpOp, rhs: Scalar) -> Pred {
        Pred::Cmp(lhs, op, rhs)
    }

    /// Smart conjunction: flattens nested `And`s, drops `True`, collapses
    /// to `False` on any `False` child, unwraps singletons.
    pub fn and(children: Vec<Pred>) -> Pred {
        let mut flat = Vec::with_capacity(children.len());
        for c in children {
            match c {
                Pred::True => {}
                Pred::False => return Pred::False,
                Pred::And(grand) => flat.extend(grand),
                other => flat.push(other),
            }
        }
        match flat.len() {
            0 => Pred::True,
            1 => flat.pop().unwrap(),
            _ => Pred::And(flat),
        }
    }

    /// Smart disjunction, dual of [`Pred::and`].
    pub fn or(children: Vec<Pred>) -> Pred {
        let mut flat = Vec::with_capacity(children.len());
        for c in children {
            match c {
                Pred::False => {}
                Pred::True => return Pred::True,
                Pred::Or(grand) => flat.extend(grand),
                other => flat.push(other),
            }
        }
        match flat.len() {
            0 => Pred::False,
            1 => flat.pop().unwrap(),
            _ => Pred::Or(flat),
        }
    }

    /// Smart negation: collapses constants and double negation, pushes
    /// negation into atomic comparisons (`¬(a<b)` becomes `a>=b`).
    pub fn not(p: Pred) -> Pred {
        match p {
            Pred::True => Pred::False,
            Pred::False => Pred::True,
            Pred::Not(inner) => *inner,
            Pred::Cmp(l, op, r) => Pred::Cmp(l, op.negate(), r),
            Pred::Like { expr, pattern, negated } => Pred::Like { expr, pattern, negated: !negated },
            other => Pred::Not(Box::new(other)),
        }
    }

    /// Negation pushed all the way to the leaves (negation normal form):
    /// applies De Morgan's laws through `AND`/`OR` and negates atoms.
    /// Used by the parser to desugar `NOT IN` / `NOT BETWEEN`.
    pub fn negated_nnf(&self) -> Pred {
        match self {
            Pred::True => Pred::False,
            Pred::False => Pred::True,
            Pred::Cmp(l, op, r) => Pred::Cmp(l.clone(), op.negate(), r.clone()),
            Pred::Like { expr, pattern, negated } => Pred::Like {
                expr: expr.clone(),
                pattern: pattern.clone(),
                negated: !negated,
            },
            Pred::And(cs) => Pred::or(cs.iter().map(Pred::negated_nnf).collect()),
            Pred::Or(cs) => Pred::and(cs.iter().map(Pred::negated_nnf).collect()),
            Pred::Not(c) => (**c).clone(),
        }
    }

    /// Whether this node is an atomic predicate (leaf).
    pub fn is_atomic(&self) -> bool {
        matches!(self, Pred::True | Pred::False | Pred::Cmp(..) | Pred::Like { .. })
    }

    /// Number of syntax-tree nodes, counting each atomic predicate's
    /// scalar operands. This is `|P|` in Definition 3.
    pub fn size(&self) -> usize {
        match self {
            Pred::True | Pred::False => 1,
            Pred::Cmp(l, _, r) => 1 + l.size() + r.size(),
            Pred::Like { expr, .. } => 2 + expr.size(),
            Pred::And(cs) | Pred::Or(cs) => 1 + cs.iter().map(Pred::size).sum::<usize>(),
            Pred::Not(c) => 1 + c.size(),
        }
    }

    /// Number of atomic-predicate leaves.
    pub fn atom_count(&self) -> usize {
        match self {
            p if p.is_atomic() => 1,
            Pred::And(cs) | Pred::Or(cs) => cs.iter().map(Pred::atom_count).sum(),
            Pred::Not(c) => c.atom_count(),
            _ => unreachable!(),
        }
    }

    /// Collect all atomic sub-predicates in left-to-right order.
    pub fn atoms(&self) -> Vec<&Pred> {
        let mut out = Vec::new();
        fn go<'a>(p: &'a Pred, out: &mut Vec<&'a Pred>) {
            if p.is_atomic() {
                out.push(p);
            } else {
                match p {
                    Pred::And(cs) | Pred::Or(cs) => cs.iter().for_each(|c| go(c, out)),
                    Pred::Not(c) => go(c, out),
                    _ => unreachable!(),
                }
            }
        }
        go(self, &mut out);
        out
    }

    /// Collect every column reference appearing in the predicate.
    pub fn collect_columns(&self, out: &mut Vec<ColRef>) {
        match self {
            Pred::True | Pred::False => {}
            Pred::Cmp(l, _, r) => {
                l.collect_columns(out);
                r.collect_columns(out);
            }
            Pred::Like { expr, .. } => expr.collect_columns(out),
            Pred::And(cs) | Pred::Or(cs) => cs.iter().for_each(|c| c.collect_columns(out)),
            Pred::Not(c) => c.collect_columns(out),
        }
    }

    /// Apply `f` to every column reference, rebuilding the predicate.
    pub fn map_columns(&self, f: &impl Fn(&ColRef) -> ColRef) -> Pred {
        match self {
            Pred::True => Pred::True,
            Pred::False => Pred::False,
            Pred::Cmp(l, op, r) => Pred::Cmp(l.map_columns(f), *op, r.map_columns(f)),
            Pred::Like { expr, pattern, negated } => Pred::Like {
                expr: expr.map_columns(f),
                pattern: pattern.clone(),
                negated: *negated,
            },
            Pred::And(cs) => Pred::And(cs.iter().map(|c| c.map_columns(f)).collect()),
            Pred::Or(cs) => Pred::Or(cs.iter().map(|c| c.map_columns(f)).collect()),
            Pred::Not(c) => Pred::Not(Box::new(c.map_columns(f))),
        }
    }

    /// Whether the predicate mentions any aggregate call (legal only in
    /// HAVING).
    pub fn has_aggregate(&self) -> bool {
        match self {
            Pred::True | Pred::False => false,
            Pred::Cmp(l, _, r) => l.has_aggregate() || r.has_aggregate(),
            Pred::Like { expr, .. } => expr.has_aggregate(),
            Pred::And(cs) | Pred::Or(cs) => cs.iter().any(Pred::has_aggregate),
            Pred::Not(c) => c.has_aggregate(),
        }
    }
}

impl fmt::Display for Pred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Precedence: OR(1) < AND(2) < NOT(3) < atoms.
        fn go(p: &Pred, parent: u8, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match p {
                Pred::True => write!(f, "TRUE"),
                Pred::False => write!(f, "FALSE"),
                Pred::Cmp(l, op, r) => write!(f, "{l} {} {r}", op.sql()),
                Pred::Like { expr, pattern, negated } => {
                    let not = if *negated { " NOT" } else { "" };
                    write!(f, "{expr}{not} LIKE '{}'", pattern.replace('\'', "''"))
                }
                Pred::And(cs) => {
                    let need = parent > 2;
                    if need {
                        write!(f, "(")?;
                    }
                    for (i, c) in cs.iter().enumerate() {
                        if i > 0 {
                            write!(f, " AND ")?;
                        }
                        go(c, 2, f)?;
                    }
                    if need {
                        write!(f, ")")?;
                    }
                    Ok(())
                }
                Pred::Or(cs) => {
                    let need = parent > 1;
                    if need {
                        write!(f, "(")?;
                    }
                    for (i, c) in cs.iter().enumerate() {
                        if i > 0 {
                            write!(f, " OR ")?;
                        }
                        go(c, 1, f)?;
                    }
                    if need {
                        write!(f, ")")?;
                    }
                    Ok(())
                }
                Pred::Not(c) => {
                    write!(f, "NOT ")?;
                    go(c, 3, f)
                }
            }
        }
        go(self, 0, f)
    }
}

/// Path from a predicate root to a subtree: sequence of child indices.
/// Used by the repair machinery to name repair sites stably.
pub type PredPath = Vec<usize>;

impl Pred {
    /// Return the subtree at `path`, or `None` if the path is invalid.
    pub fn at_path(&self, path: &[usize]) -> Option<&Pred> {
        let mut cur = self;
        for &i in path {
            cur = match cur {
                Pred::And(cs) | Pred::Or(cs) => cs.get(i)?,
                Pred::Not(c) if i == 0 => c,
                _ => return None,
            };
        }
        Some(cur)
    }

    /// Replace the subtree at `path` with `replacement`, returning the new
    /// predicate. Panics on invalid paths (repair machinery only produces
    /// valid ones).
    pub fn replace_at(&self, path: &[usize], replacement: &Pred) -> Pred {
        if path.is_empty() {
            return replacement.clone();
        }
        match self {
            Pred::And(cs) => {
                let mut cs = cs.clone();
                cs[path[0]] = cs[path[0]].replace_at(&path[1..], replacement);
                Pred::And(cs)
            }
            Pred::Or(cs) => {
                let mut cs = cs.clone();
                cs[path[0]] = cs[path[0]].replace_at(&path[1..], replacement);
                Pred::Or(cs)
            }
            Pred::Not(c) => {
                assert_eq!(path[0], 0, "NOT has a single child");
                Pred::Not(Box::new(c.replace_at(&path[1..], replacement)))
            }
            _ => panic!("replace_at: path descends into a leaf"),
        }
    }

    /// Enumerate all subtree paths in pre-order (including the root `[]`).
    pub fn all_paths(&self) -> Vec<PredPath> {
        let mut out = Vec::new();
        fn go(p: &Pred, prefix: &mut PredPath, out: &mut Vec<PredPath>) {
            out.push(prefix.clone());
            match p {
                Pred::And(cs) | Pred::Or(cs) => {
                    for (i, c) in cs.iter().enumerate() {
                        prefix.push(i);
                        go(c, prefix, out);
                        prefix.pop();
                    }
                }
                Pred::Not(c) => {
                    prefix.push(0);
                    go(c, prefix, out);
                    prefix.pop();
                }
                _ => {}
            }
        }
        go(self, &mut Vec::new(), &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a() -> Pred {
        Pred::cmp(Scalar::col("t", "a"), CmpOp::Eq, Scalar::Int(1))
    }
    fn b() -> Pred {
        Pred::cmp(Scalar::col("t", "b"), CmpOp::Gt, Scalar::Int(2))
    }
    fn c() -> Pred {
        Pred::cmp(Scalar::col("t", "c"), CmpOp::Lt, Scalar::Int(3))
    }

    #[test]
    fn smart_and_flattens_and_collapses() {
        assert_eq!(Pred::and(vec![]), Pred::True);
        assert_eq!(Pred::and(vec![a()]), a());
        assert_eq!(Pred::and(vec![a(), Pred::False, b()]), Pred::False);
        let nested = Pred::and(vec![a(), Pred::and(vec![b(), c()])]);
        assert_eq!(nested, Pred::And(vec![a(), b(), c()]));
        assert_eq!(Pred::and(vec![Pred::True, a()]), a());
    }

    #[test]
    fn smart_or_flattens_and_collapses() {
        assert_eq!(Pred::or(vec![]), Pred::False);
        assert_eq!(Pred::or(vec![a(), Pred::True]), Pred::True);
        let nested = Pred::or(vec![Pred::or(vec![a(), b()]), c()]);
        assert_eq!(nested, Pred::Or(vec![a(), b(), c()]));
    }

    #[test]
    fn not_pushes_into_atoms() {
        assert_eq!(
            Pred::not(a()),
            Pred::cmp(Scalar::col("t", "a"), CmpOp::Ne, Scalar::Int(1))
        );
        assert_eq!(Pred::not(Pred::not(Pred::Or(vec![a(), b()]))), Pred::Or(vec![a(), b()]));
        assert_eq!(Pred::not(Pred::True), Pred::False);
    }

    #[test]
    fn size_matches_paper_example() {
        // Example 5's P has 12 nodes under the paper's counting:
        // (A=C AND (D<>E OR D>F)) OR (A=C AND (D>11 OR D<7 OR E<=5)).
        // The paper counts each atom as one node plus logical nodes:
        // atoms: 7, logical: OR, AND, OR, AND, OR = 5, total 12.
        // Our size() counts scalar operands too; expose atom-based size via
        // the cost module in qrhint-core instead. Here just sanity-check
        // monotonicity.
        let p = Pred::Or(vec![
            Pred::And(vec![a(), Pred::Or(vec![b(), c()])]),
            Pred::And(vec![a(), Pred::Or(vec![b(), c(), a()])]),
        ]);
        assert_eq!(p.atom_count(), 7);
        assert!(p.size() > p.atom_count());
    }

    #[test]
    fn paths_roundtrip() {
        let p = Pred::Or(vec![Pred::And(vec![a(), b()]), c()]);
        let paths = p.all_paths();
        assert!(paths.contains(&vec![]));
        assert!(paths.contains(&vec![0, 1]));
        assert_eq!(p.at_path(&[0, 1]), Some(&b()));
        let q = p.replace_at(&[0, 1], &c());
        assert_eq!(q, Pred::Or(vec![Pred::And(vec![a(), c()]), c()]));
        assert_eq!(p.at_path(&[5]), None);
    }

    #[test]
    fn display_parenthesizes_or_under_and() {
        let p = Pred::And(vec![Pred::Or(vec![a(), b()]), c()]);
        assert_eq!(p.to_string(), "(t.a = 1 OR t.b > 2) AND t.c < 3");
    }

    #[test]
    fn atoms_in_order() {
        let p = Pred::Or(vec![Pred::And(vec![a(), b()]), Pred::Not(Box::new(c()))]);
        let atoms = p.atoms();
        assert_eq!(atoms.len(), 3);
        assert_eq!(atoms[0], &a());
        assert_eq!(atoms[2], &c());
    }
}
