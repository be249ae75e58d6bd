//! Terms, sorts, variables and linear normalization (tree
//! representation; see [`crate::intern`] for the hash-consed arena the
//! oracle layer builds terms in).

use std::collections::BTreeMap;
use std::fmt;

/// Sorts of the two-sorted logic (INT and VARCHAR, both NOT NULL).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Sort {
    Int,
    Str,
}

/// A solver variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(pub u32);

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// Variable pool: allocates variables and records their sorts.
#[derive(Debug, Clone, Default)]
pub struct VarPool {
    sorts: Vec<Sort>,
}

impl VarPool {
    pub fn new() -> Self {
        VarPool::default()
    }

    /// Allocate a fresh variable.
    pub fn fresh(&mut self, sort: Sort) -> VarId {
        let id = VarId(self.sorts.len() as u32);
        self.sorts.push(sort);
        id
    }

    /// Sort of a variable.
    pub fn sort(&self, v: VarId) -> Sort {
        self.sorts[v.0 as usize]
    }

    /// Number of variables allocated.
    pub fn len(&self) -> usize {
        self.sorts.len()
    }

    /// Drop every variable at index `len` and above. Used by callers
    /// that mirror a shared pool and append throwaway solver-internal
    /// variables per check: truncate back to the synced snapshot, then
    /// [`VarPool::extend_from`] the new shared entries.
    pub fn truncate(&mut self, len: usize) {
        self.sorts.truncate(len);
    }

    /// Append `other`'s variables from index `from` on (the mirror-sync
    /// counterpart of [`VarPool::truncate`]). The caller guarantees
    /// `self.len() == from` so indices stay aligned.
    pub fn extend_from(&mut self, other: &VarPool, from: usize) {
        debug_assert_eq!(self.len(), from);
        self.sorts.extend_from_slice(&other.sorts[from..]);
    }

    /// Whether no variables were allocated yet.
    pub fn is_empty(&self) -> bool {
        self.sorts.is_empty()
    }
}

/// First-order terms.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Term {
    Var(VarId),
    IntConst(i64),
    StrConst(String),
    Add(Box<Term>, Box<Term>),
    Sub(Box<Term>, Box<Term>),
    Mul(Box<Term>, Box<Term>),
    Div(Box<Term>, Box<Term>),
    Neg(Box<Term>),
}

#[allow(clippy::should_implement_trait)] // add/sub/mul/div are term constructors, not ops
impl Term {
    pub fn var(v: VarId) -> Term {
        Term::Var(v)
    }

    pub fn add(l: Term, r: Term) -> Term {
        Term::Add(Box::new(l), Box::new(r))
    }

    pub fn sub(l: Term, r: Term) -> Term {
        Term::Sub(Box::new(l), Box::new(r))
    }

    pub fn mul(l: Term, r: Term) -> Term {
        Term::Mul(Box::new(l), Box::new(r))
    }

    pub fn div(l: Term, r: Term) -> Term {
        Term::Div(Box::new(l), Box::new(r))
    }

    /// Collect variables into `out`.
    pub fn collect_vars(&self, out: &mut Vec<VarId>) {
        match self {
            Term::Var(v) => out.push(*v),
            Term::IntConst(_) | Term::StrConst(_) => {}
            Term::Add(l, r) | Term::Sub(l, r) | Term::Mul(l, r) | Term::Div(l, r) => {
                l.collect_vars(out);
                r.collect_vars(out);
            }
            Term::Neg(t) => t.collect_vars(out),
        }
    }
}

/// A linear expression `Σ coeff·var + k` over integer variables.
///
/// All coefficients are stored as `i128` so Fourier–Motzkin combinations do
/// not overflow for realistic SQL constants. The arithmetic is checked:
/// every operation returns `None` where a coefficient or the constant
/// would leave `i128`, and each caller falls back to something sound
/// (an opaque variable, a skipped constraint, or `Unknown`).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LinExpr {
    /// var → coefficient (non-zero entries only).
    pub coeffs: BTreeMap<VarId, i128>,
    /// Constant offset.
    pub k: i128,
}

impl LinExpr {
    pub fn constant(k: i128) -> LinExpr {
        LinExpr { coeffs: BTreeMap::new(), k }
    }

    pub fn variable(v: VarId) -> LinExpr {
        let mut coeffs = BTreeMap::new();
        coeffs.insert(v, 1);
        LinExpr { coeffs, k: 0 }
    }

    pub fn is_constant(&self) -> bool {
        self.coeffs.is_empty()
    }

    /// Combine `self` and `other` term by term with `op`.
    fn zip(&self, other: &LinExpr, op: fn(i128, i128) -> Option<i128>) -> Option<LinExpr> {
        let mut out = self.clone();
        for (v, c) in &other.coeffs {
            let e = out.coeffs.entry(*v).or_insert(0);
            *e = op(*e, *c)?;
            if *e == 0 {
                out.coeffs.remove(v);
            }
        }
        out.k = op(out.k, other.k)?;
        Some(out)
    }

    pub fn add(&self, other: &LinExpr) -> Option<LinExpr> {
        self.zip(other, i128::checked_add)
    }

    pub fn sub(&self, other: &LinExpr) -> Option<LinExpr> {
        self.zip(other, i128::checked_sub)
    }

    pub fn negate(&self) -> Option<LinExpr> {
        self.scale(-1)
    }

    pub fn scale(&self, c: i128) -> Option<LinExpr> {
        if c == 0 {
            return Some(LinExpr::constant(0));
        }
        let coeffs = self
            .coeffs
            .iter()
            .map(|(v, k)| Some((*v, k.checked_mul(c)?)))
            .collect::<Option<_>>()?;
        Some(LinExpr { coeffs, k: self.k.checked_mul(c)? })
    }

    /// Evaluate under a variable assignment (must cover all variables);
    /// `None` on overflow.
    pub fn eval(&self, assign: &impl Fn(VarId) -> i128) -> Option<i128> {
        self.coeffs
            .iter()
            .try_fold(self.k, |acc, (v, c)| acc.checked_add(c.checked_mul(assign(*v))?))
    }
}

/// Interns non-linear / non-affine subterms ("opaque" terms) as fresh
/// integer variables. Identical opaque terms (after recursive
/// normalization) map to the same variable, giving a cheap congruence.
///
/// Insertions are recorded on a trail so an incremental caller (the
/// assumption-stack theory, [`crate::theory`]) can [`OpaqueMap::rollback`]
/// to a [`OpaqueMap::checkpoint`] when a pushed literal is popped — the
/// map then matches what a from-scratch translation of the remaining
/// literal stack would have built, which keeps opaque variable ids (and
/// therefore Fourier–Motzkin elimination order) bit-identical between
/// the assumption stack and a from-scratch
/// [`crate::conj::check_conjunction`].
#[derive(Debug, Default)]
pub struct OpaqueMap {
    map: BTreeMap<OpaqueKey, VarId>,
    /// Keys in insertion order; `rollback(n)` removes entries `n..`.
    trail: Vec<OpaqueKey>,
}

/// Canonical key for an opaque term: the operator plus the normalized
/// operand linear expressions rendered as sorted vectors.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum OpaqueKey {
    Mul(Vec<(VarId, i128)>, i128, Vec<(VarId, i128)>, i128),
    Div(Vec<(VarId, i128)>, i128, Vec<(VarId, i128)>, i128),
    /// A sum, difference or negation whose result leaves `i128`.
    Add(Vec<(VarId, i128)>, i128, Vec<(VarId, i128)>, i128),
    Sub(Vec<(VarId, i128)>, i128, Vec<(VarId, i128)>, i128),
    Neg(Vec<(VarId, i128)>, i128),
}

/// Constructor of a two-operand [`OpaqueKey`].
type BinaryKey = fn(Vec<(VarId, i128)>, i128, Vec<(VarId, i128)>, i128) -> OpaqueKey;

fn lin_key(e: &LinExpr) -> (Vec<(VarId, i128)>, i128) {
    (e.coeffs.iter().map(|(v, c)| (*v, *c)).collect(), e.k)
}

impl OpaqueMap {
    pub fn new() -> Self {
        OpaqueMap::default()
    }

    /// The variable standing for the opaque binary term `op(l, r)`.
    fn binary(&mut self, op: BinaryKey, l: &LinExpr, r: &LinExpr, pool: &mut VarPool) -> LinExpr {
        let ((lv, lk), (rv, rk)) = (lin_key(l), lin_key(r));
        LinExpr::variable(self.intern(op(lv, lk, rv, rk), pool))
    }

    fn intern(&mut self, key: OpaqueKey, pool: &mut VarPool) -> VarId {
        if let Some(v) = self.map.get(&key) {
            return *v;
        }
        let v = pool.fresh(Sort::Int);
        self.trail.push(key.clone());
        self.map.insert(key, v);
        v
    }

    /// Trail position to hand back to [`OpaqueMap::rollback`].
    pub fn checkpoint(&self) -> usize {
        self.trail.len()
    }

    /// Remove every opaque term interned after `checkpoint`. The caller
    /// truncates the [`VarPool`] to its matching snapshot (opaque
    /// interning is the only allocation between the two snapshots).
    pub fn rollback(&mut self, checkpoint: usize) {
        for key in self.trail.drain(checkpoint..) {
            self.map.remove(&key);
        }
    }

    /// Number of interned opaque terms (non-zero means Sat answers need
    /// model validation on the original formula).
    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// Normalize an integer-sorted term into a linear expression, abstracting
/// non-affine subterms (variable products, non-exact division) and
/// subterms whose coefficients overflow `i128` as opaque variables.
///
/// The abstraction *over-approximates* the solution set, so an UNSAT
/// verdict on the abstraction is sound for the original; SAT verdicts are
/// validated against the original term semantics by the caller.
pub fn linearize(term: &Term, pool: &mut VarPool, opaque: &mut OpaqueMap) -> LinExpr {
    match term {
        Term::Var(v) => LinExpr::variable(*v),
        Term::IntConst(c) => LinExpr::constant(*c as i128),
        Term::StrConst(_) => {
            // Type-checked inputs never reach here; be defensive.
            LinExpr::constant(0)
        }
        Term::Add(l, r) => {
            let (ll, rr) = (linearize(l, pool, opaque), linearize(r, pool, opaque));
            ll.add(&rr).unwrap_or_else(|| opaque.binary(OpaqueKey::Add, &ll, &rr, pool))
        }
        Term::Sub(l, r) => {
            let (ll, rr) = (linearize(l, pool, opaque), linearize(r, pool, opaque));
            ll.sub(&rr).unwrap_or_else(|| opaque.binary(OpaqueKey::Sub, &ll, &rr, pool))
        }
        Term::Neg(t) => {
            let e = linearize(t, pool, opaque);
            e.negate().unwrap_or_else(|| {
                let (v, k) = lin_key(&e);
                LinExpr::variable(opaque.intern(OpaqueKey::Neg(v, k), pool))
            })
        }
        Term::Mul(l, r) => {
            let ll = linearize(l, pool, opaque);
            let rr = linearize(r, pool, opaque);
            let scaled = if ll.is_constant() {
                rr.scale(ll.k)
            } else if rr.is_constant() {
                ll.scale(rr.k)
            } else {
                None
            };
            scaled.unwrap_or_else(|| {
                // Order operands canonically so x*y and y*x unify.
                let (a, b) = if lin_key(&ll) <= lin_key(&rr) { (&ll, &rr) } else { (&rr, &ll) };
                opaque.binary(OpaqueKey::Mul, a, b, pool)
            })
        }
        Term::Div(l, r) => {
            let ll = linearize(l, pool, opaque);
            let rr = linearize(r, pool, opaque);
            if rr.is_constant() && rr.k != 0 {
                // `checked_rem` is `None` for `i128::MIN % -1`, so the
                // divisions below cannot overflow.
                let d = rr.k;
                let exact = |c: i128| c.checked_rem(d) == Some(0);
                if exact(ll.k) && ll.coeffs.values().all(|&c| exact(c)) {
                    return LinExpr {
                        coeffs: ll.coeffs.iter().map(|(v, c)| (*v, c / d)).collect(),
                        k: ll.k / d,
                    };
                }
            }
            opaque.binary(OpaqueKey::Div, &ll, &rr, pool)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool3() -> (VarPool, VarId, VarId, VarId) {
        let mut p = VarPool::new();
        let a = p.fresh(Sort::Int);
        let b = p.fresh(Sort::Int);
        let c = p.fresh(Sort::Int);
        (p, a, b, c)
    }

    #[test]
    fn linearize_affine() {
        let (mut p, a, b, _) = pool3();
        let mut op = OpaqueMap::new();
        // 2*a + b - 3
        let t = Term::sub(
            Term::add(Term::mul(Term::IntConst(2), Term::var(a)), Term::var(b)),
            Term::IntConst(3),
        );
        let e = linearize(&t, &mut p, &mut op);
        assert_eq!(e.coeffs[&a], 2);
        assert_eq!(e.coeffs[&b], 1);
        assert_eq!(e.k, -3);
        assert!(op.is_empty());
    }

    #[test]
    fn linearize_cancellation() {
        let (mut p, a, _, _) = pool3();
        let mut op = OpaqueMap::new();
        let t = Term::sub(Term::var(a), Term::var(a));
        let e = linearize(&t, &mut p, &mut op);
        assert!(e.is_constant());
        assert_eq!(e.k, 0);
    }

    #[test]
    fn nonlinear_products_unify() {
        let (mut p, a, b, _) = pool3();
        let mut op = OpaqueMap::new();
        let t1 = Term::mul(Term::var(a), Term::var(b));
        let t2 = Term::mul(Term::var(b), Term::var(a));
        let e1 = linearize(&t1, &mut p, &mut op);
        let e2 = linearize(&t2, &mut p, &mut op);
        assert_eq!(e1, e2);
        assert_eq!(op.len(), 1);
    }

    #[test]
    fn exact_division_folds() {
        let (mut p, a, _, _) = pool3();
        let mut op = OpaqueMap::new();
        // (4*a + 8) / 4 == a + 2
        let t = Term::div(
            Term::add(Term::mul(Term::IntConst(4), Term::var(a)), Term::IntConst(8)),
            Term::IntConst(4),
        );
        let e = linearize(&t, &mut p, &mut op);
        assert_eq!(e.coeffs[&a], 1);
        assert_eq!(e.k, 2);
        assert!(op.is_empty());
    }

    #[test]
    fn inexact_division_is_opaque() {
        let (mut p, a, _, _) = pool3();
        let mut op = OpaqueMap::new();
        let t = Term::div(Term::var(a), Term::IntConst(2));
        let e = linearize(&t, &mut p, &mut op);
        assert_eq!(op.len(), 1);
        assert_eq!(e.coeffs.len(), 1);
    }

    #[test]
    fn linexpr_arith() {
        let (_, a, b, _) = pool3();
        let e1 = LinExpr::variable(a).scale(3).unwrap();
        let e2 = LinExpr::variable(b).add(&LinExpr::constant(5)).unwrap();
        let sum = e1.add(&e2).unwrap();
        assert_eq!(sum.eval(&|v| if v == a { 2 } else { 10 }), Some(3 * 2 + 10 + 5));
        let diff = sum.sub(&sum).unwrap();
        assert!(diff.is_constant());
        assert_eq!(diff.k, 0);
        // Arithmetic that leaves i128 is `None`, never wrapped.
        let big = LinExpr::variable(a).scale(1 << 100).unwrap();
        assert_eq!(big.scale(1 << 100), None);
        assert_eq!(LinExpr::constant(i128::MIN).negate(), None);
        assert_eq!(LinExpr::constant(i128::MAX).add(&LinExpr::constant(1)), None);
        assert_eq!(big.eval(&|_| 1 << 100), None);
    }

    #[test]
    fn overflowing_subterms_are_opaque() {
        let (mut p, a, _, _) = pool3();
        let mut op = OpaqueMap::new();
        let c = Term::IntConst(1 << 62);
        // a · 2^62 · 2^62 is 2^124·a; one more factor leaves i128.
        let t = Term::mul(Term::mul(Term::var(a), c.clone()), c.clone());
        assert_eq!(linearize(&t, &mut p, &mut op).coeffs[&a], 1 << 124);
        assert!(op.is_empty());
        let t = Term::mul(t, c);
        let e = linearize(&t, &mut p, &mut op);
        assert_eq!(op.len(), 1);
        assert!(!e.coeffs.contains_key(&a), "the coefficient must not wrap: {e:?}");
        // The same overflowing term is the same opaque variable.
        assert_eq!(linearize(&t, &mut p, &mut op), e);
        assert_eq!(op.len(), 1);
    }
}
