//! Hash-consed interning of terms and formulas.
//!
//! The tree representation ([`Term`], [`Formula`]) is ergonomic but pays
//! for itself on the hot path: every lower/negate/conjoin clones whole
//! subtrees, and every cache probe re-walks them for equality. This
//! module provides the arena representation the oracle layer works with:
//!
//! * [`TermId`] / [`FormulaId`] — `u32` indices into append-only tables
//!   owned by an [`Interner`];
//! * **hash-consing** — structurally equal nodes intern to the *same*
//!   id, so equality and hashing of whole formulas are single integer
//!   compares (`FormulaId: Eq + Hash + Copy`);
//! * **smart constructors** ([`Interner::and`], [`Interner::or`],
//!   [`Interner::not`]) that replicate the tree layer's simplifications
//!   (flattening, constant short-circuiting, double-negation
//!   elimination) node-for-node, so extracting a tree via
//!   [`Interner::formula`] yields exactly what the tree constructors
//!   would have built;
//! * **per-node memoization** — negation is memoized per formula node,
//!   so repeated `¬f` over a shared subformula is a table lookup.
//!
//! The solver ([`crate::solver`]) consumes trees: callers extract with
//! [`Interner::formula`] only for the checks their verdict caches miss.
//! A truth table of literal combinations is probed row by row in ids,
//! and only its literals and context are extracted, once, for one
//! [`crate::Solver::check_rows`] walk over the missed rows.

use crate::formula::{Atom, Formula, Rel};
use crate::term::{Term, VarId};
use std::collections::HashMap;

/// Id of an interned term node. Equality means structural equality of
/// the whole subterm (within one [`Interner`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TermId(u32);

/// Id of an interned formula node. Equality means structural equality
/// of the whole subformula (within one [`Interner`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FormulaId(u32);

impl FormulaId {
    /// The constant `true` formula (pre-interned by [`Interner::new`]).
    pub const TRUE: FormulaId = FormulaId(0);
    /// The constant `false` formula (pre-interned by [`Interner::new`]).
    pub const FALSE: FormulaId = FormulaId(1);
}

/// One interned term node; children are ids, not boxes.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum TermNode {
    Var(VarId),
    IntConst(i64),
    StrConst(Box<str>),
    Add(TermId, TermId),
    Sub(TermId, TermId),
    Mul(TermId, TermId),
    Div(TermId, TermId),
    Neg(TermId),
}

/// One interned atom.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum AtomNode {
    Cmp(TermId, Rel, TermId),
    Like(TermId, Box<str>),
}

/// One interned formula node.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum FormulaNode {
    True,
    False,
    Atom(AtomNode),
    And(Box<[FormulaId]>),
    Or(Box<[FormulaId]>),
    Not(FormulaId),
}

/// Approximate per-node overhead used by [`Interner::approx_bytes`]:
/// arena slot plus the dedup map's hash/candidate-id entry (the arena
/// holds the only node copy). Deliberately coarse — the byte budget it
/// feeds only needs to *scale* with residency.
const TERM_NODE_BYTES: usize = 96;
const FORMULA_NODE_BYTES: usize = 112;
const NOT_MEMO_ENTRY_BYTES: usize = 48;

/// The append-only, hash-consed term/formula tables.
///
/// Not internally synchronized: the owning layer wraps it in its own
/// lock (construction is a cheap table operation; solving, the slow
/// part, happens outside on extracted trees).
#[derive(Debug)]
pub struct Interner {
    terms: Vec<TermNode>,
    /// Node-hash → candidate ids, verified against the arena slot on
    /// probe (the arena is the only node copy; a key-per-node map would
    /// double residency). Collisions make the candidate list longer,
    /// never the answer wrong.
    term_ids: HashMap<u64, Vec<TermId>>,
    formulas: Vec<FormulaNode>,
    formula_ids: HashMap<u64, Vec<FormulaId>>,
    /// Memoized smart negation per formula node.
    not_memo: HashMap<FormulaId, FormulaId>,
    /// Construction requests answered by an existing node.
    dedup_hits: u64,
    /// Variable-size payload bytes (strings, And/Or child slices).
    payload_bytes: usize,
}

fn node_hash<T: std::hash::Hash>(node: &T) -> u64 {
    use std::hash::Hasher;
    let mut h = std::collections::hash_map::DefaultHasher::new();
    node.hash(&mut h);
    h.finish()
}

/// `Default` routes through [`Interner::new`]: every construction path
/// must pre-intern `True`/`False` at ids 0/1, or the
/// [`FormulaId::TRUE`]/[`FormulaId::FALSE`] constants would alias
/// whatever happens to be interned first.
impl Default for Interner {
    fn default() -> Interner {
        Interner::new()
    }
}

impl Interner {
    pub fn new() -> Interner {
        let mut it = Interner {
            terms: Vec::new(),
            term_ids: HashMap::new(),
            formulas: Vec::new(),
            formula_ids: HashMap::new(),
            not_memo: HashMap::new(),
            dedup_hits: 0,
            payload_bytes: 0,
        };
        let t = it.formula_node(FormulaNode::True);
        let f = it.formula_node(FormulaNode::False);
        debug_assert_eq!(t, FormulaId::TRUE);
        debug_assert_eq!(f, FormulaId::FALSE);
        it
    }

    // ---------------- raw node interning ----------------

    fn term_node(&mut self, node: TermNode) -> TermId {
        let hash = node_hash(&node);
        if let Some(bucket) = self.term_ids.get(&hash) {
            if let Some(&id) =
                bucket.iter().find(|&&id| self.terms[id.0 as usize] == node)
            {
                self.dedup_hits += 1;
                return id;
            }
        }
        let id = TermId(u32::try_from(self.terms.len()).expect("term table overflow"));
        if let TermNode::StrConst(s) = &node {
            self.payload_bytes += s.len();
        }
        self.terms.push(node);
        self.term_ids.entry(hash).or_default().push(id);
        id
    }

    fn formula_node(&mut self, node: FormulaNode) -> FormulaId {
        let hash = node_hash(&node);
        if let Some(bucket) = self.formula_ids.get(&hash) {
            if let Some(&id) =
                bucket.iter().find(|&&id| self.formulas[id.0 as usize] == node)
            {
                self.dedup_hits += 1;
                return id;
            }
        }
        let id =
            FormulaId(u32::try_from(self.formulas.len()).expect("formula table overflow"));
        match &node {
            FormulaNode::And(cs) | FormulaNode::Or(cs) => {
                self.payload_bytes += std::mem::size_of::<FormulaId>() * cs.len();
            }
            FormulaNode::Atom(AtomNode::Like(_, p)) => self.payload_bytes += p.len(),
            _ => {}
        }
        self.formulas.push(node);
        self.formula_ids.entry(hash).or_default().push(id);
        id
    }

    // ---------------- term constructors ----------------

    pub fn var(&mut self, v: VarId) -> TermId {
        self.term_node(TermNode::Var(v))
    }

    pub fn int(&mut self, c: i64) -> TermId {
        self.term_node(TermNode::IntConst(c))
    }

    pub fn str(&mut self, s: &str) -> TermId {
        self.term_node(TermNode::StrConst(s.into()))
    }

    pub fn add(&mut self, l: TermId, r: TermId) -> TermId {
        self.term_node(TermNode::Add(l, r))
    }

    pub fn sub(&mut self, l: TermId, r: TermId) -> TermId {
        self.term_node(TermNode::Sub(l, r))
    }

    pub fn mul(&mut self, l: TermId, r: TermId) -> TermId {
        self.term_node(TermNode::Mul(l, r))
    }

    pub fn div(&mut self, l: TermId, r: TermId) -> TermId {
        self.term_node(TermNode::Div(l, r))
    }

    pub fn neg(&mut self, t: TermId) -> TermId {
        self.term_node(TermNode::Neg(t))
    }

    // ---------------- formula constructors ----------------

    /// Comparison atom.
    pub fn cmp(&mut self, l: TermId, rel: Rel, r: TermId) -> FormulaId {
        self.formula_node(FormulaNode::Atom(AtomNode::Cmp(l, rel, r)))
    }

    /// LIKE atom (positive literal; negate with [`Interner::not`]).
    pub fn like(&mut self, t: TermId, pattern: &str) -> FormulaId {
        self.formula_node(FormulaNode::Atom(AtomNode::Like(t, pattern.into())))
    }

    /// Smart conjunction: mirrors [`Formula::and`] (flattens nested
    /// conjunctions, drops `true`, short-circuits `false`, unwraps
    /// singletons).
    pub fn and(&mut self, children: Vec<FormulaId>) -> FormulaId {
        let mut flat = Vec::with_capacity(children.len());
        for c in children {
            match &self.formulas[c.0 as usize] {
                FormulaNode::True => {}
                FormulaNode::False => return FormulaId::FALSE,
                FormulaNode::And(g) => flat.extend_from_slice(g),
                _ => flat.push(c),
            }
        }
        match flat.len() {
            0 => FormulaId::TRUE,
            1 => flat[0],
            _ => self.formula_node(FormulaNode::And(flat.into_boxed_slice())),
        }
    }

    /// Smart disjunction: mirrors [`Formula::or`].
    pub fn or(&mut self, children: Vec<FormulaId>) -> FormulaId {
        let mut flat = Vec::with_capacity(children.len());
        for c in children {
            match &self.formulas[c.0 as usize] {
                FormulaNode::False => {}
                FormulaNode::True => return FormulaId::TRUE,
                FormulaNode::Or(g) => flat.extend_from_slice(g),
                _ => flat.push(c),
            }
        }
        match flat.len() {
            0 => FormulaId::FALSE,
            1 => flat[0],
            _ => self.formula_node(FormulaNode::Or(flat.into_boxed_slice())),
        }
    }

    /// Smart negation, memoized per node: mirrors [`Formula::not`]
    /// (constant flipping, double-negation elimination).
    pub fn not(&mut self, f: FormulaId) -> FormulaId {
        if let Some(&g) = self.not_memo.get(&f) {
            self.dedup_hits += 1;
            return g;
        }
        let g = match self.formulas[f.0 as usize] {
            FormulaNode::True => FormulaId::FALSE,
            FormulaNode::False => FormulaId::TRUE,
            FormulaNode::Not(inner) => inner,
            _ => self.formula_node(FormulaNode::Not(f)),
        };
        self.not_memo.insert(f, g);
        g
    }

    // ---------------- tree extraction ----------------

    /// Extract the term tree of `t`.
    pub fn term(&self, t: TermId) -> Term {
        match &self.terms[t.0 as usize] {
            TermNode::Var(v) => Term::Var(*v),
            TermNode::IntConst(c) => Term::IntConst(*c),
            TermNode::StrConst(s) => Term::StrConst(s.to_string()),
            TermNode::Add(l, r) => Term::Add(Box::new(self.term(*l)), Box::new(self.term(*r))),
            TermNode::Sub(l, r) => Term::Sub(Box::new(self.term(*l)), Box::new(self.term(*r))),
            TermNode::Mul(l, r) => Term::Mul(Box::new(self.term(*l)), Box::new(self.term(*r))),
            TermNode::Div(l, r) => Term::Div(Box::new(self.term(*l)), Box::new(self.term(*r))),
            TermNode::Neg(inner) => Term::Neg(Box::new(self.term(*inner))),
        }
    }

    /// Extract the formula tree of `f`.
    pub fn formula(&self, f: FormulaId) -> Formula {
        match &self.formulas[f.0 as usize] {
            FormulaNode::True => Formula::True,
            FormulaNode::False => Formula::False,
            FormulaNode::Atom(AtomNode::Cmp(l, rel, r)) => {
                Formula::Atom(Atom::Cmp(self.term(*l), *rel, self.term(*r)))
            }
            FormulaNode::Atom(AtomNode::Like(t, p)) => {
                Formula::Atom(Atom::Like(self.term(*t), p.to_string()))
            }
            FormulaNode::And(cs) => {
                Formula::And(cs.iter().map(|c| self.formula(*c)).collect())
            }
            FormulaNode::Or(cs) => {
                Formula::Or(cs.iter().map(|c| self.formula(*c)).collect())
            }
            FormulaNode::Not(c) => Formula::Not(Box::new(self.formula(*c))),
        }
    }

    // ---------------- accounting ----------------

    /// Distinct term nodes interned.
    pub fn num_terms(&self) -> usize {
        self.terms.len()
    }

    /// Distinct formula nodes interned.
    pub fn num_formulas(&self) -> usize {
        self.formulas.len()
    }

    /// Construction requests answered by an already-interned node (the
    /// hash-consing hit counter; includes negation-memo hits).
    pub fn dedup_hits(&self) -> u64 {
        self.dedup_hits
    }

    /// Approximate resident bytes of the tables (nodes, dedup maps,
    /// negation memo, variable-size payloads).
    pub fn approx_bytes(&self) -> usize {
        self.terms.len() * TERM_NODE_BYTES
            + self.formulas.len() * FORMULA_NODE_BYTES
            + self.not_memo.len() * NOT_MEMO_ENTRY_BYTES
            + self.payload_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::{Sort, VarPool};

    fn two_vars() -> (Interner, TermId, TermId) {
        let mut it = Interner::new();
        let mut pool = VarPool::new();
        let a = pool.fresh(Sort::Int);
        let b = pool.fresh(Sort::Int);
        let (a, b) = (it.var(a), it.var(b));
        (it, a, b)
    }

    #[test]
    fn structurally_equal_nodes_share_ids() {
        let (mut it, a, b) = two_vars();
        let f1 = {
            let t = it.add(a, b);
            let c = it.int(3);
            it.cmp(t, Rel::Lt, c)
        };
        let f2 = {
            let t = it.add(a, b);
            let c = it.int(3);
            it.cmp(t, Rel::Lt, c)
        };
        assert_eq!(f1, f2, "hash-consing dedups identical construction");
        assert!(it.dedup_hits() >= 3, "add, const and atom all dedup");
    }

    #[test]
    fn smart_constructors_mirror_tree_layer() {
        let (mut it, a, _) = two_vars();
        let one = it.int(1);
        let atom = it.cmp(a, Rel::Eq, one);
        // and[] = true; or[] = false; singleton unwraps; constants fold.
        assert_eq!(it.and(vec![]), FormulaId::TRUE);
        assert_eq!(it.or(vec![]), FormulaId::FALSE);
        assert_eq!(it.and(vec![FormulaId::TRUE, atom]), atom);
        assert_eq!(it.or(vec![FormulaId::TRUE, atom]), FormulaId::TRUE);
        assert_eq!(it.and(vec![FormulaId::FALSE, atom]), FormulaId::FALSE);
        // Nested conjunctions flatten exactly like Formula::and.
        let two = it.int(2);
        let atom2 = it.cmp(a, Rel::Lt, two);
        let inner = it.and(vec![atom, atom2]);
        let outer = it.and(vec![inner, atom]);
        let tree = it.formula(outer);
        match tree {
            Formula::And(cs) => assert_eq!(cs.len(), 3, "flattened"),
            other => panic!("expected flat And, got {other}"),
        }
    }

    #[test]
    fn negation_is_memoized_and_involutive() {
        let (mut it, a, _) = two_vars();
        let five = it.int(5);
        let atom = it.cmp(a, Rel::Gt, five);
        let n1 = it.not(atom);
        let hits_before = it.dedup_hits();
        let n2 = it.not(atom);
        assert_eq!(n1, n2);
        assert!(it.dedup_hits() > hits_before, "second negation is a memo hit");
        assert_eq!(it.not(n1), atom, "double negation unwraps");
        assert_eq!(it.not(FormulaId::TRUE), FormulaId::FALSE);
        assert_eq!(it.not(FormulaId::FALSE), FormulaId::TRUE);
    }

    #[test]
    fn byte_accounting_grows_with_residency() {
        let mut it = Interner::new();
        let empty = it.approx_bytes();
        let t = it.str("a-reasonably-long-string-constant");
        let like = it.like(t, "%pattern%");
        let _ = it.not(like);
        assert!(it.approx_bytes() > empty);
    }
}
