//! Incremental theory state for the branch search.
//!
//! [`TheoryState`] is a push/pop assumption stack over the shared
//! [`Translation`] layer: every literal the DPLL search assigns is
//! translated once at push time (instead of retranslating the whole
//! prefix at each leaf and pruning stride), and each push also feeds a
//! cheap *quick conflict* detector — union-find over asserted integer
//! and string equalities, per-class interval bounds from single-variable
//! constraints, string constant bindings and LIKE patterns. A quick
//! conflict is a sound unsatisfiability proof for the stacked prefix, so
//! the search can prune the branch without running the full theory
//! check.
//!
//! Parity with the from-scratch path is by construction:
//! [`TheoryState::check_full`] decides the identically-ordered
//! translation state that [`crate::conj::check_conjunction`] would build
//! for the same literal stack, with the same two deciders and the same
//! assembly, and [`TheoryState::pop`] unwinds the translation (including
//! [`crate::term::OpaqueMap`] interning and pool allocation) to exactly
//! the state a from-scratch translation of the remaining stack would
//! produce.
//!
//! The stack also memoizes those two deciders, [`strings::check`] and
//! [`decide_ints`], by their exact inputs. Leaves of one search often
//! differ only in a string literal, which leaves the integer system as
//! it was, or only in an integer literal, which leaves the string
//! constraints as they were; a full check reuses whichever answer it has
//! seen. The memo lives as long as the state (one solver call), is not
//! unwound by `pop` (an answer depends on its input alone, not on the
//! stack it came from), holds at most [`THEORY_MEMO_CAP`] answers per
//! decider, and stores a check's answer only when a later check asks, so
//! a call with one leaf neither hashes nor fills a table. Model
//! assembly and validation against the leaf's own literals always run.

use std::collections::{BTreeMap, HashMap};

use crate::conj::{decide_ints, Lit, Translation};
use crate::formula::Atom;
use crate::lia::LiaResult;
use crate::model::Model;
use crate::pattern;
use crate::strings::{self, StrConstraint, StrOperand, StrResult};
use crate::term::{LinExpr, VarId, VarPool};
use crate::SatResult;

/// Most answers each of a [`TheoryState`]'s two decider memos holds, the
/// latest included. A search reaching more distinct inputs decides the
/// rest without storing them.
pub const THEORY_MEMO_CAP: usize = 1024;

/// Answers of one pure decider, keyed by a compact encoding of its exact
/// input ([`strings_key`], [`ints_key`]). A lookup hashes the key and
/// then compares it in full, so two inputs share an answer only when
/// they are equal.
#[derive(Debug)]
struct Memo<R> {
    map: HashMap<Box<[u8]>, R>,
    /// The latest miss, moved into `map` when the next decision is asked
    /// for: a call that decides once hashes nothing and allocates no
    /// table.
    last: Option<(Box<[u8]>, R)>,
    /// Reused buffer the key of each decision is encoded into.
    key: Vec<u8>,
    hits: u64,
}

impl<R> Default for Memo<R> {
    fn default() -> Self {
        Memo { map: HashMap::new(), last: None, key: Vec::new(), hits: 0 }
    }
}

impl<R> Memo<R> {
    /// The answer for the input `encode` writes: a stored one, or
    /// `decide()`'s.
    fn get_or_decide(
        &mut self,
        encode: impl FnOnce(&mut Vec<u8>),
        decide: impl FnOnce() -> R,
    ) -> &R {
        if let Some((key, answer)) = self.last.take() {
            if self.map.len() + 1 < THEORY_MEMO_CAP {
                self.map.insert(key, answer);
            }
        }
        self.key.clear();
        encode(&mut self.key);
        if let Some(answer) = self.map.get(&self.key[..]) {
            self.hits += 1;
            return answer;
        }
        &self.last.insert((Box::from(&self.key[..]), decide())).1
    }

    /// Answers held.
    fn len(&self) -> usize {
        self.map.len() + usize::from(self.last.is_some())
    }
}

/// Append `n` as a LEB128 varint.
fn put_uint(key: &mut Vec<u8>, mut n: u128) {
    while n >= 0x80 {
        key.push(n as u8 | 0x80);
        n >>= 7;
    }
    key.push(n as u8);
}

/// Append `k` zigzag-encoded, so small magnitudes of either sign take
/// one byte.
fn put_int(key: &mut Vec<u8>, k: i128) {
    put_uint(key, ((k << 1) ^ (k >> 127)) as u128);
}

fn put_str(key: &mut Vec<u8>, s: &str) {
    put_uint(key, s.len() as u128);
    key.extend_from_slice(s.as_bytes());
}

fn put_operand(key: &mut Vec<u8>, op: &StrOperand) {
    match op {
        StrOperand::Var(i) => {
            key.push(0);
            put_uint(key, *i as u128);
        }
        StrOperand::Const(s) => {
            key.push(1);
            put_str(key, s);
        }
    }
}

/// Encode the input of [`strings::check`] for `tr`: the variable count,
/// then each constraint (every item is self-delimiting, so equal
/// encodings mean equal inputs).
fn strings_key(tr: &Translation, key: &mut Vec<u8>) {
    put_uint(key, tr.str_var_index.len() as u128);
    for c in &tr.str_constraints {
        match c {
            StrConstraint::Eq(a, b) | StrConstraint::Ne(a, b) => {
                key.push(u8::from(matches!(c, StrConstraint::Ne(..))));
                put_operand(key, a);
                put_operand(key, b);
            }
            StrConstraint::Like { operand, pattern, positive } => {
                key.push(2 + u8::from(*positive));
                put_operand(key, operand);
                put_str(key, pattern);
            }
        }
    }
}

/// Encode the input of [`decide_ints`] for `tr`: `ineqs`, `eqs` and
/// `nes`, each as a length and its expressions.
fn ints_key(tr: &Translation, key: &mut Vec<u8>) {
    for section in [&tr.ineqs, &tr.eqs, &tr.nes] {
        put_uint(key, section.len() as u128);
        for e in section {
            put_uint(key, e.coeffs.len() as u128);
            put_int(key, e.k);
            for (v, c) in &e.coeffs {
                put_uint(key, u128::from(v.0));
                put_int(key, *c);
            }
        }
    }
}

/// Shape of a linear expression the quick detector can reason about.
enum LinClass {
    /// `k` (no variables).
    Const(i128),
    /// `c·v + k` with `c ≠ 0`.
    Single(VarId, i128, i128),
    /// `x − y + k` (coefficients exactly +1 and −1).
    Diff(VarId, VarId, i128),
    Other,
}

fn classify(e: &LinExpr) -> LinClass {
    match e.coeffs.len() {
        0 => LinClass::Const(e.k),
        1 => {
            let (v, c) = e.coeffs.iter().next().map(|(v, c)| (*v, *c)).unwrap();
            LinClass::Single(v, c, e.k)
        }
        2 => {
            let mut it = e.coeffs.iter();
            let (a, ca) = it.next().map(|(v, c)| (*v, *c)).unwrap();
            let (b, cb) = it.next().map(|(v, c)| (*v, *c)).unwrap();
            if ca == 1 && cb == -1 {
                LinClass::Diff(a, b, e.k)
            } else if ca == -1 && cb == 1 {
                LinClass::Diff(b, a, e.k)
            } else {
                LinClass::Other
            }
        }
        _ => LinClass::Other,
    }
}

/// Union-find without path compression, so a union is undone by
/// restoring exactly the one parent edge (and size) it installed.
#[derive(Debug, Default)]
struct Uf {
    parent: Vec<u32>,
    size: Vec<u32>,
}

impl Uf {
    fn add(&mut self) -> u32 {
        let id = self.parent.len() as u32;
        self.parent.push(id);
        self.size.push(1);
        id
    }

    fn find(&self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            x = self.parent[x as usize];
        }
        x
    }

    /// Union two *distinct roots* by size; returns `(winner, loser)`.
    fn union_roots(&mut self, ra: u32, rb: u32) -> (u32, u32) {
        debug_assert_ne!(ra, rb);
        let (w, l) = if self.size[ra as usize] >= self.size[rb as usize] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[l as usize] = w;
        self.size[w as usize] += self.size[l as usize];
        (w, l)
    }

    fn undo_union(&mut self, winner: u32, loser: u32) {
        self.size[winner as usize] -= self.size[loser as usize];
        self.parent[loser as usize] = loser;
    }

    fn truncate(&mut self, n: usize) {
        self.parent.truncate(n);
        self.size.truncate(n);
    }

    fn len(&self) -> usize {
        self.parent.len()
    }
}

/// One reversible mutation of the quick-detector state.
#[derive(Debug)]
enum Undo {
    IntUnion { winner: u32, loser: u32, old_lo: Option<i128>, old_hi: Option<i128> },
    IntBound { node: u32, old_lo: Option<i128>, old_hi: Option<i128> },
    StrUnion { winner: u32, loser: u32, old_val: Option<String> },
    StrBind { node: u32 },
}

/// Cheap incremental conflict detector. All state lives in vectors whose
/// growth is recorded in frames (truncated on pop) or on the [`Undo`]
/// trail (unwound on pop). Conflicts only ever *add* pruning: every
/// conflict flagged here corresponds to a refutation the full
/// string/LIA check would also find on the same stack.
#[derive(Debug, Default)]
struct Quick {
    int_index: BTreeMap<VarId, u32>,
    /// Registration order, aligned with node ids (for pop cleanup).
    int_order: Vec<VarId>,
    int_uf: Uf,
    /// Per-node interval bounds; authoritative at class roots.
    int_lo: Vec<Option<i128>>,
    int_hi: Vec<Option<i128>>,
    int_ne_pairs: Vec<(u32, u32)>,
    int_ne_consts: Vec<(u32, i128)>,

    /// String nodes share the dense indices of
    /// [`Translation::str_var_order`].
    str_uf: Uf,
    /// Constant binding per node; authoritative at class roots.
    str_val: Vec<Option<String>>,
    str_ne_pairs: Vec<(u32, u32)>,
    str_ne_consts: Vec<(u32, String)>,
    str_likes: Vec<(u32, String, bool)>,

    undo: Vec<Undo>,
    /// Number of conflicts asserted by literals currently on the stack.
    conflicts: u32,
}

impl Quick {
    fn conflict(&mut self) {
        self.conflicts += 1;
    }

    fn int_node(&mut self, v: VarId) -> u32 {
        if let Some(n) = self.int_index.get(&v) {
            return *n;
        }
        let n = self.int_uf.add();
        self.int_lo.push(None);
        self.int_hi.push(None);
        self.int_index.insert(v, n);
        self.int_order.push(v);
        n
    }

    fn pinned(&self, root: u32) -> Option<i128> {
        match (self.int_lo[root as usize], self.int_hi[root as usize]) {
            (Some(lo), Some(hi)) if lo == hi => Some(lo),
            _ => None,
        }
    }

    fn merge_bound(a: Option<i128>, b: Option<i128>, take_max: bool) -> Option<i128> {
        match (a, b) {
            (Some(x), Some(y)) => Some(if take_max { x.max(y) } else { x.min(y) }),
            (x, y) => x.or(y),
        }
    }

    /// Narrow the interval of `root`; flags a conflict when the interval
    /// empties or pins a value a stacked disequality excludes.
    fn narrow(&mut self, root: u32, lo: Option<i128>, hi: Option<i128>) {
        let (old_lo, old_hi) = (self.int_lo[root as usize], self.int_hi[root as usize]);
        let new_lo = Self::merge_bound(old_lo, lo, true);
        let new_hi = Self::merge_bound(old_hi, hi, false);
        if (new_lo, new_hi) == (old_lo, old_hi) {
            return;
        }
        self.undo.push(Undo::IntBound { node: root, old_lo, old_hi });
        self.int_lo[root as usize] = new_lo;
        self.int_hi[root as usize] = new_hi;
        if let (Some(l), Some(h)) = (new_lo, new_hi) {
            if l > h {
                self.conflict();
                return;
            }
        }
        if let Some(val) = self.pinned(root) {
            let hit = self
                .int_ne_consts
                .iter()
                .any(|(n, ne)| *ne == val && self.int_uf.find(*n) == root);
            if hit {
                self.conflict();
            }
        }
    }

    fn int_union(&mut self, x: VarId, y: VarId) {
        let (nx, ny) = (self.int_node(x), self.int_node(y));
        let (ra, rb) = (self.int_uf.find(nx), self.int_uf.find(ny));
        if ra == rb {
            return;
        }
        let (w, l) = self.int_uf.union_roots(ra, rb);
        self.undo.push(Undo::IntUnion {
            winner: w,
            loser: l,
            old_lo: self.int_lo[w as usize],
            old_hi: self.int_hi[w as usize],
        });
        let new_lo = Self::merge_bound(self.int_lo[w as usize], self.int_lo[l as usize], true);
        let new_hi = Self::merge_bound(self.int_hi[w as usize], self.int_hi[l as usize], false);
        self.int_lo[w as usize] = new_lo;
        self.int_hi[w as usize] = new_hi;
        if let (Some(lo), Some(hi)) = (new_lo, new_hi) {
            if lo > hi {
                self.conflict();
                return;
            }
        }
        let pair_hit = self
            .int_ne_pairs
            .iter()
            .any(|(a, b)| self.int_uf.find(*a) == self.int_uf.find(*b));
        if pair_hit {
            self.conflict();
            return;
        }
        if let Some(val) = self.pinned(w) {
            let hit = self
                .int_ne_consts
                .iter()
                .any(|(n, ne)| *ne == val && self.int_uf.find(*n) == w);
            if hit {
                self.conflict();
            }
        }
    }

    /// Assert `e = 0`.
    fn add_int_eq(&mut self, e: &LinExpr) {
        match classify(e) {
            LinClass::Const(k) => {
                if k != 0 {
                    self.conflict();
                }
            }
            LinClass::Single(v, c, k) => {
                // c·v = −k. A value that leaves i128 is skipped: the
                // detector only ever adds pruning.
                match k.checked_rem(c) {
                    Some(0) => {}
                    Some(_) => {
                        // c·v = −k has no integer solution.
                        self.conflict();
                        return;
                    }
                    None => return,
                }
                let Some(val) = k.checked_neg().and_then(|k| k.checked_div(c)) else {
                    return;
                };
                let n = self.int_node(v);
                let r = self.int_uf.find(n);
                self.narrow(r, Some(val), Some(val));
            }
            LinClass::Diff(x, y, k) => {
                if k == 0 {
                    self.int_union(x, y);
                }
            }
            LinClass::Other => {}
        }
    }

    /// Assert `e ≤ 0`.
    fn add_int_ineq(&mut self, e: &LinExpr) {
        match classify(e) {
            LinClass::Const(k) => {
                if k > 0 {
                    self.conflict();
                }
            }
            LinClass::Single(v, c, k) => {
                // c·v ≤ −k: `div_euclid` floors for positive divisors and
                // ceils for negative ones — exactly the rounding each
                // direction needs for integer bounds. A bound that leaves
                // i128 is skipped.
                let Some(bound) = k.checked_neg().and_then(|k| k.checked_div_euclid(c)) else {
                    return;
                };
                let n = self.int_node(v);
                let r = self.int_uf.find(n);
                if c > 0 {
                    self.narrow(r, None, Some(bound));
                } else {
                    self.narrow(r, Some(bound), None);
                }
            }
            LinClass::Diff(x, y, k) => {
                // x − y + k ≤ 0 while x and y are forced equal ⇒ k ≤ 0.
                if k > 0 {
                    if let (Some(nx), Some(ny)) =
                        (self.int_index.get(&x).copied(), self.int_index.get(&y).copied())
                    {
                        if self.int_uf.find(nx) == self.int_uf.find(ny) {
                            self.conflict();
                        }
                    }
                }
            }
            LinClass::Other => {}
        }
    }

    /// Assert `e ≠ 0`.
    fn add_int_ne(&mut self, e: &LinExpr) {
        match classify(e) {
            LinClass::Const(k) => {
                if k == 0 {
                    self.conflict();
                }
            }
            LinClass::Single(v, c, k) => {
                // Trivially true over the integers unless c divides k;
                // skipped when −k/c leaves i128.
                let val = match (k.checked_rem(c), k.checked_neg().and_then(|k| k.checked_div(c))) {
                    (Some(0), Some(val)) => val,
                    _ => return,
                };
                let n = self.int_node(v);
                let r = self.int_uf.find(n);
                if self.pinned(r) == Some(val) {
                    self.conflict();
                }
                self.int_ne_consts.push((n, val));
            }
            LinClass::Diff(x, y, k) => {
                if k != 0 {
                    return;
                }
                let (nx, ny) = (self.int_node(x), self.int_node(y));
                if self.int_uf.find(nx) == self.int_uf.find(ny) {
                    self.conflict();
                }
                self.int_ne_pairs.push((nx, ny));
            }
            LinClass::Other => {}
        }
    }

    fn str_add_var(&mut self) {
        self.str_uf.add();
        self.str_val.push(None);
    }

    /// Re-check pattern and disequality records against a root whose
    /// binding just changed.
    fn str_root_check(&mut self, root: u32) {
        let Some(val) = self.str_val[root as usize].clone() else {
            return;
        };
        let like_hit = self.str_likes.iter().any(|(n, p, pos)| {
            self.str_uf.find(*n) == root && pattern::like_match(&val, p) != *pos
        });
        if like_hit {
            self.conflict();
            return;
        }
        let nec_hit = self
            .str_ne_consts
            .iter()
            .any(|(n, s)| *s == val && self.str_uf.find(*n) == root);
        if nec_hit {
            self.conflict();
            return;
        }
        let nep_hit = self.str_ne_pairs.iter().any(|(a, b)| {
            let (ra, rb) = (self.str_uf.find(*a), self.str_uf.find(*b));
            (ra == root || rb == root)
                && self.str_val[ra as usize].is_some()
                && self.str_val[ra as usize] == self.str_val[rb as usize]
        });
        if nep_hit {
            self.conflict();
        }
    }

    fn str_bind(&mut self, i: usize, val: &str) {
        let r = self.str_uf.find(i as u32);
        match &self.str_val[r as usize] {
            Some(existing) => {
                if existing != val {
                    self.conflict();
                }
            }
            None => {
                self.undo.push(Undo::StrBind { node: r });
                self.str_val[r as usize] = Some(val.to_string());
                self.str_root_check(r);
            }
        }
    }

    fn str_union(&mut self, i: usize, j: usize) {
        let (ra, rb) = (self.str_uf.find(i as u32), self.str_uf.find(j as u32));
        if ra == rb {
            return;
        }
        let (w, l) = self.str_uf.union_roots(ra, rb);
        let old_val = self.str_val[w as usize].clone();
        self.undo.push(Undo::StrUnion { winner: w, loser: l, old_val: old_val.clone() });
        match (&old_val, &self.str_val[l as usize]) {
            (Some(a), Some(b)) if a != b => {
                self.conflict();
                return;
            }
            (None, Some(_)) => self.str_val[w as usize] = self.str_val[l as usize].clone(),
            _ => {}
        }
        let nep_hit = self
            .str_ne_pairs
            .iter()
            .any(|(a, b)| self.str_uf.find(*a) == self.str_uf.find(*b));
        if nep_hit {
            self.conflict();
            return;
        }
        self.str_root_check(w);
    }

    fn add_str(&mut self, c: &StrConstraint) {
        match c {
            StrConstraint::Eq(a, b) => match (a, b) {
                (StrOperand::Var(i), StrOperand::Var(j)) => self.str_union(*i, *j),
                (StrOperand::Var(i), StrOperand::Const(s))
                | (StrOperand::Const(s), StrOperand::Var(i)) => self.str_bind(*i, s),
                (StrOperand::Const(x), StrOperand::Const(y)) => {
                    if x != y {
                        self.conflict();
                    }
                }
            },
            StrConstraint::Ne(a, b) => match (a, b) {
                (StrOperand::Var(i), StrOperand::Var(j)) => {
                    let (ra, rb) = (self.str_uf.find(*i as u32), self.str_uf.find(*j as u32));
                    if ra == rb
                        || (self.str_val[ra as usize].is_some()
                            && self.str_val[ra as usize] == self.str_val[rb as usize])
                    {
                        self.conflict();
                    }
                    self.str_ne_pairs.push((*i as u32, *j as u32));
                }
                (StrOperand::Var(i), StrOperand::Const(s))
                | (StrOperand::Const(s), StrOperand::Var(i)) => {
                    let r = self.str_uf.find(*i as u32);
                    if self.str_val[r as usize].as_deref() == Some(s.as_str()) {
                        self.conflict();
                    }
                    self.str_ne_consts.push((*i as u32, s.clone()));
                }
                (StrOperand::Const(x), StrOperand::Const(y)) => {
                    if x == y {
                        self.conflict();
                    }
                }
            },
            StrConstraint::Like { operand, pattern: p, positive } => match operand {
                StrOperand::Var(i) => {
                    let r = self.str_uf.find(*i as u32);
                    if let Some(val) = &self.str_val[r as usize] {
                        if pattern::like_match(val, p) != *positive {
                            self.conflict();
                        }
                    }
                    self.str_likes.push((*i as u32, p.clone(), *positive));
                }
                StrOperand::Const(s) => {
                    if pattern::like_match(s, p) != *positive {
                        self.conflict();
                    }
                }
            },
        }
    }

    fn unwind(&mut self, to: usize) {
        while self.undo.len() > to {
            match self.undo.pop().unwrap() {
                Undo::IntUnion { winner, loser, old_lo, old_hi } => {
                    self.int_uf.undo_union(winner, loser);
                    self.int_lo[winner as usize] = old_lo;
                    self.int_hi[winner as usize] = old_hi;
                }
                Undo::IntBound { node, old_lo, old_hi } => {
                    self.int_lo[node as usize] = old_lo;
                    self.int_hi[node as usize] = old_hi;
                }
                Undo::StrUnion { winner, loser, old_val } => {
                    self.str_uf.undo_union(winner, loser);
                    self.str_val[winner as usize] = old_val;
                }
                Undo::StrBind { node } => {
                    self.str_val[node as usize] = None;
                }
            }
        }
    }
}

/// Snapshot taken at each push so pop can restore every length-indexed
/// structure and both conflict counters.
#[derive(Debug)]
struct Frame {
    strs_len: usize,
    str_vars_len: usize,
    ineqs_len: usize,
    eqs_len: usize,
    nes_len: usize,
    opaque_ck: usize,
    pool_len: usize,
    undo_len: usize,
    int_nodes_len: usize,
    int_ne_pairs_len: usize,
    int_ne_consts_len: usize,
    str_ne_pairs_len: usize,
    str_ne_consts_len: usize,
    str_likes_len: usize,
    conflicts: u32,
    const_conflicts: u32,
}

/// Push/pop assumption stack over the conjunction theory.
#[derive(Debug, Default)]
pub struct TheoryState {
    tr: Translation,
    lits: Vec<Lit>,
    frames: Vec<Frame>,
    quick: Quick,
    /// Literals currently on the stack that the translation itself
    /// refuted (false constant-constant string comparisons) — the
    /// incremental counterpart of [`crate::conj::check_conjunction`]'s
    /// early `Unsat` return.
    const_conflicts: u32,
    str_memo: Memo<StrResult>,
    int_memo: Memo<LiaResult>,
}

impl TheoryState {
    pub fn new() -> Self {
        TheoryState::default()
    }

    /// Number of literals currently pushed.
    pub fn depth(&self) -> usize {
        self.lits.len()
    }

    /// Literals currently pushed, oldest first.
    pub fn lits(&self) -> &[Lit] {
        &self.lits
    }

    /// Whether the stacked prefix is already known unsatisfiable.
    pub fn in_conflict(&self) -> bool {
        self.const_conflicts > 0 || self.quick.conflicts > 0
    }

    /// Push one literal: translate it incrementally and run the quick
    /// conflict detector. Returns `true` when the stack is now known
    /// unsatisfiable (callers prune the branch and pop immediately).
    pub fn push(&mut self, atom: Atom, polarity: bool, pool: &mut VarPool) -> bool {
        let frame = Frame {
            strs_len: self.tr.str_constraints.len(),
            str_vars_len: self.tr.str_var_order.len(),
            ineqs_len: self.tr.ineqs.len(),
            eqs_len: self.tr.eqs.len(),
            nes_len: self.tr.nes.len(),
            opaque_ck: self.tr.opaque.checkpoint(),
            pool_len: pool.len(),
            undo_len: self.quick.undo.len(),
            int_nodes_len: self.quick.int_order.len(),
            int_ne_pairs_len: self.quick.int_ne_pairs.len(),
            int_ne_consts_len: self.quick.int_ne_consts.len(),
            str_ne_pairs_len: self.quick.str_ne_pairs.len(),
            str_ne_consts_len: self.quick.str_ne_consts.len(),
            str_likes_len: self.quick.str_likes.len(),
            conflicts: self.quick.conflicts,
            const_conflicts: self.const_conflicts,
        };
        if self.tr.push_lit(&atom, polarity, pool) {
            self.const_conflicts += 1;
        }
        while self.quick.str_uf.len() < self.tr.str_var_order.len() {
            self.quick.str_add_var();
        }
        for c in &self.tr.str_constraints[frame.strs_len..] {
            self.quick.add_str(c);
        }
        for e in &self.tr.eqs[frame.eqs_len..] {
            self.quick.add_int_eq(e);
        }
        for e in &self.tr.ineqs[frame.ineqs_len..] {
            self.quick.add_int_ineq(e);
        }
        for e in &self.tr.nes[frame.nes_len..] {
            self.quick.add_int_ne(e);
        }
        self.lits.push((atom, polarity));
        self.frames.push(frame);
        self.in_conflict()
    }

    /// Pop the most recent literal, unwinding the quick detector, the
    /// translation, opaque interning and pool allocation to the exact
    /// pre-push state.
    pub fn pop(&mut self, pool: &mut VarPool) {
        let frame = self.frames.pop().expect("pop without matching push");
        self.lits.pop();
        self.quick.unwind(frame.undo_len);
        for v in self.quick.int_order.drain(frame.int_nodes_len..) {
            self.quick.int_index.remove(&v);
        }
        self.quick.int_uf.truncate(frame.int_nodes_len);
        self.quick.int_lo.truncate(frame.int_nodes_len);
        self.quick.int_hi.truncate(frame.int_nodes_len);
        self.quick.int_ne_pairs.truncate(frame.int_ne_pairs_len);
        self.quick.int_ne_consts.truncate(frame.int_ne_consts_len);
        self.quick.str_uf.truncate(frame.str_vars_len);
        self.quick.str_val.truncate(frame.str_vars_len);
        self.quick.str_ne_pairs.truncate(frame.str_ne_pairs_len);
        self.quick.str_ne_consts.truncate(frame.str_ne_consts_len);
        self.quick.str_likes.truncate(frame.str_likes_len);
        self.quick.conflicts = frame.conflicts;
        self.tr.str_constraints.truncate(frame.strs_len);
        for v in self.tr.str_var_order.drain(frame.str_vars_len..) {
            self.tr.str_var_index.remove(&v);
        }
        self.tr.ineqs.truncate(frame.ineqs_len);
        self.tr.eqs.truncate(frame.eqs_len);
        self.tr.nes.truncate(frame.nes_len);
        self.tr.opaque.rollback(frame.opaque_ck);
        pool.truncate(frame.pool_len);
        self.const_conflicts = frame.const_conflicts;
    }

    /// Decide the current stack exactly, mirroring what
    /// [`crate::conj::check_conjunction`] returns for the same literal
    /// sequence; each decider's answer comes from the memo when this
    /// state has already decided the same input.
    pub fn check_full(&mut self) -> (SatResult, Option<Model>) {
        if self.const_conflicts > 0 {
            return (SatResult::Unsat, None);
        }
        let tr = &self.tr;
        let strs = self.str_memo.get_or_decide(
            |key| strings_key(tr, key),
            || strings::check(tr.str_var_index.len(), &tr.str_constraints),
        );
        if *strs == StrResult::Unsat {
            return (SatResult::Unsat, None);
        }
        let ints = self.int_memo.get_or_decide(
            |key| ints_key(tr, key),
            || decide_ints(&tr.ineqs, &tr.eqs, &tr.nes),
        );
        tr.assemble(&self.lits, strs, ints)
    }

    /// Decider runs [`TheoryState::check_full`] answered from the memo
    /// (a full check counts up to two: its string and its integer
    /// decision).
    pub fn memo_hits(&self) -> u64 {
        self.str_memo.hits + self.int_memo.hits
    }

    /// Answers the memo holds: `(string, integer)`.
    pub fn memo_len(&self) -> (usize, usize) {
        (self.str_memo.len(), self.int_memo.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conj::check_conjunction;
    use crate::formula::Rel;
    use crate::term::{Sort, Term};

    fn int_pool(n: usize) -> (VarPool, Vec<VarId>) {
        let mut p = VarPool::new();
        let vars = (0..n).map(|_| p.fresh(Sort::Int)).collect();
        (p, vars)
    }

    fn cmp(l: Term, rel: Rel, r: Term) -> Atom {
        Atom::Cmp(l, rel, r).canonical().0
    }

    #[test]
    fn push_pop_restores_translation_and_pool() {
        let (mut pool, v) = int_pool(2);
        let base_len = pool.len();
        let mut th = TheoryState::new();
        // Non-linear literal allocates an opaque pool var.
        let nl = cmp(Term::mul(Term::var(v[0]), Term::var(v[1])), Rel::Le, Term::IntConst(4));
        assert!(!th.push(nl, true, &mut pool));
        assert!(pool.len() > base_len);
        th.pop(&mut pool);
        assert_eq!(pool.len(), base_len);
        assert_eq!(th.depth(), 0);
        let (r, _) = th.check_full();
        assert_eq!(r, SatResult::Sat); // empty conjunction
    }

    #[test]
    fn quick_detects_bound_conflict() {
        let (mut pool, v) = int_pool(1);
        let mut th = TheoryState::new();
        assert!(!th.push(cmp(Term::var(v[0]), Rel::Le, Term::IntConst(3)), true, &mut pool));
        assert!(th.push(cmp(Term::var(v[0]), Rel::Ge, Term::IntConst(7)), true, &mut pool));
        // The full check agrees.
        assert_eq!(th.check_full().0, SatResult::Unsat);
        th.pop(&mut pool);
        assert!(!th.in_conflict());
        assert_eq!(th.check_full().0, SatResult::Sat);
    }

    #[test]
    fn quick_detects_equality_chain_conflict() {
        let (mut pool, v) = int_pool(3);
        let mut th = TheoryState::new();
        let eq = |a: VarId, b: VarId| cmp(Term::var(a), Rel::Eq, Term::var(b));
        assert!(!th.push(eq(v[0], v[1]), true, &mut pool));
        assert!(!th.push(eq(v[1], v[2]), true, &mut pool));
        // x0 = x2 already implied; x0 ≠ x2 conflicts.
        assert!(th.push(eq(v[0], v[2]), false, &mut pool));
        assert_eq!(th.check_full().0, SatResult::Unsat);
    }

    #[test]
    fn quick_detects_string_conflicts() {
        let mut pool = VarPool::new();
        let s = pool.fresh(Sort::Str);
        let t = pool.fresh(Sort::Str);
        let mut th = TheoryState::new();
        let eqc = |v: VarId, c: &str| {
            cmp(Term::var(v), Rel::Eq, Term::StrConst(c.to_string()))
        };
        assert!(!th.push(eqc(s, "Amy"), true, &mut pool));
        assert!(!th.push(cmp(Term::var(s), Rel::Eq, Term::var(t)), true, &mut pool));
        assert!(th.push(eqc(t, "Bob"), true, &mut pool));
        assert_eq!(th.check_full().0, SatResult::Unsat);
        th.pop(&mut pool);
        assert!(!th.in_conflict());
        // LIKE against the bound constant.
        assert!(th.push(Atom::Like(Term::var(t), "B%".to_string()), true, &mut pool));
        th.pop(&mut pool);
        assert!(!th.push(Atom::Like(Term::var(t), "A%".to_string()), true, &mut pool));
        assert_eq!(th.check_full().0, SatResult::Sat);
    }

    #[test]
    fn check_full_matches_from_scratch_on_a_mixed_stack() {
        let mut pool = VarPool::new();
        let x = pool.fresh(Sort::Int);
        let y = pool.fresh(Sort::Int);
        let s = pool.fresh(Sort::Str);
        let lits: Vec<Lit> = vec![
            (cmp(Term::var(x), Rel::Le, Term::var(y)), true),
            (cmp(Term::var(x), Rel::Eq, Term::var(y)), false),
            (cmp(Term::var(s), Rel::Eq, Term::StrConst("Eve".into())), true),
            (Atom::Like(Term::var(s), "E%".into()), true),
            (cmp(Term::mul(Term::var(x), Term::var(y)), Rel::Ge, Term::IntConst(0)), true),
        ];
        for take in 0..=lits.len() {
            let mut scratch_pool = pool.clone();
            let expect = check_conjunction(&lits[..take], &mut scratch_pool);
            let mut inc_pool = pool.clone();
            let mut th = TheoryState::new();
            for (a, p) in &lits[..take] {
                th.push(a.clone(), *p, &mut inc_pool);
            }
            let got = th.check_full();
            assert_eq!(got.0, expect.0, "verdict diverged at prefix {take}");
            assert_eq!(got.1, expect.1, "model diverged at prefix {take}");
        }
    }
}
