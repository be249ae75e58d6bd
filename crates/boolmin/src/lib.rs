//! # qrhint-boolmin
//!
//! Two-level Boolean minimization with don't-cares — the role ESPRESSO
//! (via PyEDA) plays in the paper's `MinBoolExp` primitive (§5.2).
//!
//! Given a truth table over `n` variables whose rows are labelled
//! `0` / `1` / `don't-care`, [`minimize`] returns a minimum disjunctive
//! normal form:
//!
//! 1. **Prime implicant generation** — [`prime_implicants`]: the primes
//!    of on ∪ dc that cover an on-row (don't-cares may be covered but
//!    never need to be), grown from each on-row against the off-rows as
//!    ESPRESSO's EXPAND grows a cube, but to every maximal cube. A cube
//!    through on-row `m` is its dash mask `d`; the masks reaching an
//!    off-row `z` are the supersets of `z ^ m`, one bitset over the `2^n`
//!    masks closed upward word-wise, and the primes through `m` are the
//!    masks outside it whose every one-dash widening is inside. The work
//!    grows with the on-rows, not with `4^n`;
//! 2. **Cover selection**: essential primes first, then an exact
//!    branch-and-bound set cover (optimal for the sizes Qr-Hint produces),
//!    falling back to a greedy cover under a node budget — exactly
//!    ESPRESSO's "heuristic beyond small sizes" behaviour.
//!
//! The cover is optimized lexicographically by (number of terms, total
//! literal count), which is the natural notion of "smallest formula" for
//! the repair cost model of Definition 3.

#![forbid(unsafe_code)]

pub mod cover;
pub mod qm;
pub mod table;

pub use cover::select_cover;
pub use qm::{prime_implicants, Cube};
pub use table::{Out, TruthTable};

/// A minimized sum-of-products: a disjunction of cubes (conjunctions of
/// literals). An empty term list denotes FALSE; a single all-dash cube
/// denotes TRUE.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dnf {
    pub nvars: usize,
    pub terms: Vec<Cube>,
}

impl Dnf {
    /// FALSE.
    pub fn zero(nvars: usize) -> Dnf {
        Dnf { nvars, terms: vec![] }
    }

    /// TRUE.
    pub fn one(nvars: usize) -> Dnf {
        Dnf { nvars, terms: vec![Cube { dashes: mask(nvars), values: 0 }] }
    }

    /// Total number of literals across all terms.
    pub fn literal_count(&self) -> usize {
        self.terms.iter().map(|c| c.literal_count(self.nvars)).sum()
    }

    /// Evaluate the DNF on a row (bit i of `row` = value of variable i).
    pub fn eval(&self, row: u32) -> bool {
        self.terms.iter().any(|c| c.covers(row))
    }

    /// Is this the constant TRUE function?
    pub fn is_true(&self) -> bool {
        self.terms.iter().any(|c| c.dashes == mask(self.nvars))
    }

    /// Is this the constant FALSE function?
    pub fn is_false(&self) -> bool {
        self.terms.is_empty()
    }
}

pub(crate) fn mask(nvars: usize) -> u32 {
    if nvars >= 32 {
        u32::MAX
    } else {
        (1u32 << nvars) - 1
    }
}

/// Minimize a truth table with don't-cares into a minimum DNF.
///
/// ```
/// use qrhint_boolmin::{minimize, Out, TruthTable};
/// // f(a, b) = a XOR b has no smaller DNF than a'b + ab'.
/// let t = TruthTable::from_fn(2, |row| {
///     if (row.count_ones() % 2) == 1 { Out::One } else { Out::Zero }
/// });
/// let dnf = minimize(&t);
/// assert_eq!(dnf.terms.len(), 2);
/// assert_eq!(dnf.literal_count(), 4);
/// ```
pub fn minimize(table: &TruthTable) -> Dnf {
    let nvars = table.nvars();
    let on: Vec<u32> = table.rows_with(Out::One).collect();
    if on.is_empty() {
        return Dnf::zero(nvars);
    }
    let dc: Vec<u32> = table.rows_with(Out::DontCare).collect();
    if on.len() + dc.len() == (1usize << nvars) {
        return Dnf::one(nvars);
    }
    let primes = prime_implicants(nvars, &on, &dc);
    let chosen = select_cover(nvars, &primes, &on);
    Dnf { nvars, terms: chosen }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exhaustive_check(t: &TruthTable, dnf: &Dnf) {
        for row in 0..(1u32 << t.nvars()) {
            match t.get(row) {
                Out::One => assert!(dnf.eval(row), "row {row:b} must be covered"),
                Out::Zero => assert!(!dnf.eval(row), "row {row:b} must not be covered"),
                Out::DontCare => {}
            }
        }
    }

    #[test]
    fn constants() {
        let all_one = TruthTable::from_fn(3, |_| Out::One);
        assert!(minimize(&all_one).is_true());
        let all_zero = TruthTable::from_fn(3, |_| Out::Zero);
        assert!(minimize(&all_zero).is_false());
        // All don't-care minimizes to FALSE (nothing must be covered).
        let all_dc = TruthTable::from_fn(3, |_| Out::DontCare);
        assert!(minimize(&all_dc).is_false());
        // Mixed one/dc minimizes to TRUE.
        let mixed = TruthTable::from_fn(2, |r| if r == 0 { Out::One } else { Out::DontCare });
        assert!(minimize(&mixed).is_true());
    }

    #[test]
    fn single_variable_projection() {
        // f(a,b,c) = b  (variable index 1)
        let t = TruthTable::from_fn(3, |r| if r & 2 != 0 { Out::One } else { Out::Zero });
        let dnf = minimize(&t);
        assert_eq!(dnf.terms.len(), 1);
        assert_eq!(dnf.literal_count(), 1);
        exhaustive_check(&t, &dnf);
    }

    #[test]
    fn dont_cares_enable_simplification() {
        // f = 1 on {11}, 0 on {00}, dc on {01, 10}: minimal DNF is a single
        // one-literal term (either a or b).
        let t = TruthTable::from_fn(2, |r| match r {
            0b11 => Out::One,
            0b00 => Out::Zero,
            _ => Out::DontCare,
        });
        let dnf = minimize(&t);
        assert_eq!(dnf.terms.len(), 1);
        assert_eq!(dnf.literal_count(), 1);
        exhaustive_check(&t, &dnf);
    }

    #[test]
    fn xor_is_irreducible() {
        let t = TruthTable::from_fn(2, |r| {
            if r.count_ones() % 2 == 1 {
                Out::One
            } else {
                Out::Zero
            }
        });
        let dnf = minimize(&t);
        assert_eq!(dnf.terms.len(), 2);
        assert_eq!(dnf.literal_count(), 4);
        exhaustive_check(&t, &dnf);
    }

    #[test]
    fn classic_qm_example() {
        // Standard textbook example: minterms {4,8,10,11,12,15},
        // dc {9,14} over 4 vars → 2-3 terms depending on convention.
        let on = [4u32, 8, 10, 11, 12, 15];
        let dc = [9u32, 14];
        let t = TruthTable::from_fn(4, |r| {
            if on.contains(&r) {
                Out::One
            } else if dc.contains(&r) {
                Out::DontCare
            } else {
                Out::Zero
            }
        });
        let dnf = minimize(&t);
        exhaustive_check(&t, &dnf);
        // Known minimum: 3 terms (e.g. BC' + AB'... in textbook form).
        assert_eq!(dnf.terms.len(), 3, "{:?}", dnf.terms);
    }

    #[test]
    fn majority_function() {
        // maj(a,b,c): minimal DNF = ab + ac + bc (3 terms, 6 literals).
        let t = TruthTable::from_fn(3, |r| {
            if r.count_ones() >= 2 {
                Out::One
            } else {
                Out::Zero
            }
        });
        let dnf = minimize(&t);
        assert_eq!(dnf.terms.len(), 3);
        assert_eq!(dnf.literal_count(), 6);
        exhaustive_check(&t, &dnf);
    }

    #[test]
    fn randomized_tables_roundtrip() {
        // Deterministic pseudo-random tables; check semantic equivalence.
        let mut seed = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for nvars in 1..=5 {
            for _ in 0..20 {
                let t = TruthTable::from_fn(nvars, |_| match next() % 3 {
                    0 => Out::Zero,
                    1 => Out::One,
                    _ => Out::DontCare,
                });
                let dnf = minimize(&t);
                exhaustive_check(&t, &dnf);
            }
        }
    }

    #[test]
    fn larger_table_stays_correct() {
        // 8 variables, structured function with don't-cares.
        let t = TruthTable::from_fn(8, |r| {
            if r % 7 == 0 {
                Out::One
            } else if r % 7 == 1 {
                Out::DontCare
            } else {
                Out::Zero
            }
        });
        let dnf = minimize(&t);
        exhaustive_check(&t, &dnf);
    }
}
