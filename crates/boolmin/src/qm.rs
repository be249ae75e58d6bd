//! Quine–McCluskey prime implicant generation, bit-parallel.
//!
//! The cubes sharing one dash pattern `d` are held as a single bitset
//! over the `2^n` values: bit `v` is set when the cube
//! `{dashes: d, values: v}` is an implicant of on ∪ dc (such a `v` has the
//! bits of `d` clear). Merging on a variable `i ∉ d` pairs every value `v`
//! whose bit `i` is clear with `v | 1 << i` in one word-wise step,
//! `b & (b >> 2^i)`: a shift inside each word for `i < 6` and a whole-word
//! offset for `i ≥ 6`. A cube is prime when no merged cube one level up
//! covers it.

use crate::table::MAX_VARS;

/// A cube (product term): `dashes` marks positions that are don't-care in
/// the term; `values` fixes the cared positions (bits under `!dashes`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Cube {
    pub dashes: u32,
    pub values: u32,
}

impl Cube {
    /// Whether the cube covers a row.
    pub fn covers(&self, row: u32) -> bool {
        (row & !self.dashes) == (self.values & !self.dashes)
    }

    /// Number of literals (cared positions) given the variable count.
    pub fn literal_count(&self, nvars: usize) -> usize {
        nvars - (self.dashes & crate::mask(nvars)).count_ones() as usize
    }

    /// Literals as (var index, polarity) pairs.
    pub fn literals(&self, nvars: usize) -> Vec<(usize, bool)> {
        (0..nvars)
            .filter(|i| self.dashes & (1 << i) == 0)
            .map(|i| (i, self.values & (1 << i) != 0))
            .collect()
    }
}

/// For `i < 6`: the bit positions of a word whose index has bit `i` clear.
const BIT_CLEAR: [u64; 6] = [
    0x5555_5555_5555_5555,
    0x3333_3333_3333_3333,
    0x0F0F_0F0F_0F0F_0F0F,
    0x00FF_00FF_00FF_00FF,
    0x0000_FFFF_0000_FFFF,
    0x0000_0000_FFFF_FFFF,
];

/// The cubes of `b`'s pattern merged on variable `i`: bit `v` (bit `i`
/// of `v` clear) is set when both `v` and `v | 1 << i` are set in `b`.
fn merge(b: &[u64], i: usize) -> Vec<u64> {
    if i < 6 {
        return b.iter().map(|&w| w & (w >> (1 << i)) & BIT_CLEAR[i]).collect();
    }
    let step = 1 << (i - 6);
    let mut out = vec![0; b.len()];
    for j in (0..b.len()).filter(|j| j & step == 0) {
        out[j] = b[j] & b[j + step];
    }
    out
}

/// Mark in `covered` both halves of every cube of `merged`, a pattern
/// merged on variable `i`.
fn cover_halves(covered: &mut [u64], merged: &[u64], i: usize) {
    if i < 6 {
        for (c, &w) in covered.iter_mut().zip(merged) {
            *c |= w | (w << (1 << i));
        }
        return;
    }
    let step = 1 << (i - 6);
    for j in (0..merged.len()).filter(|j| j & step == 0) {
        covered[j] |= merged[j];
        covered[j + step] |= merged[j];
    }
}

/// Compute all prime implicants of the function whose on-set is `on` and
/// don't-care set is `dc` (don't-cares join the merging but are never
/// required to be covered). Primes covering no on-row are dropped; the
/// rest come sorted.
pub fn prime_implicants(nvars: usize, on: &[u32], dc: &[u32]) -> Vec<Cube> {
    assert!(nvars <= MAX_VARS, "too many variables: {nvars}");
    let words = (1usize << nvars).div_ceil(64);
    let mut minterms = vec![0u64; words];
    for &m in on.iter().chain(dc) {
        minterms[m as usize / 64] |= 1 << (m % 64);
    }
    // One level: every non-empty dash pattern with the same number of
    // dashes, in ascending pattern order.
    let mut level: Vec<(u32, Vec<u64>)> = vec![(0, minterms)];
    let mut primes: Vec<Cube> = Vec::new();
    while !level.is_empty() {
        // Each pattern one level up is built once, from the pattern
        // without its highest dash; if that one is empty, so is it.
        let mut next: Vec<(u32, Vec<u64>)> = Vec::new();
        for (d, b) in &level {
            let above_highest = (u32::BITS - d.leading_zeros()) as usize;
            for i in above_highest..nvars {
                let merged = merge(b, i);
                if merged.iter().any(|&w| w != 0) {
                    next.push((d | 1 << i, merged));
                }
            }
        }
        next.sort_unstable_by_key(|(d, _)| *d);
        for (d, b) in &level {
            let mut covered = vec![0u64; words];
            for i in (0..nvars).filter(|i| d & (1 << i) == 0) {
                if let Ok(k) = next.binary_search_by_key(&(d | 1 << i), |(up, _)| *up) {
                    cover_halves(&mut covered, &next[k].1, i);
                }
            }
            for (j, (&w, &c)) in b.iter().zip(&covered).enumerate() {
                let mut rest = w & !c;
                while rest != 0 {
                    let v = j as u32 * 64 + rest.trailing_zeros();
                    primes.push(Cube { dashes: *d, values: v });
                    rest &= rest - 1;
                }
            }
        }
        level = next;
    }
    primes.sort();
    // Drop primes that cover no required (on-set) row; they only covered
    // don't-cares and are useless for the cover.
    primes.retain(|p| on.iter().any(|&m| p.covers(m)));
    primes
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cube_cover_and_merge() {
        let a = Cube { dashes: 0, values: 0b101 };
        assert!(a.covers(0b101));
        assert!(!a.covers(0b100));
        let primes = prime_implicants(3, &[0b101, 0b100], &[]);
        let m = Cube { dashes: 0b001, values: 0b100 };
        assert_eq!(primes, vec![m]);
        assert!(m.covers(0b101) && m.covers(0b100));
        assert!(!m.covers(0b001));
        // Non-adjacent minterms don't merge.
        let primes = prime_implicants(2, &[0b00, 0b11], &[]);
        assert_eq!(primes, [0b00, 0b11].map(|values| Cube { dashes: 0, values }));
    }

    #[test]
    fn merges_across_words() {
        // Variables 6 and 7 index whole words of the 256-bit cube sets.
        let primes = prime_implicants(8, &[0b0000_0001, 0b1100_0001], &[0b0100_0001, 0b1000_0001]);
        assert_eq!(primes, vec![Cube { dashes: 0b1100_0000, values: 0b0000_0001 }]);
    }

    #[test]
    fn literals_extraction() {
        let c = Cube { dashes: 0b010, values: 0b101 };
        assert_eq!(c.literal_count(3), 2);
        assert_eq!(c.literals(3), vec![(0, true), (2, true)]);
    }

    #[test]
    fn full_cube_from_complete_on_set() {
        // on-set = all rows of 2 vars → single prime with all dashes.
        let primes = prime_implicants(2, &[0, 1, 2, 3], &[]);
        assert_eq!(primes.len(), 1);
        assert_eq!(primes[0].dashes, 0b11);
    }

    #[test]
    fn xor_primes_are_minterms() {
        let primes = prime_implicants(2, &[1, 2], &[]);
        assert_eq!(primes.len(), 2);
        assert!(primes.iter().all(|p| p.dashes == 0));
    }

    #[test]
    fn dc_participates_but_is_not_required() {
        // on = {3}, dc = {1, 2}: primes should include merged cubes using
        // the dc rows; useless dc-only primes are dropped.
        let primes = prime_implicants(2, &[3], &[1, 2]);
        assert!(primes.iter().all(|p| p.covers(3)));
        assert!(primes.iter().any(|p| p.literal_count(2) == 1));
    }

    #[test]
    fn textbook_primes() {
        // f = Σm(0,1,2,5,6,7) over 3 vars: primes are known to be
        // {a'b', b'c, a'c', bc, ab, ac'} (6 primes).
        let primes = prime_implicants(3, &[0, 1, 2, 5, 6, 7], &[]);
        assert_eq!(primes.len(), 6);
        for p in &primes {
            assert_eq!(p.literal_count(3), 2);
        }
    }
}
