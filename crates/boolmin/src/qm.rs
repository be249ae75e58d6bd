//! Prime implicant generation, grown from each on-row against the
//! off-rows (ESPRESSO's EXPAND, run to every maximal cube).
//!
//! A cube through an on-row `m` is fixed by its dash mask `d`: it is
//! `{dashes: d, values: m & !d}`, and it contains an off-row `z` exactly
//! when `z ^ m` lies within `d`. So the masks whose cubes hit the off-set
//! are the supersets of the masks `z ^ m`: one bitset over the `2^n`
//! masks, seeded with bit `z ^ m` per off-row and closed upward one
//! variable `i` at a time (a shift inside each word for `i < 6`, a
//! whole-word offset for `i ≥ 6`). The primes through `m` are the masks
//! outside that set whose every one-dash widening is in it. Each on-row
//! costs one pass over the off-rows and `O(n · 2^n / 64)` words, so a
//! table with few cared rows pays for few.

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

/// Close the mask set `b` upward on variable `i`: every mask with bit `i`
/// clear passes its bit on to the mask with bit `i` set.
fn close_up(b: &mut [u64], i: usize) {
    if i < 6 {
        for w in b.iter_mut() {
            *w |= (*w & BIT_CLEAR[i]) << (1 << i);
        }
        return;
    }
    let step = 1 << (i - 6);
    for j in (0..b.len()).filter(|j| j & step == 0) {
        b[j + step] |= b[j];
    }
}

/// Keep in `keep` only the masks that have bit `i` set or whose widening
/// by bit `i` is in `b`.
fn keep_widened(keep: &mut [u64], b: &[u64], i: usize) {
    if i < 6 {
        for (k, &w) in keep.iter_mut().zip(b) {
            *k &= (w >> (1 << i)) | !BIT_CLEAR[i];
        }
        return;
    }
    let step = 1 << (i - 6);
    for j in (0..keep.len()).filter(|j| j & step == 0) {
        keep[j] &= b[j + step];
    }
}

/// Compute all prime implicants of the function whose on-set is `on` and
/// don't-care set is `dc` (don't-cares may be covered but never need to
/// be). Only primes covering an on-row are returned, sorted.
pub fn prime_implicants(nvars: usize, on: &[u32], dc: &[u32]) -> Vec<Cube> {
    assert!(nvars <= MAX_VARS, "too many variables: {nvars}");
    let rows = 1usize << nvars;
    let words = rows.div_ceil(64);
    let mut cared = vec![0u64; words];
    for &r in on.iter().chain(dc) {
        cared[r as usize / 64] |= 1 << (r % 64);
    }
    let off: Vec<u32> =
        (0..rows as u32).filter(|&z| cared[z as usize / 64] >> (z % 64) & 1 == 0).collect();
    // A table of fewer than 64 rows has its masks in the low bits of one
    // word.
    let valid = if rows < 64 { (1 << rows) - 1 } else { !0 };
    let mut blocked = vec![0u64; words];
    let mut primes: Vec<Cube> = Vec::new();
    for &m in on {
        blocked.fill(0);
        for &z in &off {
            let d = (z ^ m) as usize;
            blocked[d / 64] |= 1 << (d % 64);
        }
        (0..nvars).for_each(|i| close_up(&mut blocked, i));
        let mut prime: Vec<u64> = blocked.iter().map(|&w| !w & valid).collect();
        (0..nvars).for_each(|i| keep_widened(&mut prime, &blocked, i));
        for (j, &w) in prime.iter().enumerate() {
            let mut rest = w;
            while rest != 0 {
                let d = j as u32 * 64 + rest.trailing_zeros();
                primes.push(Cube { dashes: d, values: m & !d });
                rest &= rest - 1;
            }
        }
    }
    primes.sort_unstable();
    primes.dedup();
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
        // Variables 6 and 7 index whole words of the 256-bit mask sets.
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
