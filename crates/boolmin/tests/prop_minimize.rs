//! Property-based tests for the Quine–McCluskey minimizer: semantic
//! correctness on arbitrary tables with don't-cares, exact minimality
//! (term count) against brute-force search on small instances, and the
//! exact prime set against a brute-force enumeration of all `3^n` cubes.
//! The minimizer merges cubes bit-parallel (each dash pattern's cubes are
//! a bitset over the `2^n` values, merged on a variable by a word-wise
//! `b & (b >> 2^i)`), so the prime-set reference checks that procedure
//! on uniform, mostly-don't-care and mostly-off tables.

use proptest::prelude::*;
use qrhint_boolmin::{minimize, prime_implicants, Cube, Dnf, Out, TruthTable};

/// A table whose cells are `Zero`, `One` and `DontCare` in the ratio
/// `zero : one : dc`.
fn weighted_table(nvars: usize, zero: u8, one: u8, dc: u8) -> impl Strategy<Value = TruthTable> {
    prop::collection::vec(0..zero + one + dc, 1 << nvars).prop_map(move |cells| {
        TruthTable::from_fn(nvars, |row| match cells[row as usize] {
            c if c < zero => Out::Zero,
            c if c < zero + one => Out::One,
            _ => Out::DontCare,
        })
    })
}

fn arb_table(nvars: usize) -> impl Strategy<Value = TruthTable> {
    weighted_table(nvars, 1, 1, 1)
}

/// A few on-rows and off-rows among don't-cares: the shape of a MinFix
/// table whose rows the solver mostly found infeasible.
fn mostly_dc_table(nvars: usize) -> impl Strategy<Value = TruthTable> {
    weighted_table(nvars, 1, 1, 14)
}

fn mostly_off_table(nvars: usize) -> impl Strategy<Value = TruthTable> {
    weighted_table(nvars, 14, 1, 1)
}

/// Every cube over `nvars` variables: per variable 0, 1 or dash.
fn all_cubes(nvars: usize) -> Vec<Cube> {
    (0..3usize.pow(nvars as u32))
        .map(|code| {
            let (mut c, mut dashes, mut values) = (code, 0u32, 0u32);
            for i in 0..nvars {
                match c % 3 {
                    0 => {}
                    1 => values |= 1 << i,
                    _ => dashes |= 1 << i,
                }
                c /= 3;
            }
            Cube { dashes, values }
        })
        .collect()
}

/// The primes `prime_implicants` must return, by brute force: the
/// implicants of on ∪ dc that no one-bit widening extends and that cover
/// an on-row, sorted.
fn reference_primes(t: &TruthTable) -> Vec<Cube> {
    let nvars = t.nvars();
    let implicant = |c: &Cube| (0..1u32 << nvars).all(|r| !c.covers(r) || t.get(r) != Out::Zero);
    let mut primes: Vec<Cube> = all_cubes(nvars)
        .into_iter()
        .filter(|c| implicant(c))
        .filter(|c| {
            (0..nvars).filter(|i| c.dashes & (1 << i) == 0).all(|i| {
                let wider = Cube { dashes: c.dashes | 1 << i, values: c.values & !(1 << i) };
                !implicant(&wider)
            })
        })
        .filter(|c| t.rows_with(Out::One).any(|r| c.covers(r)))
        .collect();
    primes.sort();
    primes
}

fn primes_of(t: &TruthTable) -> Vec<Cube> {
    let on: Vec<u32> = t.rows_with(Out::One).collect();
    let dc: Vec<u32> = t.rows_with(Out::DontCare).collect();
    prime_implicants(t.nvars(), &on, &dc)
}

fn consistent(t: &TruthTable, dnf: &Dnf) -> bool {
    (0..(1u32 << t.nvars())).all(|row| match t.get(row) {
        Out::One => dnf.eval(row),
        Out::Zero => !dnf.eval(row),
        Out::DontCare => true,
    })
}

/// Brute-force minimum term count for tiny tables: enumerate all cube
/// subsets up to size 3 over all possible cubes.
fn brute_min_terms(t: &TruthTable) -> usize {
    let nvars = t.nvars();
    let on: Vec<u32> = t.rows_with(Out::One).collect();
    if on.is_empty() {
        return 0;
    }
    // Keep only cubes consistent with the off-set.
    let off: Vec<u32> = t.rows_with(Out::Zero).collect();
    let mut cubes = all_cubes(nvars);
    cubes.retain(|c| off.iter().all(|&r| !c.covers(r)));
    for k in 1..=3usize {
        if has_cover(&cubes, &on, k, 0, &mut Vec::new()) {
            return k;
        }
    }
    4 // "4 or more" — enough for the assertion below
}

fn has_cover(cubes: &[Cube], on: &[u32], k: usize, start: usize, picked: &mut Vec<Cube>) -> bool {
    if picked.len() == k {
        return on.iter().all(|&r| picked.iter().any(|c| c.covers(r)));
    }
    for i in start..cubes.len() {
        picked.push(cubes[i]);
        if has_cover(cubes, on, k, i + 1, picked) {
            picked.pop();
            return true;
        }
        picked.pop();
    }
    false
}

#[test]
fn twelve_variable_mostly_dont_care_primes() {
    // One off-row, three on-rows differing from it in bits 0 and 7, and
    // 4,092 don't-cares: the primes are the two one-literal cubes that
    // avoid the off-row and cover an on-row.
    let off = 0b1010_0101_1100u32;
    let on = [off ^ 1, off ^ (1 << 7), off ^ (1 | 1 << 7)];
    let t = TruthTable::from_fn(12, |r| {
        if r == off {
            Out::Zero
        } else if on.contains(&r) {
            Out::One
        } else {
            Out::DontCare
        }
    });
    // The off-row has bits 0 and 7 clear, so each prime sets one of them.
    let all = 0xFFFu32;
    let expect = vec![
        Cube { dashes: all & !(1 << 7), values: 1 << 7 },
        Cube { dashes: all & !1, values: 1 },
    ];
    assert_eq!(primes_of(&t), expect);
    // `off ^ 1` and `off ^ 1 << 7` each lie in one prime only.
    let mut cover = minimize(&t).terms;
    cover.sort();
    assert_eq!(cover, expect);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 200, ..ProptestConfig::default() })]

    /// The exact prime set, on uniform tables.
    #[test]
    fn primes_match_reference(t in (0usize..=6).prop_flat_map(arb_table)) {
        prop_assert_eq!(primes_of(&t), reference_primes(&t));
    }

    /// The exact prime set, on tables that are mostly don't-care.
    #[test]
    fn primes_match_reference_mostly_dc(t in (0usize..=6).prop_flat_map(mostly_dc_table)) {
        prop_assert_eq!(primes_of(&t), reference_primes(&t));
    }

    /// The exact prime set, on tables that are mostly off.
    #[test]
    fn primes_match_reference_mostly_off(t in (0usize..=6).prop_flat_map(mostly_off_table)) {
        prop_assert_eq!(primes_of(&t), reference_primes(&t));
    }

    /// The minimized DNF agrees with the table on every cared row.
    #[test]
    fn minimization_is_semantically_correct(t in (1usize..=6).prop_flat_map(arb_table)) {
        let dnf = minimize(&t);
        prop_assert!(consistent(&t, &dnf));
    }

    /// On tiny tables the term count matches the brute-force optimum
    /// (when the optimum is ≤ 3 terms; beyond that the brute force gives
    /// a lower bound of 4 and we only check ≥).
    #[test]
    fn minimization_is_term_optimal_small(t in (1usize..=3).prop_flat_map(arb_table)) {
        let dnf = minimize(&t);
        prop_assert!(consistent(&t, &dnf));
        let best = brute_min_terms(&t);
        if best <= 3 {
            prop_assert_eq!(dnf.terms.len(), best, "table {:?}", t);
        } else {
            prop_assert!(dnf.terms.len() >= 4);
        }
    }

    /// Don't-cares never hurt: replacing don't-cares with fixed outputs
    /// can only increase (or keep) the term count.
    #[test]
    fn dont_cares_never_hurt(t in (1usize..=4).prop_flat_map(arb_table)) {
        let with_dc = minimize(&t);
        // Force don't-cares to Zero.
        let forced = TruthTable::from_fn(t.nvars(), |row| match t.get(row) {
            Out::DontCare => Out::Zero,
            other => other,
        });
        let without = minimize(&forced);
        prop_assert!(
            with_dc.terms.len() <= without.terms.len(),
            "dc table needed {} terms, forced-zero {}",
            with_dc.terms.len(),
            without.terms.len()
        );
    }
}
