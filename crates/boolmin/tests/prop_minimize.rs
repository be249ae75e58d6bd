//! Property-based tests for the two-level minimizer: semantic
//! correctness on arbitrary tables with don't-cares, exact minimality
//! (term count) against brute-force search on small instances, and the
//! exact prime set against two brute forces. `prime_implicants` grows the
//! primes through each on-row from a bitset over the `2^n` dash masks,
//! closed upward from the masks that reach an off-row; the first
//! reference enumerates all `3^n` cubes (uniform, mostly-don't-care and
//! mostly-off tables up to 6 variables), and the second tries every dash
//! mask through every on-row against every off-row (MinFix-shaped tables,
//! a few on- and off-rows among don't-cares, at 8–12 variables).

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

/// The same primes by a second brute force, over the dash masks through
/// each on-row: for on-row `m`, every mask `d` whose cube
/// `{dashes: d, values: m & !d}` avoids all off-rows while each one-dash
/// widening of it contains one; deduplicated and sorted.
fn reference_primes_by_on_row(t: &TruthTable) -> Vec<Cube> {
    let nvars = t.nvars();
    let off: Vec<u32> = t.rows_with(Out::Zero).collect();
    let through = |m: u32, d: u32| Cube { dashes: d, values: m & !d };
    let avoids_off = |c: Cube| off.iter().all(|&z| !c.covers(z));
    let mut primes = Vec::new();
    for m in t.rows_with(Out::One) {
        let implicant: Vec<bool> = (0..1u32 << nvars).map(|d| avoids_off(through(m, d))).collect();
        for d in (0..1u32 << nvars).filter(|&d| implicant[d as usize]) {
            if (0..nvars).filter(|i| d & (1 << i) == 0).all(|i| !implicant[(d | 1 << i) as usize]) {
                primes.push(through(m, d));
            }
        }
    }
    primes.sort();
    primes.dedup();
    primes
}

/// A MinFix-shaped table over `nvars` variables: up to `max_on` on-rows
/// and up to `max_off` off-rows drawn at random (a row drawn as both is
/// on), every other row a don't-care.
fn sparse_table(nvars: usize, max_on: usize, max_off: usize) -> impl Strategy<Value = TruthTable> {
    let row = 0u32..1 << nvars;
    (prop::collection::vec(row.clone(), 1..=max_on), prop::collection::vec(row, 0..=max_off))
        .prop_map(move |(on, off)| {
            let mut t = TruthTable::from_fn(nvars, |_| Out::DontCare);
            off.iter().for_each(|&r| t.set(r, Out::Zero));
            on.iter().for_each(|&r| t.set(r, Out::One));
            t
        })
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

    /// The exact prime set of MinFix-shaped tables at 8–12 variables: a
    /// few on- and off-rows among don't-cares (one wide-where pass's
    /// tables average 6.8 on- and 1.8 off-rows at 11 variables).
    #[test]
    fn primes_of_sparse_wide_tables_match_reference(
        t in (8usize..=12).prop_flat_map(|n| sparse_table(n, 8, 8)),
    ) {
        let primes = primes_of(&t);
        prop_assert!(!primes.is_empty());
        prop_assert_eq!(primes, reference_primes_by_on_row(&t));
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

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// The exact prime set of the denser tables MinFix meets at 8–10
    /// variables (one wide-where pass reaches 127 on- and 1,023 off-rows
    /// at 10).
    #[test]
    fn primes_of_dense_wide_tables_match_reference(
        t in (8usize..=10).prop_flat_map(|n| sparse_table(n, 128, 256)),
    ) {
        let primes = primes_of(&t);
        prop_assert_eq!(primes, reference_primes_by_on_row(&t));
    }
}
