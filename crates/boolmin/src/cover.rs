//! Minimum cover selection over prime implicants: essential primes, then
//! exact branch-and-bound (with a node budget), then greedy fallback.

use crate::qm::Cube;

/// Maximum branch-and-bound nodes before falling back to greedy.
const MAX_COVER_NODES: usize = 200_000;

/// Cost of a cover: primarily term count, secondarily literal count.
fn cost(cover: &[Cube], nvars: usize) -> (usize, usize) {
    (cover.len(), cover.iter().map(|c| c.literal_count(nvars)).sum())
}

/// Select a minimum-cost subset of `primes` covering every row of `on`.
pub fn select_cover(nvars: usize, primes: &[Cube], on: &[u32]) -> Vec<Cube> {
    select_cover_within(nvars, primes, on, MAX_COVER_NODES)
}

/// [`select_cover`] with the exact search cut off after `max_nodes`
/// branch-and-bound nodes.
fn select_cover_within(nvars: usize, primes: &[Cube], on: &[u32], max_nodes: usize) -> Vec<Cube> {
    if on.is_empty() {
        return vec![];
    }
    // coverage[i] = bitset over `on` indices covered by primes[i],
    // represented as Vec<u64> blocks.
    let blocks = on.len().div_ceil(64);
    let coverage: Vec<Vec<u64>> = primes
        .iter()
        .map(|p| {
            let mut bits = vec![0u64; blocks];
            for (j, &m) in on.iter().enumerate() {
                if p.covers(m) {
                    bits[j / 64] |= 1 << (j % 64);
                }
            }
            bits
        })
        .collect();
    let full: Vec<u64> = {
        let mut bits = vec![u64::MAX; blocks];
        let rem = on.len() % 64;
        if rem != 0 {
            bits[blocks - 1] = (1u64 << rem) - 1;
        }
        bits
    };

    // --- Essential primes: rows covered by exactly one prime. ---
    let mut chosen: Vec<usize> = Vec::new();
    let mut covered = vec![0u64; blocks];
    for &m in on {
        let covering: Vec<usize> =
            (0..primes.len()).filter(|&i| primes[i].covers(m)).collect();
        if covering.len() == 1 && !chosen.contains(&covering[0]) {
            chosen.push(covering[0]);
        }
    }
    for &i in &chosen {
        for (b, c) in covered.iter_mut().zip(&coverage[i]) {
            *b |= c;
        }
    }

    let uncovered_indices = |covered: &[u64]| -> Vec<usize> {
        (0..on.len()).filter(|j| covered[j / 64] & (1 << (j % 64)) == 0).collect()
    };

    if uncovered_indices(&covered).is_empty() {
        return chosen.into_iter().map(|i| primes[i]).collect();
    }

    // Candidate primes: those covering at least one uncovered row.
    let remaining: Vec<usize> = (0..primes.len())
        .filter(|i| !chosen.contains(i))
        .filter(|&i| {
            coverage[i]
                .iter()
                .zip(&covered)
                .any(|(c, v)| c & !v != 0)
        })
        .collect();

    // --- Exact branch-and-bound over the remaining rows. ---
    struct Bb<'a> {
        coverage: &'a [Vec<u64>],
        full: &'a [u64],
        candidates: &'a [usize],
        primes: &'a [Cube],
        nvars: usize,
        best: Option<Vec<usize>>,
        best_cost: (usize, usize),
        nodes: usize,
        max_nodes: usize,
    }

    impl Bb<'_> {
        fn complete(&self, covered: &[u64]) -> bool {
            covered.iter().zip(self.full).all(|(c, f)| c & f == *f)
        }

        fn search(&mut self, covered: Vec<u64>, picked: Vec<usize>) {
            self.nodes += 1;
            if self.nodes > self.max_nodes {
                return;
            }
            let picked_cubes: Vec<Cube> = picked.iter().map(|&i| self.primes[i]).collect();
            let c = cost(&picked_cubes, self.nvars);
            if c >= self.best_cost {
                return; // cannot improve (costs only grow)
            }
            if self.complete(&covered) {
                self.best_cost = c;
                self.best = Some(picked);
                return;
            }
            // Branch on the first uncovered row: one branch per candidate
            // prime covering it (classic Petrick-style branching).
            let row = (0..self.full.len() * 64).find(|&j| {
                self.full[j / 64] & (1 << (j % 64)) != 0
                    && covered[j / 64] & (1 << (j % 64)) == 0
            });
            let Some(row) = row else { return };
            let options: Vec<usize> = self
                .candidates
                .iter()
                .copied()
                .filter(|&i| self.coverage[i][row / 64] & (1 << (row % 64)) != 0)
                .collect();
            for i in options {
                if picked.contains(&i) {
                    continue;
                }
                let mut cov2 = covered.clone();
                for (b, c) in cov2.iter_mut().zip(&self.coverage[i]) {
                    *b |= c;
                }
                let mut picked2 = picked.clone();
                picked2.push(i);
                self.search(cov2, picked2);
            }
        }
    }

    let mut bb = Bb {
        coverage: &coverage,
        full: &full,
        candidates: &remaining,
        primes,
        nvars,
        best: None,
        best_cost: (usize::MAX, usize::MAX),
        nodes: 0,
        max_nodes,
    };
    bb.search(covered.clone(), vec![]);
    let exact_exhausted = bb.nodes <= max_nodes;

    if let (Some(extra), true) = (&bb.best, exact_exhausted) {
        let mut out: Vec<Cube> = chosen.iter().map(|&i| primes[i]).collect();
        out.extend(extra.iter().map(|&i| primes[i]));
        return out;
    }

    // --- Greedy fallback: repeatedly take the prime covering the most
    // uncovered rows (ties: fewer literals). ---
    let mut greedy_covered = covered;
    let mut out: Vec<usize> = chosen.clone();
    loop {
        let unc = uncovered_indices(&greedy_covered);
        if unc.is_empty() {
            break;
        }
        let best = remaining
            .iter()
            .copied()
            .filter(|i| !out.contains(i))
            .max_by_key(|&i| {
                let gain = coverage[i]
                    .iter()
                    .zip(&greedy_covered)
                    .map(|(c, v)| (c & !v).count_ones() as usize)
                    .sum::<usize>();
                (gain, usize::MAX - primes[i].literal_count(nvars))
            });
        let Some(i) = best else { break };
        let gain: usize = coverage[i]
            .iter()
            .zip(&greedy_covered)
            .map(|(c, v)| (c & !v).count_ones() as usize)
            .sum();
        if gain == 0 {
            break; // defensive: no progress possible
        }
        for (b, c) in greedy_covered.iter_mut().zip(&coverage[i]) {
            *b |= c;
        }
        out.push(i);
    }
    out.into_iter().map(|i| primes[i]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qm::prime_implicants;

    #[test]
    fn essential_only() {
        // XOR: both primes are essential.
        let on = [1u32, 2];
        let primes = prime_implicants(2, &on, &[]);
        let cover = select_cover(2, &primes, &on);
        assert_eq!(cover.len(), 2);
    }

    #[test]
    fn cyclic_cover_resolved_exactly() {
        // Classic cyclic core: f = Σm(0,1,2,5,6,7) over 3 vars.
        // Minimum cover has 3 terms.
        let on = [0u32, 1, 2, 5, 6, 7];
        let primes = prime_implicants(3, &on, &[]);
        let cover = select_cover(3, &primes, &on);
        assert_eq!(cover.len(), 3, "{cover:?}");
        for &m in &on {
            assert!(cover.iter().any(|c| c.covers(m)));
        }
    }

    #[test]
    fn greedy_fallback_still_covers() {
        let on = [0u32, 1, 2, 5, 6, 7];
        let primes = prime_implicants(3, &on, &[]);
        // Force greedy with a zero node budget.
        let cover = select_cover_within(3, &primes, &on, 0);
        for &m in &on {
            assert!(cover.iter().any(|c| c.covers(m)));
        }
    }

    #[test]
    fn empty_on_set() {
        let cover = select_cover(3, &[], &[]);
        assert!(cover.is_empty());
    }
}
