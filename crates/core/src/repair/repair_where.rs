//! `RepairWhere` (Algorithm 1): search over candidate repair-site sets in
//! ascending size order with cost-based early stopping, viability checks
//! via `CreateBounds`, and fix derivation via `DeriveFixes` /
//! `DeriveFixesOPT`.
//!
//! Every candidate repair is *verified* (the applied predicate must be
//! definitively equivalent to the target) before being accepted, so the
//! correctness guarantee of Lemma 5.1 holds independently of solver
//! completeness.

use super::bounds::{bounds_admit, create_bounds};
use super::cost::{lower_bound, repair_cost, sites_only_bound, tree_size};
use super::derive_fixes::derive_fixes;
use super::minfix_mult::min_fix_mult;
use super::{paths_disjoint, Repair};
use crate::oracle::Oracle;
use qrhint_sqlast::pred::PredPath;
use qrhint_sqlast::Pred;
use std::time::{Duration, Instant};

/// Maximum number of repair sites to explore (the paper's experiments
/// use 2).
const MAX_SITES: usize = 2;

/// Fix-derivation strategy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum FixStrategy {
    /// `DeriveFixes` (Algorithm 3): faster, per-site bounds.
    #[default]
    Basic,
    /// `DeriveFixesOPT` (`MinFixMult`): holistic, smaller fixes, slower.
    /// Falls back to `Basic` when resource caps are hit.
    Optimized,
}

/// Configuration for the repair search.
#[derive(Debug, Clone, Default)]
pub struct RepairConfig {
    pub strategy: FixStrategy,
    /// Record every unpruned viable repair (for the Figure-4 traces).
    pub collect_trace: bool,
    /// Disable Algorithm 1's cost-bound early stopping (A1 ablation).
    pub disable_early_stop: bool,
}

/// One viable repair discovered during the search (Figure 4's dots).
#[derive(Debug, Clone)]
pub struct TraceEvent {
    pub elapsed: Duration,
    pub cost: f64,
    pub nsites: usize,
}

/// Result of the repair search.
#[derive(Debug, Clone)]
pub struct RepairOutcome {
    /// The minimum-cost verified repair, if any was found.
    pub repair: Option<Repair>,
    /// Its cost.
    pub cost: f64,
    /// Time until the first *viable* site set was identified (the "1st
    /// Repair Sites" series of Figure 2b).
    pub first_viable: Option<Duration>,
    /// All unpruned viable repairs in discovery order.
    pub trace: Vec<TraceEvent>,
    /// Number of candidate site sets examined.
    pub sets_examined: usize,
    /// Total search time.
    pub total_time: Duration,
}

/// Enumerate all site sets of exactly `k` pairwise-disjoint paths,
/// ordered by total subtree size ascending (the search heuristic: smaller
/// sites first).
fn site_sets(p: &Pred, k: usize) -> Vec<Vec<PredPath>> {
    let mut paths = p.all_paths();
    // Order candidate paths by subtree size so combinations come out
    // roughly size-sorted.
    paths.sort_by_key(|path| tree_size(p.at_path(path).unwrap()));
    let mut out: Vec<Vec<PredPath>> = Vec::new();
    let mut current: Vec<PredPath> = Vec::new();
    fn go(
        paths: &[PredPath],
        start: usize,
        k: usize,
        current: &mut Vec<PredPath>,
        out: &mut Vec<Vec<PredPath>>,
    ) {
        if current.len() == k {
            out.push(current.clone());
            return;
        }
        for i in start..paths.len() {
            if current.iter().all(|c| paths_disjoint(c, &paths[i])) {
                current.push(paths[i].clone());
                go(paths, i + 1, k, current, out);
                current.pop();
            }
        }
    }
    go(&paths, 0, k, &mut current, &mut out);
    out.sort_by_key(|set| {
        set.iter()
            .map(|path| tree_size(p.at_path(path).unwrap()))
            .sum::<usize>()
    });
    out
}

/// Algorithm 1: find a minimum-cost repair turning `p` into a predicate
/// equivalent to `p_star` (under `ctx`).
pub fn repair_where(
    oracle: &mut Oracle,
    ctx: &[&Pred],
    p: &Pred,
    p_star: &Pred,
    cfg: &RepairConfig,
) -> RepairOutcome {
    let start = Instant::now();
    let mut best: Option<Repair> = None;
    let mut best_cost = f64::INFINITY;
    let mut first_viable: Option<Duration> = None;
    let mut trace: Vec<TraceEvent> = Vec::new();
    let mut sets_examined = 0usize;

    // Every candidate site set is tested against the same `(p_star, ctx)`
    // pair, so both are lowered once, up front.
    let ctx_ids: Vec<qrhint_smt::FormulaId> =
        ctx.iter().map(|c| oracle.lower_pred(c)).collect();
    let p_star_id = oracle.lower_pred(p_star);
    oracle.counters.equiv_batches += 1;

    'outer: for k in 1..=MAX_SITES {
        // Early stop on site count alone (Line 4 of Algorithm 1).
        if !cfg.disable_early_stop && sites_only_bound(k) >= best_cost {
            break;
        }
        for sites in site_sets(p, k) {
            sets_examined += 1;
            // Sets are ordered by total site size; once the lower bound
            // passes the best cost, no set of this size can win.
            if !cfg.disable_early_stop && lower_bound(p, p_star, &sites) >= best_cost {
                if sites_only_bound(k + 1) >= best_cost {
                    break 'outer;
                }
                break;
            }
            let (lo, hi) = create_bounds(p, &sites);
            oracle.counters.equiv_batch_candidates += 1;
            if !bounds_admit(oracle, &lo, &hi, p_star_id, &ctx_ids).is_true() {
                continue;
            }
            if first_viable.is_none() {
                first_viable = Some(start.elapsed());
            }
            // Derive fixes.
            let fixes = match cfg.strategy {
                FixStrategy::Optimized => {
                    min_fix_mult(oracle, ctx, p, &sites, p_star, p_star).unwrap_or_else(
                        || derive_fixes(oracle, ctx, p, &sites, p_star, p_star),
                    )
                }
                FixStrategy::Basic => derive_fixes(oracle, ctx, p, &sites, p_star, p_star),
            };
            // Reassemble in site order.
            let mut ordered: Vec<Pred> = Vec::with_capacity(sites.len());
            let mut complete = true;
            for s in &sites {
                match fixes.iter().find(|(path, _)| path == s) {
                    Some((_, f)) => ordered.push(f.clone()),
                    None => {
                        complete = false;
                        break;
                    }
                }
            }
            if !complete {
                continue;
            }
            let candidate = Repair { sites: sites.clone(), fixes: ordered };
            // Verification: the applied repair must be definitively
            // equivalent to the target.
            let applied = candidate.apply(p);
            let applied_id = oracle.lower_pred(&applied);
            if !oracle.equiv_f(applied_id, p_star_id, &ctx_ids).is_true() {
                continue;
            }
            let cost = repair_cost(p, p_star, &candidate);
            if cfg.collect_trace {
                trace.push(TraceEvent { elapsed: start.elapsed(), cost, nsites: k });
            }
            if cost < best_cost {
                best_cost = cost;
                best = Some(candidate);
            }
        }
    }
    RepairOutcome {
        repair: best,
        cost: best_cost,
        first_viable,
        trace,
        sets_examined,
        total_time: start.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrhint_sqlparse::parse_pred;

    fn run(
        p_sql: &str,
        p_star_sql: &str,
        cfg: &RepairConfig,
    ) -> (Pred, Pred, RepairOutcome) {
        let p = parse_pred(p_sql).unwrap();
        let p_star = parse_pred(p_star_sql).unwrap();
        let mut o = Oracle::for_preds(&[&p, &p_star]);
        let out = repair_where(&mut o, &[], &p, &p_star, cfg);
        (p, p_star, out)
    }

    fn assert_correct(p: &Pred, p_star: &Pred, out: &RepairOutcome) {
        let r = out.repair.as_ref().expect("a repair must be found");
        let applied = r.apply(p);
        let mut o = Oracle::for_preds(&[p, p_star]);
        assert!(o.equiv_pred(&applied, p_star, &[]).is_true());
    }

    #[test]
    fn equivalent_inputs_need_no_repair_sites_but_root_works() {
        // P ⇔ P★ already: the cheapest repair found should still be cheap
        // (a single-site identity-ish repair); importantly the search must
        // not crash. (The pipeline short-circuits this case before calling
        // repair_where; this is a robustness test.)
        let (p, p_star, out) =
            run("a = 1 AND b = 2", "b = 2 AND a = 1", &RepairConfig::default());
        assert_correct(&p, &p_star, &out);
    }

    #[test]
    fn single_wrong_atom_found_optimally() {
        // Example 2's WHERE fix shape: one atom wrong.
        let (p, p_star, out) = run(
            "d = 'Amy' AND l = s1 AND l = s2 AND p1 > p2",
            "d = 'Amy' AND l = s1 AND l = s2 AND p1 >= p2",
            &RepairConfig::default(),
        );
        assert_correct(&p, &p_star, &out);
        let r = out.repair.unwrap();
        assert_eq!(r.sites.len(), 1);
        assert_eq!(r.sites[0], vec![3]);
        let mut o = Oracle::for_preds(&[&p]);
        assert!(o
            .equiv_pred(&r.fixes[0], &parse_pred("p1 >= p2").unwrap(), &[])
            .is_true());
    }

    #[test]
    fn two_errors_two_sites() {
        let (p, p_star, out) = run(
            "a = 1 AND b = 2 AND c = 3 AND d = 4",
            "a = 1 AND b = 9 AND c = 3 AND d = 8",
            &RepairConfig::default(),
        );
        assert_correct(&p, &p_star, &out);
        let r = out.repair.unwrap();
        assert_eq!(r.sites.len(), 2);
        assert!(out.first_viable.is_some());
    }

    #[test]
    fn missing_conjunct_handled_by_site_extension() {
        // P misses a join condition entirely: repairable by replacing one
        // conjunct with a conjunction (or the root).
        let (p, p_star, out) = run(
            "a = 1 AND b = 2",
            "a = 1 AND b = 2 AND c = 3",
            &RepairConfig::default(),
        );
        assert_correct(&p, &p_star, &out);
    }

    #[test]
    fn optimized_no_worse_than_basic() {
        let p_sql =
            "(a = c AND (d <> e OR d > f)) OR (a = c AND (d > 11 OR d < 7 OR e <= 5))";
        let p_star_sql =
            "(a = c AND (e < 5 OR d > 10 OR d < 7)) OR (a = b AND (d <> e OR d > f))";
        let basic_cfg = RepairConfig::default();
        let opt_cfg = RepairConfig { strategy: FixStrategy::Optimized, ..Default::default() };
        let (p, p_star, out_b) = run(p_sql, p_star_sql, &basic_cfg);
        let (_, _, out_o) = run(p_sql, p_star_sql, &opt_cfg);
        assert_correct(&p, &p_star, &out_b);
        assert_correct(&p, &p_star, &out_o);
        assert!(out_o.cost <= out_b.cost + 1e-9);
    }

    #[test]
    fn trace_collection() {
        let cfg = RepairConfig { collect_trace: true, ..Default::default() };
        let (_, _, out) = run("a = 1 AND b = 2", "a = 1 AND b = 3", &cfg);
        assert!(!out.trace.is_empty());
        // Costs recorded are achievable costs (best is their min).
        let min = out.trace.iter().map(|t| t.cost).fold(f64::INFINITY, f64::min);
        assert!((min - out.cost).abs() < 1e-9);
    }

    #[test]
    fn site_sets_enumeration_is_disjoint_and_sorted() {
        let p = parse_pred("(a = 1 AND b = 2) OR c = 3").unwrap();
        let sets = site_sets(&p, 2);
        for set in &sets {
            assert_eq!(set.len(), 2);
            assert!(paths_disjoint(&set[0], &set[1]));
        }
        // Sorted by total site size.
        let sizes: Vec<usize> = sets
            .iter()
            .map(|set| {
                set.iter()
                    .map(|path| tree_size(p.at_path(path).unwrap()))
                    .sum()
            })
            .collect();
        assert!(sizes.windows(2).all(|w| w[0] <= w[1]));
    }
}
