//! Figure 3 (a: repair cost, b: running time): TPC-H Q7's nested AND/OR
//! WHERE with 1–5 injected errors, `DeriveFixes` vs `DeriveFixesOPT`
//! (both capped at two repair sites, as in the paper).

use qrhint_core::repair::{repair_where, FixStrategy, RepairConfig};
use qrhint_core::Oracle;
use qrhint_workloads::{inject, tpch};
use serde::Serialize;

/// One measurement row.
#[derive(Debug, Clone, Serialize)]
pub struct Fig3Row {
    pub errors: usize,
    pub strategy: String,
    pub cost: f64,
    pub nsites: usize,
    /// Whole-predicate repair selected (the 4–5 error degradation the
    /// paper reports).
    pub whole_predicate: bool,
    pub total_time_ms: f64,
    pub viable_repairs_seen: usize,
}

/// Run the Figure-3 experiment for `errors` in `1..=max_errors`.
pub fn run(max_errors: usize, seed: u64) -> Vec<Fig3Row> {
    let target = tpch::q7_nested();
    let mut rows = Vec::new();
    for errors in 1..=max_errors {
        let (wrong, _) = inject::inject_mixed_errors(&target, errors, seed + errors as u64);
        for (strategy, label) in
            [(FixStrategy::Basic, "DeriveFixes"), (FixStrategy::Optimized, "DeriveFixesOPT")]
        {
            let cfg = RepairConfig {
                strategy,
                collect_trace: true,
                ..RepairConfig::default()
            };
            let mut oracle = Oracle::for_preds(&[&wrong, &target]);
            let outcome = repair_where(&mut oracle, &[], &wrong, &target, &cfg);
            let repair = outcome.repair.as_ref();
            rows.push(Fig3Row {
                errors,
                strategy: label.to_string(),
                cost: outcome.cost,
                nsites: repair.map(|r| r.sites.len()).unwrap_or(0),
                whole_predicate: repair
                    .map(|r| r.sites.len() == 1 && r.sites[0].is_empty())
                    .unwrap_or(false),
                total_time_ms: outcome.total_time.as_secs_f64() * 1e3,
                viable_repairs_seen: outcome.trace.len(),
            });
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_error_both_strategies_find_single_site() {
        // Lemma 5.2 / Figure 3a at x = 1: a single injected error admits a
        // single-site optimal repair, found by both strategies.
        let rows = run(1, 0xF3);
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(
                r.cost.is_finite(),
                "{}: no repair found for 1 error",
                r.strategy
            );
            assert!(r.nsites >= 1);
        }
        // Both strategies agree on cost at a single site.
        assert!((rows[0].cost - rows[1].cost).abs() < 1e-9);
    }

    #[test]
    fn opt_no_worse_than_basic_at_two_errors() {
        let rows = run(2, 0xF3);
        let two: Vec<&Fig3Row> = rows.iter().filter(|r| r.errors == 2).collect();
        let basic = two.iter().find(|r| r.strategy == "DeriveFixes").unwrap();
        let opt = two.iter().find(|r| r.strategy == "DeriveFixesOPT").unwrap();
        assert!(opt.cost <= basic.cost + 1e-9);
    }
}
