//! Figure 2 (a: repair cost, b: running time): conjunctive WHERE
//! conditions with 4–11 atomic predicates (TPC-H derived), two injected
//! atom errors, comparing `DeriveFixes` vs `DeriveFixesOPT` plus the
//! time-to-first-viable-site series.

use qrhint_core::repair::{repair_cost, repair_where, FixStrategy, Repair, RepairConfig};
use qrhint_core::Oracle;
use qrhint_sqlparse::parse_pred;
use qrhint_workloads::{inject, tpch};
use serde::Serialize;

/// One measurement row.
#[derive(Debug, Clone, Serialize)]
pub struct Fig2Row {
    pub case: String,
    pub natoms: usize,
    pub strategy: String,
    /// Cost of the repair Qr-Hint found.
    pub cost: f64,
    /// Cost of the ground-truth repair (undoing the injected errors).
    pub ground_truth_cost: f64,
    /// Did Qr-Hint match (or beat) the ground truth?
    pub optimal: bool,
    pub total_time_ms: f64,
    pub first_viable_ms: f64,
    pub sets_examined: usize,
}

/// Run the Figure-2 experiment. `errors_per_case` is 2 in the paper.
pub fn run(errors_per_case: usize, seed: u64) -> Vec<Fig2Row> {
    run_up_to(errors_per_case, seed, usize::MAX)
}

/// Like [`run`] but restricted to cases with at most `max_atoms` atomic
/// predicates (used by the fast test suite; the binary runs the full
/// 4–11 sweep).
pub fn run_up_to(errors_per_case: usize, seed: u64, max_atoms: usize) -> Vec<Fig2Row> {
    let mut rows = Vec::new();
    for case in tpch::conjunctive_suite().into_iter().filter(|c| c.natoms <= max_atoms) {
        let target = parse_pred(case.where_sql).expect("suite parses");
        let (wrong, injected) = inject::inject_atom_errors(&target, errors_per_case, seed);
        // Ground truth: repair exactly the injected sites back to the
        // original atoms.
        let gt_sites: Vec<Vec<usize>> = injected
            .iter()
            .map(|e| match e {
                inject::InjectedError::OpChanged { path, .. }
                | inject::InjectedError::ConstChanged { path, .. }
                | inject::InjectedError::StrChanged { path, .. }
                | inject::InjectedError::ConnectiveFlipped { path } => path.clone(),
            })
            .collect();
        let gt_fixes: Vec<_> = gt_sites
            .iter()
            .map(|p| target.at_path(p).expect("path valid").clone())
            .collect();
        let gt = Repair { sites: gt_sites, fixes: gt_fixes };
        let gt_cost = repair_cost(&wrong, &target, &gt);

        for (strategy, label) in
            [(FixStrategy::Basic, "DeriveFixes"), (FixStrategy::Optimized, "DeriveFixesOPT")]
        {
            let cfg = RepairConfig { strategy, ..RepairConfig::default() };
            let mut oracle = Oracle::for_preds(&[&wrong, &target]);
            let outcome = repair_where(&mut oracle, &[], &wrong, &target, &cfg);
            rows.push(Fig2Row {
                case: case.name.to_string(),
                natoms: case.natoms,
                strategy: label.to_string(),
                cost: outcome.cost,
                ground_truth_cost: gt_cost,
                optimal: outcome.cost <= gt_cost + 1e-9,
                total_time_ms: outcome.total_time.as_secs_f64() * 1e3,
                first_viable_ms: outcome
                    .first_viable
                    .map(|d| d.as_secs_f64() * 1e3)
                    .unwrap_or(f64::NAN),
                sets_examined: outcome.sets_examined,
            });
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_cases_are_optimal_for_both_strategies() {
        // Figure 2a's claim: for conjunctive WHERE, both strategies find
        // ground-truth-optimal repairs. Test on the smaller cases to keep
        // CI fast; the full sweep runs in the experiment binary.
        let rows: Vec<Fig2Row> = run_up_to(2, 0xF16, 6);
        assert!(!rows.is_empty());
        for r in &rows {
            assert!(
                r.optimal,
                "{} ({}) found cost {} vs ground truth {}",
                r.case, r.strategy, r.cost, r.ground_truth_cost
            );
        }
    }
}
