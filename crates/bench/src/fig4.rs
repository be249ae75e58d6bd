//! Figure 4 (a: `DeriveFixes`, b: `DeriveFixesOPT`): all unpruned viable
//! repairs discovered during execution, as (time, cost) traces — one
//! trace per error count on the Q7 nested workload.

use qrhint_core::repair::{repair_where, FixStrategy, RepairConfig};
use qrhint_core::Oracle;
use qrhint_workloads::{inject, tpch};
use serde::Serialize;

/// A (time, cost) event within one execution trace.
#[derive(Debug, Clone, Serialize)]
pub struct TracePoint {
    pub time_ms: f64,
    pub cost: f64,
    pub nsites: usize,
}

/// One execution's trace.
#[derive(Debug, Clone, Serialize)]
pub struct Trace {
    pub errors: usize,
    pub strategy: String,
    pub points: Vec<TracePoint>,
    pub final_cost: f64,
}

/// Collect traces for 1..=max_errors with both strategies.
pub fn run(max_errors: usize, seed: u64) -> Vec<Trace> {
    let target = tpch::q7_nested();
    let mut traces = Vec::new();
    for errors in 1..=max_errors {
        let (wrong, _) = inject::inject_mixed_errors(&target, errors, seed + errors as u64);
        for (strategy, label) in
            [(FixStrategy::Basic, "DeriveFixes"), (FixStrategy::Optimized, "DeriveFixesOPT")]
        {
            let cfg = RepairConfig {
                strategy,
                collect_trace: true,
                // No early stopping: Figure 4 shows *all* viable repairs
                // found during the course of execution.
                disable_early_stop: true,
            };
            let mut oracle = Oracle::for_preds(&[&wrong, &target]);
            let outcome = repair_where(&mut oracle, &[], &wrong, &target, &cfg);
            traces.push(Trace {
                errors,
                strategy: label.to_string(),
                points: outcome
                    .trace
                    .iter()
                    .map(|t| TracePoint {
                        time_ms: t.elapsed.as_secs_f64() * 1e3,
                        cost: t.cost,
                        nsites: t.nsites,
                    })
                    .collect(),
                final_cost: outcome.cost,
            });
        }
    }
    traces
}

/// Summarize a trace the way the paper reads Figure 4: does the lowest
/// cost surface early (in the first half of the events)?
pub fn lowest_cost_surfaces_early(trace: &Trace) -> Option<bool> {
    if trace.points.len() < 2 {
        return None;
    }
    let best = trace
        .points
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.cost.partial_cmp(&b.1.cost).unwrap())?;
    Some(best.0 <= trace.points.len() / 2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn early_surfacing_summary() {
        let t = Trace {
            errors: 1,
            strategy: "x".into(),
            points: vec![
                TracePoint { time_ms: 1.0, cost: 0.4, nsites: 1 },
                TracePoint { time_ms: 2.0, cost: 0.9, nsites: 1 },
                TracePoint { time_ms: 3.0, cost: 1.1, nsites: 2 },
            ],
            final_cost: 0.4,
        };
        assert_eq!(lowest_cost_surfaces_early(&t), Some(true));
        let single = Trace { points: vec![t.points[0].clone()], ..t.clone() };
        assert_eq!(lowest_cost_surfaces_early(&single), None);
    }

    #[test]
    #[ignore = "paper sweep; run by CI's `Paper sweeps (ignored bench tests)` release step"]
    fn traces_record_viable_repairs_in_time_order() {
        let traces = run(1, 0xF4);
        assert_eq!(traces.len(), 2);
        for t in &traces {
            assert!(!t.points.is_empty(), "{} e={} empty trace", t.strategy, t.errors);
            // Monotone timestamps.
            assert!(t
                .points
                .windows(2)
                .all(|w| w[0].time_ms <= w[1].time_ms + 1e-6));
            // The reported final cost is the minimum over the trace.
            let min = t.points.iter().map(|p| p.cost).fold(f64::INFINITY, f64::min);
            assert!((min - t.final_cost).abs() < 1e-9);
        }
    }
}
