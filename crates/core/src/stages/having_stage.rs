//! The HAVING stage (§7): build the aggregate context, check `V4`
//! (`H ⇔ H★` under the context) and repair via the same machinery as
//! WHERE.
//!
//! The context `C` contains (Example 11):
//! * the WHERE facts over group-constant columns, asserted scalar-ly;
//! * the aggregate axioms over the aggregates of the stage's own inputs
//!   (per-row bounds lifted to MIN/MAX/AVG/SUM, `COUNT(*) ≥ 1`,
//!   `MIN ≤ AVG ≤ MAX`, ...).

use crate::hint::{ClauseKind, Hint, SiteHint};
use crate::mapping::signature::{equivalence_classes, EqClasses, EqItem};
use crate::oracle::{LowerEnv, Oracle};
use crate::repair::{repair_where, RepairConfig, RepairOutcome};
use qrhint_smt::FormulaId;
use qrhint_sqlast::{ColRef, Pred, Query};
use std::collections::BTreeSet;

/// Outcome of the HAVING stage.
#[derive(Debug, Clone)]
pub struct HavingOutcome {
    pub viable: bool,
    pub repair: Option<RepairOutcome>,
    pub hints: Vec<Hint>,
}

/// The group-constant column set: columns grouped directly plus columns
/// equal (via WHERE equalities) to a grouped column.
pub fn group_constant_cols(q: &Query, where_pred: &Pred) -> BTreeSet<ColRef> {
    let mut grouped: BTreeSet<ColRef> = super::groupby_stage::grouped_columns(&q.group_by);
    // Close under WHERE equalities.
    let mut probe_query = q.clone();
    probe_query.where_pred = where_pred.clone();
    let mut classes: EqClasses = equivalence_classes(&probe_query);
    let mut all_cols: Vec<ColRef> = Vec::new();
    where_pred.collect_columns(&mut all_cols);
    if let Some(h) = &q.having {
        h.collect_columns(&mut all_cols);
    }
    for item in &q.select {
        item.expr.collect_columns(&mut all_cols);
    }
    for c in all_cols {
        if grouped.contains(&c) {
            continue;
        }
        if grouped
            .iter()
            .any(|g| classes.same_class(&EqItem::Col(g.clone()), &EqItem::Col(c.clone())))
        {
            grouped.insert(c);
        }
    }
    grouped
}

/// Build the HAVING base context and install it (with the grouped
/// lowering environment) as the oracle's ambient state. Returns the
/// environment for callers that need explicit lowering.
///
/// Starts from a cleared ambient state, aggregate record included, so
/// the axioms cover exactly the aggregates of `h` and `h_star` plus any
/// the caller lowers before its own [`Oracle::aggregate_axioms`] call.
pub fn install_having_context(
    oracle: &mut Oracle,
    where_pred: &Pred,
    h: &Pred,
    h_star: &Pred,
    grouped: &BTreeSet<ColRef>,
) -> LowerEnv {
    oracle.clear_ambient();
    let env = LowerEnv::grouped(grouped.clone());
    // WHERE facts usable scalar-ly: top-level conjuncts over
    // group-constant columns only.
    let conjuncts: Vec<Pred> = match where_pred {
        Pred::And(cs) => cs.clone(),
        Pred::True => vec![],
        other => vec![other.clone()],
    };
    let mut ctx: Vec<FormulaId> = Vec::new();
    for c in conjuncts {
        let mut cols = Vec::new();
        c.collect_columns(&mut cols);
        if !c.has_aggregate() && cols.iter().all(|col| grouped.contains(col)) {
            let f = oracle.lower_pred_env(&c, &env);
            ctx.push(f);
        }
    }
    // Intern every aggregate mentioned by either HAVING so the axiom pass
    // sees them all.
    let _ = oracle.lower_pred_env(h, &env);
    let _ = oracle.lower_pred_env(h_star, &env);
    ctx.extend(oracle.aggregate_axioms(where_pred));
    oracle.set_ambient(env.clone(), ctx);
    env
}

/// Run the HAVING stage. `where_pred` is the unified WHERE (equivalent
/// between the queries after stage 2); `target_having` is the target's
/// HAVING after the stage-2 rewriting.
pub fn check_having(
    oracle: &mut Oracle,
    q_star: &Query,
    working_having: &Pred,
    where_pred: &Pred,
    target_having: &Pred,
    cfg: &RepairConfig,
) -> HavingOutcome {
    let working = working_having.clone();
    let grouped = group_constant_cols(q_star, where_pred);
    install_having_context(oracle, where_pred, &working, target_having, &grouped);
    let result = if oracle.equiv_pred(&working, target_having, &[]).is_true() {
        HavingOutcome { viable: true, repair: None, hints: vec![] }
    } else {
        let outcome = repair_where(oracle, &[], &working, target_having, cfg);
        let hints = match &outcome.repair {
            Some(r) => vec![Hint::PredicateRepair {
                clause: ClauseKind::Having,
                sites: r
                    .sites
                    .iter()
                    .zip(&r.fixes)
                    .map(|(path, fix)| SiteHint {
                        path: path.clone(),
                        current: working.at_path(path).expect("valid site").clone(),
                        fix: fix.clone(),
                    })
                    .collect(),
                cost: outcome.cost,
            }],
            None => vec![],
        };
        HavingOutcome { viable: false, repair: Some(outcome), hints }
    };
    oracle.clear_ambient();
    result
}

/// Simulate applying the HAVING repair.
pub fn apply_having_fix(q: &Query, outcome: &HavingOutcome) -> Query {
    let mut fixed = q.clone();
    if let Some(r) = outcome.repair.as_ref().and_then(|o| o.repair.as_ref()) {
        let new_h = r.apply(&q.having_pred());
        fixed.having = if new_h == Pred::True { None } else { Some(new_h) };
    }
    fixed
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrhint_sqlast::{Schema, SqlType};
    use qrhint_sqlparse::parse_query;

    fn schema() -> Schema {
        Schema::new()
            .with_table(
                "R",
                &[("a", SqlType::Int), ("b", SqlType::Int)],
                &[],
            )
            .with_table(
                "S",
                &[("c", SqlType::Int), ("d", SqlType::Int)],
                &[],
            )
    }

    #[test]
    fn example10_full_having_stage() {
        // Q★: WHERE A=C AND A>4 GROUP BY A, B HAVING A > B+3 AND 2*SUM(D) > 10
        // Q : WHERE A=C GROUP BY A, B, C HAVING C > B+3 AND SUM(D*2) > 10 AND A>4
        // After stage 2's rewriting both WHEREs unify to A=C (with A>4
        // movable); here we hand the stage the *working* WHERE (A=C) and
        // the rewritten target HAVING (with A>4 still in it).
        let q_star = parse_query(
            "SELECT r.a FROM R r, S s WHERE r.a = s.c AND r.a > 4 GROUP BY r.a, r.b \
             HAVING r.a > r.b + 3 AND 2 * SUM(s.d) > 10",
        )
        .unwrap();
        let q = parse_query(
            "SELECT r.a FROM R r, S s WHERE r.a = s.c GROUP BY r.a, r.b, s.c \
             HAVING s.c > r.b + 3 AND SUM(s.d * 2) > 10 AND r.a > 4",
        )
        .unwrap();
        // The unified WHERE at this stage: the working query's WHERE plus
        // the target-移动 conditions — per the paper the two queries'
        // FW trees are equivalent by now; use the target's WHERE.
        let where_pred = q_star.where_pred.clone();
        let target_having = q_star.having_pred();
        let mut oracle = Oracle::for_queries(&schema(), &[&q_star, &q]);
        let out = check_having(
            &mut oracle,
            &q_star,
            &q.having_pred(),
            &where_pred,
            &target_having,
            &RepairConfig::default(),
        );
        assert!(out.viable, "Example 10 HAVINGs are equivalent");
    }

    #[test]
    fn redundant_having_conjunct_is_fine() {
        // WHERE a > 100 makes HAVING MAX(a) >= 101 redundant (Example 3):
        // HAVING TRUE vs HAVING MAX(a) >= 101 must be equivalent.
        let q_star = parse_query(
            "SELECT r.b, COUNT(*) FROM R r WHERE r.a > 100 GROUP BY r.b",
        )
        .unwrap();
        let q = parse_query(
            "SELECT r.b, COUNT(*) FROM R r WHERE r.a > 100 GROUP BY r.b \
             HAVING MAX(r.a) >= 101",
        )
        .unwrap();
        let where_pred = q_star.where_pred.clone();
        let mut oracle = Oracle::for_queries(&schema(), &[&q_star, &q]);
        let out = check_having(
            &mut oracle,
            &q_star,
            &q.having_pred(),
            &where_pred,
            &Pred::True,
            &RepairConfig::default(),
        );
        assert!(out.viable, "MAX(a) >= 101 is implied by WHERE a > 100");
    }

    #[test]
    fn having_repair_produces_sites() {
        let q_star = parse_query(
            "SELECT r.b, COUNT(*) FROM R r GROUP BY r.b HAVING COUNT(*) >= 2",
        )
        .unwrap();
        let q = parse_query(
            "SELECT r.b, COUNT(*) FROM R r GROUP BY r.b HAVING COUNT(*) > 2",
        )
        .unwrap();
        let mut oracle = Oracle::for_queries(&schema(), &[&q_star, &q]);
        let out = check_having(
            &mut oracle,
            &q_star,
            &q.having_pred(),
            &Pred::True,
            &q_star.having_pred(),
            &RepairConfig::default(),
        );
        assert!(!out.viable);
        let r = out.repair.as_ref().unwrap().repair.as_ref().unwrap();
        assert_eq!(r.sites, vec![Vec::<usize>::new()]);
        let fixed = apply_having_fix(&q, &out);
        let mut oracle2 = Oracle::for_queries(&schema(), &[&q_star, &fixed]);
        let out2 = check_having(
            &mut oracle2,
            &q_star,
            &fixed.having_pred(),
            &Pred::True,
            &q_star.having_pred(),
            &RepairConfig::default(),
        );
        assert!(out2.viable);
    }

    #[test]
    fn missing_having_is_repaired_from_true() {
        let q_star = parse_query(
            "SELECT r.b FROM R r GROUP BY r.b HAVING COUNT(*) >= 2 AND MIN(r.a) > 0",
        )
        .unwrap();
        let q = parse_query("SELECT r.b FROM R r GROUP BY r.b").unwrap();
        let mut oracle = Oracle::for_queries(&schema(), &[&q_star, &q]);
        let out = check_having(
            &mut oracle,
            &q_star,
            &q.having_pred(),
            &Pred::True,
            &q_star.having_pred(),
            &RepairConfig::default(),
        );
        assert!(!out.viable);
        let fixed = apply_having_fix(&q, &out);
        assert!(fixed.having.is_some());
        let mut oracle2 = Oracle::for_queries(&schema(), &[&q_star, &fixed]);
        assert!(oracle2
            .equiv_pred(&fixed.having_pred(), &q_star.having_pred(), &[])
            .is_true());
    }

    #[test]
    fn count_distinct_upper_bound_axiom() {
        // HAVING COUNT(DISTINCT a) <= COUNT(*) is a tautology under the
        // axioms: HAVING TRUE should be equivalent to it.
        let q_star = parse_query(
            "SELECT r.b FROM R r GROUP BY r.b",
        )
        .unwrap();
        let q = parse_query(
            "SELECT r.b FROM R r GROUP BY r.b HAVING COUNT(DISTINCT r.a) <= COUNT(*)",
        )
        .unwrap();
        let mut oracle = Oracle::for_queries(&schema(), &[&q_star, &q]);
        let out = check_having(
            &mut oracle,
            &q_star,
            &q.having_pred(),
            &Pred::True,
            &Pred::True,
            &RepairConfig::default(),
        );
        assert!(out.viable);
    }
}
