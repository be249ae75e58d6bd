//! The WHERE stage (§5): viability check `V2` (`P ⇔ P★`), the SPJA
//! look-ahead that legally moves conditions between the target's WHERE
//! and HAVING (§3.1 stage 2 "twist"), and repair via `RepairWhere`.

use crate::hint::{ClauseKind, Hint, SiteHint};
use crate::mapping::signature::{equivalence_classes, EqClasses, EqItem};
use crate::oracle::Oracle;
use crate::repair::{repair_where, RepairConfig, RepairOutcome};
use qrhint_sqlast::{ColRef, Pred, Query, Scalar};

/// Outcome of the WHERE stage.
#[derive(Debug, Clone)]
pub struct WhereOutcome {
    /// Did the working WHERE pass `V2` against the (possibly rewritten)
    /// target WHERE without repair?
    pub viable: bool,
    /// The target WHERE after the look-ahead rewriting.
    pub target_where: Pred,
    /// The target HAVING after the look-ahead rewriting.
    pub target_having: Option<Pred>,
    /// The working query's WHERE after normalization (its own movable
    /// HAVING conjuncts lifted in); repair sites refer to this tree.
    pub working_where: Pred,
    /// The working query's residual HAVING after normalization.
    pub working_having: Option<Pred>,
    /// The repair, when `V2` failed.
    pub repair: Option<RepairOutcome>,
    /// Rendered hints.
    pub hints: Vec<Hint>,
}

/// Is every column of `e` group-constant in `q` — i.e. listed in GROUP BY
/// directly, or equal (via WHERE equalities) to a grouped column?
fn group_constant(e: &Scalar, q: &Query, classes: &mut EqClasses) -> bool {
    let grouped: Vec<ColRef> = q
        .group_by
        .iter()
        .filter_map(|g| match g {
            Scalar::Col(c) => Some(c.clone()),
            _ => None,
        })
        .collect();
    let mut cols = Vec::new();
    e.collect_columns(&mut cols);
    cols.iter().all(|c| {
        grouped.contains(c)
            || grouped
                .iter()
                .any(|g| classes.same_class(&EqItem::Col(g.clone()), &EqItem::Col(c.clone())))
    })
}

/// A top-level conjunct is *movable* between WHERE and HAVING when it is
/// aggregate-free and references only group-constant expressions.
fn movable_conjuncts(p: &Pred, q: &Query, classes: &mut EqClasses) -> Vec<usize> {
    let conjuncts: Vec<&Pred> = match p {
        Pred::And(cs) => cs.iter().collect(),
        Pred::True => return vec![],
        other => vec![other],
    };
    conjuncts
        .iter()
        .enumerate()
        .filter(|(_, c)| {
            if c.has_aggregate() {
                return false;
            }
            let mut cols = Vec::new();
            c.collect_columns(&mut cols);
            cols.iter().all(|col| {
                group_constant(&Scalar::Col(col.clone()), q, classes)
            })
        })
        .map(|(i, _)| i)
        .collect()
}

fn conjunct_list(p: &Pred) -> Vec<Pred> {
    match p {
        Pred::And(cs) => cs.clone(),
        Pred::True => vec![],
        other => vec![other.clone()],
    }
}

/// Normalize a query's WHERE/HAVING split: move every *movable* HAVING
/// conjunct (aggregate-free, over group-constant expressions — a legal,
/// semantics-preserving rewrite) into WHERE. Applying this to **both**
/// queries implements the stage-2 "look-ahead" of §3.1: a condition the
/// user placed in WHERE while the target has it in HAVING (Example 1's
/// `drinker = 'Amy'`), or vice versa, never triggers a misleading hint.
pub fn normalize_split(q: &Query) -> (Pred, Option<Pred>) {
    if q.having.is_none() {
        return (q.where_pred.clone(), None);
    }
    let mut classes = equivalence_classes(q);
    let having = q.having_pred();
    let movable = movable_conjuncts(&having, q, &mut classes);
    let mut where_conjs = conjunct_list(&q.where_pred);
    let mut having_conjs = conjunct_list(&having);
    for &i in movable.iter().rev() {
        let c = having_conjs.remove(i);
        where_conjs.push(c);
    }
    let new_where = Pred::and(where_conjs);
    let new_having = if having_conjs.is_empty() {
        None
    } else {
        Some(Pred::and(having_conjs))
    };
    (new_where, new_having)
}

/// Rewrite the target's split against the working query: both queries
/// are normalized (movable HAVING conjuncts lifted into WHERE), yielding
/// the pair `(target_where, target_having)` the later stages compare
/// against. The working query's normalized split is obtained by calling
/// [`normalize_split`] on it directly.
pub fn rewrite_target_split(q_star: &Query, q: &Query) -> (Pred, Option<Pred>) {
    if !q_star.is_spja() || !q.is_spja() {
        return (q_star.where_pred.clone(), q_star.having.clone());
    }
    normalize_split(q_star)
}

/// Run the WHERE stage: look-ahead rewriting, viability check, repair.
///
/// `domain_ctx` carries per-row domain assertions that hold on every row
/// of `F(Q)` — today the schema's `CHECK` constraints instantiated per
/// FROM alias ([`qrhint_sqlast::Schema::domain_context`]). They enter
/// both the viability check and the repair search as solver context
/// (§3's `IsEquivC`), so equivalences that hold only *under the domain*
/// (e.g. `area <> 'UNKNOWN'` being implied by a CHECK) stop producing
/// spurious hints.
pub fn check_where(
    oracle: &mut Oracle,
    q_star: &Query,
    q: &Query,
    cfg: &RepairConfig,
    domain_ctx: &[Pred],
) -> WhereOutcome {
    let ctx: Vec<&Pred> = domain_ctx.iter().collect();
    let (target_where, target_having) = rewrite_target_split(q_star, q);
    let (working_where, working_having) = if q_star.is_spja() && q.is_spja() {
        normalize_split(q)
    } else {
        (q.where_pred.clone(), q.having.clone())
    };
    if oracle.equiv_pred(&working_where, &target_where, &ctx).is_true() {
        return WhereOutcome {
            viable: true,
            target_where,
            target_having,
            working_where,
            working_having,
            repair: None,
            hints: vec![],
        };
    }
    let outcome = repair_where(oracle, &ctx, &working_where, &target_where, cfg);
    let hints = match &outcome.repair {
        Some(r) => vec![Hint::PredicateRepair {
            clause: ClauseKind::Where,
            sites: r
                .sites
                .iter()
                .zip(&r.fixes)
                .map(|(path, fix)| SiteHint {
                    path: path.clone(),
                    current: working_where.at_path(path).expect("valid site").clone(),
                    fix: fix.clone(),
                })
                .collect(),
            cost: outcome.cost,
        }],
        None => vec![],
    };
    WhereOutcome {
        viable: false,
        target_where,
        target_having,
        working_where,
        working_having,
        repair: Some(outcome),
        hints,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrhint_sqlparse::parse_query;

    #[test]
    fn example1_having_condition_moves_to_where() {
        let q_star = parse_query(
            "SELECT L.beer, S1.bar, COUNT(*)
             FROM Likes L, Frequents F, Serves S1, Serves S2
             WHERE L.drinker = F.drinker AND F.bar = S1.bar
               AND L.beer = S1.beer AND S1.beer = S2.beer
               AND S1.price <= S2.price
             GROUP BY F.drinker, L.beer, S1.bar
             HAVING F.drinker = 'Amy'",
        )
        .unwrap();
        // A working query whose WHERE already has drinker = 'Amy'.
        let q = parse_query(
            "SELECT l.beer, s1.bar, COUNT(*)
             FROM Likes l, Frequents f, Serves s1, Serves s2
             WHERE l.drinker = 'Amy' AND l.drinker = f.drinker AND f.bar = s1.bar
               AND l.beer = s1.beer AND s1.beer = s2.beer
               AND s1.price <= s2.price
             GROUP BY f.drinker, l.beer, s1.bar",
        )
        .unwrap();
        // Unify aliases (trivial mapping l→l etc. — same alias names).
        let mapping = crate::mapping::table_mapping(&q_star, &q).unwrap();
        let unified = crate::mapping::unify_target(&q_star, &mapping);
        let mut oracle = Oracle::for_queries(
            &test_schema(),
            &[&unified, &q],
        );
        let (tw, th) = rewrite_target_split(&unified, &q);
        // The HAVING condition moved into WHERE…
        let printed = tw.to_string();
        assert!(printed.contains("drinker = 'Amy'"), "{printed}");
        // …and the target HAVING became empty/TRUE.
        assert!(th.is_none() || th == Some(Pred::True), "{th:?}");
        // And now V2 passes.
        let out = check_where(&mut oracle, &unified, &q, &RepairConfig::default(), &[]);
        assert!(out.viable);
    }

    fn test_schema() -> qrhint_sqlast::Schema {
        use qrhint_sqlast::SqlType::*;
        qrhint_sqlast::Schema::new()
            .with_table("Likes", &[("drinker", Str), ("beer", Str)], &[])
            .with_table("Frequents", &[("drinker", Str), ("bar", Str)], &[])
            .with_table("Serves", &[("bar", Str), ("beer", Str), ("price", Int)], &[])
    }

    #[test]
    fn simple_where_repair_with_hint() {
        let q_star = parse_query(
            "SELECT s.bar FROM Serves s WHERE s.price >= 3 AND s.beer = 'IPA'",
        )
        .unwrap();
        let q = parse_query(
            "SELECT s.bar FROM Serves s WHERE s.price > 3 AND s.beer = 'IPA'",
        )
        .unwrap();
        let mut oracle = Oracle::for_queries(&test_schema(), &[&q_star, &q]);
        let out = check_where(&mut oracle, &q_star, &q, &RepairConfig::default(), &[]);
        assert!(!out.viable);
        let repair = out.repair.as_ref().unwrap().repair.as_ref().unwrap();
        assert_eq!(repair.sites.len(), 1);
        assert_eq!(repair.sites[0], vec![0]);
        assert_eq!(out.hints.len(), 1);
        assert!(out.hints[0].to_string().contains("s.price > 3"));
    }

    #[test]
    fn where_to_having_move() {
        // Target keeps the condition in WHERE; working query put it in
        // HAVING (legal: grouped column). The rewrite moves the target's
        // conjunct so V2 passes.
        let q_star = parse_query(
            "SELECT s.bar, COUNT(*) FROM Serves s \
             WHERE s.bar = 'Joyce' GROUP BY s.bar",
        )
        .unwrap();
        let q = parse_query(
            "SELECT s.bar, COUNT(*) FROM Serves s \
             GROUP BY s.bar HAVING s.bar = 'Joyce'",
        )
        .unwrap();
        let mut oracle = Oracle::for_queries(&test_schema(), &[&q_star, &q]);
        let out = check_where(&mut oracle, &q_star, &q, &RepairConfig::default(), &[]);
        assert!(out.viable, "target_where = {}", out.target_where);
        // The working query's movable HAVING conjunct was lifted into its
        // WHERE; the residual HAVINGs on both sides are empty.
        assert_eq!(out.working_having, None);
        assert!(out.working_where.to_string().contains("'Joyce'"));
    }

    #[test]
    fn non_group_constant_conditions_do_not_move() {
        // s.price is not grouped: a HAVING-like condition on it cannot
        // legally move (it isn't even valid SQL in HAVING, but the rewrite
        // must not try).
        let q_star = parse_query(
            "SELECT s.bar, COUNT(*) FROM Serves s \
             WHERE s.price > 3 GROUP BY s.bar",
        )
        .unwrap();
        let q = parse_query(
            "SELECT s.bar, COUNT(*) FROM Serves s GROUP BY s.bar",
        )
        .unwrap();
        let (tw, _) = rewrite_target_split(&q_star, &q);
        assert!(tw.to_string().contains("price > 3"));
    }
}
