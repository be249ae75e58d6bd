//! The GROUP BY stage (§6): `FixGrouping` (Algorithm 4) — the two-tuple
//! encoding of grouping equivalence, computing a strongly minimal Δ− and
//! weakly minimal Δ+ (Lemma 6.2).

use crate::hint::Hint;
use crate::oracle::{LowerEnv, Oracle};
use qrhint_smt::TriBool;
use qrhint_sqlast::{ColRef, Pred, Query, Scalar};
use std::collections::BTreeSet;

/// Outcome of `FixGrouping`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupByOutcome {
    /// Both Δ− and Δ+ empty.
    pub viable: bool,
    /// Indices into the working GROUP BY list that must be removed (Δ−).
    pub remove: Vec<usize>,
    /// Indices into the target GROUP BY list that must be added (Δ+).
    pub add: Vec<usize>,
}

impl GroupByOutcome {
    /// Render the stage hints: Δ− expressions are revealed ("must-fix",
    /// strong minimality); Δ+ is only counted (weak minimality).
    pub fn hints(&self, working_group_by: &[Scalar]) -> Vec<Hint> {
        let mut out: Vec<Hint> = self
            .remove
            .iter()
            .map(|&i| Hint::GroupByRemove { expr: working_group_by[i].clone() })
            .collect();
        if !self.add.is_empty() {
            out.push(Hint::GroupByMissing { count: self.add.len() });
        }
        out
    }
}

/// The set of group-constant columns of a query: plain columns listed in
/// GROUP BY (used by the HAVING/SELECT stages' lowering environment).
pub fn grouped_columns(group_by: &[Scalar]) -> BTreeSet<ColRef> {
    group_by
        .iter()
        .filter_map(|g| match g {
            Scalar::Col(c) => Some(c.clone()),
            _ => None,
        })
        .collect()
}

/// `FixGrouping(P, ®o, ®o★)` (Algorithm 4). `p` is the (already unified
/// and equivalent) WHERE predicate; `o` / `o_star` the GROUP BY
/// expression lists of the working and target queries.
pub fn fix_grouping(
    oracle: &mut Oracle,
    p: &Pred,
    o: &[Scalar],
    o_star: &[Scalar],
) -> GroupByOutcome {
    let env1 = LowerEnv::tuple(1);
    let env2 = LowerEnv::tuple(2);
    // P[t1] ∧ P[t2]
    let p1 = oracle.lower_pred_env(p, &env1);
    let p2 = oracle.lower_pred_env(p, &env2);
    let both = oracle.and_f(vec![p1, p2]);

    // All tag-equality pairs up front, one lock acquisition per list
    // (target first, then working — the same first-use lowering order
    // as building G★ and then walking Δ−).
    let star_pairs = oracle.tuple_eq_formulas(o_star, &env1, &env2);
    let o_pairs = oracle.tuple_eq_formulas(o, &env1, &env2);

    // G★ = ∧_i o★_i[t1] = o★_i[t2]
    let g_star = oracle.and_f(star_pairs.iter().map(|(eq, _)| *eq).collect());

    // Δ−: o_i is wrong if two tuples grouped together by ®o★ can be split
    // by o_i: every candidate `ne` is checked under the one context
    // `P[t1] ∧ P[t2] ∧ G★`.
    let mut remove = Vec::new();
    oracle.counters.equiv_batches += 1;
    oracle.counters.equiv_batch_candidates += o_pairs.len() as u64;
    for (i, (_, ne)) in o_pairs.iter().enumerate() {
        if oracle.sat_f(*ne, &[both, g_star]) == TriBool::True {
            remove.push(i);
        }
    }

    // G = ∧ of kept working expressions.
    let mut g = oracle.and_f(
        o_pairs
            .iter()
            .enumerate()
            .filter(|(i, _)| !remove.contains(i))
            .map(|(_, (eq, _))| *eq)
            .collect(),
    );

    // Δ+: o★_i must be added if two tuples grouped together by G can be
    // split by o★_i; after adding, G is strengthened with its equality.
    let mut add = Vec::new();
    for (i, (eq, ne)) in star_pairs.iter().enumerate() {
        let q = oracle.and_f(vec![both, g, *ne]);
        if oracle.sat_f(q, &[]) == TriBool::True {
            add.push(i);
            g = oracle.and_f(vec![g, *eq]);
        }
    }

    GroupByOutcome { viable: remove.is_empty() && add.is_empty(), remove, add }
}

/// Simulate applying the fix: drop Δ− entries, append the Δ+ target
/// expressions.
pub fn apply_grouping_fix(q: &Query, o_star: &[Scalar], outcome: &GroupByOutcome) -> Query {
    let mut fixed = q.clone();
    fixed.group_by = q
        .group_by
        .iter()
        .enumerate()
        .filter(|(i, _)| !outcome.remove.contains(i))
        .map(|(_, e)| e.clone())
        .collect();
    for &i in &outcome.add {
        fixed.group_by.push(o_star[i].clone());
    }
    fixed
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrhint_sqlparse::{parse_pred, parse_scalar};

    fn scalars(list: &[&str]) -> Vec<Scalar> {
        list.iter().map(|s| parse_scalar(s).unwrap()).collect()
    }

    #[test]
    fn example_6_1_equivalent_groupings() {
        // Q★: GROUP BY B, D ; Q: GROUP BY C+D, C under WHERE B=C.
        let p = parse_pred("r.b = s.c").unwrap();
        let o_star = scalars(&["r.b", "s.d"]);
        let o = scalars(&["s.c + s.d", "s.c"]);
        let mut oracle = Oracle::for_preds(&[&p]);
        let out = fix_grouping(&mut oracle, &p, &o, &o_star);
        assert!(out.viable, "{out:?}");
    }

    #[test]
    fn order_and_duplicates_do_not_matter() {
        let p = Pred::True;
        let o_star = scalars(&["t.a", "t.b"]);
        let o = scalars(&["t.b", "t.a", "t.a"]);
        let mut oracle = Oracle::for_preds(&[]);
        let out = fix_grouping(&mut oracle, &p, &o, &o_star);
        assert!(out.viable, "{out:?}");
    }

    #[test]
    fn wrong_expression_lands_in_delta_minus() {
        // Working groups by t.c which splits groups that ®o★ = [t.a]
        // keeps together.
        let p = Pred::True;
        let o_star = scalars(&["t.a"]);
        let o = scalars(&["t.a", "t.c"]);
        let mut oracle = Oracle::for_preds(&[]);
        let out = fix_grouping(&mut oracle, &p, &o, &o_star);
        assert_eq!(out.remove, vec![1]);
        assert!(out.add.is_empty());
        let hints = out.hints(&o);
        assert_eq!(hints.len(), 1);
        assert!(hints[0].to_string().contains("t.c"));
    }

    #[test]
    fn missing_expression_lands_in_delta_plus() {
        let p = Pred::True;
        let o_star = scalars(&["t.a", "t.b"]);
        let o = scalars(&["t.a"]);
        let mut oracle = Oracle::for_preds(&[]);
        let out = fix_grouping(&mut oracle, &p, &o, &o_star);
        assert!(out.remove.is_empty());
        assert_eq!(out.add, vec![1]);
        let hints = out.hints(&o);
        assert!(hints[0].to_string().contains("missing an expression"));
    }

    #[test]
    fn where_equalities_excuse_renamed_columns() {
        // GROUP BY t.a vs GROUP BY s.b is fine under WHERE t.a = s.b.
        let p = parse_pred("t.a = s.b").unwrap();
        let o_star = scalars(&["t.a"]);
        let o = scalars(&["s.b"]);
        let mut oracle = Oracle::for_preds(&[&p]);
        let out = fix_grouping(&mut oracle, &p, &o, &o_star);
        assert!(out.viable, "{out:?}");
        // Without the equality they differ.
        let mut oracle2 = Oracle::for_preds(&[]);
        let out2 = fix_grouping(&mut oracle2, &Pred::True, &o, &o_star);
        assert!(!out2.viable);
        assert_eq!(out2.remove, vec![0]);
        assert_eq!(out2.add, vec![0]);
    }

    #[test]
    fn spurious_grouping_by_constant_like_expression() {
        // Grouping by an expression that is constant under WHERE (t.a = 5)
        // partitions nothing: equivalent to not grouping by it.
        let p = parse_pred("t.a = 5").unwrap();
        let o_star: Vec<Scalar> = scalars(&["t.b"]);
        let o = scalars(&["t.b", "t.a"]);
        let mut oracle = Oracle::for_preds(&[&p]);
        let out = fix_grouping(&mut oracle, &p, &o, &o_star);
        assert!(out.viable, "constant column grouping is harmless: {out:?}");
    }

    #[test]
    fn grouped_columns_extraction() {
        let g = grouped_columns(&scalars(&["t.a", "t.b + 1", "s.c"]));
        assert!(g.contains(&ColRef::new("t", "a")));
        assert!(g.contains(&ColRef::new("s", "c")));
        assert_eq!(g.len(), 2);
    }

    #[test]
    fn apply_fix_roundtrip() {
        let p = Pred::True;
        let o_star = scalars(&["t.a", "t.b"]);
        let o = scalars(&["t.c"]);
        let mut oracle = Oracle::for_preds(&[]);
        let out = fix_grouping(&mut oracle, &p, &o, &o_star);
        let q = qrhint_sqlast::Query {
            distinct: false,
            select: vec![qrhint_sqlast::SelectItem::expr(parse_scalar("COUNT(*)").unwrap())],
            from: vec![qrhint_sqlast::TableRef::plain("T")],
            where_pred: Pred::True,
            group_by: o.clone(),
            having: None,
        };
        let fixed = apply_grouping_fix(&q, &o_star, &out);
        let mut oracle2 = Oracle::for_preds(&[]);
        let out2 = fix_grouping(&mut oracle2, &p, &fixed.group_by, &o_star);
        assert!(out2.viable, "after applying the fix grouping must be viable");
    }
}
