//! The SELECT stage (§8): `FixSelect` (Algorithm 9) — positional
//! equivalence of output expressions under the WHERE (SPJ) or HAVING
//! (SPJA) context.

use crate::hint::Hint;
use crate::oracle::{LowerEnv, Oracle};
use qrhint_smt::{FormulaId, Rel};
use qrhint_sqlast::{Query, Scalar};

/// Outcome of `FixSelect`: positions (0-based) to replace/remove in the
/// working SELECT and positions of the target SELECT to add.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SelectOutcome {
    pub viable: bool,
    /// Mismatched or extraneous working positions (Δ−).
    pub remove: Vec<usize>,
    /// Target positions to add/substitute (Δ+).
    pub add: Vec<usize>,
}

impl SelectOutcome {
    /// Render hints.
    pub fn hints(&self, working: &[Scalar]) -> Vec<Hint> {
        let mut out = Vec::new();
        let common: Vec<usize> =
            self.remove.iter().copied().filter(|i| self.add.contains(i)).collect();
        for &i in &common {
            out.push(Hint::SelectReplace { position: i + 1, current: working[i].clone() });
        }
        for &i in &self.remove {
            if !common.contains(&i) {
                out.push(Hint::SelectRemove { position: i + 1, current: working[i].clone() });
            }
        }
        let missing = self.add.iter().filter(|i| !common.contains(i)).count();
        if missing > 0 {
            out.push(Hint::SelectMissing { count: missing });
        }
        out
    }
}

/// Algorithm 9. The oracle's ambient state must already carry the
/// stage-appropriate context (WHERE facts for SPJ; the HAVING context for
/// SPJA — the pipeline installs it).
pub fn fix_select(
    oracle: &mut Oracle,
    env: &LowerEnv,
    working: &[Scalar],
    target: &[Scalar],
) -> SelectOutcome {
    let n = working.len().min(target.len());
    let mut remove = Vec::new();
    let mut add = Vec::new();
    // Position i is equivalent iff `ctx ∧ e1ᵢ ≠ e2ᵢ` is unsatisfiable.
    // Every position is lowered before the first check, so all checks
    // see the same shared variable pool.
    let nes: Vec<FormulaId> = (0..n)
        .map(|i| {
            let t1 = oracle.lower_scalar_env(&working[i], env);
            let t2 = oracle.lower_scalar_env(&target[i], env);
            oracle.cmp_f(t1, Rel::Ne, t2)
        })
        .collect();
    oracle.counters.equiv_batches += 1;
    oracle.counters.equiv_batch_candidates += n as u64;
    for (i, &ne) in nes.iter().enumerate() {
        if !oracle.unsat_f(ne, &[]).is_true() {
            remove.push(i);
            add.push(i);
        }
    }
    for (i, _) in working.iter().enumerate().skip(n) {
        remove.push(i);
    }
    for (i, _) in target.iter().enumerate().skip(n) {
        add.push(i);
    }
    SelectOutcome { viable: remove.is_empty() && add.is_empty(), remove, add }
}

/// Simulate applying the fix: substitute mismatched positions with the
/// target expression, drop extras, append missing.
pub fn apply_select_fix(q: &Query, target: &[Scalar], outcome: &SelectOutcome) -> Query {
    let mut fixed = q.clone();
    let mut select: Vec<qrhint_sqlast::SelectItem> = Vec::new();
    for (i, item) in q.select.iter().enumerate() {
        if outcome.remove.contains(&i) {
            if i < target.len() && outcome.add.contains(&i) {
                select.push(qrhint_sqlast::SelectItem::expr(target[i].clone()));
            }
            // else: dropped entirely
        } else {
            select.push(item.clone());
        }
    }
    for &i in &outcome.add {
        if i >= q.select.len() {
            select.push(qrhint_sqlast::SelectItem::expr(target[i].clone()));
        }
    }
    fixed.select = select;
    fixed
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrhint_smt::Formula;
    use qrhint_sqlast::{ColRef, Pred};
    use qrhint_sqlparse::{parse_pred, parse_scalar};
    use std::collections::BTreeSet;

    fn scalars(list: &[&str]) -> Vec<Scalar> {
        list.iter().map(|s| parse_scalar(s).unwrap()).collect()
    }

    #[test]
    fn identical_lists_are_viable() {
        let mut oracle = Oracle::for_preds(&[]);
        let out = fix_select(
            &mut oracle,
            &LowerEnv::plain(),
            &scalars(&["t.a", "COUNT(*)"]),
            &scalars(&["t.a", "COUNT(*)"]),
        );
        assert!(out.viable);
    }

    #[test]
    fn where_context_excuses_renamed_columns() {
        // Example 1's SELECT subtlety: s2.beer vs likes.beer under
        // WHERE likes.beer = s2.beer — no spurious hint.
        let p = parse_pred("likes.beer = s2.beer").unwrap();
        let mut oracle = Oracle::for_preds(&[&p]);
        let ctx = oracle.lower_pred(&p);
        oracle.set_ambient(LowerEnv::plain(), vec![ctx]);
        let out = fix_select(
            &mut oracle,
            &LowerEnv::plain(),
            &scalars(&["s2.beer"]),
            &scalars(&["likes.beer"]),
        );
        assert!(out.viable, "{out:?}");
        oracle.clear_ambient();
        // Without the context the expressions differ.
        let mut oracle2 = Oracle::for_preds(&[&p]);
        let out2 = fix_select(
            &mut oracle2,
            &LowerEnv::plain(),
            &scalars(&["s2.beer"]),
            &scalars(&["likes.beer"]),
        );
        assert!(!out2.viable);
    }

    #[test]
    fn positional_mismatch_detected() {
        let mut oracle = Oracle::for_preds(&[]);
        let working = scalars(&["t.a", "t.b"]);
        let out = fix_select(
            &mut oracle,
            &LowerEnv::plain(),
            &working,
            &scalars(&["t.b", "t.a"]),
        );
        assert_eq!(out.remove, vec![0, 1]);
        assert_eq!(out.add, vec![0, 1]);
        let hints = out.hints(&working);
        assert_eq!(hints.len(), 2);
        assert!(hints.iter().all(|h| matches!(h, Hint::SelectReplace { .. })));
    }

    #[test]
    fn arity_mismatches() {
        let mut oracle = Oracle::for_preds(&[]);
        // Extra column.
        let working = scalars(&["t.a", "t.b"]);
        let out = fix_select(&mut oracle, &LowerEnv::plain(), &working, &scalars(&["t.a"]));
        assert_eq!(out.remove, vec![1]);
        assert!(out.add.is_empty());
        assert!(matches!(out.hints(&working)[0], Hint::SelectRemove { position: 2, .. }));
        // Missing column.
        let working2 = scalars(&["t.a"]);
        let out2 =
            fix_select(&mut oracle, &LowerEnv::plain(), &working2, &scalars(&["t.a", "t.b"]));
        assert!(out2.remove.is_empty());
        assert_eq!(out2.add, vec![1]);
        assert!(matches!(out2.hints(&working2)[0], Hint::SelectMissing { count: 1 }));
    }

    #[test]
    fn aggregate_equivalence_in_select() {
        // 2*SUM(d) vs SUM(d*2) with aggregate canonicalization.
        let mut oracle = Oracle::for_preds(&[]);
        let out = fix_select(
            &mut oracle,
            &LowerEnv::plain(),
            &scalars(&["SUM(s.d * 2)"]),
            &scalars(&["2 * SUM(s.d)"]),
        );
        assert!(out.viable, "{out:?}");
        // COUNT(*) vs COUNT(*)+1 differs (footnote 1's wrong hint).
        let out2 = fix_select(
            &mut oracle,
            &LowerEnv::plain(),
            &scalars(&["COUNT(*)"]),
            &scalars(&["COUNT(*) + 1"]),
        );
        assert!(!out2.viable);
    }

    #[test]
    fn grouped_env_collapses_aggregates() {
        let grouped: BTreeSet<ColRef> = [ColRef::new("t", "a")].into_iter().collect();
        let env = LowerEnv::grouped(grouped);
        let mut oracle = Oracle::for_preds(&[]);
        let out = fix_select(
            &mut oracle,
            &env,
            &scalars(&["MIN(t.a)"]),
            &scalars(&["t.a"]),
        );
        assert!(out.viable, "{out:?}");
    }

    #[test]
    fn apply_fix_yields_viable_select() {
        let mut oracle = Oracle::for_preds(&[]);
        let target = scalars(&["t.a", "COUNT(*)"]);
        let q = qrhint_sqlast::Query {
            distinct: false,
            select: vec![
                qrhint_sqlast::SelectItem::expr(parse_scalar("t.b").unwrap()),
                qrhint_sqlast::SelectItem::expr(parse_scalar("COUNT(*)").unwrap()),
                qrhint_sqlast::SelectItem::expr(parse_scalar("t.c").unwrap()),
            ],
            from: vec![qrhint_sqlast::TableRef::plain("T")],
            where_pred: Pred::True,
            group_by: vec![parse_scalar("t.a").unwrap()],
            having: None,
        };
        let working: Vec<Scalar> = q.select.iter().map(|s| s.expr.clone()).collect();
        let out = fix_select(&mut oracle, &LowerEnv::plain(), &working, &target);
        let fixed = apply_select_fix(&q, &target, &out);
        let fixed_exprs: Vec<Scalar> = fixed.select.iter().map(|s| s.expr.clone()).collect();
        let out2 = fix_select(&mut oracle, &LowerEnv::plain(), &fixed_exprs, &target);
        assert!(out2.viable, "{out2:?} for {fixed_exprs:?}");
        let _ = Formula::True;
    }
}
