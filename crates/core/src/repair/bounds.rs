//! `CreateBounds` (Algorithm 2): repair bounds for a predicate given a set
//! of repair sites, and the exact viability test of §5.1.

use crate::oracle::Oracle;
use qrhint_smt::{FormulaId, TriBool};
use qrhint_sqlast::pred::PredPath;
use qrhint_sqlast::Pred;

/// Compute the repair bounds `[P⊥, P⊤]` of `p` for repair sites `sites`:
/// every predicate obtainable by fixing exactly those sites lies within
/// the bounds (Lemma 5.3), and every predicate within the bounds is
/// achievable (Lemma 5.4, proven constructively by `DeriveFixes`).
pub fn create_bounds(p: &Pred, sites: &[PredPath]) -> (Pred, Pred) {
    fn go(p: &Pred, prefix: &mut PredPath, sites: &[PredPath]) -> (Pred, Pred) {
        if sites.iter().any(|s| s == prefix) {
            return (Pred::False, Pred::True);
        }
        if p.is_atomic() {
            return (p.clone(), p.clone());
        }
        match p {
            Pred::And(cs) => {
                let mut lowers = Vec::with_capacity(cs.len());
                let mut uppers = Vec::with_capacity(cs.len());
                for (i, c) in cs.iter().enumerate() {
                    prefix.push(i);
                    let (l, u) = go(c, prefix, sites);
                    prefix.pop();
                    lowers.push(l);
                    uppers.push(u);
                }
                (Pred::and(lowers), Pred::and(uppers))
            }
            Pred::Or(cs) => {
                let mut lowers = Vec::with_capacity(cs.len());
                let mut uppers = Vec::with_capacity(cs.len());
                for (i, c) in cs.iter().enumerate() {
                    prefix.push(i);
                    let (l, u) = go(c, prefix, sites);
                    prefix.pop();
                    lowers.push(l);
                    uppers.push(u);
                }
                (Pred::or(lowers), Pred::or(uppers))
            }
            Pred::Not(c) => {
                prefix.push(0);
                let (l, u) = go(c, prefix, sites);
                prefix.pop();
                (u.negated_nnf(), l.negated_nnf())
            }
            _ => unreachable!("atomic handled above"),
        }
    }
    go(p, &mut Vec::new(), sites)
}

/// Exact viability test: is `target ∈ [lower, upper]` under `ctx`? Only
/// a definitive `True` admits the candidate site set (the paper acts only
/// on positive solver answers). `target` and `ctx` come lowered, since
/// `repair_where` tests one `(target, ctx)` pair against every candidate
/// site set; `upper` is lowered only when `lower` does not already
/// refute the candidate.
pub fn bounds_admit(
    oracle: &mut Oracle,
    lower: &Pred,
    upper: &Pred,
    target: FormulaId,
    ctx: &[FormulaId],
) -> TriBool {
    let lo = oracle.lower_pred(lower);
    match oracle.implies_f(lo, target, ctx) {
        TriBool::False => TriBool::False,
        a => {
            let hi = oracle.lower_pred(upper);
            match oracle.implies_f(target, hi, ctx) {
                TriBool::False => TriBool::False,
                b => a.and(b),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::Oracle;
    use qrhint_sqlparse::parse_pred;

    /// The running Example 5/7 predicate P with node paths:
    /// x1=[] x2=[0] x4=[0,0] x5=[0,1] x8=[0,1,0] x9=[0,1,1]
    /// x3=[1] x6=[1,0] x7=[1,1] x10=[1,1,0] x11=[1,1,1] x12=[1,1,2]
    fn example_p() -> Pred {
        parse_pred(
            "(a = c AND (d <> e OR d > f)) OR (a = c AND (d > 11 OR d < 7 OR e <= 5))",
        )
        .unwrap()
    }

    fn example_p_star() -> Pred {
        parse_pred(
            "(a = c AND (e < 5 OR d > 10 OR d < 7)) OR (a = b AND (d <> e OR d > f))",
        )
        .unwrap()
    }

    #[test]
    fn example7_bounds() {
        // Sites {x4, x10, x12} = {[0,0], [1,1,0], [1,1,2]}.
        let p = example_p();
        let sites = vec![vec![0, 0], vec![1, 1, 0], vec![1, 1, 2]];
        let (lo, hi) = create_bounds(&p, &sites);
        // Paper: lower = A=C ∧ D<7 ; upper = (D≠E ∨ D>F) ∨ A=C.
        let expect_lo = parse_pred("a = c AND d < 7").unwrap();
        let expect_hi = parse_pred("(d <> e OR d > f) OR a = c").unwrap();
        let mut o = Oracle::for_preds(&[&p, &expect_lo, &expect_hi]);
        assert!(o.equiv_pred(&lo, &expect_lo, &[]).is_true(), "lower = {lo}");
        assert!(o.equiv_pred(&hi, &expect_hi, &[]).is_true(), "upper = {hi}");
    }

    #[test]
    fn example7_viability() {
        let p = example_p();
        let p_star = example_p_star();
        let sites = vec![vec![0, 0], vec![1, 1, 0], vec![1, 1, 2]];
        let (lo, hi) = create_bounds(&p, &sites);
        let mut o = Oracle::for_preds(&[&p, &p_star]);
        let target = o.lower_pred(&p_star);
        assert!(bounds_admit(&mut o, &lo, &hi, target, &[]).is_true());
        // A site set that cannot reach P★: only x11 (D<7) — the bound
        // pins everything else.
        let bad = vec![vec![1, 1, 1]];
        let (lo2, hi2) = create_bounds(&p, &bad);
        assert!(bounds_admit(&mut o, &lo2, &hi2, target, &[]).is_false());
    }

    #[test]
    fn site_at_root_gives_trivial_bounds() {
        let p = example_p();
        let (lo, hi) = create_bounds(&p, &[vec![]]);
        assert_eq!(lo, Pred::False);
        assert_eq!(hi, Pred::True);
    }

    #[test]
    fn no_sites_pins_exactly() {
        let p = example_p();
        let (lo, hi) = create_bounds(&p, &[]);
        assert_eq!(lo, p);
        assert_eq!(hi, p);
    }

    #[test]
    fn not_node_swaps_bounds() {
        let p = parse_pred("NOT (a = 1 AND b = 2)").unwrap();
        // Site at the inner a=1: [0, 0].
        let (lo, hi) = create_bounds(&p, &[vec![0, 0]]);
        // Lower: ¬(true ∧ b=2) = b≠2 ; upper: ¬(false ∧ b=2) = ¬false = true.
        let mut o = Oracle::for_preds(&[&p]);
        let expect_lo = parse_pred("b <> 2").unwrap();
        assert!(o.equiv_pred(&lo, &expect_lo, &[]).is_true(), "lower = {lo}");
        assert!(o.equiv_pred(&hi, &Pred::True, &[]).is_true(), "upper = {hi}");
    }

    #[test]
    fn lemma_5_3_random_repairs_fall_in_bounds() {
        // Structured check of Lemma 5.3: apply a handful of repairs at the
        // example sites and verify containment.
        let p = example_p();
        let sites = vec![vec![0, 0], vec![1, 1, 0], vec![1, 1, 2]];
        let (lo, hi) = create_bounds(&p, &sites);
        let fixes = [
            ["a = b", "d > 10", "e < 5"],
            ["TRUE", "FALSE", "a = c"],
            ["d > f", "e <= 5", "d <> e"],
        ];
        for trio in fixes {
            let repair = super::super::Repair {
                sites: sites.clone(),
                fixes: trio.iter().map(|s| parse_pred(s).unwrap()).collect(),
            };
            let applied = repair.apply(&p);
            let mut o = Oracle::for_preds(&[&p, &applied]);
            assert!(
                o.implies_pred(&lo, &applied, &[]).is_true(),
                "lower bound violated for {trio:?}"
            );
            assert!(
                o.implies_pred(&applied, &hi, &[]).is_true(),
                "upper bound violated for {trio:?}"
            );
        }
    }
}
