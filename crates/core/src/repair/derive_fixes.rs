//! `DeriveFixes` (Algorithm 3): push target bounds down the predicate tree
//! and synthesize a fix for every repair site, plus `DistributeFixes` for
//! sibling sites combined under one `∧`/`∨` parent.

use super::bounds::create_bounds;
use super::minfix::{min_fix, NormalForm};
use crate::oracle::Oracle;
use qrhint_sqlast::pred::PredPath;
use qrhint_sqlast::Pred;
use std::collections::BTreeSet;

/// Restrict global site paths to those under child `i`, re-rooted.
fn sites_under(sites: &[PredPath], i: usize) -> Vec<PredPath> {
    sites
        .iter()
        .filter(|s| s.first() == Some(&i))
        .map(|s| s[1..].to_vec())
        .collect()
}

/// Derive fixes for `sites` (paths relative to `x`) achieving the target
/// bound `[l_star, u_star]`. Returns one `(site, fix)` pair per site.
///
/// Precondition: the target bound is within `create_bounds(x, sites)` —
/// callers establish this via the §5.1 viability test. Under that
/// precondition, applying the returned fixes lands `x` inside
/// `[l_star, u_star]` (Lemma 5.4).
pub fn derive_fixes(
    oracle: &mut Oracle,
    ctx: &[&Pred],
    x: &Pred,
    sites: &[PredPath],
    l_star: &Pred,
    u_star: &Pred,
) -> Vec<(PredPath, Pred)> {
    if sites.iter().any(|s| s.is_empty()) {
        // The whole subtree is a repair site.
        return vec![(vec![], min_fix(oracle, ctx, l_star, u_star, NormalForm::Dnf))];
    }
    if x.is_atomic() {
        return vec![];
    }
    match x {
        Pred::Not(c) => {
            let child_sites = sites_under(sites, 0);
            let rec = derive_fixes(
                oracle,
                ctx,
                c,
                &child_sites,
                &u_star.negated_nnf(),
                &l_star.negated_nnf(),
            );
            rec.into_iter()
                .map(|(mut path, fix)| {
                    path.insert(0, 0);
                    (path, fix)
                })
                .collect()
        }
        Pred::And(cs) | Pred::Or(cs) => {
            let is_and = matches!(x, Pred::And(_));
            // Repair bounds per child.
            let child_sites: Vec<Vec<PredPath>> =
                (0..cs.len()).map(|i| sites_under(sites, i)).collect();
            let child_bounds: Vec<(Pred, Pred)> = cs
                .iter()
                .zip(&child_sites)
                .map(|(c, s)| create_bounds(c, s))
                .collect();
            // Children that are repair sites themselves get combined into
            // one virtual element `r` (∧/∨ are commutative).
            let r_children: Vec<usize> = (0..cs.len())
                .filter(|i| sites.iter().any(|s| s.len() == 1 && s[0] == *i))
                .collect();

            // Elements: Some(i) for a regular child, None for `r`.
            let mut elements: Vec<Option<usize>> = (0..cs.len())
                .filter(|i| !r_children.contains(i))
                .map(Some)
                .collect();
            if !r_children.is_empty() {
                elements.push(None);
            }
            let bound_of = |e: &Option<usize>| -> (Pred, Pred) {
                match e {
                    Some(i) => child_bounds[*i].clone(),
                    None => (Pred::False, Pred::True),
                }
            };

            let mut out: Vec<(PredPath, Pred)> = Vec::new();
            for e in &elements {
                // Skip elements with nothing to repair.
                let has_sites = match e {
                    Some(i) => !child_sites[*i].is_empty(),
                    None => true,
                };
                if !has_sites {
                    continue;
                }
                let (l_e, u_e) = bound_of(e);
                // Combine the bounds of all *other* elements.
                let others: Vec<(Pred, Pred)> = elements
                    .iter()
                    .filter(|o| *o != e)
                    .map(&bound_of)
                    .collect();
                let (l_other, u_other) = if is_and {
                    (
                        Pred::and(others.iter().map(|(l, _)| l.clone()).collect()),
                        Pred::and(others.iter().map(|(_, u)| u.clone()).collect()),
                    )
                } else {
                    (
                        Pred::or(others.iter().map(|(l, _)| l.clone()).collect()),
                        Pred::or(others.iter().map(|(_, u)| u.clone()).collect()),
                    )
                };
                // Target bound for this element (§C.1.1).
                let (l_t, u_t) = if is_and {
                    (
                        l_star.clone(),
                        Pred::and(vec![
                            u_e,
                            Pred::or(vec![u_star.clone(), u_other.negated_nnf()]),
                        ]),
                    )
                } else {
                    (
                        Pred::or(vec![
                            l_e,
                            Pred::and(vec![l_star.clone(), l_other.negated_nnf()]),
                        ]),
                        u_star.clone(),
                    )
                };
                match e {
                    Some(i) => {
                        let rec =
                            derive_fixes(oracle, ctx, &cs[*i], &child_sites[*i], &l_t, &u_t);
                        out.extend(rec.into_iter().map(|(mut path, fix)| {
                            path.insert(0, *i);
                            (path, fix)
                        }));
                    }
                    None => {
                        let form = if is_and { NormalForm::Cnf } else { NormalForm::Dnf };
                        let fix = min_fix(oracle, ctx, &l_t, &u_t, form);
                        let originals: Vec<&Pred> =
                            r_children.iter().map(|&i| &cs[i]).collect();
                        let distributed = distribute_fixes(&fix, &originals, is_and);
                        for (&i, f) in r_children.iter().zip(distributed) {
                            out.push((vec![i], f));
                        }
                    }
                }
            }
            out
        }
        _ => unreachable!("atomic handled above"),
    }
}

/// Split a combined fix (CNF under `∧`, DNF under `∨`) across the sibling
/// repair sites by syntactic similarity with the sites' original subtrees
/// (§5.2 `DistributeFixes`). Sites receiving no clause get the operator's
/// neutral element.
pub fn distribute_fixes(fix: &Pred, originals: &[&Pred], is_and: bool) -> Vec<Pred> {
    let clauses: Vec<Pred> = match (fix, is_and) {
        (Pred::And(cs), true) | (Pred::Or(cs), false) => cs.clone(),
        _ => vec![fix.clone()],
    };
    let atom_set = |p: &Pred| -> BTreeSet<String> {
        p.atoms().iter().map(|a| a.to_string()).collect()
    };
    let site_atoms: Vec<BTreeSet<String>> = originals.iter().map(|p| atom_set(p)).collect();
    let mut buckets: Vec<Vec<Pred>> = vec![Vec::new(); originals.len()];
    for (ci, clause) in clauses.into_iter().enumerate() {
        let ca = atom_set(&clause);
        let best = (0..originals.len())
            .max_by_key(|&i| {
                let overlap = site_atoms[i].intersection(&ca).count();
                // Tie-break: spread clauses round-robin over empty buckets.
                (overlap, usize::from(buckets[i].is_empty()), usize::MAX - i - ci % originals.len())
            })
            .unwrap_or(0);
        buckets[best].push(clause);
    }
    buckets
        .into_iter()
        .map(|clauses| {
            if clauses.is_empty() {
                if is_and {
                    Pred::True
                } else {
                    Pred::False
                }
            } else if is_and {
                Pred::and(clauses)
            } else {
                Pred::or(clauses)
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repair::bounds::bounds_admit;
    use crate::repair::Repair;
    use qrhint_sqlparse::parse_pred;

    fn check_repair(p_sql: &str, p_star_sql: &str, sites: Vec<PredPath>) {
        let p = parse_pred(p_sql).unwrap();
        let p_star = parse_pred(p_star_sql).unwrap();
        let mut o = Oracle::for_preds(&[&p, &p_star]);
        let (lo, hi) = create_bounds(&p, &sites);
        let target = o.lower_pred(&p_star);
        assert!(
            bounds_admit(&mut o, &lo, &hi, target, &[]).is_true(),
            "sites not viable for this test"
        );
        let fixes = derive_fixes(&mut o, &[], &p, &sites, &p_star, &p_star);
        assert_eq!(fixes.len(), sites.len(), "one fix per site: {fixes:?}");
        let mut ordered = Vec::new();
        for s in &sites {
            let fix = fixes
                .iter()
                .find(|(path, _)| path == s)
                .unwrap_or_else(|| panic!("no fix for site {s:?} in {fixes:?}"))
                .1
                .clone();
            ordered.push(fix);
        }
        let repair = Repair { sites: sites.clone(), fixes: ordered };
        let applied = repair.apply(&p);
        assert!(
            o.equiv_pred(&applied, &p_star, &[]).is_true(),
            "applied repair {applied} not equivalent to {p_star}"
        );
    }

    #[test]
    fn single_atom_site_in_conjunction() {
        check_repair(
            "a = 1 AND b = 2 AND c = 3",
            "a = 1 AND b = 5 AND c = 3",
            vec![vec![1]],
        );
    }

    #[test]
    fn single_atom_site_in_disjunction() {
        check_repair("a = 1 OR b = 2", "a = 1 OR b = 5", vec![vec![1]]);
    }

    #[test]
    fn root_site_is_whole_replacement() {
        check_repair("a = 1", "b = 2 AND c = 3", vec![vec![]]);
    }

    #[test]
    fn site_under_negation() {
        check_repair("NOT (a = 1 OR b = 2)", "NOT (a = 5 OR b = 2)", vec![vec![0, 0]]);
    }

    #[test]
    fn paper_example5_sites_yield_correct_repair() {
        // Sites {x4, x10, x12}; DeriveFixes finds a correct (if not
        // minimal) repair — Lemma 5.4.
        check_repair(
            "(a = c AND (d <> e OR d > f)) OR (a = c AND (d > 11 OR d < 7 OR e <= 5))",
            "(a = c AND (e < 5 OR d > 10 OR d < 7)) OR (a = b AND (d <> e OR d > f))",
            vec![vec![0, 0], vec![1, 1, 0], vec![1, 1, 2]],
        );
    }

    #[test]
    fn sibling_sites_combined_and_distributed() {
        // Two sites under the same OR parent (x10, x12 analogue).
        check_repair(
            "a = 1 OR b = 2 OR c = 3",
            "a = 1 OR b = 7 OR c = 9",
            vec![vec![1], vec![2]],
        );
        // Two sites under the same AND parent → CNF distribution.
        check_repair(
            "a = 1 AND b = 2 AND c = 3",
            "a = 1 AND b = 7 AND c = 9",
            vec![vec![1], vec![2]],
        );
    }

    #[test]
    fn mixed_site_depths() {
        check_repair(
            "(a = 1 AND b = 2) OR (c = 3 AND d = 4)",
            "(a = 1 AND b = 9) OR (c = 3 AND d = 4)",
            vec![vec![0, 1]],
        );
    }

    #[test]
    fn distribute_fixes_by_similarity() {
        let fix = parse_pred("b = 7 OR c = 9").unwrap();
        let b_orig = parse_pred("b = 2").unwrap();
        let c_orig = parse_pred("c = 3").unwrap();
        let parts = distribute_fixes(&fix, &[&b_orig, &c_orig], false);
        assert_eq!(parts[0], parse_pred("b = 7").unwrap());
        assert_eq!(parts[1], parse_pred("c = 9").unwrap());
        // A site with no matching clause gets the neutral element.
        let fix2 = parse_pred("b = 7").unwrap();
        let parts2 = distribute_fixes(&fix2, &[&b_orig, &c_orig], false);
        assert_eq!(parts2[0], parse_pred("b = 7").unwrap());
        assert_eq!(parts2[1], Pred::False);
        // CNF distribution uses TRUE as the neutral element.
        let fix3 = parse_pred("b = 7").unwrap();
        let parts3 = distribute_fixes(&fix3, &[&b_orig, &c_orig], true);
        assert_eq!(parts3[1], Pred::True);
    }
}
