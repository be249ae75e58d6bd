//! `MinFixMult` — the optimized multi-site fix derivation
//! (`DeriveFixesOPT`, Algorithms 7–8 in Appendix C.2).
//!
//! Instead of deriving target bounds for each site independently (which
//! loses optimality when sites have different parents, Example 8),
//! `MinFixMult` builds a *consistency/feasibility table*: for every truth
//! assignment of the non-site atoms it records which combinations of site
//! truth values keep the whole predicate consistent with the target.
//! Sites are then fixed one at a time — most-constrained first
//! (`PickSite`) — each minimized with maximal don't-care freedom, and the
//! feasibility table is narrowed after each choice
//! (`UpdateFeasibility`).

use super::minfix::{build_truth_table, AtomMap, MAX_MINFIX_ATOMS};
use crate::oracle::Oracle;
use qrhint_boolmin::{minimize, Out, TruthTable};
use qrhint_sqlast::pred::PredPath;
use qrhint_sqlast::Pred;

/// Cap on the number of repair sites (2^k site-assignments are tabulated
/// per row).
pub const MAX_SITES: usize = 6;

/// Evaluate `x` with sites replaced by Boolean site-variables: `row`
/// assigns the mapped atoms, `site_bits` assigns the sites.
fn eval_with_sites(
    x: &Pred,
    prefix: &mut PredPath,
    sites: &[PredPath],
    map: &AtomMap,
    row: u32,
    site_bits: u32,
) -> bool {
    if let Some(si) = sites.iter().position(|s| s == prefix) {
        return site_bits & (1 << si) != 0;
    }
    match x {
        Pred::True => true,
        Pred::False => false,
        Pred::And(cs) => {
            let mut all = true;
            for (i, c) in cs.iter().enumerate() {
                prefix.push(i);
                let v = eval_with_sites(c, prefix, sites, map, row, site_bits);
                prefix.pop();
                if !v {
                    all = false;
                    // Keep iterating for uniform cost; small trees anyway.
                }
            }
            all
        }
        Pred::Or(cs) => {
            let mut any = false;
            for (i, c) in cs.iter().enumerate() {
                prefix.push(i);
                let v = eval_with_sites(c, prefix, sites, map, row, site_bits);
                prefix.pop();
                if v {
                    any = true;
                }
            }
            any
        }
        Pred::Not(c) => {
            prefix.push(0);
            let v = eval_with_sites(c, prefix, sites, map, row, site_bits);
            prefix.pop();
            !v
        }
        atom => map.eval(atom, row),
    }
}

/// Feasibility map: for each atom row, either `None` (don't-care /
/// infeasible row) or the set of still-allowed site assignments (bitmask
/// over 2^k encoded as a u64 set).
type Feasibility = Vec<Option<u64>>;

/// Compute optimal-ish fixes for multiple sites holistically. Returns
/// `None` when the instance exceeds resource caps or some row has no
/// feasible site assignment (callers fall back to `derive_fixes`).
pub fn min_fix_mult(
    oracle: &mut Oracle,
    ctx: &[&Pred],
    x: &Pred,
    sites: &[PredPath],
    l_star: &Pred,
    u_star: &Pred,
) -> Option<Vec<(PredPath, Pred)>> {
    let k = sites.len();
    if k == 0 || k > MAX_SITES {
        return None;
    }
    // ---- Atoms: non-site atoms of x plus the atoms of the bounds ----
    let mut map = AtomMap::default();
    // Collect the atoms of x that are *not* inside any site subtree
    // (the `U` set of Algorithm 7).
    fn absorb_frozen(
        x: &Pred,
        prefix: &mut PredPath,
        sites: &[PredPath],
        map: &mut AtomMap,
        oracle: &mut Oracle,
        ctx: &[&Pred],
    ) {
        if sites.iter().any(|s| s == prefix) {
            return;
        }
        match x {
            Pred::And(cs) | Pred::Or(cs) => {
                for (i, c) in cs.iter().enumerate() {
                    prefix.push(i);
                    absorb_frozen(c, prefix, sites, map, oracle, ctx);
                    prefix.pop();
                }
            }
            Pred::Not(c) => {
                prefix.push(0);
                absorb_frozen(c, prefix, sites, map, oracle, ctx);
                prefix.pop();
            }
            atom => map.absorb(atom, oracle, ctx),
        }
    }
    absorb_frozen(x, &mut Vec::new(), sites, &mut map, oracle, ctx);
    map.absorb(l_star, oracle, ctx);
    map.absorb(u_star, oracle, ctx);
    let n = map.len();
    if n > MAX_MINFIX_ATOMS {
        return None;
    }
    // g★: target truth table with don't-cares.
    let g_star: TruthTable = build_truth_table(&map, oracle, ctx, l_star, u_star);

    // ---- InitFeasibility ----
    let nrows = 1u32 << n;
    let mut feas: Feasibility = Vec::with_capacity(nrows as usize);
    for row in 0..nrows {
        match g_star.get(row) {
            Out::DontCare => feas.push(None),
            target => {
                let want = target == Out::One;
                let mut allowed: u64 = 0;
                for sb in 0..(1u32 << k) {
                    let got =
                        eval_with_sites(x, &mut Vec::new(), sites, &map, row, sb);
                    if got == want {
                        allowed |= 1 << sb;
                    }
                }
                if allowed == 0 {
                    // No site assignment reconciles this row: the caller's
                    // viability check should prevent this; bail out.
                    return None;
                }
                feas.push(Some(allowed));
            }
        }
    }

    // ---- Fix one site at a time ----
    let mut remaining: Vec<usize> = (0..k).collect();
    let mut fixes: Vec<Option<Pred>> = vec![None; k];
    while !remaining.is_empty() {
        // PickSite: prioritize the site with the most *uneven* splits
        // (most constrained).
        let mut best: (usize, f64) = (remaining[0], -1.0);
        for &d in &remaining {
            let mut score = 0.0;
            for allowed in feas.iter().flatten() {
                let total = allowed.count_ones() as f64;
                if total == 0.0 {
                    continue;
                }
                let ones = (0..(1u32 << k))
                    .filter(|sb| allowed & (1 << sb) != 0 && sb & (1 << d) != 0)
                    .count() as f64;
                score += (ones / total - 0.5).abs();
            }
            if score > best.1 {
                best = (d, score);
            }
        }
        let d = best.0;
        remaining.retain(|&i| i != d);

        // Build the partial function for site d.
        let table = TruthTable::from_fn(n, |row| {
            match feas[row as usize] {
                None => Out::DontCare,
                Some(allowed) => {
                    let mut can_zero = false;
                    let mut can_one = false;
                    for sb in 0..(1u32 << k) {
                        if allowed & (1 << sb) != 0 {
                            if sb & (1 << d) != 0 {
                                can_one = true;
                            } else {
                                can_zero = true;
                            }
                        }
                    }
                    match (can_zero, can_one) {
                        (true, true) => Out::DontCare,
                        (false, true) => Out::One,
                        (true, false) => Out::Zero,
                        (false, false) => Out::DontCare, // unreachable: allowed ≠ 0
                    }
                }
            }
        });
        let g_d = minimize(&table);
        let fix = map.dnf_to_pred(&g_d);
        // UpdateFeasibility: wire site d to g_d.
        for (row, slot) in feas.iter_mut().enumerate() {
            if let Some(allowed) = slot {
                let val = g_d.eval(row as u32);
                let mut next: u64 = 0;
                for sb in 0..(1u32 << k) {
                    if *allowed & (1 << sb) != 0 && ((sb & (1 << d) != 0) == val) {
                        next |= 1 << sb;
                    }
                }
                if next == 0 {
                    // The greedy choice wedged us; give up (fallback path).
                    return None;
                }
                *slot = Some(next);
            }
        }
        fixes[d] = Some(fix);
    }

    let mut fixes: Vec<Pred> =
        fixes.into_iter().map(|f| f.expect("all sites fixed")).collect();

    // ---- Rebalance sibling sites (DistributeFixes post-pass) ----
    // The greedy per-site minimization can dump all clauses on the last
    // sibling under a shared ∧/∨ parent, leaving earlier siblings with a
    // neutral constant. Recombining and redistributing the clauses keeps
    // the same semantics with smaller total size (Example 8's optimum).
    let mut by_parent: std::collections::BTreeMap<PredPath, Vec<usize>> =
        std::collections::BTreeMap::new();
    for (i, s) in sites.iter().enumerate() {
        if s.is_empty() {
            continue;
        }
        by_parent.entry(s[..s.len() - 1].to_vec()).or_default().push(i);
    }
    for (parent, members) in by_parent {
        if members.len() < 2 {
            continue;
        }
        let Some(parent_node) = x.at_path(&parent) else { continue };
        let is_and = match parent_node {
            Pred::And(_) => true,
            Pred::Or(_) => false,
            _ => continue,
        };
        let combined = if is_and {
            Pred::and(members.iter().map(|&i| fixes[i].clone()).collect())
        } else {
            Pred::or(members.iter().map(|&i| fixes[i].clone()).collect())
        };
        let originals: Vec<&Pred> = members
            .iter()
            .map(|&i| x.at_path(&sites[i]).expect("site path valid"))
            .collect();
        let redistributed =
            super::derive_fixes::distribute_fixes(&combined, &originals, is_and);
        let old_size: usize =
            members.iter().map(|&i| super::cost::tree_size(&fixes[i])).sum();
        let new_size: usize = redistributed.iter().map(super::cost::tree_size).sum();
        if new_size < old_size {
            for (&i, f) in members.iter().zip(redistributed) {
                fixes[i] = f;
            }
        }
    }

    Some(sites.iter().cloned().zip(fixes).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repair::cost::repair_cost;
    use crate::repair::derive_fixes::derive_fixes;
    use crate::repair::Repair;
    use qrhint_sqlparse::parse_pred;

    fn apply_and_check(
        p: &Pred,
        p_star: &Pred,
        sites: &[PredPath],
        fixes: Vec<(PredPath, Pred)>,
    ) -> Repair {
        let mut ordered = Vec::new();
        for s in sites {
            ordered.push(fixes.iter().find(|(path, _)| path == s).unwrap().1.clone());
        }
        let repair = Repair { sites: sites.to_vec(), fixes: ordered };
        let applied = repair.apply(p);
        let mut o = Oracle::for_preds(&[p, p_star]);
        assert!(
            o.equiv_pred(&applied, p_star, &[]).is_true(),
            "applied {applied} ⇎ {p_star}"
        );
        repair
    }

    #[test]
    fn example15_two_sites() {
        // P★ = a=1 ∨ (b=2 ∧ c=3) ; P = c=3 ∨ (b=2 ∧ a=1), sites are the
        // atoms c=3 ([0]) and a=1 ([1,1]). Optimal fixes: a=1 and c=3.
        let p = parse_pred("c = 3 OR (b = 2 AND a = 1)").unwrap();
        let p_star = parse_pred("a = 1 OR (b = 2 AND c = 3)").unwrap();
        let sites: Vec<PredPath> = vec![vec![0], vec![1, 1]];
        let mut o = Oracle::for_preds(&[&p, &p_star]);
        let fixes = min_fix_mult(&mut o, &[], &p, &sites, &p_star, &p_star).unwrap();
        let repair = apply_and_check(&p, &p_star, &sites, fixes);
        // Both fixes should be single atoms (the optimum).
        assert!(repair.fixes.iter().all(Pred::is_atomic), "{:?}", repair.fixes);
    }

    #[test]
    fn example8_opt_beats_basic() {
        // Example 5 with sites {x4, x10, x12}: DeriveFixes returns large
        // fixes, DeriveFixesOPT finds the atomic ones (A=B, D>10, E<5).
        let p = parse_pred(
            "(a = c AND (d <> e OR d > f)) OR (a = c AND (d > 11 OR d < 7 OR e <= 5))",
        )
        .unwrap();
        let p_star = parse_pred(
            "(a = c AND (e < 5 OR d > 10 OR d < 7)) OR (a = b AND (d <> e OR d > f))",
        )
        .unwrap();
        let sites: Vec<PredPath> = vec![vec![0, 0], vec![1, 1, 0], vec![1, 1, 2]];
        let mut o = Oracle::for_preds(&[&p, &p_star]);
        let opt_fixes =
            min_fix_mult(&mut o, &[], &p, &sites, &p_star, &p_star).unwrap();
        let opt_repair = apply_and_check(&p, &p_star, &sites, opt_fixes);
        let basic_fixes = derive_fixes(&mut o, &[], &p, &sites, &p_star, &p_star);
        let basic_repair = apply_and_check(&p, &p_star, &sites, basic_fixes);
        let c_opt = repair_cost(&p, &p_star, &opt_repair);
        let c_basic = repair_cost(&p, &p_star, &basic_repair);
        assert!(
            c_opt <= c_basic,
            "OPT ({c_opt}) should not cost more than basic ({c_basic})"
        );
        // The paper's optimal repair has all-atomic fixes, cost 0.75.
        assert!(
            (c_opt - 0.75).abs() < 1e-9,
            "OPT should reach the paper's optimum, got {c_opt}; fixes {:?}",
            opt_repair.fixes
        );
    }

    #[test]
    fn single_site_matches_minfix() {
        let p = parse_pred("a = 1 AND b = 2").unwrap();
        let p_star = parse_pred("a = 1 AND b = 5").unwrap();
        let sites: Vec<PredPath> = vec![vec![1]];
        let mut o = Oracle::for_preds(&[&p, &p_star]);
        let fixes = min_fix_mult(&mut o, &[], &p, &sites, &p_star, &p_star).unwrap();
        let repair = apply_and_check(&p, &p_star, &sites, fixes);
        assert_eq!(repair.fixes[0], parse_pred("b = 5").unwrap());
    }

    #[test]
    fn too_many_sites_bails() {
        let p = parse_pred("a = 1 AND b = 2").unwrap();
        let mut o = Oracle::for_preds(&[&p]);
        let sites: Vec<PredPath> = (0..7).map(|i| vec![i]).collect();
        assert!(min_fix_mult(&mut o, &[], &p, &sites, &p, &p).is_none());
    }
}
