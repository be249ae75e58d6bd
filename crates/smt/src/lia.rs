//! Linear integer arithmetic via Fourier–Motzkin elimination with integer
//! model reconstruction.
//!
//! Input: a conjunction of constraints `e ≤ 0` and `e = 0` over integer
//! variables (strict inequalities have already been tightened into `≤`
//! form using integrality: `a < b` becomes `a - b + 1 ≤ 0`).
//!
//! Guarantees:
//! * `Unsat` is sound: the rational relaxation is infeasible, hence the
//!   integer system is too.
//! * `Sat` is sound: a concrete integer model is produced and verified
//!   against every input constraint.
//! * `Unknown` covers rational-feasible systems where integer
//!   reconstruction hits an integrality gap (rare for SQL-style
//!   constraints, which are mostly difference bounds) and resource-limit
//!   bailouts.

use crate::term::{LinExpr, VarId};
use std::collections::BTreeMap;

/// Outcome of an LIA check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LiaResult {
    /// Integer model (total over the constrained variables).
    Sat(BTreeMap<VarId, i128>),
    Unsat,
    Unknown,
}

/// Resource cap: maximum number of live inequality constraints during
/// elimination before bailing out with `Unknown`.
const MAX_CONSTRAINTS: usize = 20_000;

/// `ceil(a / b)` for `b > 0`.
fn div_ceil(a: i128, b: i128) -> i128 {
    debug_assert!(b > 0);
    a.div_euclid(b) + i128::from(a.rem_euclid(b) != 0)
}

/// `floor(a / b)` for `b > 0`.
fn div_floor(a: i128, b: i128) -> i128 {
    debug_assert!(b > 0);
    a.div_euclid(b)
}

/// Solve `ineqs: e ≤ 0` ∧ `eqs: e = 0` over the integers. `Unknown` when
/// a substitution, an elimination step or a model value leaves `i128`.
pub fn solve(ineqs: &[LinExpr], eqs: &[LinExpr]) -> LiaResult {
    solve_checked(ineqs, eqs).unwrap_or(LiaResult::Unknown)
}

/// [`solve`], with `None` on overflow.
fn solve_checked(ineqs: &[LinExpr], eqs: &[LinExpr]) -> Option<LiaResult> {
    // ---- Phase 0: normalize equalities ----
    // Substitute away variables with ±1 coefficients in equalities (exact
    // over the integers); convert remaining equalities into inequality
    // pairs.
    let mut ineqs: Vec<LinExpr> = ineqs.to_vec();
    let mut eqs: Vec<LinExpr> = eqs.to_vec();
    // (var, defining expr): var = expr, applied in reverse at reconstruction.
    let mut substitutions: Vec<(VarId, LinExpr)> = Vec::new();

    loop {
        // Find an equality with a unit-coefficient variable.
        let mut found: Option<(usize, VarId, i128)> = None;
        'outer: for (i, e) in eqs.iter().enumerate() {
            for (v, c) in &e.coeffs {
                if *c == 1 || *c == -1 {
                    found = Some((i, *v, *c));
                    break 'outer;
                }
            }
        }
        let Some((i, v, c)) = found else { break };
        let eq = eqs.swap_remove(i);
        // c*v + rest = 0  =>  v = -rest/c ; with c = ±1: v = -c*rest... more
        // precisely v = (-rest) * c  (since 1/c == c for c = ±1).
        let mut rest = eq.clone();
        rest.coeffs.remove(&v);
        let def = rest.negate()?.scale(c)?; // v = def
        // Substitute v := def everywhere.
        let subst = |e: &LinExpr| -> Option<LinExpr> {
            match e.coeffs.get(&v) {
                None => Some(e.clone()),
                Some(&cv) => {
                    let mut out = e.clone();
                    out.coeffs.remove(&v);
                    out.add(&def.scale(cv)?)
                }
            }
        };
        ineqs = ineqs.iter().map(subst).collect::<Option<_>>()?;
        eqs = eqs.iter().map(subst).collect::<Option<_>>()?;
        substitutions = substitutions
            .into_iter()
            .map(|(w, d)| Some((w, subst(&d)?)))
            .collect::<Option<_>>()?;
        substitutions.push((v, def));
    }
    // Remaining equalities (no unit coefficients): check constant ones,
    // split the rest into ≤ pairs.
    for e in eqs {
        if e.is_constant() {
            if e.k != 0 {
                return Some(LiaResult::Unsat);
            }
            continue;
        }
        let negated = e.negate()?;
        ineqs.push(e);
        ineqs.push(negated);
    }

    // ---- Phase 1: Fourier–Motzkin elimination ----
    // Collect variables; eliminate in order of fewest occurrences first.
    let mut order: Vec<VarId> = {
        let mut occ: BTreeMap<VarId, usize> = BTreeMap::new();
        for e in &ineqs {
            for v in e.coeffs.keys() {
                *occ.entry(*v).or_insert(0) += 1;
            }
        }
        let mut vs: Vec<(usize, VarId)> = occ.into_iter().map(|(v, n)| (n, v)).collect();
        vs.sort();
        vs.into_iter().map(|(_, v)| v).collect()
    };

    // Saved (var, constraints-involving-var) for model reconstruction, in
    // elimination order.
    let mut eliminated: Vec<(VarId, Vec<LinExpr>)> = Vec::new();
    let mut live = ineqs;

    while let Some(v) = order.first().copied() {
        order.remove(0);
        let (involving, keep): (Vec<LinExpr>, Vec<LinExpr>) =
            live.into_iter().partition(|e| e.coeffs.contains_key(&v));
        live = keep;
        let uppers: Vec<&LinExpr> =
            involving.iter().filter(|e| e.coeffs[&v] > 0).collect();
        let lowers: Vec<&LinExpr> =
            involving.iter().filter(|e| e.coeffs[&v] < 0).collect();
        for up in &uppers {
            for lo in &lowers {
                let a = up.coeffs[&v]; // > 0
                let b = lo.coeffs[&v].checked_neg()?; // > 0
                // a*v + e1 ≤ 0 and -b*v + e2 ≤ 0
                //   =>  b*e1 + a*e2 ≤ 0
                let combined = up.scale(b)?.add(&lo.scale(a)?)?;
                debug_assert!(!combined.coeffs.contains_key(&v));
                if combined.is_constant() {
                    if combined.k > 0 {
                        return Some(LiaResult::Unsat);
                    }
                } else {
                    live.push(combined);
                }
                if live.len() > MAX_CONSTRAINTS {
                    return Some(LiaResult::Unknown);
                }
            }
        }
        eliminated.push((v, involving));
    }

    // All variables eliminated; remaining constraints are constants.
    for e in &live {
        debug_assert!(e.is_constant());
        if e.k > 0 {
            return Some(LiaResult::Unsat);
        }
    }

    // ---- Phase 2: integer model reconstruction ----
    let mut model: BTreeMap<VarId, i128> = BTreeMap::new();
    // Evaluate e without the `except` variable's contribution.
    let assign = |model: &BTreeMap<VarId, i128>, e: &LinExpr, except: VarId| -> Option<i128> {
        e.coeffs
            .iter()
            .filter(|(v, _)| **v != except)
            .try_fold(e.k, |total, (v, c)| total.checked_add(c.checked_mul(*model.get(v)?)?))
    };
    for (v, constraints) in eliminated.iter().rev() {
        let mut lb = i128::MIN;
        let mut ub = i128::MAX;
        for e in constraints {
            let a = e.coeffs[v];
            let rest = assign(&model, e, *v)?;
            // a*v + rest ≤ 0
            if a > 0 {
                ub = ub.min(div_floor(rest.checked_neg()?, a));
            } else {
                lb = lb.max(div_ceil(rest, a.checked_neg()?));
            }
        }
        if lb > ub {
            // Integrality gap (rational-feasible but no integer point in
            // this back-substitution order).
            return Some(LiaResult::Unknown);
        }
        let value = 0i128.clamp(lb, ub);
        model.insert(*v, value);
    }
    // Apply equality substitutions in reverse.
    for (v, def) in substitutions.iter().rev() {
        let total = def.coeffs.iter().try_fold(def.k, |total, (w, c)| {
            total.checked_add(c.checked_mul(model.get(w).copied().unwrap_or(0))?)
        })?;
        model.insert(*v, total);
    }

    Some(LiaResult::Sat(model))
}

/// Verify a model against constraints (diagnostic / defensive helper).
pub fn verify(model: &BTreeMap<VarId, i128>, ineqs: &[LinExpr], eqs: &[LinExpr]) -> bool {
    let get = |v: VarId| model.get(&v).copied().unwrap_or(0);
    ineqs.iter().all(|e| e.eval(&get).is_some_and(|x| x <= 0))
        && eqs.iter().all(|e| e.eval(&get) == Some(0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::{Sort, VarPool};

    fn vars(n: usize) -> (VarPool, Vec<VarId>) {
        let mut p = VarPool::new();
        let vs = (0..n).map(|_| p.fresh(Sort::Int)).collect();
        (p, vs)
    }

    /// e = c0 + Σ ci·vi
    fn lin(consts: i128, terms: &[(i128, VarId)]) -> LinExpr {
        let mut e = LinExpr::constant(consts);
        for (c, v) in terms {
            e = e.add(&LinExpr::variable(*v).scale(*c).unwrap()).unwrap();
        }
        e
    }

    #[test]
    fn trivial_sat_and_unsat() {
        assert!(matches!(solve(&[], &[]), LiaResult::Sat(_)));
        // 1 ≤ 0 is false.
        assert_eq!(solve(&[lin(1, &[])], &[]), LiaResult::Unsat);
        // -1 ≤ 0 is true.
        assert!(matches!(solve(&[lin(-1, &[])], &[]), LiaResult::Sat(_)));
    }

    #[test]
    fn difference_bounds() {
        let (_, v) = vars(3);
        // x0 < x1 (x0 - x1 + 1 ≤ 0), x1 < x2, x2 < x0 : cycle => unsat
        let c1 = lin(1, &[(1, v[0]), (-1, v[1])]);
        let c2 = lin(1, &[(1, v[1]), (-1, v[2])]);
        let c3 = lin(1, &[(1, v[2]), (-1, v[0])]);
        assert_eq!(solve(&[c1.clone(), c2.clone(), c3], &[]), LiaResult::Unsat);
        // Without the closing edge: sat, verify model.
        match solve(&[c1.clone(), c2.clone()], &[]) {
            LiaResult::Sat(m) => assert!(verify(&m, &[c1, c2], &[])),
            other => panic!("expected sat, got {other:?}"),
        }
    }

    #[test]
    fn integral_tightening_catches_x_lt_y_lt_x_plus_1() {
        let (_, v) = vars(2);
        // x < y and y < x + 1 has a rational solution but no integer one.
        // x - y + 1 ≤ 0 ; y - x - 1 + 1 ≤ 0 => summing gives 1 ≤ 0: UNSAT
        // even over our tightened encoding (the tightening makes FM exact).
        let c1 = lin(1, &[(1, v[0]), (-1, v[1])]);
        let c2 = lin(0, &[(1, v[1]), (-1, v[0])]);
        assert_eq!(solve(&[c1, c2], &[]), LiaResult::Unsat);
    }

    #[test]
    fn equalities_substitute() {
        let (_, v) = vars(3);
        // x0 = x1 + 5, x1 = x2, x2 ≥ 10 (i.e. -x2 + 10 ≤ 0), x0 ≤ 14 → unsat
        // because x0 = x2 + 5 ≥ 15.
        let e1 = lin(-5, &[(1, v[0]), (-1, v[1])]); // x0 - x1 - 5 = 0
        let e2 = lin(0, &[(1, v[1]), (-1, v[2])]);
        let i1 = lin(10, &[(-1, v[2])]);
        let i2 = lin(-14, &[(1, v[0])]);
        assert_eq!(solve(&[i1.clone(), i2], &[e1.clone(), e2.clone()]), LiaResult::Unsat);
        // Relax the bound: sat.
        let i2b = lin(-15, &[(1, v[0])]);
        match solve(&[i1.clone(), i2b.clone()], &[e1.clone(), e2.clone()]) {
            LiaResult::Sat(m) => {
                assert!(verify(&m, &[i1, i2b], &[e1, e2]));
                assert_eq!(m[&v[0]], m[&v[1]] + 5);
            }
            other => panic!("expected sat, got {other:?}"),
        }
    }

    #[test]
    fn non_unit_coefficients() {
        let (_, v) = vars(2);
        // 2x ≤ 7 and 2x ≥ 7 → rational x = 3.5; integer: 2x = 7 has no
        // solution. Our solver may return Unknown (integrality gap) but
        // must NOT return Sat.
        let c1 = lin(-7, &[(2, v[0])]);
        let c2 = lin(7, &[(-2, v[0])]);
        match solve(&[c1, c2], &[]) {
            LiaResult::Sat(m) => panic!("bogus model {m:?}"),
            LiaResult::Unsat | LiaResult::Unknown => {}
        }
        // 3x + 2y ≤ 6, x ≥ 1, y ≥ 1 → x=y=1 works.
        let c3 = lin(-6, &[(3, v[0]), (2, v[1])]);
        let c4 = lin(1, &[(-1, v[0])]);
        let c5 = lin(1, &[(-1, v[1])]);
        match solve(&[c3.clone(), c4.clone(), c5.clone()], &[]) {
            LiaResult::Sat(m) => assert!(verify(&m, &[c3, c4, c5], &[])),
            other => panic!("expected sat, got {other:?}"),
        }
    }

    #[test]
    fn constant_equality_contradiction() {
        // 0 = 3 is unsat even with no variables.
        assert_eq!(solve(&[], &[lin(3, &[])]), LiaResult::Unsat);
        assert!(matches!(solve(&[], &[lin(0, &[])]), LiaResult::Sat(_)));
    }

    #[test]
    fn unconstrained_vars_default() {
        let (_, v) = vars(1);
        // x = x (tautological equality) — substitution path.
        let e = lin(0, &[(1, v[0]), (-1, v[0])]);
        assert!(matches!(solve(&[], &[e]), LiaResult::Sat(_)));
    }

    #[test]
    fn overflowing_elimination_is_unknown() {
        let (_, v) = vars(3);
        let big = 1i128 << 100;
        // 2^100·x0 ≤ x1, 2^100·x1 ≤ x2, x2 ≤ −1, x0 ≥ 1: eliminating x1
        // scales 2^100·x0 by 2^100, which leaves i128.
        let cs = [
            lin(0, &[(big, v[0]), (-1, v[1])]),
            lin(0, &[(big, v[1]), (-1, v[2])]),
            lin(1, &[(1, v[2])]),
            lin(1, &[(-1, v[0])]),
        ];
        assert_eq!(solve(&cs, &[]), LiaResult::Unknown);
        // Substituting x1 = 2^100·x0 into 2^100·x1 ≤ x2 overflows too.
        let eq = lin(0, &[(big, v[0]), (-1, v[1])]);
        assert_eq!(solve(&cs[1..], &[eq]), LiaResult::Unknown);
        // Within range, 2^100 coefficients still decide.
        let sat = [lin(0, &[(big, v[0]), (-1, v[1])]), lin(1, &[(-1, v[0])])];
        match solve(&sat, &[]) {
            LiaResult::Sat(m) => assert!(verify(&m, &sat, &[])),
            other => panic!("expected sat, got {other:?}"),
        }
        // 2^100·x0 ≥ 1 ∧ x0 ≤ 0.
        let unsat = [lin(1, &[(-big, v[0])]), lin(0, &[(1, v[0])])];
        assert_eq!(solve(&unsat, &[]), LiaResult::Unsat);
    }

    #[test]
    fn bounded_box_model_prefers_zero() {
        let (_, v) = vars(1);
        // -5 ≤ x ≤ 5
        let c1 = lin(-5, &[(1, v[0])]);
        let c2 = lin(-5, &[(-1, v[0])]);
        match solve(&[c1, c2], &[]) {
            LiaResult::Sat(m) => assert_eq!(m[&v[0]], 0),
            other => panic!("expected sat, got {other:?}"),
        }
    }
}
