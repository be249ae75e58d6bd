//! The WHERE/HAVING repair machinery of §5 (and Appendix C): repair
//! sites, fixes, costs, repair bounds, fix derivation and the top-level
//! search.

pub mod bounds;
pub mod cost;
pub mod derive_fixes;
pub mod minfix;
pub mod minfix_mult;
pub mod repair_where;

pub use bounds::{bounds_admit, create_bounds};
pub use cost::{repair_cost, tree_size};
pub use derive_fixes::derive_fixes;
pub use minfix::{min_fix, NormalForm};
pub use minfix_mult::min_fix_mult;
pub use repair_where::{
    repair_where, FixStrategy, RepairConfig, RepairOutcome, TraceEvent,
};

use qrhint_sqlast::pred::PredPath;
use qrhint_sqlast::Pred;

/// A repair: disjoint repair sites (paths into the predicate tree) and a
/// fix for each site (Definition 2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Repair {
    pub sites: Vec<PredPath>,
    pub fixes: Vec<Pred>,
}

impl Repair {
    /// Apply the repair to `p`: replace each site with its fix.
    /// Sites are disjoint, so replacements do not interfere.
    pub fn apply(&self, p: &Pred) -> Pred {
        let mut out = p.clone();
        for (site, fix) in self.sites.iter().zip(&self.fixes) {
            out = out.replace_at(site, fix);
        }
        out
    }

    /// Number of repair sites.
    pub fn len(&self) -> usize {
        self.sites.len()
    }

    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }
}

/// Are two paths disjoint (neither a prefix of the other)?
pub fn paths_disjoint(a: &[usize], b: &[usize]) -> bool {
    let n = a.len().min(b.len());
    a[..n] != b[..n]
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrhint_sqlparse::parse_pred;

    #[test]
    fn apply_multi_site_repair() {
        let p = parse_pred("(a = 1 AND b = 2) OR c = 3").unwrap();
        let fix1 = parse_pred("a = 9").unwrap();
        let fix2 = parse_pred("c = 7").unwrap();
        let r = Repair { sites: vec![vec![0, 0], vec![1]], fixes: vec![fix1, fix2] };
        let out = r.apply(&p);
        assert_eq!(out, parse_pred("(a = 9 AND b = 2) OR c = 7").unwrap());
    }

    #[test]
    fn path_disjointness() {
        assert!(paths_disjoint(&[0], &[1]));
        assert!(paths_disjoint(&[0, 1], &[0, 2]));
        assert!(!paths_disjoint(&[0], &[0, 1]));
        assert!(!paths_disjoint(&[0, 1], &[0]));
        assert!(!paths_disjoint(&[], &[2]));
    }
}
