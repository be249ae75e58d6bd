//! Table mappings (Definition 1, Appendix B.1): unifying the alias spaces
//! of the target and working queries, with signature-based matching for
//! self-joins.

pub mod matching;
pub mod signature;

pub use matching::max_weight_perfect_matching;
pub use signature::{equivalence_classes, table_signature, signature_similarity, TableSignature};

use qrhint_sqlast::{ColRef, Query};
use std::collections::BTreeMap;

/// A table mapping `𝔪 : Aliases(Q★) → Aliases(Q)` (bijective, preserving
/// the underlying table).
pub type TableMapping = BTreeMap<String, String>;

/// Compute the table mapping from `q_star` to `q`. Requires
/// `Tables(Q★) = Tables(Q)` as multisets (the FROM-stage viability);
/// returns `None` otherwise.
///
/// Tables referenced once on each side map directly; self-joined tables
/// are matched by maximizing the total signature similarity over all
/// perfect matchings (Appendix B.1).
pub fn table_mapping(q_star: &Query, q: &Query) -> Option<TableMapping> {
    if q_star.table_multiset() != q.table_multiset() {
        return None;
    }
    let mut mapping = TableMapping::new();
    // Only self-joins consult signatures, so most submissions never
    // build the equivalence classes.
    let mut classes = None;
    for (table, _) in q_star.table_multiset() {
        let aliases_star = q_star.aliases_of(&table);
        let aliases_work = q.aliases_of(&table);
        debug_assert_eq!(aliases_star.len(), aliases_work.len());
        if aliases_star.len() == 1 {
            mapping.insert(aliases_star[0].to_string(), aliases_work[0].to_string());
            continue;
        }
        // Self-join: signature similarity matrix + perfect matching.
        let (classes_star, classes_work) =
            &*classes.get_or_insert_with(|| (equivalence_classes(q_star), equivalence_classes(q)));
        let sigs_star: Vec<TableSignature> = aliases_star
            .iter()
            .map(|a| table_signature(q_star, a, classes_star))
            .collect();
        let sigs_work: Vec<TableSignature> = aliases_work
            .iter()
            .map(|a| table_signature(q, a, classes_work))
            .collect();
        let n = aliases_star.len();
        let mut weight = vec![vec![0.0f64; n]; n];
        for (i, ss) in sigs_star.iter().enumerate() {
            for (j, sw) in sigs_work.iter().enumerate() {
                weight[i][j] = signature_similarity(ss, sw);
            }
        }
        let assignment = max_weight_perfect_matching(&weight)?;
        for (i, j) in assignment.into_iter().enumerate() {
            mapping.insert(aliases_star[i].to_string(), aliases_work[j].to_string());
        }
    }
    Some(mapping)
}

/// Rename the target query's aliases through the mapping so that both
/// queries share one alias space (the "unification" at the end of §4).
pub fn unify_target(q_star: &Query, mapping: &TableMapping) -> Query {
    let mut renamed = q_star.map_columns(&|c: &ColRef| match mapping.get(&c.table) {
        Some(new_alias) => ColRef { table: new_alias.clone(), column: c.column.clone() },
        None => c.clone(),
    });
    for tref in &mut renamed.from {
        if let Some(new_alias) = mapping.get(&tref.alias) {
            tref.alias = new_alias.clone();
        }
    }
    renamed
}

/// Enumerate *all* valid table mappings (exhaustive strategy, used by the
/// A2 ablation). Exponential in the number of self-joined aliases.
pub fn all_table_mappings(q_star: &Query, q: &Query) -> Vec<TableMapping> {
    if q_star.table_multiset() != q.table_multiset() {
        return vec![];
    }
    let mut result: Vec<TableMapping> = vec![TableMapping::new()];
    for (table, _) in q_star.table_multiset() {
        let aliases_star: Vec<String> =
            q_star.aliases_of(&table).into_iter().map(String::from).collect();
        let aliases_work: Vec<String> =
            q.aliases_of(&table).into_iter().map(String::from).collect();
        let perms = permutations(aliases_work.len());
        let mut next = Vec::new();
        for base in &result {
            for perm in &perms {
                let mut m = base.clone();
                for (i, &j) in perm.iter().enumerate() {
                    m.insert(aliases_star[i].clone(), aliases_work[j].clone());
                }
                next.push(m);
            }
        }
        result = next;
        if result.len() > 10_000 {
            break; // safety valve for pathological self-join counts
        }
    }
    result
}

fn permutations(n: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut cur: Vec<usize> = Vec::new();
    let mut used = vec![false; n];
    fn go(n: usize, cur: &mut Vec<usize>, used: &mut [bool], out: &mut Vec<Vec<usize>>) {
        if cur.len() == n {
            out.push(cur.clone());
            return;
        }
        for i in 0..n {
            if !used[i] {
                used[i] = true;
                cur.push(i);
                go(n, cur, used, out);
                cur.pop();
                used[i] = false;
            }
        }
    }
    go(n, &mut cur, &mut used, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrhint_sqlparse::parse_query;

    #[test]
    fn identity_mapping_without_self_joins() {
        let q_star = parse_query(
            "SELECT l.beer FROM Likes l, Serves s WHERE l.beer = s.beer",
        )
        .unwrap();
        let q = parse_query(
            "SELECT likes.beer FROM Likes, Serves WHERE likes.beer = serves.beer",
        )
        .unwrap();
        let m = table_mapping(&q_star, &q).unwrap();
        assert_eq!(m["l"], "likes");
        assert_eq!(m["s"], "serves");
    }

    #[test]
    fn mismatched_multisets_have_no_mapping() {
        let q_star =
            parse_query("SELECT l.beer FROM Likes l, Serves s1, Serves s2").unwrap();
        let q = parse_query("SELECT l.beer FROM Likes l, Serves s1").unwrap();
        assert!(table_mapping(&q_star, &q).is_none());
    }

    #[test]
    fn paper_example4_self_join_mapping() {
        // The headline example: S1 must map to s2 and S2 to s1 because of
        // the SELECT signature on bar.
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
        // The working query after the FROM fix (Frequents added); aliases
        // likes/frequents default to table names.
        let q = parse_query(
            "SELECT s2.beer, s2.bar, COUNT(*)
             FROM Likes, Frequents, Serves s1, Serves s2
             WHERE likes.drinker = 'Amy'
               AND likes.beer = s1.beer AND likes.beer = s2.beer
               AND s1.price > s2.price
             GROUP BY s2.beer, s2.bar",
        )
        .unwrap();
        let m = table_mapping(&q_star, &q).unwrap();
        assert_eq!(m["s1"], "s2", "S1 should map to s2 (SELECT bar signature)");
        assert_eq!(m["s2"], "s1");
        assert_eq!(m["l"], "likes");
        assert_eq!(m["f"], "frequents");
    }

    #[test]
    fn unify_renames_all_clauses() {
        let q_star = parse_query(
            "SELECT S1.bar FROM Serves S1, Serves S2 \
             WHERE S1.price <= S2.price GROUP BY S1.bar",
        )
        .unwrap();
        let mapping: TableMapping =
            [("s1".to_string(), "x".to_string()), ("s2".to_string(), "y".to_string())]
                .into_iter()
                .collect();
        let unified = unify_target(&q_star, &mapping);
        let printed = unified.to_string();
        assert!(printed.contains("x.price <= y.price"), "{printed}");
        assert!(printed.contains("GROUP BY x.bar"), "{printed}");
        assert!(printed.contains("serves x, serves y"), "{printed}");
    }

    #[test]
    fn all_mappings_enumeration() {
        let q_star = parse_query("SELECT s1.bar FROM Serves s1, Serves s2").unwrap();
        let q = parse_query("SELECT a.bar FROM Serves a, Serves b").unwrap();
        let all = all_table_mappings(&q_star, &q);
        assert_eq!(all.len(), 2);
        assert!(all.iter().any(|m| m["s1"] == "a" && m["s2"] == "b"));
        assert!(all.iter().any(|m| m["s1"] == "b" && m["s2"] == "a"));
    }
}
