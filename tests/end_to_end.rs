//! Cross-crate integration tests: the full Theorem-3.1 story — every
//! pipeline interaction leads to a working query that is *really*
//! equivalent to the target, verified by differential execution on
//! randomized databases (qrhint-engine is the ground truth the solver
//! never sees).

use qr_hint::prelude::*;
use qrhint_engine::differential_equiv;
use qrhint_workloads::beers;

fn assert_differentially_equivalent(qr: &QrHint, target_sql: &str, final_q: &Query) {
    let target = qr.prepare(target_sql).unwrap();
    let ok = differential_equiv(&target, final_q, qr.schema(), 0xA11CE, 25)
        .unwrap_or_else(|e| panic!("execution failed: {e}"));
    assert!(ok, "final query {final_q} is not bag-equivalent to the target");
}

fn fix_and_verify(qr: &QrHint, target_sql: &str, working_sql: &str) -> Vec<Stage> {
    let q_star = qr.prepare(target_sql).unwrap();
    let q = qr.prepare(working_sql).unwrap();
    let (final_q, trail) = qr
        .fix_fully(&q_star, &q)
        .unwrap_or_else(|e| panic!("pipeline failed: {e}"));
    assert!(trail.last().unwrap().is_equivalent());
    assert_differentially_equivalent(qr, target_sql, &final_q);
    trail.iter().map(|a| a.stage).collect()
}

#[test]
fn paper_example_1_and_2_full_story() {
    let qr = QrHint::new(beers::schema());
    let stages = fix_and_verify(&qr, beers::EXAMPLE1_TARGET, beers::EXAMPLE1_WORKING);
    // The paper's narrative: FROM first (missing Frequents), then WHERE.
    assert_eq!(stages[0], Stage::From);
    assert!(stages.contains(&Stage::Where));
    assert_eq!(*stages.last().unwrap(), Stage::Done);
}

#[test]
fn paper_example2_where_hint_is_the_inequality() {
    // After the FROM fix and adding the join conditions the paper's user
    // would write, the only remaining WHERE problem is > vs >=.
    let qr = QrHint::new(beers::schema());
    let intermediate = "SELECT s2.beer, s2.bar, COUNT(*)
        FROM Likes, Frequents, Serves s1, Serves s2
        WHERE likes.drinker = 'Amy'
          AND likes.drinker = frequents.drinker AND frequents.bar = s2.bar
          AND likes.beer = s1.beer AND likes.beer = s2.beer
          AND s1.price > s2.price
        GROUP BY s2.beer, s2.bar";
    let advice = qr.advise_sql(beers::EXAMPLE1_TARGET, intermediate).unwrap();
    assert_eq!(advice.stage, Stage::Where);
    let Hint::PredicateRepair { sites, .. } = &advice.hints[0] else {
        panic!("expected a WHERE repair, got {:?}", advice.hints)
    };
    assert_eq!(sites.len(), 1, "exactly one repair site: {sites:?}");
    // The site is the price inequality; the fix flips > to ≥ (NOT to ≤,
    // because the mapping sends S1 ↦ s2 — the paper's key subtlety).
    assert_eq!(sites[0].current.to_string(), "s1.price > s2.price");
    let fix = &sites[0].fix;
    let expected = qrhint_sqlparse::parse_pred("s1.price >= s2.price").unwrap();
    let wrong_direction = qrhint_sqlparse::parse_pred("s1.price <= s2.price").unwrap();
    let mut oracle = qrhint_core::Oracle::for_preds(&[fix, &expected]);
    assert!(
        oracle.equiv_pred(fix, &expected, &[]).is_true(),
        "fix {fix} must mean s1.price >= s2.price"
    );
    assert!(
        !oracle.equiv_pred(fix, &wrong_direction, &[]).is_true(),
        "fix must NOT be the naive <= suggestion"
    );
}

#[test]
fn spj_simple_fixes() {
    let qr = QrHint::new(beers::course_schema());
    for (target, working) in [
        (
            "SELECT s.beer FROM Serves s WHERE s.bar = 'James Joyce Pub'",
            "SELECT s.beer FROM Serves s WHERE s.bar = 'Joyce'",
        ),
        (
            "SELECT b.name, b.address FROM Bar b, Serves s \
             WHERE b.name = s.bar AND s.beer = 'Budweiser' AND s.price > 220",
            "SELECT b.name, b.address FROM Bar b, Serves s \
             WHERE s.beer = 'Budweiser' AND s.price >= 220",
        ),
        (
            "SELECT l.drinker FROM Likes l, Frequents f \
             WHERE l.beer = 'Corona' AND l.drinker = f.drinker \
               AND f.bar = 'James Joyce Pub' AND f.times_a_week >= 2",
            "SELECT l.drinker FROM Likes l, Frequents f \
             WHERE l.beer = 'Corona' AND f.bar = 'James Joyce Pub' \
               AND f.times_a_week > 2",
        ),
    ] {
        fix_and_verify(&qr, target, working);
    }
}

#[test]
fn spja_group_having_select_fixes() {
    let qr = QrHint::new(beers::course_schema());
    for (target, working) in [
        // HAVING threshold error.
        (
            "SELECT l.drinker FROM Likes l GROUP BY l.drinker HAVING COUNT(*) >= 2",
            "SELECT l.drinker FROM Likes l GROUP BY l.drinker HAVING COUNT(*) > 2",
        ),
        // Extra GROUP BY expression.
        (
            "SELECT l.drinker FROM Likes l GROUP BY l.drinker HAVING COUNT(*) >= 2",
            "SELECT l.drinker FROM Likes l GROUP BY l.drinker, l.beer \
             HAVING COUNT(*) >= 2",
        ),
        // Aggregation missing entirely.
        (
            "SELECT l.drinker, COUNT(*) FROM Likes l GROUP BY l.drinker",
            "SELECT l.drinker, l.beer FROM Likes l",
        ),
        // WHERE condition written as HAVING (movable) + SELECT mismatch.
        (
            "SELECT s.bar, SUM(s.price) FROM Serves s WHERE s.beer = 'Bud' \
             GROUP BY s.bar",
            "SELECT s.bar, COUNT(*) FROM Serves s GROUP BY s.bar \
             HAVING s.beer = 'Bud'",
        ),
    ] {
        fix_and_verify(&qr, target, working);
    }
}

#[test]
fn self_join_mapping_respected_end_to_end() {
    let qr = QrHint::new(beers::course_schema());
    // Roles of s1/s2 swapped relative to the target: no repair needed at
    // all once the mapping is right.
    let target = "SELECT a.bar FROM Serves a, Serves b \
                  WHERE a.beer = b.beer AND a.price < b.price";
    let working = "SELECT y.bar FROM Serves x, Serves y \
                   WHERE x.beer = y.beer AND y.price < x.price";
    let advice = qr.advise_sql(target, working).unwrap();
    assert!(advice.is_equivalent(), "mapping should absorb the role swap");
}

#[test]
fn transitivity_avoids_spurious_where_hints() {
    // Example 1's observation: Likes.beer=s2.beer vs S1.beer=S2.beer are
    // interchangeable thanks to transitivity.
    let qr = QrHint::new(beers::schema());
    let target = "SELECT s1.bar FROM Likes l, Serves s1, Serves s2 \
                  WHERE l.beer = s1.beer AND s1.beer = s2.beer";
    let working = "SELECT s1.bar FROM Likes l, Serves s1, Serves s2 \
                   WHERE l.beer = s1.beer AND l.beer = s2.beer";
    let advice = qr.advise_sql(target, working).unwrap();
    assert!(advice.is_equivalent());
}

#[test]
fn unsupported_features_reported_not_crashed() {
    let qr = QrHint::new(beers::schema());
    let err = qr
        .advise_sql(
            "SELECT l.beer FROM Likes l",
            "SELECT l.beer FROM Likes l UNION SELECT s.beer FROM Serves s",
        )
        .unwrap_err();
    assert!(matches!(err, qrhint_core::QrHintError::Unsupported(_)));
}

#[test]
fn idempotence_done_queries_get_no_hints() {
    let qr = QrHint::new(beers::schema());
    let q = qr.prepare(beers::EXAMPLE1_TARGET).unwrap();
    let advice = qr.advise(&q, &q).unwrap();
    assert!(advice.is_equivalent());
    assert!(advice.hints.is_empty());
}

#[test]
fn overflowing_constants_neither_panic_nor_fold_away() {
    let schema = qrhint_sqlparse::parse_schema("CREATE TABLE T (a INT, b INT);").unwrap();
    let qr = QrHint::new(schema);
    let sum = |arg: &str| format!("SELECT t.b, SUM({arg}) FROM T t GROUP BY t.b");
    // 2^62 · 2 overflows i64: the SUM lowers as an opaque aggregate.
    let advice = qr.advise_sql(&sum("t.a"), &sum("4611686018427387904 * 2 * t.a")).unwrap();
    assert_eq!(advice.stage, Stage::Select);
    // 2^62 · 4 must not wrap to 0 and match SUM(0 * t.a).
    let advice = qr.advise_sql(&sum("0 * t.a"), &sum("4611686018427387904 * 4 * t.a")).unwrap();
    assert_eq!(advice.stage, Stage::Select);
    // `t.a > i64::MAX` gives MAX(t.a) no i64 lower bound.
    let having = |k: u8| {
        format!(
            "SELECT t.b FROM T t WHERE t.a > 9223372036854775807 GROUP BY t.b HAVING MAX(t.a) > {k}"
        )
    };
    qr.advise_sql(&having(0), &having(1)).unwrap();
}

#[test]
fn overflowing_linear_coefficients_never_wrap() {
    // 2^62 · 2^62 · 2^62 leaves the solver's i128 arithmetic. The
    // coefficient must not wrap to 0 and make `t.a·2^186 > 0` look
    // unsatisfiable: it holds for every positive `t.a`, so the working
    // query is not equivalent to the empty target.
    let c = "4611686018427387904";
    let schema =
        qrhint_sqlparse::parse_schema("CREATE TABLE T (a INT NOT NULL, b INT NOT NULL);").unwrap();
    let qr = QrHint::new(schema);
    let working = format!("SELECT t.b FROM T t WHERE t.a * {c} * {c} * {c} > 0");
    let advice = qr.advise_sql("SELECT t.b FROM T t WHERE t.a < t.a", &working).unwrap();
    assert_ne!(advice.stage, Stage::Done, "{advice:?}");
    // Eliminating t.b multiplies the constant 2^124 by 2^124.
    let schema = qrhint_sqlparse::parse_schema(
        "CREATE TABLE T (a INT NOT NULL, b INT NOT NULL, c INT NOT NULL);",
    )
    .unwrap();
    let qr = QrHint::new(schema);
    let working = format!(
        "SELECT t.b FROM T t WHERE t.a * {c} * {c} <= t.b AND t.b * {c} * {c} <= t.c \
         AND t.c < 0 AND t.a > 0"
    );
    qr.advise_sql("SELECT t.b FROM T t WHERE t.a > 0", &working).unwrap();
}
