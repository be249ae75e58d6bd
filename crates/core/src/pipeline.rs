//! The top-level grading API (§3.1, Theorem 3.1): FROM → WHERE →
//! GROUP BY → HAVING → SELECT for SPJA queries (FROM → WHERE → SELECT
//! for SPJ).
//!
//! [`QrHint`] binds a schema and configuration. The stateless
//! [`QrHint::advise_sql`] / [`QrHint::fix_fully`] entry points are thin
//! compatibility wrappers over the session layer ([`crate::session`]):
//! compile the target once with [`QrHint::compile_target`] when grading
//! many submissions or tutoring interactively — the session amortizes
//! target-side parsing and resolution, and solver work.
//! The stage walk itself lives in the crate-private `runner` module.

use crate::error::QrResult;
use crate::hint::{Hint, Stage};
use crate::mapping::TableMapping;
use crate::repair::RepairConfig;
use crate::session::PreparedTarget;
use qrhint_sqlast::{resolve::resolve_query, Query, Schema};
use qrhint_sqlparse::{parse_query, parse_query_extended, FlattenOptions};
use serde::{Deserialize, Serialize};

/// Pipeline configuration: how to repair and how many stage repairs to
/// apply. A compiled target's caches take no options: they grow with
/// the distinct work its advises do until
/// [`PreparedTarget::shed_caches`] drops them, as the `qr-hint serve`
/// registry does under its byte budget.
#[derive(Debug, Clone)]
pub struct QrHintConfig {
    pub repair: RepairConfig,
    /// Cap on advise → apply-fix iterations in [`QrHint::fix_fully`] /
    /// [`crate::session::TutorSession::run_to_completion`]. Theorem 3.1
    /// bounds real
    /// interactions by the stage count; the default leaves 3× slack
    /// (plus the final `Done` round) purely as a defensive backstop.
    pub max_stage_applications: usize,
}

impl Default for QrHintConfig {
    fn default() -> QrHintConfig {
        QrHintConfig {
            repair: RepairConfig::default(),
            max_stage_applications: 3 * Stage::COUNT + 1,
        }
    }
}

/// A Qr-Hint session bound to one database schema.
#[derive(Debug, Clone)]
pub struct QrHint {
    schema: Schema,
    cfg: QrHintConfig,
}

/// The advice produced for one working-query state: the first failing
/// stage, its hints, and the auto-applied fix for simulation.
///
/// Serializes to JSON end-to-end (hints, fixed query, alias mapping) for
/// machine consumption — see the CLI's `--json` mode.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Advice {
    /// First stage whose viability check failed (`Done` = equivalent).
    pub stage: Stage,
    pub hints: Vec<Hint>,
    /// The working query with this stage's repair applied (present
    /// whenever `stage != Done`).
    pub fixed: Option<Query>,
    /// The alias mapping (available once the FROM stage passes).
    pub mapping: Option<TableMapping>,
}

impl Advice {
    pub fn is_equivalent(&self) -> bool {
        self.stage == Stage::Done
    }
}

/// Parse `sql` with the single-block parser (`front_end` `None`) or the
/// multi-block front end, then resolve it against `schema`.
pub(crate) fn parse_resolve(
    schema: &Schema,
    sql: &str,
    front_end: Option<&FlattenOptions>,
) -> QrResult<Query> {
    let q = match front_end {
        Some(opts) => parse_query_extended(sql, opts)?,
        None => parse_query(sql)?,
    };
    Ok(resolve_query(schema, &q)?)
}

impl QrHint {
    pub fn new(schema: Schema) -> QrHint {
        QrHint { schema, cfg: QrHintConfig::default() }
    }

    pub fn with_config(schema: Schema, cfg: QrHintConfig) -> QrHint {
        QrHint { schema, cfg }
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Parse and resolve a query against the session schema.
    pub fn prepare(&self, sql: &str) -> QrResult<Query> {
        parse_resolve(&self.schema, sql, None)
    }

    /// Parse with the multi-block front-end (footnote 2 of the paper:
    /// `WITH` CTEs, aggregation-free subqueries in FROM, non-outer JOINs —
    /// plus the opt-in positive EXISTS/IN rewrite of §3), flatten to the
    /// single-block fragment, and resolve.
    pub fn prepare_extended(&self, sql: &str, opts: &FlattenOptions) -> QrResult<Query> {
        parse_resolve(&self.schema, sql, Some(opts))
    }

    /// Compile a target query for advise-many grading: parse, resolve,
    /// and set up the per-target reuse state (shared solver verdicts,
    /// advice cache). The result
    /// grades any number of submissions via [`PreparedTarget::advise`] /
    /// [`PreparedTarget::grade_batch`], and drives incremental tutoring
    /// via [`PreparedTarget::tutor`].
    pub fn compile_target(&self, target_sql: &str) -> QrResult<PreparedTarget> {
        Ok(self.prepare_target(self.prepare(target_sql)?))
    }

    /// [`QrHint::compile_target`] with the multi-block front-end. The
    /// target keeps `opts`: [`PreparedTarget::prepare`] and its `*_sql`
    /// methods parse submissions with the same front end.
    pub fn compile_target_extended(
        &self,
        target_sql: &str,
        opts: &FlattenOptions,
    ) -> QrResult<PreparedTarget> {
        let q_star = self.prepare_extended(target_sql, opts)?;
        Ok(PreparedTarget::new(self.schema.clone(), self.cfg.clone(), q_star, Some(opts.clone())))
    }

    /// Wrap an already-resolved target query as a [`PreparedTarget`]
    /// whose submissions are parsed with the single-block parser.
    pub fn prepare_target(&self, q_star: Query) -> PreparedTarget {
        PreparedTarget::new(self.schema.clone(), self.cfg.clone(), q_star, None)
    }

    /// [`QrHint::advise_sql`] with both queries run through the
    /// multi-block front-end. Either query may freely mix JOIN syntax,
    /// CTEs and FROM subqueries; hints refer to the flattened form.
    pub fn advise_sql_extended(
        &self,
        target_sql: &str,
        working_sql: &str,
        opts: &FlattenOptions,
    ) -> QrResult<Advice> {
        let q_star = self.prepare_extended(target_sql, opts)?;
        let q = self.prepare_extended(working_sql, opts)?;
        self.advise(&q_star, &q)
    }

    /// Advise on SQL strings. Stateless convenience: re-parses and
    /// re-prepares the target on every call — prefer
    /// [`QrHint::compile_target`] when grading many submissions against
    /// one target.
    pub fn advise_sql(&self, target_sql: &str, working_sql: &str) -> QrResult<Advice> {
        let q_star = self.prepare(target_sql)?;
        let q = self.prepare(working_sql)?;
        self.advise(&q_star, &q)
    }

    /// Run the stage checks on resolved queries, returning the first
    /// failing stage's hints. Stateless wrapper over a one-shot
    /// [`PreparedTarget`].
    pub fn advise(&self, q_star: &Query, q: &Query) -> QrResult<Advice> {
        self.prepare_target(q_star.clone()).advise(q)
    }

    /// Simulate a user who applies every suggested repair: iterate
    /// advise + apply until `Done`. Returns the final query and the
    /// advice trail (one entry per stage interaction — Theorem 3.1
    /// guarantees termination;
    /// [`QrHintConfig::max_stage_applications`] is defensive). Thin
    /// wrapper over [`crate::session::TutorSession::run_to_completion`].
    pub fn fix_fully(&self, q_star: &Query, q: &Query) -> QrResult<(Query, Vec<Advice>)> {
        self.prepare_target(q_star.clone()).tutor(q.clone()).run_to_completion()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrhint_sqlast::SqlType;

    fn beers_schema() -> Schema {
        Schema::new()
            .with_table(
                "Likes",
                &[("drinker", SqlType::Str), ("beer", SqlType::Str)],
                &["drinker", "beer"],
            )
            .with_table(
                "Frequents",
                &[("drinker", SqlType::Str), ("bar", SqlType::Str)],
                &["drinker", "bar"],
            )
            .with_table(
                "Serves",
                &[("bar", SqlType::Str), ("beer", SqlType::Str), ("price", SqlType::Int)],
                &["bar", "beer"],
            )
    }

    const TARGET: &str = "SELECT L.beer, S1.bar, COUNT(*)
        FROM Likes L, Frequents F, Serves S1, Serves S2
        WHERE L.drinker = F.drinker AND F.bar = S1.bar
          AND L.beer = S1.beer AND S1.beer = S2.beer
          AND S1.price <= S2.price
        GROUP BY F.drinker, L.beer, S1.bar
        HAVING F.drinker = 'Amy'";

    const WORKING: &str = "SELECT s2.beer, s2.bar, COUNT(*)
        FROM Likes, Serves s1, Serves s2
        WHERE drinker = 'Amy'
          AND Likes.beer = s1.beer AND Likes.beer = s2.beer
          AND s1.price > s2.price
        GROUP BY s2.beer, s2.bar";

    #[test]
    fn paper_example2_first_hint_is_from() {
        let qr = QrHint::new(beers_schema());
        let advice = qr.advise_sql(TARGET, WORKING).unwrap();
        assert_eq!(advice.stage, Stage::From);
        assert_eq!(advice.hints.len(), 1);
        let txt = advice.hints[0].to_string();
        assert!(txt.contains("frequents"), "{txt}");
    }

    #[test]
    fn equivalent_queries_are_done_immediately() {
        let qr = QrHint::new(beers_schema());
        let advice = qr
            .advise_sql(
                "SELECT l.beer FROM Likes l WHERE l.drinker = 'Amy'",
                "SELECT likes.beer FROM Likes WHERE likes.drinker = 'Amy'",
            )
            .unwrap();
        assert!(advice.is_equivalent());
        // Syntactically different but semantically equal WHEREs:
        let advice2 = qr
            .advise_sql(
                "SELECT s.bar FROM Serves s WHERE s.price >= 3 AND s.beer = 'IPA'",
                "SELECT s.bar FROM Serves s WHERE s.beer = 'IPA' AND s.price > 2",
            )
            .unwrap();
        assert!(advice2.is_equivalent());
    }

    #[test]
    fn where_stage_hint_and_fix() {
        let qr = QrHint::new(beers_schema());
        let advice = qr
            .advise_sql(
                "SELECT s.bar FROM Serves s WHERE s.price >= 3",
                "SELECT s.bar FROM Serves s WHERE s.price > 3",
            )
            .unwrap();
        assert_eq!(advice.stage, Stage::Where);
        let fixed = advice.fixed.unwrap();
        let advice2 = qr
            .advise(&qr.prepare("SELECT s.bar FROM Serves s WHERE s.price >= 3").unwrap(), &fixed)
            .unwrap();
        assert!(advice2.is_equivalent());
    }

    #[test]
    fn structure_mismatch_hint() {
        let qr = QrHint::new(beers_schema());
        let advice = qr
            .advise_sql(
                "SELECT l.drinker, COUNT(*) FROM Likes l GROUP BY l.drinker",
                "SELECT l.drinker, l.beer FROM Likes l",
            )
            .unwrap();
        // FROM passes; WHERE passes (both TRUE); structure mismatch next.
        assert_eq!(advice.stage, Stage::GroupBy);
        assert!(matches!(advice.hints[0], Hint::Structure { needs_grouping: true }));
    }

    #[test]
    fn full_paper_example_converges() {
        let qr = QrHint::new(beers_schema());
        let q_star = qr.prepare(TARGET).unwrap();
        let q = qr.prepare(WORKING).unwrap();
        let (final_q, trail) = qr.fix_fully(&q_star, &q).unwrap();
        assert!(trail.last().unwrap().is_equivalent());
        // The trail visits FROM first, then WHERE.
        assert_eq!(trail[0].stage, Stage::From);
        assert!(trail.iter().any(|a| a.stage == Stage::Where));
        // And the final query is verified equivalent by the pipeline.
        let final_advice = qr.advise(&q_star, &final_q).unwrap();
        assert!(final_advice.is_equivalent());
    }

    #[test]
    fn select_stage_distinct_mismatch() {
        let qr = QrHint::new(beers_schema());
        let advice = qr
            .advise_sql(
                "SELECT DISTINCT l.beer FROM Likes l",
                "SELECT l.beer FROM Likes l",
            )
            .unwrap();
        assert_eq!(advice.stage, Stage::Select);
        assert!(advice
            .hints
            .iter()
            .any(|h| matches!(h, Hint::DistinctMismatch { need_distinct: true })));
        let fixed = advice.fixed.unwrap();
        assert!(fixed.distinct);
    }

    #[test]
    fn no_spurious_select_hint_via_where_equalities() {
        // Example 2's closing remark: no suggestion to change s2.beer to
        // likes.beer in SELECT.
        let qr = QrHint::new(beers_schema());
        let advice = qr
            .advise_sql(
                "SELECT l.beer FROM Likes l, Serves s WHERE l.beer = s.beer",
                "SELECT s.beer FROM Likes l, Serves s WHERE l.beer = s.beer",
            )
            .unwrap();
        assert!(advice.is_equivalent(), "{:?}", advice.hints);
    }

    #[test]
    fn groupby_stage_hints() {
        let qr = QrHint::new(beers_schema());
        let advice = qr
            .advise_sql(
                "SELECT l.drinker, COUNT(*) FROM Likes l GROUP BY l.drinker",
                "SELECT l.drinker, COUNT(*) FROM Likes l GROUP BY l.drinker, l.beer",
            )
            .unwrap();
        assert_eq!(advice.stage, Stage::GroupBy);
        assert!(matches!(advice.hints[0], Hint::GroupByRemove { .. }));
        let (final_q, _) = qr
            .fix_fully(
                &qr.prepare("SELECT l.drinker, COUNT(*) FROM Likes l GROUP BY l.drinker")
                    .unwrap(),
                &qr.prepare(
                    "SELECT l.drinker, COUNT(*) FROM Likes l GROUP BY l.drinker, l.beer",
                )
                .unwrap(),
            )
            .unwrap();
        assert_eq!(final_q.group_by.len(), 1);
    }

    #[test]
    fn default_iteration_cap_derives_from_stage_count() {
        let cfg = QrHintConfig::default();
        assert_eq!(cfg.max_stage_applications, 3 * Stage::COUNT + 1);
        // A cap of zero makes fix_fully fail immediately rather than loop.
        let qr = QrHint::with_config(
            beers_schema(),
            QrHintConfig { max_stage_applications: 0, ..QrHintConfig::default() },
        );
        let q_star = qr.prepare("SELECT l.beer FROM Likes l").unwrap();
        let q = qr.prepare("SELECT l.drinker FROM Likes l").unwrap();
        let err = qr.fix_fully(&q_star, &q).unwrap_err();
        assert!(err.to_string().contains("0 stage applications"), "{err}");
    }
}
