//! The stage runner: the WHERE → GROUP BY → HAVING → SELECT walk of
//! §3.1, factored out of the old monolithic pipeline so the session layer
//! ([`crate::session`]) can drive it with a fresh oracle per advise and
//! the unified target that advise derived.
//!
//! Every advise runs each stage it reaches; no stage outcome is stored.
//! A tutoring session that re-advises after repairing a later stage
//! therefore re-checks the unchanged earlier stages, and those
//! re-checks cost no solver work: each check lowers its formulas
//! into the target-shared [`crate::oracle::SolverContext`], whose
//! interner gives structurally equal inputs equal ids, so an unchanged
//! stage asks exactly the `(formula, context)` keys it asked before and
//! the shared verdict cache answers them. Only checks that answered
//! `Unknown`, which are never cached, run the solver again. A repair
//! that *does* change an earlier stage's inputs (e.g. the structure fix
//! rewriting HAVING) asks new keys, which the solver decides. No outcome
//! depends on an earlier advise: the oracle starts each advise empty,
//! and the HAVING and SELECT stages clear its aggregate record before
//! they emit axioms.
//!
//! The FROM stage and table-mapping derivation stay in the session layer:
//! the oracle and the unified target both depend on their result, and the
//! session derives them per advise.

use crate::error::QrResult;
use crate::hint::{Hint, Stage};
use crate::mapping::TableMapping;
use crate::oracle::{LowerEnv, Oracle};
use crate::pipeline::{Advice, QrHintConfig};
use crate::stages::{groupby_stage, having_stage, select_stage, where_stage};
use qrhint_sqlast::{Pred, Query, Scalar};

/// Everything the WHERE→SELECT walk needs. The oracle must be fresh and
/// typed for the working query's FROM binding (and therefore also covers
/// `unified`, whose aliases live in the same space).
pub(crate) struct StageInputs<'a> {
    pub oracle: &'a mut Oracle,
    /// The target query unified into the working query's alias space.
    pub unified: &'a Query,
    /// The working query.
    pub q: &'a Query,
    pub cfg: &'a QrHintConfig,
    /// Per-row domain assertions (schema CHECK constraints instantiated
    /// per FROM alias) holding on every row of `F(Q)`.
    pub domain_ctx: &'a [Pred],
    /// The table mapping the unification came from (reported in advice).
    pub mapping: &'a TableMapping,
}

/// Run the checked stages on a working query whose FROM stage already
/// passed, returning the first failing stage's advice.
pub(crate) fn run_stages(inp: StageInputs<'_>) -> QrResult<Advice> {
    let StageInputs { oracle, unified, q, cfg, domain_ctx, mapping } = inp;

    // ---- Stage 2: WHERE (with SPJA look-ahead) ----
    let where_out = {
        let _span = qrhint_obs::span("stage:where");
        where_stage::check_where(oracle, unified, q, &cfg.repair, domain_ctx)
    };
    if !where_out.viable {
        let mut fixed = q.clone();
        // Repairs refer to the normalized working WHERE (the user's
        // movable HAVING conjuncts lifted in — a legal rewrite).
        fixed.where_pred = where_out.working_where.clone();
        fixed.having = where_out.working_having.clone();
        if let Some(r) = where_out.repair.as_ref().and_then(|o| o.repair.as_ref()) {
            fixed.where_pred = r.apply(&where_out.working_where);
        } else {
            // No repair found within limits: fall back to the
            // whole-clause replacement (always correct).
            fixed.where_pred = where_out.target_where.clone();
        }
        let hints = if where_out.hints.is_empty() {
            oracle.counters.whole_clause_fallbacks += 1;
            vec![Hint::PredicateRepair {
                clause: crate::hint::ClauseKind::Where,
                sites: vec![crate::hint::SiteHint {
                    path: vec![],
                    current: q.where_pred.clone(),
                    fix: where_out.target_where,
                }],
                // Effectively infinite (whole-clause replacement), kept
                // finite so advice serializes to valid, re-parseable JSON.
                cost: f64::MAX,
            }]
        } else {
            where_out.hints
        };
        return Ok(Advice {
            stage: Stage::Where,
            hints,
            fixed: Some(fixed),
            mapping: Some(mapping.clone()),
        });
    }
    let target_where = where_out.target_where.clone();
    let target_having = where_out.target_having.clone().unwrap_or(Pred::True);
    // Context for the later stages' reasoning: rows reaching GROUP
    // BY / HAVING / SELECT satisfy WHERE *and* the domain checks.
    // (`target_where` itself stays pristine — it is also the literal
    // fallback WHERE text for whole-clause repairs.)
    let reasoning_where = if domain_ctx.is_empty() {
        target_where.clone()
    } else {
        Pred::and(
            std::iter::once(target_where.clone())
                .chain(domain_ctx.iter().cloned())
                .collect(),
        )
    };

    // Grouping/aggregation structure, ignoring DISTINCT (a pure
    // DISTINCT mismatch is a SELECT-stage issue, not a grouping one).
    let has_group_agg = |query: &Query| {
        !query.group_by.is_empty()
            || query.having.is_some()
            || query.select.iter().any(|s| s.expr.has_aggregate())
    };
    let star_spja = has_group_agg(unified);
    let work_spja = has_group_agg(q);

    if star_spja || work_spja {
        // ---- Structure check (Lemma D.1) ----
        if star_spja != work_spja {
            let mut fixed = q.clone();
            fixed.group_by = unified.group_by.clone();
            if !star_spja {
                // De-aggregating drops HAVING — but the WHERE stage
                // passed against the *normalized* working WHERE (movable
                // HAVING conjuncts lifted in), so keep that normalized
                // form: discarding the lifted conjuncts would silently
                // lose verified constraints (e.g. a group-constant
                // filter the user wrote in HAVING).
                fixed.where_pred = where_out.working_where.clone();
                fixed.having = None;
                fixed.distinct = unified.distinct;
                // De-aggregating: unwrap aggregate calls in SELECT so
                // the query leaves the SPJA fragment (the SELECT stage
                // then repairs the expressions themselves).
                fn strip_aggs(e: &Scalar) -> Scalar {
                    match e {
                        Scalar::Agg(call) => match &call.arg {
                            qrhint_sqlast::AggArg::Expr(inner) => strip_aggs(inner),
                            qrhint_sqlast::AggArg::Star => Scalar::Int(1),
                        },
                        Scalar::Arith(l, op, r) => Scalar::Arith(
                            Box::new(strip_aggs(l)),
                            *op,
                            Box::new(strip_aggs(r)),
                        ),
                        Scalar::Neg(inner) => Scalar::Neg(Box::new(strip_aggs(inner))),
                        other => other.clone(),
                    }
                }
                for item in &mut fixed.select {
                    item.expr = strip_aggs(&item.expr);
                }
            }
            return Ok(Advice {
                stage: Stage::GroupBy,
                hints: vec![Hint::Structure { needs_grouping: star_spja }],
                fixed: Some(fixed),
                mapping: Some(mapping.clone()),
            });
        }
        // ---- Stage 3: GROUP BY ----
        {
            let _span = qrhint_obs::span("stage:groupby");
            let gb_out = groupby_stage::fix_grouping(
                oracle,
                &reasoning_where,
                &q.group_by,
                &unified.group_by,
            );
            if !gb_out.viable {
                let fixed = groupby_stage::apply_grouping_fix(q, &unified.group_by, &gb_out);
                return Ok(Advice {
                    stage: Stage::GroupBy,
                    hints: gb_out.hints(&q.group_by),
                    fixed: Some(fixed),
                    mapping: Some(mapping.clone()),
                });
            }
        }
        // ---- Stage 4: HAVING ----
        {
            let _span = qrhint_obs::span("stage:having");
            let working_having = where_out.working_having.clone().unwrap_or(Pred::True);
            let hv_out = having_stage::check_having(
                oracle,
                unified,
                &working_having,
                &reasoning_where,
                &target_having,
                &cfg.repair,
            );
            if !hv_out.viable {
                let mut normalized = q.clone();
                normalized.where_pred = where_out.working_where.clone();
                normalized.having = where_out.working_having.clone();
                let mut fixed = having_stage::apply_having_fix(&normalized, &hv_out);
                if hv_out.repair.as_ref().is_none_or(|o| o.repair.is_none()) {
                    fixed.having = if target_having == Pred::True {
                        None
                    } else {
                        Some(target_having.clone())
                    };
                }
                let hints = if hv_out.hints.is_empty() {
                    oracle.counters.whole_clause_fallbacks += 1;
                    vec![Hint::PredicateRepair {
                        clause: crate::hint::ClauseKind::Having,
                        sites: vec![crate::hint::SiteHint {
                            path: vec![],
                            current: q.having_pred(),
                            fix: target_having.clone(),
                        }],
                        cost: f64::MAX,
                    }]
                } else {
                    hv_out.hints
                };
                return Ok(Advice {
                    stage: Stage::Having,
                    hints,
                    fixed: Some(fixed),
                    mapping: Some(mapping.clone()),
                });
            }
        }
    }

    // ---- Stage 5 (or 3 for SPJ): SELECT ----
    let _select_span = qrhint_obs::span("stage:select");
    let working_exprs: Vec<Scalar> = q.select.iter().map(|s| s.expr.clone()).collect();
    let target_exprs: Vec<Scalar> =
        unified.select.iter().map(|s| s.expr.clone()).collect();
    let env = if star_spja {
        let grouped = having_stage::group_constant_cols(unified, &reasoning_where);
        let env = having_stage::install_having_context(
            oracle,
            &reasoning_where,
            &q.having_pred(),
            &target_having,
            &grouped,
        );
        // Rows reaching SELECT also satisfy HAVING.
        let hf = oracle.lower_pred_env(&target_having, &env);
        let mut full = vec![hf];
        // Both lists' aggregates need their axioms too (`MAX(r.a)` under
        // `r.a = 101` is 101).
        for e in working_exprs.iter().chain(&target_exprs) {
            oracle.lower_scalar_env(e, &env);
        }
        full.extend(oracle.aggregate_axioms(&reasoning_where));
        // Keep the WHERE facts over group-constant columns too.
        let wf_conjuncts: Vec<Pred> = match &reasoning_where {
            Pred::And(cs) => cs.clone(),
            Pred::True => vec![],
            other => vec![other.clone()],
        };
        for c in wf_conjuncts {
            let mut cols = Vec::new();
            c.collect_columns(&mut cols);
            if !c.has_aggregate() && cols.iter().all(|col| grouped.contains(col)) {
                let f = oracle.lower_pred_env(&c, &env);
                full.push(f);
            }
        }
        oracle.set_ambient(env.clone(), full);
        env
    } else {
        let wf = oracle.lower_pred(&reasoning_where);
        oracle.set_ambient(LowerEnv::plain(), vec![wf]);
        LowerEnv::plain()
    };
    let sel_out = select_stage::fix_select(oracle, &env, &working_exprs, &target_exprs);
    let distinct_ok = q.distinct == unified.distinct;
    if !sel_out.viable || !distinct_ok {
        let mut fixed = select_stage::apply_select_fix(q, &target_exprs, &sel_out);
        fixed.distinct = unified.distinct;
        let mut hints = sel_out.hints(&working_exprs);
        if !distinct_ok {
            hints.push(Hint::DistinctMismatch { need_distinct: unified.distinct });
        }
        return Ok(Advice {
            stage: Stage::Select,
            hints,
            fixed: Some(fixed),
            mapping: Some(mapping.clone()),
        });
    }

    Ok(Advice { stage: Stage::Done, hints: vec![], fixed: None, mapping: Some(mapping.clone()) })
}
