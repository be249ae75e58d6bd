//! Session-oriented grading: compile a hidden target once, advise many
//! working queries against it — concurrently.
//!
//! The paper's deployment scenario (§1, §10) is one instructor-written
//! target graded against many student submissions, interactively. The
//! stateless [`crate::QrHint::advise_sql`] re-parses and re-resolves the
//! target, and decides every solver check afresh, on every call. This
//! module amortizes that target-side work:
//!
//! * [`PreparedTarget`] — the target parsed, resolved and held ready,
//!   with two per-target reuse layers:
//!   1. **Advice cache**: identical resolved submissions (classrooms
//!      produce many duplicate answers) are graded once. Every advise
//!      consults it; [`SessionStats`] reports hits, misses and
//!      occupancy.
//!   2. **Shared verdict cache**: every solver check of every advise is
//!      probed in the target's [`SolverContext`] first, so a check any
//!      advise decided is never solved again (an `Unknown` answer is not
//!      cached). This is the only store of graded work below the advice
//!      cache: an advise runs every stage it reaches, and a
//!      [`TutorSession`] step that repaired a later stage re-checks the
//!      unchanged earlier stages from the verdict cache.
//!
//!   An advice-cache miss derives its submission's table mapping,
//!   unified target, domain context and column typing itself: they are
//!   solver-free and cost little beside the stages they feed.
//!
//!   Neither layer has a bound of its own: they live as long as the
//!   target. [`PreparedTarget::approx_cache_bytes`] accounts their bytes
//!   and [`PreparedTarget::shed_caches`] drops both at once, which is how
//!   the `qr-hint serve` registry keeps resident targets within its byte
//!   budget.
//!
//!   A target compiled with
//!   [`crate::QrHint::compile_target_extended`] keeps its
//!   [`FlattenOptions`]: [`PreparedTarget::prepare`] and every `*_sql`
//!   method parse submissions with the front end the target was
//!   compiled with.
//! * [`PreparedTarget::grade_batch`] / [`PreparedTarget::grade_batch_parallel`]
//!   — classroom-scale bulk grading, sequential or fanned out over a
//!   scoped worker pool ([`crate::parallel`]).
//! * [`TutorSession`] — the incremental advise→apply loop of the user
//!   study, one stage interaction per [`TutorSession::step`].
//!
//! ## Concurrency model
//!
//! `PreparedTarget` is `Send + Sync`, and — unlike the first session
//! design, which held one whole-state `Mutex` for the duration of every
//! advise — its interior state is sharded so concurrent advises against
//! *one* target genuinely overlap:
//!
//! * **One oracle per advise.** Each advise builds its own [`Oracle`],
//!   typed from its submission's FROM clause and bound to the target's
//!   current [`SolverContext`], owns it while it grades, and drops it on
//!   return, so a classroom batch whose submissions all share one FROM
//!   clause still grades in parallel, and no advise inherits another's
//!   oracle state. A panic while grading drops the oracle with the
//!   unwinding stack and leaves nothing behind to poison.
//! * Every advise interns formulas into — and **shares solver verdicts
//!   through** — one target-wide [`SolverContext`]: a sharded
//!   `(formula, context) → verdict` table keyed by interned ids, so a
//!   verdict decided by one advise is a read-path hit for every other,
//!   on any thread; a hit takes one shard read lock and writes nothing.
//!   Sharing stays deterministic: equal ids mean structurally identical
//!   inputs, the solver is a deterministic function of those inputs,
//!   and only definitive verdicts are cached — so a hit returns exactly
//!   what the probing advise would have computed itself.
//! * The **whole-advice cache** is an `RwLock` map with a read-path
//!   hit check, so duplicate submissions stay near-free under
//!   contention: a hit never takes the write lock.
//! * [`SessionStats`] counters never lose updates: the advise-level
//!   ones are atomics, and each advise adds its oracle's work counters
//!   to the totals as one record, under one short lock taken after
//!   grading, so [`PreparedTarget::stats`] never waits on a grading run.
//!
//! The practical upshot: use [`PreparedTarget::grade_batch_parallel`]
//! (or the CLI's `grade --jobs N`) when batches are large and mostly
//! *distinct* — duplicate-heavy batches are already served by the
//! advice cache, and tiny batches don't amortize thread spawn. Output
//! is byte-identical to the sequential path in input order.
//!
//! ```
//! use qrhint_core::QrHint;
//! use qrhint_sqlast::{Schema, SqlType};
//!
//! let schema = Schema::new().with_table(
//!     "Serves",
//!     &[("bar", SqlType::Str), ("beer", SqlType::Str), ("price", SqlType::Int)],
//!     &["bar", "beer"],
//! );
//! let qr = QrHint::new(schema);
//! let prepared = qr
//!     .compile_target("SELECT s.bar FROM Serves s WHERE s.price >= 3")
//!     .unwrap();
//! // Grade many submissions against the one prepared target.
//! let advices = prepared.grade_batch_parallel(
//!     &[
//!         "SELECT s.bar FROM Serves s WHERE s.price > 3",
//!         "SELECT x.bar FROM Serves x WHERE x.price >= 3",
//!     ],
//!     2,
//! );
//! assert!(!advices[0].as_ref().unwrap().is_equivalent());
//! assert!(advices[1].as_ref().unwrap().is_equivalent());
//! ```

use crate::error::{QrHintError, QrResult};
use crate::hint::Stage;
use crate::mapping::{table_mapping, unify_target};
use crate::oracle::{Oracle, OracleCounters, SolverContext, TypeEnv};
use crate::pipeline::{parse_resolve, Advice, QrHintConfig};
use crate::runner::{run_stages, StageInputs};
use crate::stages::from_stage;
use qrhint_sqlast::{Query, Schema};
use qrhint_sqlparse::FlattenOptions;
use serde::Serialize;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// Cumulative counters for one [`PreparedTarget`] (diagnostics and the
/// benchmark). Snapshot of the internal atomic counters; see
/// [`PreparedTarget::stats`] for the cross-thread guarantees.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct SessionStats {
    /// Total advise calls answered (including cache hits).
    pub advise_calls: u64,
    /// Calls answered from the whole-advice cache (duplicate
    /// submissions).
    pub advice_cache_hits: u64,
    /// Lookups that missed and had to grade for real. Every advise
    /// consults the cache, so `advice_cache_hits + advice_cache_misses`
    /// equals `advise_calls`.
    pub advice_cache_misses: u64,
    /// Advice-cache entries dropped by [`PreparedTarget::shed_caches`].
    pub advice_cache_evictions: u64,
    /// Advice-cache entries resident right now (point-in-time).
    pub advice_cache_entries: u64,
    /// Approximate bytes held by the advice cache right now
    /// (point-in-time; the per-entry estimate of
    /// [`PreparedTarget::approx_cache_bytes`]).
    pub advice_cache_bytes: u64,
    /// Solver checks issued across all advises' oracles, accumulated as
    /// each advise completes.
    pub solver_calls: u64,
    /// Analyzer diagnostics emitted by [`PreparedTarget`] lint runs.
    pub diagnostics_emitted: u64,
    /// Checks answered by the target's **shared verdict cache** (every
    /// advise probes one sharded table; see
    /// [`crate::oracle::SolverContext`]).
    pub verdict_cache_hits: u64,
    /// Shared-verdict-cache misses (each one ran the real solver).
    pub verdict_cache_misses: u64,
    /// Shared-verdict entries dropped by [`PreparedTarget::shed_caches`]
    /// (those resident in the context it swapped out).
    pub verdict_cache_evictions: u64,
    /// Shared-verdict entries resident right now (point-in-time; resets
    /// on [`PreparedTarget::shed_caches`]).
    pub verdict_cache_entries: u64,
    /// Approximate shared-verdict bytes resident right now.
    pub verdict_cache_bytes: u64,
    /// Distinct term nodes in the shared interner right now.
    pub interned_terms: u64,
    /// Distinct formula nodes in the shared interner right now.
    pub interned_formulas: u64,
    /// Interner construction requests answered by an existing node
    /// (hash-consing + negation-memo hits; since the last shed).
    pub interner_dedup_hits: u64,
    /// Approximate bytes of the shared interning tables right now.
    pub interner_bytes: u64,
    /// Literals pushed onto the solver's theory stack (root units and
    /// branch assignments) across solver misses.
    pub theory_pushes: u64,
    /// Full theory checks (branch leaves + pruning strides) across
    /// solver misses.
    pub theory_full_checks: u64,
    /// Branches cut by the quick-conflict detector, plus checks its root
    /// units refuted outright.
    pub quick_conflicts: u64,
    /// String or integer decisions of full theory checks answered by the
    /// solver's per-call memo (an earlier check of the same call had
    /// decided the same input) instead of a decider run.
    pub theory_memo_hits: u64,
    /// Candidate lists checked against one context (SELECT positional
    /// equivalence, GROUP BY Δ− pruning, WHERE-repair site sets).
    pub equiv_batches: u64,
    /// Candidates in those lists.
    pub equiv_batch_candidates: u64,
    /// Solver checks answered `Unknown` (an asked table row counts one):
    /// the atom or leaf budget ran out, or a theory could not decide. The
    /// advice acts only on definitive answers, so each one is a place it
    /// may be less than optimal.
    pub unknown_verdicts: u64,
    /// Graded advices whose WHERE or HAVING hint is the whole clause (the
    /// target's clause as its fix) because repair found no verified
    /// repair within its limits.
    pub whole_clause_fallbacks: u64,
}

/// The backing store for [`SessionStats`]: plain counters would lose
/// updates under [`PreparedTarget::grade_batch_parallel`]. Advise-level
/// counters are atomics; the oracle's work counters arrive as one
/// [`OracleCounters`] record per advise, added under one lock taken
/// after grading, so the lock is never held while a solver runs.
#[derive(Default)]
struct AtomicStats {
    advise_calls: AtomicU64,
    advice_cache_hits: AtomicU64,
    advice_cache_misses: AtomicU64,
    advice_cache_evictions: AtomicU64,
    verdict_cache_evictions: AtomicU64,
    /// Mirrors of the cache's occupancy, updated under its write lock,
    /// so a stats snapshot never has to take the cache lock.
    advice_cache_entries: AtomicU64,
    advice_cache_bytes: AtomicU64,
    diagnostics_emitted: AtomicU64,
    /// Work of every finished advise's oracle. Held only for one `+=`
    /// or copy, neither of which can panic, so it is never poisoned.
    oracle: Mutex<OracleCounters>,
}

impl AtomicStats {
    /// Snapshot of the accumulated counters; the point-in-time context
    /// fields (verdict entries/bytes, interner occupancy) are filled in
    /// by [`PreparedTarget::stats`].
    fn snapshot(&self) -> SessionStats {
        let o = *self.oracle.lock().expect("oracle totals never poisoned");
        SessionStats {
            advise_calls: self.advise_calls.load(Ordering::Relaxed),
            advice_cache_hits: self.advice_cache_hits.load(Ordering::Relaxed),
            advice_cache_misses: self.advice_cache_misses.load(Ordering::Relaxed),
            advice_cache_evictions: self.advice_cache_evictions.load(Ordering::Relaxed),
            advice_cache_entries: self.advice_cache_entries.load(Ordering::Relaxed),
            advice_cache_bytes: self.advice_cache_bytes.load(Ordering::Relaxed),
            solver_calls: o.solver_calls,
            diagnostics_emitted: self.diagnostics_emitted.load(Ordering::Relaxed),
            verdict_cache_hits: o.verdict_hits,
            verdict_cache_misses: o.verdict_misses,
            verdict_cache_evictions: self.verdict_cache_evictions.load(Ordering::Relaxed),
            verdict_cache_entries: 0,
            verdict_cache_bytes: 0,
            interned_terms: 0,
            interned_formulas: 0,
            interner_dedup_hits: 0,
            interner_bytes: 0,
            theory_pushes: o.theory_pushes,
            theory_full_checks: o.theory_full_checks,
            quick_conflicts: o.quick_conflicts,
            theory_memo_hits: o.theory_memo_hits,
            equiv_batches: o.equiv_batches,
            equiv_batch_candidates: o.equiv_batch_candidates,
            unknown_verdicts: o.unknown_verdicts,
            whole_clause_fallbacks: o.whole_clause_fallbacks,
        }
    }
}

/// The whole-advice duplicate cache: resolved submission → (advice,
/// approximate footprint computed once at insert).
#[derive(Default)]
struct AdviceCache {
    map: HashMap<Query, (Advice, usize)>,
    /// Sum of the entries' byte estimates.
    bytes: usize,
}

/// Approximate footprint of one cached advice: the stored key + advice
/// are tree structures whose size tracks their rendered SQL, plus a
/// constant for map/struct overhead.
fn approx_advice_bytes(q: &Query, advice: &Advice) -> usize {
    let mut n = 256 + 2 * q.to_string().len();
    if let Some(fixed) = &advice.fixed {
        n += 2 * fixed.to_string().len();
    }
    n + advice.hints.len() * 96
}

/// A target query compiled for advise-many grading: parsed, resolved,
/// and carrying the per-target reuse layers and sharded concurrency
/// state described in the [module docs](self).
///
/// Construct via [`crate::QrHint::compile_target`] (SQL) or
/// [`crate::QrHint::prepare_target`] (an already-resolved [`Query`]).
pub struct PreparedTarget {
    schema: Schema,
    cfg: QrHintConfig,
    target: Query,
    /// The multi-block front end the target was compiled with (`None`:
    /// the single-block parser); submissions are parsed the same way.
    front_end: Option<FlattenOptions>,
    /// The target-wide interning + shared-verdict state every advise's
    /// oracle binds to. [`PreparedTarget::shed_caches`] swaps in a fresh
    /// context; in-flight advises finish safely against the old `Arc`.
    shared: RwLock<Arc<SolverContext>>,
    advice_cache: RwLock<AdviceCache>,
    stats: AtomicStats,
}

// One `PreparedTarget` is shared by every worker of a parallel grading
// run; losing either bound would silently re-serialize the release
// builds that depend on it.
const fn _assert_send_sync<T: Send + Sync>() {}
const _: () = _assert_send_sync::<PreparedTarget>();

impl std::fmt::Debug for PreparedTarget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PreparedTarget")
            .field("target", &self.target.to_string())
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl PreparedTarget {
    pub(crate) fn new(
        schema: Schema,
        cfg: QrHintConfig,
        target: Query,
        front_end: Option<FlattenOptions>,
    ) -> PreparedTarget {
        PreparedTarget {
            schema,
            cfg,
            target,
            front_end,
            shared: RwLock::default(),
            advice_cache: RwLock::default(),
            stats: AtomicStats::default(),
        }
    }

    /// The current shared solver context (interner + verdict cache).
    fn solver_context(&self) -> Arc<SolverContext> {
        Arc::clone(&self.shared.read().unwrap())
    }

    /// The resolved target query (the hidden `Q★`).
    pub fn target(&self) -> &Query {
        &self.target
    }

    /// The schema the session is bound to.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The configuration the session was compiled with.
    pub fn config(&self) -> &QrHintConfig {
        &self.cfg
    }

    /// Snapshot of the cumulative session counters. Never waits on a
    /// grading run (the oracle totals' lock is only held to add or copy
    /// one record); a snapshot taken *during* a concurrent batch may
    /// straddle advises, but once the batch has joined, `advise_calls`
    /// equals the number of submissions and `solver_calls` covers all
    /// completed work.
    ///
    /// The interner and verdict-cache occupancy fields are point-in-time
    /// reads of the current shared context (they reset when
    /// [`PreparedTarget::shed_caches`] swaps it); the hit/miss/eviction
    /// counters are cumulative across sheds. The context `Arc` is read
    /// once and all of its counters come from one
    /// [`SolverContext::stats_snapshot`] pass, so a snapshot taken
    /// while a concurrent shed swaps contexts describes exactly one
    /// context — never a mix of pre- and post-shed numbers.
    pub fn stats(&self) -> SessionStats {
        let mut stats = self.stats.snapshot();
        let ctx = self.solver_context();
        let snap = ctx.stats_snapshot();
        stats.verdict_cache_entries = snap.verdict_entries;
        stats.verdict_cache_bytes = snap.verdict_bytes;
        stats.interned_terms = snap.interner.terms;
        stats.interned_formulas = snap.interner.formulas;
        stats.interner_dedup_hits = snap.interner.dedup_hits;
        stats.interner_bytes = snap.interner.bytes;
        stats
    }

    /// Parse and resolve a working query against the session schema,
    /// with the front end the target was compiled with.
    pub fn prepare(&self, sql: &str) -> QrResult<Query> {
        parse_resolve(&self.schema, sql, self.front_end.as_ref())
    }

    /// Advise on one working query given as SQL.
    pub fn advise_sql(&self, working_sql: &str) -> QrResult<Advice> {
        let q = self.prepare(working_sql)?;
        self.advise(&q)
    }

    /// Run the schema-aware static analyzer on a resolved working query:
    /// typed lints, aggregate-placement dataflow, and the interval
    /// abstract interpreter — no solver work. Diagnostics are
    /// deterministic and sorted; the emitted count is accumulated in
    /// [`SessionStats::diagnostics_emitted`].
    pub fn lint(&self, q: &Query) -> Vec<qrhint_analysis::Diagnostic> {
        let diags = qrhint_analysis::analyze(&self.schema, q);
        self.stats.diagnostics_emitted.fetch_add(diags.len() as u64, Ordering::Relaxed);
        diags
    }

    /// [`PreparedTarget::lint`] on working SQL.
    pub fn lint_sql(&self, working_sql: &str) -> QrResult<Vec<qrhint_analysis::Diagnostic>> {
        let q = self.prepare(working_sql)?;
        Ok(self.lint(&q))
    }

    /// Advise on one resolved working query: the first failing stage's
    /// hints, with every reuse layer engaged.
    pub fn advise(&self, q: &Query) -> QrResult<Advice> {
        let _span = qrhint_obs::span("advise");
        self.stats.advise_calls.fetch_add(1, Ordering::Relaxed);
        if let Some((advice, _)) =
            self.advice_cache.read().expect("advice cache never poisoned").map.get(q)
        {
            self.stats.advice_cache_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(advice.clone());
        }
        self.stats.advice_cache_misses.fetch_add(1, Ordering::Relaxed);

        // ---- Stage 1: FROM ---- (always cheap: a multiset compare)
        let from_out = {
            let _span = qrhint_obs::span("stage:from");
            from_stage::check_from(&self.target, q)
        };
        let advice = if !from_out.viable {
            Advice {
                stage: Stage::From,
                hints: from_out.hints,
                fixed: Some(from_stage::apply_from_fix(q, &self.target)),
                mapping: None,
            }
        } else {
            // Solver-free and cheap beside the stages, so derived per
            // advise. The mapping in particular cannot be keyed by FROM
            // binding: it aligns self-joined aliases by the submission's
            // own predicate signatures. The unified target's FROM has
            // `q`'s alias→table pairs, so typing `q` types both.
            let mapping = table_mapping(&self.target, q).ok_or_else(|| {
                QrHintError::Internal("table mapping failed after viable FROM".into())
            })?;
            let unified = unify_target(&self.target, &mapping);
            let domain_ctx = self.schema.domain_context(q);
            let types = TypeEnv::from_queries(&self.schema, &[q]);
            let mut oracle = Oracle::with_context(types, self.solver_context());
            let advice = run_stages(StageInputs {
                oracle: &mut oracle,
                unified: &unified,
                q,
                cfg: &self.cfg,
                domain_ctx: &domain_ctx,
                mapping: &mapping,
            });
            *self.stats.oracle.lock().expect("oracle totals never poisoned") += oracle.counters;
            advice?
        };
        self.cache_insert(q, &advice);
        Ok(advice)
    }

    /// Grade a batch of submissions. Per-submission failures (malformed
    /// or unsupported student SQL) are reported in place so one bad
    /// submission never aborts a classroom batch.
    pub fn grade_batch<S: AsRef<str>>(&self, submissions: &[S]) -> Vec<QrResult<Advice>> {
        submissions.iter().map(|sql| self.advise_sql(sql.as_ref())).collect()
    }

    /// [`PreparedTarget::grade_batch`] fanned out over a scoped worker
    /// pool of up to `jobs` threads ([`crate::parallel::run_indexed`]).
    ///
    /// Result `i` always corresponds to submission `i`, and every
    /// advice is identical to what the sequential path produces —
    /// grading is deterministic, and the shared caches never change
    /// answers (see the [module docs](self)). `jobs <= 1`
    /// degrades to the sequential loop on the calling thread.
    pub fn grade_batch_parallel<S: AsRef<str> + Sync>(
        &self,
        submissions: &[S],
        jobs: usize,
    ) -> Vec<QrResult<Advice>> {
        crate::parallel::run_indexed(submissions.len(), jobs, |i| {
            self.advise_sql(submissions[i].as_ref())
        })
    }

    /// Start an incremental tutoring session from a resolved working
    /// query. Multiple sessions may share one prepared target.
    pub fn tutor(&self, working: Query) -> TutorSession<'_> {
        TutorSession { prepared: self, working, done: false, trail: Vec::new() }
    }

    /// Start a tutoring session from working SQL.
    pub fn tutor_sql(&self, working_sql: &str) -> QrResult<TutorSession<'_>> {
        Ok(self.tutor(self.prepare(working_sql)?))
    }

    /// Insert into the advice cache. Racing duplicates may both insert;
    /// the advices are identical (deterministic grading), so the second
    /// replaces the first with an equal entry and the byte sum counts it
    /// once.
    fn cache_insert(&self, q: &Query, advice: &Advice) {
        let bytes = approx_advice_bytes(q, advice);
        let mut cache = self.advice_cache.write().unwrap();
        if cache.map.insert(q.clone(), (advice.clone(), bytes)).is_none() {
            cache.bytes += bytes;
        }
        self.stats.advice_cache_entries.store(cache.map.len() as u64, Ordering::Relaxed);
        self.stats.advice_cache_bytes.store(cache.bytes as u64, Ordering::Relaxed);
    }

    /// Approximate bytes held by this target's caches: the advice cache
    /// (exact per-entry estimates) and the shared solver context
    /// (interner tables + shared verdict cache, self-accounted). The
    /// `qr-hint serve` registry steers its byte-budget eviction with
    /// this number.
    pub fn approx_cache_bytes(&self) -> usize {
        self.stats.advice_cache_bytes.load(Ordering::Relaxed) as usize
            + self.solver_context().approx_bytes()
    }

    /// Drop every rebuildable cache — the whole-advice cache and the
    /// shared solver context (interner tables **and** the shared verdict
    /// cache) — while keeping the compiled target. Returns the
    /// approximate bytes freed, interner included, so the server
    /// registry's byte budget stays truthful after shedding. This is the
    /// only path that removes cache entries; the advice and verdict
    /// entries it drops are counted in
    /// [`SessionStats::advice_cache_evictions`] and
    /// [`SessionStats::verdict_cache_evictions`].
    ///
    /// This is the eviction hook a resident server uses as a middle
    /// ground: a shed target re-pays solver time on its next request
    /// but no target-compilation time, while a dropped target pays
    /// both. Safe under concurrent grading: the context is *swapped*,
    /// not drained — an in-flight advise keeps its oracle and the old
    /// context alive until it finishes, and its interned ids stay
    /// valid.
    pub fn shed_caches(&self) -> usize {
        let freed = {
            let mut cache = self.advice_cache.write().unwrap();
            let freed = cache.bytes;
            let dropped = cache.map.len() as u64;
            cache.map.clear();
            cache.bytes = 0;
            self.stats.advice_cache_evictions.fetch_add(dropped, Ordering::Relaxed);
            self.stats.advice_cache_entries.store(0, Ordering::Relaxed);
            self.stats.advice_cache_bytes.store(0, Ordering::Relaxed);
            freed
        };
        let old = std::mem::take(&mut *self.shared.write().expect("context slot never poisoned"));
        self.stats
            .verdict_cache_evictions
            .fetch_add(old.verdicts.entries() as u64, Ordering::Relaxed);
        freed + old.approx_bytes()
    }
}

/// A stateful tutoring session against one [`PreparedTarget`]: the
/// advise → apply-fix loop of the paper's user study, one stage
/// interaction per [`TutorSession::step`].
///
/// After a stage's repair is applied, the next step's walk re-checks
/// every earlier stage. An unchanged stage is re-checked from the
/// prepared target's shared verdict cache, and only checks that
/// answered `Unknown` run the solver again; a repair that *did* touch
/// an earlier stage's clauses asks new checks, which the solver decides
/// — so a session's final `Done` is always a fully verified
/// equivalence.
/// [`TutorSession::revise`] accepts an arbitrary user-written revision
/// in place of the suggested fix.
pub struct TutorSession<'a> {
    prepared: &'a PreparedTarget,
    working: Query,
    done: bool,
    trail: Vec<Advice>,
}

impl TutorSession<'_> {
    /// The current working query.
    pub fn working(&self) -> &Query {
        &self.working
    }

    /// Advice received so far, in order (one entry per stage
    /// interaction; ends with the `Done` advice once equivalent).
    pub fn trail(&self) -> &[Advice] {
        &self.trail
    }

    /// Has the session reached equivalence?
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Replace the working query with a user-written revision (instead
    /// of applying the suggested fix).
    pub fn revise(&mut self, working: Query) {
        self.working = working;
        self.done = false;
    }

    /// One interaction: advise on the current working query (unchanged
    /// stages are re-checked from the verdict cache) and auto-apply the
    /// suggested repair, as the simulated user of the experiments does.
    /// Returns the advice. Once the session is `Done`, further steps
    /// return the final advice unchanged.
    pub fn step(&mut self) -> QrResult<Advice> {
        if self.done {
            if let Some(last) = self.trail.last() {
                return Ok(last.clone());
            }
        }
        let advice = self.prepared.advise(&self.working)?;
        self.trail.push(advice.clone());
        if advice.is_equivalent() {
            self.done = true;
        } else {
            let fixed = advice.fixed.clone().ok_or_else(|| {
                QrHintError::Internal(format!(
                    "stage {} produced no applicable fix",
                    advice.stage
                ))
            })?;
            self.working = fixed;
        }
        Ok(advice)
    }

    /// Drive [`TutorSession::step`] until equivalence, consuming the
    /// session: the simulated user who applies every suggested repair.
    /// Returns the final (equivalent) query and the advice trail. Errors
    /// if the pipeline does not converge within
    /// [`QrHintConfig::max_stage_applications`] interactions.
    pub fn run_to_completion(mut self) -> QrResult<(Query, Vec<Advice>)> {
        let cap = self.prepared.cfg.max_stage_applications;
        for _ in 0..cap {
            if self.step()?.is_equivalent() {
                return Ok((self.working, self.trail));
            }
        }
        Err(QrHintError::Internal(format!(
            "pipeline did not converge within {cap} stage applications"
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::QrHint;
    use qrhint_sqlast::SqlType;

    fn beers_schema() -> Schema {
        Schema::new()
            .with_table(
                "Likes",
                &[("drinker", SqlType::Str), ("beer", SqlType::Str)],
                &["drinker", "beer"],
            )
            .with_table(
                "Serves",
                &[("bar", SqlType::Str), ("beer", SqlType::Str), ("price", SqlType::Int)],
                &["bar", "beer"],
            )
    }

    const TARGET: &str = "SELECT s.bar FROM Serves s WHERE s.price >= 3";

    #[test]
    fn prepared_matches_stateless_advice() {
        let qr = QrHint::new(beers_schema());
        let prepared = qr.compile_target(TARGET).unwrap();
        for working in [
            "SELECT s.bar FROM Serves s WHERE s.price > 3",
            "SELECT x.bar FROM Serves x WHERE x.price >= 3",
            "SELECT l.beer FROM Likes l",
        ] {
            let cold = qr.advise_sql(TARGET, working).unwrap();
            let warm = prepared.advise_sql(working).unwrap();
            assert_eq!(cold.stage, warm.stage, "{working}");
            assert_eq!(cold.hints, warm.hints, "{working}");
            assert_eq!(cold.fixed, warm.fixed, "{working}");
        }
    }

    #[test]
    fn duplicate_submissions_hit_the_advice_cache() {
        let qr = QrHint::new(beers_schema());
        let prepared = qr.compile_target(TARGET).unwrap();
        let sub = "SELECT s.bar FROM Serves s WHERE s.price > 3";
        let batch = [sub, sub, sub, sub];
        let advices = prepared.grade_batch(&batch);
        assert!(advices.iter().all(|a| a.is_ok()));
        let stats = prepared.stats();
        assert_eq!(stats.advise_calls, 4);
        assert_eq!(stats.advice_cache_hits, 3);
        assert_eq!(
            stats.advice_cache_hits + stats.advice_cache_misses,
            stats.advise_calls,
            "every advise consults the cache: {stats:?}"
        );
    }

    #[test]
    fn extended_target_parses_submissions_with_its_front_end() {
        // A target compiled with the multi-block front end parses every
        // submission with it: JOIN syntax advises exactly as the one-shot
        // extended path does, and lints and tutors too.
        let qr = QrHint::new(beers_schema());
        let target = "SELECT s.bar FROM Serves s JOIN Likes l ON s.beer = l.beer \
                      WHERE s.price >= 3";
        let working = "SELECT s.bar FROM Serves s JOIN Likes l ON s.beer = l.beer \
                       WHERE s.price > 3";
        let opts = FlattenOptions::default();
        let prepared = qr.compile_target_extended(target, &opts).unwrap();
        let advice = prepared.advise_sql(working).unwrap();
        assert_eq!(advice.stage, Stage::Where);
        assert_eq!(advice, qr.advise_sql_extended(target, working, &opts).unwrap());
        assert!(prepared.lint_sql(working).unwrap().is_empty());
        let (_, trail) = prepared.tutor_sql(working).unwrap().run_to_completion().unwrap();
        assert!(trail.last().unwrap().is_equivalent());
        // The single-block parser of a plain target still refuses JOIN.
        let plain = qr.compile_target("SELECT s.bar FROM Serves s WHERE s.price >= 3").unwrap();
        assert!(matches!(plain.advise_sql(working), Err(QrHintError::Unsupported(_))));
    }

    #[test]
    fn contradictory_where_is_refuted_by_root_units() {
        // `price > 5 AND price < 3` is refuted by the solver's root unit
        // assignments alone, before any branching.
        let contradiction = "SELECT s.bar FROM Serves s WHERE s.price > 5 AND s.price < 3";
        let qr = QrHint::new(beers_schema());
        let prepared = qr.compile_target(TARGET).unwrap();
        let advice = prepared.advise_sql(contradiction).unwrap();
        assert_eq!(advice.stage, Stage::Where);
        let stats = prepared.stats();
        assert!(stats.quick_conflicts > 0, "root units must refute the contradiction: {stats:?}");
        // The one-shot path agrees, and the suggested fix converges.
        let stateless = qr
            .advise(&qr.prepare(TARGET).unwrap(), &qr.prepare(contradiction).unwrap())
            .unwrap();
        assert_eq!(advice.hints, stateless.hints);
        assert_eq!(advice.fixed, stateless.fixed);
        let fixed = advice.fixed.expect("WHERE advice carries a fix");
        assert!(prepared.advise(&fixed).unwrap().is_equivalent());
    }

    #[test]
    fn checks_over_the_atom_budget_count_as_unknown_verdicts() {
        // 21 distinct atoms on each side, so the WHERE equivalence checks
        // exceed the solver's 20-atom budget and answer Unknown.
        let disjuncts = |from: i64| {
            (from..from + 21).map(|k| format!("s.price = {k}")).collect::<Vec<_>>().join(" OR ")
        };
        let qr = QrHint::new(beers_schema());
        let target = format!("SELECT s.bar FROM Serves s WHERE {}", disjuncts(1));
        let prepared = qr.compile_target(&target).unwrap();
        let advice = prepared
            .advise_sql(&format!("SELECT s.bar FROM Serves s WHERE {}", disjuncts(2)))
            .unwrap();
        let stats = prepared.stats();
        assert!(stats.unknown_verdicts > 0, "{stats:?}");
        assert!(stats.unknown_verdicts <= stats.verdict_cache_misses, "{stats:?}");
        // The advice Unknown answers lead to: the whole clause flagged,
        // with the target's clause as its fix. The repair search verified
        // that root-site repair (its fix is the target clause itself, so
        // it is the same interned formula), so it is a repair, not a
        // whole-clause fallback.
        assert_eq!(stats.whole_clause_fallbacks, 0, "{stats:?}");
        assert_eq!(advice.stage, Stage::Where);
        let hints: Vec<String> = advice.hints.iter().map(ToString::to_string).collect();
        assert_eq!(
            hints,
            [format!("In WHERE: `{}` has a problem — try fixing it.", disjuncts(2))]
        );
        assert_eq!(
            advice.fixed.map(|q| q.to_string()),
            Some(format!("SELECT s.bar FROM serves s WHERE {}", disjuncts(1)))
        );
        // An ordinary WHERE repair is no fallback.
        let prepared = qr.compile_target(TARGET).unwrap();
        let advice = prepared.advise_sql("SELECT s.bar FROM Serves s WHERE s.price > 3").unwrap();
        assert_eq!(advice.stage, Stage::Where);
        assert_eq!(prepared.stats().whole_clause_fallbacks, 0, "{:?}", prepared.stats());
    }

    #[test]
    fn clauses_without_a_verified_repair_count_whole_clause_fallbacks() {
        // A 21-atom CHECK constraint joins every check as domain context,
        // so each check exceeds the solver's 20-atom budget and answers
        // Unknown. A candidate repair then verifies only if it rebuilds
        // the target clause node for node (the same interned formula
        // needs no solver); these working clauses put the target's
        // conjuncts in another order, so none does, and the advice falls
        // back to the whole target clause.
        let check = (100..121).map(|k| format!("price <> {k}")).collect::<Vec<_>>().join(" AND ");
        let check = qrhint_sqlparse::parse_pred(&check).unwrap();
        let qr = QrHint::new(beers_schema().with_check("Serves", check));
        // One advise on a fresh target: its stage, its one hint, and the
        // target's fallback count.
        let advise = |target: &str, working: &str| {
            let prepared = qr.compile_target(target).unwrap();
            let advice = prepared.advise_sql(working).unwrap();
            let [crate::Hint::PredicateRepair { sites, cost, .. }] = &advice.hints[..] else {
                panic!("one predicate hint expected: {advice:?}");
            };
            let whole = sites.len() == 1 && sites[0].path.is_empty() && *cost == f64::MAX;
            (advice.stage, whole, prepared.stats().whole_clause_fallbacks)
        };
        let target =
            "SELECT s.bar FROM Serves s WHERE s.price = 1 AND (s.beer = 'Bud' OR s.bar = 'x')";
        let working = "SELECT s.bar FROM Serves s WHERE s.beer = 'Bud' AND s.price = 1";
        assert_eq!(advise(target, working), (Stage::Where, true, 1));
        let target = "SELECT s.price FROM Serves s GROUP BY s.price \
                      HAVING COUNT(*) > 1 AND (MAX(s.bar) = 'x' OR MIN(s.beer) = 'y')";
        let working = "SELECT s.price FROM Serves s GROUP BY s.price \
                       HAVING MAX(s.bar) = 'x' AND COUNT(*) > 1";
        assert_eq!(advise(target, working), (Stage::Having, true, 1));
    }

    #[test]
    fn shed_caches_preserves_answers_and_resets_occupancy() {
        let qr = QrHint::new(beers_schema());
        let prepared = qr.compile_target(TARGET).unwrap();
        let sub = "SELECT s.bar FROM Serves s WHERE s.price > 3";
        let before = prepared.advise_sql(sub).unwrap();
        assert!(prepared.approx_cache_bytes() > 0);
        let freed = prepared.shed_caches();
        assert!(freed > 0);
        let stats = prepared.stats();
        assert_eq!(stats.advice_cache_entries, 0);
        assert_eq!(stats.advice_cache_bytes, 0);
        // Next advise re-pays solver work but answers identically.
        let after = prepared.advise_sql(sub).unwrap();
        assert_eq!(before.stage, after.stage);
        assert_eq!(before.hints, after.hints);
        assert_eq!(before.fixed, after.fixed);
    }

    #[test]
    fn verdict_stats_are_coherent_and_hits_occur_on_repair_workloads() {
        // The repair search re-checks many identical implications, so a
        // WHERE-repair advise must produce shared-verdict hits even
        // sequentially — and every sat call is exactly one hit or miss.
        let qr = QrHint::new(beers_schema());
        let prepared = qr
            .compile_target("SELECT s.bar FROM Serves s WHERE s.price >= 3 AND s.beer = 'Bud'")
            .unwrap();
        prepared
            .advise_sql("SELECT s.bar FROM Serves s WHERE s.price > 3 AND s.beer = 'Stout'")
            .unwrap();
        let stats = prepared.stats();
        assert!(stats.solver_calls > 0);
        assert_eq!(
            stats.verdict_cache_hits + stats.verdict_cache_misses,
            stats.solver_calls,
            "every sat call is exactly one hit or one miss: {stats:?}"
        );
        assert!(stats.verdict_cache_hits > 0, "repair search must re-probe: {stats:?}");
        assert!(stats.verdict_cache_entries > 0);
        assert!(stats.verdict_cache_bytes > 0);
        assert!(stats.interned_formulas > 0);
        assert!(stats.interned_terms > 0);
        assert!(stats.interner_dedup_hits > 0, "lowering dedups shared nodes");
        assert!(stats.interner_bytes > 0);
    }

    #[test]
    fn shed_caches_drains_shared_verdicts_and_reports_interner_bytes() {
        let qr = QrHint::new(beers_schema());
        let prepared = qr.compile_target(TARGET).unwrap();
        let sub = "SELECT s.bar FROM Serves s WHERE s.price > 3";
        let before_advice = prepared.advise_sql(sub).unwrap();
        let before = prepared.stats();
        assert!(before.verdict_cache_entries > 0);
        assert!(before.interner_bytes > 0);
        let freed = prepared.shed_caches();
        assert!(
            freed as u64 >= before.interner_bytes + before.verdict_cache_bytes,
            "freed bytes ({freed}) must cover interner + verdict cache ({before:?})"
        );
        let after = prepared.stats();
        assert_eq!(after.verdict_cache_entries, 0, "shared cache drained");
        assert_eq!(after.verdict_cache_bytes, 0);
        assert_eq!(
            after.verdict_cache_evictions, before.verdict_cache_entries,
            "the shed counts every verdict it drops"
        );
        assert!(after.interned_terms == 0, "fresh interner");
        assert!(after.interned_formulas <= 2, "only the pre-interned constants remain");
        // Cumulative counters survive the context swap.
        assert_eq!(after.verdict_cache_misses, before.verdict_cache_misses);
        assert_eq!(after.verdict_cache_hits, before.verdict_cache_hits);
        // And grading still answers identically on the fresh context.
        let after_advice = prepared.advise_sql(sub).unwrap();
        assert_eq!(before_advice, after_advice);
    }

    #[test]
    fn batch_reports_per_submission_errors() {
        let qr = QrHint::new(beers_schema());
        let prepared = qr.compile_target(TARGET).unwrap();
        let advices = prepared.grade_batch(&[
            "SELECT s.bar FROM Serves s",
            "SELEKT nonsense",
        ]);
        assert!(advices[0].is_ok());
        assert!(matches!(advices[1], Err(QrHintError::Parse(_))));
    }

    #[test]
    fn parallel_batch_reports_errors_in_place_and_in_order() {
        let qr = QrHint::new(beers_schema());
        let prepared = qr.compile_target(TARGET).unwrap();
        let batch = [
            "SELECT s.bar FROM Serves s",
            "SELEKT nonsense",
            "SELECT s.bar FROM Serves s WHERE s.price >= 3",
        ];
        for jobs in [1, 2, 4, 8] {
            let advices = prepared.grade_batch_parallel(&batch, jobs);
            assert!(advices[0].as_ref().is_ok_and(|a| !a.is_equivalent()), "jobs={jobs}");
            assert!(matches!(advices[1], Err(QrHintError::Parse(_))), "jobs={jobs}");
            assert!(advices[2].as_ref().is_ok_and(|a| a.is_equivalent()), "jobs={jobs}");
        }
    }

    #[test]
    fn structure_fix_preserves_lifted_having_conjuncts() {
        // Regression: de-aggregating (Structure fix) used to drop the
        // working HAVING wholesale, losing movable conjuncts the WHERE
        // stage had verified in their lifted position — and a session
        // could then declare a bogus Done. The fix must keep the
        // normalized WHERE, and the session's Done must be genuine.
        let qr = QrHint::new(beers_schema());
        let prepared = qr
            .compile_target(
                "SELECT DISTINCT s.bar FROM Serves s \
                 WHERE s.price > 3 AND s.beer = 'Bud'",
            )
            .unwrap();
        let session = prepared
            .tutor_sql(
                "SELECT s.bar FROM Serves s WHERE s.price > 3 \
                 GROUP BY s.bar, s.beer HAVING s.beer = 'Bud'",
            )
            .unwrap();
        let (final_q, trail) = session.run_to_completion().unwrap();
        assert!(trail.last().unwrap().is_equivalent());
        let cold = qr
            .advise_sql(
                "SELECT DISTINCT s.bar FROM Serves s \
                 WHERE s.price > 3 AND s.beer = 'Bud'",
                &final_q.to_string(),
            )
            .unwrap();
        assert!(cold.is_equivalent(), "bogus Done: {final_q}");
        assert!(final_q.to_string().contains("'Bud'"), "lost conjunct: {final_q}");
    }

    #[test]
    fn tutor_session_converges_to_a_verified_done() {
        let qr = QrHint::new(beers_schema());
        let prepared = qr
            .compile_target(
                "SELECT s.bar, COUNT(*) FROM Serves s \
                 WHERE s.price >= 3 GROUP BY s.bar",
            )
            .unwrap();
        let mut session = prepared
            .tutor_sql("SELECT s.bar, COUNT(*) FROM Serves s WHERE s.price > 3 GROUP BY s.bar, s.beer")
            .unwrap();
        let mut stages = Vec::new();
        while !session.is_done() {
            stages.push(session.step().unwrap().stage);
        }
        assert_eq!(*stages.last().unwrap(), Stage::Done);
        assert!(stages.contains(&Stage::Where));
        // Done steps are idempotent.
        assert!(session.step().unwrap().is_equivalent());
        // And the final query is genuinely equivalent per a cold check.
        let final_advice = prepared.advise(session.working()).unwrap();
        assert!(final_advice.is_equivalent());
    }

    #[test]
    fn self_join_submissions_with_swapped_roles_grade_independently() {
        // Regression: the table mapping was once cached by FROM binding
        // alone, but self-join alias alignment depends on each
        // submission's predicates — a correct answer with the alias roles
        // swapped relative to an earlier submission was misgraded.
        let qr = QrHint::new(beers_schema());
        let prepared = qr
            .compile_target(
                "SELECT a.bar FROM Serves a, Serves b \
                 WHERE a.bar = 'J' AND a.price < b.price",
            )
            .unwrap();
        // First submission fixes the binding {x,y} with mapping a→x, b→y.
        let first = prepared
            .advise_sql(
                "SELECT x.bar FROM Serves x, Serves y \
                 WHERE x.bar = 'J' AND x.price < y.price",
            )
            .unwrap();
        assert!(first.is_equivalent());
        // Same binding, swapped roles: needs mapping a→y, b→x.
        let swapped = prepared
            .advise_sql(
                "SELECT y.bar FROM Serves x, Serves y \
                 WHERE y.bar = 'J' AND y.price < x.price",
            )
            .unwrap();
        assert!(swapped.is_equivalent(), "{:?}", swapped.hints);
    }

    fn r_schema() -> Schema {
        Schema::new().with_table("R", &[("a", SqlType::Int), ("b", SqlType::Int)], &["a", "b"])
    }

    /// A grouped target whose SELECT constant the working query writes as
    /// an aggregate: under `r.a = 101`, `MAX(r.a)` is 101.
    const GROUPED_TARGET: &str = "SELECT r.b, 101 FROM R r WHERE r.a = 101 GROUP BY r.b";
    const MAX_WORK: &str = "SELECT r.b, MAX(r.a) FROM R r WHERE r.a = 101 GROUP BY r.b";
    const MAX_PLUS_ZERO: &str = "SELECT r.b, MAX(r.a) + 0 FROM R r WHERE r.a = 101 GROUP BY r.b";

    #[test]
    fn select_aggregates_get_their_axioms() {
        let qr = QrHint::new(r_schema());
        let one_shot = qr.advise_sql(GROUPED_TARGET, MAX_WORK).unwrap();
        assert!(one_shot.is_equivalent(), "{:?}", one_shot.hints);
        let prepared = qr.compile_target(GROUPED_TARGET).unwrap();
        let advice = prepared.advise_sql(MAX_WORK).unwrap();
        assert!(advice.is_equivalent(), "{:?}", advice.hints);
    }

    #[test]
    fn advice_does_not_depend_on_earlier_advises() {
        let qr = QrHint::new(r_schema());
        let prepared = qr.compile_target(GROUPED_TARGET).unwrap();
        let first = prepared.advise_sql(MAX_WORK).unwrap();
        // The same query with its aggregate named is a new advice-cache
        // key with the first advise's stage inputs, so it is graded again.
        let named = MAX_WORK.replace("MAX(r.a)", "MAX(r.a) AS m");
        assert_eq!(prepared.advise_sql(&named).unwrap(), first, "graded twice");
        assert_eq!(prepared.stats().advice_cache_hits, 0);

        let fresh = || QrHint::new(r_schema()).compile_target(GROUPED_TARGET).unwrap();
        let alone = fresh().grade_batch(&[MAX_WORK]).remove(0).unwrap();
        let after_other = fresh().grade_batch(&[MAX_PLUS_ZERO, MAX_WORK]).remove(1).unwrap();
        assert_eq!(after_other, alone, "graded after another submission");
        for jobs in [1, 2, 4] {
            let parallel =
                fresh().grade_batch_parallel(&[MAX_PLUS_ZERO, MAX_WORK], jobs).remove(1).unwrap();
            assert_eq!(parallel, alone, "jobs={jobs}");
        }
        assert_eq!(qr.advise_sql(GROUPED_TARGET, MAX_WORK).unwrap(), alone, "one-shot");
        assert_eq!(first, alone);
    }

    #[test]
    fn rechecking_one_where_input_only_hits_the_verdict_cache() {
        // Two submissions with one WHERE stage input: the second advise
        // runs the WHERE stage again with its own oracle, and each check
        // it asks is one the first advise decided, so the shared verdict
        // cache answers every one and the solver runs none.
        let qr = QrHint::new(beers_schema());
        let prepared = qr.compile_target(TARGET).unwrap();
        let first = prepared.advise_sql("SELECT s.bar FROM Serves s WHERE s.price > 3").unwrap();
        let before = prepared.stats();
        assert!(before.verdict_cache_misses > 0, "{before:?}");
        assert_eq!(before.unknown_verdicts, 0, "{before:?}");
        let second = prepared.advise_sql("SELECT s.beer FROM Serves s WHERE s.price > 3").unwrap();
        let after = prepared.stats();
        assert_eq!((first.stage, second.stage), (Stage::Where, Stage::Where));
        assert_eq!(after.advice_cache_hits, 0, "{after:?}");
        assert!(after.verdict_cache_hits > before.verdict_cache_hits, "{after:?}");
        assert_eq!(after.verdict_cache_misses, before.verdict_cache_misses, "{after:?}");
    }

    #[test]
    fn revise_replaces_the_working_query() {
        let qr = QrHint::new(beers_schema());
        let prepared = qr.compile_target(TARGET).unwrap();
        let mut session =
            prepared.tutor_sql("SELECT s.bar FROM Serves s WHERE s.price > 3").unwrap();
        session.step().unwrap();
        // The user types a fresh (wrong-FROM) attempt instead.
        let revision = prepared.prepare("SELECT l.beer FROM Likes l").unwrap();
        session.revise(revision);
        assert!(!session.is_done());
        let advice = session.step().unwrap();
        assert_eq!(advice.stage, Stage::From);
    }
}
