//! The solver oracle: lowers SQL predicates and expressions into the SMT
//! fragment and exposes the paper's three primitives (`IsSatisfiable`,
//! `IsUnSatisfiable`, `IsEquiv`) at the AST level.
//!
//! ## Interned representation (PR 5)
//!
//! Lowering no longer builds `Box`-tree [`Formula`] values: every term and
//! formula is hash-consed into a shared arena
//! ([`qrhint_smt::Interner`] inside a [`SolverContext`]), and the oracle
//! API trafficks in [`TermId`] / [`FormulaId`] — `u32` handles whose
//! equality *is* structural equality. The wins, in order of importance:
//!
//! * **Shared verdicts.** Satisfiability checks are memoized in the
//!   context's sharded `VerdictCache` keyed by
//!   `(FormulaId, [FormulaId])` — integer compares, no tree walk, no
//!   hash-collision bucket scan. Every oracle created from the same
//!   `SolverContext` (one per advise on one
//!   [`crate::session::PreparedTarget`]) shares the table, so a verdict
//!   one advise decided is a read-path hit for every later or concurrent
//!   advise.
//! * **Cheap construction.** Structurally equal subformulas intern to one
//!   node; negation is memoized per node; conjunction/disjunction flatten
//!   without cloning children.
//! * **Trees only on misses.** The solver consumes trees; a check
//!   extracts them from the arena ([`Interner::formula`]) only on a
//!   verdict-cache miss. A MinFix truth table ([`Oracle::sat_rows`])
//!   probes every row by id and extracts only its literals and context,
//!   once, for one [`Solver::check_rows`] walk over all missed rows.
//!
//! Variable allocation (columns, aggregates) also lives in the shared
//! context, keyed by `(column, tuple-tag, sort)` / `(aggregate key,
//! sort)`, so the same reference lowers to the same [`VarId`] in every
//! oracle — which is what makes ids (and therefore cached verdicts)
//! comparable across advises and threads. Each oracle still keeps a
//! *private* record of the aggregate keys it interned since its ambient
//! state was last cleared ([`Oracle::clear_ambient`], which the HAVING
//! and SELECT stages call before they build their contexts):
//! [`Oracle::aggregate_axioms`] emits axioms only over those, so a
//! stage's axiom set is a function of that stage's own inputs, never of
//! what was lowered before it or on another thread.
//!
//! The oracle shares the variable space, so the same column reference
//! always lowers to the same solver variable — transitivity of equality
//! across clauses (the Example-1 inference) falls out automatically.
//!
//! ## Aggregate lowering (§7, Appendix E)
//!
//! Instead of Z3 arrays with universally quantified axioms, aggregate
//! terms are canonicalized during lowering, which keeps the fragment
//! decidable while covering the same inference rules:
//!
//! * `SUM(Σ cᵢ·xᵢ + c₀)` → `Σ cᵢ·SUM(xᵢ) + c₀·COUNT(*)` (linearity of SUM
//!   over a group with no NULLs);
//! * `COUNT(e)` → `COUNT(*)` (no NULLs);
//! * `MIN/MAX(c·x + d)` → `c·MIN/MAX(x) + d`, flipping MIN↔MAX for `c<0`;
//! * aggregates over *grouped* columns collapse to the scalar column
//!   variable (`MIN(x) = MAX(x) = AVG(x) = x` when `x` is group-constant);
//! * everything else becomes an opaque aggregate variable, deduplicated by
//!   canonical argument.
//!
//! [`Oracle::aggregate_axioms`] then emits the sound facts relating these
//! variables (`COUNT(*) ≥ 1`, `MIN ≤ AVG ≤ MAX`, WHERE-implied per-row
//! bounds lifted to MIN/MAX/AVG/SUM, `COUNT(DISTINCT e) ≤ COUNT(*)`).
//! `AVG` is floor semantics (see `qrhint-engine`), for which
//! `MIN ≤ AVG ≤ MAX` is exact; the paper's constant-distribution rule for
//! AVG is deliberately dropped because it is unsound under integer
//! division.

use crate::verdicts::{VerdictCache, VerdictKey};
use qrhint_smt::{
    Formula, FormulaId, Interner, Rel, SolveStats, Solver, Sort, TermId, TriBool, VarId,
    VarPool,
};
use qrhint_sqlast::{
    AggArg, AggCall, AggFunc, ArithOp, CmpOp, ColRef, Pred, Query, Scalar, Schema, SqlType,
};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::AddAssign;
use std::sync::{Arc, RwLock};

/// Column typing environment.
#[derive(Debug, Clone, Default)]
pub struct TypeEnv {
    map: BTreeMap<ColRef, SqlType>,
}

impl TypeEnv {
    /// Build from resolved queries against a schema: every alias.column of
    /// every FROM table is typed.
    pub fn from_queries(schema: &Schema, queries: &[&Query]) -> TypeEnv {
        let mut map = BTreeMap::new();
        for q in queries {
            for tref in &q.from {
                if let Some(ts) = schema.table(&tref.table) {
                    for col in &ts.columns {
                        map.insert(ColRef::new(&tref.alias, &col.name), col.ty);
                    }
                }
            }
        }
        TypeEnv { map }
    }

    /// Infer column types from predicate usage (for standalone-predicate
    /// experiments): columns compared with string literals or used in LIKE
    /// are strings; everything else defaults to Int.
    pub fn infer_from_preds(preds: &[&Pred]) -> TypeEnv {
        let mut map: BTreeMap<ColRef, SqlType> = BTreeMap::new();
        fn scan_cmp(l: &Scalar, r: &Scalar, map: &mut BTreeMap<ColRef, SqlType>) {
            let is_strlit =
                |e: &Scalar| matches!(e, Scalar::Str(_));
            if is_strlit(r) {
                if let Scalar::Col(c) = l {
                    map.insert(c.clone(), SqlType::Str);
                }
            }
            if is_strlit(l) {
                if let Scalar::Col(c) = r {
                    map.insert(c.clone(), SqlType::Str);
                }
            }
        }
        fn scan(p: &Pred, map: &mut BTreeMap<ColRef, SqlType>) {
            match p {
                Pred::Cmp(l, _, r) => scan_cmp(l, r, map),
                Pred::Like { expr: Scalar::Col(c), .. } => {
                    map.insert(c.clone(), SqlType::Str);
                }
                Pred::And(cs) | Pred::Or(cs) => cs.iter().for_each(|c| scan(c, map)),
                Pred::Not(c) => scan(c, map),
                _ => {}
            }
        }
        for p in preds {
            scan(p, &mut map);
        }
        // Propagate string-ness through column-column equality atoms.
        for _ in 0..3 {
            let mut additions: Vec<ColRef> = Vec::new();
            fn scan_eq(p: &Pred, map: &BTreeMap<ColRef, SqlType>, add: &mut Vec<ColRef>) {
                match p {
                    Pred::Cmp(Scalar::Col(a), _, Scalar::Col(b)) => {
                        if map.get(a) == Some(&SqlType::Str) && !map.contains_key(b) {
                            add.push(b.clone());
                        }
                        if map.get(b) == Some(&SqlType::Str) && !map.contains_key(a) {
                            add.push(a.clone());
                        }
                    }
                    Pred::And(cs) | Pred::Or(cs) => {
                        cs.iter().for_each(|c| scan_eq(c, map, add))
                    }
                    Pred::Not(c) => scan_eq(c, map, add),
                    _ => {}
                }
            }
            for p in preds {
                scan_eq(p, &map, &mut additions);
            }
            if additions.is_empty() {
                break;
            }
            for c in additions {
                map.insert(c, SqlType::Str);
            }
        }
        TypeEnv { map }
    }

    pub fn type_of(&self, c: &ColRef) -> SqlType {
        self.map.get(c).copied().unwrap_or(SqlType::Int)
    }

    pub fn insert(&mut self, c: ColRef, ty: SqlType) {
        self.map.insert(c, ty);
    }
}

/// Lowering environment: tuple tag (for the two-tuple GROUP BY encoding of
/// Algorithm 4) and the set of group-constant columns (for aggregate
/// collapsing in HAVING/SELECT lowering).
#[derive(Debug, Clone, Default)]
pub struct LowerEnv {
    pub tuple_tag: u8,
    pub grouped: BTreeSet<ColRef>,
}

impl LowerEnv {
    pub fn plain() -> LowerEnv {
        LowerEnv::default()
    }

    pub fn tuple(tag: u8) -> LowerEnv {
        LowerEnv { tuple_tag: tag, grouped: BTreeSet::new() }
    }

    pub fn grouped(cols: BTreeSet<ColRef>) -> LowerEnv {
        LowerEnv { tuple_tag: 0, grouped: cols }
    }
}

/// Canonical affine form of a scalar over column references.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct AffExpr {
    pub coeffs: BTreeMap<ColRef, i64>,
    pub k: i64,
}

impl AffExpr {
    fn constant(k: i64) -> AffExpr {
        AffExpr { coeffs: BTreeMap::new(), k }
    }

    fn col(c: &ColRef) -> AffExpr {
        let mut coeffs = BTreeMap::new();
        coeffs.insert(c.clone(), 1);
        AffExpr { coeffs, k: 0 }
    }

    /// `None` on i64 overflow, as are `scale` and `negate`.
    fn add(&self, o: &AffExpr) -> Option<AffExpr> {
        let mut out = self.clone();
        for (c, v) in &o.coeffs {
            let e = out.coeffs.entry(c.clone()).or_insert(0);
            *e = e.checked_add(*v)?;
            if *e == 0 {
                out.coeffs.remove(c);
            }
        }
        out.k = out.k.checked_add(o.k)?;
        Some(out)
    }

    fn scale(&self, f: i64) -> Option<AffExpr> {
        if f == 0 {
            return Some(AffExpr::constant(0));
        }
        let coeffs = self
            .coeffs
            .iter()
            .map(|(c, v)| Some((c.clone(), v.checked_mul(f)?)))
            .collect::<Option<_>>()?;
        Some(AffExpr { coeffs, k: self.k.checked_mul(f)? })
    }

    fn negate(&self) -> Option<AffExpr> {
        self.scale(-1)
    }

    /// The single (column, coefficient) if the expression is `c·x + k`.
    fn single(&self) -> Option<(&ColRef, i64)> {
        if self.coeffs.len() == 1 {
            let (c, v) = self.coeffs.iter().next().unwrap();
            Some((c, *v))
        } else {
            None
        }
    }
}

/// Affine normalization of an aggregate-free integer scalar;
/// `None` when non-affine (products of columns, division), when it
/// contains strings or aggregates, or when a coefficient or constant
/// overflows i64.
pub fn affine_of(e: &Scalar) -> Option<AffExpr> {
    match e {
        Scalar::Col(c) => Some(AffExpr::col(c)),
        Scalar::Int(v) => Some(AffExpr::constant(*v)),
        Scalar::Str(_) | Scalar::Agg(_) => None,
        Scalar::Neg(inner) => affine_of(inner)?.negate(),
        Scalar::Arith(l, op, r) => {
            let (le, re) = (affine_of(l)?, affine_of(r)?);
            match op {
                ArithOp::Add => le.add(&re),
                ArithOp::Sub => le.add(&re.negate()?),
                ArithOp::Mul => {
                    if le.coeffs.is_empty() {
                        re.scale(le.k)
                    } else if re.coeffs.is_empty() {
                        le.scale(re.k)
                    } else {
                        None
                    }
                }
                ArithOp::Div => {
                    if !re.coeffs.is_empty() {
                        return None;
                    }
                    // Exact division only. `checked_rem` is `None` for a
                    // zero divisor and for `i64::MIN / -1`, so the
                    // divisions below cannot overflow.
                    let d = re.k;
                    let exact = |v: i64| v.checked_rem(d) == Some(0);
                    if !exact(le.k) || !le.coeffs.values().all(|&c| exact(c)) {
                        return None;
                    }
                    Some(AffExpr {
                        coeffs: le.coeffs.iter().map(|(c, v)| (c.clone(), v / d)).collect(),
                        k: le.k / d,
                    })
                }
            }
        }
    }
}

/// The base an aggregate variable ranges over.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum AggBase {
    /// Aggregate of a bare column.
    Col(ColRef),
    /// Aggregate of a canonicalized non-affine expression.
    Opaque(String),
    /// `COUNT(*)`.
    Star,
}

#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct AggKey {
    func: AggFunc,
    distinct: bool,
    base: AggBase,
    tag: u8,
}

/// The shared lowering tables: the hash-consing interner, the variable
/// pool and the column/aggregate variable maps. One per [`SolverContext`],
/// behind its `RwLock` — lowering takes the write lock once per predicate,
/// scalar, or expression list ([`Oracle::tuple_eq_formulas`]), not per
/// node. The single-builder calls (`and_f`/`not_f`/`cmp_f`) also take it;
/// a read-probe-then-upgrade fast path for dedup hits would shave those
/// remaining acquisitions but is deliberately not done — construction
/// lock holds are tens of nanoseconds against solver checks in the
/// milliseconds, and the verdict cache already removes most construction
/// on warm paths.
#[derive(Default)]
struct LowerState {
    interner: Interner,
    pool: VarPool,
    /// `(column, tuple-tag, sort)` → variable. The sort is part of the
    /// key because different submissions to one target can bind the
    /// same alias to different tables: conflicting sorts must never
    /// share a variable.
    col_vars: BTreeMap<(ColRef, u8, Sort), VarId>,
    agg_vars: BTreeMap<(AggKey, Sort), VarId>,
}

/// Point-in-time interner statistics (see
/// [`crate::session::SessionStats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InternerStats {
    /// Distinct term nodes resident.
    pub terms: u64,
    /// Distinct formula nodes resident.
    pub formulas: u64,
    /// Construction requests answered by an existing node (hash-consing
    /// and negation-memo hits).
    pub dedup_hits: u64,
    /// Approximate resident bytes of the interning tables.
    pub bytes: u64,
}

/// Per-variable byte estimate for [`SolverContext::approx_bytes`] (pool
/// sort + the col/agg map entry pointing at it).
const VAR_ENTRY_BYTES: usize = 160;

/// The interning + verdict state shared by every [`Oracle`] of one
/// [`crate::session::PreparedTarget`]: the hash-consing arena, the
/// variable tables, and the sharded cross-advise verdict cache. None of
/// it has a bound of its own: it grows with the distinct work the
/// target's advises do and lives as long as the context. All of it is
/// rebuildable — [`crate::session::PreparedTarget::shed_caches`], which
/// the `qr-hint serve` registry calls under its byte budget, swaps in a
/// fresh context and reports these bytes as freed.
#[derive(Default)]
pub struct SolverContext {
    lower: RwLock<LowerState>,
    pub(crate) verdicts: VerdictCache,
}

impl SolverContext {
    /// Approximate resident bytes of everything in the context: interner
    /// tables, variable pool/maps, and the verdict cache.
    pub fn approx_bytes(&self) -> usize {
        let st = self.lower.read().unwrap();
        st.interner.approx_bytes() + st.pool.len() * VAR_ENTRY_BYTES + self.verdicts.bytes()
    }

    /// One coherent snapshot of every point-in-time counter in this
    /// context. The interner fields are read under a single `lower`
    /// lock acquisition and the verdict fields back-to-back, so callers
    /// that clone the context `Arc` once and snapshot it see one
    /// context's state throughout, never a mix of numbers from before
    /// and after a concurrent shed swap.
    pub fn stats_snapshot(&self) -> ContextStats {
        let interner = {
            let st = self.lower.read().unwrap();
            InternerStats {
                terms: st.interner.num_terms() as u64,
                formulas: st.interner.num_formulas() as u64,
                dedup_hits: st.interner.dedup_hits(),
                bytes: st.interner.approx_bytes() as u64,
            }
        };
        ContextStats {
            interner,
            verdict_entries: self.verdicts.entries() as u64,
            verdict_bytes: self.verdicts.bytes() as u64,
        }
    }
}

/// All point-in-time counters of one [`SolverContext`], captured by
/// [`SolverContext::stats_snapshot`] in a single pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ContextStats {
    pub interner: InternerStats,
    /// Resident shared-verdict entries.
    pub verdict_entries: u64,
    /// Approximate shared-verdict bytes.
    pub verdict_bytes: u64,
}

impl std::fmt::Debug for SolverContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let snap = self.stats_snapshot();
        f.debug_struct("SolverContext")
            .field("interner", &snap.interner)
            .field("verdict_entries", &snap.verdict_entries)
            .finish()
    }
}

/// The work counters of one [`Oracle`], kept as one record so a session
/// can move them into its totals in one step (`std::mem::take` on
/// [`Oracle::counters`], then `+=`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OracleCounters {
    /// Number of solver checks issued (includes verdict-cache hits).
    pub solver_calls: u64,
    /// Shared-verdict-cache hits.
    pub verdict_hits: u64,
    /// Shared-verdict-cache misses (each one paid a real solver check).
    pub verdict_misses: u64,
    /// Literals pushed onto the solver's theory stack (root units and
    /// branch assignments) across solver misses.
    pub theory_pushes: u64,
    /// Full theory checks (leaves + pruning strides) across misses.
    pub theory_full_checks: u64,
    /// Branches (or whole checks) cut by the quick-conflict detector.
    pub quick_conflicts: u64,
    /// String or integer decisions of full checks answered by the
    /// solver's per-call theory memo instead of a decider run.
    pub theory_memo_hits: u64,
    /// Candidate lists checked against one context (SELECT positional
    /// equivalence, GROUP BY Δ− pruning, WHERE-repair site sets); each
    /// candidate is an ordinary [`Oracle::sat_f`]-based check.
    pub equiv_batches: u64,
    /// Candidates in those lists.
    pub equiv_batch_candidates: u64,
    /// Checks [`Oracle::sat_f`] or [`Oracle::sat_rows`] answered
    /// `Unknown` (one per asked table row); callers act only on definitive
    /// answers, so each is a place the advice may be less than optimal.
    pub unknown_verdicts: u64,
    /// Advises whose WHERE or HAVING hint is the whole clause, with the
    /// target's clause as its fix, because repair found no verified
    /// repair within its limits.
    pub whole_clause_fallbacks: u64,
}

impl AddAssign for OracleCounters {
    fn add_assign(&mut self, o: OracleCounters) {
        self.solver_calls += o.solver_calls;
        self.verdict_hits += o.verdict_hits;
        self.verdict_misses += o.verdict_misses;
        self.theory_pushes += o.theory_pushes;
        self.theory_full_checks += o.theory_full_checks;
        self.quick_conflicts += o.quick_conflicts;
        self.theory_memo_hits += o.theory_memo_hits;
        self.equiv_batches += o.equiv_batches;
        self.equiv_batch_candidates += o.equiv_batch_candidates;
        self.unknown_verdicts += o.unknown_verdicts;
        self.whole_clause_fallbacks += o.whole_clause_fallbacks;
    }
}

/// The oracle: shared interning context, tri-valued predicates, and the
/// ambient lowering state the stages install.
pub struct Oracle {
    pub solver: Solver,
    ctx: Arc<SolverContext>,
    types: TypeEnv,
    /// Aggregate keys **this oracle** interned since its ambient state
    /// was last cleared. Axiom generation iterates this private record,
    /// not the shared table, so a stage's axiom set never depends on
    /// what earlier stages, advises or threads lowered.
    agg_vars: BTreeMap<AggKey, VarId>,
    /// Work done since the counters were last taken.
    pub counters: OracleCounters,
    /// Ambient lowering environment used by the `*_pred` convenience
    /// methods (set by the HAVING/SELECT stages to the grouped
    /// environment, so the generic repair machinery reasons with
    /// aggregate collapsing without threading environments everywhere).
    ambient_env: LowerEnv,
    /// Ambient formula context appended to every satisfiability check
    /// (WHERE facts + aggregate axioms during the HAVING/SELECT stages).
    ambient_ctx: Vec<FormulaId>,
    /// Private mirror of the shared pool handed to the solver, which
    /// appends throwaway linearization variables per check. Synced
    /// incrementally (`scratch_synced` = shared length at last sync):
    /// the shared pool is append-only, so truncate-then-extend keeps
    /// indices aligned without cloning the whole pool per miss.
    scratch_pool: VarPool,
    scratch_synced: usize,
}

impl Oracle {
    /// Standalone oracle with a private context (one-shot checks and
    /// tests). A session's advises share one context via
    /// [`Oracle::with_context`].
    pub fn new(types: TypeEnv) -> Oracle {
        Oracle::with_context(types, Arc::default())
    }

    /// Oracle bound to a shared interning/verdict context.
    pub fn with_context(types: TypeEnv, ctx: Arc<SolverContext>) -> Oracle {
        Oracle {
            solver: Solver::default(),
            ctx,
            types,
            agg_vars: BTreeMap::new(),
            counters: OracleCounters::default(),
            ambient_env: LowerEnv::plain(),
            ambient_ctx: Vec::new(),
            scratch_pool: VarPool::new(),
            scratch_synced: 0,
        }
    }

    /// Install an ambient lowering environment and formula context; used
    /// by the HAVING and SELECT stages.
    pub fn set_ambient(&mut self, env: LowerEnv, ctx: Vec<FormulaId>) {
        self.ambient_env = env;
        self.ambient_ctx = ctx;
    }

    /// Reset the ambient environment to plain/empty and forget the
    /// aggregate record, so the next [`Oracle::aggregate_axioms`] covers
    /// only aggregates lowered from here on.
    pub fn clear_ambient(&mut self) {
        self.ambient_env = LowerEnv::plain();
        self.ambient_ctx.clear();
        self.agg_vars.clear();
    }

    /// Oracle typed from a schema and resolved queries.
    pub fn for_queries(schema: &Schema, queries: &[&Query]) -> Oracle {
        Oracle::new(TypeEnv::from_queries(schema, queries))
    }

    /// Oracle typed by inference over standalone predicates.
    pub fn for_preds(preds: &[&Pred]) -> Oracle {
        Oracle::new(TypeEnv::infer_from_preds(preds))
    }

    pub fn types(&self) -> &TypeEnv {
        &self.types
    }

    fn var_of(&self, st: &mut LowerState, c: &ColRef, tag: u8) -> VarId {
        let sort = match self.types.type_of(c) {
            SqlType::Int => Sort::Int,
            SqlType::Str => Sort::Str,
        };
        if let Some(v) = st.col_vars.get(&(c.clone(), tag, sort)) {
            return *v;
        }
        let v = st.pool.fresh(sort);
        st.col_vars.insert((c.clone(), tag, sort), v);
        v
    }

    fn agg_var(&mut self, st: &mut LowerState, key: AggKey, sort: Sort) -> VarId {
        if let Some(v) = self.agg_vars.get(&key) {
            return *v;
        }
        let v = match st.agg_vars.get(&(key.clone(), sort)) {
            Some(v) => *v,
            None => {
                let v = st.pool.fresh(sort);
                st.agg_vars.insert((key.clone(), sort), v);
                v
            }
        };
        self.agg_vars.insert(key, v);
        v
    }

    fn count_star(&mut self, st: &mut LowerState, tag: u8) -> VarId {
        self.agg_var(
            st,
            AggKey { func: AggFunc::Count, distinct: false, base: AggBase::Star, tag },
            Sort::Int,
        )
    }

    // ---------------- lowering ----------------

    /// Lower a scalar expression to an interned term.
    pub fn lower_scalar_env(&mut self, e: &Scalar, env: &LowerEnv) -> TermId {
        let ctx = Arc::clone(&self.ctx);
        let mut st = ctx.lower.write().unwrap();
        self.lower_scalar_in(&mut st, e, env)
    }

    fn lower_scalar_in(&mut self, st: &mut LowerState, e: &Scalar, env: &LowerEnv) -> TermId {
        match e {
            Scalar::Col(c) => {
                let v = self.var_of(st, c, env.tuple_tag);
                st.interner.var(v)
            }
            Scalar::Int(v) => st.interner.int(*v),
            Scalar::Str(s) => st.interner.str(s),
            Scalar::Arith(l, op, r) => {
                let lt = self.lower_scalar_in(st, l, env);
                let rt = self.lower_scalar_in(st, r, env);
                match op {
                    ArithOp::Add => st.interner.add(lt, rt),
                    ArithOp::Sub => st.interner.sub(lt, rt),
                    ArithOp::Mul => st.interner.mul(lt, rt),
                    ArithOp::Div => st.interner.div(lt, rt),
                }
            }
            Scalar::Neg(inner) => {
                let t = self.lower_scalar_in(st, inner, env);
                st.interner.neg(t)
            }
            Scalar::Agg(call) => self.lower_agg_in(st, call, env),
        }
    }

    /// Lower an aggregate call using the canonicalization rules.
    fn lower_agg_in(&mut self, st: &mut LowerState, call: &AggCall, env: &LowerEnv) -> TermId {
        let tag = env.tuple_tag;
        let canon = |e: &Scalar| format!("{e}");
        match (&call.func, &call.arg, call.distinct) {
            // COUNT(*) and COUNT(e) with no NULLs all equal COUNT(*).
            (AggFunc::Count, AggArg::Star, _) => {
                let v = self.count_star(st, tag);
                st.interner.var(v)
            }
            (AggFunc::Count, AggArg::Expr(_), false) => {
                let v = self.count_star(st, tag);
                st.interner.var(v)
            }
            (AggFunc::Count, AggArg::Expr(e), true) => {
                let base = match &**e {
                    Scalar::Col(c) => AggBase::Col(c.clone()),
                    other => AggBase::Opaque(canon(other)),
                };
                let v = self.agg_var(
                    st,
                    AggKey { func: AggFunc::Count, distinct: true, base, tag },
                    Sort::Int,
                );
                st.interner.var(v)
            }
            (AggFunc::Sum, AggArg::Expr(e), false) => {
                if let Some(aff) = affine_of(e) {
                    // SUM(Σ cᵢ·xᵢ + c₀) = Σ cᵢ·SUM(xᵢ) + c₀·COUNT(*)
                    let mut acc: Option<TermId> = None;
                    for (col, coeff) in &aff.coeffs {
                        let base: TermId = if env.grouped.contains(col) {
                            // Group-constant column: SUM(x) = x·COUNT(*).
                            let x = self.var_of(st, col, tag);
                            let cs = self.count_star(st, tag);
                            let (x, cs) = (st.interner.var(x), st.interner.var(cs));
                            st.interner.mul(x, cs)
                        } else {
                            let v = self.agg_var(
                                st,
                                AggKey {
                                    func: AggFunc::Sum,
                                    distinct: false,
                                    base: AggBase::Col(col.clone()),
                                    tag,
                                },
                                Sort::Int,
                            );
                            st.interner.var(v)
                        };
                        let scaled = if *coeff == 1 {
                            base
                        } else {
                            let c = st.interner.int(*coeff);
                            st.interner.mul(c, base)
                        };
                        acc = Some(match acc {
                            None => scaled,
                            Some(a) => st.interner.add(a, scaled),
                        });
                    }
                    if aff.k != 0 {
                        let cs = self.count_star(st, tag);
                        let k = st.interner.int(aff.k);
                        let csv = st.interner.var(cs);
                        let k_term = st.interner.mul(k, csv);
                        acc = Some(match acc {
                            None => k_term,
                            Some(a) => st.interner.add(a, k_term),
                        });
                    }
                    acc.unwrap_or_else(|| st.interner.int(0))
                } else {
                    let v = self.agg_var(
                        st,
                        AggKey {
                            func: AggFunc::Sum,
                            distinct: false,
                            base: AggBase::Opaque(canon(e)),
                            tag,
                        },
                        Sort::Int,
                    );
                    st.interner.var(v)
                }
            }
            (AggFunc::Min | AggFunc::Max, AggArg::Expr(e), false) => {
                let str_typed = matches!(&**e, Scalar::Col(c) if self.types.type_of(c) == SqlType::Str);
                if str_typed {
                    let Scalar::Col(c) = &**e else { unreachable!() };
                    if env.grouped.contains(c) {
                        let v = self.var_of(st, c, tag);
                        return st.interner.var(v);
                    }
                    let v = self.agg_var(
                        st,
                        AggKey {
                            func: call.func,
                            distinct: false,
                            base: AggBase::Col(c.clone()),
                            tag,
                        },
                        Sort::Str,
                    );
                    return st.interner.var(v);
                }
                if let Some(aff) = affine_of(e) {
                    if let Some((col, coeff)) = aff.single() {
                        if env.grouped.contains(col) {
                            // Group-constant: MIN(c·x+k) = c·x+k.
                            let x = self.var_of(st, col, tag);
                            let x = st.interner.var(x);
                            let scaled = if coeff == 1 {
                                x
                            } else {
                                let c = st.interner.int(coeff);
                                st.interner.mul(c, x)
                            };
                            return if aff.k == 0 {
                                scaled
                            } else {
                                let k = st.interner.int(aff.k);
                                st.interner.add(scaled, k)
                            };
                        }
                        // MIN(c·x+k) = c·MIN(x)+k for c>0 (MAX for c<0).
                        let func = if coeff > 0 {
                            call.func
                        } else if call.func == AggFunc::Min {
                            AggFunc::Max
                        } else {
                            AggFunc::Min
                        };
                        let col = col.clone();
                        let base_var = self.agg_var(
                            st,
                            AggKey { func, distinct: false, base: AggBase::Col(col), tag },
                            Sort::Int,
                        );
                        let base = st.interner.var(base_var);
                        let scaled = if coeff == 1 {
                            base
                        } else {
                            let c = st.interner.int(coeff);
                            st.interner.mul(c, base)
                        };
                        return if aff.k == 0 {
                            scaled
                        } else {
                            let k = st.interner.int(aff.k);
                            st.interner.add(scaled, k)
                        };
                    }
                    if aff.coeffs.is_empty() {
                        // MIN/MAX of a constant is the constant.
                        return st.interner.int(aff.k);
                    }
                }
                let v = self.agg_var(
                    st,
                    AggKey {
                        func: call.func,
                        distinct: false,
                        base: AggBase::Opaque(canon(e)),
                        tag,
                    },
                    Sort::Int,
                );
                st.interner.var(v)
            }
            (AggFunc::Avg, AggArg::Expr(e), false) => {
                if let Some(aff) = affine_of(e) {
                    if let Some((col, coeff)) = aff.single() {
                        if coeff == 1 && aff.k == 0 && env.grouped.contains(col) {
                            let v = self.var_of(st, col, tag);
                            return st.interner.var(v);
                        }
                    }
                    if aff.coeffs.is_empty() {
                        return st.interner.int(aff.k);
                    }
                }
                let v = self.agg_var(
                    st,
                    AggKey {
                        func: AggFunc::Avg,
                        distinct: false,
                        base: match e.as_ref() {
                            Scalar::Col(c) => AggBase::Col(c.clone()),
                            other => AggBase::Opaque(canon(other)),
                        },
                        tag,
                    },
                    Sort::Int,
                );
                st.interner.var(v)
            }
            // DISTINCT SUM/AVG/MIN/MAX: MIN/MAX are unaffected by
            // DISTINCT; SUM/AVG become opaque.
            (AggFunc::Min | AggFunc::Max, AggArg::Expr(e), true) => {
                let undistinct = AggCall {
                    func: call.func,
                    distinct: false,
                    arg: AggArg::Expr(e.clone()),
                };
                self.lower_agg_in(st, &undistinct, env)
            }
            (func, AggArg::Expr(e), true) => {
                let v = self.agg_var(
                    st,
                    AggKey { func: *func, distinct: true, base: AggBase::Opaque(canon(e)), tag },
                    Sort::Int,
                );
                st.interner.var(v)
            }
            // SUM/AVG/MIN/MAX(*) is not valid SQL; defensively intern.
            (func, AggArg::Star, d) => {
                let v = self.agg_var(
                    st,
                    AggKey { func: *func, distinct: d, base: AggBase::Star, tag },
                    Sort::Int,
                );
                st.interner.var(v)
            }
        }
    }

    fn rel_of(op: CmpOp) -> Rel {
        match op {
            CmpOp::Eq => Rel::Eq,
            CmpOp::Ne => Rel::Ne,
            CmpOp::Lt => Rel::Lt,
            CmpOp::Le => Rel::Le,
            CmpOp::Gt => Rel::Gt,
            CmpOp::Ge => Rel::Ge,
        }
    }

    /// Lower a predicate with the ambient environment.
    pub fn lower_pred(&mut self, p: &Pred) -> FormulaId {
        let env = self.ambient_env.clone();
        self.lower_pred_env(p, &env)
    }

    /// Lower a predicate to an interned formula.
    pub fn lower_pred_env(&mut self, p: &Pred, env: &LowerEnv) -> FormulaId {
        let ctx = Arc::clone(&self.ctx);
        let mut st = ctx.lower.write().unwrap();
        self.lower_pred_in(&mut st, p, env)
    }

    fn lower_pred_in(&mut self, st: &mut LowerState, p: &Pred, env: &LowerEnv) -> FormulaId {
        match p {
            Pred::True => FormulaId::TRUE,
            Pred::False => FormulaId::FALSE,
            Pred::Cmp(l, op, r) => {
                let lt = self.lower_scalar_in(st, l, env);
                let rt = self.lower_scalar_in(st, r, env);
                st.interner.cmp(lt, Self::rel_of(*op), rt)
            }
            Pred::Like { expr, pattern, negated } => {
                let t = self.lower_scalar_in(st, expr, env);
                let atom = st.interner.like(t, pattern);
                if *negated {
                    st.interner.not(atom)
                } else {
                    atom
                }
            }
            Pred::And(cs) => {
                let ids: Vec<FormulaId> =
                    cs.iter().map(|c| self.lower_pred_in(st, c, env)).collect();
                st.interner.and(ids)
            }
            Pred::Or(cs) => {
                let ids: Vec<FormulaId> =
                    cs.iter().map(|c| self.lower_pred_in(st, c, env)).collect();
                st.interner.or(ids)
            }
            Pred::Not(c) => {
                let id = self.lower_pred_in(st, c, env);
                st.interner.not(id)
            }
        }
    }

    /// Lower each expression under both tuple environments and return
    /// its `(e[t1] = e[t2], e[t1] ≠ e[t2])` formula pair — the GROUP BY
    /// stage's two-tuple encoding builds `O(|o| + |o★|)` of these, and
    /// doing the whole list under **one** shared-lock acquisition keeps
    /// parallel advises from serializing on per-node lock round-trips.
    /// Expressions are lowered left to right, exactly as per-expression
    /// calls would, so variable allocation order is unchanged.
    pub fn tuple_eq_formulas(
        &mut self,
        exprs: &[Scalar],
        env1: &LowerEnv,
        env2: &LowerEnv,
    ) -> Vec<(FormulaId, FormulaId)> {
        let ctx = Arc::clone(&self.ctx);
        let mut st = ctx.lower.write().unwrap();
        exprs
            .iter()
            .map(|e| {
                let t1 = self.lower_scalar_in(&mut st, e, env1);
                let t2 = self.lower_scalar_in(&mut st, e, env2);
                let eq = st.interner.cmp(t1, Rel::Eq, t2);
                let ne = st.interner.not(eq);
                (eq, ne)
            })
            .collect()
    }

    // ---------------- interned formula builders ----------------

    /// Smart interned conjunction (mirrors `Formula::and`).
    pub fn and_f(&self, children: Vec<FormulaId>) -> FormulaId {
        self.ctx.lower.write().unwrap().interner.and(children)
    }

    /// Memoized smart interned negation (mirrors `Formula::not`).
    pub fn not_f(&self, f: FormulaId) -> FormulaId {
        self.ctx.lower.write().unwrap().interner.not(f)
    }

    /// Interned comparison atom.
    pub fn cmp_f(&self, l: TermId, rel: Rel, r: TermId) -> FormulaId {
        self.ctx.lower.write().unwrap().interner.cmp(l, rel, r)
    }

    /// Extract the tree of an interned formula (diagnostics, tests, and
    /// the solver-miss path).
    pub fn formula(&self, f: FormulaId) -> Formula {
        self.ctx.lower.read().unwrap().interner.formula(f)
    }

    /// [`Oracle::formula`] of each of `ids`, under one lock.
    fn trees(&self, ids: impl IntoIterator<Item = FormulaId>) -> Vec<Formula> {
        let st = self.ctx.lower.read().unwrap();
        ids.into_iter().map(|f| st.interner.formula(f)).collect()
    }

    // ---------------- aggregate axioms ----------------

    /// Emit sound axioms over the aggregate variables **this oracle**
    /// interned so far, using per-row bounds implied by the (top-level
    /// conjuncts of the) WHERE predicate.
    pub fn aggregate_axioms(&mut self, where_pred: &Pred) -> Vec<FormulaId> {
        let ctx = Arc::clone(&self.ctx);
        let mut st = ctx.lower.write().unwrap();
        self.aggregate_axioms_in(&mut st, where_pred)
    }

    fn aggregate_axioms_in(&mut self, st: &mut LowerState, where_pred: &Pred) -> Vec<FormulaId> {
        let bounds = column_bounds(where_pred);
        let keys: Vec<AggKey> = self.agg_vars.keys().cloned().collect();
        let mut axioms: Vec<FormulaId> = Vec::new();
        let push_cmp = |st: &mut LowerState, l: VarId, rel: Rel, k: i64| {
            let (lv, kv) = (st.interner.var(l), st.interner.int(k));
            st.interner.cmp(lv, rel, kv)
        };
        for key in &keys {
            let v = self.agg_vars[key];
            match (&key.func, &key.base) {
                (AggFunc::Count, AggBase::Star) => {
                    // Groups are non-empty.
                    axioms.push(push_cmp(st, v, Rel::Ge, 1));
                }
                (AggFunc::Count, _) if key.distinct => {
                    axioms.push(push_cmp(st, v, Rel::Ge, 1));
                    let cs = self.count_star(st, key.tag);
                    let (lv, rv) = (st.interner.var(v), st.interner.var(cs));
                    axioms.push(st.interner.cmp(lv, Rel::Le, rv));
                }
                (AggFunc::Min | AggFunc::Max | AggFunc::Avg, AggBase::Col(c)) => {
                    if st.pool.sort(v) != Sort::Int {
                        continue;
                    }
                    if let Some((lb, ub)) = bounds.get(c) {
                        if let Some(lb) = lb {
                            axioms.push(push_cmp(st, v, Rel::Ge, *lb));
                        }
                        if let Some(ub) = ub {
                            axioms.push(push_cmp(st, v, Rel::Le, *ub));
                        }
                    }
                }
                (AggFunc::Sum, AggBase::Col(c)) => {
                    if let Some((lb, ub)) = bounds.get(c) {
                        // SUM ≥ lb·COUNT ≥ lb when lb ≥ 0 (dually for ub).
                        if let Some(lb) = lb {
                            if *lb >= 0 {
                                axioms.push(push_cmp(st, v, Rel::Ge, *lb));
                            }
                        }
                        if let Some(ub) = ub {
                            if *ub <= 0 {
                                axioms.push(push_cmp(st, v, Rel::Le, *ub));
                            }
                        }
                    }
                }
                _ => {}
            }
        }
        // Relational axioms among aggregates of the same column:
        // MIN ≤ AVG ≤ MAX, MIN ≤ MAX.
        for key in &keys {
            if key.func != AggFunc::Min {
                continue;
            }
            let min_v = self.agg_vars[&key.clone()];
            if st.pool.sort(min_v) != Sort::Int {
                continue;
            }
            let mk = |f: AggFunc| AggKey { func: f, ..key.clone() };
            if let Some(&max_v) = self.agg_vars.get(&mk(AggFunc::Max)) {
                let (lv, rv) = (st.interner.var(min_v), st.interner.var(max_v));
                axioms.push(st.interner.cmp(lv, Rel::Le, rv));
            }
            if let Some(&avg_v) = self.agg_vars.get(&mk(AggFunc::Avg)) {
                let (lv, rv) = (st.interner.var(min_v), st.interner.var(avg_v));
                axioms.push(st.interner.cmp(lv, Rel::Le, rv));
            }
        }
        for key in &keys {
            if key.func != AggFunc::Avg {
                continue;
            }
            let avg_v = self.agg_vars[key];
            if st.pool.sort(avg_v) != Sort::Int {
                continue;
            }
            let max_key = AggKey { func: AggFunc::Max, ..key.clone() };
            if let Some(&max_v) = self.agg_vars.get(&max_key) {
                let (lv, rv) = (st.interner.var(avg_v), st.interner.var(max_v));
                axioms.push(st.interner.cmp(lv, Rel::Le, rv));
            }
        }
        axioms
    }

    // ---------------- tri-valued predicates ----------------

    /// Formula-level satisfiability under formula contexts (the ambient
    /// context, if any, is appended).
    ///
    /// The `(formula, full-context)` id pair is first probed in the
    /// shared `VerdictCache`; only a miss extracts
    /// the trees and runs the solver (against a scratch copy of the
    /// shared pool, so concurrent checks never contend on it). Only
    /// definitive results are cached — `Unknown` may become definitive
    /// under different budgets.
    pub fn sat_f(&mut self, f: FormulaId, ctx: &[FormulaId]) -> TriBool {
        self.counters.solver_calls += 1;
        let key = VerdictKey { f, ctx: self.full_ctx(ctx) };
        if let Some(verdict) = self.probe(&key) {
            return verdict;
        }
        let _span = qrhint_obs::span("solver:check");
        // Miss: extract the trees and sync the scratch pool, then solve.
        // The solver appends throwaway opaque variables during
        // linearization, which is why it gets the private mirror rather
        // than a shared borrow.
        self.sync_scratch();
        let trees = self.trees(key.ctx.iter().copied().chain([key.f]));
        let parts: Vec<&Formula> = trees.iter().collect();
        let out = self.solver.check_parts(&parts, &mut self.scratch_pool);
        self.record_stats(&out.stats);
        let verdict = tri(out.result);
        self.cache(key, verdict);
        verdict
    }

    /// [`Oracle::sat_f`] for the rows of a truth table over `lits` under
    /// `ctx` that `asked` marks (one entry per row): row `r` is the
    /// `and_f` of `lits[i][1]` where bit `i` of `r` is set and `lits[i][0]`
    /// elsewhere, so it is the id, and the verdict-cache key, that `sat_f`
    /// of the row's predicate uses. Each asked row is interned and counts
    /// one `solver_calls` and one hit or miss, as in `sat_f`; the missed
    /// rows are then decided together by one [`Solver::check_rows`] walk
    /// (every asked row is probed before any is decided, so a key repeated
    /// within one table would count a miss each time). A row not asked is
    /// neither interned nor counted, and reads `Unknown`. Returns one
    /// verdict per row.
    pub fn sat_rows(
        &mut self,
        lits: &[[FormulaId; 2]],
        ctx: &[FormulaId],
        asked: &[bool],
    ) -> Vec<TriBool> {
        assert_eq!(asked.len(), 1 << lits.len(), "one mask entry per row");
        let rows: Vec<FormulaId> = {
            let mut st = self.ctx.lower.write().unwrap();
            let mut row = |r: usize| {
                st.interner.and(lits.iter().enumerate().map(|(i, l)| l[r >> i & 1]).collect())
            };
            (0..asked.len()).map(|r| if asked[r] { row(r) } else { FormulaId::TRUE }).collect()
        };
        let mut key = VerdictKey { f: FormulaId::TRUE, ctx: self.full_ctx(ctx) };
        let mut verdicts = vec![TriBool::Unknown; rows.len()];
        let mut needed = vec![false; rows.len()];
        for (r, &f) in rows.iter().enumerate().filter(|&(r, _)| asked[r]) {
            self.counters.solver_calls += 1;
            key.f = f;
            match self.probe(&key) {
                Some(verdict) => verdicts[r] = verdict,
                None => needed[r] = true,
            }
        }
        if needed.contains(&true) {
            let _span = qrhint_obs::span("solver:check");
            self.sync_scratch();
            let ctx_trees = self.trees(key.ctx.iter().copied());
            let lit_trees = self.trees(lits.iter().flatten().copied());
            let ctx_refs: Vec<&Formula> = ctx_trees.iter().collect();
            let lit_refs: Vec<[&Formula; 2]> =
                lit_trees.chunks(2).map(|l| [&l[0], &l[1]]).collect();
            let out = self.solver.check_rows(&ctx_refs, &lit_refs, &needed, &mut self.scratch_pool);
            self.record_stats(&out.stats);
            for (row, result) in out.verdicts.into_iter().enumerate() {
                if let Some(result) = result {
                    verdicts[row] = tri(result);
                    key.f = rows[row];
                    self.cache(key.clone(), verdicts[row]);
                }
            }
        }
        verdicts
    }

    /// The verdict-cache context of a check: `ctx`, then the ambient
    /// context.
    fn full_ctx(&self, ctx: &[FormulaId]) -> Box<[FormulaId]> {
        ctx.iter().chain(&self.ambient_ctx).copied().collect()
    }

    /// Probe the shared verdict cache, counting one hit or one miss.
    fn probe(&mut self, key: &VerdictKey) -> Option<TriBool> {
        let Some(verdict) = self.ctx.verdicts.get(key) else {
            self.counters.verdict_misses += 1;
            return None;
        };
        self.counters.verdict_hits += 1;
        Some(verdict)
    }

    /// Cache a verdict the solver just returned, or count it when it is
    /// `Unknown`, which is never cached.
    fn cache(&mut self, key: VerdictKey, verdict: TriBool) {
        if verdict == TriBool::Unknown {
            self.counters.unknown_verdicts += 1;
        } else {
            self.ctx.verdicts.insert(key, verdict);
        }
    }

    /// Bring the scratch pool level with the append-only shared pool:
    /// truncate away the previous check's throwaway variables, extend
    /// with anything lowered since the last sync. Avoids an O(pool)
    /// clone per solver miss.
    fn sync_scratch(&mut self) {
        let ctx = Arc::clone(&self.ctx);
        let st = ctx.lower.read().unwrap();
        if st.pool.len() < self.scratch_synced {
            // Defensive: the shared pool is append-only and an oracle is
            // never rebound to another context, so the pool can only be
            // *shorter* than the sync mark if that ever changed — and a
            // stale mark here would silently misalign every variable
            // index below. Resync from scratch.
            self.scratch_pool = VarPool::new();
            self.scratch_synced = 0;
        }
        self.scratch_pool.truncate(self.scratch_synced);
        if st.pool.len() > self.scratch_synced {
            self.scratch_pool.extend_from(&st.pool, self.scratch_synced);
            self.scratch_synced = st.pool.len();
        }
    }

    fn record_stats(&mut self, s: &SolveStats) {
        self.counters.theory_pushes += s.theory_lits_translated;
        self.counters.theory_full_checks += s.theory_full_checks;
        self.counters.quick_conflicts += s.quick_conflicts;
        self.counters.theory_memo_hits += s.theory_memo_hits;
    }

    /// Formula-level unsatisfiability.
    pub fn unsat_f(&mut self, f: FormulaId, ctx: &[FormulaId]) -> TriBool {
        self.sat_f(f, ctx).negate()
    }

    /// Formula-level implication under contexts.
    pub fn implies_f(&mut self, f: FormulaId, g: FormulaId, ctx: &[FormulaId]) -> TriBool {
        let ng = self.not_f(g);
        let q = self.and_f(vec![f, ng]);
        self.unsat_f(q, ctx)
    }

    /// Formula-level equivalence under contexts.
    pub fn equiv_f(&mut self, f: FormulaId, g: FormulaId, ctx: &[FormulaId]) -> TriBool {
        // Identical ids are structurally identical formulas — equivalent
        // under any context without consulting the solver, whose atom
        // budget would otherwise degrade large self-comparisons to
        // Unknown. (Hash-consing turns the old syntactic-equality walk
        // into this integer compare.)
        if f == g {
            return TriBool::True;
        }
        match self.implies_f(f, g, ctx) {
            TriBool::False => TriBool::False,
            fw => match self.implies_f(g, f, ctx) {
                TriBool::False => TriBool::False,
                bw => fw.and(bw),
            },
        }
    }

    /// Predicate-level satisfiability (plain environment).
    pub fn sat_pred(&mut self, p: &Pred, ctx: &[&Pred]) -> TriBool {
        let f = self.lower_pred(p);
        let ctx: Vec<FormulaId> = ctx.iter().map(|c| self.lower_pred(c)).collect();
        self.sat_f(f, &ctx)
    }

    /// Predicate-level implication.
    pub fn implies_pred(&mut self, p: &Pred, q: &Pred, ctx: &[&Pred]) -> TriBool {
        let (fp, fq) = (self.lower_pred(p), self.lower_pred(q));
        let ctx: Vec<FormulaId> = ctx.iter().map(|c| self.lower_pred(c)).collect();
        self.implies_f(fp, fq, &ctx)
    }

    /// Predicate-level equivalence — the paper's `IsEquiv` for WHERE.
    pub fn equiv_pred(&mut self, p: &Pred, q: &Pred, ctx: &[&Pred]) -> TriBool {
        let (fp, fq) = (self.lower_pred(p), self.lower_pred(q));
        let ctx: Vec<FormulaId> = ctx.iter().map(|c| self.lower_pred(c)).collect();
        self.equiv_f(fp, fq, &ctx)
    }

    /// Value-level equivalence of two scalars under formula contexts —
    /// the paper's `IsEquiv` for SELECT / GROUP BY expressions: valid iff
    /// `ctx ∧ e1 ≠ e2` is unsatisfiable.
    pub fn equiv_scalar_env(
        &mut self,
        e1: &Scalar,
        e2: &Scalar,
        env: &LowerEnv,
        ctx: &[FormulaId],
    ) -> TriBool {
        let (t1, t2) = (self.lower_scalar_env(e1, env), self.lower_scalar_env(e2, env));
        let ne = self.cmp_f(t1, Rel::Ne, t2);
        self.unsat_f(ne, ctx)
    }
}

fn tri(r: qrhint_smt::SatResult) -> TriBool {
    match r {
        qrhint_smt::SatResult::Sat => TriBool::True,
        qrhint_smt::SatResult::Unsat => TriBool::False,
        qrhint_smt::SatResult::Unknown => TriBool::Unknown,
    }
}

/// Extract per-column constant bounds implied by the top-level conjuncts
/// of a predicate: `col op const` atoms only (sound under any model of the
/// predicate).
pub fn column_bounds(p: &Pred) -> BTreeMap<ColRef, (Option<i64>, Option<i64>)> {
    let mut out: BTreeMap<ColRef, (Option<i64>, Option<i64>)> = BTreeMap::new();
    let conjuncts: Vec<&Pred> = match p {
        Pred::And(cs) => cs.iter().collect(),
        other => vec![other],
    };
    let mut tighten = |c: &ColRef, lb: Option<i64>, ub: Option<i64>| {
        let entry = out.entry(c.clone()).or_insert((None, None));
        if let Some(l) = lb {
            entry.0 = Some(entry.0.map_or(l, |x: i64| x.max(l)));
        }
        if let Some(u) = ub {
            entry.1 = Some(entry.1.map_or(u, |x: i64| x.min(u)));
        }
    };
    for conj in conjuncts {
        if let Pred::Cmp(l, op, r) = conj {
            let (col, cst, op) = match (l, r) {
                (Scalar::Col(c), Scalar::Int(k)) => (c, *k, *op),
                (Scalar::Int(k), Scalar::Col(c)) => (c, *k, op.flip()),
                _ => continue,
            };
            match op {
                CmpOp::Eq => tighten(col, Some(cst), Some(cst)),
                // `> i64::MAX` / `< i64::MIN` have no i64 bound: drop it.
                CmpOp::Gt => tighten(col, cst.checked_add(1), None),
                CmpOp::Ge => tighten(col, Some(cst), None),
                CmpOp::Lt => tighten(col, None, cst.checked_sub(1)),
                CmpOp::Le => tighten(col, None, Some(cst)),
                CmpOp::Ne => {}
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrhint_sqlparse::{parse_pred, parse_scalar};

    fn oracle_for(preds: &[&Pred]) -> Oracle {
        Oracle::for_preds(preds)
    }

    #[test]
    fn stale_scratch_sync_mark_is_defensively_reset() {
        // An oracle whose sync mark exceeds the shared pool length (the
        // shape a context swap without a rebind would leave behind) must
        // resync from scratch rather than misalign variable indices.
        let p = parse_pred("s.price > 3").unwrap();
        let q = parse_pred("s.price >= 4").unwrap();
        let mut o = oracle_for(&[&p, &q]);
        let expected = o.equiv_pred(&p, &q, &[]);
        assert_eq!(expected, TriBool::True);

        let mut stale = oracle_for(&[&p, &q]);
        stale.scratch_synced = 1_000_000;
        stale.scratch_pool = VarPool::new();
        assert_eq!(stale.equiv_pred(&p, &q, &[]), expected);
        let shared_len = stale.ctx.lower.read().unwrap().pool.len();
        assert_eq!(stale.scratch_synced, shared_len, "mark must land on the shared length");
        assert!(stale.scratch_pool.len() >= shared_len);
    }

    #[test]
    fn equiv_f_over_a_candidate_list() {
        // The shape of WHERE-repair verification: every candidate of a
        // list checked against one target under one context.
        let p = parse_pred("s.price > 3 AND s.bar = 'Joe'").unwrap();
        let q = parse_pred("s.price >= 4 AND s.bar = 'Joe'").unwrap();
        let r = parse_pred("s.price > 100").unwrap();
        let c = parse_pred("s.price < 100").unwrap();
        let mut o = oracle_for(&[&p, &q, &r, &c]);
        let (fp, fq, fr, fc) =
            (o.lower_pred(&p), o.lower_pred(&q), o.lower_pred(&r), o.lower_pred(&c));
        let verdicts: Vec<TriBool> = [fq, fr].iter().map(|&f| o.equiv_f(f, fp, &[fc])).collect();
        assert_eq!(verdicts, [TriBool::True, TriBool::False]);
        // Identical ids short-circuit without a solver call.
        let before = o.counters;
        assert_eq!(o.equiv_f(fp, fp, &[fc]), TriBool::True, "identical ids short-circuit");
        assert_eq!(o.counters.solver_calls, before.solver_calls);
        // A repeated check is answered by the verdict cache alone.
        assert_eq!(o.equiv_f(fq, fp, &[fc]), TriBool::True);
        let calls = o.counters.solver_calls - before.solver_calls;
        assert!(calls > 0);
        assert_eq!(o.counters.verdict_hits - before.verdict_hits, calls);
        let c = o.counters;
        assert_eq!(c.verdict_hits + c.verdict_misses, c.solver_calls);
    }

    #[test]
    fn transitivity_through_shared_vars() {
        let p = parse_pred("l.beer = s1.beer AND l.beer = s2.beer").unwrap();
        let q = parse_pred("l.beer = s1.beer AND s1.beer = s2.beer").unwrap();
        let mut o = oracle_for(&[&p, &q]);
        assert_eq!(o.equiv_pred(&p, &q, &[]), TriBool::True);
    }

    #[test]
    fn integer_tightening_gt_vs_ge() {
        let p = parse_pred("s1.price > s2.price").unwrap();
        let q = parse_pred("s1.price >= s2.price + 1").unwrap();
        let mut o = oracle_for(&[&p, &q]);
        assert_eq!(o.equiv_pred(&p, &q, &[]), TriBool::True);
    }

    #[test]
    fn string_typing_via_inference() {
        let p = parse_pred("l.drinker = 'Amy'").unwrap();
        let o = oracle_for(&[&p]);
        assert_eq!(o.types().type_of(&ColRef::new("l", "drinker")), SqlType::Str);
        // Propagated through equalities:
        let q = parse_pred("l.drinker = f.drinker AND l.drinker = 'Amy'").unwrap();
        let o2 = oracle_for(&[&q]);
        assert_eq!(o2.types().type_of(&ColRef::new("f", "drinker")), SqlType::Str);
    }

    #[test]
    fn column_bounds_extraction() {
        let p = parse_pred("t.a > 100 AND t.b <= 5 AND t.c = 7 AND 3 < t.d").unwrap();
        let b = column_bounds(&p);
        assert_eq!(b[&ColRef::new("t", "a")], (Some(101), None));
        assert_eq!(b[&ColRef::new("t", "b")], (None, Some(5)));
        assert_eq!(b[&ColRef::new("t", "c")], (Some(7), Some(7)));
        assert_eq!(b[&ColRef::new("t", "d")], (Some(4), None));
        // Disjunctions contribute nothing.
        let p2 = parse_pred("t.a > 100 OR t.b < 5").unwrap();
        assert!(column_bounds(&p2).is_empty());
    }

    #[test]
    fn column_bounds_past_i64_are_dropped() {
        let p = parse_pred("t.a > 9223372036854775807 AND t.a <= 5").unwrap();
        assert_eq!(column_bounds(&p)[&ColRef::new("t", "a")], (None, Some(5)));
        let lt_min = Pred::Cmp(
            Scalar::Col(ColRef::new("t", "a")),
            CmpOp::Lt,
            Scalar::Int(i64::MIN),
        );
        assert_eq!(column_bounds(&lt_min)[&ColRef::new("t", "a")], (None, None));
    }

    #[test]
    fn affine_overflow_is_not_affine() {
        for sql in [
            // 2^62 · 2 and 2^62 · 4 (which used to wrap to 0).
            "4611686018427387904 * 2 * t.x",
            "4611686018427387904 * 4 * t.x",
            "t.x * 4611686018427387904 + t.x * 4611686018427387904",
            "-(0 - 9223372036854775807 - 1)",
            "(0 - 9223372036854775807 - 1 + 0 * t.x) / (0 - 1)",
        ] {
            let e = parse_scalar(sql).unwrap();
            assert_eq!(affine_of(&e), None, "{sql}");
        }
        let min = parse_scalar("0 - 9223372036854775807 - 1").unwrap();
        assert_eq!(affine_of(&min).unwrap().k, i64::MIN);
    }

    #[test]
    fn paper_example3_max_bound() {
        // WHERE A > 100 makes HAVING MAX(A) >= 101 redundant.
        let where_pred = parse_pred("r.a > 100").unwrap();
        let having = parse_pred("MAX(r.a) >= 101").unwrap();
        let mut o = oracle_for(&[&where_pred, &having]);
        let env = LowerEnv::plain();
        let h = o.lower_pred_env(&having, &env);
        let axioms = o.aggregate_axioms(&where_pred);
        assert!(!axioms.is_empty());
        // MAX(A) >= 101 is implied by the axioms: ¬(MAX(A) ≥ 101) unsat.
        let nh = o.not_f(h);
        assert_eq!(o.unsat_f(nh, &axioms), TriBool::True);
    }

    #[test]
    fn paper_example10_having_equivalence() {
        // H*: A>B+3 ∧ 2*SUM(D)>10 ; H: C>B+3 ∧ SUM(D*2)>10 ∧ A>4
        // under context A=C ∧ A>4 (grouped columns A, B, C).
        let h_star = parse_pred("g.a > g.b + 3 AND 2 * SUM(s.d) > 10").unwrap();
        let h = parse_pred("g.c > g.b + 3 AND SUM(s.d * 2) > 10 AND g.a > 4").unwrap();
        let ctx_pred = parse_pred("g.a = g.c AND g.a > 4").unwrap();
        let mut o = oracle_for(&[&h_star, &h, &ctx_pred]);
        let grouped: BTreeSet<ColRef> = [
            ColRef::new("g", "a"),
            ColRef::new("g", "b"),
            ColRef::new("g", "c"),
        ]
        .into_iter()
        .collect();
        let env = LowerEnv::grouped(grouped);
        let fs = o.lower_pred_env(&h_star, &env);
        let fh = o.lower_pred_env(&h, &env);
        let mut ctx = vec![o.lower_pred_env(&ctx_pred, &env)];
        ctx.extend(o.aggregate_axioms(&ctx_pred));
        assert_eq!(o.equiv_f(fs, fh, &ctx), TriBool::True);
    }

    #[test]
    fn count_expr_equals_count_star() {
        let a = parse_scalar("COUNT(t.x)").unwrap();
        let b = parse_scalar("COUNT(*)").unwrap();
        let p = parse_pred("COUNT(t.x) > 0").unwrap();
        let mut o = oracle_for(&[&p]);
        assert_eq!(
            o.equiv_scalar_env(&a, &b, &LowerEnv::plain(), &[]),
            TriBool::True
        );
    }

    #[test]
    fn count_star_plus_one_not_equiv() {
        // The footnote-1 mistake: COUNT(*)+1 is NOT COUNT(*).
        let a = parse_scalar("COUNT(*)").unwrap();
        let b = parse_scalar("COUNT(*) + 1").unwrap();
        let mut o = oracle_for(&[]);
        assert_eq!(
            o.equiv_scalar_env(&a, &b, &LowerEnv::plain(), &[]),
            TriBool::False
        );
    }

    #[test]
    fn min_max_affine_rewrites() {
        let mut o = oracle_for(&[]);
        let env = LowerEnv::plain();
        // MIN(-x) = -MAX(x): lower both and check equivalence.
        let e1 = parse_scalar("MIN(0 - t.x)").unwrap();
        let e2 = parse_scalar("0 - MAX(t.x)").unwrap();
        assert_eq!(o.equiv_scalar_env(&e1, &e2, &env, &[]), TriBool::True);
        // MAX(2*x + 1) = 2*MAX(x) + 1
        let e3 = parse_scalar("MAX(2 * t.x + 1)").unwrap();
        let e4 = parse_scalar("2 * MAX(t.x) + 1").unwrap();
        assert_eq!(o.equiv_scalar_env(&e3, &e4, &env, &[]), TriBool::True);
    }

    #[test]
    fn sum_linearity() {
        let mut o = oracle_for(&[]);
        let env = LowerEnv::plain();
        let e1 = parse_scalar("SUM(t.x + t.y)").unwrap();
        let e2 = parse_scalar("SUM(t.x) + SUM(t.y)").unwrap();
        assert_eq!(o.equiv_scalar_env(&e1, &e2, &env, &[]), TriBool::True);
        let e3 = parse_scalar("SUM(t.x + 1)").unwrap();
        let e4 = parse_scalar("SUM(t.x) + COUNT(*)").unwrap();
        assert_eq!(o.equiv_scalar_env(&e3, &e4, &env, &[]), TriBool::True);
        // SUM(x) ≠ SUM(y) in general.
        let e5 = parse_scalar("SUM(t.x)").unwrap();
        let e6 = parse_scalar("SUM(t.y)").unwrap();
        assert_eq!(o.equiv_scalar_env(&e5, &e6, &env, &[]), TriBool::False);
    }

    #[test]
    fn grouped_column_aggregates_collapse() {
        let mut o = oracle_for(&[]);
        let g: BTreeSet<ColRef> = [ColRef::new("t", "x")].into_iter().collect();
        let env = LowerEnv::grouped(g);
        let e1 = parse_scalar("MIN(t.x)").unwrap();
        let e2 = parse_scalar("t.x").unwrap();
        let e3 = parse_scalar("MAX(t.x)").unwrap();
        assert_eq!(o.equiv_scalar_env(&e1, &e2, &env, &[]), TriBool::True);
        assert_eq!(o.equiv_scalar_env(&e1, &e3, &env, &[]), TriBool::True);
    }

    #[test]
    fn affine_normalization() {
        let e = parse_scalar("2 * (t.x + 3) - t.x").unwrap();
        let aff = affine_of(&e).unwrap();
        assert_eq!(aff.k, 6);
        assert_eq!(aff.coeffs[&ColRef::new("t", "x")], 1);
        assert!(affine_of(&parse_scalar("t.x * t.y").unwrap()).is_none());
        assert!(affine_of(&parse_scalar("t.x / 2").unwrap()).is_none());
        let div_ok = parse_scalar("(4 * t.x) / 2").unwrap();
        assert_eq!(affine_of(&div_ok).unwrap().coeffs[&ColRef::new("t", "x")], 2);
    }

    #[test]
    fn tuple_tags_give_distinct_vars() {
        let p = parse_pred("t.a = 1").unwrap();
        let mut o = oracle_for(&[&p]);
        let f1 = o.lower_pred_env(&p, &LowerEnv::tuple(1));
        let f2 = o.lower_pred_env(&p, &LowerEnv::tuple(2));
        assert_ne!(f1, f2, "distinct tags intern distinct formulas");
        assert_ne!(format!("{}", o.formula(f1)), format!("{}", o.formula(f2)));
        // t.a@t1 = 1 ∧ t.a@t2 = 2 is satisfiable (different tuples).
        let p2 = parse_pred("t.a = 2").unwrap();
        let f2b = o.lower_pred_env(&p2, &LowerEnv::tuple(2));
        let conj = o.and_f(vec![f1, f2b]);
        assert_eq!(o.sat_f(conj, &[]), TriBool::True);
    }

    #[test]
    fn identical_lowering_shares_one_id() {
        // Hash-consing: lowering the same predicate twice (even as part
        // of a larger one) yields the same FormulaId, and equiv_f's
        // fast path answers without a solver call.
        let p = parse_pred("t.a > 1 AND t.b = 2").unwrap();
        let mut o = oracle_for(&[&p]);
        let f1 = o.lower_pred(&p);
        let f2 = o.lower_pred(&p);
        assert_eq!(f1, f2);
        let calls_before = o.counters.solver_calls;
        assert_eq!(o.equiv_f(f1, f2, &[]), TriBool::True);
        assert_eq!(o.counters.solver_calls, calls_before, "id equality short-circuits");
    }

    #[test]
    fn shared_context_verdicts_cross_oracles() {
        // Two oracles over one SolverContext: the second's identical
        // check is a read-path hit, not a solver call.
        let p = parse_pred("t.a > 1 AND t.a < 0").unwrap();
        let shared = Arc::new(SolverContext::default());
        let types = TypeEnv::infer_from_preds(&[&p]);
        let mut o1 = Oracle::with_context(types.clone(), Arc::clone(&shared));
        let mut o2 = Oracle::with_context(types, Arc::clone(&shared));
        assert_eq!(o1.sat_pred(&p, &[]), TriBool::False);
        assert_eq!(o1.counters.verdict_misses, 1);
        assert_eq!(o2.sat_pred(&p, &[]), TriBool::False);
        assert_eq!(o2.counters.verdict_hits, 1, "{:?}", shared);
        assert_eq!(o2.counters.verdict_misses, 0);
        assert_eq!(shared.stats_snapshot().verdict_entries, 1);
        assert!(shared.approx_bytes() > 0);
    }

    #[test]
    fn private_aggregate_record_keeps_axioms_per_oracle() {
        // Two oracles share the context, but axioms only cover the
        // aggregates each oracle lowered itself: o2 never mentioned an
        // aggregate, so its axiom set is empty even though o1 interned
        // MAX(r.a) into the shared tables.
        let where_pred = parse_pred("r.a > 100").unwrap();
        let having = parse_pred("MAX(r.a) >= 101").unwrap();
        let shared = Arc::new(SolverContext::default());
        let types = TypeEnv::infer_from_preds(&[&where_pred, &having]);
        let mut o1 = Oracle::with_context(types.clone(), Arc::clone(&shared));
        let mut o2 = Oracle::with_context(types, Arc::clone(&shared));
        let _ = o1.lower_pred_env(&having, &LowerEnv::plain());
        assert!(!o1.aggregate_axioms(&where_pred).is_empty());
        assert!(o2.aggregate_axioms(&where_pred).is_empty());
    }

    #[test]
    fn clearing_the_ambient_state_forgets_lowered_aggregates() {
        // A stage's axioms cover the aggregates lowered since the last
        // clear: MAX(r.a), lowered before it, is no longer covered, and
        // lowering it again brings its bound axioms back.
        let where_pred = parse_pred("r.a > 100").unwrap();
        let having = parse_pred("MAX(r.a) >= 101").unwrap();
        let mut o = oracle_for(&[&where_pred, &having]);
        let _ = o.lower_pred_env(&having, &LowerEnv::plain());
        let before = o.aggregate_axioms(&where_pred);
        assert!(!before.is_empty());
        o.clear_ambient();
        assert!(o.aggregate_axioms(&where_pred).is_empty());
        let _ = o.lower_pred_env(&having, &LowerEnv::plain());
        assert_eq!(o.aggregate_axioms(&where_pred), before);
    }
}
