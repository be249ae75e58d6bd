//! # qrhint-core
//!
//! The core of the Qr-Hint reproduction (SIGMOD 2024): given a correct
//! *target* query `Q★` and a wrong *working* query `Q`, produce
//! actionable, provably correct, locally optimal hints that lead the user
//! to a query equivalent to `Q★` — without revealing `Q★` itself.
//!
//! ## Architecture (paper § → module)
//!
//! | Paper | Module |
//! |-------|--------|
//! | §3 solver primitives | [`oracle`] (over [`qrhint_smt`]) |
//! | §4 FROM stage + App. B table mapping | [`stages::from_stage`], [`mapping`] |
//! | §5 WHERE repairs (Algorithms 1–3, 5–8) | [`repair`] |
//! | §6 GROUP BY (Algorithm 4) | [`stages::groupby_stage`] |
//! | §7 HAVING + aggregate context | [`stages::having_stage`] |
//! | §8 SELECT (Algorithm 9) | [`stages::select_stage`] |
//! | §3.1 stage pipeline (Theorem 3.1) | [`pipeline`] (stage walk: crate-private `runner`) |
//! | §1/§10 deployment (one target, many submissions) | [`session`] |
//!
//! ## Quick start: compile once, advise many
//!
//! The deployment shape is one hidden target graded against many student
//! submissions. [`QrHint::compile_target`] does the target-side work once
//! (parse and resolve, and one solver context whose verdicts every
//! advise shares); the returned [`session::PreparedTarget`] then grades
//! each submission incrementally:
//!
//! ```
//! use qrhint_core::{QrHint, Stage};
//! use qrhint_sqlast::{Schema, SqlType};
//!
//! let schema = Schema::new()
//!     .with_table("Serves", &[("bar", SqlType::Str), ("beer", SqlType::Str),
//!                             ("price", SqlType::Int)], &["bar", "beer"]);
//! let qr = QrHint::new(schema);
//! let prepared = qr
//!     .compile_target("SELECT s.bar FROM Serves s WHERE s.price >= 3")
//!     .unwrap();
//!
//! // Classroom-scale batch grading (bad submissions don't abort the batch):
//! let advices = prepared.grade_batch(&[
//!     "SELECT s.bar FROM Serves s WHERE s.price > 3",
//!     "SELECT s.bar FROM Serves s WHERE s.price >= 3",
//! ]);
//! assert_eq!(advices[0].as_ref().unwrap().stage, Stage::Where);
//! assert!(advices[1].as_ref().unwrap().is_equivalent());
//!
//! // Incremental tutoring: advise → apply; unchanged stages are
//! // re-checked from the shared verdict cache, so each step pays solver
//! // work only where the query changed.
//! let mut session = prepared
//!     .tutor_sql("SELECT s.bar FROM Serves s WHERE s.price > 3")
//!     .unwrap();
//! while !session.is_done() {
//!     let advice = session.step().unwrap();
//!     for hint in &advice.hints {
//!         println!("{hint}");
//!     }
//! }
//! ```
//!
//! Advice is serde-serializable end-to-end
//! (`serde_json::to_string(&advice)`), so graders can consume structured
//! JSON instead of re-parsing rendered English. The stateless
//! [`QrHint::advise_sql`] / [`QrHint::fix_fully`] remain as thin wrappers
//! over the session layer for one-shot use.
//!
//! [`PreparedTarget`]'s caches are sharded for concurrency (see the
//! [`session`] module docs): large, mostly-distinct batches can fan out
//! over a scoped worker pool with
//! [`session::PreparedTarget::grade_batch_parallel`] (built on
//! [`parallel::run_indexed`]) and get byte-identical results in input
//! order.

#![forbid(unsafe_code)]

pub mod error;
pub mod hint;
pub mod mapping;
pub mod nullsafe;
pub mod oracle;
pub mod parallel;
pub mod pipeline;
pub mod repair;
pub mod report;
pub(crate) mod runner;
pub mod session;
pub mod stages;
pub(crate) mod verdicts;

pub use error::{QrHintError, QrResult};
pub use qrhint_analysis as analysis;
pub use qrhint_analysis::{DiagCode, Diagnostic, Severity};
pub use hint::{ClauseKind, Hint, SiteHint, Stage};
pub use oracle::{InternerStats, LowerEnv, Oracle, SolverContext, TypeEnv};
pub use pipeline::{Advice, QrHint, QrHintConfig};
pub use qrhint_sqlparse::FlattenOptions;
pub use repair::{FixStrategy, Repair, RepairConfig, RepairOutcome};
pub use report::AdviceReport;
pub use session::{PreparedTarget, SessionStats, TutorSession};
