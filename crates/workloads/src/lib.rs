//! # qrhint-workloads
//!
//! Schemas, query suites, error injectors and synthetic corpora backing
//! the Qr-Hint evaluation (§9) and user study (§10):
//!
//! * [`beers`] — the drinkers/bars schema of Example 1 with the paper's
//!   running queries;
//! * [`tpch`] — a TPC-H schema and the single-block query suite used by
//!   Figures 2–4 (conjunctive WHEREs with 4–11 atoms from Q4, Q3, Q10,
//!   Q9, Q5, Q8, Q21 plus a synthesized 8-atom query, and the nested
//!   AND/OR predicate of Q7);
//! * [`dblp`] — the user-study schema with the four study queries, their
//!   seeded wrong versions and the TA hints of Appendix Table 3;
//! * [`students`] — a synthetic "Students+" corpus reproducing the error
//!   mix of Appendix Table 4 (the real 341-query dataset is IRB-gated and
//!   unpublished; see DESIGN.md for the substitution argument);
//! * [`brass`] — the Brass-et-al. semantic-error taxonomy (Appendix
//!   Table 5) with two handcrafted query pairs per supported issue;
//! * [`inject`] — the synthetic error injectors used to stress-test
//!   WHERE repair on TPC-H predicates;
//! * [`mutate`] — the seeded whole-query mutation fuzzer (SELECT /
//!   GROUP BY / HAVING / FROM mutations beyond WHERE atoms);
//! * [`differential`] — the execution-validated differential oracle
//!   that grades fuzzed pairs, applies repairs and compares repaired
//!   vs. target under bag semantics on generated databases;
//! * [`batches`] — one-target classroom grading batches over the
//!   students and beers corpora, and the advice fingerprint that
//!   compares two gradings of a batch.

#![forbid(unsafe_code)]

pub mod batches;
pub mod beers;
pub mod brass;
pub mod dblp;
pub mod differential;
pub mod inject;
pub mod mutate;
pub mod students;
pub mod tpch;

/// A (target, working) query pair with provenance metadata.
#[derive(Debug, Clone)]
pub struct QueryPair {
    /// Identifier, e.g. `"tpch-q3"` or `"students-b-17"`.
    pub id: String,
    /// The reference solution.
    pub target_sql: String,
    /// The wrong working query.
    pub working_sql: String,
    /// Free-form description of the seeded error(s).
    pub errors: Vec<String>,
}

#[cfg(test)]
mod registerable_fixtures {
    //! Every bundled workload schema must round-trip through
    //! [`qrhint_sqlast::Schema::to_ddl`] and the front-end's DDL parser:
    //! that equivalence is what lets the corpora be registered with the
    //! `qr-hint serve` daemon (whose API takes DDL text) and graded
    //! identically to the in-process paths.

    #[test]
    fn workload_schemas_round_trip_through_ddl() {
        for (name, schema) in [
            ("beers", crate::beers::schema()),
            ("beers-course", crate::beers::course_schema()),
            ("brass", crate::brass::schema()),
            ("dblp", crate::dblp::schema()),
            ("students", crate::students::schema()),
            ("tpch", crate::tpch::schema()),
        ] {
            let ddl = schema.to_ddl();
            let parsed = qrhint_sqlparse::parse_schema(&ddl)
                .unwrap_or_else(|e| panic!("{name}: generated DDL failed to parse: {e}\n{ddl}"));
            assert_eq!(parsed, schema, "{name}: DDL round-trip changed the schema\n{ddl}");
        }
    }
}
