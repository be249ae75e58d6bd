//! E1/E10/E11 — the Students+ coverage experiment (§9.1, Appendix
//! Tables 4 and 5): run the whole synthetic corpus plus the Brass-issue
//! pairs through the pipeline, classify the handling of every issue, and
//! measure the average per-query running time.

use qr_hint::prelude::*;
use qrhint_workloads::{brass, students};
use serde::Serialize;
use std::collections::BTreeMap;
use std::time::Instant;

/// Per-question corpus statistics (Appendix Table 4 regeneration).
#[derive(Debug, Clone, Default, Serialize)]
pub struct QuestionStats {
    pub total: usize,
    pub unsupported: usize,
    pub first_stage: BTreeMap<String, usize>,
    pub converged: usize,
}

/// Observed handling of a Brass issue (the §9.1 three-way split).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Observed {
    ErrorFixed,
    EquivalentNoFlag,
    EquivalentButFlagged,
}

/// One Brass-issue result row (Appendix Table 5 regeneration).
#[derive(Debug, Clone, Serialize)]
pub struct BrassRow {
    pub issue: u32,
    pub description: String,
    pub paper_category: String,
    pub observed: Vec<Observed>,
    pub matches_paper: bool,
}

/// Complete E1 output.
#[derive(Debug, Clone, Serialize)]
pub struct StudentsReport {
    pub per_question: BTreeMap<String, QuestionStats>,
    pub supported: usize,
    pub unsupported: usize,
    pub avg_ms_per_query: f64,
    pub brass: Vec<BrassRow>,
}

/// Run the full corpus + Brass matrix.
pub fn run() -> StudentsReport {
    let qr = QrHint::new(students::schema());
    let corpus = students::corpus();
    let mut per_question: BTreeMap<String, QuestionStats> = BTreeMap::new();
    let mut supported = 0usize;
    let mut unsupported = 0usize;
    let started = Instant::now();

    for entry in &corpus {
        let stats = per_question.entry(entry.question.to_string()).or_default();
        stats.total += 1;
        if entry.category == "UNSUPPORTED" {
            stats.unsupported += 1;
            unsupported += 1;
            continue;
        }
        supported += 1;
        let target = qr.prepare(&entry.pair.target_sql).expect("target parses");
        let working = qr.prepare(&entry.pair.working_sql).expect("working parses");
        let advice = qr.advise(&target, &working).expect("advise succeeds");
        *stats
            .first_stage
            .entry(advice.stage.to_string())
            .or_insert(0) += 1;
        if advice.is_equivalent() {
            stats.converged += 1;
            continue;
        }
        if let Ok((_, trail)) = qr.fix_fully(&target, &working) {
            if trail.last().map(|a| a.is_equivalent()).unwrap_or(false) {
                stats.converged += 1;
            }
        }
    }
    let avg_ms = started.elapsed().as_secs_f64() * 1e3 / supported.max(1) as f64;

    // ---- Brass-issue matrix ----
    let brass_qr = QrHint::new(brass::schema());
    let mut brass_rows = Vec::new();
    for issue in brass::issues() {
        if issue.category == brass::PaperCategory::Unsupported {
            continue;
        }
        let mut observed = Vec::new();
        for pair in &issue.pairs {
            let target = brass_qr.prepare(&pair.target_sql).expect("target parses");
            let working = brass_qr.prepare(&pair.working_sql).expect("working parses");
            let advice = brass_qr.advise(&target, &working).expect("advise succeeds");
            let obs = if advice.is_equivalent() {
                Observed::EquivalentNoFlag
            } else if issue.category == brass::PaperCategory::ErrorFixed {
                Observed::ErrorFixed
            } else {
                Observed::EquivalentButFlagged
            };
            observed.push(obs);
        }
        let expected = match issue.category {
            brass::PaperCategory::ErrorFixed => Observed::ErrorFixed,
            brass::PaperCategory::EquivalentNoFlag => Observed::EquivalentNoFlag,
            brass::PaperCategory::EquivalentButFlagged => Observed::EquivalentButFlagged,
            brass::PaperCategory::Unsupported => unreachable!(),
        };
        let matches_paper = observed.iter().all(|o| *o == expected);
        brass_rows.push(BrassRow {
            issue: issue.number,
            description: issue.description.to_string(),
            paper_category: format!("{:?}", issue.category),
            observed,
            matches_paper,
        });
    }

    StudentsReport {
        per_question,
        supported,
        unsupported,
        avg_ms_per_query: avg_ms,
        brass: brass_rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[ignore = "full-corpus run; run by CI's `Paper sweeps (ignored bench tests)` release step"]
    fn full_corpus_report() {
        let report = run();
        assert_eq!(report.supported, 306);
        assert_eq!(report.unsupported, 35);
        // Every supported query converges.
        for (q, stats) in &report.per_question {
            assert_eq!(
                stats.converged + stats.unsupported,
                stats.total,
                "question {q} has non-converging queries"
            );
        }
    }
}
