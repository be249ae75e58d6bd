//! Classroom grader: batch-process the synthetic Students+ corpus
//! (§9's coverage workload) the way a TA dashboard would — classify
//! every submission, print per-question statistics and a few sample
//! hint transcripts.
//!
//! Uses the session API end-to-end: each question's hidden target is
//! compiled **once** ([`QrHint::compile_target`]) and its submissions
//! are graded against the prepared target through
//! [`PreparedTarget::grade_batch_parallel`] — every advise grades with
//! its own oracle, so the batch fans out over one worker per available
//! core while sharing the target's solver verdicts.
//! Hinted submissions then replay the full tutoring loop (sequentially;
//! its re-checks of unchanged stages are answered by the warm verdict
//! cache).
//!
//! Run with: `cargo run --release --example classroom_grader`

use qr_hint::prelude::*;
use qrhint_workloads::students;
use std::collections::BTreeMap;
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let qr = QrHint::new(students::schema());
    let corpus = students::corpus();
    let jobs = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    println!(
        "Grading {} submissions across 4 questions with {jobs} worker(s)...\n",
        corpus.len()
    );

    #[derive(Default)]
    struct Tally {
        total: usize,
        unsupported: usize,
        equivalent: usize,
        hinted: usize,
        converged: usize,
    }
    let mut per_question: BTreeMap<&str, Tally> = BTreeMap::new();
    // question → (target, submissions for the batch, their corpus ids).
    let mut batches: BTreeMap<&str, (String, Vec<String>, Vec<String>)> = BTreeMap::new();
    for entry in &corpus {
        let tally = per_question.entry(entry.question).or_default();
        tally.total += 1;
        if entry.category == "UNSUPPORTED" {
            tally.unsupported += 1;
            continue;
        }
        let (_, subs, ids) = batches
            .entry(entry.question)
            .or_insert_with(|| (entry.pair.target_sql.clone(), Vec::new(), Vec::new()));
        subs.push(entry.pair.working_sql.clone());
        ids.push(entry.pair.id.clone());
    }

    let mut first_stage: BTreeMap<String, usize> = BTreeMap::new();
    let mut prepared: BTreeMap<&str, PreparedTarget> = BTreeMap::new();
    let started = Instant::now();
    let mut samples_shown = 0;

    for (question, (target_sql, subs, ids)) in &batches {
        let target = qr.compile_target(target_sql)?;
        let advices = target.grade_batch_parallel(subs, jobs);
        let tally = per_question.entry(question).or_default();
        for ((advice, sql), id) in advices.into_iter().zip(subs).zip(ids) {
            let advice = advice?;
            if advice.is_equivalent() {
                tally.equivalent += 1;
                continue;
            }
            tally.hinted += 1;
            *first_stage.entry(advice.stage.to_string()).or_insert(0) += 1;
            if samples_shown < 3 {
                samples_shown += 1;
                println!("--- sample hint transcript: {id} ---");
                println!("  student: {}", sql.trim());
                for h in &advice.hints {
                    println!("  hint: {h}");
                }
                println!();
            }
            // The tutoring replay rides the warm caches the batch just
            // populated.
            let working = target.prepare(sql)?;
            let (_, trail) = target.tutor(working).run_to_completion()?;
            if trail.last().map(|a| a.is_equivalent()).unwrap_or(false) {
                tally.converged += 1;
            }
        }
        prepared.insert(question, target);
    }

    println!("question  total  unsupported  equivalent  hinted  converged");
    for (question, t) in &per_question {
        println!(
            "{question:>8}  {:>5}  {:>11}  {:>10}  {:>6}  {:>9}",
            t.total, t.unsupported, t.equivalent, t.hinted, t.converged
        );
    }
    println!("\nfirst failing stage distribution:");
    for (stage, n) in &first_stage {
        println!("  {stage:<9} {n}");
    }
    println!(
        "\ngraded in {:.2?} ({:.1} ms/query avg, {jobs} worker(s))",
        started.elapsed(),
        started.elapsed().as_millis() as f64 / corpus.len() as f64
    );
    for (question, target) in &prepared {
        let s = target.stats();
        println!(
            "  question {question}: {} advises, {} duplicate hits, {} solver calls, \
             {} verdict hits",
            s.advise_calls, s.advice_cache_hits, s.solver_calls, s.verdict_cache_hits
        );
    }
    Ok(())
}
