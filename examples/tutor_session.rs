//! Incremental tutoring session: the paper's deployment loop (§1/§10)
//! over the headline Example 2 — one hidden target, a student revising
//! step by step, machine-readable JSON advice at every interaction.
//!
//! Run with: `cargo run --release --example tutor_session`

use qr_hint::prelude::*;
use qrhint_workloads::beers;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let qr = QrHint::new(beers::schema());

    // The instructor's hidden solution, compiled once.
    let prepared = qr.compile_target(
        "SELECT L.beer, S1.bar, COUNT(*)
         FROM Likes L, Frequents F, Serves S1, Serves S2
         WHERE L.drinker = F.drinker AND F.bar = S1.bar
           AND L.beer = S1.beer AND S1.beer = S2.beer
           AND S1.price <= S2.price
         GROUP BY F.drinker, L.beer, S1.bar
         HAVING F.drinker = 'Amy'",
    )?;

    // The student's wrong attempt (Example 2 of the paper).
    let mut session = prepared.tutor_sql(
        "SELECT s2.beer, s2.bar, COUNT(*)
         FROM Likes, Serves s1, Serves s2
         WHERE drinker = 'Amy'
           AND Likes.beer = s1.beer AND Likes.beer = s2.beer
           AND s1.price > s2.price
         GROUP BY s2.beer, s2.bar",
    )?;

    let mut round = 0;
    while !session.is_done() {
        round += 1;
        let advice = session.step()?;
        if advice.is_equivalent() {
            println!("[round {round}] equivalent — session complete");
            println!("final query: {}", session.working());
        } else {
            println!("[round {round}] stage {}:", advice.stage);
            for hint in &advice.hints {
                println!("  {hint}");
            }
            // Everything a front-end needs, as JSON (stage, structured
            // hints, the auto-applied fix, the alias mapping):
            println!("  advice JSON: {}", serde_json::to_string(&advice)?);
        }
    }

    let stats = prepared.stats();
    println!(
        "\nsession stats: {} advises, {} solver checks, {} answered by the verdict cache",
        stats.advise_calls, stats.solver_calls, stats.verdict_cache_hits
    );
    Ok(())
}
