//! Seeded request plans for the serving phase of `classroom`'s traced
//! run.
//!
//! The open loop follows a Poisson arrival schedule at a rate fixed in
//! the benchmark (never recalibrated per run). Most requests are
//! advises:
//! fresh submissions in order (a student resubmitting after each hint)
//! or, with a seeded share, exact repeats of earlier ones (classmates).
//! Small shares of grade batches and new registrations add writes.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Offered load of the open loop, requests per second: about a quarter
/// of what the routed pair serves closed-loop on two vCPUs, and high
/// enough that the vCPUs do not halt between requests (at 400 req/s
/// each request paid to wake them, and latencies followed host noise).
pub const OPEN_RATE: f64 = 2000.0;
/// Share of advises that repeat an earlier submission exactly.
pub const REPEAT_SHARE: f64 = 0.5;
/// Share of requests that are `grade` batches.
pub const GRADE_SHARE: f64 = 0.02;
/// Submissions per grade batch.
pub const GRADE_BATCH: usize = 8;
/// Share of requests that register a target anew.
pub const REGISTER_SHARE: f64 = 0.005;

#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Req {
    /// Advise on submission `key`.
    Advise(usize),
    /// Grade these submissions, all of one target.
    Grade(Vec<usize>),
    /// Register target `base` again under a new id.
    Register(usize),
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Planned {
    /// Scheduled send time, microseconds from the phase start.
    pub at_us: u64,
    pub req: Req,
}

/// What a plan draws from: `target_of[key]` is the target of
/// submission `key`, in fresh-submission order.
pub struct Inputs<'a> {
    pub target_of: &'a [usize],
    pub targets: usize,
    /// Registrations the plan may still add.
    pub registrations: usize,
}

/// `n` requests from `seed` with Poisson arrival times at `rate` per
/// second.
pub fn plan(seed: u64, n: usize, rate: f64, inputs: &Inputs<'_>) -> Vec<Planned> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut by_target: Vec<Vec<usize>> = vec![Vec::new(); inputs.targets];
    for (key, &t) in inputs.target_of.iter().enumerate() {
        by_target[t].push(key);
    }
    let graded: Vec<usize> = (0..inputs.targets)
        .filter(|&t| !by_target[t].is_empty())
        .collect();
    let (mut at, mut fresh, mut registrations) = (0.0f64, 0usize, inputs.registrations);
    let mut seen: Vec<usize> = Vec::new();
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let u: f64 = rng.gen();
        at += -(1.0 - u).ln() / rate * 1e6;
        let r: f64 = rng.gen();
        let req = if r < GRADE_SHARE && !graded.is_empty() {
            let keys = &by_target[graded[rng.gen_range(0..graded.len())]];
            Req::Grade(
                (0..GRADE_BATCH)
                    .map(|_| keys[rng.gen_range(0..keys.len())])
                    .collect(),
            )
        } else if r < GRADE_SHARE + REGISTER_SHARE && registrations > 0 {
            registrations -= 1;
            Req::Register(rng.gen_range(0..inputs.targets))
        } else if !seen.is_empty() && rng.gen_bool(REPEAT_SHARE) {
            Req::Advise(seen[rng.gen_range(0..seen.len())])
        } else {
            let key = fresh % inputs.target_of.len();
            fresh += 1;
            seen.push(key);
            Req::Advise(key)
        };
        out.push(Planned {
            at_us: at as u64,
            req,
        });
    }
    out
}
