//! Self-tests of the benchmark's own machinery: the statistics it
//! reports, the self-time partition, the seeded schedule, and the
//! output checks (which must be able to fail).

use qr_hint::core::QrHint;
use qr_hint::parse::parse_schema;
use qr_hint::workloads::differential::CaseClass;
use qrhint_perfbench::check::{self, End};
use qrhint_perfbench::schedule::{plan, Inputs, Req, GRADE_BATCH};
use qrhint_perfbench::stats;
use qrhint_perfbench::trace::{self_times, LayerTable, Span};

#[test]
fn percentiles_are_nearest_rank() {
    let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(stats::percentile(&sorted, 0.5), 50.0);
    assert_eq!(stats::percentile(&sorted, 0.9), 90.0);
    assert_eq!(stats::percentile(&sorted, 0.99), 99.0);
    assert_eq!(stats::percentile(&sorted, 1.0), 100.0);
    assert_eq!(stats::percentile(&[7.0], 0.99), 7.0);
    assert_eq!(stats::median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(stats::median(&[4.0, 1.0, 2.0, 3.0]), 2.5);

    let mut lat = stats::Latencies::default();
    for ms in (1..=100).chain(1..=10) {
        lat.push(f64::from(ms));
    }
    assert_eq!(lat.at(0.5), 45.0);
    assert_eq!(
        lat.banded_since(100, 0.9),
        9.5,
        "a pass's percentile sees only that pass's samples"
    );
}

#[test]
fn a_banded_tail_moves_by_one_samples_share() {
    let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
    // Ranks 88..=93: the nearest-rank p87.5 to p92.5.
    assert_eq!(stats::banded_percentile(&sorted, 0.9), 90.5);
    // A gap beside the p90 rank: 10 fast ops, 10 slow ones. One op
    // crossing the gap moves the nearest-rank p90 from 10 to 50 but the
    // banded p90 by a sixth of the gap.
    let mut tail = vec![1.0; 80];
    tail.extend([10.0; 10]);
    tail.extend([50.0; 10]);
    let mut crossed = tail.clone();
    crossed[89] = 50.0;
    crossed.sort_by(f64::total_cmp);
    assert_eq!(stats::percentile(&tail, 0.9), 10.0);
    assert_eq!(stats::percentile(&crossed, 0.9), 50.0);
    let moved = stats::banded_percentile(&crossed, 0.9) - stats::banded_percentile(&tail, 0.9);
    assert!((moved - 40.0 / 6.0).abs() < 1e-9, "moved {moved}");
}

#[test]
fn typical_times_set_a_burst_aside() {
    // One repeat of the second input met a burst of host noise; the
    // third input was never timed.
    let per_input = vec![vec![1.0, 1.2, 1.1], vec![2.0, 9.0, 2.2], vec![], vec![3.0]];
    assert_eq!(stats::typical_times(&per_input), vec![1.1, 2.2, 3.0]);
}

#[test]
fn a_tail_percentile_needs_ten_samples_beyond_it() {
    assert_eq!(stats::beyond(100, 0.9), 10);
    assert!(stats::supports(100, 0.9));
    assert!(!stats::supports(99, 0.9), "99 samples leave 9 beyond p90");
    assert!(!stats::supports(999, 0.99));
    assert!(stats::supports(1000, 0.99));
    assert_eq!(stats::highest_supported(10_000), Some(0.999));
    assert_eq!(stats::highest_supported(1_000), Some(0.99));
    assert_eq!(stats::highest_supported(300), Some(0.9));
    assert_eq!(stats::highest_supported(99), Some(0.5));
    assert_eq!(stats::highest_supported(19), None);
}

fn span(layer: &'static str, ts_us: u64, dur_us: u64, depth: u32, tid: u64) -> Span {
    Span {
        layer,
        ts_us,
        dur_us,
        tid,
        depth,
    }
}

#[test]
fn self_times_partition_the_root() {
    // Two op trees on two threads, events in drop (leaf-first) order;
    // a child starts in the same microsecond as its parent.
    let spans = vec![
        span("smt.solver", 15, 10, 2, 0),
        span("core.advise", 10, 30, 1, 0),
        span("core.report", 50, 40, 1, 0),
        span("bench", 0, 100, 0, 0),
        span("analysis", 5, 5, 1, 1),
        span("bench", 5, 20, 0, 1),
    ];
    let own = self_times(&spans);
    assert_eq!(own, vec![10, 20, 40, 30, 5, 15]);
    assert_eq!(
        own[..4].iter().sum::<u64>(),
        100,
        "self times add up to the root"
    );
    assert_eq!(own[4..].iter().sum::<u64>(), 20);

    let mut table = LayerTable::default();
    table.add(&spans);
    assert_eq!(table.ops, 2);
    assert_eq!(table.op_us, 120);
    assert_eq!(table.self_us.values().sum::<u64>(), 120);
    assert!((table.coverage() - (1.0 - 45.0 / 120.0)).abs() < 1e-12);
    assert!((table.per_op_ms("core.advise") - 0.010).abs() < 1e-12);
}

#[test]
fn schedules_repeat_per_seed() {
    let target_of: Vec<usize> = (0..600).map(|k| k % 7).collect();
    let inputs = Inputs {
        target_of: &target_of,
        targets: 9,
        registrations: 4,
    };
    let a = plan(42, 4000, 400.0, &inputs);
    assert_eq!(
        a,
        plan(42, 4000, 400.0, &inputs),
        "same seed, same schedule"
    );
    assert_ne!(
        a,
        plan(7, 4000, 400.0, &inputs),
        "another seed, another schedule"
    );
    assert!(
        a.windows(2).all(|w| w[0].at_us <= w[1].at_us),
        "arrivals are ordered"
    );
    let rate = a.len() as f64 / (a.last().unwrap().at_us as f64 / 1e6);
    assert!((rate - 400.0).abs() < 40.0, "offered rate {rate}");
    let registrations = a
        .iter()
        .filter(|p| matches!(p.req, Req::Register(_)))
        .count();
    assert!(registrations <= 4);
    for p in &a {
        match &p.req {
            Req::Advise(k) => assert!(*k < target_of.len()),
            Req::Grade(keys) => {
                assert_eq!(keys.len(), GRADE_BATCH);
                assert!(keys.iter().all(|&k| target_of[k] == target_of[keys[0]]));
            }
            Req::Register(t) => assert!(*t < 9),
        }
    }
}

const SERVES: &str =
    "CREATE TABLE Serves (bar VARCHAR, beer VARCHAR, price INT, PRIMARY KEY (bar, beer));";

#[test]
fn a_corrupted_advice_body_is_rejected() {
    let qr = QrHint::new(parse_schema(SERVES).unwrap());
    let prepared = qr
        .compile_target("SELECT s.bar FROM Serves s WHERE s.price >= 3")
        .unwrap();
    let (status, body) =
        check::expected_advise(&prepared, "SELECT s.bar FROM Serves s WHERE s.price > 3");
    assert_eq!(status, 200);
    assert!(check::same_bytes(&body, &body.clone()).is_ok());
    let corrupted = body.replacen("WHERE", "WHERF", 1);
    assert!(check::same_bytes(&body, &corrupted).is_err());
    assert!(check::same_bytes(&body, &body[..body.len() - 1]).is_err());
    let (status, _) = check::expected_advise(&prepared, "SELEKT nonsense");
    assert_eq!(status, 422, "malformed SQL is the submission's fault");
}

#[test]
fn an_unsound_repaired_query_fails_the_check() {
    let schema = parse_schema(SERVES).unwrap();
    let qr = QrHint::new(schema.clone());
    let target = qr
        .prepare("SELECT s.bar FROM Serves s WHERE s.price >= 3")
        .unwrap();
    let working = qr
        .prepare("SELECT s.bar FROM Serves s WHERE s.price > 3")
        .unwrap();
    let wrong = qr
        .prepare("SELECT s.bar FROM Serves s WHERE s.price < 3")
        .unwrap();

    let class = check::judge(
        &schema,
        &target,
        Some(&working),
        End::Fixed {
            query: &wrong,
            stages: 1,
        },
        42,
    );
    assert_eq!(class, CaseClass::RepairUnsound);
    assert!(!check::passes(class));

    let class = check::judge(
        &schema,
        &target,
        Some(&working),
        End::Fixed {
            query: &target,
            stages: 1,
        },
        42,
    );
    assert_eq!(class, CaseClass::RepairedValidated);
    assert!(check::passes(class));

    assert!(!check::passes(check::judge(
        &schema,
        &target,
        Some(&working),
        End::NonConvergent,
        42
    )));
    assert!(!check::passes(check::judge(
        &schema,
        &target,
        Some(&working),
        End::Internal,
        42
    )));
    assert!(check::passes(check::judge(
        &schema,
        &target,
        None,
        End::Unsupported,
        42
    )));
}
