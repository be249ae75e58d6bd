//! Output checks, run outside every timed window.
//!
//! In-process sessions are judged by the rules of
//! `qrhint_workloads::differential`: the final query must equal the
//! target as a bag on generated database instances. Serving and CLI
//! outputs must be byte-identical to what the library produces for the
//! same SQL in-process. Timings, ports, target ids, request ids and
//! file paths are never compared.

use qr_hint::analysis::{analyze, has_errors};
use qr_hint::ast::{Query, Schema};
use qr_hint::core::{AdviceReport, PreparedTarget, QrHintError};
use qr_hint::engine::{bag_equal, execute, DataGen};
use qr_hint::workloads::differential::CaseClass;

/// Database instances each final query is executed on.
pub const INSTANCES: usize = 3;

/// How a tutoring session ended.
#[derive(Debug, Clone, Copy)]
pub enum End<'a> {
    /// Reached `Done` after `stages` applied repairs.
    Fixed { query: &'a Query, stages: usize },
    /// The pipeline rejected the SQL as unsupported (a correct answer).
    Unsupported,
    /// Still not `Done` after the configured stage-application cap.
    NonConvergent,
    /// A pipeline-internal error.
    Internal,
}

/// Classify one session the way `differential::classify_case` would,
/// from the session the benchmark already ran instead of a rerun.
/// `working` is `None` when the submission failed to parse or resolve.
pub fn judge(
    schema: &Schema,
    target: &Query,
    working: Option<&Query>,
    end: End<'_>,
    exec_seed: u64,
) -> CaseClass {
    let Some(working) = working else {
        return CaseClass::UnsupportedFragment;
    };
    if has_errors(&analyze(schema, working)) {
        return CaseClass::StaticallyRejected;
    }
    let (fixed, stages) = match end {
        End::Fixed { query, stages } => (query, stages),
        End::Unsupported => return CaseClass::UnsupportedFragment,
        End::NonConvergent => return CaseClass::RepairNonConvergent,
        End::Internal => return CaseClass::Unclassified,
    };
    if has_errors(&analyze(schema, fixed)) {
        return CaseClass::StaticallyRejected;
    }
    let rows = match target.from.len().max(fixed.from.len()) {
        0..=2 => 6,
        3..=4 => 4,
        _ => 3,
    };
    for k in 0..INSTANCES {
        let db_seed = exec_seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(k as u64);
        let db = DataGen::new(db_seed)
            .with_rows(rows)
            .generate(schema, &[target, fixed, working]);
        let (Ok(expect), Ok(got)) = (execute(target, schema, &db), execute(fixed, schema, &db))
        else {
            return CaseClass::ExecGap;
        };
        if !bag_equal(&expect, &got) {
            return CaseClass::RepairUnsound;
        }
    }
    if stages == 0 {
        CaseClass::EquivalentMutant
    } else {
        CaseClass::RepairedValidated
    }
}

/// Whether a class is a correct outcome for the benchmark.
pub fn passes(class: CaseClass) -> bool {
    !class.is_divergence()
}

/// Byte comparison of an output against its expected bytes; the error
/// names the first differing offset.
pub fn same_bytes(expected: &str, got: &str) -> Result<(), String> {
    if expected == got {
        return Ok(());
    }
    let at = expected
        .bytes()
        .zip(got.bytes())
        .take_while(|(a, b)| a == b)
        .count();
    Err(format!(
        "outputs differ at byte {at} (expected {} bytes, got {})",
        expected.len(),
        got.len()
    ))
}

/// Whether an error is the submission's fault (HTTP 422, CLI exit 3).
pub fn is_user_error(e: &QrHintError) -> bool {
    matches!(
        e,
        QrHintError::Parse(_) | QrHintError::Resolve(_) | QrHintError::Unsupported(_)
    )
}

/// The advise handler's answer for `sql`, computed in-process: the
/// status and, for 200, the body a daemon must send byte for byte.
pub fn expected_advise(prepared: &PreparedTarget, sql: &str) -> (u16, String) {
    let result = prepared.prepare(sql).and_then(|q| {
        let advice = prepared.advise(&q)?;
        Ok(AdviceReport::with_diagnostics(advice, prepared.lint(&q)))
    });
    match result {
        Ok(report) => (
            200,
            serde_json::to_string(&report).expect("report serializes"),
        ),
        Err(e) if is_user_error(&e) => (422, String::new()),
        Err(_) => (500, String::new()),
    }
}

/// What `qr-hint --interactive --json` must print for `sql`: the exit
/// code and, for 0, the pretty-printed `AdviceReport::new` trail.
pub fn expected_cli(prepared: &PreparedTarget, sql: &str) -> (i32, String) {
    let working = match prepared.prepare(sql) {
        Ok(q) => q,
        Err(e) if is_user_error(&e) => return (3, String::new()),
        Err(_) => return (1, String::new()),
    };
    let mut session = prepared.tutor(working);
    let mut reports = Vec::new();
    for _ in 0..prepared.config().max_stage_applications {
        match session.step() {
            Ok(advice) => reports.push(AdviceReport::new(advice)),
            Err(_) => return (1, String::new()),
        }
        if session.is_done() {
            let json = serde_json::to_string_pretty(&reports).expect("reports serialize");
            return (0, format!("{json}\n"));
        }
    }
    (1, String::new())
}
