//! The CLI survives a reader that has gone: with its stdout or stderr
//! connected to a pipe whose read end is already closed, `qr-hint` stops
//! writing to that stream and exits with the status the command
//! computed, instead of panicking (`println!` exits 101 there).

use std::process::{Command, Output, Stdio};

const BIN: &str = env!("CARGO_BIN_EXE_qr-hint");

/// Which of the child's output streams goes to the closed pipe.
enum Closed {
    Stdout,
    Stderr,
}

/// Run `qr-hint args` with one stream connected to a pipe whose read end
/// is dropped before the child starts; the other stream is captured.
fn run_with_closed(closed: Closed, args: &[&str]) -> Output {
    let (reader, writer) = std::io::pipe().expect("create a pipe");
    drop(reader);
    let mut cmd = Command::new(BIN);
    cmd.args(args);
    match closed {
        Closed::Stdout => cmd.stdout(writer).stderr(Stdio::piped()),
        Closed::Stderr => cmd.stderr(writer).stdout(Stdio::piped()),
    };
    cmd.output().expect("spawn qr-hint")
}

#[test]
fn help_into_a_closed_stdout_exits_zero_without_a_panic() {
    let out = run_with_closed(Closed::Stdout, &["--help"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}

#[test]
fn usage_error_into_a_closed_stderr_exits_two() {
    let out = run_with_closed(Closed::Stderr, &["serve", "--replicas", "8"]);
    assert_eq!(out.status.code(), Some(2), "stdout: {}", String::from_utf8_lossy(&out.stdout));
}
