//! Processes under test: daemons with an announce line, and peak
//! resident memory (Linux `/proc/self/status`, `clear_refs` and
//! `getrusage`).

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// A `/proc/self/status` size field (`VmHWM:`, `VmRSS:`) in MiB.
fn status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("/proc/self/status has {field}"));
    kib / 1024.0
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn self_peak_rss_mb() -> f64 {
    status_mb("VmHWM:")
}

extern "C" {
    fn malloc_trim(pad: usize) -> i32;
}

/// Start a new peak-RSS measurement: hand the heap this process has
/// freed back to the kernel (glibc `malloc_trim`), then reset `VmHWM` to
/// the current resident set (`clear_refs` code 5, Linux 4.0+). Returns
/// that resident set, the baseline the new peak starts from, in MiB.
/// Without the trim, memory freed by earlier work would stay resident
/// and hide growth up to its size.
pub fn reset_peak_rss() -> std::io::Result<f64> {
    // SAFETY: malloc_trim only releases free heap pages; it takes no
    // pointers and leaves every live allocation in place.
    unsafe { malloc_trim(0) };
    std::fs::write("/proc/self/clear_refs", "5")?;
    Ok(status_mb("VmRSS:"))
}

/// Mirror of Linux's `struct rusage` (x86-64 and aarch64 layouts: two
/// `timeval`s, then fourteen `long`s starting with `ru_maxrss`).
#[repr(C)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

const RUSAGE_CHILDREN: i32 = -1;

/// Largest peak resident set of any child this process has waited for,
/// in MiB.
pub fn children_peak_rss_mb() -> f64 {
    let mut usage = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable value with the C layout of
    // `struct rusage` on the 64-bit Linux targets this benchmark runs
    // on, and getrusage writes only within that struct.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_CHILDREN) failed");
    usage.maxrss as f64 / 1024.0
}

/// A spawned `qr-hint serve`/`route` daemon. Dropping it kills the
/// process if it is still running and reaps it.
pub struct Daemon {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
}

impl Daemon {
    /// Spawn `exe args…` and read its first stdout line, which announces
    /// `http://ADDR`.
    pub fn spawn(exe: &Path, args: &[&str]) -> std::io::Result<Daemon> {
        let mut child = Command::new(exe)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        stdout.read_line(&mut line)?;
        let addr = line
            .split("http://")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|a| a.parse().ok());
        match addr {
            Some(addr) => Ok(Daemon {
                child,
                _stdout: stdout,
                addr,
            }),
            None => {
                let _ = child.kill();
                let _ = child.wait();
                Err(std::io::Error::other(format!(
                    "no address in announce line {line:?}"
                )))
            }
        }
    }

    /// Wait for the process to exit after a `POST /shutdown`, killing it
    /// after `grace`. Returns whether it exited on its own with status 0.
    /// Its stdout stays open until then: the farewell line must not hit
    /// a closed pipe.
    pub fn wait(mut self, grace: Duration) -> bool {
        let deadline = Instant::now() + grace;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => return status.success(),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return false;
                }
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}
