//! End-to-end and per-layer benchmark of qr-hint.
//!
//! Seeded workloads drive the program's public surfaces — the library
//! API and the CLI binary, and HTTP through `qr-hint route` in the
//! classroom traced run — and check every output outside the timed
//! windows. See `README.md` in this directory for the workloads,
//! metrics and seeds.

pub mod check;
pub mod cli;
pub mod corpus;
pub mod http;
pub mod inproc;
pub mod procs;
pub mod report;
pub mod schedule;
pub mod serving;
pub mod stats;
pub mod trace;
