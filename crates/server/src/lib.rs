//! # qrhint-server
//!
//! The `qr-hint serve` daemon: a long-running grading service that
//! keeps [`qrhint_core::PreparedTarget`]s hot across requests, behind a
//! dependency-free (std-only) HTTP/1.1 JSON API.
//!
//! The paper's deployment story (§1, §10) is one hidden target graded
//! against a stream of student submissions. The CLI pays target
//! compilation on every process start; this subsystem makes the
//! prepared target *resident*: register once, then every
//! advise/grade request rides the session layer's warm state — the
//! shared solver verdict cache and the advice cache — at its hottest.
//!
//! ## API
//!
//! | Route | Effect |
//! |-------|--------|
//! | `POST /targets` | register `{schema, target[, extended, rewrite_subqueries]}` (`rewrite_subqueries` implies `extended`) → `201 {id, evicted}` |
//! | `POST /targets/{id}/advise` | one submission `{sql}` → `200` [`qrhint_core::AdviceReport`] |
//! | `POST /targets/{id}/grade` | batch `{submissions[, jobs]}` → `200 {jobs, entries}` (fanned out over [`qrhint_core::parallel::run_indexed`]) |
//! | `GET /targets/{id}/stats` | `200 {id, stats, approx_cache_bytes}` (one coherent [`qrhint_core::SessionStats`] snapshot) |
//! | `GET /metrics` | Prometheus text exposition (also served while draining) |
//! | `GET /version` | `200 {name, version}` |
//! | `GET /healthz` | liveness + registry totals + in-flight count (also served while draining) |
//! | `POST /shutdown` | graceful drain: stop accepting, finish queued work, exit |
//!
//! Advice JSON is **byte-identical** (module canonical re-serialization)
//! to the offline `qr-hint grade --json` path — both surfaces serialize
//! the shared [`qrhint_core::AdviceReport`].
//!
//! ## Architecture
//!
//! * [`http`] — hand-rolled HTTP/1.1 subset (the offline vendor policy
//!   rules out hyper; `Content-Length` framing, keep-alive,
//!   `Expect: 100-continue`). Malformed requests answer `400`/`413`,
//!   never a silent connection drop.
//! * [`metrics`] — [`metrics::ServerMetrics`]: the `/metrics`
//!   instrumentation (per-route counters/histograms, in-flight gauge,
//!   scrape-time registry + session aggregation) on the shared
//!   `qrhint-obs` substrate.
//! * [`registry`] — [`registry::TargetRegistry`]: LRU over
//!   `Arc<RegisteredTarget>` with an entry capacity and a byte budget;
//!   eviction sheds rebuildable caches before dropping targets.
//! * [`service`] — transport-agnostic route dispatch and the JSON wire
//!   shapes; unit-testable without sockets.
//! * [`server`] — event-driven acceptor (readiness-polled
//!   multiplexing over the vendored `polling` shim), scoped request
//!   worker pool, bounded dispatch queue with `429` + `Retry-After`
//!   overload shedding, graceful drain.
//! * [`client`] — the matching minimal blocking client, shared by the
//!   integration tests, the soak benchmark and the `serve_classroom`
//!   example.
//! * [`pool`] — [`pool::ClientPool`]: keep-alive connection reuse per
//!   backend address, with checkout/hit/miss statistics.
//! * [`router`] — the `qr-hint route` scale-out layer: consistent-hash
//!   placement of targets across backend daemons, health-checked
//!   failover with deterministic re-sharding, pooled forwarding.
//!
//! The crate itself forbids `unsafe`; the one `poll(2)` FFI call lives
//! behind the vendored `polling` shim.

#![forbid(unsafe_code)]

pub mod client;
pub mod http;
pub mod metrics;
pub mod pool;
pub mod registry;
pub mod router;
pub mod server;
pub mod service;

pub use client::Client;
pub use metrics::ServerMetrics;
pub use pool::{ClientPool, PoolStats};
pub use registry::{EvictionReport, RegisteredTarget, RegistryConfig, TargetRegistry};
pub use router::{Ring, Router, RouterConfig, RouterService};
pub use server::{HttpHandler, Server, ServerConfig, ShellConfig};
pub use service::{resolve_jobs, QrHintService, ServiceConfig};
