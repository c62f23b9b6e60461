//! # wmpt-serve — simulation-as-a-service
//!
//! The simulator is deterministic end to end (the PR-3/PR-4
//! bit-exactness contract), which makes every result a pure function of
//! its request. This crate cashes that property in: a dependency-free
//! `std::net` HTTP server (in the spirit of `wmpt_obs::json` — no
//! external crates) that executes [`SimRequest`]s on a bounded job
//! queue and memoizes [`SimResult`]s in a content-addressed LRU cache,
//! so resubmitting any request — however spelled — is a byte-identical
//! cache hit.
//!
//! The pieces, each its own module:
//!
//! - [`request`]: the serializable [`SimRequest`] shared by the CLI and
//!   the server — one validated description of one deterministic job.
//! - [`hash`]: [`canonical_hash`], the order- and whitespace-independent
//!   content address of a request (f64s hash by bit pattern, so `-0.0`
//!   and `+0.0` stay distinct).
//! - [`runner`]: [`run_request`] / [`run_request_with`], the single
//!   execution path behind `mpt_sim` and the server; reports are built
//!   as strings whose bytes are exactly what the CLI prints.
//! - [`result`]: the [`SimResult`] artifact bundle (report, metrics,
//!   trace, SVG) stored as exact bytes.
//! - [`cache`]: [`ResultCache`], LRU by byte budget.
//! - [`http`]: minimal HTTP/1.1 framing plus the blocking client used
//!   by tests and the load generator.
//! - [`lifecycle`]: the bounded request-lifecycle trace — per-request
//!   span trees with exact stage attribution, exported at
//!   `GET /api/v1/trace` in the simulator's own Chrome-trace format.
//! - [`server`]: the [`Server`] itself — bounded queue, single-flight
//!   coalescing, 429 backpressure, 503 + drain on shutdown, `serve.*`
//!   metrics (JSON or Prometheus text), rolling latency windows behind
//!   `/healthz`, and structured JSONL logging.

#![forbid(unsafe_code)]

pub mod cache;
pub mod hash;
pub mod http;
pub mod lifecycle;
pub mod request;
pub mod result;
pub mod runner;
pub mod server;

pub use cache::ResultCache;
pub use hash::{canonical_hash, hash_hex, parse_hash_hex};
pub use http::{http_request, Response};
pub use lifecycle::{LifeRecord, LifecycleTrace, Stage, DEFAULT_TRACE_CAP};
pub use request::{
    find_network, SimRequest, DEFAULT_FAULT_ITERS, DEFAULT_FAULT_SEED, MAX_FAULT_ITERS,
};
pub use result::SimResult;
pub use runner::{run_request, run_request_with};
pub use server::{JobStatus, ServeConfig, Server, ShutdownReport};
