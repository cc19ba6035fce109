//! `diffcode serve`: a resident mining/checking service.
//!
//! One-shot `diffcode mine` pays cold-start on every invocation:
//! process spawn, cache open, first-touch of every interning table.
//! This crate keeps all of that hot in one process behind a std-only
//! HTTP/1.1 server — no async runtime, no TLS, no dependencies — and
//! wraps it in a full robustness envelope:
//!
//! - **Deadlines**: every request read races a per-request deadline
//!   (`http`), and `/mine`, `/mine-repo` and `/check` stop before their
//!   next code change or file once it has passed; each one is bounded
//!   by the pipeline's own fuel budgets, so a 10 MB "Java file" or
//!   pathological nesting quarantines the change, never the worker.
//! - **Bounded admission**: a fixed queue with load shedding — past the
//!   watermark, clients get `429` + `Retry-After` instead of latency.
//! - **Panic isolation**: `catch_unwind` per request; a handler panic
//!   is a `500` with quarantine provenance and a surviving worker.
//! - **Graceful shutdown**: SIGTERM/Ctrl-C stops accepting, drains
//!   in-flight work under a drain deadline, and flushes the mining
//!   cache's append log.
//! - **Exact accounting**: `accepted = completed + shed + failed` is an
//!   invariant checked by the soak harness and visible in
//!   `GET /metrics`.
//!
//! The endpoints and their semantics live in the `handlers` module;
//! the connection lifecycle in `server`, behind [`Server`].

#![warn(missing_docs)]

mod handlers;
mod http;
pub mod json;
mod ring;
mod server;

pub use http::HttpCaps;
pub use json::Json;
pub use server::{ServeConfig, ServeSummary, Server, ServerHandle};
