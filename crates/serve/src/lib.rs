//! Optimization-as-a-service: the long-lived serving mode behind
//! `pdce serve`.
//!
//! The batch CLI pays the full startup + parse + solve cost on every
//! invocation. This crate turns that into a daemon that answers
//! newline-delimited JSON requests over stdio, TCP, or a Unix socket:
//!
//! ```text
//! → {"id":"r1","op":"optimize","program":"prog { ... }","mode":"pde"}
//! ← {"id":"r1","status":0,"program":"prog { ... }","rounds":2,...}
//! ```
//!
//! Three properties carry over from the batch pipeline by construction:
//!
//! - **The exit-code taxonomy becomes per-request status codes.** A
//!   response's `status` field is 0 (served), 1 (bad request — exactly
//!   what the CLI would reject with exit 1), or 2 (internal error —
//!   the CLI's exit 2). One malformed line never takes down the loop.
//! - **Budgets become admission control.** The server's
//!   `--wall-ms`/`--max-pops`/`--max-rounds` caps bound every request;
//!   a request may lower them for itself but never raise them. A
//!   budget trip degrades that request down the PR 5 resilience ladder
//!   (the rung is reported in the response) instead of stalling peers.
//! - **Determinism becomes cacheability.** Because optimized output is
//!   byte-stable across worker count and cache temperature, a response can be cached by content hash and replayed
//!   verbatim: warm responses are byte-identical to cold ones, which
//!   the test suite asserts literally.
//!
//! Module map: [`protocol`] (wire format), [`cache`] (persistent
//! content-hash-keyed result cache with LRU eviction and
//! corruption-tolerant reload), [`server`] (the serving loop:
//! admission, adaptive batching over the `pdce-par` pool, transports,
//! drain-on-shutdown).

pub mod cache;
pub mod protocol;
pub mod quarantine;
pub mod server;
pub mod wal;

pub use cache::{CacheKey, LoadReport, PersistentCache};
pub use protocol::{Mode, Op, Request, ResultPayload, Status};
pub use quarantine::Quarantine;
pub use server::{ServeOptions, ServeSummary, Server};
