//! Concurrent snapshot-serving tier.
//!
//! `vaengine serve` turns one immutable engine snapshot into a
//! long-lived query service: a zero-dependency HTTP/1.1 server over
//! `std::net::TcpListener` answering the engine's six query kinds
//! (`/term`, `/query`, `/search`, `/cluster`, `/rect`, `/similar`) as
//! deterministic JSON, plus `/healthz`, `/metrics` (JSON, or Prometheus
//! text via
//! `?format=prom`), and `/debug/slow` (the worst-N request timelines,
//! JSON or Chrome-trace via `?format=chrome`).
//!
//! The crate splits along the obvious seams:
//!
//! - [`state`] — [`state::ServeState`]: a `Send + Sync` view over
//!   the snapshot's scan/index/output sections, or over an ingest
//!   directory's merged base + segments ([`state::load_live_state`]),
//!   implementing the core [`inspire_core::query::SearchIndex`] trait so
//!   served answers run the exact algorithms the CLI runs.
//! - [`request`] — typed routes, cache keys, and the shared
//!   [`request::execute`] renderer both front ends use, which is what
//!   makes served bodies byte-identical to `vaengine query --json`.
//! - [`lru`] — the fixed-capacity result cache with hit/miss/eviction
//!   counters surfaced at `/metrics`.
//! - [`http`] — hand-rolled request parsing (total, never panics, hard
//!   head limits), response writing, and a tiny blocking client.
//! - [`server`] — accept thread, bounded queue with 429 backpressure,
//!   a fixed set of worker threads, graceful drain on shutdown,
//!   and hot state swaps ([`server::Server::swap_state`]) for ingest
//!   generation flips.

pub mod http;
pub mod lru;
pub mod request;
pub mod server;
pub mod state;

pub use lru::{CacheStats, LruCache};
pub use request::{execute, execute_timed, ExecTiming, RequestError, ServeRequest};
pub use server::{ServeConfig, ServeSummary, Server};
pub use state::{load_live_state, ServeState};
