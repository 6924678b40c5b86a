//! # inspire-trace — observability for the engine
//!
//! The paper's entire evaluation is observational: Figures 6b/7b report
//! per-component time shares, Figure 8 per-component speedups, Figure 9
//! per-rank load balance. This crate is the instrumentation layer that
//! makes such measurements first-class in every run instead of something
//! only the bench harness reconstructs:
//!
//! * [`log`] — a leveled, rank-prefixed structured logger
//!   (`INSPIRE_LOG=error|warn|info|debug`) replacing ad-hoc `eprintln!`
//!   warnings, so `P>1` runs don't interleave unattributed lines.
//! * [`span`] — the one span record, [`Span`] (category, name, start
//!   and duration in µs, always complete), and the per-rank ring that
//!   records it on the SPMD **virtual** clock, each span stamped with
//!   host wall time; recording is off by default and a single branch
//!   when off.
//! * [`reqspan`] — the same record on request lanes: per-request stage
//!   timelines built concurrently on serving workers, a structured
//!   access-log line format, and a thread-safe keep-N-worst slow-query
//!   ring.
//! * [`chrome`] — the one Chrome trace-event writer (`chrome://tracing`,
//!   Perfetto; `ph: "X"` complete events, one lane per rank or per
//!   request) and the validator that checks its output nests.
//! * [`metrics`] — log-bucketed latency histograms (p50/p95/p99 with
//!   bounded relative error) behind a string-keyed registry, used by the
//!   serving path and the ingest sidecar; renders as Prometheus text
//!   exposition and persists at bucket fidelity.
//! * [`report`] — the structured run report: a pretty table for stderr
//!   plus a machine-readable JSON artifact, covering per-stage wall and
//!   virtual time, communication totals, per-stage load imbalance, and
//!   critical-path shares.
//! * [`json`] — the minimal JSON writer/parser the exporters share
//!   (no external dependencies anywhere in this crate).
//!
//! Nothing in this crate advances a virtual clock or charges work:
//! engine output is bit-identical with tracing enabled or disabled.

pub mod chrome;
pub mod json;
pub mod log;
pub mod metrics;
pub mod report;
pub mod reqspan;
pub mod span;

pub use log::Level;
pub use metrics::{Histogram, HistogramSummary, Registry};
pub use report::{RunReport, StageRow};
pub use reqspan::{ReqTimeline, ReqTrace, SlowLog};
pub use span::{RankTrace, Span, SpanRecorder};
