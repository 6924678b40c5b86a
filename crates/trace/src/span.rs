//! The span record and the per-rank recorder.
//!
//! Every lane of every trace this workspace exports — a rank's stages,
//! collectives and task-queue work, a request's serving stages — is a
//! list of [`Span`]s: complete intervals, recorded once they close.
//!
//! A [`SpanRecorder`] is owned by one rank (it is deliberately not
//! `Sync`, like the rank's clock) and keeps its spans in a bounded ring:
//! when the buffer is full the **oldest** span is dropped and counted,
//! so a run can never exhaust memory by tracing. The ring only ever
//! holds finished spans, so truncation can drop a span but never split
//! one. A rank span is timed on the SPMD virtual clock (the time axis
//! the exported trace uses) and stamped with the host wall clock at its
//! close, microseconds since the runtime's epoch, for correlating with
//! real execution.
//!
//! Recording is a single branch when disabled and never touches the
//! virtual clock, so engine output is bit-identical with tracing on or
//! off.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::time::Instant;

/// Per-rank ring capacity, in spans.
pub const CAPACITY: usize = 1 << 16;

/// One complete span. `cat` and `name` are `&'static str` so recording
/// never allocates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Category: `"stage"`, `"collective"`, `"queue"`, `"request"`.
    pub cat: &'static str,
    /// Stage label, collective name, `"task.steal"`, …
    pub name: &'static str,
    /// Start on the lane's clock, microseconds.
    pub start_us: f64,
    /// Length on the same clock, microseconds; 0 for a point such as a
    /// steal.
    pub dur_us: f64,
}

/// The ring-buffered recorder one rank writes into.
pub struct SpanRecorder {
    enabled: bool,
    epoch: Instant,
    capacity: usize,
    /// Spans with their wall stamp, in close order.
    buf: RefCell<VecDeque<(Span, f64)>>,
    dropped: Cell<u64>,
}

impl SpanRecorder {
    /// A recorder that records nothing; [`SpanRecorder::record`] is a
    /// single branch.
    pub fn disabled() -> Self {
        SpanRecorder {
            enabled: false,
            epoch: Instant::now(),
            capacity: 0,
            buf: RefCell::new(VecDeque::new()),
            dropped: Cell::new(0),
        }
    }

    /// An enabled recorder keeping at most `capacity` spans. `epoch`
    /// should be shared by all ranks of one run so wall stamps align
    /// across lanes.
    pub fn enabled_with(epoch: Instant, capacity: usize) -> Self {
        let capacity = capacity.max(16);
        SpanRecorder {
            enabled: true,
            epoch,
            capacity,
            buf: RefCell::new(VecDeque::with_capacity(capacity.min(4096))),
            dropped: Cell::new(0),
        }
    }

    /// Is this recorder collecting spans?
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Record the span `[start, end]`, both in virtual seconds. A no-op
    /// when disabled.
    #[inline]
    pub fn record(&self, cat: &'static str, name: &'static str, start: f64, end: f64) {
        if !self.enabled {
            return;
        }
        let wall_us = self.epoch.elapsed().as_secs_f64() * 1e6;
        let (start_us, end_us) = (start * 1e6, end * 1e6);
        let span = Span {
            cat,
            name,
            start_us,
            dur_us: end_us - start_us,
        };
        let mut buf = self.buf.borrow_mut();
        if buf.len() == self.capacity {
            buf.pop_front();
            self.dropped.set(self.dropped.get() + 1);
        }
        buf.push_back((span, wall_us));
    }

    /// Drain the buffer into a sendable per-rank trace.
    pub fn take(&self, rank: usize) -> RankTrace {
        let (spans, wall_us) = self.buf.borrow_mut().drain(..).unzip();
        RankTrace {
            rank,
            spans,
            wall_us,
            dropped: self.dropped.replace(0),
        }
    }
}

/// One rank's recorded spans, in close order, safe to send across
/// threads once the run is over.
#[derive(Debug, Clone, Default)]
pub struct RankTrace {
    pub rank: usize,
    pub spans: Vec<Span>,
    /// Host wall clock at each span's close, microseconds since the
    /// run's epoch (parallel to `spans`).
    pub wall_us: Vec<f64>,
    /// Oldest spans overwritten by the ring while recording.
    pub dropped: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_records_nothing() {
        let r = SpanRecorder::disabled();
        r.record("stage", "scan", 0.0, 1.0);
        assert!(r.take(0).spans.is_empty());
    }

    #[test]
    fn records_complete_spans_in_close_order() {
        let r = SpanRecorder::enabled_with(Instant::now(), 64);
        r.record("collective", "barrier", 0.75, 1.0);
        r.record("stage", "scan", 0.5, 1.25);
        let t = r.take(2);
        assert_eq!(t.rank, 2);
        assert_eq!(t.dropped, 0);
        let names: Vec<_> = t.spans.iter().map(|s| s.name).collect();
        assert_eq!(names, vec!["barrier", "scan"]);
        assert_eq!(t.spans[1].start_us, 0.5e6);
        assert_eq!(t.spans[1].dur_us, 0.75e6);
        // Wall stamps are monotone in record order.
        assert!(t.wall_us[0] <= t.wall_us[1]);
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let r = SpanRecorder::enabled_with(Instant::now(), 16);
        for i in 0..40 {
            r.record("queue", "task.steal", i as f64, i as f64);
        }
        let t = r.take(0);
        assert_eq!((t.spans.len(), t.wall_us.len()), (16, 16));
        assert_eq!(t.dropped, 24);
        // The survivors are the newest 16.
        assert_eq!(t.spans[0].start_us, 24.0e6);
        assert_eq!(t.spans[15].start_us, 39.0e6);
    }

    #[test]
    fn take_resets_the_buffer() {
        let r = SpanRecorder::enabled_with(Instant::now(), 64);
        r.record("stage", "scan", 1.0, 1.0);
        assert_eq!(r.take(0).spans.len(), 1);
        let again = r.take(0);
        assert!(again.spans.is_empty());
        assert_eq!(again.dropped, 0);
    }
}
