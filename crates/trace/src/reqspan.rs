//! Request-scoped span timelines and the slow-query ring.
//!
//! The [`span`](crate::span) recorder is per-rank and SPMD-oriented: one
//! ring per rank, drained after a batch run. A serving tier needs the
//! opposite shape — many short-lived timelines, one per request, built
//! concurrently on worker threads and retained only when interesting —
//! over the same [`Span`] record:
//!
//! * [`ReqTrace`] — a tiny single-request builder. Stages are contiguous
//!   by construction (`begin` closes the previous stage) and measured on
//!   the host wall clock in microseconds from the request's first byte.
//! * [`ReqTimeline`] — the finished record: request id, route, status,
//!   cache hit/miss, live-view generation, bytes, and the stage spans.
//!   Renders as a JSON object or a one-line structured access-log entry.
//! * [`SlowLog`] — a thread-safe keep-N-worst ring. Admission is a
//!   lock-free floor check ([`SlowLog::would_admit`]), so the fast path
//!   for an unremarkable request is two atomic loads and no lock. Its
//!   Chrome export is one lane per request through the one writer,
//!   `chrome::write_trace`.
//!
//! Nothing here charges virtual time or perturbs results: timelines are
//! observational and the served bytes are identical with or without them.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::chrome::{self, Lane};
use crate::json;
use crate::span::Span;

/// A finished per-request timeline.
#[derive(Debug, Clone)]
pub struct ReqTimeline {
    /// Process-unique request id (from the accept loop's counter).
    pub id: u64,
    /// Route path, e.g. `/query`.
    pub route: String,
    /// Full request target, e.g. `/query?q=a+AND+b&top=10`.
    pub detail: String,
    /// HTTP status the request was answered with.
    pub status: u16,
    /// Whether the result cache answered it.
    pub cache_hit: bool,
    /// Live-view generation of the state the request executed against.
    pub generation: u64,
    /// Serving epoch (bumped by every hot swap) at execution time.
    pub epoch: u64,
    /// Response body bytes.
    pub bytes: u64,
    /// Wall time from first byte to response ready, microseconds.
    pub total_us: u64,
    /// Stage spans in start order, whole microseconds since request start.
    pub spans: Vec<Span>,
}

impl ReqTimeline {
    /// `(stage, summed micros)` in first-seen order.
    pub fn stages_us(&self) -> Vec<(&'static str, u64)> {
        let mut out: Vec<(&'static str, u64)> = Vec::with_capacity(self.spans.len());
        for s in &self.spans {
            let us = s.dur_us as u64;
            match out.iter_mut().find(|(n, _)| *n == s.name) {
                Some((_, d)) => *d += us,
                None => out.push((s.name, us)),
            }
        }
        out
    }

    fn stages_json(&self) -> String {
        let mut s = String::from("{");
        for (i, (name, us)) in self.stages_us().iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("\"{}\":{us}", json::escape(name)));
        }
        s.push('}');
        s
    }

    /// Full JSON object including the span list (the `/debug/slow` shape).
    pub fn to_json(&self) -> String {
        let mut s = self.access_line();
        s.pop(); // reopen the access line's object for the span list
        s.push_str(",\"spans\":[");
        for (i, sp) in self.spans.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"name\":\"{}\",\"start_us\":{},\"dur_us\":{}}}",
                json::escape(sp.name),
                sp.start_us as u64,
                sp.dur_us as u64
            ));
        }
        s.push_str("]}");
        s
    }

    /// One structured access-log line (no trailing newline): the same
    /// fields as [`to_json`](Self::to_json) with stages flattened to a
    /// `name → micros` object and the span list dropped.
    pub fn access_line(&self) -> String {
        format!(
            "{{\"id\":{},\"route\":\"{}\",\"detail\":\"{}\",\"status\":{},\
             \"cache_hit\":{},\"generation\":{},\"epoch\":{},\"bytes\":{},\
             \"total_us\":{},\"stages\":{}}}",
            self.id,
            json::escape(&self.route),
            json::escape(&self.detail),
            self.status,
            self.cache_hit,
            self.generation,
            self.epoch,
            self.bytes,
            self.total_us,
            self.stages_json()
        )
    }

    /// This request as a trace lane: an enclosing `request` span carrying
    /// the request's fields, then one span per stage.
    fn lane(&self, tid: usize) -> Lane {
        let request = Span {
            cat: "request",
            name: "request",
            start_us: 0.0,
            dur_us: self.total_us as f64,
        };
        let args = format!(
            "\"id\":{},\"status\":{},\"cache_hit\":{},\"generation\":{},\"epoch\":{},\"bytes\":{}",
            self.id, self.status, self.cache_hit, self.generation, self.epoch, self.bytes
        );
        let stages = self.spans.iter().map(|s| (*s, String::new()));
        Lane {
            tid,
            name: format!("req {} {} ({}us)", self.id, self.detail, self.total_us),
            spans: std::iter::once((request, args)).chain(stages).collect(),
        }
    }
}

/// Single-request timeline builder. Cheap: one `Instant` plus one small
/// `Vec`; all timestamps are whole microseconds since construction.
#[derive(Debug)]
pub struct ReqTrace {
    t0: Instant,
    open: Option<(&'static str, u64)>,
    spans: Vec<Span>,
}

impl Default for ReqTrace {
    fn default() -> Self {
        Self::start()
    }
}

impl ReqTrace {
    pub fn start() -> Self {
        ReqTrace {
            t0: Instant::now(),
            open: None,
            // parse, cache_probe, postings_decode, rank_merge, serialize
            spans: Vec::with_capacity(5),
        }
    }

    /// Microseconds since the request started.
    pub fn mark(&self) -> u64 {
        (self.t0.elapsed().as_nanos() / 1_000).min(u64::MAX as u128) as u64
    }

    /// Open stage `name`, closing the currently open stage first —
    /// stages are contiguous by construction.
    pub fn begin(&mut self, name: &'static str) {
        self.end();
        self.open = Some((name, self.mark()));
    }

    /// Close the currently open stage, if any.
    pub fn end(&mut self) {
        if let Some((name, start)) = self.open.take() {
            let now = self.mark();
            self.push_span(name, start, now.saturating_sub(start));
        }
    }

    /// Record a stage measured externally (e.g. decode time attributed
    /// from inside query evaluation). Callers must push in start order.
    pub fn push_span(&mut self, name: &'static str, start_us: u64, dur_us: u64) {
        self.spans.push(Span {
            cat: "stage",
            name,
            start_us: start_us as f64,
            dur_us: dur_us as f64,
        });
    }

    /// Close any open stage and return `(spans, total_us)`.
    pub fn finish(mut self) -> (Vec<Span>, u64) {
        self.end();
        let total = self.mark();
        (self.spans, total)
    }
}

/// Thread-safe keep-N-worst ring of request timelines.
///
/// `threshold_us` is the static admission bar; once the ring is full the
/// bar rises to "worse than the current N-th worst" and is published in
/// `floor_us` so the hot path can reject without locking.
pub struct SlowLog {
    cap: usize,
    threshold_us: u64,
    floor_us: AtomicU64,
    ring: Mutex<Vec<ReqTimeline>>,
}

impl SlowLog {
    pub fn new(cap: usize, threshold_us: u64) -> Self {
        SlowLog {
            cap: cap.max(1),
            threshold_us,
            floor_us: AtomicU64::new(threshold_us),
            ring: Mutex::new(Vec::new()),
        }
    }

    pub fn capacity(&self) -> usize {
        self.cap
    }

    pub fn threshold_us(&self) -> u64 {
        self.threshold_us
    }

    /// Lock-free pre-check: would a request of `total_us` be retained?
    /// False means "definitely not" — the caller can skip building the
    /// timeline's retained copy without taking the ring lock.
    pub fn would_admit(&self, total_us: u64) -> bool {
        total_us >= self.floor_us.load(Ordering::Relaxed)
    }

    /// Offer a timeline; keeps the worst `cap` by `total_us`.
    pub fn offer(&self, t: ReqTimeline) {
        if t.total_us < self.threshold_us {
            return;
        }
        let mut ring = self.ring.lock().unwrap();
        if ring.len() < self.cap {
            ring.push(t);
        } else {
            let (mi, _) = ring
                .iter()
                .enumerate()
                .min_by_key(|(_, r)| r.total_us)
                .expect("ring non-empty at capacity");
            if t.total_us <= ring[mi].total_us {
                return;
            }
            ring[mi] = t;
        }
        if ring.len() == self.cap {
            let min = ring.iter().map(|r| r.total_us).min().unwrap_or(0);
            // Full ring: admission now requires beating the N-th worst.
            self.floor_us.store(
                min.saturating_add(1).max(self.threshold_us),
                Ordering::Relaxed,
            );
        }
    }

    pub fn len(&self) -> usize {
        self.ring.lock().unwrap().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Retained timelines, worst first.
    pub fn snapshot(&self) -> Vec<ReqTimeline> {
        let mut v = self.ring.lock().unwrap().clone();
        v.sort_by(|a, b| b.total_us.cmp(&a.total_us).then(a.id.cmp(&b.id)));
        v
    }

    /// The `/debug/slow` JSON document.
    pub fn to_json(&self) -> String {
        let snap = self.snapshot();
        let mut s = format!(
            "{{\"retained\":{},\"capacity\":{},\"threshold_us\":{},\"slow\":[",
            snap.len(),
            self.cap,
            self.threshold_us
        );
        for (i, t) in snap.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&t.to_json());
        }
        s.push_str("]}\n");
        s
    }

    /// The `/debug/slow?format=chrome` document: one lane per retained
    /// request, worst first.
    pub fn to_chrome_json(&self) -> String {
        let snap = self.snapshot();
        let lanes = snap.iter().enumerate().map(|(tid, t)| t.lane(tid));
        let other = format!("\"clock\":\"request_us\",\"requests\":{}", snap.len());
        chrome::write_trace(lanes.collect(), &other)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chrome::validate_chrome_json;

    fn stage(name: &'static str, start_us: u64, dur_us: u64) -> Span {
        Span {
            cat: "stage",
            name,
            start_us: start_us as f64,
            dur_us: dur_us as f64,
        }
    }

    fn tl(id: u64, total_us: u64) -> ReqTimeline {
        ReqTimeline {
            id,
            route: "/query".into(),
            detail: format!("/query?q=t{id}"),
            status: 200,
            cache_hit: false,
            generation: 3,
            epoch: 1,
            bytes: 42,
            total_us,
            spans: vec![
                stage("parse", 0, total_us / 4),
                stage("serialize", total_us / 4, total_us - total_us / 4),
            ],
        }
    }

    #[test]
    fn builder_produces_contiguous_spans() {
        let mut tr = ReqTrace::start();
        tr.begin("parse");
        tr.begin("cache_probe"); // closes parse
        std::thread::sleep(std::time::Duration::from_millis(1));
        let (spans, total) = tr.finish();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "parse");
        assert_eq!(spans[1].name, "cache_probe");
        assert_eq!(spans[1].start_us, spans[0].start_us + spans[0].dur_us);
        assert!(spans[1].dur_us >= 1_000.0, "slept 1ms inside cache_probe");
        assert!(total as f64 >= spans[1].start_us + spans[1].dur_us);
    }

    /// (c) A fixed timeline renders to exactly the bytes the parent
    /// (the `ReqSpan` recorder) wrote for it: literals copied from its
    /// output, escapes and a repeated stage included.
    #[test]
    fn slow_json_and_access_line_bytes_are_the_parents() {
        let t = ReqTimeline {
            id: 7,
            route: "/query".into(),
            detail: "/query?q=a+AND+\"b\"\\c".into(),
            status: 200,
            cache_hit: false,
            generation: 3,
            epoch: 1,
            bytes: 42,
            total_us: 1234,
            spans: vec![
                stage("parse", 0, 12),
                stage("cache_probe", 12, 3),
                stage("postings_decode", 20, 400),
                stage("rank_merge", 420, 600),
                stage("serialize", 1020, 200),
                stage("postings_decode", 1220, 5),
            ],
        };
        const FIELDS: &str = r#"{"id":7,"route":"/query","detail":"/query?q=a+AND+\"b\"\\c","status":200,"cache_hit":false,"generation":3,"epoch":1,"bytes":42,"total_us":1234,"stages":{"parse":12,"cache_probe":3,"postings_decode":405,"rank_merge":600,"serialize":200}"#;
        const SPANS: &str = r#""spans":[{"name":"parse","start_us":0,"dur_us":12},{"name":"cache_probe","start_us":12,"dur_us":3},{"name":"postings_decode","start_us":20,"dur_us":400},{"name":"rank_merge","start_us":420,"dur_us":600},{"name":"serialize","start_us":1020,"dur_us":200},{"name":"postings_decode","start_us":1220,"dur_us":5}]"#;
        assert_eq!(t.access_line(), format!("{FIELDS}}}"));
        let log = SlowLog::new(4, 0);
        log.offer(t);
        assert_eq!(
            log.to_json(),
            format!(
                "{{\"retained\":1,\"capacity\":4,\"threshold_us\":0,\"slow\":[{FIELDS},{SPANS}}}]}}\n"
            )
        );
    }

    #[test]
    fn slow_log_keeps_n_worst() {
        let log = SlowLog::new(3, 0);
        for (id, us) in [(1, 50), (2, 500), (3, 10), (4, 300), (5, 700), (6, 5)] {
            if log.would_admit(us) {
                log.offer(tl(id, us));
            }
        }
        let snap = log.snapshot();
        let kept: Vec<u64> = snap.iter().map(|t| t.total_us).collect();
        assert_eq!(kept, vec![700, 500, 300]);
        // Once full, the lock-free floor rejects anything at-or-below min.
        assert!(!log.would_admit(300));
        assert!(log.would_admit(301));
    }

    #[test]
    fn slow_log_threshold_filters() {
        let log = SlowLog::new(8, 100);
        assert!(!log.would_admit(99));
        log.offer(tl(1, 99));
        log.offer(tl(2, 100));
        assert_eq!(log.len(), 1);
        assert_eq!(log.snapshot()[0].id, 2);
    }

    #[test]
    fn chrome_export_validates_and_keeps_request_fields() {
        let log = SlowLog::new(4, 0);
        log.offer(tl(1, 1000));
        log.offer(tl(2, 2000));
        let doc = log.to_chrome_json();
        let sum = validate_chrome_json(&doc).expect("slow-log chrome trace validates");
        assert_eq!(sum.lanes, 2);
        // One enclosing request span + two stage spans per lane.
        assert_eq!(sum.spans, 6);
        let v = crate::json::parse(&doc).unwrap();
        let events = v.get("traceEvents").and_then(|e| e.as_arr()).unwrap();
        let request = events
            .iter()
            .find(|e| e.get("name").and_then(|n| n.as_str()) == Some("request"))
            .and_then(|e| e.get("args"))
            .unwrap();
        for (key, want) in [
            ("id", 2.0),
            ("status", 200.0),
            ("generation", 3.0),
            ("epoch", 1.0),
            ("bytes", 42.0),
        ] {
            assert_eq!(
                request.get(key).and_then(|x| x.as_f64()),
                Some(want),
                "{key}"
            );
        }
        assert_eq!(
            request.get("cache_hit"),
            Some(&crate::json::Value::Bool(false))
        );
    }
}
