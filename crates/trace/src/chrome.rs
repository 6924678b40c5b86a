//! Chrome trace-event export: the one writer and its validator.
//!
//! `write_trace` renders lanes of [`Span`]s into the JSON Object
//! Format consumed by `chrome://tracing` and Perfetto: one process
//! (`pid: 0`), one thread lane per `tid`, every span a `ph: "X"`
//! complete event. Both traces this workspace exports go through it —
//! rank lanes from a batch run ([`to_chrome_json`], `--trace-out`; `ts`
//! on the SPMD virtual clock, each span's host wall stamp in
//! `args.wall_us`) and request lanes from the slow-query ring
//! ([`crate::SlowLog::to_chrome_json`], `/debug/slow?format=chrome`).
//! Spans are complete when recorded, so there is nothing to repair.

use crate::json::{self, Value};
use crate::span::{RankTrace, Span};

/// One `tid` lane of a trace document: its display name and its spans,
/// each with the members of its `args` object (`""` for none).
pub(crate) struct Lane {
    pub tid: usize,
    pub name: String,
    pub spans: Vec<(Span, String)>,
}

/// Render `lanes` as a complete Chrome trace-event document: per lane a
/// `thread_name` record, then its spans in start order, an enclosing
/// span before those it contains. `other` holds the members of
/// `otherData`.
pub(crate) fn write_trace(mut lanes: Vec<Lane>, other: &str) -> String {
    let mut events = Vec::new();
    for lane in &mut lanes {
        lane.spans.sort_by(|(a, _), (b, _)| {
            a.start_us
                .total_cmp(&b.start_us)
                .then(b.dur_us.total_cmp(&a.dur_us))
        });
        events.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{},\
             \"args\":{{\"name\":\"{}\"}}}}",
            lane.tid,
            json::escape(&lane.name)
        ));
        for (span, args) in &lane.spans {
            events.push(format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                 \"pid\":0,\"tid\":{},\"args\":{{{args}}}}}",
                json::escape(span.name),
                json::escape(span.cat),
                json::num(span.start_us),
                json::num(span.dur_us),
                lane.tid
            ));
        }
    }
    format!(
        "{{\"traceEvents\":[\n{}\n],\"displayTimeUnit\":\"ms\",\"otherData\":{{{other}}}}}\n",
        events.join(",\n")
    )
}

/// The trace of a batch run: one lane per rank.
pub fn to_chrome_json(traces: &[RankTrace]) -> String {
    let lanes = traces
        .iter()
        .map(|t| Lane {
            tid: t.rank,
            name: format!("rank {}", t.rank),
            spans: t
                .spans
                .iter()
                .zip(&t.wall_us)
                .map(|(s, w)| (*s, format!("\"wall_us\":{}", json::num(*w))))
                .collect(),
        })
        .collect();
    let dropped: u64 = traces.iter().map(|t| t.dropped).sum();
    write_trace(
        lanes,
        &format!(
            "\"clock\":\"virtual_us\",\"ranks\":{},\"dropped_events\":{dropped}",
            traces.len()
        ),
    )
}

/// What [`validate_chrome_json`] learned about a well-formed trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceSummary {
    /// Distinct `tid` lanes seen.
    pub lanes: usize,
    /// Total `X` events across all lanes.
    pub spans: usize,
}

/// Rounding room when comparing span ends: `ts + dur` re-adds two
/// printed floats, so it may land a few ulps off the recorded end.
fn slack(t: f64) -> f64 {
    1e-9 * t.abs().max(1.0)
}

/// Parse `s` as a Chrome trace-event document and check what
/// `write_trace` guarantees: `traceEvents` is an array of `M` and `X`
/// events; every `X` has a non-negative `dur`; per lane, `ts` is
/// non-decreasing and spans nest — each one ends no later than the
/// innermost span still open when it starts.
pub fn validate_chrome_json(s: &str) -> Result<TraceSummary, String> {
    let doc = json::parse(s)?;
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_arr)
        .ok_or("missing traceEvents array")?;
    // Per tid: the last `ts` and the ends of the spans still open.
    let mut lanes: std::collections::BTreeMap<i64, (f64, Vec<f64>)> = Default::default();
    let mut spans = 0;
    for (i, ev) in events.iter().enumerate() {
        match ev.get("ph").and_then(Value::as_str) {
            Some("M") => continue,
            Some("X") => {}
            other => return Err(format!("event {i}: ph {other:?} is not \"M\" or \"X\"")),
        }
        let num = |key: &str| {
            ev.get(key)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("event {i}: missing {key}"))
        };
        let (tid, ts, dur) = (num("tid")? as i64, num("ts")?, num("dur")?);
        let name = ev.get("name").and_then(Value::as_str).unwrap_or("");
        if dur < 0.0 {
            return Err(format!(
                "event {i} (tid {tid}): \"{name}\" has negative dur {dur}"
            ));
        }
        let (last_ts, open) = lanes.entry(tid).or_insert((f64::NEG_INFINITY, Vec::new()));
        if ts < *last_ts {
            return Err(format!(
                "event {i} (tid {tid}): ts {ts} < previous {last_ts} — not monotone"
            ));
        }
        *last_ts = ts;
        while open.last().is_some_and(|&end| end <= ts + slack(ts)) {
            open.pop();
        }
        let end = ts + dur;
        if let Some(&outer) = open.last() {
            if end > outer + slack(outer) {
                return Err(format!(
                    "event {i} (tid {tid}): \"{name}\" [{ts}, {end}] overlaps a span \
                     open until {outer} without nesting"
                ));
            }
        }
        open.push(end);
        spans += 1;
    }
    Ok(TraceSummary {
        lanes: lanes.len(),
        spans,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::SpanRecorder;
    use std::time::Instant;

    #[test]
    fn rank_lanes_export_complete_events_that_validate() {
        let r0 = SpanRecorder::enabled_with(Instant::now(), 64);
        r0.record("collective", "barrier", 10e-6, 15e-6);
        r0.record("stage", "scan", 0.0, 20e-6);
        let r1 = SpanRecorder::enabled_with(Instant::now(), 64);
        r1.record("queue", "task.steal", 5e-6, 5e-6);
        r1.record("stage", "scan", 0.0, 25e-6);
        let s = to_chrome_json(&[r0.take(0), r1.take(1)]);
        let sum = validate_chrome_json(&s).expect("valid trace");
        assert_eq!(sum, TraceSummary { lanes: 2, spans: 4 });
        // Start order: the enclosing stage precedes what it contains.
        assert!(s.find("\"scan\"").unwrap() < s.find("\"barrier\"").unwrap());
        assert!(s.contains("\"wall_us\":"));
        assert!(!s.contains("\"ph\":\"B\"") && !s.contains("\"ph\":\"E\""));
    }

    /// (a) A 16-span ring fed nested stage, collective and steal spans
    /// well past its capacity still exports a lane that validates — the
    /// truncation the export-time repair used to patch up.
    #[test]
    fn truncated_ring_exports_a_nesting_lane() {
        let r = SpanRecorder::enabled_with(Instant::now(), 16);
        let mut t = 0.0;
        for _stage in 0..10 {
            let stage_start = t;
            for _ in 0..3 {
                t += 1.0;
                r.record("queue", "task.steal", t, t);
                let entry = t;
                t += 2.0;
                r.record("collective", "barrier", entry, t);
            }
            t += 1.0;
            r.record("stage", "index", stage_start, t);
        }
        let trace = r.take(0);
        assert_eq!(trace.spans.len(), 16);
        assert_eq!(trace.dropped, 70 - 16);
        let s = to_chrome_json(&[trace]);
        let sum = validate_chrome_json(&s).expect("truncated lane validates");
        assert_eq!(
            sum,
            TraceSummary {
                lanes: 1,
                spans: 16
            }
        );
        let doc = json::parse(&s).unwrap();
        let other = doc.get("otherData").unwrap();
        assert_eq!(
            other.get("dropped_events").and_then(Value::as_f64),
            Some(54.0)
        );
    }

    /// (b) Two spans on one lane that overlap without nesting are refused.
    #[test]
    fn validator_rejects_overlap_without_nesting() {
        let crossing = r#"{"traceEvents":[
            {"name":"a","ph":"X","ts":1,"dur":2,"pid":0,"tid":0},
            {"name":"b","ph":"X","ts":2,"dur":2,"pid":0,"tid":0}
        ]}"#;
        assert!(validate_chrome_json(crossing)
            .unwrap_err()
            .contains("without nesting"));
        // The same spans on two lanes, or touching end to start, are fine.
        let apart = r#"{"traceEvents":[
            {"name":"a","ph":"X","ts":1,"dur":2,"pid":0,"tid":0},
            {"name":"b","ph":"X","ts":2,"dur":2,"pid":0,"tid":1},
            {"name":"c","ph":"X","ts":3,"dur":0,"pid":0,"tid":0},
            {"name":"d","ph":"X","ts":3,"dur":1,"pid":0,"tid":0}
        ]}"#;
        assert_eq!(
            validate_chrome_json(apart),
            Ok(TraceSummary { lanes: 2, spans: 4 })
        );
    }

    #[test]
    fn validator_rejects_time_travel_bad_dur_and_other_phases() {
        let bad_order = r#"{"traceEvents":[
            {"name":"a","ph":"X","ts":10,"dur":1,"pid":0,"tid":0},
            {"name":"b","ph":"X","ts":5,"dur":1,"pid":0,"tid":0}
        ]}"#;
        assert!(validate_chrome_json(bad_order)
            .unwrap_err()
            .contains("monotone"));
        let no_dur = r#"{"traceEvents":[{"name":"a","ph":"X","ts":0,"pid":0,"tid":0}]}"#;
        assert!(validate_chrome_json(no_dur)
            .unwrap_err()
            .contains("missing dur"));
        let neg_dur = r#"{"traceEvents":[{"name":"a","ph":"X","ts":0,"dur":-1,"pid":0,"tid":0}]}"#;
        assert!(validate_chrome_json(neg_dur)
            .unwrap_err()
            .contains("negative dur"));
        let begin = r#"{"traceEvents":[{"name":"a","ph": "B","ts":1,"pid":0,"tid":0}]}"#;
        assert!(validate_chrome_json(begin).unwrap_err().contains("is not"));
    }

    #[test]
    fn empty_trace_set_is_valid() {
        let s = to_chrome_json(&[]);
        let sum = validate_chrome_json(&s).unwrap();
        assert_eq!(sum, TraceSummary::default());
    }
}
