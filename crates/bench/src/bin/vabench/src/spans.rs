//! The benchmark's own span recorder (traced runs only).
//!
//! Spans are recorded from the benchmark's files, around its calls into
//! each layer's public functions; nothing is added inside the program.
//! They stay in memory until the workload ends, then become per-layer
//! numbers (durations by span name) and one Chrome trace-event file per
//! workload, each event carrying its self time.

use std::time::Instant;

/// One closed span. `parent` indexes into the same recorder; spans of
/// one request share `req`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub req: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A single-threaded recorder; each benchmark thread owns one and the
/// lanes are merged when the trace is written.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// All recorders of one run share `origin` so their lanes line up.
    pub fn new(origin: Instant) -> Recorder {
        Recorder {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, child of whatever span is
    /// open on this recorder.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        req: u64,
        f: impl FnOnce(&mut Recorder) -> R,
    ) -> R {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            req,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Lay `parts` (name, nanoseconds) back to back from the start of
    /// the open span, as its children. This is how a duration the public
    /// API *returns* (an `ExecTiming`, an `AppendStats`) enters the trace
    /// without timing anything twice.
    pub fn split_open(&mut self, parts: &[(&'static str, u64)]) {
        let Some(&parent) = self.open.last() else {
            return;
        };
        let req = self.spans[parent].req;
        let mut at = self.spans[parent].start_ns;
        for &(name, ns) in parts {
            self.spans.push(Span {
                name,
                start_ns: at,
                end_ns: at + ns,
                parent: Some(parent),
                req,
            });
            at += ns;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations, in nanoseconds, of every span named `name`.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .collect()
    }
}

/// Run `f` inside a span when the run is traced (`rec` is some), bare
/// otherwise: end-to-end numbers are measured with tracing off.
pub fn step<R>(
    rec: &mut Option<Recorder>,
    name: &'static str,
    req: u64,
    f: impl FnOnce() -> R,
) -> R {
    match rec {
        Some(rec) => rec.span(name, req, |_| f()),
        None => f(),
    }
}

/// A span's self time: its duration minus the part of its interval its
/// direct children cover (children may overlap each other or run past
/// their parent's end; only covered parent time is subtracted).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = 0u64;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one complete
/// (`"X"`) event per span, one thread lane per recorder.
pub fn chrome_json(lanes: &[(&str, &Recorder)]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    let mut push = |event: String| {
        if !std::mem::take(&mut first) {
            out.push(',');
        }
        out.push_str(&event);
    };
    for (tid, (lane, rec)) in lanes.iter().enumerate() {
        push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\
             \"args\":{{\"name\":\"{}\"}}}}",
            inspire_trace::json::escape(lane)
        ));
        let own = self_times(&rec.spans);
        for (id, (s, self_ns)) in rec.spans.iter().zip(own).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            push(format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{id},\"parent\":{parent},\"req\":{},\"self_us\":{:.3}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.req,
                self_ns as f64 / 1e3
            ));
        }
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "s",
            start_ns,
            end_ns,
            parent,
            req: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        let spans = vec![
            span(0, 100, None),    // root: children cover 10..40 and 50..90
            span(10, 40, Some(0)), // sibling a, with its own child
            span(50, 90, Some(0)), // sibling b
            span(15, 25, Some(1)), // grandchild: subtracts from a, not root
            span(200, 260, None),  // second root, no children
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 40, 10, 60]);
    }

    #[test]
    fn self_time_counts_overlapping_children_once_and_clips_to_the_parent() {
        let spans = vec![
            span(0, 100, None),
            span(10, 60, Some(0)),
            span(40, 80, Some(0)),  // overlaps the first child on 40..60
            span(90, 130, Some(0)), // runs past the parent's end
        ];
        // covered: 10..80 (70) + 90..100 (10)
        assert_eq!(self_times(&spans)[0], 20);
    }

    #[test]
    fn recorder_nests_spans_and_splits_returned_timings() {
        let mut rec = Recorder::new(Instant::now());
        rec.span("request", 7, |rec| {
            rec.span("execute", 7, |rec| {
                rec.split_open(&[("eval", 30), ("serialize", 12)]);
            });
        });
        let names: Vec<_> = rec
            .spans()
            .iter()
            .map(|s| (s.name, s.parent, s.req))
            .collect();
        assert_eq!(
            names,
            vec![
                ("request", None, 7),
                ("execute", Some(0), 7),
                ("eval", Some(1), 7),
                ("serialize", Some(1), 7)
            ]
        );
        let (eval, ser) = (&rec.spans()[2], &rec.spans()[3]);
        assert_eq!(eval.start_ns, rec.spans()[1].start_ns);
        assert_eq!(ser.start_ns, eval.end_ns);
        assert_eq!(rec.durations_ns("serialize"), vec![12.0]);
        assert!(rec.spans()[0].end_ns >= rec.spans()[1].end_ns);
    }

    #[test]
    fn chrome_export_is_loadable_json_with_one_event_per_span() {
        let mut rec = Recorder::new(Instant::now());
        rec.span("a", 1, |rec| rec.span("b", 1, |_| ()));
        let json = chrome_json(&[("replay", &rec)]);
        let doc = inspire_trace::json::parse(&json).expect("valid JSON");
        let events = doc.get("traceEvents").and_then(|e| e.as_arr()).unwrap();
        assert_eq!(events.len(), 3, "thread name + two spans");
        assert_eq!(events[2].get("name").and_then(|n| n.as_str()), Some("b"));
        let parent = events[2].get("args").and_then(|a| a.get("parent"));
        assert_eq!(parent.and_then(|p| p.as_f64()), Some(0.0));
    }
}
