//! Query requests: route parsing, cache keys, and execution.
//!
//! A [`ServeRequest`] is the typed form of one query URL. The same
//! request type backs both front ends — the HTTP server routes
//! `GET /search?q=…` here, and `vaengine query --json` builds requests
//! from CLI flags — so both produce their response bodies from
//! [`execute`], and a served body is byte-identical to the single-shot
//! CLI body for the same query by construction.
//!
//! Bodies are deterministic JSON, one line, newline-terminated. Floats
//! render through [`inspire_trace::json::num`] (shortest round-trip
//! form), and every body is built from the query result alone — no
//! timestamps, no server identity — so identical queries against the
//! same snapshot always yield identical bytes (what the result cache
//! and the load generator's oracle check both rely on).

use crate::state::ServeState;
use inspire_core::interact::{select_cluster, select_rect};
use inspire_core::query::{self, Hit, Query, SearchIndex};
use inspire_trace::json::{escape, num};

/// One typed query, any of the six kinds the engine serves.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeRequest {
    /// Raw postings of one term: `/term?t=<term>`.
    Term { term: String, top: usize },
    /// Boolean retrieval: `/query?q=<expr>`.
    Boolean { expr: Query, top: usize },
    /// TF-IDF ranked retrieval: `/search?q=<text>`.
    Search { text: String, top: usize },
    /// Documents of one cluster: `/cluster?c=<id>`.
    Cluster { cluster: u32, top: usize },
    /// Documents inside a coordinate rectangle: `/rect?x0=&y0=&x1=&y1=`.
    Rect {
        min: (f64, f64),
        max: (f64, f64),
        top: usize,
    },
    /// IVF similarity search: `/similar?doc=<id>` or
    /// `/similar?text=<free text>`, optional `nprobe=`.
    Similar {
        doc: Option<u32>,
        text: Option<String>,
        top: usize,
        nprobe: usize,
    },
}

/// A client error: HTTP status plus a message for the JSON error body.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestError {
    pub status: u16,
    pub message: String,
}

impl RequestError {
    pub fn bad(message: impl Into<String>) -> Self {
        RequestError {
            status: 400,
            message: message.into(),
        }
    }
}

/// Default and maximum `top` (result rows per response).
pub const DEFAULT_TOP: usize = 10;
pub const MAX_TOP: usize = 10_000;

/// Default `nprobe` for `/similar` (clamped to the centroid count at
/// search time, so small snapshots effectively scan exhaustively).
pub const DEFAULT_NPROBE: usize = 8;

/// Decode `%XX` escapes and `+`-as-space in a URL query component.
pub fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => out.push(b' '),
            b'%' if i + 2 < bytes.len() => {
                let hex = |b: u8| -> Option<u8> {
                    match b {
                        b'0'..=b'9' => Some(b - b'0'),
                        b'a'..=b'f' => Some(b - b'a' + 10),
                        b'A'..=b'F' => Some(b - b'A' + 10),
                        _ => None,
                    }
                };
                match (hex(bytes[i + 1]), hex(bytes[i + 2])) {
                    (Some(h), Some(l)) => {
                        out.push(h << 4 | l);
                        i += 2;
                    }
                    _ => out.push(b'%'),
                }
            }
            b => out.push(b),
        }
        i += 1;
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Split a request target into `(path, decoded query params)`.
pub fn split_target(target: &str) -> (&str, Vec<(String, String)>) {
    let (path, qs) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let params = qs
        .split('&')
        .filter(|kv| !kv.is_empty())
        .map(|kv| match kv.split_once('=') {
            Some((k, v)) => (percent_decode(k), percent_decode(v)),
            None => (percent_decode(kv), String::new()),
        })
        .collect();
    (path, params)
}

fn param<'a>(params: &'a [(String, String)], key: &str) -> Option<&'a str> {
    params
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v.as_str())
}

fn parse_top(params: &[(String, String)]) -> Result<usize, RequestError> {
    match param(params, "top") {
        None => Ok(DEFAULT_TOP),
        Some(v) => v
            .parse::<usize>()
            .ok()
            .filter(|n| (1..=MAX_TOP).contains(n))
            .ok_or_else(|| RequestError::bad(format!("bad top={v:?} (1..={MAX_TOP})"))),
    }
}

fn parse_f64(params: &[(String, String)], key: &str) -> Result<f64, RequestError> {
    let v = param(params, key).ok_or_else(|| RequestError::bad(format!("missing {key}=")))?;
    v.parse::<f64>()
        .ok()
        .filter(|x| x.is_finite())
        .ok_or_else(|| RequestError::bad(format!("bad {key}={v:?}")))
}

impl ServeRequest {
    /// Parse a query route (`path` + decoded params) into a request.
    /// Returns `Err(404)` for unknown paths, `Err(400)` for bad params.
    pub fn parse(path: &str, params: &[(String, String)]) -> Result<ServeRequest, RequestError> {
        let top = parse_top(params)?;
        match path {
            "/term" => {
                let term = param(params, "t").ok_or_else(|| RequestError::bad("missing t="))?;
                if term.is_empty() {
                    return Err(RequestError::bad("empty t="));
                }
                Ok(ServeRequest::Term {
                    term: term.to_ascii_lowercase(),
                    top,
                })
            }
            "/query" => {
                let expr = param(params, "q").ok_or_else(|| RequestError::bad("missing q="))?;
                let parsed = Query::parse(expr)
                    .map_err(|e| RequestError::bad(format!("bad query {expr:?}: {e}")))?;
                Ok(ServeRequest::Boolean { expr: parsed, top })
            }
            "/search" => {
                let text = param(params, "q").ok_or_else(|| RequestError::bad("missing q="))?;
                if text.is_empty() {
                    return Err(RequestError::bad("empty q="));
                }
                Ok(ServeRequest::Search {
                    text: text.to_string(),
                    top,
                })
            }
            "/cluster" => {
                let c = param(params, "c").ok_or_else(|| RequestError::bad("missing c="))?;
                let cluster = c
                    .parse::<u32>()
                    .map_err(|_| RequestError::bad(format!("bad c={c:?}")))?;
                Ok(ServeRequest::Cluster { cluster, top })
            }
            "/rect" => {
                let x0 = parse_f64(params, "x0")?;
                let y0 = parse_f64(params, "y0")?;
                let x1 = parse_f64(params, "x1")?;
                let y1 = parse_f64(params, "y1")?;
                Ok(ServeRequest::Rect {
                    min: (x0.min(x1), y0.min(y1)),
                    max: (x0.max(x1), y0.max(y1)),
                    top,
                })
            }
            "/similar" => {
                let nprobe = match param(params, "nprobe") {
                    None => DEFAULT_NPROBE,
                    Some(v) => v
                        .parse::<usize>()
                        .ok()
                        .filter(|n| *n >= 1)
                        .ok_or_else(|| RequestError::bad(format!("bad nprobe={v:?} (>= 1)")))?,
                };
                let (doc, text) = match (param(params, "doc"), param(params, "text")) {
                    (Some(_), Some(_)) => {
                        return Err(RequestError::bad("give doc= or text=, not both"))
                    }
                    (None, None) => return Err(RequestError::bad("missing doc= or text=")),
                    (None, Some("")) => return Err(RequestError::bad("empty text=")),
                    (Some(d), None) => match d.parse::<u32>() {
                        Ok(doc) => (Some(doc), None),
                        Err(_) => return Err(RequestError::bad(format!("bad doc={d:?}"))),
                    },
                    (None, Some(t)) => (None, Some(t.to_string())),
                };
                Ok(ServeRequest::Similar {
                    doc,
                    text,
                    top,
                    nprobe,
                })
            }
            other => Err(RequestError {
                status: 404,
                message: format!("unknown route {other:?}"),
            }),
        }
    }

    /// Metric name of this query kind (`serve_<kind>_seconds`
    /// histograms, `client_<kind>_seconds` on the load-generator side).
    pub fn kind(&self) -> &'static str {
        match self {
            ServeRequest::Term { .. } => "term",
            ServeRequest::Boolean { .. } => "query",
            ServeRequest::Search { .. } => "search",
            ServeRequest::Cluster { .. } => "cluster",
            ServeRequest::Rect { .. } => "rect",
            ServeRequest::Similar { .. } => "similar",
        }
    }

    /// Cache key: two requests share a key only if they produce the
    /// same body, so each kind keys on exactly the fields its body
    /// renders. A boolean expression keys on [`Query::normalized`],
    /// which is what its body echoes; search and similarity text key on
    /// the raw text, which their bodies echo too.
    pub fn cache_key(&self) -> String {
        match self {
            ServeRequest::Term { term, top } => format!("term\u{1}{term}\u{1}{top}"),
            ServeRequest::Boolean { expr, top } => {
                format!("query\u{1}{}\u{1}{top}", expr.normalized())
            }
            ServeRequest::Search { text, top } => format!("search\u{1}{text}\u{1}{top}"),
            ServeRequest::Cluster { cluster, top } => format!("cluster\u{1}{cluster}\u{1}{top}"),
            ServeRequest::Rect { min, max, top } => format!(
                "rect\u{1}{},{},{},{}\u{1}{top}",
                num(min.0),
                num(min.1),
                num(max.0),
                num(max.1)
            ),
            ServeRequest::Similar {
                doc,
                text,
                top,
                nprobe,
            } => {
                let target = match (doc, text) {
                    (Some(d), _) => format!("d{d}"),
                    (None, Some(t)) => format!("t{t}"),
                    (None, None) => String::new(),
                };
                format!("similar\u{1}{target}\u{1}{top}\u{1}{nprobe}")
            }
        }
    }
}

/// Execute `req` against `state`, producing the JSON response body
/// (newline-terminated). Errors are client errors: missing layout or
/// ANN sections for the requested kind, unknown cluster ids. `/cluster`
/// and `/rect` list, and count, live documents only: a tombstoned one
/// is in no answer.
pub fn execute(state: &ServeState, req: &ServeRequest) -> Result<String, RequestError> {
    execute_timed(state, req).map(|(body, _)| body)
}

/// Wall-time split of one [`execute_timed`] call: query evaluation
/// (postings decode included) versus response-body rendering.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExecTiming {
    pub eval_ns: u64,
    pub serialize_ns: u64,
}

fn ns(d: std::time::Duration) -> u64 {
    d.as_nanos().min(u64::MAX as u128) as u64
}

/// Timing split for an arm whose evaluation ran `t0..t1` and whose
/// serialization ran from `t1` until this call.
fn split(t0: std::time::Instant, t1: std::time::Instant) -> ExecTiming {
    ExecTiming {
        eval_ns: ns(t1 - t0),
        serialize_ns: ns(t1.elapsed()),
    }
}

/// [`execute`] plus an eval/serialize wall-time split for request
/// tracing. `execute` delegates here, so the body bytes are identical
/// with and without tracing by construction.
pub fn execute_timed(
    state: &ServeState,
    req: &ServeRequest,
) -> Result<(String, ExecTiming), RequestError> {
    use std::time::Instant;
    match req {
        ServeRequest::Term { term, top } => {
            let t0 = Instant::now();
            let posts = query::lookup_in(state, term);
            let mut docs: Vec<u32> = posts.iter().map(|p| p.doc).collect();
            docs.dedup();
            let t1 = Instant::now();
            let head = format!(
                "{{\"kind\":\"term\",\"term\":\"{}\",\"postings\":{},\"documents\":{},\"hits\":[",
                escape(term),
                posts.len(),
                docs.len()
            );
            let body = close_list(head, posts.iter().take(*top), |p| {
                format!(
                    "{{\"doc\":{},\"field\":{},\"freq\":{}}}",
                    p.doc, p.field, p.freq
                )
            });
            Ok((body, split(t0, t1)))
        }
        ServeRequest::Boolean { expr, top } => {
            let t0 = Instant::now();
            let docs = query::evaluate_in(state, expr);
            let t1 = Instant::now();
            let head = format!(
                "{{\"kind\":\"query\",\"query\":\"{}\",\"matches\":{},\"docs\":[",
                escape(&expr.normalized()),
                docs.len()
            );
            let body = close_list(head, docs.iter().take(*top), u32::to_string);
            Ok((body, split(t0, t1)))
        }
        ServeRequest::Search { text, top } => {
            let t0 = Instant::now();
            let hits = query::search_in(state, text, *top);
            let t1 = Instant::now();
            let head = format!(
                "{{\"kind\":\"search\",\"text\":\"{}\",\"hits\":[",
                escape(text)
            );
            Ok((close_list(head, &hits, hit), split(t0, t1)))
        }
        ServeRequest::Cluster { cluster, top } => {
            let (coords, assignments) = require_layout(state)?;
            if *cluster as usize >= state.cluster_sizes.len() {
                return Err(RequestError::bad(format!(
                    "unknown cluster {cluster} (0..{})",
                    state.cluster_sizes.len()
                )));
            }
            let t0 = Instant::now();
            let mut docs = select_cluster(assignments, *cluster);
            docs.retain(|&d| !state.is_deleted(d));
            let t1 = Instant::now();
            let label = state
                .cluster_labels
                .get(*cluster as usize)
                .map(|l| l.join(", "))
                .unwrap_or_default();
            let head = format!(
                "{{\"kind\":\"cluster\",\"cluster\":{},\"label\":\"{}\",\"size\":{},\"docs\":[",
                cluster,
                escape(&label),
                docs.len()
            );
            let body = close_list(head, docs.iter().take(*top), |&d| {
                let (x, y) = coords[d as usize];
                format!("{{\"doc\":{d},\"x\":{},\"y\":{}}}", num(x), num(y))
            });
            Ok((body, split(t0, t1)))
        }
        ServeRequest::Rect { min, max, top } => {
            let (coords, assignments) = require_layout(state)?;
            let t0 = Instant::now();
            let mut docs = select_rect(coords, *min, *max);
            docs.retain(|&d| !state.is_deleted(d));
            let t1 = Instant::now();
            let head = format!(
                "{{\"kind\":\"rect\",\"x0\":{},\"y0\":{},\"x1\":{},\"y1\":{},\"matches\":{},\"docs\":[",
                num(min.0),
                num(min.1),
                num(max.0),
                num(max.1),
                docs.len()
            );
            let body = close_list(head, docs.iter().take(*top), |&d| {
                format!("{{\"doc\":{d},\"cluster\":{}}}", assignments[d as usize])
            });
            Ok((body, split(t0, t1)))
        }
        ServeRequest::Similar {
            doc,
            text,
            top,
            nprobe,
        } => {
            require_ann(state)?;
            let t0 = Instant::now();
            let query: Vec<f64> = match (doc, text) {
                (Some(d), _) => {
                    if state.is_deleted(*d) {
                        return Err(RequestError::bad(format!("document {d} is deleted")));
                    }
                    state
                        .doc_signature(*d)
                        .ok_or_else(|| {
                            RequestError::bad(format!(
                                "unknown document {d} (0..{})",
                                state.total_docs()
                            ))
                        })?
                        .to_vec()
                }
                (None, Some(t)) => state
                    .embed_text(t)
                    .expect("ANN sections checked by require_ann"),
                (None, None) => return Err(RequestError::bad("missing doc= or text=")),
            };
            let (hits, stats) = state.similar(&query, *top, *nprobe);
            let t1 = Instant::now();
            let mut body = String::from("{\"kind\":\"similar\",");
            match (doc, text) {
                (Some(d), _) => body.push_str(&format!("\"doc\":{d},")),
                (_, Some(t)) => body.push_str(&format!("\"text\":\"{}\",", escape(t))),
                _ => unreachable!("parse requires doc= or text="),
            }
            body.push_str(&format!(
                "\"nprobe\":{},\"probed\":{},\"candidates\":{},\"hits\":[",
                nprobe, stats.probed, stats.candidates
            ));
            Ok((close_list(body, &hits, hit), split(t0, t1)))
        }
    }
}

/// `head`, which opens a JSON array, then `items` rendered by `item`
/// and comma-separated, then the close of the array and of the body.
pub(crate) fn close_list<T>(
    mut head: String,
    items: impl IntoIterator<Item = T>,
    item: impl Fn(T) -> String,
) -> String {
    for (i, x) in items.into_iter().enumerate() {
        if i > 0 {
            head.push(',');
        }
        head.push_str(&item(x));
    }
    head.push_str("]}\n");
    head
}

/// One ranked hit of a `/search` or `/similar` body.
fn hit(h: &Hit) -> String {
    format!("{{\"doc\":{},\"score\":{}}}", h.doc, num(h.score))
}

fn require_ann(state: &ServeState) -> Result<(), RequestError> {
    if state.has_ann() {
        Ok(())
    } else {
        Err(RequestError {
            status: 409,
            message: format!("stage {:?} snapshot has no ANN sections", state.meta.stage),
        })
    }
}

/// The layout pair a `/cluster` or `/rect` request drills into:
/// per-document projected coordinates and cluster assignments.
type Layout<'a> = (&'a [(f64, f64)], &'a [u32]);

fn require_layout(state: &ServeState) -> Result<Layout<'_>, RequestError> {
    match (&state.coords, &state.assignments) {
        (Some(c), Some(a)) => Ok((c, a)),
        _ => Err(RequestError {
            status: 409,
            message: format!(
                "stage {:?} snapshot has no clustering/projection to drill into",
                state.meta.stage
            ),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percent_decoding() {
        assert_eq!(percent_decode("heart+attack"), "heart attack");
        assert_eq!(percent_decode("a%20AND%20b"), "a AND b");
        assert_eq!(percent_decode("100%"), "100%");
        assert_eq!(percent_decode("%zz"), "%zz");
        assert_eq!(percent_decode(""), "");
    }

    #[test]
    fn target_splitting() {
        let (path, params) = split_target("/search?q=heart+attack&top=5");
        assert_eq!(path, "/search");
        assert_eq!(
            params,
            vec![
                ("q".to_string(), "heart attack".to_string()),
                ("top".to_string(), "5".to_string())
            ]
        );
        let (path, params) = split_target("/healthz");
        assert_eq!(path, "/healthz");
        assert!(params.is_empty());
    }

    #[test]
    fn parse_routes_and_errors() {
        let ok = |t: &str| {
            let (p, q) = split_target(t);
            ServeRequest::parse(p, &q)
        };
        assert!(matches!(
            ok("/term?t=Protein"),
            Ok(ServeRequest::Term { ref term, top: DEFAULT_TOP }) if term == "protein"
        ));
        assert!(ok("/query?q=a+AND+b&top=3").is_ok());
        assert!(ok("/search?q=heart").is_ok());
        assert!(ok("/cluster?c=2").is_ok());
        assert!(ok("/rect?x0=0&y0=0&x1=1&y1=1").is_ok());
        // Rect corners normalize to (min, max).
        match ok("/rect?x0=5&y0=3&x1=-1&y1=0").unwrap() {
            ServeRequest::Rect { min, max, .. } => {
                assert_eq!(min, (-1.0, 0.0));
                assert_eq!(max, (5.0, 3.0));
            }
            other => panic!("{other:?}"),
        }
        assert!(matches!(
            ok("/similar?doc=7"),
            Ok(ServeRequest::Similar {
                doc: Some(7),
                text: None,
                top: DEFAULT_TOP,
                nprobe: DEFAULT_NPROBE
            })
        ));
        assert!(matches!(
            ok("/similar?text=heart+attack&nprobe=3&top=5"),
            Ok(ServeRequest::Similar {
                doc: None,
                text: Some(_),
                top: 5,
                nprobe: 3
            })
        ));
        assert_eq!(ok("/similar").unwrap_err().status, 400);
        assert_eq!(ok("/similar?doc=1&text=x").unwrap_err().status, 400);
        assert_eq!(ok("/similar?doc=abc").unwrap_err().status, 400);
        assert_eq!(ok("/similar?text=").unwrap_err().status, 400);
        assert_eq!(ok("/similar?doc=1&nprobe=0").unwrap_err().status, 400);
        assert_eq!(ok("/nope").unwrap_err().status, 404);
        assert_eq!(ok("/term").unwrap_err().status, 400);
        assert_eq!(ok("/term?t=").unwrap_err().status, 400);
        assert_eq!(ok("/query?q=AND").unwrap_err().status, 400);
        assert_eq!(ok("/rect?x0=0&y0=0&x1=1").unwrap_err().status, 400);
        assert_eq!(ok("/rect?x0=nan&y0=0&x1=1&y1=1").unwrap_err().status, 400);
        assert_eq!(ok("/term?t=x&top=0").unwrap_err().status, 400);
        assert_eq!(ok("/term?t=x&top=abc").unwrap_err().status, 400);
    }

    #[test]
    fn cache_keys_normalize_equivalent_queries() {
        let key = |t: &str| {
            let (p, q) = split_target(t);
            ServeRequest::parse(p, &q).unwrap().cache_key()
        };
        assert_eq!(key("/query?q=a+AND+b"), key("/query?q=a+b"));
        assert_eq!(key("/query?q=a+OR+b"), key("/query?q=(a)+or+(b)"));
        assert_ne!(key("/query?q=a+AND+b"), key("/query?q=a+OR+b"));
        assert_ne!(key("/query?q=a&top=5"), key("/query?q=a&top=6"));
        // Search and similarity bodies echo the raw text, so text that
        // tokenizes alike but reads differently keys apart.
        assert_ne!(key("/search?q=Heart+Attack"), key("/search?q=heart,attack"));
        assert_ne!(
            key("/similar?text=Heart+Attack"),
            key("/similar?text=heart,attack")
        );
        // nprobe is keyed.
        assert_ne!(
            key("/similar?doc=1&nprobe=2"),
            key("/similar?doc=1&nprobe=3")
        );
        // Different kinds never collide.
        assert_ne!(key("/term?t=a"), key("/search?q=a"));
        assert_ne!(key("/similar?text=a"), key("/search?q=a"));
    }
}
