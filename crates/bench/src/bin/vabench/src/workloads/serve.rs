//! The three request-serving workloads. One operation is one HTTP
//! request, timed at the client from connect to last byte.
//!
//! - `serve_cold` replays an all-distinct list at least twice as long as
//!   the LRU, cyclically, so every probe misses and query evaluation
//!   does the work;
//! - `serve_hot` draws Zipf(1.0) from 256 warmed targets, so every probe
//!   hits and the accept/queue/parse/socket path does the work;
//! - `similar_ann` is `serve_cold`'s shape over `/similar`, so the
//!   quantized IVF scan and exact re-rank do the work.

use super::build::snapshot_sizes;
use super::{p50, Job, Outcome};
use crate::fixture::Fixture;
use crate::load::{self, closed_loop, Phase, Stop};
use crate::requests::{self, lane, Req, NPROBES};
use crate::spans::Recorder;
use crate::stats::{percentile_sorted, supported_percentile, Rng, Zipf};
use inspire_core::ann;
use inspire_core::query::SearchIndex;
use inspire_core::tokenize::Tokenizer;
use inspire_serve::request::split_target;
use inspire_serve::{execute_timed, http, LruCache, ServeRequest, ServeState};
use std::io;
use std::sync::Arc;

/// Distinct requests a cold replay cycles through: twice the LRU's
/// 1,024 entries, so a request's reuse distance outlives the cache.
const COLD_REQUESTS: usize = 2048;
/// Requests sent before timing starts.
const WARM_UP: usize = 200;
/// Targets in the hot set; a quarter of the LRU's 1,024 entries.
const HOT_SET: usize = 256;
/// Length of the pre-drawn Zipf order the hot clients cycle through.
const HOT_ORDER: usize = 1 << 16;
/// Queries in the fixed recall sample.
const RECALL_SAMPLE: usize = 300;
/// `recall_at_10` at nprobe 16 below this means the ANN path is broken,
/// not merely tuned: the run is not correct.
const RECALL_FLOOR: f64 = 0.9;

/// Everything the three workloads share: oracle, server, warm-up, the
/// timed phase, and the server's own counters around it.
struct Served {
    phase: Phase,
    /// Server cache hits and misses during the timed phase.
    hits: f64,
    misses: f64,
    after: inspire_trace::json::Value,
    max_in_flight: usize,
    rejected_429: u64,
}

fn serve(
    job: &Job,
    fx: &Fixture,
    reqs: &[Req],
    oracle: &[String],
    warm: (&[u32], usize),
    order: &[u32],
    out: &mut Outcome,
) -> io::Result<Served> {
    let server = load::start_server(Arc::clone(&fx.state))?;
    let addr = server.local_addr();
    let warmed = closed_loop(addr, reqs, oracle, warm.0, Stop::Count(warm.1), None);
    let before = load::scrape(&server);
    let phase = closed_loop(
        addr,
        reqs,
        oracle,
        order,
        Stop::After(job.phase()),
        job.trace_origin(),
    );
    let after = load::scrape(&server);
    let summary = server.shutdown();

    out.attempted += (warmed.samples.len() + phase.samples.len()) as u64;
    out.failed += warmed.failed() + phase.failed();
    if let Some(f) = warmed
        .first_failure
        .as_ref()
        .or(phase.first_failure.as_ref())
    {
        eprintln!("vabench: first failed request: {f}");
    }
    out.op_ms = phase.ok_ms(|_| true);
    out.ops = out.op_ms.len() as f64;
    out.wall_s = phase.wall_s;
    out.disk_ratio = fx.snapshot_bytes as f64 / job.corpus_bytes as f64;
    out.info.push((
        "requests_crc32",
        format!("{:08x}", requests::requests_crc32(reqs)),
    ));
    out.info.push((
        "answers_crc32",
        format!("{:08x}", load::answers_crc32(oracle)),
    ));
    let delta = |k| load::field(&after, "cache", k) - load::field(&before, "cache", k);
    Ok(Served {
        hits: delta("hits"),
        misses: delta("misses"),
        phase,
        after,
        max_in_flight: summary.max_in_flight,
        rejected_429: summary.rejected_429,
    })
}

impl Served {
    fn hit_rate(&self) -> f64 {
        self.hits / (self.hits + self.misses).max(1.0)
    }
}

fn indices(range: std::ops::Range<usize>) -> Vec<u32> {
    range.map(|i| i as u32).collect()
}

/// Per-layer numbers every serving workload reports from its socket
/// phase and the server's own `/metrics`.
fn served_layers(out: &mut Outcome, fx: &Fixture, s: &mut Served, inproc_p50_us: f64) {
    let tail = supported_percentile(out.op_ms.len());
    let client_p50 = percentile_sorted(&out.op_ms, 50.0);
    let l = &mut out.layers;
    l.set("client.p50_ms", client_p50);
    l.set("client.p99_ms", percentile_sorted(&out.op_ms, tail));
    l.set("serve.inproc_p50_us", inproc_p50_us);
    // accept + queue + socket: what the client saw beyond the work.
    l.set("serve.wire_overhead_us", client_p50 * 1e3 - inproc_p50_us);
    l.set("serve.server.max_in_flight", s.max_in_flight as f64);
    l.set("serve.server.rejected_429", s.rejected_429 as f64);
    l.set("serve.lru.hit_rate", s.hit_rate());
    l.set(
        "serve.lru.resident_bytes",
        load::field(&s.after, "cache", "resident_bytes"),
    );
    l.set(
        "serve.lru.evictions",
        load::field(&s.after, "cache", "evictions"),
    );
    snapshot_sizes(l, fx);
    for (i, lane) in std::mem::take(&mut s.phase.lanes).into_iter().enumerate() {
        out.lanes.push((format!("client-{i}"), lane));
    }
}

/// Single-threaded in-process replay of `reqs`, no sockets: the same
/// steps a server worker takes, each inside a span. Returns the
/// recorder; span names are the layer names.
fn replay(job: &Job, state: &ServeState, reqs: &[Req], lru: &mut LruCache) -> Recorder {
    let mut rec = Recorder::new(job.origin);
    for (i, r) in reqs.iter().enumerate() {
        let id = i as u64;
        let head = format!(
            "GET {} HTTP/1.1\r\nHost: vabench\r\nConnection: close\r\n\r\n",
            r.target
        );
        rec.span("serve.request", id, |rec| {
            let parsed = rec.span("serve.http.parse", id, |_| {
                http::parse_head(head.as_bytes())
            });
            let target = parsed.expect("generated head parses").target;
            let (req, key) = rec.span("serve.request.route", id, |_| {
                let (path, params) = split_target(&target);
                let req = ServeRequest::parse(path, &params).expect("generated target parses");
                let key = req.cache_key();
                (req, key)
            });
            if rec.span("serve.lru.probe", id, |_| lru.get(&key)).is_some() {
                return;
            }
            let body = rec.span("serve.execute", id, |rec| {
                let (body, t) = execute_timed(state, &req).expect("the oracle executed this");
                rec.split_open(&[
                    ("core.query.eval", t.eval_ns),
                    ("serve.request.serialize", t.serialize_ns),
                ]);
                body
            });
            rec.span("serve.lru.insert", id, |_| {
                lru.insert(&key, Arc::from(body))
            });
        });
    }
    rec
}

/// p50 in microseconds of the spans named `name` whose request `keep`
/// selects.
fn span_p50_us(rec: &Recorder, reqs: &[Req], name: &str, keep: impl Fn(&Req) -> bool) -> f64 {
    p50(rec
        .spans()
        .iter()
        .filter(|s| s.name == name && keep(&reqs[s.req as usize]))
        .map(|s| s.dur_ns() as f64 / 1e3)
        .collect())
}

/// Replay-derived layers shared by the cold and hot workloads. Returns
/// the in-process p50 of a whole request, microseconds.
fn replay_layers(out: &mut Outcome, rec: &Recorder, reqs: &[Req]) -> f64 {
    let all = |_: &Req| true;
    let l = &mut out.layers;
    l.set(
        "serve.http.parse_us",
        span_p50_us(rec, reqs, "serve.http.parse", all),
    );
    l.set(
        "serve.request.route_us",
        span_p50_us(rec, reqs, "serve.request.route", all),
    );
    l.set(
        "serve.request.serialize_us",
        span_p50_us(rec, reqs, "serve.request.serialize", all),
    );
    span_p50_us(rec, reqs, "serve.request", all)
}

/// The seeded request list of each workload. Set-up generates it too
/// (and drops it), so its cost is part of `setup_s`.
pub fn cold_requests(fx: &Fixture, seed: u64) -> Vec<Req> {
    requests::mixed(fx, Rng::new(seed, lane::COLD), COLD_REQUESTS + WARM_UP)
}

pub fn hot_requests(fx: &Fixture, seed: u64) -> Vec<Req> {
    requests::mixed(fx, Rng::new(seed, lane::HOT), HOT_SET)
}

pub fn similar_requests(fx: &Fixture, seed: u64) -> io::Result<Vec<Req>> {
    requests::similar(fx, Rng::new(seed, lane::SIMILAR), COLD_REQUESTS + WARM_UP)
}

pub fn cold(job: &Job) -> io::Result<Outcome> {
    let mut out = Outcome::default();
    let fx = Fixture::open(&job.dir)?;
    let n = COLD_REQUESTS;
    let reqs = cold_requests(&fx, job.seed);
    let oracle = load::oracle_bodies(&fx.state, &reqs)?;
    // Warm-up uses the tail of the list; the timed phase cycles the
    // first `n`, whose reuse distance (n ≥ 2 × LRU) outlives the cache.
    let warm = indices(n..n + WARM_UP);
    let mut s = serve(
        job,
        &fx,
        &reqs,
        &oracle,
        (&warm, WARM_UP),
        &indices(0..n),
        &mut out,
    )?;
    if s.hits != 0.0 {
        out.problem(format!("serve_cold hit the cache {} times", s.hits));
    }
    let search_ms = s.phase.ok_ms(|x| reqs[x.req as usize].kind() == "search");
    if job.traced {
        let mut lru = LruCache::new(1024);
        let rec = replay(job, &fx.state, &reqs[..n], &mut lru);
        let inproc = replay_layers(&mut out, &rec, &reqs);
        served_layers(&mut out, &fx, &mut s, inproc);
        let l = &mut out.layers;
        let probe = rec.durations_ns("serve.lru.probe");
        let insert = rec.durations_ns("serve.lru.insert");
        l.set(
            "serve.lru.miss_insert_us",
            p50(probe
                .iter()
                .zip(&insert)
                .map(|(p, i)| (p + i) / 1e3)
                .collect()),
        );
        for kind in ["term", "query", "search", "cluster", "rect"] {
            let us = span_p50_us(&rec, &reqs, "core.query.eval", |r| r.kind() == kind);
            l.set(&format!("core.query.eval_us.{kind}"), us);
        }
        for class in ["rare", "mid", "common"] {
            let us = span_p50_us(&rec, &reqs, "core.query.eval", |r| r.class == class);
            l.set(&format!("core.query.search_us.{class}"), us);
        }
        let tail = supported_percentile(search_ms.len());
        l.set("client.search_p50_ms", percentile_sorted(&search_ms, 50.0));
        l.set("client.search_p99_ms", percentile_sorted(&search_ms, tail));
        l.set(
            "serve.server.search_p50_us",
            load::server_p50_us(&s.after, "serve_search_seconds"),
        );
        let decode = decode_pass(job, &fx.state, &reqs[..n], &mut out);
        out.lanes.push(("replay".to_string(), rec));
        out.lanes.push(("decode".to_string(), decode));
    }
    Ok(out)
}

/// Time `SearchIndex::postings_into` once per query term of every
/// `/search`, and count what ranking had to touch: postings decoded and
/// the size of the scored union. Both counts repeat exactly.
fn decode_pass(job: &Job, state: &ServeState, reqs: &[Req], out: &mut Outcome) -> Recorder {
    let mut rec = Recorder::new(job.origin);
    let tokenizer = Tokenizer::default();
    let (mut postings, mut decode_ns, mut scored) = (0u64, 0u64, 0u64);
    let mut buf = Vec::new();
    let mut docs: Vec<u32> = Vec::new();
    for (i, r) in reqs.iter().enumerate() {
        let ServeRequest::Search { text, .. } = &r.parsed else {
            continue;
        };
        let mut terms = Vec::new();
        tokenizer.tokenize_into(text, |t| terms.extend(state.term_id(t)));
        docs.clear();
        for t in terms {
            buf.clear();
            rec.span("store.codec.decode", i as u64, |_| {
                state.postings_into(t, &mut buf)
            });
            decode_ns += rec.spans().last().map_or(0, |s| s.dur_ns());
            postings += buf.len() as u64;
            docs.extend(buf.iter().map(|p| p.doc));
        }
        docs.sort_unstable();
        docs.dedup();
        scored += docs.len() as u64;
    }
    let l = &mut out.layers;
    l.set("store.codec.postings_decoded", postings as f64);
    l.set(
        "store.codec.decode_ns_per_posting",
        decode_ns as f64 / postings.max(1) as f64,
    );
    l.set("core.query.docs_scored", scored as f64);
    rec
}

pub fn hot(job: &Job) -> io::Result<Outcome> {
    let mut out = Outcome::default();
    let fx = Fixture::open(&job.dir)?;
    let reqs = hot_requests(&fx, job.seed);
    let oracle = load::oracle_bodies(&fx.state, &reqs)?;
    let zipf = Zipf::new(HOT_SET, 1.0);
    let mut rng = Rng::new(job.seed, lane::HOT_ORDER);
    let order: Vec<u32> = (0..HOT_ORDER)
        .map(|_| zipf.sample(&mut rng) as u32)
        .collect();
    // Warm-up asks for every target once, so the timed phase only hits.
    let warm = indices(0..HOT_SET);
    let mut s = serve(job, &fx, &reqs, &oracle, (&warm, HOT_SET), &order, &mut out)?;
    if s.hit_rate() < 0.99 {
        out.problem(format!(
            "serve_hot hit rate {:.4} is below 0.99",
            s.hit_rate()
        ));
    }
    if job.traced {
        let mut lru = LruCache::new(1024);
        for (r, body) in reqs.iter().zip(&oracle) {
            lru.insert(&r.parsed.cache_key(), Arc::from(body.as_str()));
        }
        let rec = replay(job, &fx.state, &reqs, &mut lru);
        let inproc = replay_layers(&mut out, &rec, &reqs);
        served_layers(&mut out, &fx, &mut s, inproc);
        // One `get` is too short to time alone: time the Zipf order in
        // runs of 256 and divide.
        let keys: Vec<String> = reqs.iter().map(|r| r.parsed.cache_key()).collect();
        let mut hit_rec = Recorder::new(job.origin);
        for (i, run) in order.chunks(256).enumerate() {
            hit_rec.span("serve.lru.hit_x256", i as u64, |_| {
                for &k in run {
                    std::hint::black_box(lru.get(&keys[k as usize]));
                }
            });
        }
        let per_get = hit_rec.durations_ns("serve.lru.hit_x256");
        out.layers
            .set("serve.lru.hit_us", p50(per_get) / 256.0 / 1e3);
        out.lanes.push(("replay".to_string(), rec));
        out.lanes.push(("lru".to_string(), hit_rec));
    }
    Ok(out)
}

pub fn similar(job: &Job) -> io::Result<Outcome> {
    let mut out = Outcome::default();
    let fx = Fixture::open(&job.dir)?;
    let n = COLD_REQUESTS;
    let reqs = similar_requests(&fx, job.seed)?;
    let state = &fx.state;

    // Set-up guard: text queries must land in signature space.
    let texts: Vec<&str> = reqs
        .iter()
        .filter_map(|r| match &r.parsed {
            ServeRequest::Similar { text: Some(t), .. } => Some(t.as_str()),
            _ => None,
        })
        .collect();
    let embedded = texts
        .iter()
        .filter(|t| {
            state
                .embed_text(t)
                .is_some_and(|sig| sig.iter().any(|&x| x != 0.0))
        })
        .count();
    if (embedded as f64) < 0.95 * texts.len() as f64 {
        out.problem(format!(
            "only {embedded} of {} text queries embed to a non-null signature",
            texts.len()
        ));
    }

    let oracle = load::oracle_bodies(state, &reqs)?;
    let warm = indices(n..n + WARM_UP);
    let mut s = serve(
        job,
        &fx,
        &reqs,
        &oracle,
        (&warm, WARM_UP),
        &indices(0..n),
        &mut out,
    )?;
    if s.hits != 0.0 {
        out.problem(format!("similar_ann hit the cache {} times", s.hits));
    }

    // The quality guard, checked on every run: recall@10 against the
    // exhaustive scan, which shares nothing with the IVF path.
    let mut rec = Recorder::new(job.origin);
    let recall = recall_at_10(&fx, job.seed, &mut rec)?;
    out.info.push(("recall_at_10", format!("{}", recall[1])));
    if recall[1] < RECALL_FLOOR {
        out.problem(format!(
            "recall_at_10 at nprobe 16 is {:.3}, below the {RECALL_FLOOR} floor",
            recall[1]
        ));
    }

    if job.traced {
        let mut lru = LruCache::new(1024);
        let replayed = replay(job, state, &reqs[..n], &mut lru);
        let inproc = replay_layers(&mut out, &replayed, &reqs);
        served_layers(&mut out, &fx, &mut s, inproc);
        for (i, (_, class)) in NPROBES.iter().enumerate() {
            out.layers
                .set(&format!("core.ann.recall_at_10.{class}"), recall[i]);
        }
        ann_pass(&fx, &reqs[..n], &mut rec, &mut out);
        let quantized = fx.section_bytes(&["qsig", "qscale", "qoff", "signrm"]);
        out.layers.set(
            "store.qsig_bytes_per_doc",
            quantized as f64 / state.meta.total_docs as f64,
        );
        out.lanes.push(("replay".to_string(), replayed));
        out.lanes.push(("ann".to_string(), rec));
    }
    Ok(out)
}

/// Exact signatures of every base document, row-major.
fn exact_sigs(fx: &Fixture) -> io::Result<&[f64]> {
    fx.state.snapshot().store().require("sigs")?.as_f64s()
}

/// Mean recall@10 at nprobe 4, 16 and 64 over a fixed seeded sample of
/// document queries, against `ann::exhaustive`.
fn recall_at_10(fx: &Fixture, seed: u64, rec: &mut Recorder) -> io::Result<[f64; 3]> {
    let state = &fx.state;
    let sigs = exact_sigs(fx)?;
    let m = state.meta.m_dims;
    let mut rng = Rng::new(seed, lane::RECALL);
    let mut found = [0usize; 3];
    let mut wanted = 0usize;
    for q in 0..RECALL_SAMPLE {
        let doc = rng.below(state.total_docs() as usize) as u32;
        let sig = state
            .doc_signature(doc)
            .expect("base document has a signature");
        let truth = rec.span("core.ann.exhaustive", q as u64, |_| {
            ann::exhaustive(sigs, m, sig, 10)
        });
        wanted += truth.len();
        for (i, (nprobe, _)) in NPROBES.iter().enumerate() {
            let (hits, _) = state.similar(sig, 10, *nprobe);
            found[i] += truth
                .iter()
                .filter(|t| hits.iter().any(|h| h.doc == t.doc))
                .count();
        }
    }
    Ok(found.map(|f| f as f64 / wanted.max(1) as f64))
}

/// In-process `/similar` layers: embed, search at each `nprobe`, and the
/// work counters `SearchStats` returns.
fn ann_pass(fx: &Fixture, reqs: &[Req], rec: &mut Recorder, out: &mut Outcome) {
    let state = &fx.state;
    let (mut probed, mut candidates, mut reranked, mut queries) = (0usize, 0usize, 0usize, 0usize);
    for (i, r) in reqs.iter().enumerate() {
        let ServeRequest::Similar {
            doc,
            text,
            top,
            nprobe,
        } = &r.parsed
        else {
            continue;
        };
        let id = i as u64;
        let sig: Vec<f64> = match (doc, text) {
            (Some(d), _) => state
                .doc_signature(*d)
                .expect("generated doc id exists")
                .to_vec(),
            (None, Some(t)) => rec
                .span("core.ann.embed_text", id, |_| state.embed_text(t))
                .expect("ANN snapshot embeds text"),
            (None, None) => continue,
        };
        let name = match nprobe {
            4 => "core.ann.search.nprobe4",
            16 => "core.ann.search.nprobe16",
            _ => "core.ann.search.nprobe64",
        };
        let (_, stats) = rec.span(name, id, |_| state.similar(&sig, *top, *nprobe));
        probed += stats.probed;
        candidates += stats.candidates;
        reranked += stats.reranked;
        queries += 1;
    }
    let us = |name: &str| p50(rec.durations_ns(name)) / 1e3;
    let per_query = |total: usize| total as f64 / queries.max(1) as f64;
    let exhaustive_us = us("core.ann.exhaustive");
    let nprobe16_us = us("core.ann.search.nprobe16");
    let l = &mut out.layers;
    for (_, class) in NPROBES {
        l.set(
            &format!("core.ann.search_us.{class}"),
            us(&format!("core.ann.search.{class}")),
        );
    }
    l.set("core.ann.probed_per_query", per_query(probed));
    l.set("core.ann.candidates_per_query", per_query(candidates));
    l.set("core.ann.reranked_per_query", per_query(reranked));
    l.set("core.ann.exhaustive_us", exhaustive_us);
    l.set(
        "core.ann.speedup_vs_exhaustive",
        exhaustive_us / nprobe16_us.max(1e-9),
    );
    l.set("core.ann.embed_text_us", us("core.ann.embed_text"));
}
