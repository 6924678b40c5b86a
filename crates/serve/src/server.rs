//! The serving loop: accept thread, worker pool, bounded queue,
//! result cache, metrics, and graceful shutdown.
//!
//! One accept thread owns the listener and pushes connections into a
//! bounded queue; when the queue is full it answers `429` with
//! `Retry-After` on the accept thread itself so overload is rejected in
//! microseconds instead of queued into timeout. A fixed-width
//! [`spmd::IntraPool`] — the same pool the engine uses for intra-rank
//! data parallelism — runs the workers: each worker blocks on the queue,
//! speaks one request per connection, and consults the shared LRU cache
//! before executing. Shutdown flips one flag and wakes the accept
//! thread out of its blocking `accept`: it stops accepting at once,
//! workers drain everything already queued, and [`Server::shutdown`]
//! joins all threads before returning the final counters.

use crate::http::{self, HttpError};
use crate::lru::{CacheStats, LruCache};
use crate::request::{self, ServeRequest};
use crate::state::ServeState;
use inspire_trace::json::num;
use inspire_trace::log;
use inspire_trace::{Registry, ReqTimeline, ReqTrace, SlowLog};
use spmd::IntraPool;
use std::collections::VecDeque;
use std::fs::File;
use std::io;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server tunables. Defaults match the CLI defaults.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port (see
    /// [`Server::local_addr`]).
    pub addr: String,
    /// Worker threads answering queries.
    pub workers: usize,
    /// Result-cache capacity in entries.
    pub cache_capacity: usize,
    /// Accepted-but-unserved connection bound; beyond it, 429.
    pub queue_depth: usize,
    /// Per-connection read timeout.
    pub read_timeout: Duration,
    /// Worst-N request timelines retained for `/debug/slow`.
    pub slow_log_n: usize,
    /// Minimum total milliseconds before a timeline may enter the slow
    /// ring (0 = keep the worst N regardless of absolute latency).
    pub slow_threshold_ms: u64,
    /// Structured access-log destination; `None` logs to stderr. Lines
    /// are emitted (and the file created) only when `INSPIRE_LOG` is
    /// `info` or lower.
    pub access_log: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7878".to_string(),
            workers: 8,
            cache_capacity: 1024,
            queue_depth: 256,
            read_timeout: Duration::from_secs(5),
            slow_log_n: 32,
            slow_threshold_ms: 0,
            access_log: None,
        }
    }
}

/// Final counters returned by [`Server::shutdown`].
#[derive(Debug, Clone, Copy)]
pub struct ServeSummary {
    pub served: u64,
    pub errors: u64,
    pub rejected_429: u64,
    pub max_in_flight: usize,
    pub cache: CacheStats,
}

/// State shared by the accept thread and every worker.
struct Shared {
    /// The serving state, swappable at a generation flip
    /// ([`Server::swap_state`]). Workers clone the `Arc` once per
    /// request, so in-flight requests finish on the state they started
    /// with — a flip never 5xxes anything.
    state: RwLock<Arc<ServeState>>,
    /// Bumped on every swap; prefixes cache keys so entries computed
    /// against an older state can neither be served nor inserted as
    /// current after a flip.
    epoch: AtomicU64,
    queue: Mutex<VecDeque<TcpStream>>,
    available: Condvar,
    queue_depth: usize,
    read_timeout: Duration,
    shutdown: AtomicBool,
    cache: Mutex<LruCache>,
    registry: Mutex<Registry>,
    served: AtomicU64,
    errors: AtomicU64,
    rejected_429: AtomicU64,
    in_flight: AtomicUsize,
    max_in_flight: AtomicUsize,
    started: Instant,
    /// Monotonic request-id source.
    next_req_id: AtomicU64,
    /// Worst-N request timelines for `/debug/slow`.
    slow: SlowLog,
    /// Access-log sink; `None` = stderr. Opened (and the file created)
    /// only when `INSPIRE_LOG` enables info-level lines.
    access: Option<Mutex<File>>,
}

/// A running server. Dropping the handle without calling
/// [`Server::shutdown`] leaks the threads; always shut down.
pub struct Server {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    accept_thread: Option<JoinHandle<()>>,
    pool_thread: Option<JoinHandle<()>>,
}

impl Server {
    /// Bind, spin up the worker pool, and start accepting.
    pub fn start(state: Arc<ServeState>, cfg: &ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let local_addr = listener.local_addr()?;
        let workers = cfg.workers.max(1);
        let access = match &cfg.access_log {
            // The file is not even created unless logging is enabled:
            // with INSPIRE_LOG unset the access log is bit-invisible.
            Some(path) if log::enabled(log::Level::Info) => Some(Mutex::new(
                std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path)?,
            )),
            _ => None,
        };
        let shared = Arc::new(Shared {
            state: RwLock::new(state),
            epoch: AtomicU64::new(0),
            queue: Mutex::new(VecDeque::with_capacity(cfg.queue_depth)),
            available: Condvar::new(),
            queue_depth: cfg.queue_depth.max(1),
            read_timeout: cfg.read_timeout,
            shutdown: AtomicBool::new(false),
            cache: Mutex::new(LruCache::new(cfg.cache_capacity)),
            registry: Mutex::new(Registry::new()),
            served: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            rejected_429: AtomicU64::new(0),
            in_flight: AtomicUsize::new(0),
            max_in_flight: AtomicUsize::new(0),
            started: Instant::now(),
            next_req_id: AtomicU64::new(0),
            slow: SlowLog::new(cfg.slow_log_n, cfg.slow_threshold_ms.saturating_mul(1_000)),
            access,
        });

        let accept_shared = Arc::clone(&shared);
        let accept_thread = std::thread::Builder::new()
            .name("serve-accept".to_string())
            .spawn(move || accept_loop(listener, &accept_shared))?;

        // The worker pool is the engine's own IntraPool: `workers` chunks
        // of one item each, so every chunk becomes one long-lived worker
        // loop on its own pool thread. `map_chunks` blocks until all
        // workers return, so it runs on a dedicated host thread.
        let pool_shared = Arc::clone(&shared);
        let pool_thread = std::thread::Builder::new()
            .name("serve-pool".to_string())
            .spawn(move || {
                let pool = IntraPool::new(workers);
                pool.map_chunks(workers, 1, |_range| worker_loop(&pool_shared));
            })?;

        Ok(Server {
            local_addr,
            shared,
            accept_thread: Some(accept_thread),
            pool_thread: Some(pool_thread),
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Render the `/metrics` JSON right now.
    pub fn metrics_json(&self) -> String {
        metrics_json(&self.shared)
    }

    /// Atomically replace the serving state (an ingest-generation
    /// flip). In-flight requests keep the state they cloned; new
    /// requests see `next`. The cache epoch is bumped so pre-flip
    /// bodies can no longer be served or inserted.
    pub fn swap_state(&self, next: Arc<ServeState>) {
        *self.shared.state.write().unwrap() = next;
        self.shared.epoch.fetch_add(1, Ordering::SeqCst);
    }

    /// Generation of the state currently being served.
    pub fn generation(&self) -> u64 {
        self.shared.state.read().unwrap().generation
    }

    /// Stop accepting, drain every queued and in-flight request, join
    /// all threads, and return the final counters.
    ///
    /// The accept thread blocks in `accept`, so after the flag is set it
    /// is woken with one connection from this process; it checks the
    /// flag before it looks at what it accepted, so that connection is
    /// dropped unanswered and moves no counter.
    pub fn shutdown(mut self) -> ServeSummary {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.available.notify_all();
        if let Some(t) = self.accept_thread.take() {
            let wake = wake_addr(self.local_addr);
            let _ = TcpStream::connect_timeout(&wake, Duration::from_secs(1));
            let _ = t.join();
        }
        if let Some(t) = self.pool_thread.take() {
            let _ = t.join();
        }
        ServeSummary {
            served: self.shared.served.load(Ordering::Relaxed),
            errors: self.shared.errors.load(Ordering::Relaxed),
            rejected_429: self.shared.rejected_429.load(Ordering::Relaxed),
            max_in_flight: self.shared.max_in_flight.load(Ordering::Relaxed),
            cache: self.shared.cache.lock().unwrap().stats(),
        }
    }
}

/// Where a connection from this host reaches a listener bound to
/// `addr`: `addr` itself, or the loopback of its family when it is the
/// wildcard (`0.0.0.0`, `[::]`).
fn wake_addr(mut addr: SocketAddr) -> SocketAddr {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    addr
}

/// Accept until shutdown, blocking in `accept` between connections;
/// [`Server::shutdown`] sets the flag and then connects once to end the
/// wait. The flag is read as soon as `accept` returns, before the queue
/// and the 429 branch, so whatever was accepted after shutdown began —
/// the wake connection included — is neither queued, answered nor
/// counted. The backpressure check runs here so a full queue answers
/// 429 without ever touching the worker pool.
fn accept_loop(listener: TcpListener, shared: &Shared) {
    loop {
        let accepted = listener.accept();
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let mut stream = match accepted {
            Ok((stream, _peer)) => stream,
            Err(_) => {
                // Out of descriptors, or the peer reset while still in
                // the backlog: give the condition a moment to clear.
                std::thread::sleep(Duration::from_millis(1));
                continue;
            }
        };
        let mut q = shared.queue.lock().unwrap();
        if q.len() < shared.queue_depth {
            q.push_back(stream);
            drop(q);
            shared.available.notify_one();
        } else {
            drop(q);
            shared.rejected_429.fetch_add(1, Ordering::Relaxed);
            let err = HttpError {
                status: 429,
                message: "server saturated, retry shortly".to_string(),
            };
            let _ = http::write_response(
                &mut stream,
                429,
                "application/json",
                &http::error_body(&err),
                &["Retry-After: 1"],
            );
            // The request is still unread, and closing over it
            // would RST the 429 away. Discard what has arrived
            // without waiting for more: this is the accept thread.
            let _ = stream.set_nonblocking(true);
            drain(&mut stream);
        }
    }
    // Dropping the listener here closes the socket, so the port is free
    // the moment shutdown begins.
}

/// One worker: pop connections until shutdown *and* the queue is empty,
/// so everything accepted before shutdown is still answered.
fn worker_loop(shared: &Shared) {
    loop {
        let stream = {
            let mut q = shared.queue.lock().unwrap();
            loop {
                if let Some(s) = q.pop_front() {
                    break Some(s);
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    break None;
                }
                let (guard, _timed_out) = shared
                    .available
                    .wait_timeout(q, Duration::from_millis(50))
                    .unwrap();
                q = guard;
            }
        };
        let Some(mut stream) = stream else { return };
        let now_in_flight = shared.in_flight.fetch_add(1, Ordering::SeqCst) + 1;
        shared
            .max_in_flight
            .fetch_max(now_in_flight, Ordering::SeqCst);
        handle_connection(shared, &mut stream);
        shared.in_flight.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Per-request tracing context threaded from the connection handler
/// through routing and execution: the span timeline that feeds the
/// slow-query ring and the access log. Observational only — it never
/// changes a served byte.
struct ReqCtx {
    tr: ReqTrace,
    /// Full request target (`/query?q=…`), once the head parsed.
    detail: String,
    cache_hit: bool,
    /// Set once the target parsed as one of the five query kinds; only
    /// those are eligible for the slow ring.
    is_query: bool,
    generation: u64,
    epoch: u64,
}

impl ReqCtx {
    fn new() -> ReqCtx {
        ReqCtx {
            tr: ReqTrace::start(),
            detail: String::new(),
            cache_hit: false,
            is_query: false,
            generation: 0,
            epoch: 0,
        }
    }
}

/// Speak one request/response exchange on `stream`.
///
/// The timeline covers first byte through response ready (`parse` opens
/// before the head is read); the socket write is deliberately outside
/// it, so per-stage micros account for the server-side work, not the
/// client's read speed.
fn handle_connection(shared: &Shared, stream: &mut TcpStream) {
    let _ = stream.set_read_timeout(Some(shared.read_timeout));
    let _ = stream.set_write_timeout(Some(shared.read_timeout));
    let mut ctx = ReqCtx::new();
    let id = shared.next_req_id.fetch_add(1, Ordering::Relaxed) + 1;
    ctx.tr.begin("parse");
    let outcome = http::read_head(stream)
        .and_then(|head| http::parse_head(&head))
        .and_then(|req| {
            ctx.detail = req.target.clone();
            respond(shared, &req.target, &mut ctx)
        });
    let (status, body, content_type) = match outcome {
        Ok((body, ct)) => (200u16, body, ct),
        Err(err) => (err.status, http::error_body(&err), "application/json"),
    };
    record_request(shared, ctx, id, status, &body);
    if status == 200 {
        shared.served.fetch_add(1, Ordering::Relaxed);
        let _ = http::write_response(stream, 200, content_type, &body, &[]);
    } else {
        shared.errors.fetch_add(1, Ordering::Relaxed);
        let _ = http::write_response(stream, status, content_type, &body, &[]);
        if status == 413 {
            // The client sent more than we read. Closing now would
            // RST the connection and discard the response we just
            // wrote; drain (bounded) so close sends a clean FIN.
            let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
            drain(stream);
        }
    }
}

/// Finish one request: close the timeline, offer it to the slow
/// ring (query kinds only, after the lock-free floor check), and emit
/// one structured access-log line when `INSPIRE_LOG` is `info`+.
fn record_request(shared: &Shared, mut ctx: ReqCtx, id: u64, status: u16, body: &str) {
    let (spans, total_us) = std::mem::take(&mut ctx.tr).finish();
    let want_slow = ctx.is_query && shared.slow.would_admit(total_us);
    let want_access = log::enabled(log::Level::Info);
    if !want_slow && !want_access {
        return;
    }
    let route = ctx.detail.split('?').next().unwrap_or("").to_string();
    let timeline = ReqTimeline {
        id,
        route,
        detail: ctx.detail,
        status,
        cache_hit: ctx.cache_hit,
        generation: ctx.generation,
        epoch: ctx.epoch,
        bytes: body.len() as u64,
        total_us,
        spans,
    };
    if want_access {
        let line = timeline.access_line();
        match &shared.access {
            Some(file) => {
                use std::io::Write;
                let mut file = file.lock().unwrap();
                let _ = writeln!(file, "{line}");
            }
            // Pure JSON on stderr, one line per request — no level
            // prefix, so the stream stays machine-parseable.
            None => eprintln!("{line}"),
        }
    }
    if want_slow {
        shared.slow.offer(timeline);
    }
}

/// Best-effort bounded read-and-discard of whatever the peer sends
/// until the stream's read timeout (or `WouldBlock` on a nonblocking
/// stream), so the subsequent close delivers the response.
fn drain(stream: &mut TcpStream) {
    use std::io::Read;
    let mut scratch = [0u8; 4096];
    let mut total = 0usize;
    while total < 256 * 1024 {
        match stream.read(&mut scratch) {
            Ok(0) | Err(_) => break,
            Ok(n) => total += n,
        }
    }
}

/// Route one target to its response body. Query kinds go through the
/// cache; the latency histograms (`serve_<kind>_seconds` plus the
/// overall `serve_request_seconds`) observe the full lookup-or-execute
/// path per kind either way.
fn respond(
    shared: &Shared,
    target: &str,
    ctx: &mut ReqCtx,
) -> Result<(String, &'static str), HttpError> {
    let (path, params) = request::split_target(target);
    let format = params
        .iter()
        .find(|(k, _)| k == "format")
        .map(|(_, v)| v.as_str());
    match path {
        "/healthz" => {
            ctx.tr.end();
            return Ok(("ok\n".to_string(), "text/plain"));
        }
        "/metrics" => {
            ctx.tr.end();
            // Content negotiation by explicit parameter: Prometheus
            // text exposition on `?format=prom`, JSON otherwise (the
            // default the smoke tests byte-compare against).
            return Ok(match format {
                Some("prom") => (metrics_prom(shared), "text/plain; version=0.0.4"),
                _ => (metrics_json(shared), "application/json"),
            });
        }
        "/debug/slow" => {
            ctx.tr.end();
            return Ok(match format {
                Some("chrome") => (shared.slow.to_chrome_json(), "application/json"),
                _ => (shared.slow.to_json(), "application/json"),
            });
        }
        _ => {}
    }
    let req = ServeRequest::parse(path, &params).map_err(|e| HttpError {
        status: e.status,
        message: e.message,
    })?;
    // The `parse` stage ends once the target is a typed request; only
    // typed query requests are slow-ring eligible.
    ctx.tr.end();
    ctx.is_query = true;
    let t0 = Instant::now();
    let body = answer(shared, &req, ctx)?;
    let elapsed = t0.elapsed();
    let mut registry = shared.registry.lock().unwrap();
    registry.observe(&format!("serve_{}_seconds", req.kind()), elapsed);
    registry.observe("serve_request_seconds", elapsed);
    Ok((body, "application/json"))
}

/// Cache-or-execute for one parsed request. The state `Arc` and the
/// epoch are read together up front: the whole request runs against one
/// state, and its cache entry is keyed to that state's epoch, so a swap
/// mid-request can neither corrupt this answer nor poison the cache.
fn answer(shared: &Shared, req: &ServeRequest, ctx: &mut ReqCtx) -> Result<String, HttpError> {
    let epoch = shared.epoch.load(Ordering::SeqCst);
    let state = Arc::clone(&shared.state.read().unwrap());
    ctx.generation = state.generation;
    ctx.epoch = epoch;
    let key = format!("{epoch}#{}", req.cache_key());
    ctx.tr.begin("cache_probe");
    if let Some(hit) = shared.cache.lock().unwrap().get(&key) {
        ctx.cache_hit = true;
        let body = hit.to_string();
        ctx.tr.end();
        return Ok(body);
    }
    ctx.tr.end();
    let to_http = |e: request::RequestError| HttpError {
        status: e.status,
        message: e.message,
    };
    // Execute with the per-thread decode timer armed: evaluation wall
    // time splits into `postings_decode` (accumulated inside the
    // SearchIndex postings calls) and `rank_merge` (everything else in
    // the query algorithm), then `serialize` renders the body. The
    // spans are laid out back-to-back from `mark`, matching how
    // `execute_timed` measured them.
    let mark = ctx.tr.mark();
    crate::state::decode_timer_begin();
    let result = request::execute_timed(&state, req);
    let decode_ns = crate::state::decode_timer_take();
    let (body, timing) = result.map_err(to_http)?;
    let eval_us = timing.eval_ns / 1_000;
    let decode_us = (decode_ns / 1_000).min(eval_us);
    ctx.tr.push_span("postings_decode", mark, decode_us);
    ctx.tr
        .push_span("rank_merge", mark + decode_us, eval_us - decode_us);
    ctx.tr
        .push_span("serialize", mark + eval_us, timing.serialize_ns / 1_000);
    shared
        .cache
        .lock()
        .unwrap()
        .insert(&key, Arc::from(body.as_str()));
    Ok(body)
}

/// What one `/metrics` scrape reads: the shared counters, the state
/// being served, and the LRU's counters and `(len, capacity,
/// resident_bytes)`, each lock taken once.
struct Scrape<'a> {
    shared: &'a Shared,
    state: Arc<ServeState>,
    cache: CacheStats,
    lru: (usize, usize, usize),
}

impl Scrape<'_> {
    fn take(shared: &Shared) -> Scrape<'_> {
        let (cache, lru) = {
            let c = shared.cache.lock().unwrap();
            (c.stats(), (c.len(), c.capacity(), c.resident_bytes()))
        };
        let state = Arc::clone(&shared.state.read().unwrap());
        Scrape {
            shared,
            state,
            cache,
            lru,
        }
    }
}

/// One server counter as both `/metrics` renderers see it: JSON group
/// (`""` = top level) and key, Prometheus family and type, and how a
/// scrape reads it. An empty key or family means that side omits it.
type Counter = (
    &'static str,
    &'static str,
    &'static str,
    &'static str,
    fn(&Scrape) -> f64,
);

fn n(counter: &AtomicU64) -> f64 {
    counter.load(Ordering::Relaxed) as f64
}

/// The server's counters, declared once: JSON keys print in this order
/// (consecutive rows of a group form its object), Prometheus lines too.
/// DESIGN.md §12 documents this table row for row.
#[rustfmt::skip]
const COUNTERS: [Counter; 18] = [
    ("", "uptime_s", "serve_uptime_seconds", "gauge", |s| s.shared.started.elapsed().as_secs_f64()),
    ("requests", "served", "serve_requests_total", "counter", |s| n(&s.shared.served)),
    ("requests", "errors", "serve_errors_total", "counter", |s| n(&s.shared.errors)),
    ("requests", "rejected_429", "serve_rejected_total", "counter", |s| n(&s.shared.rejected_429)),
    ("requests", "in_flight", "serve_in_flight", "gauge", |s| s.shared.in_flight.load(Ordering::Relaxed) as f64),
    ("requests", "max_in_flight", "serve_in_flight_max", "gauge", |s| s.shared.max_in_flight.load(Ordering::Relaxed) as f64),
    ("cache", "hits", "serve_cache_hits_total", "counter", |s| s.cache.hits as f64),
    ("cache", "misses", "serve_cache_misses_total", "counter", |s| s.cache.misses as f64),
    ("cache", "insertions", "serve_cache_insertions_total", "counter", |s| s.cache.insertions as f64),
    ("cache", "evictions", "serve_cache_evictions_total", "counter", |s| s.cache.evictions as f64),
    ("cache", "hit_rate", "", "", |s| s.cache.hit_rate()),
    ("cache", "len", "serve_cache_entries", "gauge", |s| s.lru.0 as f64),
    ("cache", "capacity", "serve_cache_capacity", "gauge", |s| s.lru.1 as f64),
    ("cache", "resident_bytes", "serve_cache_resident_bytes", "gauge", |s| s.lru.2 as f64),
    ("ingest", "segments_open", "segments_open", "gauge", |s| s.state.segments_open() as f64),
    ("ingest", "snapshot_generation", "snapshot_generation", "gauge", |s| s.state.generation as f64),
    ("ingest", "last_seal_unix", "last_seal_unix", "gauge", |s| s.state.last_seal_unix as f64),
    ("", "", "slow_log_retained", "gauge", |s| s.shared.slow.len() as f64),
];

/// Build the `/metrics` document: the [`COUNTERS`] rows, then the
/// per-kind latency histograms from the trace registry.
fn metrics_json(shared: &Shared) -> String {
    let scrape = Scrape::take(shared);
    let mut s = String::from("{");
    let sep = |s: &mut String| {
        if !s.ends_with('{') {
            s.push(',');
        }
    };
    let mut open = "";
    for (group, key, _, _, read) in COUNTERS.iter().filter(|c| !c.1.is_empty()) {
        if *group != open {
            if !open.is_empty() {
                s.push('}');
            }
            if !group.is_empty() {
                sep(&mut s);
                s.push_str(&format!("\"{group}\":{{"));
            }
            open = *group;
        }
        sep(&mut s);
        s.push_str(&format!("\"{key}\":{}", num(read(&scrape))));
    }
    if !open.is_empty() {
        s.push('}');
    }
    s.push_str(",\"histograms\":[");
    let summaries = shared.registry.lock().unwrap().summaries();
    for (i, sum) in summaries.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&sum.to_json());
    }
    s.push_str("]}\n");
    s
}

/// Build the Prometheus text exposition (`/metrics?format=prom`): the
/// [`COUNTERS`] rows, the per-kind latency summaries from the trace
/// registry, and — when serving an ingest directory — the
/// commit/compaction histograms accumulated in the ingest metrics
/// sidecar.
fn metrics_prom(shared: &Shared) -> String {
    let scrape = Scrape::take(shared);
    let mut out = String::with_capacity(4096);
    for (_, _, family, kind, read) in COUNTERS.iter().filter(|c| !c.2.is_empty()) {
        let v = num(read(&scrape));
        out.push_str(&format!("# TYPE {family} {kind}\n{family} {v}\n"));
    }
    out.push_str(&shared.registry.lock().unwrap().to_prometheus());
    if let Some(dir) = &scrape.state.ingest_dir {
        // Always emit the full ingest family set: a fresh directory
        // (no sidecar yet) scrapes the same names as a busy one, so
        // dashboards and validators can rely on them.
        let mut reg = inspire_ingest::load_ingest_metrics(dir).unwrap_or_default();
        for name in ["seal_latency_seconds", "compaction_duration_seconds"] {
            reg.ensure(name);
        }
        out.push_str(&reg.to_prometheus());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::{wake_addr, COUNTERS};

    /// DESIGN.md §12 documents the counter table row for row; this is
    /// what keeps it from drifting. On failure the message is the table
    /// to paste.
    #[test]
    fn design_md_counter_table_is_the_rows() {
        let design = include_str!("../../../DESIGN.md");
        let (_, rest) = design
            .split_once("<!-- counters -->\n")
            .expect("table marker");
        let (body, _) = rest
            .split_once("<!-- /counters -->")
            .expect("closing marker");
        let documented: Vec<&str> = body.lines().skip(2).collect();
        let cell = |s: &str, code: bool| match s {
            "" => "—".to_string(),
            s if code => format!("`{s}`"),
            s => s.to_string(),
        };
        let declared: Vec<String> = COUNTERS
            .iter()
            .map(|(group, key, family, kind, _)| {
                let json = match (*group, *key) {
                    (_, "") | ("", _) => key.to_string(),
                    _ => format!("{group}.{key}"),
                };
                let (family, kind, json) =
                    (cell(family, true), cell(kind, false), cell(&json, true));
                format!("| {family} | {kind} | {json} |")
            })
            .collect();
        assert_eq!(
            documented,
            declared,
            "counter rows:\n{}",
            declared.join("\n")
        );
    }

    #[test]
    fn wildcard_listeners_are_woken_through_their_loopback() {
        for (bound, wake) in [
            ("0.0.0.0:7878", "127.0.0.1:7878"),
            ("[::]:7878", "[::1]:7878"),
            ("127.0.0.1:9", "127.0.0.1:9"),
            ("10.1.2.3:9", "10.1.2.3:9"),
            ("[fe80::1]:9", "[fe80::1]:9"),
        ] {
            assert_eq!(wake_addr(bound.parse().unwrap()), wake.parse().unwrap());
        }
    }
}
