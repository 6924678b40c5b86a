//! End-to-end serving tests over real loopback sockets.
//!
//! Each test builds a tiny final-stage snapshot with the actual engine
//! pipeline, loads it into a [`ServeState`], starts a [`Server`] on an
//! ephemeral port, and talks to it with the crate's own blocking HTTP
//! client (plus raw `TcpStream`s for the malformed-input cases). The
//! central assertion: every body the server returns is byte-identical
//! to what the in-process [`execute`] path — the same code behind
//! `vaengine query --json` — produces for the same request.

use corpus::CorpusSpec;
use inspire_core::pipeline::run_engine;
use inspire_core::EngineConfig;
use inspire_serve::request::split_target;
use inspire_serve::{execute, http, ServeConfig, ServeRequest, ServeState, ServeSummary, Server};
use perfmodel::CostModel;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

const TIMEOUT: Duration = Duration::from_secs(10);

fn build_snapshot(tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("va-serve-{}-{tag}.isnap", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let src = CorpusSpec {
        source_bytes: 8 * 1024,
        ..CorpusSpec::pubmed(128 * 1024, 29)
    }
    .generate();
    let cfg = EngineConfig {
        snapshot_out: Some(path.clone()),
        ..EngineConfig::for_testing()
    };
    run_engine(2, Arc::new(CostModel::zero()), &src, &cfg);
    path
}

fn start(tag: &str, workers: usize) -> (Arc<ServeState>, Server, SocketAddr, PathBuf) {
    let path = build_snapshot(tag);
    let state = Arc::new(ServeState::load(&path).expect("load snapshot"));
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers,
        cache_capacity: 64,
        queue_depth: 64,
        ..ServeConfig::default()
    };
    let server = Server::start(Arc::clone(&state), &cfg).expect("start server");
    let addr = server.local_addr();
    (state, server, addr, path)
}

/// Plain-word terms from the snapshot vocabulary, skipping anything the
/// boolean grammar would read as an operator.
fn pick_terms(state: &ServeState, n: usize) -> Vec<String> {
    let len = state.terms.len();
    assert!(len > 0, "empty vocabulary");
    let mut out = Vec::new();
    for k in 0..len * 2 {
        let t = state.terms.get((len / 7 + k) % len);
        if t.len() >= 2
            && t.chars().all(|c| c.is_ascii_alphanumeric())
            && !matches!(t, "and" | "or" | "not")
            && !out.iter().any(|o| o == t)
        {
            out.push(t.to_string());
            if out.len() == n {
                return out;
            }
        }
    }
    panic!("not enough usable terms in vocabulary ({len} total)");
}

/// A mixed-kind target list exercising every route.
fn targets(state: &ServeState) -> Vec<String> {
    let t = pick_terms(state, 6);
    vec![
        format!("/term?t={}", t[0]),
        format!("/term?t={}&top=3", t[1]),
        format!("/query?q={}+AND+{}", t[0], t[2]),
        format!("/query?q={}+OR+{}&top=7", t[3], t[4]),
        format!("/search?q={}+{}&top=5", t[2], t[5]),
        "/cluster?c=0&top=8".to_string(),
        "/rect?x0=-1e6&y0=-1e6&x1=1e6&y1=1e6&top=20".to_string(),
    ]
}

/// The single-shot path: what `vaengine query --json` prints.
fn oracle(state: &ServeState, target: &str) -> String {
    let (path, params) = split_target(target);
    let req = ServeRequest::parse(path, &params).expect("oracle parse");
    execute(state, &req).expect("oracle execute")
}

/// Send raw bytes, return the response status (0 when unparseable).
fn raw_status(addr: SocketAddr, bytes: &[u8]) -> u16 {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(TIMEOUT)).unwrap();
    s.write_all(bytes).expect("write");
    let mut buf = Vec::new();
    s.read_to_end(&mut buf).expect("read");
    http::parse_response(&buf).map(|r| r.status).unwrap_or(0)
}

#[test]
fn concurrent_served_bodies_match_single_shot_bodies() {
    let (state, server, addr, path) = start("concurrent", 4);
    let health = http::get(addr, "/healthz", TIMEOUT).unwrap();
    assert_eq!(health.status, 200);
    assert_eq!(health.body, "ok\n");

    let ts = targets(&state);
    let want: Vec<String> = ts.iter().map(|t| oracle(&state, t)).collect();
    let clients = 8;
    const FLIPS: u64 = 8;
    // The herd keeps firing until the last flip has landed, then makes
    // one more full pass, so every swap has requests on both sides.
    let answered = AtomicU64::new(0);
    let flipping = AtomicBool::new(true);
    let herd_ready = Barrier::new(clients + 1);
    std::thread::scope(|s| {
        for _ in 0..clients {
            s.spawn(|| {
                herd_ready.wait();
                let mut last_pass = false;
                while !last_pass {
                    last_pass = !flipping.load(Ordering::SeqCst);
                    for (t, w) in ts.iter().zip(&want) {
                        let resp = http::get(addr, t, TIMEOUT).expect(t);
                        assert_eq!(resp.status, 200, "{t}: {}", resp.body);
                        assert_eq!(&resp.body, w, "served body diverged for {t}");
                        assert_eq!(resp.header("content-type"), Some("application/json"));
                        answered.fetch_add(1, Ordering::SeqCst);
                    }
                }
            });
        }
        // Hot swaps under load: each flip installs a freshly loaded,
        // equal-content state of the next generation (what an ingest
        // generation flip does, minus new documents) and then waits for
        // the herd to be answered at least once more before the next.
        herd_ready.wait();
        for generation in 1..=FLIPS {
            let mut next = ServeState::load(&path).expect("reload snapshot");
            next.generation = generation;
            server.swap_state(Arc::new(next));
            let (seen, since) = (answered.load(Ordering::SeqCst), Instant::now());
            while answered.load(Ordering::SeqCst) == seen {
                assert!(since.elapsed() < TIMEOUT, "herd stopped answering");
                std::thread::yield_now();
            }
        }
        flipping.store(false, Ordering::SeqCst);
    });
    assert_eq!(server.generation(), FLIPS);

    let summary = server.shutdown();
    assert_eq!(summary.served, 1 + answered.load(Ordering::SeqCst));
    assert_eq!(summary.errors, 0);
    assert_eq!(summary.rejected_429, 0);
    // 8 clients over only 7 distinct cache keys per epoch: almost
    // everything after the first pass of an epoch is a hit.
    assert!(summary.cache.hits > 0, "no cache hits: {:?}", summary.cache);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn second_identical_query_is_served_from_cache() {
    let (state, server, addr, path) = start("cache", 2);
    let term = &pick_terms(&state, 1)[0];
    let target = format!("/search?q={term}");

    let first = http::get(addr, &target, TIMEOUT).unwrap();
    assert_eq!(first.status, 200);
    let m1 = http::get(addr, "/metrics", TIMEOUT).unwrap();
    let v1 = inspire_trace::json::parse(&m1.body).expect("metrics parse");
    let hits_before = v1
        .get("cache")
        .and_then(|c| c.get("hits"))
        .and_then(|h| h.as_f64())
        .unwrap();

    let second = http::get(addr, &target, TIMEOUT).unwrap();
    assert_eq!(second.status, 200);
    assert_eq!(second.body, first.body, "cached body diverged");
    // Another spelling of the same tokens is another body (the text is
    // echoed): it misses the cache and gets its own answer.
    let upper = term.to_ascii_uppercase();
    let spelled = format!("/search?q={upper}");
    let third = http::get(addr, &spelled, TIMEOUT).unwrap();
    let params = [("q".to_string(), upper)];
    let own = execute(&state, &ServeRequest::parse("/search", &params).unwrap()).unwrap();
    assert_eq!(third.body, own, "another spelling was served a cached body");
    assert_ne!(third.body, first.body);

    let m2 = http::get(addr, "/metrics", TIMEOUT).unwrap();
    let v2 = inspire_trace::json::parse(&m2.body).expect("metrics parse");
    let cache = v2.get("cache").unwrap();
    let hits_after = cache.get("hits").and_then(|h| h.as_f64()).unwrap();
    assert_eq!(hits_after, hits_before + 1.0);
    assert!(cache.get("hit_rate").and_then(|h| h.as_f64()).unwrap() > 0.0);
    // Per-kind latency histograms cover the three /search requests.
    let hists = v2.get("histograms").and_then(|h| h.as_arr()).unwrap();
    let search = hists
        .iter()
        .find(|h| h.get("name").and_then(|n| n.as_str()) == Some("serve_search_seconds"))
        .expect("serve_search_seconds histogram");
    assert_eq!(search.get("count").and_then(|c| c.as_f64()), Some(3.0));
    assert!(search.get("p50_ns").and_then(|p| p.as_f64()).unwrap() > 0.0);
    assert!(
        search.get("p99_ns").and_then(|p| p.as_f64()).unwrap()
            >= search.get("p50_ns").and_then(|p| p.as_f64()).unwrap()
    );

    let summary = server.shutdown();
    assert_eq!(summary.cache.hits, hits_before as u64 + 1);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn slow_log_captures_an_induced_slow_query() {
    let (state, server, addr, path) = start("slow", 2);

    // Induce the slowest query this snapshot can serve: cold cache, a
    // wide OR over many vocabulary terms, large top.
    let terms = pick_terms(&state, 8);
    let target = format!("/query?q={}&top=1000", terms.join("+OR+"));
    let resp = http::get(addr, &target, TIMEOUT).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    // A couple of unremarkable requests around it.
    assert_eq!(http::get(addr, "/healthz", TIMEOUT).unwrap().status, 200);
    let cheap = format!("/term?t={}&top=1", terms[0]);
    assert_eq!(http::get(addr, &cheap, TIMEOUT).unwrap().status, 200);

    let slow = http::get(addr, "/debug/slow", TIMEOUT).unwrap();
    assert_eq!(slow.status, 200);
    assert_eq!(slow.header("content-type"), Some("application/json"));
    let v = inspire_trace::json::parse(&slow.body).expect("slow JSON parses");
    assert!(v.get("retained").and_then(|x| x.as_f64()).unwrap() >= 1.0);
    let entries = v.get("slow").and_then(|s| s.as_arr()).unwrap();
    let tl = entries
        .iter()
        .find(|t| t.get("detail").and_then(|d| d.as_str()) == Some(target.as_str()))
        .expect("induced slow query retained in /debug/slow");
    assert_eq!(tl.get("status").and_then(|x| x.as_f64()), Some(200.0));
    assert_eq!(
        tl.get("cache_hit"),
        Some(&inspire_trace::json::Value::Bool(false)),
        "cold-cache query must be a miss"
    );
    // Per-stage micros must account for the request: the stage sum is
    // within 10% of the measured wall total (small fixed gaps — cache
    // key build, registry observe — are all that's uncovered).
    let total = tl.get("total_us").and_then(|x| x.as_f64()).unwrap();
    let stages = tl.get("stages").expect("stages object");
    let stage_sum: f64 = match stages {
        inspire_trace::json::Value::Obj(m) => m.values().filter_map(|v| v.as_f64()).sum(),
        other => panic!("stages not an object: {other:?}"),
    };
    assert!(total > 0.0);
    assert!(
        (total - stage_sum).abs() <= total * 0.10 + 200.0,
        "stage micros {stage_sum} vs wall total {total}"
    );
    for name in [
        "parse",
        "cache_probe",
        "postings_decode",
        "rank_merge",
        "serialize",
    ] {
        assert!(
            stages.get(name).and_then(|x| x.as_f64()).is_some(),
            "missing stage {name}"
        );
    }

    // The Chrome-trace export of the same ring validates structurally.
    let chrome = http::get(addr, "/debug/slow?format=chrome", TIMEOUT).unwrap();
    assert_eq!(chrome.status, 200);
    let sum = inspire_trace::chrome::validate_chrome_json(&chrome.body)
        .expect("slow-log chrome trace validates");
    assert!(sum.lanes >= 1);
    assert!(sum.spans > sum.lanes, "each lane has request + stage spans");

    server.shutdown();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn prometheus_exposition_negotiates_by_format_param() {
    let (state, server, addr, path) = start("prom", 2);
    let term = &pick_terms(&state, 1)[0];
    assert_eq!(
        http::get(addr, &format!("/search?q={term}"), TIMEOUT)
            .unwrap()
            .status,
        200
    );

    // Default stays JSON — the CLI ≡ HTTP tests byte-compare this shape.
    let json = http::get(addr, "/metrics", TIMEOUT).unwrap();
    assert_eq!(json.header("content-type"), Some("application/json"));
    inspire_trace::json::parse(&json.body).expect("JSON metrics parse");

    let prom = http::get(addr, "/metrics?format=prom", TIMEOUT).unwrap();
    assert_eq!(prom.status, 200);
    assert_eq!(
        prom.header("content-type"),
        Some("text/plain; version=0.0.4")
    );
    inspire_trace::metrics::validate_prometheus(
        &prom.body,
        &[
            "serve_requests_total",
            "serve_errors_total",
            "serve_cache_hits_total",
            "serve_cache_misses_total",
            "serve_uptime_seconds",
            "snapshot_generation",
            "serve_search_seconds",
            "serve_request_seconds",
        ],
    )
    .unwrap_or_else(|e| panic!("{e} in prom exposition:\n{}", prom.body));

    server.shutdown();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn malformed_requests_get_clean_error_responses() {
    let (_state, server, addr, path) = start("errors", 2);

    assert_eq!(http::get(addr, "/nope", TIMEOUT).unwrap().status, 404);
    assert_eq!(http::get(addr, "/term", TIMEOUT).unwrap().status, 400);
    assert_eq!(
        http::get(addr, "/rect?x0=nan&y0=0&x1=1&y1=1", TIMEOUT)
            .unwrap()
            .status,
        400
    );
    assert_eq!(
        http::get(addr, "/term?t=x&top=0", TIMEOUT).unwrap().status,
        400
    );
    // Error bodies are parseable JSON with the status echoed.
    let resp = http::get(addr, "/cluster?c=999999", TIMEOUT).unwrap();
    assert_eq!(resp.status, 400);
    let v = inspire_trace::json::parse(&resp.body).expect("error body parses");
    assert_eq!(v.get("status").and_then(|s| s.as_f64()), Some(400.0));

    // Below the parser: garbage request lines, wrong methods, oversized
    // heads. The server must answer with a status, never hang or die.
    assert_eq!(raw_status(addr, b"BLARG\r\n\r\n"), 400);
    assert_eq!(raw_status(addr, b"GET /healthz SMTP/1.0\r\n\r\n"), 400);
    assert_eq!(raw_status(addr, b"POST /term?t=x HTTP/1.1\r\n\r\n"), 405);
    let mut huge = b"GET /healthz HTTP/1.1\r\n".to_vec();
    while huge.len() <= http::MAX_HEAD_BYTES {
        huge.extend_from_slice(b"X-Filler: aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\r\n");
    }
    assert_eq!(raw_status(addr, &huge), 413);

    // And it still serves fine afterwards.
    assert_eq!(http::get(addr, "/healthz", TIMEOUT).unwrap().status, 200);
    let summary = server.shutdown();
    assert_eq!(summary.errors, 9);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn full_queue_answers_429_with_retry_after() {
    let path = build_snapshot("saturated");
    let state = Arc::new(ServeState::load(&path).expect("load snapshot"));
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        queue_depth: 1,
        // The idle connections below are closed by the test, not timed out.
        read_timeout: Duration::from_secs(60),
        ..ServeConfig::default()
    };
    let server = Server::start(state, &cfg).expect("start server");
    let addr = server.local_addr();
    // The `/metrics` document, read in process: over HTTP it would
    // itself queue behind the pinned worker.
    let requests = |key: &str| -> f64 {
        let v = inspire_trace::json::parse(&server.metrics_json()).expect("metrics parse");
        let counter = v.get("requests").and_then(|r| r.get(key));
        counter.and_then(|x| x.as_f64()).expect(key)
    };
    let wait_for = |key: &str, want: f64| {
        let since = Instant::now();
        while requests(key) != want {
            assert!(since.elapsed() < TIMEOUT, "{key} never reached {want}");
            std::thread::yield_now();
        }
    };

    // A connection that sends nothing pins the only worker in its head
    // read; a second one then fills the one-slot queue. The listener
    // hands connections over in handshake order, so the third is
    // accepted after the second is queued and finds the queue full.
    let pin = TcpStream::connect(addr).expect("connect pin");
    wait_for("in_flight", 1.0);
    let fill = TcpStream::connect(addr).expect("connect fill");
    let resp = http::get(addr, "/healthz", TIMEOUT).expect("429 response delivered");
    assert_eq!(resp.status, 429, "{}", resp.body);
    assert_eq!(resp.header("retry-after"), Some("1"));
    assert_eq!(resp.header("content-type"), Some("application/json"));
    let v = inspire_trace::json::parse(&resp.body).expect("429 body parses");
    assert_eq!(v.get("status").and_then(|s| s.as_f64()), Some(429.0));
    assert!(v.get("error").and_then(|e| e.as_str()).is_some());
    assert_eq!(requests("rejected_429"), 1.0);

    // Closing the idle connections ends both head reads (each a 400 to
    // nobody); with the worker free again a normal request is served.
    drop(pin);
    drop(fill);
    wait_for("errors", 2.0);
    assert_eq!(http::get(addr, "/healthz", TIMEOUT).unwrap().status, 200);

    let summary = server.shutdown();
    assert_eq!(summary.rejected_429, 1);
    assert_eq!(summary.errors, 2);
    assert_eq!(summary.served, 1);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn graceful_shutdown_drains_and_frees_the_port() {
    let (state, server, addr, path) = start("shutdown", 2);
    let ts = targets(&state);
    for t in &ts {
        assert_eq!(http::get(addr, t, TIMEOUT).unwrap().status, 200);
    }
    let summary = server.shutdown();
    assert_eq!(summary.served, ts.len() as u64);
    assert_eq!(summary.errors, 0);

    // The listener is gone: the exact port rebinds cleanly.
    let rebind = std::net::TcpListener::bind(addr);
    assert!(rebind.is_ok(), "port still held after shutdown: {rebind:?}");
    let _ = std::fs::remove_file(&path);
}

/// A head that arrives one byte per segment is read and answered like
/// any other, and one that never ends is cut off at the limit.
#[test]
fn dripped_heads_are_answered_and_bounded() {
    let (state, server, addr, path) = start("drip", 1);
    let drip = |bytes: &[u8]| -> http::Response {
        let mut s = TcpStream::connect(addr).expect("connect");
        s.set_nodelay(true).unwrap();
        s.set_read_timeout(Some(TIMEOUT)).unwrap();
        for b in bytes {
            s.write_all(std::slice::from_ref(b))
                .expect("write one byte");
        }
        let mut buf = Vec::new();
        s.read_to_end(&mut buf).expect("read");
        http::parse_response(&buf).expect("response parses")
    };

    let target = &targets(&state)[4];
    assert!(target.starts_with("/search"), "{target}");
    let head = format!("GET {target} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n");
    let resp = drip(head.as_bytes());
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert_eq!(resp.body, oracle(&state, target));

    // Exactly MAX_HEAD_BYTES bytes and no terminator among them.
    let mut endless = b"GET /healthz HTTP/1.1\r\nX-Filler: ".to_vec();
    endless.resize(http::MAX_HEAD_BYTES, b'a');
    assert_eq!(drip(&endless).status, 413);

    // The only worker is still there for the next request.
    assert_eq!(http::get(addr, "/healthz", TIMEOUT).unwrap().status, 200);
    let summary = server.shutdown();
    assert_eq!((summary.served, summary.errors), (2, 1));
    let _ = std::fs::remove_file(&path);
}

/// `shutdown()` on another thread, its summary handed back through a
/// channel so that a shutdown that never returns fails the test instead
/// of hanging it.
fn shutdown_in_background(server: Server) -> std::sync::mpsc::Receiver<ServeSummary> {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || tx.send(server.shutdown()));
    rx
}

/// The accept thread blocks in `accept`; a server no client ever
/// connected to must still notice shutdown, on a loopback and on a
/// wildcard bind alike.
#[test]
fn idle_server_shuts_down_at_once_and_frees_its_port() {
    let path = build_snapshot("idle");
    let state = Arc::new(ServeState::load(&path).expect("load snapshot"));
    for bind in ["127.0.0.1:0", "0.0.0.0:0"] {
        let cfg = ServeConfig {
            addr: bind.to_string(),
            workers: 2,
            ..ServeConfig::default()
        };
        let server = Server::start(Arc::clone(&state), &cfg).expect("start server");
        let addr = server.local_addr();
        let summary = shutdown_in_background(server)
            .recv_timeout(Duration::from_secs(1))
            .unwrap_or_else(|e| panic!("{bind}: idle shutdown took over a second: {e}"));
        assert_eq!(
            (summary.served, summary.errors, summary.rejected_429),
            (0, 0, 0),
            "{bind}: the wake connection was counted"
        );
        let rebind = std::net::TcpListener::bind(addr);
        assert!(rebind.is_ok(), "{bind}: port still held: {rebind:?}");
    }
    let _ = std::fs::remove_file(&path);
}

/// Shutdown with the only worker pinned and the one-slot queue full: the
/// connection that wakes the accept thread would be a 429 if it were
/// looked at. It is not — the counters are exactly what this test's own
/// clients caused — and the queued connection is still answered.
#[test]
fn shutdown_with_a_full_queue_counts_only_real_clients() {
    let path = build_snapshot("fullstop");
    let state = Arc::new(ServeState::load(&path).expect("load snapshot"));
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        queue_depth: 1,
        // The pinning connection is closed by the test, not timed out.
        read_timeout: Duration::from_secs(60),
        ..ServeConfig::default()
    };
    let server = Server::start(state, &cfg).expect("start server");
    let addr = server.local_addr();
    let in_flight = || -> f64 {
        let v = inspire_trace::json::parse(&server.metrics_json()).expect("metrics parse");
        let gauge = v.get("requests").and_then(|r| r.get("in_flight"));
        gauge.and_then(|x| x.as_f64()).expect("in_flight")
    };

    // As in the 429 test: a silent connection pins the worker, a second
    // fills the queue (this one carries a request), and the third's 429
    // proves the second was queued before it.
    let pin = TcpStream::connect(addr).expect("connect pin");
    let since = Instant::now();
    while in_flight() != 1.0 {
        assert!(since.elapsed() < TIMEOUT, "worker never picked up the pin");
        std::thread::yield_now();
    }
    let mut queued = TcpStream::connect(addr).expect("connect queued");
    queued.set_read_timeout(Some(TIMEOUT)).unwrap();
    queued
        .write_all(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
        .expect("write queued request");
    let resp = http::get(addr, "/healthz", TIMEOUT).expect("429 response delivered");
    assert_eq!(resp.status, 429, "{}", resp.body);

    // Shutdown cannot finish while the worker is pinned, but the accept
    // thread goes at once: the port rebinds while the queue is still full.
    let summary = shutdown_in_background(server);
    let since = Instant::now();
    while std::net::TcpListener::bind(addr).is_err() {
        assert!(since.elapsed() < TIMEOUT, "accept thread never woke");
        std::thread::yield_now();
    }
    drop(pin);
    let mut buf = Vec::new();
    queued
        .read_to_end(&mut buf)
        .expect("queued connection answered");
    let resp = http::parse_response(&buf).expect("queued response parses");
    assert_eq!((resp.status, resp.body.as_str()), (200, "ok\n"));

    let summary = summary.recv_timeout(TIMEOUT).expect("shutdown returns");
    assert_eq!(summary.rejected_429, 1);
    assert_eq!(summary.errors, 1, "the pin's 400 to nobody");
    assert_eq!(summary.served, 1, "the queued /healthz");
    let _ = std::fs::remove_file(&path);
}
