//! The server follows the ingest directory its state was loaded from.
//!
//! A [`Server`] started on [`load_live_state`] runs one watcher thread
//! that reads the directory's manifest every 10 ms and swaps to each new
//! generation. These tests commit through [`IngestDir`] beside a running
//! server and compare what it serves with the in-process [`execute`]
//! oracle over a freshly loaded state. A manifest the watcher refuses is
//! counted once in `ingest.reload_failures` (the same event it logs once)
//! while the old generation keeps serving. A server started on a plain
//! snapshot follows nothing, even after a live state is swapped into it:
//! that is how the benchmark drives its flips.

use corpus::{CorpusSpec, Source, SourceSet};
use inspire_core::pipeline::run_engine;
use inspire_core::query::SearchIndex;
use inspire_core::EngineConfig;
use inspire_ingest::IngestDir;
use inspire_serve::request::split_target;
use inspire_serve::{
    execute, http, load_live_state, ServeConfig, ServeRequest, ServeState, Server,
};
use inspire_trace::json::{parse, Value};
use perfmodel::CostModel;
use std::io::Write;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

const TIMEOUT: Duration = Duration::from_secs(10);
/// The watcher's poll period, and how many polls a "nothing more
/// happens" check waits out.
const POLL: Duration = Duration::from_millis(10);
const POLLS: u32 = 30;

/// A scratch root holding a base snapshot (`base.isnap`) and an ingest
/// directory over it (`live`), with three batches not yet committed.
fn live_dir(tag: &str) -> (PathBuf, IngestDir, Vec<Source>) {
    let root = std::env::temp_dir().join(format!("va-follow-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).unwrap();
    let set = CorpusSpec {
        source_bytes: 8 * 1024,
        ..CorpusSpec::pubmed(128 * 1024, 29)
    }
    .generate();
    let (base_sources, batches) = set.sources.split_at(set.sources.len() - 3);
    let base = root.join("base.isnap");
    let cfg = EngineConfig {
        snapshot_out: Some(base.clone()),
        ..EngineConfig::for_testing()
    };
    let base_set = SourceSet {
        sources: base_sources.to_vec(),
    };
    run_engine(1, Arc::new(CostModel::zero()), &base_set, &cfg);
    let ing = IngestDir::create(&root.join("live"), Some(&base)).unwrap();
    (root, ing, batches.to_vec())
}

fn start(state: ServeState) -> Server {
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        ..ServeConfig::default()
    };
    Server::start(Arc::new(state), &cfg).expect("start server")
}

fn body(server: &Server, target: &str) -> String {
    let resp = http::get(server.local_addr(), target, TIMEOUT).expect(target);
    assert_eq!(resp.status, 200, "{target}: {}", resp.body);
    resp.body
}

fn reload_failures(server: &Server) -> f64 {
    let metrics = parse(server.metrics_json().trim_end()).unwrap();
    let ingest = metrics.get("ingest").expect("an ingest group");
    ingest
        .get("reload_failures")
        .and_then(Value::as_f64)
        .unwrap()
}

/// A `/term` target for a word whose document frequency grows from `old`
/// to `new`, with the body `new` answers for it.
fn grown(old: &ServeState, new: &ServeState) -> (String, String) {
    let df = |s: &ServeState, t: &str| s.term_id(t).map_or(0, |id| s.df(id));
    let term = (0..new.terms.len())
        .map(|i| new.terms.get(i))
        .find(|t| t.chars().all(|c| c.is_ascii_alphabetic()) && df(new, t) > df(old, t))
        .expect("a batch adds postings to some word");
    let target = format!("/term?t={term}&top=10000");
    let (path, params) = split_target(&target);
    let want = execute(new, &ServeRequest::parse(path, &params).unwrap()).unwrap();
    (target, want)
}

/// Wait up to 2 s for `server` to serve `generation` and `want` at
/// `target`.
fn served_within_2s(server: &Server, generation: u64, target: &str, want: &str) {
    let started = Instant::now();
    while server.generation() != generation || body(server, target) != want {
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "generation {generation} not served within 2 s (serving {})",
            server.generation()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn a_server_over_an_ingest_directory_follows_it() {
    let (root, mut ing, batches) = live_dir("follow");
    let live = ing.dir().to_path_buf();
    let old = load_live_state(&live).unwrap();
    let server = start(load_live_state(&live).unwrap());

    // A commit is served without a swap from outside.
    ing.append(batches[0].clone()).unwrap();
    let next = load_live_state(&live).unwrap();
    let (target, want) = grown(&old, &next);
    served_within_2s(&server, next.generation, &target, &want);
    assert_eq!(reload_failures(&server), 0.0);

    // A garbage line after the manifest's crc line: refused and counted
    // once, however often it is polled, while the old body is served.
    let mut manifest = (std::fs::OpenOptions::new().append(true))
        .open(live.join("MANIFEST"))
        .unwrap();
    manifest.write_all(b"garbage\n").unwrap();
    let started = Instant::now();
    while reload_failures(&server) == 0.0 {
        assert!(started.elapsed() < Duration::from_secs(2), "never refused");
        std::thread::sleep(Duration::from_millis(5));
    }
    std::thread::sleep(POLL * POLLS);
    assert_eq!(reload_failures(&server), 1.0);
    assert_eq!(server.generation(), next.generation);
    assert_eq!(body(&server, &target), want);

    // A valid next generation, published over the garbage, is followed.
    ing.append(batches[1].clone()).unwrap();
    let after = load_live_state(&live).unwrap();
    let (target, want) = grown(&next, &after);
    served_within_2s(&server, after.generation, &target, &want);
    assert_eq!(reload_failures(&server), 1.0);

    let started = Instant::now();
    server.shutdown();
    assert!(started.elapsed() < Duration::from_secs(1), "slow shutdown");
    let _ = std::fs::remove_dir_all(&root);
}

/// The benchmark's flip: a server started on a plain snapshot is handed
/// a live state through `swap_state`. It starts no watcher, so later
/// commits stay unseen until the next swap.
#[test]
fn a_live_state_swapped_into_a_snapshot_server_is_never_followed() {
    let (root, mut ing, batches) = live_dir("swapped");
    let server = start(ServeState::load(&root.join("base.isnap")).unwrap());
    ing.append(batches[0].clone()).unwrap();
    let live = load_live_state(ing.dir()).unwrap();
    let generation = live.generation;
    server.swap_state(Arc::new(live));
    ing.append(batches[1].clone()).unwrap();
    std::thread::sleep(POLL * POLLS);
    assert_eq!(server.generation(), generation);
    assert_eq!(reload_failures(&server), 0.0);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}
