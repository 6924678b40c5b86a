//! Access-log schema stability under `INSPIRE_LOG=info`.
//!
//! This test binary sets `INSPIRE_LOG=info` *before any logging call*
//! (the trace crate reads the variable once into a `OnceLock`), so it
//! lives alone in its own integration-test binary: the rest of the
//! suite asserts the logging-disabled behavior and must not share a
//! process with this one.

use corpus::CorpusSpec;
use inspire_core::pipeline::run_engine;
use inspire_core::EngineConfig;
use inspire_serve::{http, ServeConfig, ServeState, Server};
use inspire_trace::json::parse as parse_access_line;
use inspire_trace::json::Value;
use perfmodel::CostModel;
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

const TIMEOUT: Duration = Duration::from_secs(10);

fn build_snapshot() -> PathBuf {
    let path = std::env::temp_dir().join(format!("va-accesslog-{}.isnap", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let src = CorpusSpec {
        source_bytes: 8 * 1024,
        ..CorpusSpec::pubmed(128 * 1024, 37)
    }
    .generate();
    let cfg = EngineConfig {
        snapshot_out: Some(path.clone()),
        ..EngineConfig::for_testing()
    };
    run_engine(2, Arc::new(CostModel::zero()), &src, &cfg);
    path
}

fn pick_term(state: &ServeState) -> String {
    let len = state.terms.len();
    for k in 0..len {
        let t = state.terms.get((len / 3 + k) % len);
        if t.len() >= 2
            && t.chars().all(|c| c.is_ascii_alphanumeric())
            && !matches!(t, "and" | "or" | "not")
        {
            return t.to_string();
        }
    }
    panic!("no usable term");
}

/// The exact field set of one access-log line. A schema change here is
/// a breaking change for downstream log pipelines — update DESIGN.md
/// §12 alongside this list.
const FIELDS: [&str; 10] = [
    "bytes",
    "cache_hit",
    "detail",
    "epoch",
    "generation",
    "id",
    "route",
    "stages",
    "status",
    "total_us",
];

#[test]
fn every_request_emits_one_schema_stable_json_line() {
    // Must precede the first call into inspire_trace::log (the level is
    // latched in a OnceLock); this binary holds only this test.
    std::env::set_var("INSPIRE_LOG", "info");

    let path = build_snapshot();
    let state = Arc::new(ServeState::load(&path).expect("load snapshot"));
    let term = pick_term(&state);
    let log_path = std::env::temp_dir().join(format!("va-access-{}.log", std::process::id()));
    let _ = std::fs::remove_file(&log_path);

    let cfg = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        access_log: Some(log_path.clone()),
        ..ServeConfig::default()
    };
    let server = Server::start(Arc::clone(&state), &cfg).expect("start server");
    let addr = server.local_addr();

    // All five query kinds, an admin route, a cache hit, and a 404:
    // every request — success, error, admin — gets exactly one line.
    let targets = [
        format!("/term?t={term}"),
        format!("/query?q={term}"),
        format!("/search?q={term}&top=5"),
        "/cluster?c=0".to_string(),
        "/rect?x0=-1e6&y0=-1e6&x1=1e6&y1=1e6".to_string(),
        "/healthz".to_string(),
        format!("/search?q={term}&top=5"),
        "/nope".to_string(),
    ];
    for t in &targets {
        let _ = http::get(addr, t, TIMEOUT).unwrap();
    }
    server.shutdown();

    let text = std::fs::read_to_string(&log_path).expect("access log exists");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), targets.len(), "one line per request:\n{text}");

    let mut ids = BTreeSet::new();
    let mut by_detail = std::collections::BTreeMap::new();
    for line in &lines {
        let v = parse_access_line(line).unwrap_or_else(|e| panic!("bad line {line:?}: {e}"));
        let Value::Obj(map) = &v else {
            panic!("line is not an object: {line}")
        };
        let keys: Vec<&str> = map.keys().map(|k| k.as_str()).collect();
        assert_eq!(keys, FIELDS, "field set drifted in {line}");
        let id = v.get("id").and_then(|x| x.as_f64()).unwrap();
        assert!(ids.insert(id as u64), "duplicate request id {id}");
        let detail = v
            .get("detail")
            .and_then(|x| x.as_str())
            .unwrap()
            .to_string();
        by_detail.insert(detail, v.clone());
    }

    // Spot-check semantics, not just shape.
    let search = &by_detail[&format!("/search?q={term}&top=5")];
    assert_eq!(search.get("status").and_then(|x| x.as_f64()), Some(200.0));
    assert_eq!(
        search.get("route").and_then(|x| x.as_str()),
        Some("/search")
    );
    assert!(search.get("bytes").and_then(|x| x.as_f64()).unwrap() > 0.0);
    assert!(search.get("total_us").and_then(|x| x.as_f64()).unwrap() > 0.0);
    // The repeated /search was answered from cache (last write to the
    // by_detail slot is the second, cache-hit request).
    assert_eq!(search.get("cache_hit"), Some(&Value::Bool(true)));
    assert!(
        search
            .get("stages")
            .and_then(|s| s.get("cache_probe"))
            .is_some(),
        "hit still records its cache_probe stage"
    );

    let miss = &by_detail[&format!("/term?t={term}")];
    assert_eq!(miss.get("cache_hit"), Some(&Value::Bool(false)));
    assert!(
        miss.get("stages")
            .and_then(|s| s.get("rank_merge"))
            .is_some(),
        "miss records execution stages"
    );

    let not_found = &by_detail["/nope"];
    assert_eq!(
        not_found.get("status").and_then(|x| x.as_f64()),
        Some(404.0)
    );
    let health = &by_detail["/healthz"];
    assert_eq!(health.get("status").and_then(|x| x.as_f64()), Some(200.0));
    assert_eq!(health.get("bytes").and_then(|x| x.as_f64()), Some(3.0));

    let _ = std::fs::remove_file(&log_path);
    let _ = std::fs::remove_file(&path);
}
