//! `vaengine serve` as a process, over the wire: it serves the bytes
//! `vaengine query --json` prints, its metrics, slow log and access log
//! keep their schemas, SIGTERM drains it and frees its port, and over an
//! ingest directory it follows every commit the `vaengine ingest`,
//! `compact` and `migrate` commands make, without a restart.
//!
//! Every corpus here is the binary's own `generate` output (PubMed,
//! 256 KiB), every search term is taken from the served vocabulary, and
//! every server binds port 0 behind the harness's kill-on-drop guard.

use inspire_trace::json::{self, Value};
use std::io::Write;
use std::time::{Duration, Instant};
use visual_analytics::serve::ServeState;

mod common;
use common::{
    copy_dir, flip_byte, frequent_terms, generate_pubmed, query_json, refusal, words, Scratch,
};

/// Families every scrape exposes, whatever backs the server.
const SERVE_FAMILIES: [&str; 6] = [
    "serve_requests_total",
    "serve_errors_total",
    "serve_cache_hits_total",
    "serve_cache_misses_total",
    "serve_uptime_seconds",
    "snapshot_generation",
];

/// Families an ingest-directory server adds, from the metrics sidecar.
const INGEST_FAMILIES: [&str; 2] = ["seal_latency_seconds", "compaction_duration_seconds"];

/// The number at `path` (object keys, outermost first) in `doc`.
fn number(doc: &Value, path: &[&str]) -> f64 {
    let found = path.iter().try_fold(doc, |v, key| v.get(key));
    found
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("no number at {path:?}"))
}

/// Over a Final snapshot: every route's served body equals the CLI's,
/// for ranked, cached, respelled and similarity requests; a refusal is
/// the same in both CLI modes and over HTTP; `/metrics` (JSON and
/// Prometheus), `/debug/slow` (JSON and Chrome) and the access log
/// keep their schemas; and SIGTERM drains the server and frees its port.
#[test]
fn served_bodies_equal_the_cli_and_sigterm_drains_the_server() {
    let dir = Scratch::new("cli-serve");
    generate_pubmed(&dir, "42");
    dir.vaengine(&words(
        "snapshot --input corpus --procs 4 --out engine.isnap",
    ))
    .ok();
    let state = ServeState::load(&dir.join("engine.isnap")).unwrap();
    let t = frequent_terms(&state, 4);
    let line = "--snapshot engine.isnap --workers 4 --access-log access.log --slow-log-n 16";
    let server = dir.serve(&words(line));
    assert_eq!(server.body("/healthz"), "ok\n");

    // The served body of `target`, once it equals what the CLI prints.
    let same = |target: &str, cli: &[&str]| {
        let served = server.body(target);
        let printed = query_json(&dir, &[&["--snapshot", "engine.isnap"], cli].concat());
        assert_eq!(served, printed, "{target}");
        served
    };
    let either = format!("{} OR {}", t[0], t[1]);
    let target = format!("/query?q={}+OR+{}", t[0], t[1]);
    assert_eq!(same(&target, &["--query", &either]), server.body(&target));
    same(
        &format!("/search?q={}+{}", t[0], t[1]),
        &["--search", &t[..2].join(" ")],
    );
    // A repeated token cut to the single best hit, and four terms with a
    // long tail: the document-at-a-time merge and its bounded heap.
    let repeated = format!("{} {} {}", t[0], t[1], t[0]);
    let target = format!("/search?q={}+{}+{}&top=1", t[0], t[1], t[0]);
    let top1 = same(&target, &["--search", &repeated, "--top", "1"]);
    let target = format!("/search?q={}&top=50", t.join("+"));
    let top50 = same(&target, &["--search", &t.join(" "), "--top", "50"]);
    for body in [top1, top50] {
        assert!(body.contains("\"score\":"), "{body}");
    }
    // Text that tokenizes alike but reads differently is its own
    // request: once the upper-case spelling is cached, the comma
    // spelling still gets its own body.
    let upper = t[0].to_ascii_uppercase();
    same(
        &format!("/search?q={upper}+{}", t[1]),
        &["--search", &format!("{upper} {}", t[1])],
    );
    let comma = format!("{},{}", t[0], t[1]);
    same(&format!("/search?q={comma}"), &["--search", &comma]);

    // `/similar` runs the IVF and quantized-signature path, by document
    // and by free text. A cluster label is made of topic terms, which
    // land in signature space, so its words must find documents.
    let by_doc = same("/similar?doc=0", &["--similar", "0"]);
    assert!(by_doc.contains("\"kind\":\"similar\""), "{by_doc}");
    let cluster = json::parse(&server.body("/cluster?c=0&top=1")).unwrap();
    let label = cluster.get("label").and_then(Value::as_str).unwrap();
    let words: Vec<&str> = label.split(", ").collect();
    let target = format!("/similar?text={}&nprobe=4", words.join("+"));
    let text = words.join(" ");
    let by_text = same(&target, &["--similar-text", &text, "--nprobe", "4"]);
    let upper = words[0].to_ascii_uppercase();
    let target = format!("/similar?text={upper}+{}", words[1]);
    same(
        &target,
        &["--similar-text", &format!("{upper} {}", words[1])],
    );
    let comma = format!("{},{}", words[0], words[1]);
    let by_comma = same(
        &format!("/similar?text={comma}"),
        &["--similar-text", &comma],
    );
    for body in [by_text, by_comma] {
        assert!(body.contains("\"hits\":[{\"doc\":"), "{body}");
    }

    // A refused query fails alike in both CLI modes, and a flag the
    // server's validator refuses fails with the message of its 400.
    assert!(refusal(&dir, &["--cluster", "999"]).contains("unknown cluster 999"));
    let top0 = refusal(&dir, &["--search", &t[0], "--top", "0"]);
    let refused = server.get(&format!("/search?q={}&top=0", t[0]));
    assert_eq!(refused.status, 400, "{}", refused.body);
    let error = json::parse(&refused.body).unwrap();
    let error = error.get("error").and_then(Value::as_str).unwrap();
    assert_eq!(top0, format!("query failed: {error}"));

    // The second identical /query was a cache hit; the one error is the
    // top=0 refusal above.
    let metrics = server.get("/metrics");
    assert_eq!(metrics.header("content-type"), Some("application/json"));
    let metrics = json::parse(&metrics.body).unwrap();
    assert!(number(&metrics, &["cache", "hits"]) >= 1.0);
    assert_eq!(number(&metrics, &["requests", "errors"]), 1.0);
    let histograms = metrics.get("histograms").and_then(Value::as_arr).unwrap();
    let query = (histograms.iter())
        .find(|h| h.get("name").and_then(Value::as_str) == Some("serve_query_seconds"))
        .expect("serve_query_seconds");
    assert!(number(query, &["count"]) >= 2.0);
    let [p50, p95, p99] = ["p50_ns", "p95_ns", "p99_ns"].map(|k| number(query, &[k]));
    assert!(0.0 < p50 && p50 <= p95 && p95 <= p99, "{p50} {p95} {p99}");

    let prom = server.get("/metrics?format=prom");
    let kind = prom.header("content-type");
    assert_eq!(kind, Some("text/plain; version=0.0.4"));
    inspire_trace::metrics::validate_prometheus(&prom.body, &SERVE_FAMILIES)
        .unwrap_or_else(|e| panic!("{e}:\n{}", prom.body));

    let slow = json::parse(&server.body("/debug/slow")).unwrap();
    assert!(number(&slow, &["retained"]) >= 1.0);
    for timeline in slow.get("slow").and_then(Value::as_arr).unwrap() {
        for key in ["id", "route", "status", "total_us", "spans"] {
            assert!(timeline.get(key).is_some(), "slow timeline missing {key}");
        }
        let spans = timeline.get("spans").and_then(Value::as_arr).unwrap();
        let staged: f64 = spans.iter().map(|s| number(s, &["dur_us"])).sum();
        assert!(
            staged <= number(timeline, &["total_us"]),
            "{staged} µs staged"
        );
    }
    let chrome = server.body("/debug/slow?format=chrome");
    let chrome = inspire_trace::chrome::validate_chrome_json(&chrome).expect("the lanes nest");
    assert!(chrome.spans > 0, "empty chrome trace");

    // The accept thread blocks in accept(2); the main thread's 50 ms
    // signal poll wakes it, so the drain must not wait on it.
    let addr = server.addr;
    let (exit, log) = server.terminate(Duration::from_secs(2));
    assert!(exit.is_some(), "still running 2 s after SIGTERM:\n{log}");
    assert!(log.contains("shutdown signal received"), "{log}");
    assert!(log.contains("drained:"), "{log}");
    let rebind = std::net::TcpListener::bind(addr);
    assert!(rebind.is_ok(), "port still held after SIGTERM: {rebind:?}");

    let access = std::fs::read_to_string(dir.join("access.log")).unwrap();
    assert!(!access.is_empty(), "empty access log");
    for line in access.lines() {
        let record = json::parse(line).unwrap_or_else(|e| panic!("{line}: {e}"));
        let keys = "id route detail status cache_hit generation epoch bytes total_us stages";
        for key in keys.split_whitespace() {
            assert!(record.get(key).is_some(), "{key} missing: {line}");
        }
    }
}

/// The `seg-*.iseg` files of ingest directory `live`, sorted.
fn segments(live: &std::path::Path) -> Vec<String> {
    let mut names: Vec<String> = (std::fs::read_dir(live).unwrap())
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with("seg-") && n.ends_with(".iseg"))
        .collect();
    names.sort();
    names
}

/// An ingest directory driven by the binary alone: three batches over a
/// killed commit's leftovers serve the clean build's bytes; a corrupt
/// segment, a previous-layout directory and swapped segment files are
/// refused by name; compaction changes no answer; and a server over the
/// directory exposes the ingest gauges and families, follows a live
/// delete to the next generation without a restart, leaves the deleted
/// base document out of `/cluster` and `/rect`, and logs a manifest
/// corrupted under it once, by name, and counts it, while it keeps
/// serving.
#[test]
fn an_ingest_directory_is_served_across_recovery_compaction_and_a_live_flip() {
    let dir = Scratch::new("cli-ingest");
    generate_pubmed(&dir, "7");
    let mut names: Vec<String> = (std::fs::read_dir(dir.join("corpus")).unwrap())
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    assert!(names.len() > 56, "{} corpus files", names.len());
    for (i, name) in names.iter().enumerate() {
        let part = match i {
            0..40 => "base",
            40..48 => "b1",
            48..56 => "b2",
            _ => "b3",
        };
        std::fs::create_dir_all(dir.join(part)).unwrap();
        std::fs::copy(dir.join("corpus").join(name), dir.join(part).join(name)).unwrap();
    }
    for (input, out) in [("base", "base.isnap"), ("corpus", "clean.isnap")] {
        let line = format!("snapshot --input {input} --procs 1 --out {out}");
        dir.vaengine(&words(&line)).ok();
    }
    let t = frequent_terms(&ServeState::load(&dir.join("clean.isnap")).unwrap(), 2);
    let (both, pair) = (format!("{} AND {}", t[0], t[1]), t.join(" "));
    let answers = |source: &[&str]| {
        let asked = ["--term", &t[0], "--query", &both, "--search", &pair];
        query_json(&dir, &[source, &asked[..]].concat())
    };
    let clean = answers(&["--snapshot", "clean.isnap"]);
    assert!(clean.contains("\"postings\":"), "{clean}");

    // What a commit killed before its manifest rename leaves: a segment
    // no manifest names and a torn manifest tmp file.
    dir.vaengine(&words("ingest --dir live --base base.isnap"))
        .ok();
    for batch in ["b1", "b2"] {
        dir.vaengine(&words(&format!("ingest --dir live --input {batch}")))
            .ok();
    }
    let live = dir.join("live");
    let first = live.join(&segments(&live)[0]);
    std::fs::copy(first, live.join("seg-999999.iseg")).unwrap();
    std::fs::write(
        live.join("MANIFEST.tmp"),
        "inspire-ingest-manifest v2\ngenera",
    )
    .unwrap();
    let run = dir
        .vaengine(&["ingest", "--dir", "live", "--input", "b3"])
        .ok();
    assert!(
        run.stdout.contains("recovered: 2 strays removed"),
        "{}",
        run.stdout
    );
    assert!(!live.join("seg-999999.iseg").exists() && !live.join("MANIFEST.tmp").exists());
    assert_eq!(answers(&["--ingest-dir", "live"]), clean, "merged view");

    let one_term = |live: &str| dir.vaengine(&["query", "--ingest-dir", live, "--term", &t[0]]);
    copy_dir(&live, &dir.join("live-corrupt"));
    let segment = &segments(&live)[1];
    let path = dir.join("live-corrupt").join(segment);
    flip_byte(&path, std::fs::metadata(&path).unwrap().len() as usize / 2);
    one_term("live-corrupt").refused(segment);

    // The previous layout, from the current manifest: the v1 magic, a
    // sealed-log watermark and its CRC, beside a log that long.
    let v1 = dir.join("live-v1");
    copy_dir(&live, &v1);
    let manifest = std::fs::read_to_string(v1.join("MANIFEST")).unwrap();
    let body = manifest[..manifest.rfind("crc 0x").unwrap()]
        .replacen("manifest v2\n", "manifest v1\n", 1)
        .replacen(
            "\nlast_seal_unix",
            "\nwal_sealed_bytes 64\nlast_seal_unix",
            1,
        );
    let crc = inspire_store::crc32(body.as_bytes());
    std::fs::write(v1.join("MANIFEST"), format!("{body}crc 0x{crc:08x}\n")).unwrap();
    std::fs::write(v1.join("wal.log"), [b'x'; 64]).unwrap();
    one_term("live-v1").refused("vaengine migrate --dir");
    let run = dir.vaengine(&["migrate", "--dir", "live-v1"]).ok();
    assert!(run.stdout.contains("migrated"), "{}", run.stdout);
    assert!(!v1.join("wal.log").exists());
    let run = dir.vaengine(&["migrate", "--dir", "live-v1"]).ok();
    assert!(run.stdout.contains("already current"), "{}", run.stdout);
    assert_eq!(
        answers(&["--ingest-dir", "live-v1"]),
        clean,
        "migrated view"
    );

    // The largest document holding the first term: an ingested batch's.
    let holding = query_json(
        &dir,
        &["--ingest-dir", "live", "--term", &t[0], "--top", "10000"],
    );
    let holding = json::parse(&holding).unwrap();
    let hits = holding.get("hits").and_then(Value::as_arr).unwrap();
    let doc = hits
        .iter()
        .map(|h| number(h, &["doc"]) as u64)
        .max()
        .unwrap();
    let similar = || {
        let doc = doc.to_string();
        query_json(
            &dir,
            &[
                "--ingest-dir",
                "live",
                "--similar-text",
                &pair,
                "--similar",
                &doc,
            ],
        )
    };
    let before = similar();
    assert!(before.contains("\"kind\":\"similar\""), "{before}");

    // Segment files swapped on disk disagree with the manifest.
    let swap = dir.join("live-swap");
    copy_dir(&live, &swap);
    let names = segments(&swap);
    let (a, b) = (swap.join(&names[0]), swap.join(&names[1]));
    std::fs::rename(&a, swap.join("swap.tmp")).unwrap();
    std::fs::rename(&b, &a).unwrap();
    std::fs::rename(swap.join("swap.tmp"), &b).unwrap();
    let refused = dir.vaengine(&["compact", "--dir", "live-swap"]);
    assert_ne!(
        refused.code,
        Some(0),
        "compaction accepted swapped segment files"
    );
    assert!(a.exists() && b.exists());

    let run = dir.vaengine(&["compact", "--dir", "live"]).ok();
    assert!(run.stdout.contains("compacted"), "{}", run.stdout);
    assert!(segments(&live).len() <= 1, "{:?}", segments(&live));
    assert_eq!(answers(&["--ingest-dir", "live"]), clean, "compacted view");
    assert_eq!(similar(), before, "compaction moved a similarity answer");

    let server = dir.serve(&["--ingest-dir", "live", "--workers", "4"]);
    let served = server.body(&format!("/search?q={}+{}", t[0], t[1]));
    assert_eq!(
        served,
        query_json(&dir, &["--snapshot", "clean.isnap", "--search", &pair])
    );
    let ingest = |key: &str| {
        let metrics = json::parse(&server.body("/metrics")).unwrap();
        number(&metrics, &["ingest", key])
    };
    assert_eq!(ingest("segments_open"), 1.0);
    let was = ingest("snapshot_generation");
    assert!(was >= 1.0);
    assert!(ingest("last_seal_unix") > 0.0);
    let prom = server.body("/metrics?format=prom");
    let families = [&SERVE_FAMILIES[..], &INGEST_FAMILIES].concat();
    inspire_trace::metrics::validate_prometheus(&prom, &families)
        .unwrap_or_else(|e| panic!("{e}:\n{prom}"));
    assert!(prom
        .lines()
        .any(|l| l.starts_with("seal_latency_seconds_count")));

    // The server's manifest watch flips to the next generation: a live
    // seal needs no restart.
    dir.vaengine(&["ingest", "--dir", "live", "--delete", "0"])
        .ok();
    let started = Instant::now();
    while ingest("snapshot_generation") <= was {
        let waited = started.elapsed();
        assert!(
            waited < Duration::from_secs(2),
            "generation stuck at {was}:\n{}",
            server.log()
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    // Base document 0, deleted above, leaves its base cluster and the
    // whole plane.
    let whole = "-1e300,-1e300,1e300,1e300";
    let base = query_json(
        &dir,
        &["--snapshot", "base.isnap", "--rect", whole, "--top", "1"],
    );
    let base = json::parse(&base).unwrap();
    let first = &base.get("docs").and_then(Value::as_arr).unwrap()[0];
    assert_eq!(number(first, &["doc"]), 0.0);
    let cluster = (number(first, &["cluster"]) as u64).to_string();
    let cases = [
        (
            format!("/cluster?c={cluster}&top=10000"),
            "--cluster",
            cluster.as_str(),
        ),
        (
            "/rect?x0=-1e300&y0=-1e300&x1=1e300&y1=1e300&top=10000".to_string(),
            "--rect",
            whole,
        ),
    ];
    for (target, flag, value) in cases {
        let served = server.body(&target);
        assert!(served.contains("\"docs\":[{\"doc\":"), "{served}");
        assert!(
            !served.contains("{\"doc\":0,"),
            "{target} lists deleted document 0"
        );
        let printed = query_json(
            &dir,
            &["--ingest-dir", "live", flag, value, "--top", "10000"],
        );
        assert_eq!(served, printed, "{target}");
    }

    // A garbage line appended to the manifest under the running server:
    // the watch logs the refusal once, on one line naming the file and
    // not quoting the garbage, counts it, and keeps answering from the
    // generation it has.
    let target = format!("/search?q={}+{}", t[0], t[1]);
    let kept = server.body(&target);
    let mut manifest = (std::fs::OpenOptions::new().append(true))
        .open(live.join("MANIFEST"))
        .unwrap();
    manifest.write_all(b"garbage\n").unwrap();
    let started = Instant::now();
    while !server.log().contains("MANIFEST") {
        let waited = started.elapsed();
        assert!(
            waited < Duration::from_secs(2),
            "corrupt manifest never logged:\n{}",
            server.log()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    // Twenty more polls of the same corrupt file log nothing more.
    std::thread::sleep(Duration::from_millis(200));
    let log = server.log();
    assert_eq!(log.matches("MANIFEST").count(), 1, "{log}");
    let refusal = log.lines().find(|l| l.contains("MANIFEST")).unwrap();
    assert!(refusal.ends_with("bytes follow the crc line"), "{refusal}");
    assert!(!log.contains("garbage"), "{log}");
    assert_eq!(ingest("reload_failures"), 1.0);
    assert_eq!(server.body(&target), kept);
    let (exit, log) = server.terminate(Duration::from_secs(2));
    assert!(exit.is_some(), "still running 2 s after SIGTERM:\n{log}");
}
