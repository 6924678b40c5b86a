//! The build side of the `vaengine` binary, end to end: what `run` and
//! `snapshot` write, that every checkpoint resumes to the same bytes,
//! and that a damaged, missing or too-early file is refused by name,
//! with an exit status and no panic.
//!
//! Every corpus here is the binary's own `generate` output (PubMed,
//! 256 KiB) and every build runs at P=4.

use std::path::Path;
use visual_analytics::engine::EngineSnapshot;
use visual_analytics::ingest::IngestDir;
use visual_analytics::prelude::*;
use visual_analytics::serve::ServeState;

mod common;
use common::{
    build_snapshot, check_run_report, copy_dir, flip_byte, frequent_terms, generate_pubmed, words,
    Run, Scratch,
};

/// The stage checkpoints a checkpointed build leaves, in stage order.
const CHECKPOINTS: [&str; 4] = [
    "ckpt_scan.isnap",
    "ckpt_index.isnap",
    "ckpt_sig.isnap",
    "ckpt_final.isnap",
];

/// Every file a checkpointed build publishes.
const PUBLISHED: [&str; 5] = [
    "engine.isnap",
    "ckpt/ckpt_scan.isnap",
    "ckpt/ckpt_index.isnap",
    "ckpt/ckpt_sig.isnap",
    "ckpt/ckpt_final.isnap",
];

/// `corpus/` (seed 42), its Final snapshot `engine.isnap` and the stage
/// checkpoints in `ckpt/`, built at P=4; the build's run.
fn checkpointed_build(dir: &Scratch) -> Run {
    generate_pubmed(dir, "42");
    let line = "snapshot --input corpus --procs 4 --out engine.isnap --checkpoint-dir ckpt";
    dir.vaengine(&words(line)).ok()
}

fn read(dir: &Path, name: &str) -> Vec<u8> {
    std::fs::read(dir.join(name)).unwrap_or_else(|e| panic!("{name}: {e}"))
}

/// `run --trace-out --report-out` writes a Chrome trace with one nesting
/// lane per rank and a run report with every key the analysis reads.
#[test]
fn run_writes_a_chrome_trace_and_a_run_report() {
    let dir = Scratch::new("cli-trace");
    generate_pubmed(&dir, "7");
    let line = "run --input corpus --procs 4 --out coords.csv";
    dir.vaengine(&words(&format!(
        "{line} --trace-out trace.json --report-out report.json"
    )))
    .ok();

    let trace = String::from_utf8(read(&dir, "trace.json")).unwrap();
    let summary = inspire_trace::chrome::validate_chrome_json(&trace).expect("the trace nests");
    assert!(summary.spans > 0, "no X events");
    let doc = inspire_trace::json::parse(&trace).unwrap();
    let ranks = doc.get("otherData").and_then(|o| o.get("ranks"));
    assert_eq!(ranks.and_then(|r| r.as_f64()), Some(4.0));
    let events = doc.get("traceEvents").and_then(|e| e.as_arr()).unwrap();
    let mut lanes: Vec<f64> = (events.iter())
        .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
        .map(|e| e.get("tid").and_then(|t| t.as_f64()).unwrap())
        .collect();
    lanes.sort_by(f64::total_cmp);
    lanes.dedup();
    assert_eq!(lanes, [0.0, 1.0, 2.0, 3.0], "one lane per rank");

    let report = String::from_utf8(read(&dir, "report.json")).unwrap();
    check_run_report(&inspire_trace::json::parse(&report).expect("the report parses"));
}

/// `snapshot --checkpoint-dir` writes the Final snapshot once, as its
/// checkpoint, and `--out` is a copy of it; only the Scan checkpoint
/// carries the forward index; `--resume` rebuilds the same bytes from
/// the Final checkpoint, from the Index checkpoint alone, and under
/// another spelling of the input (rewriting no checkpoint); `migrate`
/// reproduces every current file; the snapshot answers queries; and no
/// publish leaves a tmp file.
#[test]
fn checkpoints_resume_to_the_same_snapshot_bytes() {
    let dir = Scratch::new("cli-ckpt");
    let build = checkpointed_build(&dir);
    assert!(
        build.stdout.contains("snapshot written to"),
        "{}",
        build.stdout
    );
    let engine = read(&dir, "engine.isnap");
    assert!(
        engine == read(&dir, "ckpt/ckpt_final.isnap"),
        "--out is not ckpt_final"
    );
    for name in PUBLISHED {
        let snap = inspire_store::Snapshot::open(&dir.join(name)).unwrap();
        let scan = name == "ckpt/ckpt_scan.isnap";
        assert_eq!(snap.has("fwddat"), scan, "{name}: forward index");
    }

    let resume = |ckpt: &str, input: &str, out: &str| {
        let args = ["snapshot", "--input", input, "--procs", "4", "--out", out];
        dir.vaengine(&[&args[..], &["--checkpoint-dir", ckpt, "--resume"]].concat())
            .ok();
        assert!(
            read(&dir, out) == engine,
            "resumed from {ckpt}: {out} differs"
        );
    };
    resume("ckpt", "corpus", "engine2.isnap");
    // Without Sig and Final the resume rebuilds the documents from the
    // Index checkpoint's postings and runs the later stages on them.
    copy_dir(&dir.join("ckpt"), &dir.join("ckpt-index"));
    for name in ["ckpt_sig.isnap", "ckpt_final.isnap"] {
        std::fs::remove_file(dir.join("ckpt-index").join(name)).unwrap();
    }
    resume("ckpt-index", "corpus", "engine3.isnap");
    // Sources are named relative to --input, so the fingerprint every
    // checkpoint carries ignores the spelling: each one is reused.
    copy_dir(&dir.join("ckpt"), &dir.join("ckpt-before"));
    resume("ckpt", "./corpus/", "engine4.isnap");
    for name in CHECKPOINTS {
        let before = read(&dir.join("ckpt-before"), name);
        assert!(before == read(&dir.join("ckpt"), name), "{name} rewritten");
    }

    for name in PUBLISHED {
        dir.vaengine(&["migrate", "--in", name, "--out", "migrated.isnap"])
            .ok();
        assert!(read(&dir, name) == read(&dir, "migrated.isnap"), "{name}");
    }

    let state = ServeState::load(&dir.join("engine.isnap")).unwrap();
    let terms = frequent_terms(&state, 2);
    let (search, query) = (
        terms.join(" "),
        format!("{} OR title:{}", terms[0], terms[1]),
    );
    let args = ["query", "--snapshot", "engine.isnap", "--search", &search];
    let out = dir
        .vaengine(&[&args[..], &["--query", &query]].concat())
        .ok()
        .stdout;
    assert!(out.contains("loaded in"), "{out}");
    assert!(out.contains(" matching documents"), "{out}");
    assert!(!out.contains(": 0 matching documents"), "{out}");
    assert!(!out.contains("top 0 of"), "{out}");

    for sub in [".", "ckpt", "ckpt-index"] {
        for entry in std::fs::read_dir(dir.join(sub)).unwrap() {
            let name = entry.unwrap().file_name();
            let name = name.to_string_lossy();
            assert!(!name.ends_with(".tmp"), "{sub}/{name} was left behind");
        }
    }
}

/// A snapshot with one byte flipped, a format-v1 container, and a Scan
/// checkpoint — as a snapshot to query and as an ingest base — are each
/// refused by name; the ingest base before any manifest is written.
#[test]
fn damaged_and_early_stage_files_are_refused_by_name() {
    let dir = Scratch::new("cli-refuse");
    checkpointed_build(&dir);
    let engine = read(&dir, "engine.isnap");
    let query = |file: &str| dir.vaengine(&["query", "--snapshot", file, "--term", "protein"]);

    // One byte flipped early, and one at the middle, inside the bulk of
    // the largest sections.
    for at in [4096, engine.len() / 2] {
        std::fs::write(dir.join("corrupt.isnap"), &engine).unwrap();
        flip_byte(&dir.join("corrupt.isnap"), at);
        query("corrupt.isnap").refused("corrupt.isnap");
    }

    // Only the version is wrong: stamp 1 into bytes 8..12 and recompute
    // the header CRC over bytes 0..32 into 32..36.
    let mut v1 = engine.clone();
    v1[8..12].copy_from_slice(&1u32.to_le_bytes());
    let crc = inspire_store::crc32(&v1[0..32]);
    v1[32..36].copy_from_slice(&crc.to_le_bytes());
    std::fs::write(dir.join("v1.isnap"), v1).unwrap();
    query("v1.isnap").refused("format version 1");

    // A Scan checkpoint holds no inverted index, and every component a
    // serving view merges must hold one.
    let scan = query("ckpt/ckpt_scan.isnap").refused("stage Scan");
    assert_eq!(scan.code, Some(1));
    let args = [
        "ingest",
        "--dir",
        "bad-live",
        "--base",
        "ckpt/ckpt_scan.isnap",
    ];
    dir.vaengine(&args).refused("stage Scan");
    assert!(
        !dir.join("bad-live/MANIFEST").exists(),
        "a manifest was written"
    );
}

/// A file that cannot be read is refused naming it, keeping its error
/// kind: a snapshot path that does not exist, and a segment deleted from
/// an ingest directory.
#[test]
fn a_missing_file_is_refused_naming_it() {
    let dir = Scratch::new("cli-missing");
    let missing = Path::new("/nonexistent.isnap");
    let err = EngineSnapshot::open(missing).err().expect("no such file");
    assert_eq!(err.kind(), std::io::ErrorKind::NotFound);
    assert!(err.to_string().contains("/nonexistent.isnap"), "{err}");
    let args = [
        "query",
        "--snapshot",
        "/nonexistent.isnap",
        "--term",
        "protein",
    ];
    let run = dir.vaengine(&args).refused("/nonexistent.isnap");
    let named = run.stderr.matches("/nonexistent.isnap").count();
    assert_eq!(named, 1, "the path is named once: {}", run.stderr);

    // A base snapshot that does not exist is named, and no ingest
    // directory is created over it.
    let args = ["ingest", "--dir", "dd", "--base", "/nope.isnap"];
    let run = dir.vaengine(&args).refused("/nope.isnap");
    assert_eq!(run.code, Some(1), "{}", run.stderr);
    assert!(!dir.join("dd").join("MANIFEST").exists());

    // A snapshot `analyze` cannot write fails the run, naming its path.
    dir.vaengine(&words("generate --size 32K --seed 7 --out corpus"))
        .ok();
    let line = "analyze --input corpus --procs 1 --snapshot-out /nonexistent/x.isnap";
    dir.vaengine(&words(line)).refused("/nonexistent/x.isnap");

    let mut set = CorpusSpec::pubmed(64 * 1024, 7).generate();
    let batches = set.sources.split_off(set.sources.len() - 2);
    build_snapshot(&set, &dir.join("base.isnap"), 1);
    let mut ing = IngestDir::create(&dir.join("live"), Some(&dir.join("base.isnap"))).unwrap();
    for batch in batches {
        ing.append(batch).unwrap();
    }
    let segment = ing.manifest().segments[1].file.clone();
    drop(ing);
    std::fs::remove_file(dir.join("live").join(&segment)).unwrap();
    let args = ["query", "--ingest-dir", "live", "--term", "protein"];
    dir.vaengine(&args).refused(&segment);
}
