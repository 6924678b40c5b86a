//! `vaengine` — command-line front end for the text processing engine.
//!
//! ```text
//! vaengine generate --flavour pubmed --size 4M --seed 7 --out ./corpus
//! vaengine analyze  --input ./corpus --procs 8 --out coords.csv
//! vaengine snapshot --input ./corpus --procs 8 --out engine.isnap
//! vaengine query    --snapshot engine.isnap --search "heart attack"
//! vaengine migrate  --in old.isnap --out engine.isnap
//! vaengine migrate  --dir ./live
//! vaengine themeview --coords coords.csv --width 80 --height 30
//! ```
//!
//! `analyze` ingests a directory of MEDLINE or TREC-format files (format
//! sniffed per file), runs the full parallel pipeline on the requested
//! number of simulated processors, writes the master's coordinate file,
//! and prints the theme summary; `--checkpoint-dir` adds per-stage
//! checkpoints and `--resume` restarts a killed run from the last one.
//! `snapshot` runs the same pipeline but persists every engine artifact
//! into one checksummed snapshot file, which `query` then serves —
//! boolean and ranked retrieval plus cluster/rectangle drill-downs —
//! without re-running any pipeline stage. `migrate` rewrites a snapshot
//! in the previous layout (a forward index kept past the Scan stage)
//! into the one layout `query` and `serve` read; older layouts are
//! refused at open. `migrate --dir` does the same for an ingest
//! directory in the previous layout (the one with a write-ahead log).
//! `themeview` re-renders a saved coordinate file as terrain.
//!
//! Observability: `--trace-out` records per-rank stage/collective spans
//! and writes a Chrome trace-event file (open in `chrome://tracing` or
//! Perfetto); `--report-out` writes the structured run report as JSON
//! (the same per-stage table printed on stderr); `query --repeat N`
//! repeats each requested query kind and reports p50/p95/p99 serving
//! latency. `INSPIRE_LOG=error|warn|info|debug` sets the log level.
//!
//! Live ingestion: `ingest` seals each document batch into an immutable
//! index segment over a base snapshot and commits it with one manifest
//! flip; `compact` folds the segments back into one; `query` and
//! `serve` accept `--ingest-dir` to answer from the merged
//! (base + segments) view, and the server hot-swaps its state whenever
//! the manifest generation advances — no restart, no dropped requests.

use inspire_serve::{ServeConfig, ServeRequest, ServeState, Server};
use inspire_trace::json::Value;
use inspire_trace::report::RunReport;
use inspire_trace::Registry;
use std::fmt::Display;
use std::path::{Path, PathBuf};
use std::process::exit;
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use visual_analytics::engine::io::{read_coords_csv, write_coords_csv};
use visual_analytics::engine::report::build_run_report;
use visual_analytics::prelude::*;

fn usage() -> ! {
    eprintln!(
        "usage:\n  vaengine generate --flavour <pubmed|trec|newswire> --size <bytes[K|M]> [--seed N] --out <dir>\n  vaengine analyze|run --input <dir> [--procs N] [--clusters K] [--out coords.csv]\n                   [--checkpoint-dir <dir>] [--resume] [--snapshot-out <file.isnap>]\n                   [--trace-out <trace.json>] [--report-out <report.json>]\n  vaengine snapshot --input <dir> --out <file.isnap> [--procs N] [--clusters K]\n                    [--checkpoint-dir <dir>] [--resume]\n                    [--trace-out <trace.json>] [--report-out <report.json>]\n  vaengine ingest --dir <ingest-dir> [--base <file.isnap>] [--input <file|dir>]\n                  [--delete id,id,...]\n  vaengine compact --dir <ingest-dir>\n  vaengine query --snapshot <file.isnap> | --ingest-dir <dir>\n                 [--search \"free text\"] [--query \"a AND NOT title:b\"]\n                 [--term <term>] [--top N] [--cluster C] [--rect x0,y0,x1,y1]\n                 [--similar <doc> | --similar-text \"free text\"] [--nprobe N]\n                 [--json] [--repeat N] [--report-out <report.json>]\n  vaengine serve --snapshot <file.isnap> | --ingest-dir <dir>\n                 [--addr 127.0.0.1:7878] [--workers N] [--cache N] [--queue N]\n                 [--access-log <file>] [--slow-log-n N] [--slow-threshold-ms N]\n  vaengine migrate --in <old.isnap> --out <new.isnap> | --dir <ingest-dir>\n  vaengine themeview --coords <coords.csv> [--width N] [--height N]"
    );
    exit(2);
}

struct Args(Vec<String>);

impl Args {
    fn value(&self, flag: &str) -> Option<&str> {
        self.0
            .iter()
            .position(|a| a == flag)
            .and_then(|i| self.0.get(i + 1))
            .map(|s| s.as_str())
    }

    fn value_or<'a>(&'a self, flag: &str, default: &'a str) -> &'a str {
        self.value(flag).unwrap_or(default)
    }

    fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|a| a == flag)
    }

    /// The numeric value of `flag`, `default` when the flag is absent.
    /// Callers read every numeric flag before doing any work: a value
    /// that does not parse, or is below `min`, exits 2 naming the flag.
    fn num<T: FromStr + PartialOrd + Display>(&self, flag: &str, default: T, min: T) -> T {
        let Some(v) = self.value(flag) else {
            if self.has(flag) {
                eprintln!("{flag} needs a value");
                exit(2);
            }
            return default;
        };
        match v.parse::<T>() {
            Ok(n) if n >= min => n,
            Ok(_) => {
                eprintln!("{flag} must be at least {min}, got {v:?}");
                exit(2)
            }
            Err(_) => {
                eprintln!("{flag} expects a number, got {v:?}");
                exit(2)
            }
        }
    }
}

fn parse_size(s: &str) -> u64 {
    let (num, mult) = match s.as_bytes().last() {
        Some(b'K') | Some(b'k') => (&s[..s.len() - 1], 1024u64),
        Some(b'M') | Some(b'm') => (&s[..s.len() - 1], 1024 * 1024),
        Some(b'G') | Some(b'g') => (&s[..s.len() - 1], 1024 * 1024 * 1024),
        _ => (s, 1),
    };
    num.parse::<u64>().unwrap_or_else(|_| {
        eprintln!("bad size: {s}");
        exit(2)
    }) * mult
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = argv.first().cloned() else {
        usage()
    };
    let args = Args(argv[1..].to_vec());
    match cmd.as_str() {
        "generate" => generate(&args),
        "analyze" | "run" => analyze(&args),
        "snapshot" => snapshot_cmd(&args),
        "ingest" => ingest_cmd(&args),
        "compact" => compact_cmd(&args),
        "query" => query_cmd(&args),
        "serve" => serve_cmd(&args),
        "migrate" => migrate_cmd(&args),
        "themeview" => themeview_cmd(&args),
        _ => usage(),
    }
}

fn generate(args: &Args) {
    let flavour = args.value_or("--flavour", "pubmed");
    let size = parse_size(args.value_or("--size", "2M"));
    let seed: u64 = args.num("--seed", 42, 0);
    let Some(out) = args.value("--out") else {
        usage()
    };
    let spec = match flavour {
        "pubmed" => CorpusSpec::pubmed(size, seed),
        "trec" => CorpusSpec::trec(size, seed),
        "newswire" => CorpusSpec::newswire(size, seed),
        other => {
            eprintln!("unknown flavour {other} (pubmed|trec|newswire)");
            exit(2);
        }
    };
    let set = spec.generate();
    corpus::load::write_dir(&set, Path::new(out)).unwrap_or_else(|e| {
        eprintln!("write failed: {e}");
        exit(1);
    });
    println!(
        "wrote {} sources, {:.1} MB, {} records to {out}",
        set.sources.len(),
        set.total_bytes() as f64 / 1e6,
        set.total_records()
    );
}

fn load_sources(input: &str) -> SourceSet {
    let sources = corpus::load::load_dir(Path::new(input)).unwrap_or_else(|e| {
        eprintln!("cannot load {input}: {e}");
        exit(1);
    });
    if sources.sources.is_empty() {
        eprintln!("no MEDLINE, TREC, or mbox format files found under {input}");
        exit(1);
    }
    sources
}

/// Engine configuration from the shared `analyze`/`snapshot` flags.
fn engine_config(args: &Args) -> EngineConfig {
    let checkpoint_dir = args.value("--checkpoint-dir").map(PathBuf::from);
    if args.has("--resume") && checkpoint_dir.is_none() {
        eprintln!("--resume needs --checkpoint-dir");
        exit(2);
    }
    EngineConfig {
        n_clusters: args.num("--clusters", 12, 1),
        checkpoint_dir,
        resume: args.has("--resume"),
        snapshot_out: args.value("--snapshot-out").map(PathBuf::from),
        trace: args.value("--trace-out").is_some(),
        ..EngineConfig::default()
    }
}

/// Shared `--trace-out` / `--report-out` handling for `analyze` and
/// `snapshot`: export the Chrome trace, print the run-report table on
/// stderr, and persist the report JSON.
fn emit_observability(args: &Args, title: &str, run: &EngineRun, wall_s: f64) {
    if let Some(path) = args.value("--trace-out") {
        let trace = inspire_trace::chrome::to_chrome_json(&run.run.traces);
        std::fs::write(path, trace).unwrap_or_else(|e| {
            eprintln!("cannot write trace {path}: {e}");
            exit(1);
        });
        println!("chrome trace written to {path}");
    }
    let mut report = build_run_report(title, &run.run, wall_s);
    let master = run.master();
    report.meta.push((
        "documents".to_string(),
        master.summary.total_docs.to_string(),
    ));
    report
        .meta
        .push(("vocab".to_string(), master.summary.vocab_size.to_string()));
    eprint!("{}", report.render_table());
    if let Some(path) = args.value("--report-out") {
        report.write_json(Path::new(path)).unwrap_or_else(|e| {
            eprintln!("cannot write report {path}: {e}");
            exit(1);
        });
        println!("run report written to {path}");
    }
}

fn print_themes(master: &EngineOutput) {
    println!(
        "\n{} documents, vocabulary {}, N={} major terms, M={} dimensions",
        master.summary.total_docs,
        master.summary.vocab_size,
        master.summary.n_major,
        master.summary.m_dims
    );
    println!("themes:");
    let mut order: Vec<usize> = (0..master.cluster_sizes.len()).collect();
    order.sort_by_key(|&c| std::cmp::Reverse(master.cluster_sizes[c]));
    for &c in &order {
        if master.cluster_sizes[c] > 0 {
            println!(
                "  {:>6} docs — {}",
                master.cluster_sizes[c],
                master.cluster_labels[c].join(", ")
            );
        }
    }
}

fn print_snapshot_report(report: &SnapshotReport) {
    println!(
        "snapshot: {} bytes written in {:.3}s",
        report.total_bytes, report.write_seconds
    );
    for (name, bytes) in &report.sections {
        println!("  {name:<8} {bytes:>12} bytes");
    }
}

fn analyze(args: &Args) {
    let Some(input) = args.value("--input") else {
        usage()
    };
    let procs: usize = args.num("--procs", 8, 1);
    let config = engine_config(args);
    let out = PathBuf::from(args.value_or("--out", "coords.csv"));
    let sources = load_sources(input);
    println!(
        "loaded {} sources ({:.1} MB); analyzing on {procs} simulated processors…",
        sources.sources.len(),
        sources.total_bytes() as f64 / 1e6
    );
    let started = std::time::Instant::now();
    let run = run_engine(procs, Arc::new(CostModel::pnnl_2007()), &sources, &config);
    let wall_s = started.elapsed().as_secs_f64();
    let master = run.master();
    let coords = master.coords.as_ref().expect("master coordinates");
    write_coords_csv(&out, coords, master.all_assignments.as_deref()).unwrap_or_else(|e| {
        eprintln!("cannot write {}: {e}", out.display());
        exit(1);
    });

    print_themes(master);
    if let Some(report) = &master.snapshot_report {
        print_snapshot_report(report);
    }
    println!(
        "\nvirtual time: {:.1}s on {procs} procs of the modeled 2007 cluster",
        run.virtual_time
    );
    println!("coordinates written to {}", out.display());
    emit_observability(args, "analyze", &run, wall_s);
}

fn snapshot_cmd(args: &Args) {
    let Some(input) = args.value("--input") else {
        usage()
    };
    let Some(out) = args.value("--out") else {
        usage()
    };
    let procs: usize = args.num("--procs", 8, 1);
    let config = EngineConfig {
        snapshot_out: Some(PathBuf::from(out)),
        ..engine_config(args)
    };
    let sources = load_sources(input);
    println!(
        "loaded {} sources ({:.1} MB); building snapshot on {procs} simulated processors…",
        sources.sources.len(),
        sources.total_bytes() as f64 / 1e6
    );
    let started = std::time::Instant::now();
    let run = run_engine(procs, Arc::new(CostModel::pnnl_2007()), &sources, &config);
    let wall_s = started.elapsed().as_secs_f64();
    let master = run.master();
    print_themes(master);
    let Some(report) = &master.snapshot_report else {
        eprintln!("snapshot write failed; see warnings above");
        exit(1);
    };
    print_snapshot_report(report);
    println!("snapshot written to {out}");
    emit_observability(args, "snapshot", &run, wall_s);
}

/// Sources to ingest from `--input`: one file, or a directory walked in
/// the same sorted order `snapshot` uses, so batch-by-batch ingestion
/// visits documents in the exact order a clean rebuild would.
fn load_ingest_sources(input: &str) -> Vec<corpus::Source> {
    let path = Path::new(input);
    if path.is_dir() {
        return load_sources(input).sources;
    }
    match corpus::load::load_file(path) {
        Ok(Some(src)) => vec![src],
        Ok(None) => {
            eprintln!("{input} is not a recognized MEDLINE, TREC, or mbox file");
            exit(1);
        }
        Err(e) => {
            eprintln!("cannot load {input}: {e}");
            exit(1);
        }
    }
}

fn ingest_cmd(args: &Args) {
    let Some(dir) = args.value("--dir") else {
        usage()
    };
    let base = args.value("--base").map(PathBuf::from);
    let mut ing = inspire_ingest::IngestDir::open_or_create(Path::new(dir), base.as_deref())
        .unwrap_or_else(|e| {
            eprintln!("cannot open ingest dir {dir}: {e}");
            exit(1);
        });
    if ing.recovery.removed_strays > 0 {
        println!("recovered: {} strays removed", ing.recovery.removed_strays);
    }
    if let Some(input) = args.value("--input") {
        for src in load_ingest_sources(input) {
            let name = src.name.clone();
            let stats = ing.append(src).unwrap_or_else(|e| {
                eprintln!("ingest of {name} failed: {e}");
                exit(1);
            });
            println!(
                "sealed {name}: {} docs, seal {:.1} ms, {} ({} bytes), generation {}",
                stats.docs,
                stats.seal_s * 1e3,
                stats.segment_file,
                stats.segment_bytes,
                stats.generation
            );
        }
    }
    if let Some(list) = args.value("--delete") {
        let ids: Vec<u32> = list
            .split(',')
            .map(|v| {
                v.trim().parse().unwrap_or_else(|_| {
                    eprintln!("bad --delete id {v:?}");
                    exit(2);
                })
            })
            .collect();
        let n = ids.len();
        let stats = ing.delete(ids).unwrap_or_else(|e| {
            eprintln!("delete failed: {e}");
            exit(1);
        });
        println!(
            "tombstoned {n} documents in {} , generation {}",
            stats.segment_file, stats.generation
        );
    }
    let m = ing.manifest();
    println!(
        "ingest dir {dir}: generation {}, {} segments, {} total docs",
        m.generation,
        m.segments.len(),
        ing.total_docs()
    );
}

fn compact_cmd(args: &Args) {
    let Some(dir) = args.value("--dir") else {
        usage()
    };
    match inspire_ingest::compact_dir(Path::new(dir)) {
        Ok(Some(r)) => println!(
            "compacted {} segments into 1 ({} docs, {} bytes, {} tombstoned postings dropped), generation {}",
            r.segments_before, r.docs, r.bytes_written, r.postings_dropped, r.generation
        ),
        Ok(None) => println!("nothing to compact (fewer than two segments)"),
        Err(e) => {
            eprintln!("compaction failed: {e}");
            exit(1);
        }
    }
}

/// Load a snapshot into serving state, printing the standard banner.
/// `--json` mode moves the banner to stderr so stdout carries only the
/// query bodies.
fn load_serve_state(path: &str, json: bool) -> ServeState {
    let started = std::time::Instant::now();
    let snap = EngineSnapshot::open(Path::new(path)).unwrap_or_else(|e| {
        eprintln!("cannot load snapshot {path}: {e}");
        exit(1);
    });
    let meta = snap.meta().clone();
    let banner = format!(
        "snapshot {path}: stage {:?}, {} docs, vocabulary {}, {} bytes, written at P={}",
        meta.stage,
        meta.total_docs,
        meta.vocab_size,
        snap.store().total_bytes(),
        meta.nprocs,
    );
    let state = ServeState::from_snapshot(snap).unwrap_or_else(|e| {
        eprintln!("cannot restore snapshot {path}: {e}");
        exit(1);
    });
    let loaded = format!("loaded in {:.1} ms", started.elapsed().as_secs_f64() * 1e3);
    if json {
        eprintln!("{banner}");
        eprintln!("{loaded}");
    } else {
        println!("{banner}");
        println!("{loaded}");
    }
    state
}

/// Load the merged (base + segments) serving view of an ingest
/// directory, printing a banner in the same style as snapshot loads.
fn load_live_serve_state(dir: &str, json: bool) -> ServeState {
    let started = std::time::Instant::now();
    let state = inspire_serve::load_live_state(Path::new(dir)).unwrap_or_else(|e| {
        eprintln!("cannot load ingest dir {dir}: {e}");
        exit(1);
    });
    let banner = format!(
        "ingest dir {dir}: generation {}, {} segments over base of {} docs, {} docs total",
        state.generation,
        state.segments_open(),
        state.meta.total_docs,
        inspire_core::query::SearchIndex::total_docs(&state),
    );
    let loaded = format!("loaded in {:.1} ms", started.elapsed().as_secs_f64() * 1e3);
    if json {
        eprintln!("{banner}");
        eprintln!("{loaded}");
    } else {
        println!("{banner}");
        println!("{loaded}");
    }
    state
}

fn query_cmd(args: &Args) {
    let ingest_dir = args.value("--ingest-dir");
    let snapshot = args.value("--snapshot");
    let path = match (snapshot, ingest_dir) {
        (Some(p), None) => p,
        (None, Some(d)) => d,
        _ => usage(),
    };
    let repeat: usize = args.num("--repeat", 1, 1);
    let json = args.has("--json");
    let started = std::time::Instant::now();
    let state = match ingest_dir {
        Some(d) => load_live_serve_state(d, json),
        None => load_serve_state(path, json),
    };
    let mut metrics = Registry::new();
    metrics.observe("snapshot_load_seconds", started.elapsed());
    let fail = |e: String| -> ! {
        eprintln!("query failed: {e}");
        exit(1);
    };

    // The typed request list, in CLI flag order. Each flag becomes the
    // route and params the server would see (`--top` and `--nprobe` only
    // when given) and goes through the server's own validator, so the CLI
    // refuses exactly what the server refuses, with its message. Both
    // output modes execute these; `--json` prints the exact bodies the
    // HTTP server serves (same `execute` path, byte for byte).
    let shared: Vec<(String, String)> = [("--top", "top"), ("--nprobe", "nprobe")]
        .into_iter()
        .filter_map(|(flag, key)| Some((key.to_string(), args.value(flag)?.to_string())))
        .collect();
    let mut requests: Vec<ServeRequest> = Vec::new();
    for (flag, route, keys) in [
        ("--term", "/term", &["t"][..]),
        ("--query", "/query", &["q"]),
        ("--search", "/search", &["q"]),
        ("--cluster", "/cluster", &["c"]),
        ("--rect", "/rect", &["x0", "y0", "x1", "y1"]),
        ("--similar", "/similar", &["doc"]),
        ("--similar-text", "/similar", &["text"]),
    ] {
        let Some(value) = args.value(flag) else {
            continue;
        };
        // `--rect x0,y0,x1,y1` carries four params, every other flag one.
        let mut params: Vec<(String, String)> = keys
            .iter()
            .zip(value.splitn(keys.len(), ','))
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        params.extend(shared.iter().cloned());
        let req = ServeRequest::parse(route, &params).unwrap_or_else(|e| fail(e.message));
        requests.push(req);
    }

    // Each requested query kind runs `repeat` times against the serving
    // metrics registry, timing `execute` in both output modes; results
    // print on the first pass only.
    for pass in 0..repeat {
        for req in &requests {
            let name = format!("query_{}_seconds", req.kind());
            let body = metrics
                .time(&name, || inspire_serve::execute(&state, req))
                .unwrap_or_else(|e| fail(e.message));
            match (pass, json) {
                (0, true) => print!("{body}"),
                (0, false) => print_human(req, &body),
                _ => {}
            }
        }
    }
    let summaries = metrics.summaries();
    if !summaries.is_empty() {
        eprint!("{}", metrics.render_table());
    }
    if let Some(out) = args.value("--report-out") {
        let report = RunReport {
            title: "query".to_string(),
            meta: vec![
                ("snapshot".to_string(), path.to_string()),
                ("repeat".to_string(), repeat.to_string()),
            ],
            wall_time_s: started.elapsed().as_secs_f64(),
            queries: summaries,
            ..RunReport::default()
        };
        report.write_json(Path::new(out)).unwrap_or_else(|e| {
            eprintln!("cannot write report {out}: {e}");
            exit(1);
        });
        println!("serving report written to {out}");
    }
}

/// Print the human-readable form of `req`'s response body — the one the
/// server and `--json` return, parsed back. Scores and coordinates
/// round-trip exactly through their shortest-form JSON numbers.
fn print_human(req: &ServeRequest, body: &str) {
    let v = inspire_trace::json::parse(body).expect("execute renders valid JSON");
    let num = |v: &Value, key: &str| v.get(key).and_then(Value::as_f64).unwrap_or(0.0);
    let text = |key: &str| v.get(key).and_then(Value::as_str).unwrap_or("");
    let list = |key: &str| v.get(key).and_then(Value::as_arr).unwrap_or(&[]);
    let int = |v: &Value, key: &str| num(v, key) as u64;
    let ranked = |hits: &[Value]| {
        for h in hits {
            println!("  doc {:>7}  score {:.4}", int(h, "doc"), num(h, "score"));
        }
    };
    match req {
        ServeRequest::Term { .. } => {
            println!(
                "term {:?}: {} postings in {} documents",
                text("term"),
                int(&v, "postings"),
                int(&v, "documents")
            );
            for p in list("hits") {
                let (doc, field, freq) = (int(p, "doc"), int(p, "field"), int(p, "freq"));
                println!("  doc {doc:>7}  field {field}  freq {freq}");
            }
        }
        ServeRequest::Boolean { top, .. } => {
            let matches = int(&v, "matches");
            println!("query {:?}: {matches} matching documents", text("query"));
            for d in list("docs") {
                println!("  doc {}", d.as_f64().unwrap_or(0.0) as u64);
            }
            if matches > *top as u64 {
                println!("  … and {} more", matches - *top as u64);
            }
        }
        ServeRequest::Search { .. } => {
            let hits = list("hits");
            println!(
                "search {:?}: top {} of ranked hits",
                text("text"),
                hits.len()
            );
            ranked(hits);
        }
        ServeRequest::Cluster { cluster, .. } => {
            println!(
                "cluster {cluster} ({}): {} documents",
                text("label"),
                int(&v, "size")
            );
            for d in list("docs") {
                let (x, y) = (num(d, "x"), num(d, "y"));
                println!("  doc {:>7}  ({x:.4}, {y:.4})", int(d, "doc"));
            }
        }
        ServeRequest::Rect { .. } => {
            let (x0, y0, x1, y1) = (num(&v, "x0"), num(&v, "y0"), num(&v, "x1"), num(&v, "y1"));
            let matches = int(&v, "matches");
            println!("rect ({x0:.3},{y0:.3})–({x1:.3},{y1:.3}): {matches} documents");
            for d in list("docs") {
                println!("  doc {:>7}  cluster {}", int(d, "doc"), int(d, "cluster"));
            }
        }
        ServeRequest::Similar { doc, .. } => {
            let what = match doc {
                Some(d) => format!("doc {d}"),
                None => format!("{:?}", text("text")),
            };
            let hits = list("hits");
            println!(
                "similar to {what}: top {} (nprobe {}, {} clusters probed, {} candidates)",
                hits.len(),
                int(&v, "nprobe"),
                int(&v, "probed"),
                int(&v, "candidates")
            );
            ranked(hits);
        }
    }
}

/// SIGINT/SIGTERM → a flag the serve loop polls. Raw `signal(2)` FFI:
/// the container bakes in no signal-handling crate, and a
/// store-to-atomic handler is async-signal-safe.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
fn install_shutdown_handler() {
    extern "C" fn on_signal(_sig: i32) {
        SHUTDOWN.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGINT, on_signal);
        signal(SIGTERM, on_signal);
    }
}

#[cfg(not(unix))]
fn install_shutdown_handler() {}

fn serve_cmd(args: &Args) {
    let ingest_dir = args.value("--ingest-dir").map(PathBuf::from);
    let cfg = ServeConfig {
        addr: args.value_or("--addr", "127.0.0.1:7878").to_string(),
        workers: args.num("--workers", 8, 1),
        cache_capacity: args.num("--cache", 1024, 0),
        queue_depth: args.num("--queue", 256, 1),
        access_log: args.value("--access-log").map(PathBuf::from),
        slow_log_n: args.num("--slow-log-n", 32, 0),
        slow_threshold_ms: args.num("--slow-threshold-ms", 0, 0),
        ..ServeConfig::default()
    };
    let state = Arc::new(match &ingest_dir {
        Some(dir) => load_live_serve_state(&dir.display().to_string(), false),
        None => {
            let Some(path) = args.value("--snapshot") else {
                usage()
            };
            load_serve_state(path, false)
        }
    });
    let server = Server::start(Arc::clone(&state), &cfg).unwrap_or_else(|e| {
        eprintln!("cannot bind {}: {e}", cfg.addr);
        exit(1);
    });
    println!(
        "serving on http://{} ({} workers, cache {}, queue {})",
        server.local_addr(),
        cfg.workers,
        cfg.cache_capacity,
        cfg.queue_depth
    );
    println!(
        "endpoints: /term /query /search /cluster /rect /similar /metrics /healthz /debug/slow"
    );
    println!(
        "formats: /metrics?format=prom (Prometheus), /debug/slow?format=chrome (trace viewer)"
    );
    install_shutdown_handler();
    // 50 ms shutdown poll; every 10th tick (~500 ms) also polls the
    // ingest manifest and hot-swaps the serving state when a seal or
    // compaction advanced the generation. In-flight requests keep the
    // Arc they started with, so a flip never drops or errors a request.
    let mut ticks = 0u64;
    while !SHUTDOWN.load(Ordering::SeqCst) {
        std::thread::sleep(std::time::Duration::from_millis(50));
        ticks += 1;
        if let Some(dir) = &ingest_dir {
            if ticks.is_multiple_of(10) {
                if let Some(generation) = inspire_ingest::peek_generation(dir) {
                    if generation != server.generation() {
                        match inspire_serve::load_live_state(dir) {
                            Ok(next) => {
                                let seg = next.segments_open();
                                server.swap_state(Arc::new(next));
                                println!("generation {generation} live ({seg} segments)");
                            }
                            Err(e) => eprintln!("generation {generation} reload failed: {e}"),
                        }
                    }
                }
            }
        }
    }
    println!("shutdown signal received, draining…");
    let summary = server.shutdown();
    println!(
        "drained: {} served, {} errors, {} rejected, cache hit rate {:.1}%",
        summary.served,
        summary.errors,
        summary.rejected_429,
        summary.cache.hit_rate() * 100.0
    );
}

fn migrate_cmd(args: &Args) {
    if let Some(dir) = args.value("--dir") {
        match inspire_ingest::migrate_dir(Path::new(dir)) {
            Ok(true) => println!("migrated {dir} to the current ingest layout"),
            Ok(false) => println!("{dir} is already current"),
            Err(e) => {
                eprintln!("cannot migrate {dir}: {e}");
                exit(1);
            }
        }
        return;
    }
    let (Some(input), Some(out)) = (args.value("--in"), args.value("--out")) else {
        usage()
    };
    match visual_analytics::engine::migrate::migrate(Path::new(input), Path::new(out)) {
        Ok(r) => println!(
            "migrated {input} to {out}: {} bytes, forward index {}",
            r.bytes,
            if r.stripped_forward {
                "dropped"
            } else {
                "unchanged"
            },
        ),
        Err(e) => {
            eprintln!("cannot migrate {input}: {e}");
            exit(1);
        }
    }
}

fn themeview_cmd(args: &Args) {
    let Some(path) = args.value("--coords") else {
        usage()
    };
    let width: usize = args.num("--width", 80, 1);
    let height: usize = args.num("--height", 30, 1);
    let rows = read_coords_csv(Path::new(path)).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        exit(1);
    });
    let coords: Vec<(f64, f64)> = rows.iter().map(|&(_, x, y, _)| (x, y)).collect();
    let terrain = Terrain::build(&coords, width, height, None);
    let peaks = terrain.peaks(9, 0.2, (width / 12).max(2));
    print!("{}", render_ascii(&terrain, &peaks));
    println!("{} documents, {} peaks", coords.len(), peaks.len());
}
