//! `vaengine` — command-line front end for the text processing engine.
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
//! Flags: each subcommand's usage line in [`COMMANDS`] (printed when
//! `vaengine` runs with no arguments) is the only declaration of its
//! flags, and the command line is checked against it before any work
//! starts. An undeclared flag, the `--flag=value` spelling, a repeated
//! flag, a stray positional argument, a missing or malformed value, or a
//! choice other than exactly one of `--snapshot | --ingest-dir` (`query`,
//! `serve`) or `--in/--out | --dir` (`migrate`) exits 2 naming the word.
//!
//! Observability: `--trace-out` records per-rank stage/collective spans
//! and writes a Chrome trace-event file (open in `chrome://tracing` or
//! Perfetto); `--report-out` writes the structured run report as JSON
//! (the same per-stage table printed on stderr); `query --repeat N`
//! repeats each requested query kind and reports p50/p95/p99 serving
//! latency. `INSPIRE_LOG=error|warn|info|debug` sets the log level.
//!
//! Live ingestion: `ingest` seals a run's files and deletes into one
//! immutable index segment over a base snapshot and commits it with one
//! manifest flip; `compact` folds the segments back into one; `query` and
//! `serve` accept `--ingest-dir` to answer from the merged
//! (base + segments) view. `serve --ingest-dir` follows the directory
//! in the server itself (`inspire_serve::Server`): it reads the manifest
//! every 10 ms and hot-swaps its state when the generation advances — no
//! restart, no dropped requests — logging `generation N live` at info
//! and a refused reload once per distinct error at warn.

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

/// Every subcommand's usage line, the one declaration of its flags. The
/// first word names the subcommand (`|` separates aliases); each word
/// that starts with `--` or `[--` names a flag. A flag written `[--flag]`
/// is a switch; every other flag takes the next argument as its value.
const COMMANDS: &[&str] = &[
    "generate [--flavour <pubmed|trec|newswire>] [--size <bytes[K|M|G]>] [--seed N] --out <dir>",
    "analyze|run --input <dir> [--procs N] [--clusters K] [--out coords.csv]\n\
     [--checkpoint-dir <dir>] [--resume] [--snapshot-out <file.isnap>]\n\
     [--trace-out <trace.json>] [--report-out <report.json>]",
    "snapshot --input <dir> --out <file.isnap> [--procs N] [--clusters K]\n\
     [--checkpoint-dir <dir>] [--resume] [--trace-out <trace.json>] [--report-out <report.json>]",
    "ingest --dir <ingest-dir> [--base <file.isnap>] [--input <file|dir>] [--delete id,id,...]",
    "compact --dir <ingest-dir>",
    "query --snapshot <file.isnap> | --ingest-dir <dir>\n\
     [--search \"free text\"] [--query \"a AND NOT title:b\"]\n\
     [--term <term>] [--top N] [--cluster C] [--rect x0,y0,x1,y1]\n\
     [--similar <doc>] [--similar-text \"free text\"] [--nprobe N]\n\
     [--json] [--repeat N] [--report-out <report.json>]",
    "serve --snapshot <file.isnap> | --ingest-dir <dir>\n\
     [--addr 127.0.0.1:7878] [--workers N] [--cache N] [--queue N]\n\
     [--access-log <file>] [--slow-log-n N] [--slow-threshold-ms N]",
    "migrate --in <old.isnap> --out <new.isnap> | --dir <ingest-dir>",
    "themeview --coords <coords.csv> [--width N] [--height N]",
];

/// The flags usage line `line` declares, each with whether it takes a
/// value.
fn declared(line: &'static str) -> impl Iterator<Item = (&'static str, bool)> {
    line.split_whitespace().filter_map(|word| {
        let flag = word.strip_prefix('[').unwrap_or(word);
        let name = flag.strip_suffix(']').unwrap_or(flag);
        name.starts_with("--")
            .then_some((name, name.len() == flag.len()))
    })
}

/// The usage line of subcommand `name`.
fn usage_line(name: &str) -> Option<&'static str> {
    COMMANDS.iter().copied().find(|line| {
        let (names, _) = line.split_once(' ').unwrap_or_default();
        names.split('|').any(|n| n == name)
    })
}

/// `line` as printed: its wrapped lines indented under its first flag.
fn usage_of(line: &str) -> String {
    let (names, flags) = line.split_once(' ').unwrap_or_default();
    let head = format!("  vaengine {names} ");
    let indent = format!("\n{:1$}", "", head.len());
    format!("{head}{}", flags.replace('\n', &indent))
}

fn usage() -> ! {
    let lines: Vec<String> = COMMANDS.iter().map(|line| usage_of(line)).collect();
    eprintln!("usage:\n{}", lines.join("\n"));
    exit(2);
}

/// Exit 2 with `msg` and usage line `line`.
fn refuse(line: &str, msg: impl Display) -> ! {
    eprintln!("{msg}\nusage:\n{}", usage_of(line));
    exit(2);
}

/// Exit 1 on an error, with a message that leads with what failed.
trait OrExit<T> {
    fn or_exit(self, what: impl Display) -> T;
}

impl<T, E: Display> OrExit<T> for Result<T, E> {
    fn or_exit(self, what: impl Display) -> T {
        self.unwrap_or_else(|e| {
            eprintln!("{what}: {e}");
            exit(1)
        })
    }
}

/// One subcommand's command line, checked against its usage line.
struct Args {
    line: &'static str,
    /// Each flag given, with its value (`None` for a switch).
    given: Vec<(&'static str, Option<String>)>,
}

impl Args {
    /// Check `words`, the arguments after the subcommand, against usage
    /// line `line`. The refusal names the first word that breaks it.
    fn parse(line: &'static str, words: &[String]) -> Result<Args, String> {
        let mut given: Vec<(&'static str, Option<String>)> = Vec::new();
        let mut words = words.iter();
        while let Some(word) = words.next() {
            let Some((flag, takes_value)) = declared(line).find(|(f, _)| f == word) else {
                return Err(match word {
                    w if w.starts_with("--") && w.contains('=') => {
                        format!("unknown flag {w:?}: give the value as the next argument")
                    }
                    w if w.starts_with("--") => format!("unknown flag {w:?}"),
                    w => format!("unexpected argument {w:?}"),
                });
            };
            if given.iter().any(|(f, _)| *f == flag) {
                return Err(format!("{flag} is given twice"));
            }
            let value = match takes_value.then(|| words.next()) {
                None => None,
                Some(Some(v)) if !v.starts_with("--") => Some(v.clone()),
                Some(_) => return Err(format!("{flag} needs a value")),
            };
            given.push((flag, value));
        }
        Ok(Args { line, given })
    }

    fn refuse(&self, msg: impl Display) -> ! {
        refuse(self.line, msg)
    }

    /// The entry of `flag`, which the usage line must declare.
    fn get(&self, flag: &str) -> Option<&Option<String>> {
        let declares = declared(self.line).any(|(f, _)| f == flag);
        assert!(declares, "reads undeclared {flag}: `{}`", self.line);
        self.given.iter().find(|(f, _)| *f == flag).map(|(_, v)| v)
    }

    fn has(&self, flag: &str) -> bool {
        self.get(flag).is_some()
    }

    fn value(&self, flag: &str) -> Option<&str> {
        self.get(flag)?.as_deref()
    }

    fn required(&self, flag: &str) -> &str {
        (self.value(flag)).unwrap_or_else(|| self.refuse(format!("{flag} is required")))
    }

    /// The numeric value of `flag`, `default` when the flag is absent.
    /// Callers read every numeric flag before doing any work: a value
    /// that does not parse, or is below `min`, exits 2 naming the flag.
    fn num<T: FromStr + PartialOrd + Display>(&self, flag: &str, default: T, min: T) -> T {
        let Some(v) = self.value(flag) else {
            return default;
        };
        match v.parse::<T>() {
            Ok(n) if n >= min => n,
            Ok(_) => self.refuse(format!("{flag} must be at least {min}, got {v:?}")),
            Err(_) => self.refuse(format!("{flag} expects a number, got {v:?}")),
        }
    }

    /// Whether the command line chose `b` over `a`, two exclusive sets of
    /// flags: it must give all of one and none of the other, or exit 2.
    fn either(&self, a: &[&str], b: &[&str]) -> bool {
        let given = |set: &[&str]| set.iter().filter(|f| self.has(f)).count();
        match (given(a), given(b)) {
            (n, 0) if n == a.len() => false,
            (0, n) if n == b.len() => true,
            _ => {
                let (a, b) = (a.join(" "), b.join(" "));
                self.refuse(format!("give exactly one of {a} | {b}"))
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
    let cmd = argv.first().map_or("", String::as_str);
    let Some(line) = usage_line(cmd) else { usage() };
    let args = Args::parse(line, &argv[1..]).unwrap_or_else(|e| refuse(line, e));
    match cmd {
        "generate" => generate(&args),
        "analyze" | "run" => build(&args, false),
        "snapshot" => build(&args, true),
        "ingest" => ingest_cmd(&args),
        "compact" => compact_cmd(&args),
        "query" => query_cmd(&args),
        "serve" => serve_cmd(&args),
        "migrate" => migrate_cmd(&args),
        "themeview" => themeview_cmd(&args),
        other => unreachable!("{other} is declared but not dispatched"),
    }
}

fn generate(args: &Args) {
    let flavour = args.value("--flavour").unwrap_or("pubmed");
    let size = parse_size(args.value("--size").unwrap_or("2M"));
    let seed: u64 = args.num("--seed", 42, 0);
    let out = args.required("--out");
    let spec = match flavour {
        "pubmed" => CorpusSpec::pubmed(size, seed),
        "trec" => CorpusSpec::trec(size, seed),
        "newswire" => CorpusSpec::newswire(size, seed),
        other => args.refuse(format!("unknown flavour {other} (pubmed|trec|newswire)")),
    };
    let set = spec.generate();
    corpus::load::write_dir(&set, Path::new(out)).or_exit("write failed");
    println!(
        "wrote {} sources, {:.1} MB, {} records to {out}",
        set.sources.len(),
        set.total_bytes() as f64 / 1e6,
        set.total_records()
    );
}

fn load_sources(input: &str) -> SourceSet {
    let sources =
        corpus::load::load_dir(Path::new(input)).or_exit(format_args!("cannot load {input}"));
    if sources.sources.is_empty() {
        eprintln!("no MEDLINE, TREC, or mbox format files found under {input}");
        exit(1);
    }
    sources
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

/// `analyze` (alias `run`) and `snapshot`: the full pipeline over
/// `--input`. `analyze` writes the master's coordinates to `--out`, and
/// a snapshot too with `--snapshot-out`; `snapshot` writes its snapshot
/// to `--out`. Either fails if it cannot write the snapshot it was asked for.
fn build(args: &Args, snapshot: bool) {
    let input = args.required("--input");
    let (out, snapshot_out) = match snapshot {
        true => (args.required("--out"), args.value("--out")),
        false => (
            args.value("--out").unwrap_or("coords.csv"),
            args.value("--snapshot-out"),
        ),
    };
    let procs: usize = args.num("--procs", 8, 1);
    let checkpoint_dir = args.value("--checkpoint-dir").map(PathBuf::from);
    if args.has("--resume") && checkpoint_dir.is_none() {
        args.refuse("--resume needs --checkpoint-dir");
    }
    let defaults = EngineConfig::default();
    let config = EngineConfig {
        n_clusters: args.num("--clusters", defaults.n_clusters, 1),
        checkpoint_dir,
        resume: args.has("--resume"),
        snapshot_out: snapshot_out.map(PathBuf::from),
        trace: args.value("--trace-out").is_some(),
        ..defaults
    };
    let sources = load_sources(input);
    let doing = match snapshot {
        true => "building snapshot",
        false => "analyzing",
    };
    println!(
        "loaded {} sources ({:.1} MB); {doing} on {procs} simulated processors…",
        sources.sources.len(),
        sources.total_bytes() as f64 / 1e6
    );
    let started = std::time::Instant::now();
    let run = run_engine(procs, Arc::new(CostModel::pnnl_2007()), &sources, &config);
    let wall_s = started.elapsed().as_secs_f64();
    let master = run.master();
    if !snapshot {
        let coords = master.coords.as_ref().expect("master coordinates");
        let assignments = master.all_assignments.as_deref();
        write_coords_csv(Path::new(out), coords, assignments)
            .or_exit(format_args!("cannot write {out}"));
    }
    print_themes(master);
    if let Some(report) = &master.snapshot_report {
        println!(
            "snapshot: {} bytes written in {:.3}s",
            report.total_bytes, report.write_seconds
        );
        for (name, bytes) in &report.sections {
            println!("  {name:<8} {bytes:>12} bytes");
        }
    } else if config.snapshot_out.is_some() {
        eprintln!("snapshot write failed; see warnings above");
        exit(1);
    }
    if snapshot {
        println!("snapshot written to {out}");
    } else {
        println!(
            "\nvirtual time: {:.1}s on {procs} procs of the modeled 2007 cluster",
            run.virtual_time
        );
        println!("coordinates written to {out}");
    }
    if let Some(path) = args.value("--trace-out") {
        let trace = inspire_trace::chrome::to_chrome_json(&run.run.traces);
        std::fs::write(path, trace).or_exit(format_args!("cannot write trace {path}"));
        println!("chrome trace written to {path}");
    }
    let title = if snapshot { "snapshot" } else { "analyze" };
    let mut report = build_run_report(title, &run.run, wall_s);
    report.meta.extend([
        ("documents".into(), master.summary.total_docs.to_string()),
        ("vocab".into(), master.summary.vocab_size.to_string()),
    ]);
    eprint!("{}", report.render_table());
    if let Some(path) = args.value("--report-out") {
        (report.write_json(Path::new(path))).or_exit(format_args!("cannot write report {path}"));
        println!("run report written to {path}");
    }
}

/// Sources to ingest from `--input`: one file, or a directory walked in
/// the same sorted order `snapshot` uses, so batch-by-batch ingestion
/// visits documents in the exact order a clean rebuild would.
fn load_ingest_sources(input: &str) -> Vec<corpus::Source> {
    let path = Path::new(input);
    if path.is_dir() {
        return load_sources(input).sources;
    }
    match corpus::load::load_file(path).or_exit(format_args!("cannot load {input}")) {
        Some(src) => vec![src],
        None => {
            eprintln!("{input} is not a recognized MEDLINE, TREC, or mbox file");
            exit(1);
        }
    }
}

fn ingest_cmd(args: &Args) {
    let dir = args.required("--dir");
    // Every input is read and checked before the directory is opened,
    // so a refusal leaves it as it was.
    let delete: Vec<u32> = args.value("--delete").map_or(Vec::new(), |list| {
        let id = |v: &str| v.trim().parse().ok();
        let bad = |v: &str| args.refuse(format!("bad --delete id {v:?}"));
        list.split(',')
            .map(|v| id(v).unwrap_or_else(|| bad(v)))
            .collect()
    });
    let sources = args
        .value("--input")
        .map_or(Vec::new(), load_ingest_sources);
    let base = args.value("--base").map(Path::new);
    let mut ing = inspire_ingest::IngestDir::open_or_create(Path::new(dir), base)
        .or_exit(format_args!("cannot open ingest dir {dir}"));
    report_recovery(&ing);
    // The whole run is one commit: every file and every delete become
    // visible together, or none of them.
    if !sources.is_empty() || !delete.is_empty() {
        let deletes = delete.len();
        let stats = ing.commit(&sources, delete).or_exit("ingest failed");
        println!(
            "sealed {} files, {} docs, {deletes} deletes: seal {:.1} ms, {} ({} bytes), generation {}",
            sources.len(),
            stats.docs,
            stats.seal_s * 1e3,
            stats.segment_file,
            stats.segment_bytes,
            stats.generation
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
    let dir = args.required("--dir");
    let mut ing = inspire_ingest::IngestDir::open(Path::new(dir))
        .or_exit(format_args!("cannot open ingest dir {dir}"));
    report_recovery(&ing);
    match ing.compact().or_exit("compaction failed") {
        Some(r) => println!(
            "compacted {} segments into 1 ({} docs, {} bytes, {} tombstoned postings dropped), generation {}",
            r.segments_before, r.docs, r.bytes_written, r.postings_dropped, r.generation
        ),
        None => println!("nothing to compact (fewer than two segments)"),
    }
}

/// Name the crash leftovers opening the directory removed.
fn report_recovery(ing: &inspire_ingest::IngestDir) {
    if ing.recovery.removed_strays > 0 {
        println!("recovered: {} strays removed", ing.recovery.removed_strays);
    }
}

/// Serving state from exactly one of `--snapshot` and `--ingest-dir`,
/// with the path it names.
/// Prints the load banner: on stderr in `--json` mode, so that stdout
/// carries only the query bodies.
fn load_state(args: &Args, json: bool) -> (&str, ServeState) {
    let live = args.either(&["--snapshot"], &["--ingest-dir"]);
    let path = args.required(if live { "--ingest-dir" } else { "--snapshot" });
    let started = std::time::Instant::now();
    let (state, banner) = if live {
        let state = inspire_serve::load_live_state(Path::new(path))
            .or_exit(format_args!("cannot load ingest dir {path}"));
        let banner = format!(
            "ingest dir {path}: generation {}, {} segments over base of {} docs, {} docs total",
            state.generation,
            state.segments_open(),
            state.meta.total_docs,
            inspire_core::query::SearchIndex::total_docs(&state),
        );
        (state, banner)
    } else {
        // Every snapshot error names its file.
        let snap = EngineSnapshot::open(Path::new(path)).or_exit("cannot load snapshot");
        let meta = snap.meta();
        let banner = format!(
            "snapshot {path}: stage {:?}, {} docs, vocabulary {}, {} bytes, written at P={}",
            meta.stage,
            meta.total_docs,
            meta.vocab_size,
            snap.store().total_bytes(),
            meta.nprocs,
        );
        let state = ServeState::from_snapshot(snap).or_exit("cannot load snapshot");
        (state, banner)
    };
    let loaded = format!("loaded in {:.1} ms", started.elapsed().as_secs_f64() * 1e3);
    for line in [banner, loaded] {
        match json {
            true => eprintln!("{line}"),
            false => println!("{line}"),
        }
    }
    (path, state)
}

fn query_cmd(args: &Args) {
    let repeat: usize = args.num("--repeat", 1, 1);
    let json = args.has("--json");
    let started = std::time::Instant::now();
    let (path, state) = load_state(args, json);
    let mut metrics = Registry::new();
    metrics.observe("snapshot_load_seconds", started.elapsed());

    // The typed request list, in this table's order. Each flag becomes the
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
        let req = ServeRequest::parse(route, &params).map_err(|e| e.message);
        requests.push(req.or_exit("query failed"));
    }

    // Each requested query kind runs `repeat` times against the serving
    // metrics registry, timing `execute` in both output modes; results
    // print on the first pass only.
    for pass in 0..repeat {
        for req in &requests {
            let name = format!("query_{}_seconds", req.kind());
            let body = metrics.time(&name, || inspire_serve::execute(&state, req));
            let body = body.map_err(|e| e.message).or_exit("query failed");
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
        (report.write_json(Path::new(out))).or_exit(format_args!("cannot write report {out}"));
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
    let defaults = ServeConfig::default();
    let cfg = ServeConfig {
        addr: args.value("--addr").map_or(defaults.addr, str::to_string),
        workers: args.num("--workers", defaults.workers, 1),
        cache_capacity: args.num("--cache", defaults.cache_capacity, 0),
        queue_depth: args.num("--queue", defaults.queue_depth, 1),
        access_log: args.value("--access-log").map(PathBuf::from),
        slow_log_n: args.num("--slow-log-n", defaults.slow_log_n, 0),
        slow_threshold_ms: args.num("--slow-threshold-ms", defaults.slow_threshold_ms, 0),
        ..defaults
    };
    let (_, state) = load_state(args, false);
    let server =
        Server::start(Arc::new(state), &cfg).or_exit(format_args!("cannot bind {}", cfg.addr));
    println!(
        "serving on http://{} ({} workers, cache {}, queue {})",
        server.local_addr(),
        cfg.workers,
        cfg.cache_capacity,
        cfg.queue_depth
    );
    println!(
        "endpoints: /term /query /search /cluster /rect /similar /metrics /healthz /debug/slow\n\
         formats: /metrics?format=prom (Prometheus), /debug/slow?format=chrome (trace viewer)"
    );
    install_shutdown_handler();
    // The server follows an ingest directory itself; this loop only
    // waits for the signal.
    while !SHUTDOWN.load(Ordering::SeqCst) {
        std::thread::sleep(std::time::Duration::from_millis(50));
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
    if args.either(&["--in", "--out"], &["--dir"]) {
        let dir = args.required("--dir");
        match inspire_ingest::migrate_dir(Path::new(dir))
            .or_exit(format_args!("cannot migrate {dir}"))
        {
            true => println!("migrated {dir} to the current ingest layout"),
            false => println!("{dir} is already current"),
        }
        return;
    }
    let (input, out) = (args.required("--in"), args.required("--out"));
    let r = visual_analytics::engine::migrate::migrate(Path::new(input), Path::new(out))
        .or_exit(format_args!("cannot migrate {input}"));
    let forward = if r.stripped_forward {
        "dropped"
    } else {
        "unchanged"
    };
    println!(
        "migrated {input} to {out}: {} bytes, forward index {forward}",
        r.bytes
    );
}

fn themeview_cmd(args: &Args) {
    let path = args.required("--coords");
    let width: usize = args.num("--width", 80, 1);
    let height: usize = args.num("--height", 30, 1);
    let rows = read_coords_csv(Path::new(path)).or_exit(format_args!("cannot read {path}"));
    let coords: Vec<(f64, f64)> = rows.iter().map(|&(_, x, y, _)| (x, y)).collect();
    let terrain = Terrain::build(&coords, width, height, None);
    let peaks = terrain.peaks(9, 0.2, (width / 12).max(2));
    print!("{}", render_ascii(&terrain, &peaks));
    println!("{} documents, {} peaks", coords.len(), peaks.len());
}

#[cfg(test)]
mod tests {
    use super::{declared, usage_line, Args, COMMANDS};

    fn words(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    /// Every `vaengine` command line in README.md, continuation lines
    /// joined, passes only flags its subcommand declares; and every
    /// subcommand appears, so the scan cannot pass by finding nothing.
    #[test]
    fn readme_command_lines_use_only_declared_flags() {
        let readme = include_str!("../../README.md").replace("\\\n", " ");
        let mut seen = Vec::new();
        for (at, _) in readme.match_indices("vaengine ") {
            let invocation = readme[at..].lines().next().unwrap_or_default();
            let invocation = invocation.split(['`', '#']).next().unwrap_or_default();
            let mut words = invocation.split_whitespace().skip(1).filter(|w| *w != "--");
            let Some((command, usage)) = words.next().and_then(|c| Some((c, usage_line(c)?)))
            else {
                continue;
            };
            for flag in words.filter(|w| w.starts_with("--")) {
                assert!(
                    declared(usage).any(|(f, _)| f == flag),
                    "README runs `vaengine {command} … {flag}`, which `{usage}` does not declare"
                );
            }
            seen.push(usage);
        }
        for usage in COMMANDS {
            assert!(seen.contains(usage), "README never runs `{usage}`");
        }
    }

    #[test]
    fn the_usage_line_decides_every_word() {
        let switches: Vec<&str> = (COMMANDS.iter())
            .flat_map(|l| declared(l).filter(|(_, takes_value)| !takes_value))
            .map(|(f, _)| f)
            .collect();
        assert_eq!(switches, ["--resume", "--resume", "--json"]);
        let query = usage_line("query").unwrap();
        let args = Args::parse(query, &words("--snapshot s --rect -1,-1,1,1 --json")).unwrap();
        assert_eq!(args.value("--rect"), Some("-1,-1,1,1"));
        assert!(args.has("--json") && !args.has("--term"));
        for (given, refusal) in [
            ("--snapshot s --bogus 3", "unknown flag \"--bogus\""),
            (
                "--snapshot s --rect=-1,-1,1,1",
                "unknown flag \"--rect=-1,-1,1,1\"",
            ),
            ("--snapshot s --top 1 --top 2", "--top is given twice"),
            ("--snapshot s protein", "unexpected argument \"protein\""),
            ("--snapshot s --term", "--term needs a value"),
            ("--snapshot s --term --json", "--term needs a value"),
        ] {
            let err = Args::parse(query, &words(given)).err().expect(given);
            assert!(err.starts_with(refusal), "{given}: {err}");
        }
    }

    #[test]
    #[should_panic(expected = "reads undeclared --procs")]
    fn reading_an_undeclared_flag_panics() {
        let query = usage_line("query").unwrap();
        Args::parse(query, &[]).unwrap().value("--procs");
    }
}
