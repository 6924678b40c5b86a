//! `vabench` — the repository's one benchmark.
//!
//! ```text
//! vabench --workload <name> --seed <n> --seconds <s> --trace <0|1>   one measured run
//! vabench run [--seed N] [--seconds S] [--repeat K] [--traced] [--smoke]
//! vabench compare <parent.json> <change.json>
//! vabench check <result.json> [--spec BENCHMARK.json]
//! vabench spec                                                       print BENCHMARK.json
//! ```
//!
//! A measured run sets up three times (its median is `setup_s`), then
//! hands the timed phase to a fresh worker process of this binary, so
//! peak RSS, allocator state and the server's LRU belong to the workload
//! alone. The last line of standard output is the result object. See
//! README.md beside this file for the metric tables.

mod fixture;
mod load;
mod metrics;
mod report;
mod requests;
mod spans;
mod stats;
mod workloads;

use fixture::{Fixture, Sizing};
use metrics::{END_TO_END, PER_LAYER};
use std::io;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use workloads::{Job, Outcome};

/// Set-ups per measured run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("worker") => worker(&args[1..]),
        Some("run") => report::run_all(&args[1..]),
        Some("compare") => report::compare(&args[1..]),
        Some("check") => report::check(&args[1..]),
        Some("spec") => {
            print!("{}", metrics::benchmark_json());
            Ok(true)
        }
        Some(flag) if flag.starts_with("--") => measure(&args),
        _ => Err(io::Error::other(
            "usage: vabench --workload <name> --seed <n> --seconds <s> --trace <0|1> \
             | run | compare | check | spec (see README.md)",
        )),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("vabench: {e}");
            ExitCode::from(2)
        }
    }
}

/// The value after `flag`, if the flag is present.
pub fn flag<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

pub fn flag_or<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> io::Result<T> {
    match flag(args, name) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| io::Error::other(format!("bad value {v:?} for {name}"))),
    }
}

/// Where the benchmark keeps its work directories, traces and result
/// copies: under the build's target directory, never `results/`.
pub fn out_dir() -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or(PathBuf::from("target"), PathBuf::from);
    target.join("vabench")
}

struct RunArgs {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    sizing: Sizing,
}

fn run_args(args: &[String]) -> io::Result<RunArgs> {
    let workload = flag(args, "--workload")
        .ok_or_else(|| io::Error::other("missing --workload"))?
        .to_string();
    if !metrics::is_workload(&workload) {
        return Err(io::Error::other(format!("unknown workload {workload:?}")));
    }
    let seconds: f64 = flag_or(args, "--seconds", metrics::RUN_SECONDS as f64)?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(io::Error::other("--seconds must be in (0, 60]"));
    }
    Ok(RunArgs {
        workload,
        seed: flag_or(args, "--seed", 11)?,
        seconds,
        traced: flag_or(args, "--trace", 0u8)? != 0,
        sizing: Sizing::new(args.iter().any(|a| a == "--smoke")),
    })
}

/// One measured run: set up, then run the workload in a worker process
/// whose standard output (ending in the result line) is ours.
fn measure(args: &[String]) -> io::Result<bool> {
    let a = run_args(args)?;
    let dir = out_dir().join(format!(
        "work-{}-{}-{}",
        a.workload,
        a.seed,
        std::process::id()
    ));
    let outcome = set_up(&a, &dir).and_then(|(setup_s, generate_s, corpus_bytes)| {
        let mut cmd = Command::new(std::env::current_exe()?);
        cmd.arg("worker")
            .args(args)
            .arg("--dir")
            .arg(&dir)
            .args(["--setup-s", &setup_s.to_string()])
            .args(["--generate-s", &generate_s.to_string()])
            .args(["--corpus-bytes", &corpus_bytes.to_string()])
            .stdin(Stdio::null());
        Ok(cmd.status()?.success())
    });
    std::fs::remove_dir_all(&dir).ok();
    outcome
}

/// Shared set-up, [`SETUP_REPEATS`] times from an empty directory:
/// generate the corpus, build and load its snapshot, bucket the
/// vocabulary, generate the workload's inputs. Returns the median wall
/// seconds, the median seconds corpus generation took, and the corpus
/// size in bytes.
fn set_up(a: &RunArgs, dir: &Path) -> io::Result<(f64, f64, u64)> {
    let (mut wall, mut generate) = (Vec::new(), Vec::new());
    let mut corpus_bytes = 0;
    for _ in 0..SETUP_REPEATS {
        if dir.exists() {
            std::fs::remove_dir_all(dir)?;
        }
        std::fs::create_dir_all(dir)?;
        let t0 = Instant::now();
        let (fx, corpus, generate_s) = Fixture::build(dir, &a.sizing, a.seed)?;
        workloads::prepare_inputs(&a.workload, &fx, &a.sizing, a.seed)?;
        wall.push(t0.elapsed().as_secs_f64());
        generate.push(generate_s);
        corpus_bytes = fixture::corpus_bytes(&corpus);
    }
    Ok((stats::median(&wall), stats::median(&generate), corpus_bytes))
}

/// The worker process: the timed phase, verification, and the result.
fn worker(args: &[String]) -> io::Result<bool> {
    let a = run_args(args)?;
    let job = Job {
        workload: a.workload.clone(),
        dir: PathBuf::from(flag(args, "--dir").ok_or_else(|| io::Error::other("missing --dir"))?),
        sizing: a.sizing,
        corpus_bytes: flag_or(args, "--corpus-bytes", a.sizing.corpus_bytes)?,
        seed: a.seed,
        seconds: a.seconds,
        traced: a.traced,
        origin: Instant::now(),
    };
    let setup_s: f64 = flag_or(args, "--setup-s", 0.0)?;
    let mut out = workloads::run(&job)?;
    if a.traced {
        if out.layers.get("corpus.generate_s") == 0.0 {
            out.layers
                .set("corpus.generate_s", flag_or(args, "--generate-s", 0.0)?);
        }
        let lanes: Vec<(&str, &spans::Recorder)> =
            out.lanes.iter().map(|(n, r)| (n.as_str(), r)).collect();
        let spans: usize = lanes.iter().map(|(_, r)| r.spans().len()).sum();
        out.layers.set("bench.spans_recorded", spans as f64);
        let path = out_dir().join(format!("trace-{}.json", a.workload));
        std::fs::write(&path, spans::chrome_json(&lanes))?;
        eprintln!("vabench: wrote {}", path.display());
    }
    let correct = out.failed == 0 && out.problems.is_empty();
    println!("{}", info_line(&a, &out));
    println!("{}", result_line(&a, &out, setup_s, correct));
    // The result line is the verdict; a non-zero exit means "no result".
    Ok(true)
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Informational fields, one JSON object on the line before the result.
fn info_line(a: &RunArgs, out: &Outcome) -> String {
    use inspire_trace::json::escape;
    let mut fields = vec![
        format!("\"workload\":\"{}\"", a.workload),
        format!("\"seed\":{}", a.seed),
        format!("\"seconds\":{}", a.seconds),
        format!("\"smoke\":{}", a.sizing.smoke),
        format!("\"traced\":{}", a.traced),
        format!("\"n\":{}", out.op_ms.len()),
        format!(
            "\"error_rate\":{}",
            out.failed as f64 / out.attempted.max(1) as f64
        ),
    ];
    fields.extend(
        out.info
            .iter()
            .map(|(k, v)| format!("\"{k}\":\"{}\"", escape(v))),
    );
    let problems: Vec<String> = out
        .problems
        .iter()
        .map(|p| format!("\"{}\"", escape(p)))
        .collect();
    fields.push(format!("\"problems\":[{}]", problems.join(",")));
    format!("{{{}}}", fields.join(","))
}

/// The result object the contract asks for, on one line.
fn result_line(a: &RunArgs, out: &Outcome, setup_s: f64, correct: bool) -> String {
    let metrics = if a.traced {
        metrics::metrics_object(
            PER_LAYER
                .iter()
                .map(|(n, u, _)| (*n, *u, out.layers.get(n))),
        )
    } else {
        let value = |name: &str| match name {
            "setup_s" => setup_s,
            "op_p50_ms" => stats::percentile_sorted(&out.op_ms, 50.0),
            "ops_per_s" => out.ops / out.wall_s,
            "peak_rss_mib" => peak_rss_mib(),
            "disk_bytes_per_input_byte" => out.disk_ratio,
            other => unreachable!("{other} is not an end-to-end metric"),
        };
        metrics::metrics_object(END_TO_END.iter().map(|m| (m.name, m.unit, value(m.name))))
    };
    format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{metrics}}}",
        out.attempted.max(1),
        out.failed
    )
}
