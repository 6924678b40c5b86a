//! The five workloads. Each runs in a fresh worker process over the
//! snapshot set-up left in the work directory, measures for the asked
//! number of seconds, verifies every answer, and returns an [`Outcome`].

pub mod build;
pub mod ingest;
pub mod serve;

use crate::fixture::{Fixture, Sizing};
use crate::metrics::Layers;
use crate::spans::Recorder;
use std::io;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// What a worker process was asked to do.
pub struct Job {
    pub workload: String,
    /// The work directory; set-up left `base.isnap` in it.
    pub dir: PathBuf,
    pub sizing: Sizing,
    /// Bytes of the corpus set-up generated (the disk ratio's base).
    pub corpus_bytes: u64,
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Record spans and report per-layer metrics.
    pub traced: bool,
    /// Shared time origin of every span lane.
    pub origin: Instant,
}

impl Job {
    pub fn timed(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }

    /// Length of the measured phase: all of the time, or half of it in a
    /// traced run, which spends the other half on its in-process passes.
    pub fn phase(&self) -> Duration {
        self.timed().mul_f64(if self.traced { 0.5 } else { 1.0 })
    }

    /// The span time origin of a traced run, nothing otherwise.
    pub fn trace_origin(&self) -> Option<Instant> {
        self.traced.then_some(self.origin)
    }

    /// A span recorder for a traced run, nothing otherwise.
    pub fn recorder(&self) -> Option<Recorder> {
        self.trace_origin().map(Recorder::new)
    }
}

/// What a workload measured.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted in the timed phase and the checks after it.
    pub attempted: u64,
    /// Transport errors, non-200s, bodies differing from the oracle,
    /// failed re-checks.
    pub failed: u64,
    /// Broken workload invariants (a cold run that hit the cache, a hot
    /// run that missed it, recall below its floor, …): the run is not
    /// `correct` and its numbers do not mean what their names say.
    pub problems: Vec<String>,
    /// Latency of each verified-OK operation in milliseconds, ascending.
    pub op_ms: Vec<f64>,
    /// Verified-OK operations (documents, for `ingest_live`) and the
    /// wall seconds they took: `ops_per_s`.
    pub ops: f64,
    pub wall_s: f64,
    /// Bytes the program left on disk per input byte.
    pub disk_ratio: f64,
    pub layers: Layers,
    /// Informational fields (`answers_crc32`, `requests_crc32`, …).
    pub info: Vec<(&'static str, String)>,
    /// Span lanes for the Chrome trace (traced runs only).
    pub lanes: Vec<(String, Recorder)>,
}

impl Outcome {
    pub fn problem(&mut self, what: String) {
        eprintln!("vabench: PROBLEM: {what}");
        self.problems.push(what);
    }
}

/// Generate (and drop) the inputs `workload`'s worker will generate
/// again: their cost belongs to set-up.
pub fn prepare_inputs(workload: &str, fx: &Fixture, sizing: &Sizing, seed: u64) -> io::Result<()> {
    match workload {
        "serve_cold" => drop(serve::cold_requests(fx, seed)),
        "serve_hot" => drop(serve::hot_requests(fx, seed)),
        "similar_ann" => drop(serve::similar_requests(fx, seed)?),
        "ingest_live" => drop(ingest::inputs(fx, sizing, seed)),
        _ => {}
    }
    Ok(())
}

pub fn run(job: &Job) -> io::Result<Outcome> {
    match job.workload.as_str() {
        "build_batch" => build::run(job),
        "serve_cold" => serve::cold(job),
        "serve_hot" => serve::hot(job),
        "similar_ann" => serve::similar(job),
        "ingest_live" => ingest::run(job),
        other => Err(io::Error::other(format!("unknown workload {other}"))),
    }
}

/// p50 of `values` after sorting; shared by every per-layer summary.
pub fn p50(values: Vec<f64>) -> f64 {
    crate::stats::percentile_sorted(&crate::stats::sorted(values), 50.0)
}
