//! `build_batch`: the paper's own experiment. One operation is one
//! build: corpus bytes in memory → Final snapshot written, fsynced and
//! renamed on disk, at P=2.

use super::{p50, Job, Outcome};
use crate::fixture::{build_snapshot, corpus_spec, engine_config, Fixture, PROCS};
use crate::spans::{step, Recorder};
use corpus::SourceSet;
use inspire_core::pipeline::{Engine, EngineRun};
use inspire_core::{EngineSnapshot, Stage};
use perfmodel::CostModel;
use spmd::timer::Component;
use spmd::Runtime;
use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Builds timed however short the run is.
const MIN_BUILDS: usize = 3;

/// The sections the snapshot's size is attributed to.
const INDEX_SECTIONS: [&str; 3] = ["postdir", "postblk", "postskp"];
const SIG_SECTIONS: [&str; 5] = ["sigs", "qsig", "qscale", "qoff", "signrm"];
const IVF_SECTIONS: [&str; 2] = ["ivfdoc", "ivfoff"];

pub fn run(job: &Job) -> io::Result<Outcome> {
    let mut out = Outcome::default();
    let reference = Fixture::open(&job.dir)?;
    let t0 = Instant::now();
    let set = corpus_spec(&job.sizing, job.seed).generate();
    out.layers
        .set("corpus.generate_s", t0.elapsed().as_secs_f64());
    let target = job.dir.join("build.isnap");
    let want = answer_sections_crc32(&reference.snapshot_path)?;

    // Warm-up: allocator and page cache.
    build_snapshot(&set, &target)?;

    let mut rec = job.recorder();
    let mut build_ms = Vec::new();
    let mut last: Option<EngineRun> = None;
    let mut walls: Vec<[f64; 4]> = Vec::new();
    let started = Instant::now();
    while build_ms.len() + (out.failed as usize) < MIN_BUILDS || started.elapsed() < job.phase() {
        // Like set-up, every build writes into an empty directory: the
        // previous snapshot is deleted outside the timed region.
        std::fs::remove_file(&target)?;
        let b0 = Instant::now();
        let run = step(&mut rec, "build", out.attempted, || {
            build_snapshot(&set, &target)
        })?;
        let ms = b0.elapsed().as_secs_f64() * 1e3;
        // The engine's output is bit-identical run to run, so every
        // build must reproduce set-up's snapshot.
        out.attempted += 1;
        if answer_sections_crc32(&target)? == want {
            build_ms.push(ms);
        } else {
            out.failed += 1;
            eprintln!(
                "vabench: build {} wrote a different snapshot",
                out.attempted
            );
        }
        let w = &run.components.wall;
        let write_s = run
            .master()
            .snapshot_report
            .as_ref()
            .map_or(0.0, |r| r.write_seconds);
        walls.push([
            w[Component::Topic],
            w[Component::Assoc],
            w[Component::DocVec],
            write_s,
        ]);
        last = Some(run);
    }
    if build_ms.is_empty() {
        return Err(io::Error::other("no build reproduced set-up's snapshot"));
    }
    out.op_ms = crate::stats::sorted(build_ms);
    // Builds run one after another, so the rate a builder sustains is
    // the reciprocal of a build's time; the median keeps one fsync stall
    // from standing for the whole run, as it would in a mean.
    out.ops = 1.0;
    out.wall_s = crate::stats::percentile_sorted(&out.op_ms, 50.0) / 1e3;
    out.disk_ratio = reference.snapshot_bytes as f64 / job.corpus_bytes as f64;
    out.info.push(("answers_crc32", format!("{want:08x}")));
    out.info
        .push(("requests_crc32", format!("{:08x}", corpus_crc32(&set))));

    if let Some(mut rec) = rec {
        let run = last.expect("at least MIN_BUILDS builds ran");
        out.layers.set("client.build_s", out.wall_s);
        let returned = [
            "core.topicality_s",
            "core.assoc_s",
            "core.signature_s",
            "store.snapshot_write_s",
        ];
        for (i, name) in returned.into_iter().enumerate() {
            out.layers
                .set(name, p50(walls.iter().map(|w| w[i]).collect()));
        }
        counts(&mut out, &reference, &run);
        let fastest_build_s = out.op_ms[0] / 1e3;
        staged(job, &set, &mut rec, &mut out, fastest_build_s);
        out.lanes.push(("builder".to_string(), rec));
    }
    Ok(out)
}

/// Exact work counts of one build at fixed P, read from what the public
/// API returned.
fn counts(out: &mut Outcome, reference: &Fixture, run: &EngineRun) {
    let stats = run.run.total_stats();
    let summary = &run.master().summary;
    let l = &mut out.layers;
    l.set("perfmodel.virtual_s", run.virtual_time);
    l.set("spmd.msgs", stats.total_msgs() as f64);
    l.set(
        "spmd.bytes",
        (stats.one_sided_bytes + stats.local_bytes + stats.collective_bytes) as f64,
    );
    l.set(
        "ga.index_msgs",
        stats.stage_msgs_for(Component::Index) as f64,
    );
    l.set(
        "ga.vocab_rpc_msgs",
        stats.stage_msgs_for(Component::Scan) as f64,
    );
    l.set("core.docs", summary.total_docs as f64);
    l.set("core.vocab", summary.vocab_size as f64);
    l.set("core.kmeans_iters", summary.kmeans_iters as f64);
    l.set("core.dim_expansions", summary.dim_expansions as f64);
    if let Ok(dir) = reference.state.snapshot().postings_dir() {
        l.set("core.postings", dir.total_postings() as f64);
    }
    snapshot_sizes(l, reference);
}

/// Snapshot size by layer, and how long loading it took.
pub fn snapshot_sizes(l: &mut crate::metrics::Layers, fx: &Fixture) {
    l.set("store.snapshot_bytes", fx.snapshot_bytes as f64);
    l.set(
        "store.index_bytes",
        fx.section_bytes(&INDEX_SECTIONS) as f64,
    );
    l.set("store.sig_bytes", fx.section_bytes(&SIG_SECTIONS) as f64);
    l.set("store.ivf_bytes", fx.section_bytes(&IVF_SECTIONS) as f64);
    l.set("store.snapshot_load_ms", fx.load_ms);
}

/// Outside timing of the build's layers: run the pipeline to each stage
/// boundary and difference the walls. Both ranks need both cores, so a
/// neighbour's burst stretches a whole run; passes repeat while time
/// remains and each boundary keeps its *fastest* run — the estimate of
/// the uncontended time — before differencing. The snapshot write is the
/// writer's own `SnapshotReport::write_seconds`.
fn staged(job: &Job, set: &SourceSet, rec: &mut Recorder, out: &mut Outcome, fastest_build_s: f64) {
    const BOUNDARIES: [(&str, Stage); 4] = [
        ("build.until_scan", Stage::Scan),
        ("build.until_index", Stage::Index),
        ("build.until_sig", Stage::Sig),
        ("build.until_final", Stage::Final),
    ];
    let mut fastest = [f64::MAX; 4];
    let started = Instant::now();
    let mut pass = 0;
    while pass == 0 || started.elapsed() < job.phase() {
        for (i, (name, stage)) in BOUNDARIES.into_iter().enumerate() {
            let engine = Engine::new(engine_config(None));
            let rt = Runtime::new(Arc::new(CostModel::pnnl_2007()))
                .with_threads_per_rank(engine.config.threads_per_rank);
            let t0 = Instant::now();
            rec.span(name, pass, |_| {
                rt.run(PROCS, |ctx| engine.run_until(ctx, set, stage).is_some())
            });
            fastest[i] = fastest[i].min(t0.elapsed().as_secs_f64());
        }
        pass += 1;
    }
    let names = [
        "core.scan_s",
        "core.index_s",
        "core.sig_s",
        "core.clusproj_s",
    ];
    let mut reached = 0.0;
    for (name, until) in names.into_iter().zip(fastest) {
        out.layers.set(name, (until - reached).max(0.0));
        reached = reached.max(until);
    }
    // The layers should sum to the end-to-end figure, which was measured
    // separately (the fastest plain build, for the same reason).
    // Reported, not enforced: on a shared box it jitters by a tenth.
    let sum = reached + out.layers.get("store.snapshot_write_s");
    out.layers
        .set("build.layers_sum_ratio", sum / fastest_build_s);
}

/// Open the snapshot at `path` (which verifies every checksum) and
/// digest every section an answer can come from. `load` is left out: it
/// records which rank's task queue won which chunk, which is timing.
fn answer_sections_crc32(path: &Path) -> io::Result<u32> {
    let snap = EngineSnapshot::open(path)?;
    let mut crc = inspire_store::Crc32::new();
    for (name, ..) in snap.store().sections().filter(|(name, ..)| *name != "load") {
        crc.update(name.as_bytes());
        crc.update(snap.store().require(name)?.bytes());
    }
    Ok(crc.finish())
}

/// Digest of the build's input: the corpus bytes in source order.
fn corpus_crc32(set: &SourceSet) -> u32 {
    let mut crc = inspire_store::Crc32::new();
    for s in &set.sources {
        crc.update(&s.data);
    }
    crc.finish()
}
