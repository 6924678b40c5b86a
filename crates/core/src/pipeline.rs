//! The engine: orchestration of all pipeline stages with per-component
//! time attribution (paper Figure 3/4).

use crate::assoc;
use crate::cluster::{cluster_documents, Clustering};
use crate::config::EngineConfig;
use crate::index::{invert, RankLoad};
use crate::project::project_nd;
use crate::scan::scan;
use crate::signature::{generate, SignatureStats};
use crate::snapshot::{
    self, config_fingerprint, copy_snapshot, corpus_fingerprint, write_engine_snapshot,
    EngineSnapshot, SnapshotInput, SnapshotReport, Stage,
};
use crate::topicality::select_topics;
use corpus::SourceSet;
use perfmodel::CostModel;
use spmd::{Component, Ctx, RunResult, Runtime};
use std::io;
use std::path::Path;
use std::sync::Arc;

/// Summary of one engine execution (identical on every rank).
#[derive(Debug, Clone)]
pub struct EngineSummary {
    pub vocab_size: usize,
    pub total_docs: u32,
    pub total_tokens: u64,
    /// Final N after any adaptive expansion.
    pub n_major: usize,
    /// Final M after any adaptive expansion.
    pub m_dims: usize,
    /// How many times the dimensionality was expanded (§4.2 remedy).
    pub dim_expansions: usize,
    pub sig_stats: SignatureStats,
    pub kmeans_iters: usize,
    pub kmeans_objective: f64,
    pub variance_explained: f64,
    /// Per-rank inversion load statistics (Figure 9).
    pub load: Vec<RankLoad>,
}

/// Per-rank engine output.
#[derive(Debug, Clone)]
pub struct EngineOutput {
    /// 2-D coordinates of this rank's documents.
    pub local_coords: Vec<(f64, f64)>,
    /// All coordinates in document order (rank 0 only — the "master
    /// writes the file" step).
    pub coords: Option<Vec<(f64, f64)>>,
    /// This rank's full projection (row-major `n_local × projection_dims`;
    /// equals `local_coords` when 2-D, adds a third component when 3-D).
    pub local_coords_nd: Vec<f64>,
    /// Number of projected dimensions (2 or 3).
    pub projection_dims: usize,
    /// Cluster assignment per local document.
    pub assignments: Vec<u32>,
    /// All documents' cluster assignments in global order (rank 0 only).
    pub all_assignments: Option<Vec<u32>>,
    /// Global id of this rank's first document.
    pub doc_base: u32,
    /// Cluster labels: for each cluster, its most characteristic topic
    /// terms (strongest centroid dimensions), best first.
    pub cluster_labels: Vec<Vec<String>>,
    /// Documents per cluster (global).
    pub cluster_sizes: Vec<u64>,
    /// What the final snapshot write reported, when
    /// [`EngineConfig::snapshot_out`] was set (rank 0 only).
    pub snapshot_report: Option<SnapshotReport>,
    pub summary: EngineSummary,
}

/// The text processing engine.
pub struct Engine {
    pub config: EngineConfig,
}

impl Engine {
    pub fn new(config: EngineConfig) -> Self {
        Engine { config }
    }

    /// Execute the full pipeline on one rank (collective: every rank of
    /// the runtime must call this with the same corpus and config).
    pub fn run(&self, ctx: &Ctx, sources: &SourceSet) -> EngineOutput {
        self.run_until(ctx, sources, Stage::Final)
            .expect("run_until(Stage::Final) always produces an output")
    }

    /// Write `inp`'s snapshot unless the checkpoint being resumed already
    /// holds its stage: to the stage's checkpoint when checkpointing, else
    /// (Final stage only) to [`EngineConfig::snapshot_out`]. Failures are
    /// warnings: a run never dies because a snapshot could not be written.
    fn write_snapshot(
        &self,
        ctx: &Ctx,
        resume: Option<&EngineSnapshot>,
        inp: &SnapshotInput,
    ) -> Option<SnapshotReport> {
        let path = match (&self.config.checkpoint_dir, &self.config.snapshot_out) {
            _ if resume.is_some_and(|s| s.meta().stage >= inp.stage) => return None,
            (Some(dir), _) => {
                // A directory that cannot be created fails the write, which warns.
                if ctx.rank() == 0 {
                    std::fs::create_dir_all(dir).ok();
                }
                snapshot::checkpoint_path(dir, inp.stage)
            }
            (None, Some(out)) if inp.stage == Stage::Final => out.clone(),
            _ => return None,
        };
        warned(ctx, &path, write_engine_snapshot(ctx, &path, inp))
    }

    /// Publish the Final snapshot at [`EngineConfig::snapshot_out`]. When
    /// checkpointing, the Final checkpoint already holds it (`written`
    /// describes that file, on rank 0) and rank 0 copies it instead of
    /// gathering and writing it again; otherwise `written` is
    /// `snapshot_out`'s own report.
    fn publish_final(&self, ctx: &Ctx, written: Option<SnapshotReport>) -> Option<SnapshotReport> {
        let out = self.config.snapshot_out.as_ref()?;
        let Some(dir) = &self.config.checkpoint_dir else {
            return written;
        };
        let from = snapshot::checkpoint_path(dir, Stage::Final);
        warned(ctx, out, copy_snapshot(&from, out, written?).map(Some))
    }

    /// Execute the pipeline through `stop_after`, inclusive.
    ///
    /// With [`EngineConfig::checkpoint_dir`] set, a cumulative snapshot is
    /// written after every completed stage; with [`EngineConfig::resume`]
    /// also set, the most advanced valid checkpoint matching this
    /// configuration, corpus, and processor count is restored and only
    /// the remaining stages run — bit-identical to the uninterrupted run.
    /// Corrupt or mismatched checkpoints are skipped (falling back to
    /// earlier stages or a full run), never trusted partially.
    ///
    /// Returns `None` when stopped before [`Stage::Final`]; the
    /// crash/resume tests use this to simulate a run dying at each stage
    /// boundary. Collective: every rank must pass the same `stop_after`.
    pub fn run_until(
        &self,
        ctx: &Ctx,
        sources: &SourceSet,
        stop_after: Stage,
    ) -> Option<EngineOutput> {
        let cfg = &self.config;

        // Declare the working set so the memory-pressure model can apply
        // (the Figure 5 anomaly). At identity scale the nominal size is
        // the real corpus size.
        let scale = &ctx.model().scale;
        let nominal_bytes = if scale.nominal_bytes > scale.actual_bytes {
            scale.nominal_bytes
        } else {
            sources.total_bytes()
        };
        let ws = ctx.model().memory.working_set(nominal_bytes, ctx.nprocs());
        ctx.set_working_set(ws);

        let config_fp = config_fingerprint(cfg);
        let corpus_fp = corpus_fingerprint(sources);

        // Every rank opens the same checkpoint files read-only, so the
        // resume decision is identical everywhere without communication.
        let mut resume = if cfg.resume {
            cfg.checkpoint_dir
                .as_deref()
                .and_then(|d| snapshot::latest_checkpoint(d, config_fp, corpus_fp, ctx.nprocs()))
        } else {
            None
        };

        // A final-stage checkpoint short-circuits the whole pipeline.
        let restored = restore_or_compute(
            ctx,
            &mut resume,
            Stage::Final,
            |s| s.restore_output(ctx).map(Some),
            || None,
        );
        if let (Some(mut out), Some(ckpt)) = (restored, &resume) {
            let ckpt_report = (ctx.rank() == 0).then(|| SnapshotReport::describe(ckpt));
            out.snapshot_report = self.publish_final(ctx, ckpt_report);
            return Some(out);
        }

        // ---- Scan & Map ----
        let (mut scanned, mut forward) = restore_or_compute(
            ctx,
            &mut resume,
            Stage::Scan,
            |s| ctx.component(Component::Scan, || s.restore_scan(ctx)),
            || {
                let (scanned, forward) = ctx.component(Component::Scan, || scan(ctx, sources, cfg));
                (scanned, Some(forward))
            },
        );
        let at_scan = SnapshotInput::scanned(config_fp, corpus_fp, &scanned, forward.as_ref());
        self.write_snapshot(ctx, resume.as_ref(), &at_scan);
        if stop_after == Stage::Scan {
            return None;
        }

        // ---- Inverted file indexing + global term statistics ----
        // The inversion consumes the forward index. Only a Scan-stage
        // checkpoint holds one, so when a later checkpoint's index fails to
        // restore (which ends the resume) the scan is run again.
        let index = restore_or_compute(
            ctx,
            &mut resume,
            Stage::Index,
            |s| ctx.component(Component::Index, || s.restore_index(ctx)),
            || {
                let forward = forward.take().unwrap_or_else(|| {
                    let (rescanned, forward) =
                        ctx.component(Component::Scan, || scan(ctx, sources, cfg));
                    scanned = rescanned;
                    forward
                });
                ctx.component(Component::Index, || invert(ctx, &scanned, forward, cfg))
            },
        );
        let mut inp = SnapshotInput {
            stage: Stage::Index,
            index: Some(&index),
            ..SnapshotInput::scanned(config_fp, corpus_fp, &scanned, None)
        };
        self.write_snapshot(ctx, resume.as_ref(), &inp);
        if stop_after == Stage::Index {
            return None;
        }

        // ---- Topicality → association matrix → signatures, with the
        // adaptive-dimensionality loop (§4.2) ----
        let (topics, am, sigs, expansions) = restore_or_compute(
            ctx,
            &mut resume,
            Stage::Sig,
            |s| ctx.component(Component::DocVec, || s.restore_sig_state(ctx)),
            || {
                let mut n_major = cfg.n_major;
                let mut m_dims = cfg.m_dims();
                let mut expansions = 0usize;
                loop {
                    let topics = ctx.component(Component::Topic, || {
                        select_topics(ctx, &index, cfg, n_major, m_dims)
                    });
                    let am = ctx.component(Component::Assoc, || {
                        assoc::build(ctx, &scanned, &index, &topics)
                    });
                    let sigs = ctx.component(Component::DocVec, || generate(ctx, &scanned, &am));
                    let expand = cfg.adaptive_dims
                        && expansions < cfg.max_dim_expansions
                        && sigs.stats.weak_fraction() > cfg.weak_sig_threshold
                        && topics.major.len() == n_major; // no more terms to add otherwise
                    if !expand {
                        break (topics, am, sigs, expansions);
                    }
                    expansions += 1;
                    n_major = (n_major * 3) / 2;
                    m_dims = ((n_major as f64 * cfg.topic_ratio).round() as usize).max(m_dims + 1);
                }
            },
        );
        inp.stage = Stage::Sig;
        inp.topics = Some(&topics);
        inp.am = Some(&am);
        inp.sigs = Some(&sigs);
        inp.expansions = expansions;
        self.write_snapshot(ctx, resume.as_ref(), &inp);
        if stop_after == Stage::Sig {
            return None;
        }

        // ---- Clustering and projection ----
        let (clustering, projection) = ctx.component(Component::ClusProj, || {
            let cl = cluster_documents(ctx, &sigs, scanned.doc_base, scanned.total_docs, cfg);
            let proj = project_nd(ctx, &sigs, &cl, cfg.projection_dims);
            (cl, proj)
        });

        let cluster_labels = label_clusters(&clustering, &topics.topics, &scanned.terms);

        inp.stage = Stage::Final;
        inp.clustering = Some(&clustering);
        inp.coords_nd = Some(&projection.local_coords_nd);
        inp.projection_dims = projection.dims;
        inp.variance_explained = projection.variance_explained;
        inp.labels = Some(&cluster_labels);
        let written = self.write_snapshot(ctx, resume.as_ref(), &inp);
        let snapshot_report = self.publish_final(ctx, written);

        // The master also collects cluster assignments (alongside the
        // coordinates it writes out).
        let all_assignments = ctx
            .gather_data(
                0,
                clustering.assignments.clone(),
                (clustering.assignments.len() * 4) as u64,
            )
            .map(|parts| parts.concat());

        Some(EngineOutput {
            local_coords: projection.local_coords,
            coords: projection.all_coords,
            local_coords_nd: projection.local_coords_nd,
            projection_dims: projection.dims,
            all_assignments,
            assignments: clustering.assignments.clone(),
            doc_base: scanned.doc_base,
            cluster_labels,
            cluster_sizes: clustering.sizes.clone(),
            snapshot_report,
            summary: EngineSummary {
                vocab_size: scanned.vocab_size(),
                total_docs: scanned.total_docs,
                total_tokens: index.total_tokens,
                n_major: topics.major.len(),
                m_dims: topics.m_dims(),
                dim_expansions: expansions,
                sig_stats: sigs.stats,
                kmeans_iters: clustering.iterations,
                kmeans_objective: clustering.objective,
                variance_explained: projection.variance_explained,
                load: index.load.clone(),
            },
        })
    }
}

/// A stage's products: restored from the checkpoint being resumed when
/// it holds them, else computed. A failed restore is warned about and
/// ends the resume, so this stage and every later one are recomputed and
/// checkpointed again.
fn restore_or_compute<T>(
    ctx: &Ctx,
    resume: &mut Option<EngineSnapshot>,
    stage: Stage,
    restore: impl FnOnce(&EngineSnapshot) -> io::Result<T>,
    compute: impl FnOnce() -> T,
) -> T {
    if let Some(snap) = resume.as_ref().filter(|s| s.meta().stage >= stage) {
        match restore(snap) {
            Ok(products) => return products,
            Err(e) => {
                if ctx.rank() == 0 {
                    let msg = format!("{stage:?} checkpoint restore failed ({e}); recomputing");
                    inspire_trace::log_warn!(ctx.rank(), "{msg}");
                }
                *resume = None;
            }
        }
    }
    compute()
}

/// A snapshot write's or copy's report, its failure downgraded to a
/// warning. Only rank 0 writes, so only rank 0 can fail.
fn warned(
    ctx: &Ctx,
    path: &Path,
    result: io::Result<Option<SnapshotReport>>,
) -> Option<SnapshotReport> {
    result.unwrap_or_else(|e| {
        inspire_trace::log_warn!(ctx.rank(), "snapshot {} failed: {e}", path.display());
        None
    })
}

/// For each cluster, the topic terms with the strongest centroid weight.
fn label_clusters(
    clustering: &Clustering,
    topics: &[crate::TermId],
    terms: &intern::TermTable,
) -> Vec<Vec<String>> {
    const LABELS_PER_CLUSTER: usize = 5;
    (0..clustering.k)
        .map(|c| {
            let cen = clustering.centroid(c);
            let mut dims: Vec<usize> = (0..clustering.m).collect();
            dims.sort_by(|&a, &b| cen[b].partial_cmp(&cen[a]).unwrap().then(a.cmp(&b)));
            dims.iter()
                .take(LABELS_PER_CLUSTER)
                .filter(|&&d| cen[d] > 0.0)
                .map(|&d| terms[topics[d] as usize].to_string())
                .collect()
        })
        .collect()
}

/// Outcome of a full multi-rank engine execution.
#[derive(Debug)]
pub struct EngineRun {
    /// Per-rank outputs.
    pub outputs: Vec<EngineOutput>,
    /// Virtual wall-clock (slowest rank), seconds on the modeled cluster.
    pub virtual_time: f64,
    /// Per-component critical-path times.
    pub components: spmd::timer::TimerSnapshot,
    /// Per-rank clocks and communication statistics.
    pub run: RunResult<()>,
}

impl EngineRun {
    /// The rank-0 output (which holds the gathered coordinates).
    pub fn master(&self) -> &EngineOutput {
        &self.outputs[0]
    }
}

/// Convenience: run the engine on `nprocs` ranks under `model`.
pub fn run_engine(
    nprocs: usize,
    model: Arc<CostModel>,
    sources: &SourceSet,
    config: &EngineConfig,
) -> EngineRun {
    let rt = Runtime::new(model)
        .with_threads_per_rank(config.threads_per_rank)
        .with_tracing(config.trace);
    let engine = Engine::new(config.clone());
    let mut outputs: Vec<Option<EngineOutput>> = Vec::new();
    let res = rt.run(nprocs, |ctx| engine.run(ctx, sources));
    let mut run_results = Vec::with_capacity(nprocs);
    for out in res.results {
        outputs.push(Some(out));
        run_results.push(());
    }
    let run = RunResult {
        results: run_results,
        clocks: res.clocks,
        timers: res.timers,
        stats: res.stats,
        traces: res.traces,
    };
    EngineRun {
        outputs: outputs.into_iter().map(|o| o.unwrap()).collect(),
        virtual_time: run.virtual_time(),
        components: run.component_times(),
        run,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use corpus::CorpusSpec;

    fn corpus() -> SourceSet {
        CorpusSpec {
            source_bytes: 8 * 1024,
            ..CorpusSpec::pubmed(192 * 1024, 17)
        }
        .generate()
    }

    #[test]
    fn end_to_end_produces_coordinates() {
        let src = corpus();
        let run = run_engine(
            3,
            Arc::new(CostModel::zero()),
            &src,
            &EngineConfig::for_testing(),
        );
        let master = run.master();
        let coords = master.coords.as_ref().expect("rank 0 gathers coords");
        assert_eq!(coords.len() as u32, master.summary.total_docs);
        assert!(master.summary.vocab_size > 500);
        assert!(master.summary.total_tokens > 8_000);
    }

    #[test]
    fn outputs_agree_across_ranks() {
        let src = corpus();
        let run = run_engine(
            4,
            Arc::new(CostModel::zero()),
            &src,
            &EngineConfig::for_testing(),
        );
        for o in &run.outputs {
            assert_eq!(o.summary.vocab_size, run.outputs[0].summary.vocab_size);
            assert_eq!(o.cluster_sizes, run.outputs[0].cluster_sizes);
            assert_eq!(o.cluster_labels, run.outputs[0].cluster_labels);
        }
        // Only rank 0 holds the gathered coordinates.
        assert!(run.outputs[0].coords.is_some());
        assert!(run.outputs[1..].iter().all(|o| o.coords.is_none()));
    }

    #[test]
    fn deterministic_across_processor_counts() {
        let src = corpus();
        let cfg = EngineConfig::for_testing();
        let zero = Arc::new(CostModel::zero());
        let c1 = run_engine(1, zero.clone(), &src, &cfg)
            .master()
            .coords
            .clone()
            .unwrap();
        for p in [2, 5] {
            let cp = run_engine(p, zero.clone(), &src, &cfg)
                .master()
                .coords
                .clone()
                .unwrap();
            assert_eq!(c1.len(), cp.len());
            for (i, ((x, y), (x1, y1))) in cp.iter().zip(&c1).enumerate() {
                assert!(
                    (x - x1).abs() < 1e-6 && (y - y1).abs() < 1e-6,
                    "P={p} doc {i} ({x},{y}) vs ({x1},{y1})"
                );
            }
        }
    }

    #[test]
    fn component_times_populated_under_real_model() {
        let src = corpus();
        let run = run_engine(
            2,
            Arc::new(CostModel::pnnl_2007()),
            &src,
            &EngineConfig::for_testing(),
        );
        let ct = run.components;
        for comp in [
            Component::Scan,
            Component::Index,
            Component::Topic,
            Component::Assoc,
            Component::DocVec,
            Component::ClusProj,
        ] {
            assert!(ct.get(comp) > 0.0, "{comp:?} has zero time");
        }
        assert!(run.virtual_time > 0.0);
    }

    #[test]
    fn cluster_labels_are_real_terms() {
        let src = corpus();
        let run = run_engine(
            2,
            Arc::new(CostModel::zero()),
            &src,
            &EngineConfig::for_testing(),
        );
        let labels = &run.master().cluster_labels;
        assert!(!labels.is_empty());
        let mut non_empty = 0;
        for l in labels {
            if !l.is_empty() {
                non_empty += 1;
                for term in l {
                    assert!(term.len() >= 3, "label {term}");
                }
            }
        }
        assert!(non_empty > 0);
    }

    #[test]
    fn adaptive_dims_reports_expansions() {
        let src = corpus();
        // Force expansion by starting with absurdly few major terms.
        let cfg = EngineConfig {
            n_major: 10,
            adaptive_dims: true,
            max_dim_expansions: 3,
            weak_sig_threshold: 0.01,
            ..EngineConfig::for_testing()
        };
        let run = run_engine(2, Arc::new(CostModel::zero()), &src, &cfg);
        let s = &run.master().summary;
        // With only 10 major terms most PubMed records have weak
        // signatures, so the engine must expand at least once.
        assert!(s.dim_expansions >= 1, "expected expansion, got {s:?}");
        assert!(s.n_major > 10);
    }
}
