//! Engine snapshots: every pipeline artifact in one checksummed
//! `inspire-store` container, for stage checkpoint/resume and
//! snapshot-backed query serving.
//!
//! A snapshot is **cumulative by stage**: a `Stage::Index` file contains
//! everything a `Stage::Scan` file does plus the inversion products, and
//! a `Stage::Final` file holds the complete engine output. The one
//! exception is the forward index, which only the inversion reads: a
//! `Stage::Scan` file alone carries it, and later restores rebuild the
//! documents from the inverted file instead. Resuming from
//! a stage-*k* checkpoint restarts the pipeline at stage *k+1* and — at
//! the same processor count — reproduces the uninterrupted run
//! bit-for-bit (the restore paths rebuild exactly the per-rank state the
//! live stages would have produced; the engine is deterministic from
//! there).
//!
//! Restore requires the snapshot's processor count, with one exception:
//! a **single rank** may load any snapshot for query serving — queries
//! read only the vocabulary, postings, and global statistics, which are
//! partition-independent.

use crate::config::{EngineConfig, TOPIC_RATIO};
use crate::pipeline::WEAK_SIG_THRESHOLD;
use crate::postings::{PostingsDir, PostingsReader};
use crate::topicality::MAX_DF_FRAC;
use corpus::SourceSet;
use inspire_store::{Scalar, Snapshot};
use std::io;
use std::path::{Path, PathBuf};

mod restore;
pub mod schema;
mod write;

pub use schema::EngineMeta;
pub(crate) use write::copy_snapshot;
pub use write::{write_engine_snapshot, SnapshotInput, SnapshotReport};

/// Pipeline stage a snapshot was taken after.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Stage {
    /// After Scan & Map: vocabulary, forward index, document structure.
    Scan = 1,
    /// After inverted file indexing and global term statistics.
    Index = 2,
    /// After topicality, association matrix, and signature generation
    /// (post adaptive-dimensionality loop).
    Sig = 3,
    /// After clustering and projection: the complete engine output.
    Final = 4,
}

impl Stage {
    /// Checkpoint file name for this stage.
    pub fn file_name(self) -> &'static str {
        match self {
            Stage::Scan => "ckpt_scan.isnap",
            Stage::Index => "ckpt_index.isnap",
            Stage::Sig => "ckpt_sig.isnap",
            Stage::Final => "ckpt_final.isnap",
        }
    }
}

/// Path of the checkpoint file for `stage` under `dir`.
pub fn checkpoint_path(dir: &Path, stage: Stage) -> PathBuf {
    dir.join(stage.file_name())
}

/// Fingerprint of the configuration fields that affect engine *results*
/// (execution-detail fields — thread width, checkpoint/snapshot paths —
/// are deliberately excluded: they change how a run executes, not what
/// it computes).
pub fn config_fingerprint(cfg: &EngineConfig) -> u64 {
    let s = format!(
        "{}|{}|{}|{:?}|{}|{}|{}|{}|{:?}|{}|{}|{}|{}|{}|{}|{}",
        cfg.n_major,
        TOPIC_RATIO,
        cfg.n_clusters,
        cfg.cluster_method,
        cfg.projection_dims,
        cfg.max_kmeans_iters,
        cfg.kmeans_tol,
        cfg.chunk_docs,
        cfg.balancing,
        cfg.adaptive_dims,
        cfg.max_dim_expansions,
        WEAK_SIG_THRESHOLD,
        cfg.min_df,
        MAX_DF_FRAC,
        // The tokenizer is fixed (`tokenize.rs`), and the k-means seeds
        // from document ids. Their slots keep the text they have always
        // rendered, so existing fingerprints (and the checkpoints that
        // carry them) stay valid.
        "TokenizerConfig { min_len: 3, max_len: 40, require_alpha: true, filter_stopwords: true }",
        8027,
    );
    intern::fxhash(s.as_bytes())
}

/// Fingerprint of the corpus content (names, sizes, and bytes).
pub fn corpus_fingerprint(sources: &SourceSet) -> u64 {
    let mut h = intern::fxhash(b"corpus");
    for s in &sources.sources {
        h = h
            .rotate_left(11)
            .wrapping_add(intern::fxhash(s.name.as_bytes()))
            .rotate_left(11)
            .wrapping_add(intern::fxhash(&s.data));
    }
    h
}

/// A loaded, validated engine snapshot. Construction verifies every
/// checksum (via [`inspire_store::Snapshot::open`]) and holds the file to
/// [`schema::ENGINE`]: every section the recorded stage promises is
/// present with its declared kind and length, every offsets table is
/// one. The section accessors below rest on that.
pub struct EngineSnapshot {
    snap: Snapshot,
    meta: EngineMeta,
    /// The inverted index's parsed tables (`Stage::Index` and later).
    index: Option<PostingsReader>,
}

impl EngineSnapshot {
    /// Open and validate an engine snapshot file.
    pub fn open(path: &Path) -> io::Result<EngineSnapshot> {
        Self::from_store(Snapshot::open(path)?)
    }

    /// Validate an already-loaded store container as an engine snapshot.
    pub fn from_store(snap: Snapshot) -> io::Result<EngineSnapshot> {
        let meta = EngineMeta::parse(&snap)?;
        schema::check(&snap, &schema::engine_rows(&meta), &meta)?;
        // The directory cross-checks the posting and skip section
        // lengths; posting bytes are covered by the store CRCs and stay
        // undecoded until a query needs them.
        let index = (meta.stage >= Stage::Index)
            .then(|| PostingsReader::open(&snap, meta.vocab_size))
            .transpose()?;
        Ok(EngineSnapshot { snap, meta, index })
    }

    /// Whether the snapshot carries the IVF + quantized-signature
    /// sections (§13): every Final snapshot of a non-degenerate corpus.
    pub fn has_ann(&self) -> bool {
        self.meta.wants_ann()
    }

    pub fn meta(&self) -> &EngineMeta {
        &self.meta
    }

    /// The underlying store container (section-level access).
    pub fn store(&self) -> &Snapshot {
        &self.snap
    }

    /// The section `row` declares, as the `T`s its kind stores. Panics
    /// when asked for a row this snapshot's stage does not carry —
    /// callers ask for what [`EngineMeta::stage`] and
    /// [`EngineSnapshot::has_ann`] promise — or for the wrong `T`.
    pub fn get<T: Scalar>(&self, row: &schema::Row) -> &[T] {
        let Some(view) = self.snap.section(row.name) else {
            panic!("no `{}` in a {:?} snapshot", row.name, self.meta.stage)
        };
        view.as_slice().expect("kind held to the schema at open")
    }

    /// The inverted index's reader; `None` before `Stage::Index`.
    pub fn index(&self) -> Option<&PostingsReader> {
        self.index.as_ref()
    }

    /// The compressed-postings directory.
    pub fn postings_dir(&self) -> io::Result<&PostingsDir> {
        self.since(Stage::Index, "inverted index")?;
        Ok(self.index.as_ref().expect("opened with the index").dir())
    }
}

/// Find the most advanced checkpoint in `dir` that matches this run
/// (fingerprints and processor count). Invalid, corrupt, or mismatched
/// files are skipped, not errors — resume falls back to earlier stages
/// and ultimately to a full run.
pub fn latest_checkpoint(
    dir: &Path,
    config_fp: u64,
    corpus_fp: u64,
    nprocs: usize,
) -> Option<EngineSnapshot> {
    for stage in [Stage::Final, Stage::Sig, Stage::Index, Stage::Scan] {
        let path = checkpoint_path(dir, stage);
        if !path.exists() {
            continue;
        }
        let Ok(snap) = EngineSnapshot::open(&path) else {
            continue;
        };
        let m = snap.meta();
        if m.stage == stage
            && m.config_fp == config_fp
            && m.corpus_fp == corpus_fp
            && m.nprocs == nprocs
        {
            return Some(snap);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{run_engine, Engine, EngineRun};
    use corpus::CorpusSpec;
    use perfmodel::CostModel;
    use spmd::{Component, Runtime};
    use std::sync::Arc;

    fn corpus() -> SourceSet {
        CorpusSpec {
            source_bytes: 8 * 1024,
            ..CorpusSpec::pubmed(128 * 1024, 29)
        }
        .generate()
    }

    /// A web corpus: pages of HTML, one indexed field, record sizes and
    /// vocabulary unlike PubMed's.
    fn trec_corpus() -> SourceSet {
        CorpusSpec {
            source_bytes: 8 * 1024,
            ..CorpusSpec::trec(128 * 1024, 31)
        }
        .generate()
    }

    fn tmp(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("va-snapshot-{}-{tag}", std::process::id()))
    }

    fn coord_bits(run: &EngineRun) -> Vec<(u64, u64)> {
        run.master()
            .coords
            .as_ref()
            .expect("rank 0 coords")
            .iter()
            .map(|&(x, y)| (x.to_bits(), y.to_bits()))
            .collect()
    }

    /// Satellite: kill the run after every stage boundary in turn, resume,
    /// and demand a bit-identical final result — on PubMed and on web
    /// pages, whose documents a post-Scan resume rebuilds from postings.
    #[test]
    fn crash_after_each_stage_then_resume_is_bit_identical() {
        for (flavour, src) in [("pubmed", corpus()), ("trec", trec_corpus())] {
            crash_after_each_stage_then_resume(flavour, &src);
        }
    }

    fn crash_after_each_stage_then_resume(flavour: &str, src: &SourceSet) {
        let base = EngineConfig::for_testing();
        let zero = Arc::new(CostModel::zero());
        let baseline = run_engine(2, zero.clone(), src, &base);
        let want_coords = coord_bits(&baseline);
        let want_assign = baseline.master().all_assignments.clone().unwrap();
        let want_obj = baseline.master().summary.kmeans_objective.to_bits();

        for stop in [Stage::Scan, Stage::Index, Stage::Sig, Stage::Final] {
            let dir = tmp(&format!("crash-{flavour}-{stop:?}"));
            let _ = std::fs::remove_dir_all(&dir);
            let cfg = EngineConfig {
                checkpoint_dir: Some(dir.clone()),
                ..base.clone()
            };
            // Simulate the crash: run through `stop`, abandon everything
            // the ranks held in memory, keep only the checkpoint files.
            let engine = Engine::new(cfg.clone());
            Runtime::new(zero.clone()).run(2, |ctx| {
                engine.run_until(ctx, src, stop);
            });
            assert!(
                checkpoint_path(&dir, stop).exists(),
                "no checkpoint written for {stop:?}"
            );

            let resumed = run_engine(
                2,
                zero.clone(),
                src,
                &EngineConfig {
                    resume: true,
                    ..cfg
                },
            );
            assert_eq!(
                coord_bits(&resumed),
                want_coords,
                "{flavour}: coords after {stop:?}"
            );
            assert_eq!(
                resumed.master().all_assignments.clone().unwrap(),
                want_assign,
                "{flavour}: assignments after {stop:?}"
            );
            assert_eq!(
                resumed.master().summary.kmeans_objective.to_bits(),
                want_obj,
                "{flavour}: objective after {stop:?}"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// Every checkpoint restores the documents a fresh scan produces, on
    /// every rank: from the forward index at Scan, from the postings
    /// after it. Only the Scan checkpoint hands back a forward index.
    /// PubMed indexes three fields per record, newswire two, web pages one.
    #[test]
    fn restored_documents_equal_a_fresh_scan() {
        let zero = Arc::new(CostModel::zero());
        let newswire = CorpusSpec {
            source_bytes: 8 * 1024,
            ..CorpusSpec::newswire(128 * 1024, 37)
        }
        .generate();
        let flavours = [
            ("pubmed", corpus()),
            ("trec", trec_corpus()),
            ("newswire", newswire),
        ];
        for (flavour, src) in flavours {
            for p in [1, 2, 4] {
                let dir = tmp(&format!("docs-{flavour}-p{p}"));
                let _ = std::fs::remove_dir_all(&dir);
                let cfg = EngineConfig {
                    checkpoint_dir: Some(dir.clone()),
                    ..EngineConfig::for_testing()
                };
                run_engine(p, zero.clone(), &src, &cfg);
                for stage in [Stage::Scan, Stage::Index, Stage::Sig, Stage::Final] {
                    let snap = EngineSnapshot::open(&checkpoint_path(&dir, stage)).unwrap();
                    Runtime::new(zero.clone()).run(p, |ctx| {
                        let (restored, forward) = snap.restore_scan(ctx).unwrap();
                        let (fresh, _) = crate::scan::scan(ctx, &src);
                        let at = format!("{flavour} P={p} {stage:?} rank {}", ctx.rank());
                        assert_eq!(forward.is_some(), stage == Stage::Scan, "{at}");
                        assert_eq!(restored.doc_base, fresh.doc_base, "{at}");
                        assert_eq!(restored.docs, fresh.docs, "{at}");
                    });
                }
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
    }

    /// A MEDLINE export with each MeSH heading on its own `MH` line: the
    /// generated records with every `MH` line split at its `; `.
    fn mesh_per_line(src: SourceSet) -> corpus::Source {
        let source = src.sources.into_iter().next().expect("one source");
        let text = String::from_utf8(source.data).expect("generated text is UTF-8");
        let data = text
            .lines()
            .map(|line| match line.strip_prefix("MH  - ") {
                Some(headings) => format!("MH  - {}\n", headings.replace("; ", "\nMH  - ")),
                None => format!("{line}\n"),
            })
            .collect::<String>()
            .into_bytes();
        corpus::Source { data, ..source }
    }

    /// Records that repeat a field resume from an Index checkpoint: rank 0
    /// scans a MEDLINE export with several `MH` lines per record, rank 1
    /// web pages, at P=2. The resume neither hangs nor falls back to a
    /// scan, and ends where an uninterrupted run ends.
    #[test]
    fn repeated_fields_resume_from_an_index_checkpoint() {
        let medline = mesh_per_line(
            CorpusSpec {
                source_bytes: 96 * 1024,
                ..CorpusSpec::pubmed(96 * 1024, 41)
            }
            .generate(),
        );
        let trec = CorpusSpec {
            source_bytes: 96 * 1024,
            ..CorpusSpec::trec(96 * 1024, 43)
        }
        .generate()
        .sources
        .remove(0);
        let text = String::from_utf8_lossy(&medline.data);
        assert!(text.contains("\nMH  - ") && !text.contains("; "));
        let src = SourceSet {
            sources: vec![medline, trec],
        };
        let parts = corpus::partition_contiguous(&src.sizes(), 2);
        assert_eq!(parts, [0..1, 1..2], "one source per rank");

        let zero = Arc::new(CostModel::zero());
        let dir = tmp("repeated-fields");
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = EngineConfig {
            checkpoint_dir: Some(dir.clone()),
            ..EngineConfig::for_testing()
        };
        let baseline = run_engine(2, zero.clone(), &src, &cfg);
        std::fs::remove_file(checkpoint_path(&dir, Stage::Sig)).unwrap();
        std::fs::remove_file(checkpoint_path(&dir, Stage::Final)).unwrap();

        // A rank that scans while the other restores would wait forever
        // in mismatched collectives: run the resume where a hang is seen.
        let (tx, rx) = std::sync::mpsc::channel();
        let resume_cfg = EngineConfig {
            resume: true,
            ..cfg
        };
        let resume_src = src.clone();
        std::thread::spawn(move || {
            let _ = tx.send(run_engine(2, zero, &resume_src, &resume_cfg));
        });
        let resumed = rx
            .recv_timeout(std::time::Duration::from_secs(120))
            .expect("the resume finishes");
        assert_eq!(coord_bits(&resumed), coord_bits(&baseline));
        // A scan and an inversion send far more than a restore's
        // collectives: neither stage ran again.
        for stage in [Component::Scan, Component::Index] {
            for (rank, (was, now)) in baseline
                .run
                .stats
                .iter()
                .zip(&resumed.run.stats)
                .enumerate()
            {
                let (was, now) = (was.stage_msgs_for(stage), now.stage_msgs_for(stage));
                assert!(
                    now < was,
                    "rank {rank} {stage:?}: {now} messages resumed, {was} fresh"
                );
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Each rank checks only its own documents, yet the ranks decide
    /// together: when rank 0's documents do not rebuild from the postings
    /// (here a file whose document repeats a field, as scans once wrote
    /// them), rank 1's restore fails too.
    #[test]
    fn ranks_refuse_a_scan_restore_together() {
        let zero = Arc::new(CostModel::zero());
        let src = corpus();
        let cfg = EngineConfig::for_testing();
        let path = tmp("split-field.isnap");
        Runtime::new(zero.clone()).run(2, |ctx| {
            let (mut scanned, forward) = crate::scan::scan(ctx, &src);
            let index = crate::index::invert(ctx, &scanned, forward, &cfg);
            if ctx.rank() == 0 {
                let fields = &mut scanned.docs[0].fields;
                let tail = fields[0].counts.split_off(1);
                let field = fields[0].field;
                fields.insert(
                    1,
                    crate::scan::LocalField {
                        field,
                        counts: tail,
                    },
                );
            }
            let inp = SnapshotInput {
                stage: Stage::Index,
                index: Some(&index),
                ..SnapshotInput::scanned(0, 0, &scanned, None)
            };
            write_engine_snapshot(ctx, &path, &inp).unwrap();
        });
        let snap = EngineSnapshot::open(&path).unwrap();
        let errors = Runtime::new(zero)
            .run(2, |ctx| snap.restore_scan(ctx).err().map(|e| e.to_string()))
            .results;
        let _ = std::fs::remove_file(&path);
        assert!(errors[0].as_ref().unwrap().contains("doc 0:"), "{errors:?}");
        assert!(
            errors[1].as_ref().unwrap().contains("1 other rank"),
            "{errors:?}"
        );
    }

    /// The writer conforms to the schema: every checkpoint, and a Final
    /// snapshot without the similarity sections, holds exactly its
    /// stage's rows — same order, names and kinds.
    #[test]
    fn writer_emits_exactly_the_schema_rows_of_each_stage() {
        let zero = Arc::new(CostModel::zero());
        let dir = tmp("conform");
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = EngineConfig {
            checkpoint_dir: Some(dir.clone()),
            ..EngineConfig::for_testing()
        };
        run_engine(2, zero.clone(), &corpus(), &cfg);
        // Every token is filtered: no signature dimensions, no ANN.
        let degenerate = dir.join("degenerate.isnap");
        let no_terms = SourceSet {
            sources: vec![corpus::Source {
                name: "none.txt".into(),
                data: b"PMID- 1\nTI  - a b c 1 2 3\nAB  - x y z 42\n\nPMID- 2\nTI  - 9 8 7\n\n"
                    .to_vec(),
                format: corpus::FormatKind::Medline,
            }],
        };
        let cfg = EngineConfig {
            snapshot_out: Some(degenerate.clone()),
            ..EngineConfig::for_testing()
        };
        run_engine(2, zero, &no_terms, &cfg);

        let mut files: Vec<PathBuf> = [Stage::Scan, Stage::Index, Stage::Sig, Stage::Final]
            .iter()
            .map(|&stage| checkpoint_path(&dir, stage))
            .collect();
        files.push(degenerate);
        let mut widths = Vec::new();
        for path in &files {
            let store = Snapshot::open(path).unwrap();
            let meta = EngineMeta::parse(&store).unwrap();
            let wrote: Vec<_> = store.sections().map(|(n, kind, _)| (n, kind)).collect();
            let rows: Vec<_> = schema::engine_rows(&meta)
                .iter()
                .map(|r| (r.name, r.kind))
                .collect();
            assert_eq!(wrote, rows, "{}", path.display());
            widths.push(rows.len());
        }
        assert_eq!(widths, [11, 15, 20, 33, 27]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A corrupt checkpoint is skipped (falling back to an earlier stage),
    /// never trusted: the run still completes with the baseline result.
    #[test]
    fn corrupt_checkpoint_falls_back_without_panicking() {
        let src = corpus();
        let base = EngineConfig::for_testing();
        let zero = Arc::new(CostModel::zero());
        let want = coord_bits(&run_engine(2, zero.clone(), &src, &base));

        let dir = tmp("corrupt");
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = EngineConfig {
            checkpoint_dir: Some(dir.clone()),
            ..base
        };
        let engine = Engine::new(cfg.clone());
        Runtime::new(zero.clone()).run(2, |ctx| {
            engine.run_until(ctx, &src, Stage::Index);
        });

        // Flip one byte in the middle of the index checkpoint and
        // truncate the scan checkpoint: both must be rejected.
        let idx_path = checkpoint_path(&dir, Stage::Index);
        let mut bytes = std::fs::read(&idx_path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&idx_path, &bytes).unwrap();
        let scan_path = checkpoint_path(&dir, Stage::Scan);
        let scan_bytes = std::fs::read(&scan_path).unwrap();
        std::fs::write(&scan_path, &scan_bytes[..scan_bytes.len() - 64]).unwrap();
        assert!(EngineSnapshot::open(&idx_path).is_err());
        assert!(EngineSnapshot::open(&scan_path).is_err());

        let resumed = run_engine(
            2,
            zero,
            &src,
            &EngineConfig {
                resume: true,
                ..cfg
            },
        );
        assert_eq!(coord_bits(&resumed), want);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Checkpoints only resume runs they actually belong to.
    #[test]
    fn latest_checkpoint_matches_fingerprints() {
        let src = corpus();
        let cfg = EngineConfig::for_testing();
        let zero = Arc::new(CostModel::zero());
        let dir = tmp("fingerprint");
        let _ = std::fs::remove_dir_all(&dir);
        let with_ckpt = EngineConfig {
            checkpoint_dir: Some(dir.clone()),
            ..cfg.clone()
        };
        let engine = Engine::new(with_ckpt);
        Runtime::new(zero).run(2, |ctx| {
            engine.run_until(ctx, &src, Stage::Scan);
        });

        let config_fp = config_fingerprint(&cfg);
        let corpus_fp = corpus_fingerprint(&src);
        let found = latest_checkpoint(&dir, config_fp, corpus_fp, 2).expect("matching checkpoint");
        assert_eq!(found.meta().stage, Stage::Scan);
        assert_eq!(found.meta().nprocs, 2);
        // Any mismatch — different config, corpus, or processor count —
        // means no resume.
        assert!(latest_checkpoint(&dir, config_fp ^ 1, corpus_fp, 2).is_none());
        assert!(latest_checkpoint(&dir, config_fp, corpus_fp ^ 1, 2).is_none());
        assert!(latest_checkpoint(&dir, config_fp, corpus_fp, 3).is_none());
        // Execution-detail settings do not change the fingerprint …
        let exec = EngineConfig {
            threads_per_rank: 4,
            checkpoint_dir: Some(dir.clone()),
            resume: true,
            ..cfg.clone()
        };
        assert_eq!(config_fingerprint(&exec), config_fp);
        // … but result-affecting ones do.
        let different = EngineConfig {
            n_clusters: cfg.n_clusters + 1,
            ..cfg.clone()
        };
        assert_ne!(config_fingerprint(&different), config_fp);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The fingerprints of the two stock configurations and of `repro`'s
    /// two shapes (its `bench_config` and the ablate-dims row), as every
    /// earlier build computed them: a change here would stop checkpoints
    /// those builds wrote from resuming.
    #[test]
    fn config_fingerprints_are_pinned() {
        assert_eq!(
            config_fingerprint(&EngineConfig::default()),
            0x7a56bc94638865fc
        );
        assert_eq!(
            config_fingerprint(&EngineConfig::for_testing()),
            0x7645e8f627a8b81d
        );
        let bench = EngineConfig {
            chunk_docs: 4,
            ..Default::default()
        };
        assert_eq!(config_fingerprint(&bench), 0x240fc799a96f4270);
        let ablate_dims = EngineConfig {
            n_major: 30,
            adaptive_dims: true,
            max_dim_expansions: 4,
            ..bench
        };
        assert_eq!(config_fingerprint(&ablate_dims), 0x4506009d8d3d371e);
    }

    /// A final-stage snapshot restores the complete output — including on
    /// a single serving rank loading a multi-rank snapshot.
    #[test]
    fn final_snapshot_restores_full_output() {
        let src = corpus();
        let zero = Arc::new(CostModel::zero());
        let path = tmp("final.isnap");
        let _ = std::fs::remove_file(&path);
        let cfg = EngineConfig {
            snapshot_out: Some(path.clone()),
            ..EngineConfig::for_testing()
        };
        let run = run_engine(2, zero.clone(), &src, &cfg);
        let report = run.master().snapshot_report.as_ref().expect("write report");
        assert!(report.total_bytes > 0);
        assert!(report.sections.iter().any(|(n, _)| n == "coordnd"));

        let snap = EngineSnapshot::open(&path).unwrap();
        assert_eq!(snap.meta().stage, Stage::Final);
        assert_eq!(snap.meta().total_docs, run.master().summary.total_docs);

        let mut res = Runtime::new(zero).run(1, |ctx| snap.restore_output(ctx).unwrap());
        let restored = res.results.remove(0);
        let want = run.master().coords.as_ref().unwrap();
        let got = restored.coords.as_ref().unwrap();
        assert_eq!(want.len(), got.len());
        for (a, b) in want.iter().zip(got) {
            assert_eq!(a.0.to_bits(), b.0.to_bits());
            assert_eq!(a.1.to_bits(), b.1.to_bits());
        }
        assert_eq!(
            restored.all_assignments.as_ref().unwrap(),
            run.master().all_assignments.as_ref().unwrap()
        );
        assert_eq!(restored.cluster_labels, run.master().cluster_labels);
        assert_eq!(restored.cluster_sizes, run.master().cluster_sizes);
        let _ = std::fs::remove_file(&path);
    }

    /// A resume that short-circuits on a final-stage checkpoint must
    /// still produce the requested `snapshot_out` file — by republishing
    /// the checkpoint's bytes — and report it.
    #[test]
    fn resume_from_final_checkpoint_republishes_snapshot() {
        let src = corpus();
        let zero = Arc::new(CostModel::zero());
        let dir = tmp("republish-ckpt");
        let out = tmp("republish.isnap");
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_file(&out);

        let cfg = EngineConfig {
            checkpoint_dir: Some(dir.clone()),
            ..EngineConfig::for_testing()
        };
        run_engine(2, zero.clone(), &src, &cfg);
        assert!(checkpoint_path(&dir, Stage::Final).exists());

        let resumed_cfg = EngineConfig {
            resume: true,
            snapshot_out: Some(out.clone()),
            ..cfg
        };
        let run = run_engine(2, zero, &src, &resumed_cfg);
        let report = run
            .master()
            .snapshot_report
            .as_ref()
            .expect("republished snapshot is reported");
        let ckpt = std::fs::read(checkpoint_path(&dir, Stage::Final)).unwrap();
        let published = std::fs::read(&out).unwrap();
        assert_eq!(ckpt, published, "republished bytes differ from checkpoint");
        assert_eq!(report.total_bytes, published.len() as u64);
        assert!(EngineSnapshot::open(&out).is_ok());

        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_file(&out);
    }

    /// A build asked for checkpoints and a snapshot gathers and writes its
    /// Final snapshot once: `snapshot_out` is a copy of the Final
    /// checkpoint, and the run communicates exactly what a checkpoint-only
    /// run does.
    #[test]
    fn checkpointed_build_writes_its_final_snapshot_once() {
        let src = corpus();
        let zero = Arc::new(CostModel::zero());
        let dir = tmp("once-ckpt");
        let out = tmp("once.isnap");
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_file(&out);
        let comm = |run: &EngineRun| {
            let s = run.run.total_stats();
            let bytes = s.one_sided_bytes + s.local_bytes + s.collective_bytes;
            (s.total_msgs(), bytes)
        };

        let cfg = EngineConfig {
            checkpoint_dir: Some(dir.clone()),
            ..EngineConfig::for_testing()
        };
        let alone = run_engine(2, zero.clone(), &src, &cfg);
        assert!(alone.master().snapshot_report.is_none());
        let both = run_engine(
            2,
            zero,
            &src,
            &EngineConfig {
                snapshot_out: Some(out.clone()),
                ..cfg
            },
        );
        let published = std::fs::read(&out).unwrap();
        let ckpt = std::fs::read(checkpoint_path(&dir, Stage::Final)).unwrap();
        assert_eq!(
            published, ckpt,
            "snapshot_out differs from the Final checkpoint"
        );
        let report = both.master().snapshot_report.as_ref().expect("reported");
        assert_eq!(report.total_bytes, published.len() as u64);
        assert_eq!(comm(&both), comm(&alone), "(messages, bytes)");
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_file(&out);
    }

    /// A snapshot that cannot be published — a directory holds
    /// `snapshot_out`'s name, so the rename fails once the file is
    /// written or copied — is not reported and leaves no tmp file.
    #[test]
    fn unpublishable_snapshot_is_not_reported_and_leaves_no_tmp() {
        let zero = Arc::new(CostModel::zero());
        let dir = tmp("taken");
        let _ = std::fs::remove_dir_all(&dir);
        let out = dir.join("engine.isnap");
        std::fs::create_dir_all(&out).unwrap();
        let names = |d: &Path| {
            let mut names: Vec<String> = std::fs::read_dir(d)
                .unwrap()
                .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
                .collect();
            names.sort();
            names
        };
        let ckpt = dir.join("ckpt");
        for checkpoint_dir in [None, Some(ckpt.clone())] {
            let cfg = EngineConfig {
                snapshot_out: Some(out.clone()),
                checkpoint_dir,
                ..EngineConfig::for_testing()
            };
            let run = run_engine(2, zero.clone(), &corpus(), &cfg);
            assert!(run.master().snapshot_report.is_none());
            assert!(out.is_dir());
        }
        assert_eq!(names(&dir), ["ckpt", "engine.isnap"]);
        assert!(names(&ckpt).iter().all(|n| n.ends_with(".isnap")));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
