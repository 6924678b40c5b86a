//! Engine snapshots: every pipeline artifact in one checksummed
//! `inspire-store` container, for stage checkpoint/resume and
//! snapshot-backed query serving.
//!
//! A snapshot is **cumulative by stage**: a `Stage::Index` file contains
//! everything a `Stage::Scan` file does plus the inversion products, and
//! a `Stage::Final` file holds the complete engine output. Resuming from
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

use crate::assoc::AssociationMatrix;
use crate::cluster::Clustering;
use crate::config::EngineConfig;
use crate::index::{pack_posting, InvertedIndex, Posting, RankLoad};
use crate::pipeline::{EngineOutput, EngineSummary};
use crate::postings::{
    encode_index_sections, read_terms, EncodedIndex, PostingsDir, PostingsReader,
};
use crate::scan::{unpack_entry, LocalDoc, LocalField, ScanOutput};
use crate::signature::{SignatureStats, Signatures};
use crate::topicality::TopicSelection;
use crate::{DocId, TermId};
use corpus::SourceSet;
use ga::{DistHashMap, GlobalArray, GlobalArray2D};
use inspire_store::{Snapshot, SnapshotWriter};
use intern::TermTable;
use spmd::Ctx;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

pub mod schema;

pub use schema::EngineMeta;

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
        "{}|{}|{}|{:?}|{}|{}|{}|{}|{:?}|{}|{}|{}|{}|{}|{:?}|{}",
        cfg.n_major,
        cfg.topic_ratio,
        cfg.n_clusters,
        cfg.cluster_method,
        cfg.projection_dims,
        cfg.max_kmeans_iters,
        cfg.kmeans_tol,
        cfg.chunk_docs,
        cfg.balancing,
        cfg.adaptive_dims,
        cfg.max_dim_expansions,
        cfg.weak_sig_threshold,
        cfg.min_df,
        cfg.max_df_frac,
        cfg.tokenizer,
        cfg.seed,
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

/// What a snapshot write reported (rank 0 only).
#[derive(Debug, Clone)]
pub struct SnapshotReport {
    /// Host wall-clock seconds spent serializing and writing the file.
    pub write_seconds: f64,
    /// Total file size in bytes.
    pub total_bytes: u64,
    /// `(section name, payload bytes)` per section.
    pub sections: Vec<(String, u64)>,
}

/// Everything available for a snapshot at some stage. Later-stage fields
/// are `None` for earlier-stage snapshots.
pub struct SnapshotInput<'a> {
    pub stage: Stage,
    pub config_fp: u64,
    pub corpus_fp: u64,
    pub scan: &'a ScanOutput,
    pub index: Option<&'a InvertedIndex>,
    pub topics: Option<&'a TopicSelection>,
    pub am: Option<&'a AssociationMatrix>,
    pub sigs: Option<&'a Signatures>,
    pub expansions: usize,
    pub clustering: Option<&'a Clustering>,
    pub coords_nd: Option<&'a [f64]>,
    pub projection_dims: usize,
    pub variance_explained: f64,
    pub labels: Option<&'a [Vec<String>]>,
}

/// Write an engine snapshot. Collective: all ranks participate in the
/// gathers; rank 0 writes `path` (atomically, via a temp file + rename)
/// and returns the report. The write is fenced by a barrier, so on
/// return every rank may rely on the file existing.
pub fn write_engine_snapshot(
    ctx: &Ctx,
    path: &Path,
    inp: &SnapshotInput<'_>,
) -> io::Result<Option<SnapshotReport>> {
    let scan = inp.scan;
    let total_docs = scan.total_docs as usize;

    // ---- Collect per-rank document structure on rank 0 ----
    let doc_bases: Vec<u64> = ctx.allgather(scan.doc_base as u64, 8);
    let mut docbase: Vec<u64> = doc_bases;
    docbase.push(total_docs as u64);

    let mut my_doctok: Vec<u32> = Vec::with_capacity(scan.docs.len());
    let mut my_segcnt: Vec<u32> = Vec::with_capacity(scan.docs.len());
    let mut my_segfld: Vec<u32> = Vec::new();
    let mut my_seglen: Vec<u32> = Vec::new();
    for d in &scan.docs {
        my_doctok.push(d.tokens);
        my_segcnt.push(d.fields.len() as u32);
        for f in &d.fields {
            my_segfld.push(f.field as u32);
            my_seglen.push(f.counts.len() as u32);
        }
    }
    let seg_bytes = (my_segfld.len() * 8 + my_doctok.len() * 8) as u64;
    let doctok = ctx.gather_data(0, my_doctok, seg_bytes);
    let segcnt = ctx.gather_data(0, my_segcnt, 0);
    let segfld = ctx.gather_data(0, my_segfld, 0);
    let seglen = ctx.gather_data(0, my_seglen, 0);

    let my_rankio = vec![
        scan.bytes_scanned,
        scan.tokens_scanned,
        scan.vocab_rpc_msgs,
        scan.vocab_rpc_scalar_equiv,
    ];
    let rankio = ctx.gather_data(0, my_rankio, 32);

    // ---- Gather the global arrays on the writing rank (collective) ----
    let fwdoff = scan.fwd_offsets.gather_to(ctx, 0);
    let fwddat = scan.fwd_data.gather_to(ctx, 0);
    let postdat = inp.index.and_then(|idx| idx.postings.gather_to(ctx, 0));
    let sigdat = inp.sigs.and_then(|s| s.global.gather_to(ctx, 0));

    // ---- Final-stage gathers ----
    let assign = inp.clustering.map(|cl| {
        ctx.gather_data(0, cl.assignments.clone(), (cl.assignments.len() * 4) as u64)
            .map(|parts| parts.concat())
    });
    let coordnd = inp.coords_nd.map(|nd| {
        ctx.gather_data(0, nd.to_vec(), (nd.len() * 8) as u64)
            .map(|parts| parts.concat())
    });

    let mut result = Ok(None);
    if ctx.rank() == 0 {
        result = (|| {
            let start = std::time::Instant::now();
            // A stage's products are absent (zero) until it has run.
            let meta = EngineMeta {
                stage: inp.stage,
                nprocs: ctx.nprocs(),
                total_docs: scan.total_docs,
                vocab_size: scan.vocab_size(),
                config_fp: inp.config_fp,
                corpus_fp: inp.corpus_fp,
                total_tokens: inp.index.map_or(0, |idx| idx.total_tokens),
                n_major: inp.topics.map_or(0, |t| t.major.len()),
                m_dims: inp.topics.map_or(0, |t| t.m_dims()),
                dim_expansions: inp.topics.map_or(0, |_| inp.expansions),
                sig_stats: inp.sigs.map_or(
                    SignatureStats {
                        total: 0,
                        null: 0,
                        weak: 0,
                    },
                    |s| s.stats,
                ),
                k: inp.clustering.map_or(0, |cl| cl.k),
                kmeans_iters: inp.clustering.map_or(0, |cl| cl.iterations),
                kmeans_objective: inp.clustering.map_or(0.0, |cl| cl.objective),
                variance_explained: inp.variance_explained,
                projection_dims: inp.projection_dims,
            };

            let doctok: Vec<u32> = doctok.as_ref().unwrap().concat();
            let segcnt: Vec<u32> = segcnt.as_ref().unwrap().concat();
            let segfld: Vec<u32> = segfld.as_ref().unwrap().concat();
            let seglen: Vec<u32> = seglen.as_ref().unwrap().concat();
            let mut segoff: Vec<u64> = Vec::with_capacity(total_docs + 1);
            let mut at = 0u64;
            for &c in &segcnt {
                segoff.push(at);
                at += c as u64;
            }
            segoff.push(at);
            let rankio: Vec<u64> = rankio.as_ref().unwrap().concat();

            let tmp = path.with_extension("isnap.tmp");
            let mut w = SnapshotWriter::create(&tmp)?;
            w.add_u64s("meta", &meta.to_slots())?;
            w.add_u64s("docbase", &docbase)?;
            w.add_bytes("terms", scan.terms.arena_bytes())?;
            w.add_u32s("termoff", scan.terms.offsets())?;
            w.add_u32s("doctok", &doctok)?;
            w.add_u64s("segoff", &segoff)?;
            w.add_u32s("segfld", &segfld)?;
            w.add_u32s("seglen", &seglen)?;
            w.add_i64s("fwdoff", fwdoff.as_ref().unwrap())?;
            w.add_u64s("fwddat", fwddat.as_ref().unwrap())?;
            // Each gathered copy is returned as soon as it is written, so
            // the sections that follow reuse its pages instead of raising
            // the writer's peak.
            drop(fwddat);
            w.add_u64s("rankio", &rankio)?;

            if let Some(idx) = inp.index {
                let enc = encode_index_sections(
                    &idx.offsets,
                    postdat.as_ref().unwrap(),
                    &idx.df,
                    &idx.tf,
                );
                drop(postdat);
                write_index_sections(&mut w, &enc)?;
                let load: Vec<u64> = idx
                    .load
                    .iter()
                    .flat_map(|l| {
                        [
                            l.own_tasks as u64,
                            l.stolen_tasks as u64,
                            l.postings,
                            l.seconds.to_bits(),
                        ]
                    })
                    .collect();
                w.add_u64s("load", &load)?;
            }

            if let (Some(t), Some(am), Some(_)) = (inp.topics, inp.am, inp.sigs) {
                w.add_u32s("major", &t.major)?;
                w.add_f64s("mscore", &t.scores)?;
                w.add_u32s("topics", &t.topics)?;
                w.add_f64s("assoc", &am.values)?;
                w.add_f64s("sigs", sigdat.as_ref().unwrap())?;
            }

            if let (Some(cl), Some(labels)) = (inp.clustering, inp.labels) {
                w.add_u32s("assign", assign.as_ref().unwrap().as_ref().unwrap())?;
                w.add_f64s("centroid", &cl.centroids)?;
                w.add_u64s("csize", &cl.sizes)?;
                w.add_f64s("coordnd", coordnd.as_ref().unwrap().as_ref().unwrap())?;
                let mut labstr = Vec::new();
                let mut laboff: Vec<u32> = vec![0];
                let mut labcnt: Vec<u32> = Vec::with_capacity(labels.len());
                for cluster in labels {
                    labcnt.push(cluster.len() as u32);
                    for term in cluster {
                        labstr.extend_from_slice(term.as_bytes());
                        laboff.push(labstr.len() as u32);
                    }
                }
                w.add_bytes("labstr", &labstr)?;
                w.add_u32s("laboff", &laboff)?;
                w.add_u32s("labcnt", &labcnt)?;

                if let (Some(t), Some(sd)) = (inp.topics, sigdat.as_ref()) {
                    let assign_all = assign.as_ref().unwrap().as_ref().unwrap();
                    if t.m_dims() > 0 && !assign_all.is_empty() {
                        write_ann_sections(&mut w, sd, t.m_dims(), assign_all, cl.k)?;
                    }
                }
            }

            let stats = w.finish()?;
            std::fs::rename(&tmp, path)?;
            Ok(Some(SnapshotReport {
                write_seconds: start.elapsed().as_secs_f64(),
                total_bytes: stats.total_bytes,
                sections: stats.sections,
            }))
        })();
    }
    ctx.barrier();
    result
}

/// Append the five block-compressed index sections (DESIGN.md §8).
pub(crate) fn write_index_sections(w: &mut SnapshotWriter, enc: &EncodedIndex) -> io::Result<()> {
    w.add_packed("postdir", &enc.dir)?;
    w.add_packed("postblk", &enc.blk)?;
    w.add_skips("postskp", &enc.skips)?;
    w.add_packed("dfv", &enc.dfv)?;
    w.add_packed("tfv", &enc.tfv)
}

/// Append the IVF + quantized signature sections (§13). The k-means
/// centroids double as the IVF coarse quantizer; signatures are
/// re-encoded as u8 codes with per-signature scale/offset plus an exact
/// f64 norm table, grouped into per-centroid lists. Not written for
/// degenerate corpora with no signature dimensions or no documents —
/// similarity queries are meaningless there.
pub(crate) fn write_ann_sections(
    w: &mut SnapshotWriter,
    sigs: &[f64],
    m_dims: usize,
    assign: &[u32],
    k: usize,
) -> io::Result<()> {
    let ivf = crate::ann::build_ivf(sigs, m_dims, assign, k);
    w.add_quant("qsig", &ivf.codes, assign.len(), m_dims)?;
    w.add_f64s("qscale", &ivf.scale)?;
    w.add_f64s("qoff", &ivf.offset)?;
    w.add_f64s("signrm", &ivf.norm)?;
    w.add_u32s("ivfdoc", &ivf.ivfdoc)?;
    w.add_u64s("ivfoff", &ivf.ivfoff)
}

/// Publish an already-validated on-disk snapshot (typically a
/// final-stage checkpoint) to `path` by copying its bytes, so a resumed
/// run that recomputes nothing still honours
/// [`crate::EngineConfig::snapshot_out`]. Collective: rank 0 copies via
/// a temp file + rename, and the barrier fences the rename.
pub fn republish_snapshot(
    ctx: &Ctx,
    snap: &EngineSnapshot,
    path: &Path,
) -> io::Result<Option<SnapshotReport>> {
    let mut result = Ok(None);
    if ctx.rank() == 0 {
        result = (|| {
            let start = std::time::Instant::now();
            let tmp = path.with_extension("isnap.tmp");
            std::fs::copy(snap.store().source(), &tmp)?;
            std::fs::rename(&tmp, path)?;
            Ok(Some(SnapshotReport {
                write_seconds: start.elapsed().as_secs_f64(),
                total_bytes: snap.store().total_bytes(),
                sections: snap
                    .store()
                    .sections()
                    .map(|(name, _, bytes)| (name.to_string(), bytes))
                    .collect(),
            }))
        })();
    }
    ctx.barrier();
    result
}

/// A loaded, validated engine snapshot. Construction verifies every
/// checksum (via [`inspire_store::Snapshot::open`]) and that all
/// sections the recorded stage promises are present and mutually
/// consistent in size.
pub struct EngineSnapshot {
    snap: Snapshot,
    meta: EngineMeta,
    /// The inverted index's parsed tables (`Stage::Index` and later).
    index: Option<PostingsReader>,
}

fn bad(source: &str, msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("{source}: {msg}"))
}

/// The one error for a file an earlier release wrote: fixed-width index
/// sections, or a Final stage without the ANN sections.
fn needs_migrate(source: &str, what: &str) -> io::Error {
    bad(
        source,
        format!(
            "{what}; this layout is no longer read — convert the file once with \
             `vaengine migrate --in <old.isnap> --out <new.isnap>`"
        ),
    )
}

impl EngineSnapshot {
    /// Open and validate an engine snapshot file.
    pub fn open(path: &Path) -> io::Result<EngineSnapshot> {
        Self::from_store(Snapshot::open(path)?)
    }

    /// Validate an already-loaded store container as an engine snapshot.
    pub fn from_store(snap: Snapshot) -> io::Result<EngineSnapshot> {
        let meta = EngineMeta::parse(&snap)?;
        let mut s = EngineSnapshot {
            snap,
            meta,
            index: None,
        };
        s.index = s.validate_sections()?;
        Ok(s)
    }

    /// Check stage-promised sections exist with mutually consistent
    /// sizes; returns the index reader that checking the index built.
    fn validate_sections(&self) -> io::Result<Option<PostingsReader>> {
        let src = self.snap.source();
        let m = &self.meta;
        let docs = m.total_docs as usize;
        let expect = |name: &str, len: usize, want: usize| -> io::Result<()> {
            if len != want {
                return Err(bad(
                    src,
                    format!("section `{name}` has {len} elements, expected {want}"),
                ));
            }
            Ok(())
        };
        if m.nprocs == 0 {
            return Err(bad(src, "snapshot records zero processes".into()));
        }
        expect(
            "docbase",
            self.snap.require("docbase")?.as_u64s()?.len(),
            m.nprocs + 1,
        )?;
        expect(
            "termoff",
            self.snap.require("termoff")?.as_u32s()?.len(),
            m.vocab_size + 1,
        )?;
        expect(
            "doctok",
            self.snap.require("doctok")?.as_u32s()?.len(),
            docs,
        )?;
        let segoff = self.snap.require("segoff")?.as_u64s()?;
        expect("segoff", segoff.len(), docs + 1)?;
        let n_segs = *segoff.last().unwrap_or(&0) as usize;
        expect(
            "segfld",
            self.snap.require("segfld")?.as_u32s()?.len(),
            n_segs,
        )?;
        expect(
            "seglen",
            self.snap.require("seglen")?.as_u32s()?.len(),
            n_segs,
        )?;
        let fwdoff = self.snap.require("fwdoff")?.as_i64s()?;
        expect("fwdoff", fwdoff.len(), docs + 1)?;
        let n_entries = *fwdoff.last().unwrap_or(&0) as usize;
        expect(
            "fwddat",
            self.snap.require("fwddat")?.as_u64s()?.len(),
            n_entries,
        )?;
        expect(
            "rankio",
            self.snap.require("rankio")?.as_u64s()?.len(),
            m.nprocs * 4,
        )?;
        let mut index = None;
        if m.stage >= Stage::Index {
            if !self.snap.has("postdir") {
                return Err(needs_migrate(
                    src,
                    "the index is stored as fixed-width arrays",
                ));
            }
            // The directory cross-checks the posting and skip section
            // lengths; posting bytes are covered by the store CRCs and
            // stay undecoded until a query needs them.
            index = Some(PostingsReader::open(&self.snap, m.vocab_size)?);
            expect(
                "load",
                self.snap.require("load")?.as_u64s()?.len(),
                m.nprocs * 4,
            )?;
        }
        if m.stage >= Stage::Sig {
            let major = self.snap.require("major")?.as_u32s()?;
            expect("major", major.len(), m.n_major)?;
            // Major ids index vocabulary-length tables on restore.
            if let Some(&t) = major.iter().find(|&&t| t as usize >= m.vocab_size) {
                return Err(bad(
                    src,
                    format!("section `major` names term {t} beyond the vocabulary"),
                ));
            }
            expect(
                "mscore",
                self.snap.require("mscore")?.as_f64s()?.len(),
                m.n_major,
            )?;
            expect(
                "topics",
                self.snap.require("topics")?.as_u32s()?.len(),
                m.m_dims,
            )?;
            expect(
                "assoc",
                self.snap.require("assoc")?.as_f64s()?.len(),
                m.n_major * m.m_dims,
            )?;
            expect(
                "sigs",
                self.snap.require("sigs")?.as_f64s()?.len(),
                docs * m.m_dims,
            )?;
        }
        if m.stage >= Stage::Final {
            expect(
                "assign",
                self.snap.require("assign")?.as_u32s()?.len(),
                docs,
            )?;
            expect(
                "centroid",
                self.snap.require("centroid")?.as_f64s()?.len(),
                m.k * m.m_dims,
            )?;
            expect("csize", self.snap.require("csize")?.as_u64s()?.len(), m.k)?;
            // Readers take `row[0]`, `row[1]` of every coordinate row.
            if !(2..=3).contains(&m.projection_dims) {
                return Err(bad(
                    src,
                    format!(
                        "meta records {} projection dimensions, expected 2 or 3",
                        m.projection_dims
                    ),
                ));
            }
            expect(
                "coordnd",
                self.snap.require("coordnd")?.as_f64s()?.len(),
                docs * m.projection_dims,
            )?;
            let laboff = self.snap.require("laboff")?.as_u32s()?;
            let labcnt = self.snap.require("labcnt")?.as_u32s()?;
            expect("labcnt", labcnt.len(), m.k)?;
            let n_labels: usize = labcnt.iter().map(|&c| c as usize).sum();
            expect("laboff", laboff.len(), n_labels + 1)?;
            let labstr = self.snap.require("labstr")?.bytes();
            expect(
                "labstr",
                labstr.len(),
                *laboff.last().unwrap_or(&0) as usize,
            )?;
            if m.wants_ann() {
                if !self.snap.has("qsig") {
                    return Err(needs_migrate(
                        src,
                        "the Final stage has no similarity-search sections",
                    ));
                }
                // The quantized store is validated here, up front and by
                // name — a malformed section must never surface later as
                // a short-slice panic in the query path.
                let qsig = self.snap.require("qsig")?.as_records(m.m_dims)?;
                expect("qsig", qsig.len(), docs * m.m_dims)?;
                expect(
                    "qscale",
                    self.snap.require("qscale")?.as_f64s()?.len(),
                    docs,
                )?;
                expect("qoff", self.snap.require("qoff")?.as_f64s()?.len(), docs)?;
                expect(
                    "signrm",
                    self.snap.require("signrm")?.as_f64s()?.len(),
                    docs,
                )?;
                let ivfoff = self.snap.require("ivfoff")?.as_u64s()?;
                expect("ivfoff", ivfoff.len(), m.k + 1)?;
                if ivfoff.first() != Some(&0)
                    || ivfoff.windows(2).any(|w| w[0] > w[1])
                    || *ivfoff.last().unwrap() != docs as u64
                {
                    return Err(bad(
                        src,
                        format!("section `ivfoff` is not a monotone partition of {docs} documents"),
                    ));
                }
                let ivfdoc = self.snap.require("ivfdoc")?.as_u32s()?;
                expect("ivfdoc", ivfdoc.len(), docs)?;
                let mut seen = vec![false; docs];
                for &d in ivfdoc {
                    if (d as usize) >= docs || seen[d as usize] {
                        return Err(bad(
                            src,
                            format!("section `ivfdoc` is not a permutation of 0..{docs} (doc {d})"),
                        ));
                    }
                    seen[d as usize] = true;
                }
            }
        }
        Ok(index)
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

    /// The inverted index's reader; `None` before `Stage::Index`.
    pub fn index(&self) -> Option<&PostingsReader> {
        self.index.as_ref()
    }

    /// The compressed-postings directory.
    pub fn postings_dir(&self) -> io::Result<&PostingsDir> {
        match &self.index {
            Some(index) => Ok(index.dir()),
            None => Err(bad(
                self.snap.source(),
                format!("stage {:?} snapshot has no inverted index", self.meta.stage),
            )),
        }
    }

    /// The canonical vocabulary.
    pub fn terms(&self) -> io::Result<TermTable> {
        read_terms(&self.snap)
    }

    /// This rank's document range `lo..hi` under the snapshot's
    /// partitioning — or all documents when serving on a single rank.
    fn doc_range(&self, ctx: &Ctx) -> io::Result<(usize, usize)> {
        let docs = self.meta.total_docs as usize;
        if ctx.nprocs() == self.meta.nprocs {
            let bases = self.snap.require("docbase")?.as_u64s()?;
            Ok((bases[ctx.rank()] as usize, bases[ctx.rank() + 1] as usize))
        } else if ctx.nprocs() == 1 {
            Ok((0, docs))
        } else {
            Err(bad(
                self.snap.source(),
                format!(
                    "snapshot was written at P={} and cannot restore at P={} \
                     (only the original count, or a single serving rank)",
                    self.meta.nprocs,
                    ctx.nprocs()
                ),
            ))
        }
    }

    /// Restore the Scan & Map stage state. Collective.
    pub fn restore_scan(&self, ctx: &Ctx) -> io::Result<ScanOutput> {
        let src = self.snap.source();
        let (lo, hi) = self.doc_range(ctx)?;
        let terms = self.terms()?;
        let doctok = self.snap.require("doctok")?.as_u32s()?;
        let segoff = self.snap.require("segoff")?.as_u64s()?;
        let segfld = self.snap.require("segfld")?.as_u32s()?;
        let seglen = self.snap.require("seglen")?.as_u32s()?;
        let fwdoff = self.snap.require("fwdoff")?.as_i64s()?;
        let fwddat = self.snap.require("fwddat")?.as_u64s()?;

        let mut docs: Vec<LocalDoc> = Vec::with_capacity(hi - lo);
        for d in lo..hi {
            let mut entry_at = fwdoff[d] as usize;
            let mut fields = Vec::with_capacity((segoff[d + 1] - segoff[d]) as usize);
            for s in segoff[d] as usize..segoff[d + 1] as usize {
                let n = seglen[s] as usize;
                let mut counts: Vec<(TermId, u32)> = Vec::with_capacity(n);
                for e in &fwddat[entry_at..entry_at + n] {
                    let (t, f, c) = unpack_entry(*e);
                    if f as u32 != segfld[s] {
                        return Err(bad(
                            src,
                            format!(
                                "doc {d}: forward entry field {f} disagrees with segment field {}",
                                segfld[s]
                            ),
                        ));
                    }
                    counts.push((t, c));
                }
                entry_at += n;
                fields.push(LocalField {
                    field: segfld[s] as crate::FieldId,
                    counts,
                });
            }
            if entry_at != fwdoff[d + 1] as usize {
                return Err(bad(
                    src,
                    format!(
                        "doc {d}: segments cover {entry_at} entries, offsets say {}",
                        fwdoff[d + 1]
                    ),
                ));
            }
            docs.push(LocalDoc {
                doc_id: d as DocId,
                fields,
                tokens: doctok[d],
            });
        }

        // Rebuild the forward global arrays: each rank fills its own
        // block from the (replicated) snapshot sections. No messages —
        // the restore is embarrassingly local.
        let total_docs = self.meta.total_docs as usize;
        let fwd_offsets = GlobalArray::<i64>::create(ctx, total_docs + 1);
        fwd_offsets.with_local_mut(ctx, |local| {
            let r = fwd_offsets.distribution(ctx.rank());
            local.copy_from_slice(&fwdoff[r]);
        });
        let fwd_data = GlobalArray::<u64>::create(ctx, fwddat.len());
        fwd_data.with_local_mut(ctx, |local| {
            let r = fwd_data.distribution(ctx.rank());
            local.copy_from_slice(&fwddat[r]);
        });
        ctx.barrier();

        // Per-rank scan statistics: exact under the original
        // partitioning; summed onto the single rank when serving.
        let rankio = self.snap.require("rankio")?.as_u64s()?;
        let stat = |slot: usize| -> u64 {
            if ctx.nprocs() == self.meta.nprocs {
                rankio[ctx.rank() * 4 + slot]
            } else {
                (0..self.meta.nprocs).map(|r| rankio[r * 4 + slot]).sum()
            }
        };

        Ok(ScanOutput {
            docs,
            doc_base: lo as DocId,
            total_docs: self.meta.total_docs,
            // The distributed hashmap's arrival-order ids are dead state
            // after canonicalization; nothing downstream reads it.
            vocab: DistHashMap::create(ctx),
            terms: Arc::new(terms),
            fwd_offsets,
            fwd_data,
            bytes_scanned: stat(0),
            tokens_scanned: stat(1),
            vocab_rpc_msgs: stat(2),
            vocab_rpc_scalar_equiv: stat(3),
        })
    }

    /// Restore the inverted index and global term statistics. Collective.
    pub fn restore_index(&self, ctx: &Ctx) -> io::Result<InvertedIndex> {
        let index = self.index.as_ref().ok_or_else(|| {
            bad(
                self.snap.source(),
                format!("stage {:?} snapshot has no inverted index", self.meta.stage),
            )
        })?;
        // Back into the engine's flat packed layout: the resume path
        // rebuilds the whole global array, where serving decodes per query.
        let vocab = index.dir().vocab();
        let mut postoff: Vec<i64> = Vec::with_capacity(vocab + 1);
        let mut postdat: Vec<u64> = Vec::with_capacity(index.dir().total_postings() as usize);
        let mut posts: Vec<Posting> = Vec::new();
        for t in 0..vocab {
            postoff.push(postdat.len() as i64);
            posts.clear();
            index.postings_into(&self.snap, t as TermId, &mut posts)?;
            postdat.extend(posts.iter().map(|&p| pack_posting(p)));
        }
        postoff.push(postdat.len() as i64);

        let postings = GlobalArray::<u64>::create(ctx, postdat.len());
        postings.with_local_mut(ctx, |local| {
            let r = postings.distribution(ctx.rank());
            local.copy_from_slice(&postdat[r]);
        });
        ctx.barrier();

        let loadw = self.snap.require("load")?.as_u64s()?;
        let load: Vec<RankLoad> = (0..self.meta.nprocs)
            .map(|r| RankLoad {
                own_tasks: loadw[r * 4] as u32,
                stolen_tasks: loadw[r * 4 + 1] as u32,
                postings: loadw[r * 4 + 2],
                seconds: f64::from_bits(loadw[r * 4 + 3]),
            })
            .collect();

        Ok(InvertedIndex {
            offsets: Arc::new(postoff),
            postings,
            df: Arc::new(index.df().to_vec()),
            tf: Arc::new(index.tf().to_vec()),
            total_docs: self.meta.total_docs,
            total_tokens: self.meta.total_tokens,
            load,
        })
    }

    /// Restore the signature-stage state: topic selection, association
    /// matrix, signatures, and the expansion count. Collective.
    pub fn restore_sig_state(
        &self,
        ctx: &Ctx,
    ) -> io::Result<(TopicSelection, AssociationMatrix, Signatures, usize)> {
        let (lo, hi) = self.doc_range(ctx)?;
        let m = self.meta.m_dims;
        let major = self.snap.require("major")?.as_u32s()?.to_vec();
        let scores = self.snap.require("mscore")?.as_f64s()?.to_vec();
        let topic_ids = self.snap.require("topics")?.as_u32s()?.to_vec();
        let assoc = self.snap.require("assoc")?.as_f64s()?.to_vec();
        let sigdat = self.snap.require("sigs")?.as_f64s()?;

        let topics = TopicSelection {
            major: major.clone(),
            scores,
            topics: topic_ids,
        };
        let row_of = crate::assoc::position_table(&major, self.meta.vocab_size);
        let am = AssociationMatrix {
            values: Arc::new(assoc),
            n: self.meta.n_major,
            m,
            row_of: Arc::new(row_of),
        };

        let local = sigdat[lo * m..hi * m].to_vec();
        let global = GlobalArray2D::<f64>::create(ctx, self.meta.total_docs as usize, m);
        global.with_local_mut(ctx, |rows, block| {
            block.copy_from_slice(&sigdat[rows.start * m..rows.end * m]);
        });
        ctx.barrier();
        let sigs = Signatures::from_parts(local, m, hi - lo, global, self.meta.sig_stats);
        Ok((topics, am, sigs, self.meta.dim_expansions))
    }

    /// Cluster labels (`Stage::Final` snapshots).
    pub fn labels(&self) -> io::Result<Vec<Vec<String>>> {
        let labstr = self.snap.require("labstr")?.bytes();
        let laboff = self.snap.require("laboff")?.as_u32s()?;
        let labcnt = self.snap.require("labcnt")?.as_u32s()?;
        let mut out = Vec::with_capacity(labcnt.len());
        let mut li = 0usize;
        for &c in labcnt {
            let mut cluster = Vec::with_capacity(c as usize);
            for _ in 0..c {
                let s = &labstr[laboff[li] as usize..laboff[li + 1] as usize];
                cluster.push(
                    std::str::from_utf8(s)
                        .map_err(|_| bad(self.snap.source(), format!("label {li} is not UTF-8")))?
                        .to_string(),
                );
                li += 1;
            }
            out.push(cluster);
        }
        Ok(out)
    }

    /// Reconstruct the complete [`EngineOutput`] from a `Stage::Final`
    /// snapshot without running any pipeline stage. Collective.
    pub fn restore_output(&self, ctx: &Ctx) -> io::Result<EngineOutput> {
        let src = self.snap.source();
        if self.meta.stage != Stage::Final {
            return Err(bad(
                src,
                format!("stage {:?} snapshot has no final output", self.meta.stage),
            ));
        }
        let (lo, hi) = self.doc_range(ctx)?;
        let dims = self.meta.projection_dims;
        let assign = self.snap.require("assign")?.as_u32s()?;
        let coordnd = self.snap.require("coordnd")?.as_f64s()?;
        let csize = self.snap.require("csize")?.as_u64s()?;
        let loadw = self.snap.require("load")?.as_u64s()?;

        let local_coords_nd = coordnd[lo * dims..hi * dims].to_vec();
        let local_coords: Vec<(f64, f64)> = local_coords_nd
            .chunks(dims)
            .map(|row| (row[0], row[1]))
            .collect();
        let rank0 = ctx.rank() == 0;
        let coords = rank0.then(|| coordnd.chunks(dims).map(|r| (r[0], r[1])).collect());
        let all_assignments = rank0.then(|| assign.to_vec());

        let load: Vec<RankLoad> = (0..self.meta.nprocs)
            .map(|r| RankLoad {
                own_tasks: loadw[r * 4] as u32,
                stolen_tasks: loadw[r * 4 + 1] as u32,
                postings: loadw[r * 4 + 2],
                seconds: f64::from_bits(loadw[r * 4 + 3]),
            })
            .collect();

        Ok(EngineOutput {
            local_coords,
            coords,
            local_coords_nd,
            projection_dims: dims,
            assignments: assign[lo..hi].to_vec(),
            all_assignments,
            doc_base: lo as DocId,
            cluster_labels: self.labels()?,
            cluster_sizes: csize.to_vec(),
            snapshot_report: None,
            summary: EngineSummary {
                vocab_size: self.meta.vocab_size,
                total_docs: self.meta.total_docs,
                total_tokens: self.meta.total_tokens,
                n_major: self.meta.n_major,
                m_dims: self.meta.m_dims,
                dim_expansions: self.meta.dim_expansions,
                sig_stats: self.meta.sig_stats,
                kmeans_iters: self.meta.kmeans_iters,
                kmeans_objective: self.meta.kmeans_objective,
                variance_explained: self.meta.variance_explained,
                load,
            },
        })
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
    use spmd::Runtime;

    fn corpus() -> SourceSet {
        CorpusSpec {
            source_bytes: 8 * 1024,
            ..CorpusSpec::pubmed(128 * 1024, 29)
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
    /// and demand a bit-identical final result.
    #[test]
    fn crash_after_each_stage_then_resume_is_bit_identical() {
        let src = corpus();
        let base = EngineConfig::for_testing();
        let zero = Arc::new(CostModel::zero());
        let baseline = run_engine(2, zero.clone(), &src, &base);
        let want_coords = coord_bits(&baseline);
        let want_assign = baseline.master().all_assignments.clone().unwrap();
        let want_obj = baseline.master().summary.kmeans_objective.to_bits();

        for stop in [Stage::Scan, Stage::Index, Stage::Sig, Stage::Final] {
            let dir = tmp(&format!("crash-{stop:?}"));
            let _ = std::fs::remove_dir_all(&dir);
            let cfg = EngineConfig {
                checkpoint_dir: Some(dir.clone()),
                ..base.clone()
            };
            // Simulate the crash: run through `stop`, abandon everything
            // the ranks held in memory, keep only the checkpoint files.
            let engine = Engine::new(cfg.clone());
            Runtime::new(zero.clone()).run(2, |ctx| {
                engine.run_until(ctx, &src, stop);
            });
            assert!(
                checkpoint_path(&dir, stop).exists(),
                "no checkpoint written for {stop:?}"
            );

            let resumed = run_engine(
                2,
                zero.clone(),
                &src,
                &EngineConfig {
                    resume: true,
                    ..cfg
                },
            );
            assert_eq!(coord_bits(&resumed), want_coords, "coords after {stop:?}");
            assert_eq!(
                resumed.master().all_assignments.clone().unwrap(),
                want_assign,
                "assignments after {stop:?}"
            );
            assert_eq!(
                resumed.master().summary.kmeans_objective.to_bits(),
                want_obj,
                "objective after {stop:?}"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
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
        assert_eq!(widths, [11, 17, 22, 35, 29]);
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
}
