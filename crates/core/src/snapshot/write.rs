//! Writing engine snapshots: the collective gather to rank 0 and the
//! section-by-section write, in [`schema::ENGINE`](super::schema::ENGINE)'s
//! order.

use super::schema::*;
use super::{EngineSnapshot, Stage};
use crate::assoc::AssociationMatrix;
use crate::cluster::Clustering;
use crate::index::InvertedIndex;
use crate::postings::{encode_index_sections, write_index_sections};
use crate::scan::{ForwardIndex, ScanOutput};
use crate::signature::Signatures;
use crate::topicality::TopicSelection;
use inspire_store::{publish, SnapshotWriter};
use spmd::Ctx;
use std::io;
use std::path::Path;
use std::time::Instant;

/// What a snapshot write reported (rank 0 only).
#[derive(Debug, Clone)]
pub struct SnapshotReport {
    /// Host wall-clock seconds spent serializing, writing and durably
    /// publishing the file.
    pub write_seconds: f64,
    /// Total file size in bytes.
    pub total_bytes: u64,
    /// `(section name, payload bytes)` per section.
    pub sections: Vec<(String, u64)>,
}

impl SnapshotReport {
    /// The sizes of a snapshot already on disk, with no write time.
    pub(crate) fn describe(snap: &EngineSnapshot) -> SnapshotReport {
        SnapshotReport {
            write_seconds: 0.0,
            total_bytes: snap.store().total_bytes(),
            sections: snap
                .store()
                .sections()
                .map(|(name, _, bytes)| (name.to_string(), bytes))
                .collect(),
        }
    }
}

/// Everything available for a snapshot at some stage. Later-stage fields
/// are `None` for earlier-stage snapshots.
pub struct SnapshotInput<'a> {
    pub stage: Stage,
    pub config_fp: u64,
    pub corpus_fp: u64,
    pub scan: &'a ScanOutput,
    /// The forward index, which only a Scan-stage snapshot carries
    /// ([`FWDOFF`]'s and [`FWDDAT`]'s last stage).
    pub forward: Option<&'a ForwardIndex>,
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

impl<'a> SnapshotInput<'a> {
    /// The input of a Scan-stage snapshot: no later stage's products.
    pub fn scanned(
        config_fp: u64,
        corpus_fp: u64,
        scan: &'a ScanOutput,
        forward: Option<&'a ForwardIndex>,
    ) -> Self {
        SnapshotInput {
            stage: Stage::Scan,
            config_fp,
            corpus_fp,
            scan,
            forward,
            index: None,
            topics: None,
            am: None,
            sigs: None,
            expansions: 0,
            clustering: None,
            coords_nd: None,
            projection_dims: 0,
            variance_explained: 0.0,
            labels: None,
        }
    }
}

/// Write an engine snapshot. Collective: all ranks participate in the
/// gathers; rank 0 publishes `path` (through [`publish`]: durable and
/// atomic) and returns the report. The write is fenced by a barrier, so
/// on return every rank may rely on the file existing.
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
    let forward = FWDDAT.carried_at(inp.stage).then(|| {
        let forward = inp
            .forward
            .expect("a Scan snapshot is given its forward index");
        (
            forward.offsets.gather_to(ctx, 0),
            forward.data.gather_to(ctx, 0),
        )
    });
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
        let start = Instant::now();
        result = publish(path, |tmp| {
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
                sig_stats: inp.sigs.map(|s| s.stats).unwrap_or_default(),
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

            let mut w = SnapshotWriter::create(tmp)?;
            META.put(&mut w, &meta.to_slots())?;
            DOCBASE.put(&mut w, &docbase)?;
            TERMS.put(&mut w, scan.terms.arena_bytes())?;
            TERMOFF.put(&mut w, scan.terms.offsets())?;
            DOCTOK.put(&mut w, &doctok)?;
            SEGOFF.put(&mut w, &segoff)?;
            SEGFLD.put(&mut w, &segfld)?;
            SEGLEN.put(&mut w, &seglen)?;
            if let Some((fwdoff, fwddat)) = forward {
                FWDOFF.put(&mut w, fwdoff.as_ref().unwrap())?;
                FWDDAT.put(&mut w, fwddat.as_ref().unwrap())?;
            }
            RANKIO.put(&mut w, &rankio)?;

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
                LOAD.put(&mut w, &load)?;
            }

            if let (Some(t), Some(am), Some(_)) = (inp.topics, inp.am, inp.sigs) {
                MAJOR.put(&mut w, &t.major)?;
                MSCORE.put(&mut w, &t.scores)?;
                TOPICS.put(&mut w, &t.topics)?;
                ASSOC.put(&mut w, &am.values)?;
                SIGS.put(&mut w, sigdat.as_ref().unwrap())?;
            }

            if let (Some(cl), Some(labels)) = (inp.clustering, inp.labels) {
                let assign = assign.as_ref().unwrap().as_ref().unwrap();
                ASSIGN.put(&mut w, assign)?;
                CENTROID.put(&mut w, &cl.centroids)?;
                CSIZE.put(&mut w, &cl.sizes)?;
                COORDND.put(&mut w, coordnd.as_ref().unwrap().as_ref().unwrap())?;
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
                LABSTR.put(&mut w, &labstr)?;
                LABOFF.put(&mut w, &laboff)?;
                LABCNT.put(&mut w, &labcnt)?;

                if meta.wants_ann() {
                    let sigs = sigdat.as_ref().unwrap();
                    write_ann_sections(&mut w, sigs, meta.m_dims, assign, cl.k)?;
                }
            }

            w.finish()
        })
        .map(|stats| {
            Some(SnapshotReport {
                write_seconds: start.elapsed().as_secs_f64(),
                total_bytes: stats.total_bytes,
                sections: stats.sections,
            })
        });
    }
    ctx.barrier();
    result
}

/// Append the IVF + quantized signature sections (§13). The k-means
/// centroids double as the IVF coarse quantizer; signatures are
/// re-encoded as u8 codes with per-signature scale/offset plus an exact
/// f64 norm table, grouped into per-centroid lists. Not written for
/// degenerate corpora with no signature dimensions or no documents —
/// similarity queries are meaningless there.
fn write_ann_sections(
    w: &mut SnapshotWriter,
    sigs: &[f64],
    m_dims: usize,
    assign: &[u32],
    k: usize,
) -> io::Result<()> {
    let ivf = crate::ann::build_ivf(sigs, m_dims, assign, k);
    w.add_quant(QSIG.name, &ivf.codes, assign.len(), m_dims)?;
    QSCALE.put(w, &ivf.scale)?;
    QOFF.put(w, &ivf.offset)?;
    SIGNRM.put(w, &ivf.norm)?;
    IVFDOC.put(w, &ivf.ivfdoc)?;
    IVFOFF.put(w, &ivf.ivfoff)
}

/// Publish a copy of the snapshot file `from`, whose write reported
/// `written`, at `to` — no second gather and write. Not a collective:
/// the caller's rank copies. Returns `written` with the copy's seconds.
pub(crate) fn copy_snapshot(
    from: &Path,
    to: &Path,
    written: SnapshotReport,
) -> io::Result<SnapshotReport> {
    let start = Instant::now();
    publish(to, |tmp| std::fs::copy(from, tmp))?;
    Ok(SnapshotReport {
        write_seconds: start.elapsed().as_secs_f64(),
        ..written
    })
}
