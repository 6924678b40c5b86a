//! Rebuilding engine state from a validated snapshot: the per-stage
//! restore paths of checkpoint/resume, and the borrowed views serving
//! reads. Every section is reached through [`EngineSnapshot`]'s
//! accessors, keyed by its [`super::schema`] row.

use super::schema::*;
use super::{EngineSnapshot, Stage};
use crate::ann::AnnIndexView;
use crate::assoc::AssociationMatrix;
use crate::index::{pack_posting, InvertedIndex, Posting, RankLoad};
use crate::pipeline::{EngineOutput, EngineSummary};
use crate::postings::{bad, read_terms};
use crate::scan::{unpack_entry, ForwardIndex, LocalDoc, LocalField, ScanOutput};
use crate::signature::Signatures;
use crate::topicality::TopicSelection;
use crate::{DocId, TermId};
use ga::GlobalArray;
use intern::TermTable;
use spmd::{Ctx, ReduceOp};
use std::io;
use std::sync::Arc;

impl EngineSnapshot {
    /// Refuse to rebuild `what` from a snapshot taken before `stage`.
    pub(super) fn since(&self, stage: Stage, what: &str) -> io::Result<()> {
        if self.meta.stage >= stage {
            return Ok(());
        }
        Err(bad(
            &self.snap,
            format!("stage {:?} snapshot has no {what}", self.meta.stage),
        ))
    }

    /// The canonical vocabulary.
    pub fn terms(&self) -> io::Result<TermTable> {
        read_terms(&self.snap)
    }

    /// The FAST-INV load-balance telemetry, four words per writer rank
    /// (the inverse of [`super::write`]'s `load` section).
    fn rank_loads(&self) -> Vec<RankLoad> {
        self.get::<u64>(&LOAD)
            .chunks_exact(4)
            .map(|w| RankLoad {
                own_tasks: w[0] as u32,
                stolen_tasks: w[1] as u32,
                postings: w[2],
                seconds: f64::from_bits(w[3]),
            })
            .collect()
    }

    /// The IVF index over this snapshot's sections (`has_ann`
    /// snapshots), with the caller's precomputed [`crate::ann::code_sums`].
    pub fn ann_view<'a>(&'a self, sums: &'a [u32]) -> AnnIndexView<'a> {
        AnnIndexView {
            k: self.meta.k,
            m: self.meta.m_dims,
            centroids: self.get(&CENTROID),
            ivfoff: self.get(&IVFOFF),
            ivfdoc: self.get(&IVFDOC),
            codes: self.get(&QSIG),
            scale: self.get(&QSCALE),
            offset: self.get(&QOFF),
            norm: self.get(&SIGNRM),
            sums,
            exact: self.get::<f64>(&SIGS),
        }
    }

    /// This rank's document range `lo..hi` under the snapshot's
    /// partitioning — or all documents when serving on a single rank.
    fn doc_range(&self, ctx: &Ctx) -> io::Result<(usize, usize)> {
        let docs = self.meta.total_docs as usize;
        if ctx.nprocs() == self.meta.nprocs {
            let bases = self.get::<u64>(&DOCBASE);
            Ok((bases[ctx.rank()] as usize, bases[ctx.rank() + 1] as usize))
        } else if ctx.nprocs() == 1 {
            Ok((0, docs))
        } else {
            Err(bad(
                &self.snap,
                format!(
                    "snapshot was written at P={} and cannot restore at P={} \
                     (only the original count, or a single serving rank)",
                    self.meta.nprocs,
                    ctx.nprocs()
                ),
            ))
        }
    }

    /// Restore the Scan & Map stage state. Collective. Documents come
    /// from the forward index in a Scan-stage snapshot, which also hands
    /// back the forward index itself for the Index stage to consume; in a
    /// later snapshot they come from the inverted file, and there is no
    /// forward index to hand back. Each rank checks only its own
    /// documents, so the ranks agree before going on: all restore, or all
    /// fail and recompute — a rank that scans while another restores
    /// would run mismatched collectives.
    pub fn restore_scan(&self, ctx: &Ctx) -> io::Result<(ScanOutput, Option<ForwardIndex>)> {
        let (lo, hi) = self.doc_range(ctx)?;
        let terms = self.terms()?;
        let doctok = self.get::<u32>(&DOCTOK);
        let segoff = self.get::<u64>(&SEGOFF);
        let segfld = self.get::<u32>(&SEGFLD);
        let seglen = self.get::<u32>(&SEGLEN);
        // Every document with its fields in segment order, still empty.
        let mut docs: Vec<LocalDoc> = (lo..hi)
            .map(|d| LocalDoc {
                doc_id: d as DocId,
                fields: (segoff[d] as usize..segoff[d + 1] as usize)
                    .map(|s| LocalField {
                        field: segfld[s] as crate::FieldId,
                        counts: Vec::with_capacity(seglen[s] as usize),
                    })
                    .collect(),
                tokens: doctok[d],
            })
            .collect();
        let forwarded = FWDDAT.carried_at(self.meta.stage);
        let filled = if forwarded {
            self.docs_from_forward(&mut docs, lo)
        } else {
            self.docs_from_postings(&mut docs, lo)
        };
        let failed = ctx.allreduce(vec![u64::from(filled.is_err())], ReduceOp::Sum)[0];
        filled?;
        if failed > 0 {
            let msg = format!("documents of {failed} other rank(s) failed to restore");
            return Err(bad(&self.snap, msg));
        }
        let forward = forwarded.then(|| self.forward_index(ctx));
        // Per-rank scan statistics: exact under the original
        // partitioning; summed onto the single rank when serving.
        let rankio = self.get::<u64>(&RANKIO);
        let stat = |slot: usize| -> u64 {
            if ctx.nprocs() == self.meta.nprocs {
                rankio[ctx.rank() * 4 + slot]
            } else {
                (0..self.meta.nprocs).map(|r| rankio[r * 4 + slot]).sum()
            }
        };

        let scan = ScanOutput {
            docs,
            doc_base: lo as DocId,
            total_docs: self.meta.total_docs,
            terms: Arc::new(terms),
            bytes_scanned: stat(0),
            tokens_scanned: stat(1),
            vocab_rpc_msgs: stat(2),
            vocab_rpc_scalar_equiv: stat(3),
        };
        Ok((scan, forward))
    }

    /// Fill `docs` (the documents from `lo`) from the forward index: each
    /// segment is the next `seglen` entries, all of the segment's field.
    fn docs_from_forward(&self, docs: &mut [LocalDoc], lo: usize) -> io::Result<()> {
        let segoff = self.get::<u64>(&SEGOFF);
        let segfld = self.get::<u32>(&SEGFLD);
        let seglen = self.get::<u32>(&SEGLEN);
        let fwdoff = self.get::<i64>(&FWDOFF);
        let fwddat = self.get::<u64>(&FWDDAT);
        for (doc, d) in docs.iter_mut().zip(lo..) {
            let mut entry_at = fwdoff[d] as usize;
            for (field, s) in doc.fields.iter_mut().zip(segoff[d] as usize..) {
                let n = seglen[s] as usize;
                // A run past `fwddat` reads as empty; the cover check
                // below then refuses the document.
                let run = fwddat.get(entry_at..entry_at + n).unwrap_or_default();
                for e in run {
                    let (t, f, c) = unpack_entry(*e);
                    if f as u32 != segfld[s] {
                        return Err(bad(
                            &self.snap,
                            format!(
                                "doc {d}: forward entry field {f} disagrees with segment field {}",
                                segfld[s]
                            ),
                        ));
                    }
                    field.counts.push((t, c));
                }
                entry_at += n;
            }
            if entry_at != fwdoff[d + 1] as usize {
                return Err(bad(
                    &self.snap,
                    format!(
                        "doc {d}: segments cover {entry_at} entries, offsets say {}",
                        fwdoff[d + 1]
                    ),
                ));
            }
        }
        Ok(())
    }

    /// Fill `docs` (the documents from `lo`) from the inverted file,
    /// decoding each term's list only over `lo..hi`. Terms are visited in
    /// id order, so each field's counts arrive sorted as the scan sorts
    /// them. The scan gives a document each field once, so a posting
    /// lands in the one segment of its field. Postings and forward entries
    /// saturate `freq` at the same 24 bits, so the documents equal those
    /// the forward index gives. A document whose postings do not fill
    /// exactly its `seglen`s is refused — so is one that repeats a field,
    /// whose second segment of that field stays empty.
    fn docs_from_postings(&self, docs: &mut [LocalDoc], lo: usize) -> io::Result<()> {
        let index = self.index.as_ref().expect("opened with the index");
        let range = lo as DocId..(lo + docs.len()) as DocId;
        let mut posts: Vec<Posting> = Vec::new();
        for t in 0..self.meta.vocab_size as TermId {
            posts.clear();
            index.postings_in(&self.snap, t, range.clone(), &mut posts)?;
            for p in &posts {
                let doc = &mut docs[p.doc as usize - lo];
                let Some(field) = doc.fields.iter_mut().find(|f| f.field == p.field) else {
                    let (d, f) = (p.doc, p.field);
                    let msg =
                        format!("doc {d}: term {t} is posted in field {f}, no segment's field");
                    return Err(bad(&self.snap, msg));
                };
                field.counts.push((t, p.freq));
            }
        }
        let (segoff, seglen) = (self.get::<u64>(&SEGOFF), self.get::<u32>(&SEGLEN));
        for (doc, d) in docs.iter().zip(lo..) {
            for (field, s) in doc.fields.iter().zip(segoff[d] as usize..) {
                if field.counts.len() != seglen[s] as usize {
                    return Err(bad(
                        &self.snap,
                        format!(
                            "doc {d}: postings fill field {} with {} terms, `seglen` says {}",
                            field.field,
                            field.counts.len(),
                            seglen[s]
                        ),
                    ));
                }
            }
        }
        Ok(())
    }

    /// The forward index's global arrays, each rank filling its own block
    /// from the (replicated) sections. No messages — the restore is
    /// embarrassingly local.
    fn forward_index(&self, ctx: &Ctx) -> ForwardIndex {
        let fwdoff = self.get::<i64>(&FWDOFF);
        let fwddat = self.get::<u64>(&FWDDAT);
        let offsets = GlobalArray::<i64>::create(ctx, fwdoff.len());
        offsets.with_local_mut(ctx, |local| {
            local.copy_from_slice(&fwdoff[offsets.distribution(ctx.rank())]);
        });
        let data = GlobalArray::<u64>::create(ctx, fwddat.len());
        data.with_local_mut(ctx, |local| {
            local.copy_from_slice(&fwddat[data.distribution(ctx.rank())]);
        });
        ctx.barrier();
        ForwardIndex { offsets, data }
    }

    /// Restore the inverted index and global term statistics. Collective.
    pub fn restore_index(&self, ctx: &Ctx) -> io::Result<InvertedIndex> {
        self.since(Stage::Index, "inverted index")?;
        let index = self.index.as_ref().expect("opened with the index");
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

        Ok(InvertedIndex {
            offsets: Arc::new(postoff),
            postings,
            df: Arc::new(index.df().to_vec()),
            tf: Arc::new(index.tf().to_vec()),
            total_docs: self.meta.total_docs,
            total_tokens: self.meta.total_tokens,
            load: self.rank_loads(),
        })
    }

    /// Restore the signature-stage state: topic selection, association
    /// matrix, signatures, and the expansion count. Collective.
    pub fn restore_sig_state(
        &self,
        ctx: &Ctx,
    ) -> io::Result<(TopicSelection, AssociationMatrix, Signatures, usize)> {
        self.since(Stage::Sig, "signatures")?;
        let (lo, hi) = self.doc_range(ctx)?;
        let m = self.meta.m_dims;
        let major = self.get::<u32>(&MAJOR).to_vec();
        let scores = self.get::<f64>(&MSCORE).to_vec();
        let topic_ids = self.get::<u32>(&TOPICS).to_vec();
        let assoc = self.get::<f64>(&ASSOC).to_vec();
        let sigdat = self.get::<f64>(&SIGS);

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
        let global = GlobalArray::<f64>::create_rows(ctx, self.meta.total_docs as usize, m);
        let mine = global.distribution(ctx.rank());
        global.with_local_mut(ctx, |block| block.copy_from_slice(&sigdat[mine]));
        ctx.barrier();
        let sigs = Signatures::from_parts(local, m, hi - lo, global, self.meta.sig_stats);
        Ok((topics, am, sigs, self.meta.dim_expansions))
    }

    /// Cluster labels (`Stage::Final` snapshots).
    pub fn labels(&self) -> io::Result<Vec<Vec<String>>> {
        self.since(Stage::Final, "cluster labels")?;
        // `laboff` delimits Σ`labcnt` terms inside `labstr` (held at open).
        let (labstr, laboff) = (self.get::<u8>(&LABSTR), self.get::<u32>(&LABOFF));
        let mut terms = laboff.windows(2).map(|w| {
            let term = std::str::from_utf8(&labstr[w[0] as usize..w[1] as usize]);
            term.map(str::to_string)
                .map_err(|_| bad(&self.snap, "a cluster label is not UTF-8".into()))
        });
        let labcnt = self.get::<u32>(&LABCNT).iter();
        labcnt
            .map(|&c| terms.by_ref().take(c as usize).collect())
            .collect()
    }

    /// Reconstruct the complete [`EngineOutput`] from a `Stage::Final`
    /// snapshot without running any pipeline stage. Collective.
    pub fn restore_output(&self, ctx: &Ctx) -> io::Result<EngineOutput> {
        self.since(Stage::Final, "final output")?;
        let (lo, hi) = self.doc_range(ctx)?;
        let dims = self.meta.projection_dims;
        let assign = self.get::<u32>(&ASSIGN);
        let coordnd = self.get::<f64>(&COORDND);
        let csize = self.get::<u64>(&CSIZE);

        let local_coords_nd = coordnd[lo * dims..hi * dims].to_vec();
        let local_coords: Vec<(f64, f64)> = local_coords_nd
            .chunks(dims)
            .map(|row| (row[0], row[1]))
            .collect();
        let rank0 = ctx.rank() == 0;
        let coords = rank0.then(|| coordnd.chunks(dims).map(|r| (r[0], r[1])).collect());
        let all_assignments = rank0.then(|| assign.to_vec());

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
                load: self.rank_loads(),
            },
        })
    }
}
