//! Parallel Inverted File Indexing (IFI) and global term statistics
//! (paper §3.3).
//!
//! The inversion follows FAST-INV's two-pass structure, which avoids any
//! sort: a **counting pass** sizes each term's posting range, a prefix sum
//! turns counts into offsets, and a **scatter pass** places each posting
//! into its term's preallocated slots. The scatter pass is where the
//! paper's load-balancing contribution lives:
//!
//! > *"a shared task queue, which is stored in a global array, represents
//! > the collection of loads to be processed by all processes … When a
//! > process finishes computing its loads, it gets the next available load
//! > from the task queue, and atomically increments the task queue."*
//!
//! A *load* is a fixed-size chunk ([`EngineConfig::chunk_docs`]) of one
//! owner's documents (fixed-size chunking, Kruskal & Weiss [19]). A thief
//! processing a remote load fetches the owner's forward-index slice from
//! the global arrays — paying the one-sided communication the paper's
//! locality-aware design makes visible — then scatters postings through a
//! **destination-aggregated exchange**: all of a load's cursor slots are
//! reserved with one batched fetch-add per destination rank
//! ([`ga::GlobalArray::fetch_add_batch`]) and the postings ship with one
//! packed put per destination rank, instead of one atomic `read_inc` per
//! (term, load) pair plus per-run puts. Message count per load falls from
//! O(distinct terms) to O(P) with bit-identical postings (the slots each
//! group receives are a permutation of the scalar schedule's; the
//! deterministic sort in [`InvertedIndex::postings_of`] erases the
//! difference).
//!
//! Three balancing modes are provided for Figure 9 and the ablation
//! benches: [`Balancing::Dynamic`] (the paper), [`Balancing::Static`]
//! (owner-computes baseline), and [`Balancing::MasterWorker`] (the
//! classical centralized alternative §3.3 argues against).

use crate::config::{Balancing, EngineConfig};
use crate::scan::{unpack_entry, ForwardIndex, ScanOutput};
use crate::{DocId, FieldId, TermId};
use ga::{GlobalArray, GlobalCounter, TaskQueue};
use perfmodel::WorkKind;
use spmd::Ctx;
use std::sync::Arc;

/// One posting of the term-to-(document, field) index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Posting {
    pub doc: DocId,
    pub field: FieldId,
    pub freq: u32,
}

/// Pack a posting (doc 32 | field 8 | freq 24). Public counterpart of
/// [`unpack_posting`] so the snapshot codec can rebuild the engine's
/// packed layout from decoded postings.
pub fn pack_posting(p: Posting) -> u64 {
    (p.doc as u64) | ((p.field as u64) << 32) | ((p.freq.min(0xFF_FFFF) as u64) << 40)
}

/// Unpack a posting from its global-array encoding (doc 32 | field 8 |
/// freq 24). Public so the serving tier can read a snapshot's flattened
/// posting array with the exact decoding the engine wrote.
pub fn unpack_posting(e: u64) -> Posting {
    Posting {
        doc: (e & 0xFFFF_FFFF) as DocId,
        field: ((e >> 32) & 0xFF) as FieldId,
        freq: (e >> 40) as u32,
    }
}

/// Per-rank load-balance observation for Figure 9.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankLoad {
    /// Loads this rank claimed that it also owned.
    pub own_tasks: u32,
    /// Loads this rank stole from other owners.
    pub stolen_tasks: u32,
    /// Postings this rank scattered.
    pub postings: u64,
    /// Virtual seconds this rank spent in the scatter phase.
    pub seconds: f64,
}

/// The inverted file index plus global term statistics.
pub struct InvertedIndex {
    /// Posting-range offsets per term (`vocab_size + 1`), replicated.
    pub offsets: Arc<Vec<i64>>,
    /// Packed postings in a global array.
    pub postings: GlobalArray<u64>,
    /// Document frequency per term, replicated.
    pub df: Arc<Vec<u32>>,
    /// Collection frequency per term, replicated.
    pub tf: Arc<Vec<u64>>,
    /// Total documents in the collection.
    pub total_docs: u32,
    /// Total accepted tokens in the collection.
    pub total_tokens: u64,
    /// Per-rank scatter-phase statistics (replicated).
    pub load: Vec<RankLoad>,
}

impl InvertedIndex {
    /// Fetch a term's postings, sorted by (doc, field) for determinism
    /// (scatter order depends on scheduling).
    pub fn postings_of(&self, ctx: &Ctx, term: TermId) -> Vec<Posting> {
        let lo = self.offsets[term as usize] as usize;
        let hi = self.offsets[term as usize + 1] as usize;
        let mut out: Vec<Posting> = self
            .postings
            .get(ctx, lo..hi)
            .into_iter()
            .map(unpack_posting)
            .collect();
        out.sort_unstable();
        out
    }
}

/// Documents per load for an owner with `n_docs` documents.
fn n_loads(n_docs: usize, chunk: usize) -> usize {
    n_docs.div_ceil(chunk.max(1))
}

/// Documents per intra-rank chunk for the counting pass. Fixed (never
/// derived from the pool width) so chunk boundaries — and therefore the
/// merged counts — are identical at every `threads_per_rank`. The counts
/// are integers, so any fixed size merges to the same bits; this one
/// keeps the vocabulary-sized partials a rank zeroes and merges few.
const COUNT_DOC_CHUNK: usize = 256;

/// Partial counting-pass result for one contiguous chunk of local docs.
struct CountPartial {
    df: Vec<u32>,
    tf: Vec<u64>,
    plen: Vec<u32>,
    entries: u64,
}

/// Virtual seconds rank 0 needs to service one master-worker task request
/// (dequeue, bookkeeping, reply). With `P` workers hammering a single
/// master, a request waits behind `O(P)` others in expectation — the
/// scalability issue §3.3 describes.
const MASTER_SERVICE_S: f64 = 2.5e-5;

/// Run parallel inverted file indexing. Collective. Consumes the forward
/// index: once inverted, nothing reads it again, so its global arrays are
/// freed here rather than held through the later stages.
pub fn invert(
    ctx: &Ctx,
    scan: &ScanOutput,
    forward: ForwardIndex,
    cfg: &EngineConfig,
) -> InvertedIndex {
    let p = ctx.nprocs();
    let vocab_size = scan.vocab_size();

    // ---- Counting pass (local): df, tf, and posting counts per term ----
    // Fanned out over the intra-rank pool: each fixed-size doc chunk
    // accumulates its own partial vectors, which merge in chunk index
    // order on the rank thread. The single InvertPostings charge lands
    // after the merge, so virtual time is invariant in the pool width.
    let partials: Vec<CountPartial> =
        ctx.pool()
            .map_chunks(scan.docs.len(), COUNT_DOC_CHUNK, |chunk| {
                let mut part = CountPartial {
                    df: vec![0u32; vocab_size],
                    tf: vec![0u64; vocab_size],
                    plen: vec![0u32; vocab_size],
                    entries: 0,
                };
                for d in &scan.docs[chunk] {
                    let mut last_term: Option<TermId> = None;
                    for (t, f) in d.distinct_terms() {
                        // distinct_terms is sorted and deduplicated, so each
                        // term counts once toward df.
                        debug_assert!(last_term.is_none_or(|lt| lt < t));
                        last_term = Some(t);
                        part.df[t as usize] += 1;
                        part.tf[t as usize] += f as u64;
                    }
                    for field in &d.fields {
                        for &(t, _) in &field.counts {
                            part.plen[t as usize] += 1;
                            part.entries += 1;
                        }
                    }
                }
                part
            });
    let mut df_local = vec![0u32; vocab_size];
    let mut tf_local = vec![0u64; vocab_size];
    let mut plen_local = vec![0u32; vocab_size];
    let mut local_entries = 0u64;
    for part in partials {
        for (acc, v) in df_local.iter_mut().zip(&part.df) {
            *acc += v;
        }
        for (acc, v) in tf_local.iter_mut().zip(&part.tf) {
            *acc += v;
        }
        for (acc, v) in plen_local.iter_mut().zip(&part.plen) {
            *acc += v;
        }
        local_entries += part.entries;
    }
    ctx.charge(WorkKind::InvertPostings, local_entries);

    // ---- Global term statistics in global arrays (§3.3) ----
    let df_ga = GlobalArray::<u32>::create(ctx, vocab_size);
    let tf_ga = GlobalArray::<u64>::create(ctx, vocab_size);
    let plen_ga = GlobalArray::<u32>::create(ctx, vocab_size);
    if vocab_size > 0 {
        // Destination-aggregated accumulate: one message per rank whose
        // block the vocab-length contribution overlaps.
        df_ga.acc_batch(ctx, [(0, df_local.as_slice())]);
        tf_ga.acc_batch(ctx, [(0, tf_local.as_slice())]);
        plen_ga.acc_batch(ctx, [(0, plen_local.as_slice())]);
    }
    ctx.barrier();
    let df = Arc::new(df_ga.to_vec_collective(ctx));
    let tf = Arc::new(tf_ga.to_vec_collective(ctx));
    let plen = plen_ga.to_vec_collective(ctx);

    // ---- Offsets: prefix sum over posting counts (per-term work) ----
    ctx.charge_vocab(WorkKind::Flops, vocab_size as u64);
    let mut offsets = Vec::with_capacity(vocab_size + 1);
    let mut at: i64 = 0;
    for &c in &plen {
        offsets.push(at);
        at += c as i64;
    }
    offsets.push(at);
    let total_postings = at as usize;
    let offsets = Arc::new(offsets);

    // ---- Scatter pass with load balancing ----
    let postings = GlobalArray::<u64>::create(ctx, total_postings);
    let cursors = GlobalArray::<i64>::create(ctx, vocab_size);

    // Every rank needs every owner's document base to resolve loads.
    let doc_bases: Vec<u32> = ctx.allgather(scan.doc_base, 4);
    let doc_counts: Vec<u32> = ctx.allgather(scan.docs.len() as u32, 4);

    let my_loads = n_loads(scan.docs.len(), cfg.chunk_docs);
    let mut own_tasks = 0u32;
    let mut stolen_tasks = 0u32;
    let mut my_postings = 0u64;
    let scatter_start = ctx.now();

    // Buffers reused across loads, cleared per load.
    let mut by_term: Vec<(TermId, u64)> = Vec::new();
    let mut groups: Vec<(TermId, usize, usize)> = Vec::new(); // (term, start, len)
    let mut reserve: Vec<(usize, i64)> = Vec::new();
    let mut packed: Vec<u64> = Vec::new();

    // `promise` forwards a lower bound on this rank's next claim clock to
    // the mode's claim gate (a no-op where there is none).
    let mut process_load = |owner: usize, index: usize, promise: &dyn Fn(f64)| {
        let base = doc_bases[owner] as usize;
        let count = doc_counts[owner] as usize;
        let d0 = base + index * cfg.chunk_docs;
        let d1 = (d0 + cfg.chunk_docs).min(base + count);
        if d0 >= d1 {
            return;
        }
        // Fetch the owner's forward-index slice. For own loads this is a
        // local-block access; for stolen loads it is one-sided traffic.
        let offs = forward.offsets.get(ctx, d0..d1 + 1);
        let lo = offs[0] as usize;
        let hi = offs[d1 - d0] as usize;
        // The load's InvertPostings charge below is still to come and
        // every other charge is non-negative, so the next claim cannot
        // happen before this clock: peers need not wait for the scatter.
        promise(
            ctx.now()
                + ctx
                    .model()
                    .compute(WorkKind::InvertPostings, (hi - lo) as u64)
                    * ctx.pressure(),
        );
        let entries = forward.data.get(ctx, lo..hi);
        // Group by term, preserving (doc, field) structure. Entries within
        // a document are term-sorted per field; a simple sort by term
        // groups across the load.
        by_term.clear();
        by_term.reserve(entries.len());
        let mut entry_at = lo;
        for (di, doc) in (d0..d1).enumerate() {
            let end = offs[di + 1] as usize;
            while entry_at < end {
                let (t, f, c) = unpack_entry(entries[entry_at - lo]);
                by_term.push((
                    t,
                    pack_posting(Posting {
                        doc: doc as DocId,
                        field: f,
                        freq: c,
                    }),
                ));
                entry_at += 1;
            }
        }
        by_term.sort_unstable_by_key(|&(t, _)| t);
        ctx.charge(WorkKind::InvertPostings, by_term.len() as u64);
        my_postings += by_term.len() as u64;
        // Aggregated exchange (ARMCI-style): reserve *all* term groups'
        // cursor slots in one batched fetch-add — block distribution
        // makes each cursor's owner computable locally, so the whole
        // reservation costs one message per destination rank instead of
        // one remote atomic per (term, load) pair. Then ship the packed
        // postings with the destination-aggregated put_batch: every span
        // bound for one rank travels in one message, contiguous or not.
        groups.clear();
        reserve.clear();
        let mut i = 0;
        while i < by_term.len() {
            let t = by_term[i].0;
            let mut j = i + 1;
            while j < by_term.len() && by_term[j].0 == t {
                j += 1;
            }
            groups.push((t, i, j - i));
            reserve.push((t as usize, (j - i) as i64));
            i = j;
        }
        let slots = cursors.fetch_add_batch(ctx, &reserve);
        // by_term is term-sorted, so each group's payload is a contiguous
        // slice of one packed buffer — no per-group allocation.
        packed.clear();
        packed.extend(by_term.iter().map(|&(_, e)| e));
        postings.put_batch(
            ctx,
            groups.iter().zip(&slots).map(|(&(t, at, k), &slot)| {
                ((offsets[t as usize] + slot) as usize, &packed[at..at + k])
            }),
        );
    };

    match cfg.balancing {
        Balancing::Dynamic => {
            let q = TaskQueue::create(ctx, my_loads);
            while let Some(task) = q.pop(ctx) {
                if task.owner == ctx.rank() {
                    own_tasks += 1;
                } else {
                    stolen_tasks += 1;
                }
                process_load(task.owner, task.index, &|t| q.promise(ctx, t));
            }
        }
        Balancing::Static => {
            // Owner-computes: no queue, no stealing.
            for index in 0..my_loads {
                own_tasks += 1;
                process_load(ctx.rank(), index, &|_| {});
            }
        }
        Balancing::MasterWorker => {
            // Centralized handout: every claim is an RPC to rank 0, which
            // services requests serially. Claims are still ordered by
            // virtual time (the master serves the first request to
            // arrive on the cluster's clock).
            let gate = spmd::VirtualGate::create(ctx);
            let load_counts: Vec<usize> = ctx.allgather(my_loads, 8);
            let mut bounds = Vec::with_capacity(p + 1);
            let mut acc = 0usize;
            for &c in &load_counts {
                bounds.push(acc);
                acc += c;
            }
            bounds.push(acc);
            let counter = GlobalCounter::create(ctx, 0);
            let claim_wait = MASTER_SERVICE_S * p as f64 * ctx.model().scale.data_scale();
            loop {
                gate.pace(ctx);
                let g = counter.fetch_add(ctx, 1);
                // Queueing at the master: expected wait grows with P, and
                // the nominal run issues data_scale x as many claims.
                ctx.advance(claim_wait);
                if g as usize >= acc {
                    gate.leave(ctx);
                    break;
                }
                let owner = match bounds.binary_search(&(g as usize)) {
                    Ok(mut r) => {
                        while r < p && bounds[r] == bounds[r + 1] {
                            r += 1;
                        }
                        r
                    }
                    Err(ins) => ins - 1,
                };
                let index = g as usize - bounds[owner];
                if owner == ctx.rank() {
                    own_tasks += 1;
                } else {
                    stolen_tasks += 1;
                }
                process_load(owner, index, &|t| gate.publish_bound(ctx, t));
            }
        }
    }
    // Per-rank scatter time is measured *before* the closing barrier so
    // Figure 9 shows the genuine imbalance rather than the synced clock.
    let scatter_seconds = ctx.now() - scatter_start;
    ctx.barrier();

    let my_load = RankLoad {
        own_tasks,
        stolen_tasks,
        postings: my_postings,
        seconds: scatter_seconds,
    };
    let load = ctx.allgather(my_load, std::mem::size_of::<RankLoad>() as u64);

    let total_tokens = ctx.allreduce(vec![scan.tokens_scanned], spmd::ReduceOp::Sum)[0];

    InvertedIndex {
        offsets,
        postings,
        df,
        tf,
        total_docs: scan.total_docs,
        total_tokens,
        load,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::scan;
    use corpus::CorpusSpec;
    use spmd::Runtime;

    fn corpus() -> corpus::SourceSet {
        CorpusSpec {
            source_bytes: 8 * 1024,
            ..CorpusSpec::pubmed(48 * 1024, 123)
        }
        .generate()
    }

    fn run_invert(p: usize, balancing: Balancing) -> (Vec<u32>, Vec<u64>, Vec<Vec<Posting>>) {
        let src = corpus();
        let rt = Runtime::for_testing();
        let mut res = rt.run(p, |ctx| {
            let cfg = EngineConfig {
                balancing,
                chunk_docs: 8,
                ..EngineConfig::for_testing()
            };
            let (s, fwd) = scan(ctx, &src);
            let idx = invert(ctx, &s, fwd, &cfg);
            ctx.barrier();
            // Fetch postings for a sample of terms for cross-P comparison.
            let sample: Vec<Vec<Posting>> = (0..s.vocab_size())
                .step_by(37)
                .map(|t| idx.postings_of(ctx, t as TermId))
                .collect();
            (idx.df.as_ref().clone(), idx.tf.as_ref().clone(), sample)
        });
        res.results.remove(0)
    }

    #[test]
    fn inversion_matches_across_p_and_modes() {
        let (df1, tf1, post1) = run_invert(1, Balancing::Dynamic);
        for (p, mode) in [
            (3, Balancing::Dynamic),
            (4, Balancing::Static),
            (2, Balancing::MasterWorker),
        ] {
            let (df, tf, post) = run_invert(p, mode);
            assert_eq!(df, df1, "df differs at P={p} {mode:?}");
            assert_eq!(tf, tf1, "tf differs at P={p} {mode:?}");
            assert_eq!(post, post1, "postings differ at P={p} {mode:?}");
        }
    }

    #[test]
    fn postings_consistent_with_forward_index() {
        let src = corpus();
        let rt = Runtime::for_testing();
        rt.run(3, |ctx| {
            let cfg = EngineConfig::for_testing();
            let (s, fwd) = scan(ctx, &src);
            let idx = invert(ctx, &s, fwd, &cfg);
            ctx.barrier();
            // Every local document's forward entries must appear in the
            // inverted postings of the corresponding term.
            for d in s.docs.iter().take(5) {
                for f in &d.fields {
                    for &(t, c) in &f.counts {
                        let posts = idx.postings_of(ctx, t);
                        assert!(
                            posts.contains(&Posting {
                                doc: d.doc_id,
                                field: f.field,
                                freq: c
                            }),
                            "missing posting term={t} doc={}",
                            d.doc_id
                        );
                    }
                }
            }
        });
    }

    #[test]
    fn df_counts_distinct_documents() {
        let src = corpus();
        let rt = Runtime::for_testing();
        rt.run(2, |ctx| {
            let cfg = EngineConfig::for_testing();
            let (s, fwd) = scan(ctx, &src);
            let idx = invert(ctx, &s, fwd, &cfg);
            ctx.barrier();
            for t in (0..s.vocab_size()).step_by(53) {
                let posts = idx.postings_of(ctx, t as TermId);
                let mut docs: Vec<DocId> = posts.iter().map(|p| p.doc).collect();
                docs.dedup();
                assert_eq!(docs.len() as u32, idx.df[t], "df mismatch for term {t}");
            }
        });
    }

    #[test]
    fn tf_equals_sum_of_freqs() {
        let src = corpus();
        let rt = Runtime::for_testing();
        rt.run(2, |ctx| {
            let cfg = EngineConfig::for_testing();
            let (s, fwd) = scan(ctx, &src);
            let idx = invert(ctx, &s, fwd, &cfg);
            ctx.barrier();
            for t in (0..s.vocab_size()).step_by(41) {
                let posts = idx.postings_of(ctx, t as TermId);
                let sum: u64 = posts.iter().map(|p| p.freq as u64).sum();
                assert_eq!(sum, idx.tf[t], "tf mismatch for term {t}");
            }
        });
    }

    #[test]
    fn every_load_processed_exactly_once() {
        let src = corpus();
        let rt = Runtime::for_testing();
        let res = rt.run(4, |ctx| {
            let cfg = EngineConfig {
                chunk_docs: 4,
                ..EngineConfig::for_testing()
            };
            let (s, fwd) = scan(ctx, &src);
            let idx = invert(ctx, &s, fwd, &cfg);
            let expected_loads: usize = {
                let counts: Vec<u32> = ctx.allgather(s.docs.len() as u32, 4);
                counts.iter().map(|&c| n_loads(c as usize, 4)).sum()
            };
            let done: u32 = idx.load.iter().map(|l| l.own_tasks + l.stolen_tasks).sum();
            (expected_loads as u32, done)
        });
        for (expect, done) in res.results {
            assert_eq!(expect, done);
        }
    }

    #[test]
    fn static_mode_never_steals() {
        let src = corpus();
        let rt = Runtime::for_testing();
        let res = rt.run(3, |ctx| {
            let cfg = EngineConfig {
                balancing: Balancing::Static,
                ..EngineConfig::for_testing()
            };
            let (s, fwd) = scan(ctx, &src);
            let idx = invert(ctx, &s, fwd, &cfg);
            idx.load.iter().map(|l| l.stolen_tasks).sum::<u32>()
        });
        assert!(res.results.iter().all(|&s| s == 0));
    }

    #[test]
    fn total_tokens_globally_agreed() {
        let src = corpus();
        let rt = Runtime::for_testing();
        let res = rt.run(3, |ctx| {
            let cfg = EngineConfig::for_testing();
            let (s, fwd) = scan(ctx, &src);
            invert(ctx, &s, fwd, &cfg).total_tokens
        });
        assert!(res.results.iter().all(|&t| t == res.results[0] && t > 0));
    }

    #[test]
    fn n_loads_rounding() {
        assert_eq!(n_loads(0, 8), 0);
        assert_eq!(n_loads(1, 8), 1);
        assert_eq!(n_loads(8, 8), 1);
        assert_eq!(n_loads(9, 8), 2);
    }

    #[test]
    fn posting_pack_roundtrip() {
        // Every field at its extremes and in the middle survives the
        // 32|8|24 packing exactly (freq within the 24-bit budget).
        for doc in [0u32, 1, 0xDEAD_BEEF, u32::MAX] {
            for field in [0u8, 1, 7, u8::MAX] {
                for freq in [0u32, 1, 1000, 0xFF_FFFE, 0xFF_FFFF] {
                    let p = Posting { doc, field, freq };
                    assert_eq!(unpack_posting(pack_posting(p)), p, "{p:?}");
                }
            }
        }
    }

    #[test]
    fn posting_freq_saturates_at_24_bits() {
        // Frequencies beyond the 24-bit budget clamp to 0xFF_FFFF instead
        // of corrupting the neighbouring fields.
        for freq in [0x100_0000u32, 0x100_0001, u32::MAX] {
            let p = Posting {
                doc: 12345,
                field: 3,
                freq,
            };
            let back = unpack_posting(pack_posting(p));
            assert_eq!(back.freq, 0xFF_FFFF, "freq {freq:#x} must saturate");
            assert_eq!(back.doc, p.doc, "doc must survive saturation");
            assert_eq!(back.field, p.field, "field must survive saturation");
        }
    }
}
