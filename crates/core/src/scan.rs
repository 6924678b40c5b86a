//! Scan & Map: source partitioning, tokenization, forward indexing, and
//! global vocabulary construction (paper §3.2).
//!
//! Each rank scans its byte-balanced share of the sources, tokenizes every
//! indexed field, and builds the *forward index* (document → field → term
//! counts). Unique terms are registered in the ARMCI-style distributed
//! hashmap, which assigns global term IDs; a process-local interner cache
//! keeps the remote insert traffic proportional to the number of
//! *distinct* terms a rank encounters, not to the token count, and each
//! record chunk's unseen terms travel in **one batched RPC per
//! destination shard** rather than one round trip per term.
//!
//! After scanning, the forward index is published into two global arrays
//! (offsets + packed entries) so that any rank can fetch any document's
//! postings during the dynamically load-balanced inversion — this is the
//! "stored in global arrays, so that they are globally accessible when
//! processes exchange information during inverted file indexing" of §3.2.
//! Those arrays are a [`ForwardIndex`], handed to the Index stage beside
//! the [`ScanOutput`] rather than inside it: the inversion consumes them,
//! and from then on the inverted file holds the same facts.
//!
//! Finally the vocabulary is **canonicalized**: the distributed hashmap's
//! arrival-order IDs depend on thread scheduling, so ranks collectively
//! sort the vocabulary and remap to dense, lexicographic IDs. This makes
//! every downstream stage bit-deterministic for a given corpus regardless
//! of the processor count or scheduling, which the test suite relies on.
//!
//! Term **order** is established exactly once. Tokenization yields each
//! field's counts in first-occurrence order over chunk-local ids, Phase B
//! only builds each chunk's local → arrival id table, and the remap after
//! canonicalization sorts every field by canonical id — ids are distinct
//! within a field, so nothing upstream of that sort can influence it.
//!
//! [`scan_sources`] is the same tokenize → canonical-document path for a
//! list of sources on one rank, with no SPMD context and no distributed
//! vocabulary: the sorted terms of those sources are their canonical ids.
//! It yields what [`scan`] yields at P = 1 for a corpus of those sources,
//! and the live-ingestion sealer builds each segment from it, so batch and
//! live indexing share one document model ([`LocalDoc`]).

use crate::tokenize::Tokenizer;
use crate::{DocId, FieldId, TermId};
use corpus::{partition_contiguous, Source, SourceSet};
use ga::{DistHashMap, GlobalArray};
use intern::{TermInterner, TermTable};
use perfmodel::WorkKind;
use spmd::Ctx;
use std::ops::Range;

/// Records per intra-rank work chunk during tokenization. Fixed (never
/// derived from the pool width) so chunk boundaries — and therefore all
/// merged results — are identical at any `threads_per_rank`. Eight
/// multi-kilobyte records are enough work to amortize a chunk dispatch
/// while keeping the schedule balanced on test-sized partitions. The
/// value is frozen: a chunk's unseen terms are one vocabulary-RPC batch,
/// so chunk composition decides message counts and virtual time.
const SCAN_RECORD_CHUNK: usize = 8;

/// Pre-sizing of a Phase A chunk interner from the chunk's input bytes.
/// Every chunk interner of a rank is alive until Phase B, so the hint
/// must follow the record size: measured on 32 MiB of each flavour, a
/// chunk holds one distinct term per 18.6 (newswire, ≈260 terms), 25.7
/// (trec, ≈350) and 21.6 (PubMed, ≈900) input bytes — never fewer than
/// 14.7 — of 10.6–11.5 bytes each. The cap bounds chunks of very long
/// records, whose vocabulary grows sublinearly; beyond it the interner
/// grows as usual. Capacity only — no effect on ids, charges or output.
const CHUNK_BYTES_PER_TERM: usize = 16;
const CHUNK_TERMS_CAP: usize = 1024;
const CHUNK_TERM_LEN_HINT: usize = 12;

/// Fields that are indexed (contribute terms). Identifier-like fields
/// (pmid, docno, url, author) are framed but not indexed, as a production
/// text engine would configure.
pub const INDEXED_FIELDS: &[&str] = &["title", "abstract", "mesh", "body"];

/// Pack a forward-index entry: term id (32 bits) | field (8) | freq (24).
pub fn pack_entry(term: TermId, field: FieldId, freq: u32) -> u64 {
    (term as u64) | ((field as u64) << 32) | ((freq.min(0xFF_FFFF) as u64) << 40)
}

/// Unpack a forward-index entry.
pub fn unpack_entry(e: u64) -> (TermId, FieldId, u32) {
    (
        (e & 0xFFFF_FFFF) as TermId,
        ((e >> 32) & 0xFF) as FieldId,
        (e >> 40) as u32,
    )
}

/// Per-field term counts of one document, sorted by term id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LocalField {
    pub field: FieldId,
    pub counts: Vec<(TermId, u32)>,
}

/// One scanned document owned by this rank.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LocalDoc {
    pub doc_id: DocId,
    pub fields: Vec<LocalField>,
    /// Accepted tokens in the document (all indexed fields).
    pub tokens: u32,
}

impl LocalDoc {
    /// Distinct terms of the document (sorted, deduplicated across
    /// fields), with total frequency. Each field's list is already
    /// sorted by term id with no repeats, so the lists merge pairwise —
    /// no hashing, no sort.
    pub fn distinct_terms(&self) -> Vec<(TermId, u32)> {
        let mut fields = self.fields.iter();
        let Some(first) = fields.next() else {
            return Vec::new();
        };
        fields.fold(first.counts.clone(), |acc, f| {
            merge_summing(&acc, &f.counts)
        })
    }
}

/// Merge two term-sorted `(term, freq)` lists, summing the frequencies of
/// terms both carry.
fn merge_summing(a: &[(TermId, u32)], b: &[(TermId, u32)]) -> Vec<(TermId, u32)> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].0.cmp(&b[j].0) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push((a[i].0, a[i].1 + b[j].1));
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// The forward index in global arrays, which any rank can read during
/// the load-balanced inversion. [`scan`] returns it beside the
/// [`ScanOutput`]; [`crate::index::invert`] consumes it, and only
/// Scan-stage snapshots persist it.
pub struct ForwardIndex {
    /// Document offsets into `data` (length `total_docs + 1`).
    pub offsets: GlobalArray<i64>,
    /// Packed entries (term | field | freq), in document order and, within
    /// a document, field by field as [`LocalDoc::fields`] lists them.
    pub data: GlobalArray<u64>,
}

/// The result of the Scan & Map stage on one rank.
pub struct ScanOutput {
    /// This rank's documents, in corpus order.
    pub docs: Vec<LocalDoc>,
    /// Global id of `docs[0]`.
    pub doc_base: DocId,
    /// Total documents across all ranks.
    pub total_docs: u32,
    /// Canonical vocabulary: `terms[canonical_id]`, lexicographically
    /// sorted, arena-backed. All term ids in `docs` and the forward
    /// index are canonical.
    pub terms: std::sync::Arc<TermTable>,
    /// Bytes of source data this rank scanned.
    pub bytes_scanned: u64,
    /// Accepted tokens this rank scanned.
    pub tokens_scanned: u64,
    /// Vocabulary-registration messages this rank actually charged
    /// (batched: one per destination shard per tokenized-record chunk).
    pub vocab_rpc_msgs: u64,
    /// Messages a per-term scalar registration would have charged — the
    /// number of distinct new terms this rank pushed to the dhashmap.
    pub vocab_rpc_scalar_equiv: u64,
}

impl ScanOutput {
    /// Vocabulary size (canonical ids are dense `0..terms.len()`).
    pub fn vocab_size(&self) -> usize {
        self.terms.len()
    }

    /// Canonical id of `term`, if present.
    pub fn term_id(&self, term: &str) -> Option<TermId> {
        self.terms.position(term).map(|i| i as TermId)
    }
}

/// One indexed field of a tokenized (but not yet vocabulary-registered)
/// record: counts keyed by the owning chunk's interner ids, in the order
/// the terms first occur in the field, plus the raw candidate count for
/// work accounting.
struct TokenizedField {
    field: FieldId,
    /// `(chunk-local term id, count)`, in first-occurrence order.
    counts: Vec<(u32, u32)>,
    candidates: u64,
}

/// A record after the pure tokenize phase.
struct TokenizedDoc {
    fields: Vec<TokenizedField>,
    tokens: u32,
}

/// A chunk of tokenized records sharing one interner — the unit of
/// batched vocabulary registration in Phase B.
struct TokenizedChunk {
    /// Distinct terms of the chunk, in first-occurrence order; field
    /// counts reference these ids.
    terms: TermInterner,
    docs: Vec<TokenizedDoc>,
}

/// Parse and tokenize one record into the chunk's interner. Pure with
/// respect to rank state, so it can run on the intra-rank pool. The
/// tokenize→count loop does zero per-token allocations and one hash pass
/// per token: terms land in the chunk arena (distinct terms only), and
/// per-field counting uses the reusable id-indexed
/// `counts_scratch`/`touched` scratch pair. Nothing is sorted here —
/// term order is established once, by canonical id, in [`canonical_doc`].
///
/// A field the record repeats is one field whose counts sum over every
/// occurrence, in the place of its first — MEDLINE gives each MeSH
/// heading its own `MH` line. A document thus holds each field once, and
/// each (term, document, field) is one posting, from which a post-Scan
/// restore rebuilds the document.
fn tokenize_record(
    source: &Source,
    range: Range<usize>,
    terms: &mut TermInterner,
    counts_scratch: &mut Vec<u32>,
    touched: &mut Vec<u32>,
) -> TokenizedDoc {
    let raw = source.parse_record(range);
    let mut fields: Vec<TokenizedField> = Vec::new();
    let mut tokens = 0u32;
    let mut started = 0u32; // one bit per field id
    for (first, &(name, _)) in raw.fields.iter().enumerate() {
        if !INDEXED_FIELDS.contains(&name) {
            continue;
        }
        let fid = crate::field_id(name).expect("indexed field registered");
        // A repeated field was tokenized whole at its first occurrence.
        if started & (1 << fid) != 0 {
            continue;
        }
        started |= 1 << fid;
        let mut candidates = 0u64;
        for &(_, text) in raw.fields[first..].iter().filter(|(n, _)| *n == name) {
            candidates += Tokenizer::default().tokenize_intern_into(text, terms, |id, _is_new| {
                let at = id as usize;
                if at >= counts_scratch.len() {
                    counts_scratch.resize(at + 1, 0);
                }
                if counts_scratch[at] == 0 {
                    touched.push(id);
                }
                counts_scratch[at] += 1;
                tokens += 1;
            });
        }
        if candidates == 0 {
            continue;
        }
        let counts: Vec<(u32, u32)> = touched
            .drain(..)
            .map(|id| (id, std::mem::take(&mut counts_scratch[id as usize])))
            .collect();
        fields.push(TokenizedField {
            field: fid,
            counts,
            candidates,
        });
    }
    TokenizedDoc { fields, tokens }
}

/// A tokenized record as the engine's document: chunk-local ids become
/// canonical ids through `to_canonical`, and each field sorts by
/// canonical id — the one place term order is established (ids are
/// distinct within a field, so the order the counts arrive in cannot
/// matter). Fields with no accepted terms drop; a record may thus hold
/// no field and still occupy one document id, which the caller assigns.
fn canonical_doc(tdoc: &TokenizedDoc, to_canonical: &[TermId]) -> LocalDoc {
    LocalDoc {
        doc_id: 0,
        fields: tdoc
            .fields
            .iter()
            .filter(|f| !f.counts.is_empty())
            .map(|f| {
                let mut counts: Vec<(TermId, u32)> = f
                    .counts
                    .iter()
                    .map(|&(local, n)| (to_canonical[local as usize], n))
                    .collect();
                counts.sort_unstable_by_key(|&(t, _)| t);
                LocalField {
                    field: f.field,
                    counts,
                }
            })
            .collect(),
        tokens: tdoc.tokens,
    }
}

/// Scan & Map of `sources` on one rank, with no SPMD context: their
/// records, source after source, as documents numbered from 0, over a
/// vocabulary of the terms they hold, sorted. Record tokenization is
/// context-free, so this is exactly what [`scan`] yields at P = 1 for a
/// corpus of those sources — and what the live-ingestion sealer builds a
/// segment from, so a segment's postings and df/tf come from the
/// engine's own documents.
pub fn scan_sources(sources: &[Source]) -> (TermTable, Vec<LocalDoc>) {
    let mut terms = TermInterner::new();
    let (mut counts_scratch, mut touched) = (Vec::new(), Vec::new());
    let tdocs: Vec<TokenizedDoc> = (sources.iter())
        .flat_map(|source| source.record_ranges().into_iter().map(move |r| (source, r)))
        .map(|(source, range)| {
            tokenize_record(source, range, &mut terms, &mut counts_scratch, &mut touched)
        })
        .collect();
    // Canonical ids are lexicographic, as the collective remap's.
    let mut order: Vec<u32> = (0..terms.len() as u32).collect();
    order.sort_unstable_by(|&a, &b| terms.bytes(a).cmp(terms.bytes(b)));
    let mut to_canonical = vec![0; order.len()];
    for (canonical, &local) in order.iter().enumerate() {
        to_canonical[local as usize] = canonical as TermId;
    }
    let vocab = TermTable::from_sorted(order.iter().map(|&local| terms.get(local)));
    let docs = (tdocs.iter().enumerate())
        .map(|(i, tdoc)| LocalDoc {
            doc_id: i as DocId,
            ..canonical_doc(tdoc, &to_canonical)
        })
        .collect();
    (vocab, docs)
}

/// Run Scan & Map. Collective: every rank calls with the same arguments.
/// No setting changes the scan (the tokenizer is fixed, so live ingestion
/// and queries tokenize alike).
pub fn scan(ctx: &Ctx, sources: &SourceSet) -> (ScanOutput, ForwardIndex) {
    let p = ctx.nprocs();

    // Static byte-balanced partitioning of sources (§3.2).
    let parts = partition_contiguous(&sources.sizes(), p);
    let my_sources = parts[ctx.rank()].clone();

    let vocab = DistHashMap::create(ctx);
    // Rank-level term cache: interner ids are dense in first-seen order;
    // `cache_ids[interner id]` holds the dhashmap's global id.
    let mut cache = TermInterner::new();
    let mut cache_ids: Vec<TermId> = Vec::new();
    let mut bytes_scanned = 0u64;
    let mut tokens_scanned = 0u64;
    let mut vocab_rpc_msgs = 0u64;
    let mut vocab_rpc_scalar_equiv = 0u64;

    // Flatten every record of this rank's sources into one work list so
    // Phase A fans out over a single global chunk sequence — per-source
    // fan-out would leave small sources with one chunk or less. I/O and
    // scan-byte charges land per source, in source order, exactly as the
    // serial scan charged them.
    let mut records: Vec<(usize, Range<usize>)> = Vec::new();
    for si in my_sources {
        let source = &sources.sources[si];
        bytes_scanned += source.data.len() as u64;
        ctx.charge_scan_io(source.data.len() as u64);
        ctx.charge(WorkKind::ScanBytes, source.data.len() as u64);
        for range in source.record_ranges() {
            records.push((si, range));
        }
    }

    // Phase A (parallel, pure): parse and tokenize record chunks into
    // per-field counts over a chunk-local interner. No rank state is
    // touched — the chunks fan out across the intra-rank pool. Chunk
    // boundaries are fixed (SCAN_RECORD_CHUNK), so chunk interners — and
    // therefore Phase B's batch composition — are pool-width invariant.
    let chunks: Vec<TokenizedChunk> =
        ctx.pool()
            .map_chunks(records.len(), SCAN_RECORD_CHUNK, |chunk| {
                let chunk_records = &records[chunk];
                let chunk_bytes: usize = chunk_records.iter().map(|(_, r)| r.len()).sum();
                let mut terms = TermInterner::with_capacity(
                    (chunk_bytes / CHUNK_BYTES_PER_TERM).min(CHUNK_TERMS_CAP),
                    CHUNK_TERM_LEN_HINT,
                );
                let mut counts_scratch: Vec<u32> = Vec::new();
                let mut touched: Vec<u32> = Vec::new();
                let docs = chunk_records
                    .iter()
                    .map(|(si, range)| {
                        tokenize_record(
                            &sources.sources[*si],
                            range.clone(),
                            &mut terms,
                            &mut counts_scratch,
                            &mut touched,
                        )
                    })
                    .collect();
                TokenizedChunk { terms, docs }
            });

    // Phase B (serial, chunks in index order = corpus order): resolve
    // each chunk's distinct terms against the rank cache, push the
    // still-unseen ones to the distributed vocabulary in ONE batched RPC
    // per destination shard, and charge the tokenize work. Scalar per-
    // term RPCs only ever covered cache misses; batching additionally
    // collapses each chunk's misses into at most `nprocs` messages. The
    // chunk's interner is replaced by its local → arrival id table; the
    // field counts keep their chunk-local ids until the remap below.
    let mut n_docs = 0usize;
    let mut resolved: Vec<(Vec<TermId>, Vec<TokenizedDoc>)> = Vec::with_capacity(chunks.len());
    for chunk in chunks {
        let n_chunk_terms = chunk.terms.len() as u32;
        let mut chunk_to_global: Vec<TermId> = Vec::with_capacity(n_chunk_terms as usize);
        let mut pending: Vec<u32> = Vec::new();
        for local in 0..n_chunk_terms {
            let (cid, is_new) = cache.intern_from(&chunk.terms, local);
            if is_new {
                pending.push(local);
                chunk_to_global.push(TermId::MAX); // resolved by the batch below
            } else {
                chunk_to_global.push(cache_ids[cid as usize]);
            }
        }
        if !pending.is_empty() {
            let refs: Vec<&str> = pending.iter().map(|&l| chunk.terms.get(l)).collect();
            let before = ctx.stats.snapshot().total_msgs();
            let ids = vocab.insert_or_get_batch(ctx, &refs);
            vocab_rpc_msgs += ctx.stats.snapshot().total_msgs() - before;
            vocab_rpc_scalar_equiv += pending.len() as u64;
            // cache.intern_from assigned the pending terms consecutive
            // ids in this same order, so appending keeps cache_ids
            // aligned.
            for (&local, &id) in pending.iter().zip(&ids) {
                cache_ids.push(id);
                chunk_to_global[local as usize] = id;
            }
        }
        debug_assert_eq!(cache.len(), cache_ids.len());

        for tdoc in &chunk.docs {
            for tfield in &tdoc.fields {
                ctx.charge(WorkKind::TokenizeTerms, tfield.candidates);
            }
            tokens_scanned += tdoc.tokens as u64;
        }
        n_docs += chunk.docs.len();
        resolved.push((chunk_to_global, chunk.docs));
    }

    // Global document numbering.
    let (doc_base, total_docs) = ctx.exscan_u64(n_docs as u64);

    // Vocabulary is complete once everyone finished inserting.
    ctx.barrier();

    // Canonicalize: collectively sort the vocabulary and remap ids so the
    // engine is deterministic under scheduling (see module docs).
    let reverse = vocab.reverse_map_collective(ctx);
    let mut sorted_terms: Vec<String> = reverse.into_iter().flatten().collect();
    ctx.charge_vocab(
        WorkKind::HashOps,
        sorted_terms.len() as u64, // sort + remap table build
    );
    sorted_terms.sort_unstable();
    let terms = TermTable::from_sorted(sorted_terms.iter().map(|s| s.as_str()));
    // Old (arrival-order) id → canonical id, as a dense array: ids are
    // nearly dense (interleaved per shard), so an array lookup replaces a
    // hash map probe per posting. One walk of the sorted vocabulary fills
    // it; terms this rank never saw are not in its cache and are skipped.
    let mut old_to_new: Vec<TermId> = vec![TermId::MAX; vocab.id_bound()];
    let mut mapped = 0usize;
    for (new, term) in sorted_terms.iter().enumerate() {
        if let Some(cid) = cache.lookup(term) {
            old_to_new[cache_ids[cid as usize] as usize] = new as TermId;
            mapped += 1;
        }
    }
    // Vocabulary terms are distinct, so this counts distinct cache ids:
    // no term this rank registered is left at `TermId::MAX`.
    assert_eq!(
        mapped,
        cache.len(),
        "every registered term is in the canonical vocabulary"
    );
    // The arrival-order ids are dead once `old_to_new` holds them.
    drop(vocab);
    drop(sorted_terms);
    // Remap chunk-local → arrival → canonical id (`canonical_doc`).
    // Pure per-chunk work, so it fans out over the pool, one task per
    // record chunk; chunks return their documents in corpus order.
    let mut docs: Vec<LocalDoc> = ctx
        .pool()
        .map_chunks(resolved.len(), 1, |chunk| {
            let (chunk_to_global, tdocs) = &resolved[chunk.start];
            let to_canonical: Vec<TermId> = chunk_to_global
                .iter()
                .map(|&old| old_to_new[old as usize])
                .collect();
            (tdocs.iter())
                .map(|tdoc| canonical_doc(tdoc, &to_canonical))
                .collect::<Vec<_>>()
        })
        .into_iter()
        .flatten()
        .collect();
    drop(resolved);
    for (i, d) in docs.iter_mut().enumerate() {
        d.doc_id = (doc_base as usize + i) as DocId;
    }

    // Publish the forward index into global arrays.
    let my_entries: u64 = docs
        .iter()
        .map(|d| d.fields.iter().map(|f| f.counts.len() as u64).sum::<u64>())
        .sum();
    let (entry_base, total_entries) = ctx.exscan_u64(my_entries);
    let forward = ForwardIndex {
        offsets: GlobalArray::<i64>::create(ctx, total_docs as usize + 1),
        data: GlobalArray::<u64>::create(ctx, total_entries as usize),
    };

    let mut offsets = Vec::with_capacity(docs.len() + 1);
    let mut entries = Vec::with_capacity(my_entries as usize);
    let mut at = entry_base;
    for d in &docs {
        offsets.push(at as i64);
        for f in &d.fields {
            for &(t, c) in &f.counts {
                entries.push(pack_entry(t, f.field, c));
            }
        }
        at = entry_base + entries.len() as u64;
    }
    if !docs.is_empty() {
        forward.offsets.put(ctx, doc_base as usize, &offsets);
        forward.data.put(ctx, entry_base as usize, &entries);
    }
    if ctx.rank() == p - 1 {
        forward
            .offsets
            .put(ctx, total_docs as usize, &[total_entries as i64]);
    }
    ctx.barrier();

    let out = ScanOutput {
        docs,
        doc_base: doc_base as DocId,
        total_docs: total_docs as u32,
        terms: std::sync::Arc::new(terms),
        bytes_scanned,
        tokens_scanned,
        vocab_rpc_msgs,
        vocab_rpc_scalar_equiv,
    };
    (out, forward)
}

#[cfg(test)]
mod tests {
    use super::*;
    use corpus::CorpusSpec;
    use proptest::prelude::*;
    use spmd::Runtime;
    use std::collections::HashMap;

    /// The hashing implementation `distinct_terms` replaced, kept as the
    /// oracle.
    fn distinct_terms_oracle(doc: &LocalDoc) -> Vec<(TermId, u32)> {
        let mut m: HashMap<TermId, u32> = HashMap::new();
        for &(t, f) in doc.fields.iter().flat_map(|f| &f.counts) {
            *m.entry(t).or_insert(0) += f;
        }
        let mut v: Vec<(TermId, u32)> = m.into_iter().collect();
        v.sort_unstable_by_key(|&(t, _)| t);
        v
    }

    proptest! {
        #[test]
        fn distinct_terms_matches_hashmap_oracle(
            fields in prop::collection::vec(
                // Few distinct ids, so fields overlap; freqs up to the
                // 24-bit saturation point of the packed entries.
                prop::collection::vec((0u32..40, 1u32..=0xFF_FFFF), 0..30),
                1..5,
            ),
        ) {
            let fields = fields
                .into_iter()
                .enumerate()
                .map(|(i, mut counts)| {
                    // A field lists each term once, sorted by id.
                    counts.sort_unstable_by_key(|&(t, _)| t);
                    counts.dedup_by_key(|&mut (t, _)| t);
                    LocalField { field: i as FieldId, counts }
                })
                .collect();
            let doc = LocalDoc { doc_id: 0, fields, tokens: 0 };
            prop_assert_eq!(doc.distinct_terms(), distinct_terms_oracle(&doc));
        }
    }

    fn tiny_corpus() -> SourceSet {
        CorpusSpec {
            source_bytes: 8 * 1024,
            ..CorpusSpec::pubmed(32 * 1024, 77)
        }
        .generate()
    }

    /// One source of a small generated corpus of `flavour`.
    fn one_source(flavour: usize, seed: u64, pick: usize) -> Source {
        let spec = match flavour {
            0 => CorpusSpec::pubmed(24 * 1024, seed),
            1 => CorpusSpec::trec(24 * 1024, seed),
            _ => CorpusSpec::newswire(24 * 1024, seed),
        };
        let mut set = CorpusSpec {
            source_bytes: 6 * 1024,
            ..spec
        }
        .generate();
        set.sources.swap_remove(pick % set.sources.len())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The one-rank scan is the scan: `scan_sources` yields the
        /// vocabulary and documents `scan` does at P = 1 over a corpus
        /// of those sources, one or several, of mixed formats.
        #[test]
        fn scan_sources_is_the_scan_at_p1(
            picks in proptest::collection::vec((0usize..3, 0u64..1_000, 0usize..8), 1..4),
        ) {
            let sources: Vec<Source> = (picks.iter())
                .map(|&(flavour, seed, pick)| one_source(flavour, seed, pick))
                .collect();
            let set = SourceSet { sources: sources.clone() };
            let want = Runtime::for_testing()
                .run(1, |ctx| scan(ctx, &set).0)
                .results
                .remove(0);
            let (terms, docs) = scan_sources(&sources);
            prop_assert!(!docs.is_empty());
            prop_assert_eq!(&terms, want.terms.as_ref());
            prop_assert_eq!(docs, want.docs);
        }
    }

    #[test]
    fn pack_unpack_roundtrip() {
        for (t, f, c) in [
            (0u32, 0u8, 1u32),
            (123_456, 7, 999),
            (u32::MAX, 3, 0xFF_FFFF),
        ] {
            assert_eq!(unpack_entry(pack_entry(t, f, c)), (t, f, c));
        }
    }

    #[test]
    fn pack_saturates_freq() {
        let (_, _, c) = unpack_entry(pack_entry(1, 1, u32::MAX));
        assert_eq!(c, 0xFF_FFFF);
    }

    #[test]
    fn doc_ids_are_dense_and_global() {
        let corpus = tiny_corpus();
        let rt = Runtime::for_testing();
        let res = rt.run(4, |ctx| {
            let (out, _) = scan(ctx, &corpus);
            (out.doc_base, out.docs.len() as u32, out.total_docs)
        });
        let total = res.results[0].2;
        let mut expected_base = 0u32;
        for (base, n, t) in res.results {
            assert_eq!(base, expected_base);
            assert_eq!(t, total);
            expected_base += n;
        }
        assert_eq!(expected_base, total);
    }

    #[test]
    fn vocabulary_identical_across_p() {
        let corpus = tiny_corpus();
        let rt = Runtime::for_testing();
        let t1 = rt
            .run(1, |ctx| scan(ctx, &corpus).0.terms.as_ref().clone())
            .results
            .remove(0);
        for p in [2, 3, 5] {
            let tp = rt
                .run(p, |ctx| scan(ctx, &corpus).0.terms.as_ref().clone())
                .results
                .remove(0);
            assert_eq!(t1, tp, "vocabulary differs at P={p}");
        }
    }

    #[test]
    fn forward_arrays_reconstruct_documents() {
        let corpus = tiny_corpus();
        let rt = Runtime::for_testing();
        rt.run(3, |ctx| {
            let (out, forward) = scan(ctx, &corpus);
            ctx.barrier();
            // Read every rank's docs back through the global arrays and
            // compare with the local structures via an allgather.
            let offsets = forward.offsets.get(ctx, 0..out.total_docs as usize + 1);
            for d in &out.docs {
                let lo = offsets[d.doc_id as usize] as usize;
                let hi = offsets[d.doc_id as usize + 1] as usize;
                let entries = forward.data.get(ctx, lo..hi);
                let mut expect = Vec::new();
                for f in &d.fields {
                    for &(t, c) in &f.counts {
                        expect.push(pack_entry(t, f.field, c));
                    }
                }
                assert_eq!(entries, expect, "doc {}", d.doc_id);
            }
        });
    }

    /// A record that repeats a field scans as one field holding the
    /// summed counts of every occurrence, placed where the first was:
    /// MeSH headings on one `MH` line or on several give one document.
    #[test]
    fn repeated_field_scans_as_one_field() {
        let medline = |text: &str| SourceSet {
            sources: vec![corpus::Source {
                name: "m.txt".into(),
                data: text.as_bytes().to_vec(),
                format: corpus::FormatKind::Medline,
            }],
        };
        let one_line =
            medline("PMID- 1\nTI  - alpha beta\nMH  - gamma; gamma; delta\nAB  - epsilon\n\n");
        let split = medline(
            "PMID- 1\nTI  - alpha beta\nMH  - gamma\nAB  - epsilon\nMH  - gamma; delta\n\n",
        );
        let rt = Runtime::for_testing();
        let docs = |src: &SourceSet| rt.run(1, |ctx| scan(ctx, src).0).results.remove(0);
        let (want, got) = (docs(&one_line), docs(&split));
        assert_eq!(got.docs, want.docs);
        let names: Vec<&str> = got.docs[0]
            .fields
            .iter()
            .map(|f| crate::FIELD_NAMES[f.field as usize])
            .collect();
        assert_eq!(names, ["title", "mesh", "abstract"]);
        let gamma = got.term_id("gamma").unwrap();
        let mesh = &got.docs[0].fields[1].counts;
        assert_eq!(mesh.iter().find(|&&(t, _)| t == gamma), Some(&(gamma, 2)));
        assert_eq!(mesh.len(), 2);
    }

    #[test]
    fn term_lookup_by_string() {
        let corpus = tiny_corpus();
        let rt = Runtime::for_testing();
        rt.run(2, |ctx| {
            let (out, _) = scan(ctx, &corpus);
            // Every canonical id maps back to its term.
            for (i, t) in out.terms.iter().enumerate().step_by(50) {
                assert_eq!(out.term_id(t), Some(i as TermId));
            }
            assert_eq!(out.term_id("zz-not-a-term-zz"), None);
        });
    }

    #[test]
    fn terms_sorted_and_distinct() {
        let corpus = tiny_corpus();
        let rt = Runtime::for_testing();
        rt.run(2, |ctx| {
            let (out, _) = scan(ctx, &corpus);
            let terms: Vec<&str> = out.terms.iter().collect();
            for w in terms.windows(2) {
                assert!(w[0] < w[1], "terms must be strictly sorted");
            }
        });
    }

    #[test]
    fn stopwords_absent_from_vocabulary() {
        let corpus = tiny_corpus();
        let rt = Runtime::for_testing();
        rt.run(2, |ctx| {
            let (out, _) = scan(ctx, &corpus);
            assert_eq!(out.term_id("the"), None);
            assert_eq!(out.term_id("html"), None);
        });
    }

    #[test]
    fn tokens_counted() {
        let corpus = tiny_corpus();
        let rt = Runtime::for_testing();
        let res = rt.run(2, |ctx| {
            let (out, _) = scan(ctx, &corpus);
            let local_sum: u64 = out.docs.iter().map(|d| d.tokens as u64).sum();
            assert_eq!(local_sum, out.tokens_scanned);
            out.tokens_scanned
        });
        assert!(res.results.iter().sum::<u64>() > 1000);
    }
}
