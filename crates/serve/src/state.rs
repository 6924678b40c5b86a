//! Context-free serving state over an engine snapshot.
//!
//! The engine's query path works against rank-resident state
//! (`ScanOutput` + `InvertedIndex`) through an SPMD context, which is
//! `!Send` by design: it pins one rank's virtual clock and communication
//! accounting to one thread. A long-lived server needs the opposite — an
//! immutable, `Send + Sync` view of the same data that any worker thread
//! can read concurrently with no coordination. [`ServeState`] is that
//! view: it **owns** N ≥ 1 index components — component 0 is the
//! validated base snapshot, the rest are ingest segments — and merges
//! them on read. A plain snapshot is simply N = 1 with no tombstones.
//!
//! Components cover disjoint, ascending document ranges — base
//! `[0, base_docs)`, then each segment `[doc_base, doc_base + doc_count)`
//! in manifest order — so a merged posting list is the plain
//! concatenation of component lists, already doc-sorted. That makes
//! every merged answer bit-identical to a from-scratch rebuild of the
//! same logical corpus: same postings in the same order, same df sums,
//! same total_docs, and therefore the same scores and bytes.
//!
//! Postings stay in their block-compressed on-disk form; each query
//! decodes only the blocks it touches (with skip-pointer seeks for
//! lower-bounded reads, which also skip whole components below the
//! bound), so load time is directory parsing plus the small per-term
//! stats — not a full postings materialization. Queries run through the
//! exact same algorithms as the CLI path via
//! [`inspire_core::query::SearchIndex`].
//!
//! Deletes are tombstones: postings of tombstoned documents are
//! filtered out of every merged list, while df/tf stats and total_docs
//! intentionally keep counting them (LSM semantics — stats converge
//! when a future full rebuild folds the base). Compaction preserves
//! exactly these semantics, so a generation flip never changes bytes.

use inspire_core::ann::{self, SearchStats};
use inspire_core::index::Posting;
use inspire_core::postings::{union_vocabularies, PostingsReader};
use inspire_core::query::{Hit, SearchIndex};
use inspire_core::snapshot::schema::{ASSIGN, ASSOC, COORDND, CSIZE, MAJOR, QSIG, SIGS};
use inspire_core::snapshot::EngineMeta;
use inspire_core::{EngineSnapshot, Stage, TermId};
use inspire_ingest::Segment;
use inspire_store::Snapshot;
use intern::TermTable;
use std::cell::Cell;
use std::collections::HashMap;
use std::io;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// "This component does not contain the merged term."
const ABSENT: u32 = u32::MAX;

thread_local! {
    /// Per-thread postings-decode accumulator for request tracing:
    /// `None` when no request is being timed (the common case — one
    /// `Cell` read per postings call), `Some(ns)` between
    /// [`decode_timer_begin`] and [`decode_timer_take`].
    static DECODE_NS: Cell<Option<u64>> = const { Cell::new(None) };
}

/// Arm the per-thread postings-decode timer for the current request.
/// Every [`SearchIndex::postings_into`]/[`SearchIndex::postings_from`]
/// call on this thread accumulates its wall time until
/// [`decode_timer_take`] disarms it.
pub fn decode_timer_begin() {
    DECODE_NS.with(|c| c.set(Some(0)));
}

/// Disarm the decode timer and return the accumulated nanoseconds
/// (0 when it was never armed).
pub fn decode_timer_take() -> u64 {
    DECODE_NS.with(|c| c.take()).unwrap_or(0)
}

/// Run `f`, charging its wall time to the armed decode timer (or just
/// running it when the timer is off).
fn decode_timed<R>(f: impl FnOnce() -> R) -> R {
    DECODE_NS.with(|c| match c.get() {
        None => f(),
        Some(acc) => {
            let t0 = std::time::Instant::now();
            let out = f();
            let spent = t0.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            c.set(Some(acc.saturating_add(spent)));
            out
        }
    })
}

/// ANN serving state derived from the snapshot's IVF sections at load:
/// the per-list-position code sums the affine kernel expansion needs,
/// the major-term rows that embed free text into signature space, and
/// reconstructed signatures for segment documents, which are not in the
/// IVF lists.
struct AnnState {
    /// Precomputed [`ann::code_sums`] over the `qsig` section, list
    /// order.
    sums: Vec<u32>,
    /// Major-term string → association-matrix row index. Keyed by
    /// string (not term id) so free-text embedding survives the merged
    /// vocabulary, whose ids differ from the base's.
    rows: HashMap<String, usize>,
    /// Global doc ids of live-segment documents, ascending (segments
    /// cover disjoint ascending ranges above the base).
    seg_docs: Vec<u32>,
    /// Reconstructed `seg_docs.len() × m` signatures for those
    /// documents: per-term frequency-weighted association rows,
    /// L1-normalized — the same semantics as the engine's signature
    /// stage, rebuilt from segment postings because segments carry no
    /// signature sections. Brute-forced at query time until compaction
    /// folds them into the IVF lists.
    seg_sigs: Vec<f64>,
}

/// Immutable, shareable query-serving state: one base engine snapshot
/// plus any ingest segments, merged on read.
///
/// Holds the merged vocabulary, a per-component term map, summed
/// per-term document frequencies, the union of tombstones, and — for
/// `Final`-stage bases — the projected coordinates, cluster assignments,
/// labels, and sizes.
pub struct ServeState {
    /// Component 0: the validated base snapshot; posting bytes are read
    /// from its sections on demand.
    snap: EngineSnapshot,
    /// Components 1..: ingest segments in manifest (= doc) order.
    segments: Vec<Segment>,
    /// Base snapshot metadata (stage, fingerprints, corpus shape).
    pub meta: EngineMeta,
    /// Sorted union of the component vocabularies.
    pub terms: Arc<TermTable>,
    /// Per component, per merged term id: the component-local term id or
    /// [`ABSENT`]. Empty when the base predates the Index stage.
    maps: Vec<Vec<u32>>,
    /// Merged document frequency: the sum over components.
    df: Vec<u32>,
    /// Documents across all components (tombstoned ones still counted).
    total_docs: u32,
    /// Sorted union of segment tombstones (global doc ids).
    tombstones: Vec<u32>,
    /// 2-D document coordinates (Final stage only).
    pub coords: Option<Vec<(f64, f64)>>,
    /// Cluster assignment per document (Final stage only).
    pub assignments: Option<Vec<u32>>,
    /// Topic labels per cluster (Final stage only).
    pub cluster_labels: Vec<Vec<String>>,
    /// Documents per cluster (Final stage only).
    pub cluster_sizes: Vec<u64>,
    /// IVF similarity-search state; `None` before the Final stage and
    /// for degenerate corpora (similarity requests then get a 409).
    ann: Option<AnnState>,
    /// Ingest-manifest generation this state was built from (0 for
    /// plain snapshots).
    pub generation: u64,
    /// `last_seal_unix` of the manifest (0 for plain snapshots).
    pub last_seal_unix: u64,
    /// The ingest directory this state was built from, when live
    /// serving ([`crate::live::load_live_state`]); lets `/metrics`
    /// compute WAL backlog gauges and read the ingest metrics sidecar.
    pub ingest_dir: Option<PathBuf>,
}

impl ServeState {
    /// Open `path`, verify it (every checksum, via [`EngineSnapshot`]),
    /// and build the serving state. The snapshot may have been written
    /// at any processor count; queries read only partition-independent
    /// state.
    pub fn load(path: &Path) -> io::Result<ServeState> {
        Self::from_snapshot(EngineSnapshot::open(path)?)
    }

    /// Build serving state over an already opened snapshot. Cheap: the
    /// vocabulary and the per-term tables are materialized (all small);
    /// posting lists are not touched until queried.
    pub fn from_snapshot(snap: EngineSnapshot) -> io::Result<ServeState> {
        Self::over(snap, Vec::new())
    }

    /// Build serving state over a base snapshot and the ingest segments
    /// stacked on it (ascending, disjoint doc ranges above the base).
    pub(crate) fn over(snap: EngineSnapshot, segments: Vec<Segment>) -> io::Result<ServeState> {
        let meta = snap.meta().clone();
        let base_terms = snap.terms()?;
        let mut maps: Vec<Vec<u32>> = Vec::new();
        let mut df: Vec<u32> = Vec::new();
        // Major-term rows are keyed by base-local term ids on disk.
        let ann_rows: Option<HashMap<String, usize>> = snap.has_ann().then(|| {
            let major = snap.get::<u32>(&MAJOR).iter().enumerate();
            let row_of = |(i, &t): (usize, &u32)| (base_terms.get(t as usize).to_string(), i);
            major.map(row_of).collect()
        });
        let terms = if let Some(base) = snap.index() {
            let mut vocabs = vec![&base_terms];
            vocabs.extend(segments.iter().map(|s| s.terms()));
            let readers: Vec<&PostingsReader> = std::iter::once(base)
                .chain(segments.iter().map(|s| s.index().0))
                .collect();
            maps = vec![Vec::new(); readers.len()];
            let mut vocab: Vec<&str> = Vec::new();
            union_vocabularies(&vocabs, |term, members| {
                vocab.push(term);
                for m in maps.iter_mut() {
                    m.push(ABSENT);
                }
                let mut d = 0u32;
                for &(c, local) in members {
                    *maps[c].last_mut().expect("pushed above") = local;
                    d += readers[c].df()[local as usize];
                }
                df.push(d);
            });
            TermTable::from_sorted(vocab.iter().copied())
        } else {
            base_terms
        };
        let terms = Arc::new(terms);
        let (coords, assignments, cluster_labels, cluster_sizes) = if meta.stage == Stage::Final {
            let dims = meta.projection_dims;
            let coordnd = snap.get::<f64>(&COORDND);
            let coords: Vec<(f64, f64)> = coordnd.chunks(dims).map(|r| (r[0], r[1])).collect();
            (
                Some(coords),
                Some(snap.get::<u32>(&ASSIGN).to_vec()),
                snap.labels()?,
                snap.get::<u64>(&CSIZE).to_vec(),
            )
        } else {
            (None, None, Vec::new(), Vec::new())
        };
        let mut tombstones: Vec<u32> = segments
            .iter()
            .flat_map(|s| s.tombstones().iter().copied())
            .collect();
        tombstones.sort_unstable();
        tombstones.dedup();
        let total_docs = meta.total_docs + segments.iter().map(|s| s.doc_count()).sum::<u32>();
        let mut state = ServeState {
            meta,
            terms,
            maps,
            df,
            total_docs,
            tombstones,
            coords,
            assignments,
            cluster_labels,
            cluster_sizes,
            snap,
            segments,
            ann: None,
            generation: 0,
            last_seal_unix: 0,
            ingest_dir: None,
        };
        state.ann = ann_rows.map(|rows| state.build_ann(rows));
        Ok(state)
    }

    /// Does this snapshot hold an inverted index (term/boolean/search)?
    pub fn has_index(&self) -> bool {
        self.snap.index().is_some()
    }

    /// Number of ingest segments merged into this view (0 for plain
    /// snapshot serving).
    pub fn segments_open(&self) -> usize {
        self.segments.len()
    }

    /// Borrow the underlying validated snapshot (postings directory,
    /// section sizes — what benches and diagnostics need).
    pub fn snapshot(&self) -> &EngineSnapshot {
        &self.snap
    }

    /// Does this snapshot carry the IVF + quantized-signature sections
    /// (`/similar` queries)?
    pub fn has_ann(&self) -> bool {
        self.ann.is_some()
    }

    /// Is `doc` tombstoned?
    pub fn is_deleted(&self, doc: u32) -> bool {
        self.tombstones.binary_search(&doc).is_ok()
    }

    /// Exact signature of a document: base documents read their `sigs`
    /// row, live-segment documents their reconstructed row. `None` for
    /// unknown doc ids or when the snapshot has no ANN sections.
    pub fn doc_signature(&self, doc: u32) -> Option<&[f64]> {
        let ann = self.ann.as_ref()?;
        let m = self.meta.m_dims;
        if (doc as usize) < self.meta.total_docs as usize {
            return Some(&self.snap.get::<f64>(&SIGS)[doc as usize * m..(doc as usize + 1) * m]);
        }
        let i = ann.seg_docs.binary_search(&doc).ok()?;
        Some(&ann.seg_sigs[i * m..(i + 1) * m])
    }

    /// Embed free text into signature space: tokenize, map tokens onto
    /// major-term association rows, and combine them exactly like the
    /// engine's signature stage ([`ann::embed_rows`]). Rows accumulate
    /// in ascending row order so the float sum is deterministic. `None`
    /// when the snapshot has no ANN sections.
    pub fn embed_text(&self, text: &str) -> Option<Vec<f64>> {
        let ann = self.ann.as_ref()?;
        let tokenizer = inspire_core::tokenize::Tokenizer::default();
        let mut freqs: HashMap<usize, f64> = HashMap::new();
        tokenizer.tokenize_into(text, |t| {
            if let Some(&r) = ann.rows.get(t) {
                *freqs.entry(r).or_insert(0.0) += 1.0;
            }
        });
        let mut pairs: Vec<(usize, f64)> = freqs.into_iter().collect();
        pairs.sort_unstable_by_key(|&(r, _)| r);
        Some(ann::embed_rows(
            pairs.into_iter(),
            self.snap.get::<f64>(&ASSOC),
            self.meta.m_dims,
        ))
    }

    /// IVF similarity search over the base snapshot, merged with a
    /// brute-force scan of any segment signatures and filtered for
    /// tombstones. Returns the top hits (exact `f64` cosine, score
    /// descending then doc ascending) plus the probe/candidate
    /// counters. Empty when the snapshot has no ANN sections.
    pub fn similar(&self, query: &[f64], top: usize, nprobe: usize) -> (Vec<Hit>, SearchStats) {
        let mut stats = SearchStats::default();
        let Some(ann) = &self.ann else {
            return (Vec::new(), stats);
        };
        let tombs = &self.tombstones;
        // Over-fetch by the tombstone count: deletions can knock at most
        // that many hits out of any top list.
        let fetch = top + tombs.len();
        let view = self.snap.ann_view(&ann.sums);
        let mut hits = ann::search(&view, query, fetch, nprobe, &mut stats);
        if !ann.seg_docs.is_empty() {
            let m = self.meta.m_dims;
            stats.candidates += ann.seg_docs.len();
            let seg_hits = ann::exhaustive(&ann.seg_sigs, m, query, fetch);
            hits.extend(seg_hits.into_iter().map(|h| Hit {
                doc: ann.seg_docs[h.doc as usize],
                score: h.score,
            }));
        }
        if !tombs.is_empty() {
            hits.retain(|h| tombs.binary_search(&h.doc).is_err());
        }
        hits.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap()
                .then(a.doc.cmp(&b.doc))
        });
        hits.truncate(top);
        (hits, stats)
    }

    /// Derive the ANN state from the base's IVF sections, and
    /// reconstruct signatures for segment documents so `/similar` can
    /// brute-force them (segments carry postings but no signature
    /// sections).
    fn build_ann(&self, rows: HashMap<String, usize>) -> AnnState {
        let m = self.meta.m_dims;
        let assoc = self.snap.get::<f64>(&ASSOC);
        let mut seg_docs: Vec<u32> = Vec::new();
        let mut seg_sigs: Vec<f64> = Vec::new();
        let mut posts: Vec<Posting> = Vec::new();
        for seg in &self.segments {
            let base = seg.doc_base();
            let count = seg.doc_count() as usize;
            let off = seg_sigs.len();
            seg_docs.extend(base..seg.doc_end());
            seg_sigs.resize(off + count * m, 0.0);
            for (local, term) in seg.terms().iter().enumerate() {
                let Some(&row) = rows.get(term) else {
                    continue;
                };
                let arow = &assoc[row * m..(row + 1) * m];
                posts.clear();
                seg.postings_into(local as u32, &mut posts);
                // Summing per-(doc, field) postings weights each term by
                // its doc-total frequency — the signature-stage rule.
                for p in &posts {
                    let d = (p.doc - base) as usize;
                    let sig = &mut seg_sigs[off + d * m..off + (d + 1) * m];
                    let w = p.freq as f64;
                    for (s, &a) in sig.iter_mut().zip(arow) {
                        *s += w * a;
                    }
                }
            }
            for d in 0..count {
                let sig = &mut seg_sigs[off + d * m..off + (d + 1) * m];
                let l1: f64 = sig.iter().map(|x| x.abs()).sum();
                if l1 > 0.0 {
                    for s in sig.iter_mut() {
                        *s /= l1;
                    }
                }
            }
        }
        AnnState {
            sums: ann::code_sums(self.snap.get::<u8>(&QSIG), m),
            rows,
            seg_docs,
            seg_sigs,
        }
    }

    /// Component `c`'s index reader, the container its posting bytes
    /// live in, and the document range it covers.
    fn component(&self, c: usize) -> (&PostingsReader, &Snapshot, Range<u32>) {
        match c.checked_sub(1) {
            None => (
                self.snap.index().expect("maps are empty without an index"),
                self.snap.store(),
                0..self.meta.total_docs,
            ),
            Some(s) => {
                let seg = &self.segments[s];
                let (reader, store) = seg.index();
                (reader, store, seg.doc_base()..seg.doc_end())
            }
        }
    }

    /// Drop tombstoned postings from `out[from..]`, preserving order.
    /// Both lists ascend by doc, so one pass walks them together —
    /// compaction keeps every tombstone, and a lookup per posting would
    /// grow with all deletes ever made.
    fn filter_tombstones(&self, out: &mut Vec<Posting>, from: usize) {
        if self.tombstones.is_empty() {
            return;
        }
        let mut tombs = self.tombstones.iter().peekable();
        let mut w = from;
        for r in from..out.len() {
            let doc = out[r].doc;
            while tombs.next_if(|&&t| t < doc).is_some() {}
            if tombs.peek() != Some(&&doc) {
                out[w] = out[r];
                w += 1;
            }
        }
        out.truncate(w);
    }
}

impl SearchIndex for ServeState {
    fn term_id(&self, term: &str) -> Option<TermId> {
        self.terms.position(term).map(|i| i as TermId)
    }

    fn postings_of(&self, term: TermId) -> Vec<Posting> {
        let mut out = Vec::new();
        self.postings_into(term, &mut out);
        out
    }

    /// Merged full posting list: each component's list in component
    /// order. Component ranges are disjoint and ascending, so the
    /// concatenation is the doc-sorted list a rebuild would store.
    fn postings_into(&self, term: TermId, out: &mut Vec<Posting>) {
        self.postings_from(term, 0, out)
    }

    /// Merged lower-bounded read: components entirely below `min_doc`
    /// are skipped without touching their bytes; the one the bound
    /// lands in seeks through its skip pointers.
    fn postings_from(&self, term: TermId, min_doc: u32, out: &mut Vec<Posting>) {
        decode_timed(|| {
            let from = out.len();
            for (c, map) in self.maps.iter().enumerate() {
                let local = map[term as usize];
                if local == ABSENT {
                    continue;
                }
                let (reader, store, docs) = self.component(c);
                if min_doc >= docs.end {
                    continue;
                }
                if min_doc <= docs.start {
                    reader.postings_into(store, local, out)
                } else {
                    reader.postings_from(store, local, min_doc, out)
                }
                .expect("CRC-verified postings decode");
            }
            self.filter_tombstones(out, from);
        })
    }

    fn df(&self, term: TermId) -> u32 {
        self.df.get(term as usize).copied().unwrap_or(0)
    }

    fn total_docs(&self) -> u32 {
        self.total_docs
    }
}
