//! Context-free serving state over an engine snapshot.
//!
//! The engine's query path works against rank-resident state
//! (`ScanOutput` + `InvertedIndex`) through an SPMD context, which is
//! `!Send` by design: it pins one rank's virtual clock and communication
//! accounting to one thread. A long-lived server needs the opposite — an
//! immutable, `Send + Sync` view of the same data that any worker thread
//! can read concurrently with no coordination. [`ServeState`] is that
//! view: one [`Merged`] — the validated base snapshot plus any ingest
//! segments, merged on read (see [`inspire_ingest::merged`] for the
//! rules) — and the layout and similarity-search state of the base. A
//! plain snapshot is simply a base with no segments and no tombstones.
//!
//! Queries run through the exact same algorithms as the CLI path via
//! [`inspire_core::query::SearchIndex`].

use inspire_core::ann::{self, SearchStats};
use inspire_core::index::Posting;
use inspire_core::query::{Hit, SearchIndex, TopK};
use inspire_core::signature::record_signature;
use inspire_core::snapshot::schema::{ASSIGN, ASSOC, CENTROID, COORDND, CSIZE, MAJOR, QSIG, SIGS};
use inspire_core::snapshot::EngineMeta;
use inspire_core::tokenize::Tokenizer;
use inspire_core::{DocId, EngineSnapshot, Stage, TermId};
use inspire_ingest::{Manifest, Merged};
use intern::TermTable;
use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};
use std::io;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::Arc;

thread_local! {
    /// Per-thread postings-decode accumulator for request tracing:
    /// `None` when no request is being timed (the common case — one
    /// `Cell` read per postings call), `Some(ns)` between
    /// [`decode_timer_begin`] and [`decode_timer_take`].
    static DECODE_NS: Cell<Option<u64>> = const { Cell::new(None) };
}

/// Arm the per-thread postings-decode timer for the current request.
/// Every [`SearchIndex::postings_in`] call on this thread (the one
/// read the trait's other posting methods go through) accumulates its
/// wall time until
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
/// the centroid norms the probe order needs, the major-term rows that
/// embed free text into signature space, and the signatures of
/// live-segment documents, which are not in the IVF lists.
struct AnnState {
    /// Precomputed [`ann::code_sums`] over the `qsig` section, list
    /// order.
    sums: Vec<u32>,
    /// [`ann::row_norms`] of the snapshot's centroids.
    centroid_norms: Vec<f64>,
    /// Major-term string → association-matrix row index. Keyed by
    /// string (not term id) so free-text embedding needs no vocabulary
    /// lookup.
    rows: HashMap<String, usize>,
    /// `m`-wide signatures of the live-segment documents, which follow
    /// the base's in doc order: the signature stage's own
    /// [`record_signature`], fed from segment postings because segments
    /// carry no signature sections. Brute-forced at query time until a
    /// rebuild folds them into the IVF lists.
    live_sigs: Vec<f64>,
    /// [`ann::l2_norm`] of each `live_sigs` row, as `signrm` holds the
    /// base documents'.
    live_norms: Vec<f64>,
}

/// Immutable, shareable query-serving state: one base engine snapshot
/// plus any ingest segments, merged on read, and — for `Final`-stage
/// bases — the projected coordinates, cluster assignments, labels,
/// sizes, and similarity-search state.
pub struct ServeState {
    /// The base snapshot (component 0) and the ingest segments.
    merged: Merged,
    /// Base snapshot metadata (stage, fingerprints, corpus shape).
    pub meta: EngineMeta,
    /// Sorted union of the component vocabularies.
    pub terms: Arc<TermTable>,
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
    /// serving ([`load_live_state`]); lets `/metrics` read the ingest
    /// metrics sidecar.
    pub ingest_dir: Option<PathBuf>,
}

impl ServeState {
    /// Open `path`, verify it (every checksum, via [`EngineSnapshot`]),
    /// and build the serving state. The snapshot may have been written
    /// at any processor count; queries read only partition-independent
    /// state. A snapshot that predates the Index stage is refused: it
    /// holds no postings to serve.
    pub fn load(path: &Path) -> io::Result<ServeState> {
        Self::from_snapshot(EngineSnapshot::open(path)?)
    }

    /// Build serving state over an already opened snapshot. Cheap: the
    /// vocabulary and the per-term tables are materialized (all small);
    /// posting lists are not touched until queried.
    pub fn from_snapshot(snap: EngineSnapshot) -> io::Result<ServeState> {
        Self::over(Merged::snapshot(snap)?)
    }

    /// Build serving state over a merged view with a base snapshot.
    fn over(merged: Merged) -> io::Result<ServeState> {
        let snap = merged.base().expect("a serving view has a base");
        let meta = snap.meta().clone();
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
        let ann = snap.has_ann().then(|| build_ann(&merged));
        Ok(ServeState {
            meta,
            terms: Arc::clone(merged.terms()),
            coords,
            assignments,
            cluster_labels,
            cluster_sizes,
            merged,
            ann,
            generation: 0,
            last_seal_unix: 0,
            ingest_dir: None,
        })
    }

    /// Number of ingest segments merged into this view (0 for plain
    /// snapshot serving).
    pub fn segments_open(&self) -> usize {
        self.merged.segments().len()
    }

    /// Borrow the underlying validated snapshot (postings directory,
    /// section sizes — what benches and diagnostics need).
    pub fn snapshot(&self) -> &EngineSnapshot {
        self.merged.base().expect("a serving view has a base")
    }

    /// Does this snapshot carry the IVF + quantized-signature sections
    /// (`/similar` queries)?
    pub fn has_ann(&self) -> bool {
        self.ann.is_some()
    }

    /// Is `doc` tombstoned?
    pub fn is_deleted(&self, doc: u32) -> bool {
        self.merged.tombstones().binary_search(&doc).is_ok()
    }

    /// Exact signature of a document: base documents read their `sigs`
    /// row, live-segment documents their derived row. `None` for
    /// unknown doc ids or when the snapshot has no ANN sections.
    pub fn doc_signature(&self, doc: u32) -> Option<&[f64]> {
        let ann = self.ann.as_ref()?;
        let (m, d) = (self.meta.m_dims, doc as usize);
        match d.checked_sub(self.meta.total_docs as usize) {
            None => Some(&self.snapshot().get::<f64>(&SIGS)[d * m..(d + 1) * m]),
            Some(i) => ann.live_sigs.get(i * m..(i + 1) * m),
        }
    }

    /// Embed free text into signature space: tokenize, map tokens onto
    /// major-term association rows, and combine them with the engine's
    /// own [`record_signature`]. Rows add in ascending row order so the
    /// float sum is deterministic. `None` when the snapshot has no ANN
    /// sections.
    pub fn embed_text(&self, text: &str) -> Option<Vec<f64>> {
        let ann = self.ann.as_ref()?;
        let mut freqs: BTreeMap<usize, u32> = BTreeMap::new();
        Tokenizer::default().tokenize_into(text, |t| {
            if let Some(&r) = ann.rows.get(t) {
                *freqs.entry(r).or_insert(0) += 1;
            }
        });
        let (m, assoc) = (self.meta.m_dims, self.snapshot().get::<f64>(&ASSOC));
        let mut sig = vec![0.0; m];
        record_signature(
            freqs
                .into_iter()
                .map(|(r, f)| (&assoc[r * m..(r + 1) * m], f)),
            &mut sig,
        );
        Some(sig)
    }

    /// IVF similarity search over the base snapshot and an exact scan of
    /// the live-segment signatures, into one top-`top` that tombstoned
    /// documents never enter. Returns the hits (exact `f64` cosine, in
    /// [`Hit::rank_cmp`] order) plus the probe/candidate counters, which
    /// count tombstoned documents too and every live document as a
    /// candidate; `reranked` counts each live document scored exactly.
    /// A null query is similar to nothing and counts nothing.
    /// Empty when the snapshot has no ANN sections.
    pub fn similar(&self, query: &[f64], top: usize, nprobe: usize) -> (Vec<Hit>, SearchStats) {
        let mut stats = SearchStats::default();
        let qnorm = ann::l2_norm(query);
        let Some(ann) = self.ann.as_ref().filter(|_| qnorm != 0.0) else {
            return (Vec::new(), stats);
        };
        let tombs = self.merged.tombstones();
        let mut best = TopK::new(top);
        let view = self.snapshot().ann_view(&ann.sums, &ann.centroid_norms);
        ann::search(&view, query, nprobe, tombs, &mut best, &mut stats);
        let live = ann.live_sigs.chunks_exact(self.meta.m_dims);
        stats.candidates += live.len();
        for ((doc, row), &norm) in (self.meta.total_docs..).zip(live).zip(&ann.live_norms) {
            if tombs.binary_search(&doc).is_err() {
                stats.reranked += 1;
                let score = ann::cosine(query, qnorm, row, norm);
                best.offer(Hit { doc, score });
            }
        }
        (best.into_sorted(), stats)
    }
}

/// Build a serving state over an ingest directory: the manifest's base
/// snapshot — required, with an inverted index — plus every segment it
/// lists, checked against the manifest and merged at read time.
pub fn load_live_state(dir: &Path) -> io::Result<ServeState> {
    let manifest = Manifest::require(dir)?;
    let mut state = ServeState::over(Merged::live(dir, &manifest)?)?;
    state.generation = manifest.generation;
    state.last_seal_unix = manifest.last_seal_unix;
    state.ingest_dir = Some(dir.to_path_buf());
    Ok(state)
}

/// Derive the ANN state from the base's IVF sections, with the live
/// documents' signatures: each major term's live postings, walked in
/// term order (the merged vocabulary's, which is the signature stage's),
/// have their per-(doc, field) freqs summed to the doc-total frequency
/// and pushed onto that document's `(row, freq)` list, which
/// [`record_signature`] then combines.
fn build_ann(merged: &Merged) -> AnnState {
    let snap = merged.base().expect("a serving view has a base");
    let (m, base_docs) = (snap.meta().m_dims, snap.meta().total_docs);
    let assoc = snap.get::<f64>(&ASSOC);
    // Major-term rows are keyed by base-local term ids on disk.
    let mut row_of = vec![None; snap.meta().vocab_size];
    for (row, &t) in snap.get::<u32>(&MAJOR).iter().enumerate() {
        row_of[t as usize] = Some(row);
    }
    let terms = merged.terms();
    let majors: Vec<(TermId, usize)> = (0..terms.len() as TermId)
        .filter_map(|t| Some((t, row_of[merged.local_id(0, t)? as usize]?)))
        .collect();
    let mut pairs: Vec<Vec<(usize, u32)>> =
        vec![Vec::new(); (merged.total_docs() - base_docs) as usize];
    let mut posts: Vec<Posting> = Vec::new();
    for &(term, row) in &majors {
        posts.clear();
        merged.postings_in(term, base_docs..DocId::MAX, &mut posts);
        for run in posts.chunk_by(|a, b| a.doc == b.doc) {
            let freq = run.iter().map(|p| p.freq).sum();
            pairs[(run[0].doc - base_docs) as usize].push((row, freq));
        }
    }
    let mut live_sigs = vec![0.0; pairs.len() * m];
    for (sig, doc) in live_sigs.chunks_exact_mut(m).zip(&pairs) {
        let rows = doc.iter().map(|&(r, f)| (&assoc[r * m..(r + 1) * m], f));
        record_signature(rows, sig);
    }
    AnnState {
        sums: ann::code_sums(snap.get::<u8>(&QSIG), m),
        centroid_norms: ann::row_norms(snap.get::<f64>(&CENTROID), m),
        rows: (majors.iter())
            .map(|&(t, row)| (terms.get(t as usize).to_string(), row))
            .collect(),
        live_norms: ann::row_norms(&live_sigs, m),
        live_sigs,
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

    /// The merged read (see [`Merged::postings_in`]), charged to the
    /// request's decode timer.
    fn postings_in(&self, term: TermId, docs: Range<DocId>, out: &mut Vec<Posting>) {
        decode_timed(|| self.merged.postings_in(term, docs, out))
    }

    fn df(&self, term: TermId) -> u32 {
        self.merged.df(term)
    }

    fn total_docs(&self) -> u32 {
        self.merged.total_docs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use corpus::{CorpusSpec, SourceSet};
    use inspire_core::pipeline::run_engine;
    use inspire_core::EngineConfig;
    use inspire_ingest::IngestDir;
    use perfmodel::CostModel;

    /// Every live document `similar` scores exactly counts as re-ranked,
    /// as every live document counts as a candidate; a tombstoned one is
    /// a candidate, not scored. The IVF part is the base's own search.
    #[test]
    fn live_documents_scored_exactly_count_as_reranked() {
        let dir = std::env::temp_dir().join(format!("va-serve-rerank-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let set = CorpusSpec {
            source_bytes: 8 * 1024,
            ..CorpusSpec::pubmed(128 * 1024, 29)
        }
        .generate();
        let (base_sources, batches) = set.sources.split_at(set.sources.len() - 3);
        let base = dir.join("base.isnap");
        let cfg = EngineConfig {
            snapshot_out: Some(base.clone()),
            ..EngineConfig::for_testing()
        };
        let base_set = SourceSet {
            sources: base_sources.to_vec(),
        };
        run_engine(1, Arc::new(CostModel::zero()), &base_set, &cfg);
        let live = dir.join("live");
        let mut ing = IngestDir::create(&live, Some(&base)).unwrap();
        for src in batches {
            ing.append(src.clone()).unwrap();
        }
        let base_docs = ing.manifest().base_docs;
        let live_docs = (ing.total_docs() - base_docs) as usize;
        ing.delete(vec![base_docs]).unwrap();

        let state = load_live_state(&live).unwrap();
        let plain = ServeState::load(&base).unwrap();
        let query = (0..base_docs)
            .filter_map(|d| state.doc_signature(d))
            .find(|s| s.iter().any(|&x| x != 0.0))
            .expect("a non-null base signature")
            .to_vec();
        for nprobe in [1, 4] {
            let (_, ivf) = plain.similar(&query, 10, nprobe);
            let (hits, stats) = state.similar(&query, 10, nprobe);
            assert!(!hits.is_empty());
            assert_eq!(stats.probed, ivf.probed);
            assert_eq!(stats.candidates, ivf.candidates + live_docs);
            assert_eq!(stats.reranked, ivf.reranked + live_docs - 1);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
