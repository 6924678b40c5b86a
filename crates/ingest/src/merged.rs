//! Merge-on-read: a base snapshot and the segments stacked on it, read
//! as one index — by the serving tier, and by the compactor, which
//! writes one out as a single segment.
//!
//! Components cover disjoint, ascending document ranges (base
//! `[0, base_docs)`, then each segment's `[doc_base, doc_end)` in
//! manifest order), so a merged posting list is the plain concatenation
//! of component lists, already doc-sorted: the list, df sums and
//! total_docs a from-scratch rebuild of the same corpus would hold, and
//! therefore the same scores and bytes. Postings stay block-compressed
//! and are read one way, [`Merged::postings_in`], over a document range:
//! it skips the components outside the range and decodes, in the others,
//! only the blocks the range touches. Every component holds an inverted
//! index: a base snapshot that predates the Index stage is refused when
//! the view is built, by its stage, and so is an ingest directory's base
//! when the directory is created.
//!
//! Deletes are tombstones: their postings are filtered out of every
//! merged list, while df/tf and total_docs keep counting them (LSM
//! semantics — stats converge when a full rebuild folds the base). A
//! segment holds postings only for its own documents, so filtering by
//! every tombstone drops exactly those of documents deleted inside the
//! merged range — which is what lets compaction preserve served bytes.

use crate::bad;
use crate::manifest::Manifest;
use crate::segment::Segment;
use inspire_core::index::Posting;
use inspire_core::postings::{union_vocabularies, PostingsReader};
use inspire_core::{DocId, EngineSnapshot, TermId};
use inspire_store::Snapshot;
use intern::TermTable;
use std::io;
use std::ops::Range;
use std::path::Path;
use std::sync::Arc;

/// "This component does not contain the merged term."
const ABSENT: u32 = u32::MAX;

/// A base snapshot (optional) plus ingest segments, merged on read.
///
/// Holds the merged vocabulary, a per-component term map and the union
/// of tombstones; per-term stats are summed over components on read.
pub struct Merged {
    /// Component 0, when the view has one: the validated base snapshot,
    /// of the Index stage or later.
    base: Option<EngineSnapshot>,
    /// The remaining components: segments in manifest (= doc) order.
    segments: Vec<Segment>,
    /// Sorted union of the component vocabularies.
    terms: Arc<TermTable>,
    /// Per merged term id, per component: the component-local term id or
    /// [`ABSENT`]. Term-major — term `t`'s entries are
    /// `maps[t * width..][..width]` — so a read touches one run of them.
    maps: Vec<u32>,
    /// Components: the base (when the view has one), then every
    /// segment. Each holds an index.
    width: usize,
    /// Documents across all components (tombstoned ones still counted).
    total_docs: u32,
    /// Sorted union of segment tombstones (global doc ids).
    tombstones: Vec<u32>,
}

impl Merged {
    /// A plain snapshot as a one-component view.
    pub fn snapshot(base: EngineSnapshot) -> io::Result<Merged> {
        Self::over(Some(base), Vec::new())
    }

    /// The live view of an ingest directory: the manifest's base
    /// snapshot — required, holding the number of documents the
    /// manifest records — and every segment it lists.
    pub fn live(dir: &Path, manifest: &Manifest) -> io::Result<Merged> {
        let base_path = (manifest.base.as_ref())
            .ok_or_else(|| bad(dir, "live serving requires a base snapshot".into()))?;
        let base = EngineSnapshot::open(base_path)?;
        if base.meta().total_docs != manifest.base_docs {
            return Err(bad(
                dir,
                format!(
                    "manifest says the base has {} documents, snapshot has {}",
                    manifest.base_docs,
                    base.meta().total_docs
                ),
            ));
        }
        Self::over(Some(base), open_segments(dir, manifest)?)
    }

    /// The manifest's segments alone, without the base: what compaction
    /// folds.
    pub fn segments_of(dir: &Path, manifest: &Manifest) -> io::Result<Merged> {
        Self::over(None, open_segments(dir, manifest)?)
    }

    /// Every component holds an index: a base that predates the Index
    /// stage is refused (see [`require_index`]).
    fn over(base: Option<EngineSnapshot>, segments: Vec<Segment>) -> io::Result<Merged> {
        base.as_ref().map(require_index).transpose()?;
        let base_terms = base.as_ref().map(EngineSnapshot::terms).transpose()?;
        let mut vocabs: Vec<&TermTable> = base_terms.iter().collect();
        vocabs.extend(segments.iter().map(Segment::terms));
        let width = vocabs.len();
        let mut maps = Vec::new();
        let mut vocab: Vec<&str> = Vec::new();
        union_vocabularies(&vocabs, |term, members| {
            vocab.push(term);
            let at = maps.len();
            maps.resize(at + width, ABSENT);
            for &(c, local) in members {
                maps[at + c] = local;
            }
        });
        let terms = Arc::new(TermTable::from_sorted(vocab));
        let mut tombstones: Vec<u32> = segments
            .iter()
            .flat_map(|s| s.tombstones().iter().copied())
            .collect();
        tombstones.sort_unstable();
        tombstones.dedup();
        let base_docs = base.as_ref().map_or(0, |b| b.meta().total_docs);
        let total_docs = base_docs + segments.iter().map(Segment::doc_count).sum::<u32>();
        Ok(Merged {
            base,
            segments,
            terms,
            maps,
            width,
            total_docs,
            tombstones,
        })
    }

    /// The base snapshot, when this view has one.
    pub fn base(&self) -> Option<&EngineSnapshot> {
        self.base.as_ref()
    }

    /// The segments, in manifest (= doc) order.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// The merged vocabulary: term id `t` is its `t`-th term.
    pub fn terms(&self) -> &Arc<TermTable> {
        &self.terms
    }

    /// Component `c`'s local id of merged term `term`, if it holds it.
    /// Component 0 is the base when the view has one.
    pub fn local_id(&self, c: usize, term: TermId) -> Option<u32> {
        let local = *self.locals(term).get(c)?;
        (local != ABSENT).then_some(local)
    }

    /// Sorted union of the segments' tombstones.
    pub fn tombstones(&self) -> &[u32] {
        &self.tombstones
    }

    /// Documents across all components, tombstoned ones included.
    pub fn total_docs(&self) -> u32 {
        self.total_docs
    }

    /// Merged document frequency: the sum over the components holding
    /// `term` (0 for unknown ids).
    pub fn df(&self, term: TermId) -> u32 {
        self.sum(term, |reader, local| reader.df()[local] as u64) as u32
    }

    /// Merged raw term frequency, summed the same way.
    pub fn tf(&self, term: TermId) -> u64 {
        self.sum(term, |reader, local| reader.tf()[local])
    }

    fn sum(&self, term: TermId, stat: impl Fn(&PostingsReader, usize) -> u64) -> u64 {
        (self.locals(term).iter().enumerate())
            .filter(|&(_, &local)| local != ABSENT)
            .map(|(c, &local)| stat(self.component(c).0, local as usize))
            .sum()
    }

    /// Term `term`'s local ids, one per component (none for unknown ids).
    fn locals(&self, term: TermId) -> &[u32] {
        let at = term as usize * self.width;
        self.maps.get(at..at + self.width).unwrap_or(&[])
    }

    /// Merged posting read over `docs`: each component's list in
    /// component order, tombstoned documents dropped — the one read.
    /// Components that lie wholly outside `docs`, above or below it, are
    /// skipped without touching their bytes; each other one decodes
    /// `docs` clamped to its own range, so only a component the range
    /// starts inside seeks through its skip entries.
    pub fn postings_in(&self, term: TermId, docs: Range<DocId>, out: &mut Vec<Posting>) {
        let from = out.len();
        for (c, &local) in self.locals(term).iter().enumerate() {
            if local == ABSENT {
                continue;
            }
            let (reader, store, span) = self.component(c);
            let own = docs.start.max(span.start)..docs.end.min(span.end);
            if own.is_empty() {
                continue;
            }
            reader
                .postings_in(store, local, own, out)
                .expect("CRC-verified postings decode");
        }
        self.filter_tombstones(out, from);
    }

    /// Component `c`'s index reader, the container its posting bytes
    /// live in, and the document range it covers.
    fn component(&self, c: usize) -> (&PostingsReader, &Snapshot, Range<u32>) {
        match (&self.base, c) {
            (Some(base), 0) => (
                base.index()
                    .expect("`over` refuses a base without an index"),
                base.store(),
                0..base.meta().total_docs,
            ),
            (base, c) => {
                let seg = &self.segments[c - usize::from(base.is_some())];
                let (reader, store) = seg.index();
                (reader, store, seg.doc_base()..seg.doc_end())
            }
        }
    }

    /// Drop tombstoned postings from `out[from..]`, preserving order.
    /// Both lists ascend by doc, so one pass walks them together from
    /// the first tombstone that can match — compaction keeps every
    /// tombstone, and a lookup per posting would grow with all deletes
    /// ever made.
    fn filter_tombstones(&self, out: &mut Vec<Posting>, from: usize) {
        let Some(first) = out.get(from) else {
            return;
        };
        let tombs = &self.tombstones[self.tombstones.partition_point(|&t| t < first.doc)..];
        if tombs.is_empty() {
            return;
        }
        let mut tombs = tombs.iter().peekable();
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

/// Refuse a base snapshot that predates the Index stage: it has no
/// postings to merge. The error names the file and its stage. Both an
/// ingest directory's creation and every view over one check this.
pub(crate) fn require_index(base: &EngineSnapshot) -> io::Result<()> {
    if base.index().is_some() {
        return Ok(());
    }
    let (src, stage) = (Path::new(base.store().source()), base.meta().stage);
    let msg = format!("stage {stage:?} snapshot predates the Index stage: no postings");
    Err(bad(src, msg))
}

/// Open every segment `manifest` lists under `dir`, refusing any whose
/// own document range differs from its manifest entry (a file swapped
/// or restored from another generation).
fn open_segments(dir: &Path, manifest: &Manifest) -> io::Result<Vec<Segment>> {
    let mut segments = Vec::with_capacity(manifest.segments.len());
    for r in &manifest.segments {
        let seg = Segment::open(&dir.join(&r.file))?;
        if seg.doc_base() != r.doc_base || seg.doc_count() != r.doc_count {
            return Err(bad(
                dir,
                format!(
                    "segment {} covers docs [{}, {}) but the manifest says [{}, {})",
                    r.file,
                    seg.doc_base(),
                    seg.doc_end(),
                    r.doc_base,
                    r.doc_base + r.doc_count
                ),
            ));
        }
        segments.push(seg);
    }
    Ok(segments)
}
