//! Immutable index segments: one small `inspire-store` container per
//! committed batch.
//!
//! A segment is a self-contained inverted index over a contiguous run
//! of global document ids (`doc_base .. doc_base + doc_count`), encoded
//! with the exact same rules as the full engine snapshot — the
//! [`inspire_core::postings::encode_posting_sections`] codec shared
//! with the batch pipeline, saturated posting freqs, raw-frequency tf
//! sums, and per-distinct-doc df counts. That sharing is what makes
//! merge-on-read answers bit-identical to a from-scratch rebuild: the
//! union of base + segment postings for a term is byte-for-byte the
//! list a rebuild would have encoded.
//!
//! The sealer, [`seal`], indexes the engine's own documents: it takes a
//! commit's [`LocalDoc`](inspire_core::scan::LocalDoc)s and
//! segment-local vocabulary from [`scan_sources`] (the scan's one-rank
//! entry, which shares its tokenize and canonical-remap steps) over all
//! of the commit's sources at once, and counts df/tf with
//! `LocalDoc::distinct_terms`, as the Index stage does. No step of the
//! batch pipeline has a second copy here.
//!
//! Sections ([`inspire_core::snapshot::schema::SEGMENT`]): `smeta` (u64 ×4: segment version,
//! doc_base, doc_count, token total), a segment-local sorted vocabulary,
//! the five index sections over **global** doc ids, and an optional
//! `tomb` (sorted global doc ids this segment deletes).

use crate::bad;
use corpus::Source;
use inspire_core::index::Posting;
use inspire_core::postings::{
    encode_posting_sections, read_terms, write_index_sections, PostingsReader,
};
use inspire_core::scan::scan_sources;
use inspire_core::snapshot::schema::{SEG_TOFF, SMETA, TERMS, TOMB};
use inspire_core::DocId;
use inspire_store::{publish, Snapshot, SnapshotWriter};
use intern::TermTable;
use std::io;
use std::path::Path;

/// Segment format version recorded in `smeta`.
pub const SEG_VERSION: u64 = 1;

/// An in-memory segment about to be written: the sealer and the
/// compactor both produce one of these and hand it to [`write_segment`].
pub struct SegmentBuild {
    pub doc_base: u32,
    pub doc_count: u32,
    pub tokens: u64,
    /// Segment-local sorted vocabulary.
    pub terms: TermTable,
    /// Per local term id, postings with **global** doc ids.
    pub lists: Vec<Vec<Posting>>,
    pub df: Vec<u32>,
    pub tf: Vec<u64>,
    /// Sorted global doc ids deleted by this segment.
    pub tombstones: Vec<u32>,
}

/// Seal one commit as a segment: the records of `sources`, in order, at
/// `doc_base..`, and the sorted, deduplicated `tombstones`.
/// [`scan_sources`] makes the records the engine's documents over a
/// segment-local canonical vocabulary, and each document's postings land
/// at `doc_base + i` in field order. df/tf come from
/// [`LocalDoc::distinct_terms`](inspire_core::scan::LocalDoc::distinct_terms),
/// the invert stage's own counting rule (a document counts once per
/// term, raw frequencies sum). Record tokenization is context-free, so
/// this is what a full rebuild over a corpus ending with these records
/// holds for them.
pub fn seal(sources: &[Source], mut tombstones: Vec<u32>, doc_base: u32) -> SegmentBuild {
    let (terms, docs) = scan_sources(sources);
    let mut lists: Vec<Vec<Posting>> = vec![Vec::new(); terms.len()];
    let mut df = vec![0u32; terms.len()];
    let mut tf = vec![0u64; terms.len()];
    for doc in &docs {
        for f in &doc.fields {
            for &(t, freq) in &f.counts {
                lists[t as usize].push(Posting {
                    doc: doc_base + doc.doc_id,
                    field: f.field,
                    freq,
                });
            }
        }
        for (t, freq) in doc.distinct_terms() {
            df[t as usize] += 1;
            tf[t as usize] += freq as u64;
        }
    }
    tombstones.sort_unstable();
    tombstones.dedup();
    SegmentBuild {
        doc_base,
        doc_count: docs.len() as u32,
        tokens: docs.iter().map(|d| d.tokens as u64).sum(),
        terms,
        lists,
        df,
        tf,
        tombstones,
    }
}

/// Publish `b` as `dir/file` (through [`publish`], so a crash mid-write
/// leaves at most a `.tmp` stray, cleaned on the next open, never a
/// half-written segment under a live name). Returns the file size.
pub fn write_segment(dir: &Path, file: &str, b: &SegmentBuild) -> io::Result<u64> {
    let enc = encode_posting_sections(b.terms.len(), &b.df, &b.tf, |t, posts| {
        posts.extend_from_slice(&b.lists[t]);
    });
    let stats = publish(&dir.join(file), |tmp| {
        let mut w = SnapshotWriter::create(tmp)?;
        let smeta = [SEG_VERSION, b.doc_base as u64, b.doc_count as u64, b.tokens];
        SMETA.put(&mut w, &smeta)?;
        TERMS.put(&mut w, b.terms.arena_bytes())?;
        SEG_TOFF.put(&mut w, b.terms.offsets())?;
        write_index_sections(&mut w, &enc)?;
        if !b.tombstones.is_empty() {
            TOMB.put(&mut w, &b.tombstones)?;
        }
        w.finish()
    })?;
    Ok(stats.total_bytes)
}

/// A loaded, validated segment. Checksums are verified at open (via the
/// store reader); postings stay compressed and are decoded per query.
pub struct Segment {
    snap: Snapshot,
    doc_base: u32,
    doc_count: u32,
    tokens: u64,
    terms: TermTable,
    index: PostingsReader,
    tombstones: Vec<u32>,
}

impl Segment {
    pub fn open(path: &Path) -> io::Result<Segment> {
        let snap = Snapshot::open(path)?;
        let src = Path::new(snap.source());
        let &[version, doc_base, doc_count, tokens] = snap.require(SMETA.name)?.as_u64s()? else {
            return Err(bad(src, "section `smeta` does not have 4 slots".into()));
        };
        if version != SEG_VERSION {
            return Err(bad(src, format!("segment version {version} unsupported")));
        }
        // Global doc ids are u32: a range that leaves them is refused,
        // not truncated into one that seems to fit.
        let range = u32::try_from(doc_base)
            .ok()
            .zip(u32::try_from(doc_count).ok());
        let Some((doc_base, doc_count)) = range.filter(|&(b, c)| b.checked_add(c).is_some()) else {
            let msg =
                format!("section `smeta` records documents {doc_base}+{doc_count}, beyond u32");
            return Err(bad(src, msg));
        };
        let terms = read_terms(&snap)?;
        let index = PostingsReader::open(&snap, terms.len())?;
        let tombstones = match snap.section(TOMB.name) {
            Some(s) => s.as_u32s()?.to_vec(),
            None => Vec::new(),
        };
        if tombstones.windows(2).any(|w| w[0] >= w[1]) {
            return Err(bad(src, "section `tomb` is not sorted/deduplicated".into()));
        }
        Ok(Segment {
            snap,
            doc_base,
            doc_count,
            tokens,
            terms,
            index,
            tombstones,
        })
    }

    pub fn doc_base(&self) -> u32 {
        self.doc_base
    }

    pub fn doc_count(&self) -> u32 {
        self.doc_count
    }

    /// One past the last global doc id this segment adds.
    pub fn doc_end(&self) -> u32 {
        self.doc_base + self.doc_count
    }

    pub fn tokens(&self) -> u64 {
        self.tokens
    }

    pub fn terms(&self) -> &TermTable {
        &self.terms
    }

    /// The index reader and the container its posting bytes live in —
    /// what the serving tier merges with the base snapshot's.
    pub fn index(&self) -> (&PostingsReader, &Snapshot) {
        (&self.index, &self.snap)
    }

    pub fn tombstones(&self) -> &[u32] {
        &self.tombstones
    }

    pub fn total_postings(&self) -> u64 {
        self.index.dir().total_postings()
    }

    /// Append term `local`'s full posting list (global doc ids).
    pub fn postings_into(&self, local: u32, out: &mut Vec<Posting>) {
        self.index
            .postings_in(&self.snap, local, 0..DocId::MAX, out)
            .expect("CRC-validated segment postings decode");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use corpus::FormatKind;

    fn medline(name: &str, text: &str) -> Source {
        Source {
            name: name.into(),
            data: text.as_bytes().to_vec(),
            format: FormatKind::Medline,
        }
    }

    /// The sealer conforms to the schema: a segment holds exactly the
    /// segment table's rows — same order, names and kinds — with `tomb`
    /// only when it deletes something.
    #[test]
    fn sealed_segment_holds_exactly_the_schema_rows() {
        use inspire_core::snapshot::schema::SEGMENT;
        let dir = std::env::temp_dir().join(format!("seg_rows_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let src = medline("b.txt", "PMID- 1\nTI  - alpha beta\n\n");
        let mut b = seal(&[src], vec![], 0);
        for tombstones in [vec![], vec![0]] {
            b.tombstones = tombstones;
            write_segment(&dir, "seg.iseg", &b).unwrap();
            let store = Snapshot::open(&dir.join("seg.iseg")).unwrap();
            let wrote: Vec<_> = store.sections().map(|(n, kind, _)| (n, kind)).collect();
            let rows: Vec<_> = SEGMENT
                .iter()
                .filter(|r| r.name != TOMB.name || !b.tombstones.is_empty())
                .map(|r| (r.name, r.kind))
                .collect();
            assert_eq!(wrote, rows);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// An `smeta` range outside the u32 doc ids is refused by name, not
    /// truncated: `doc_count = 2^32 + 2` once opened as 2 documents.
    #[test]
    fn smeta_ranges_beyond_u32_are_refused() {
        let dir = std::env::temp_dir().join(format!("seg_u32_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let b = seal(&[medline("b.txt", "PMID- 1\nTI  - alpha\n\n")], vec![], 0);
        write_segment(&dir, "seg.iseg", &b).unwrap();
        let good = Snapshot::open(&dir.join("seg.iseg")).unwrap();
        let past = 1u64 << 32;
        let path = dir.join("big.iseg");
        for (base, count) in [(0, past + 2), (past + 5, 1), (u32::MAX as u64, 2)] {
            let mut w = SnapshotWriter::create(&path).unwrap();
            for (name, kind, _) in good.sections() {
                if name == SMETA.name {
                    SMETA.put(&mut w, &[SEG_VERSION, base, count, 0]).unwrap();
                } else {
                    let bytes = good.require(name).unwrap().bytes();
                    w.add_section(name, kind, bytes).unwrap();
                }
            }
            w.finish().unwrap();
            let err = Segment::open(&path).err().expect("opened").to_string();
            assert!(
                err.contains("`smeta`") && err.contains("beyond u32"),
                "{err}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn seal_and_reopen_roundtrip() {
        let dir = std::env::temp_dir().join(format!("seg_rt_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let src = medline(
            "b.txt",
            "PMID- 1\nTI  - alpha beta alpha\nAB  - gamma alpha\n\nPMID- 2\nTI  - beta delta\n\n",
        );
        let b = seal(&[src], vec![], 100);
        assert_eq!(b.doc_count, 2);
        write_segment(&dir, "seg-000001.iseg", &b).unwrap();
        let seg = Segment::open(&dir.join("seg-000001.iseg")).unwrap();
        assert_eq!(seg.doc_base(), 100);
        assert_eq!(seg.doc_end(), 102);
        assert_eq!(seg.terms().len(), b.terms.len());
        let alpha = seg.terms().position("alpha").expect("alpha indexed") as u32;
        let (reader, store) = seg.index();
        assert_eq!(reader.df()[alpha as usize], 1);
        assert_eq!(reader.tf()[alpha as usize], 3);
        let mut posts = Vec::new();
        seg.postings_into(alpha, &mut posts);
        assert!(posts.iter().all(|p| p.doc == 100));
        assert_eq!(posts.iter().map(|p| p.freq).sum::<u32>(), 3);
        let mut tail = Vec::new();
        reader
            .postings_in(store, alpha, 101..DocId::MAX, &mut tail)
            .unwrap();
        assert!(tail.is_empty());

        let t = seal(&[], vec![7, 3, 7], 102);
        write_segment(&dir, "seg-000002.iseg", &t).unwrap();
        let tseg = Segment::open(&dir.join("seg-000002.iseg")).unwrap();
        assert_eq!(tseg.doc_count(), 0);
        assert_eq!(tseg.tombstones(), &[3, 7]);
        std::fs::remove_dir_all(&dir).ok();
    }
}
