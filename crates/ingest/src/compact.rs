//! Background compaction: fold all live segments into one.
//!
//! Compaction is read-only over inputs and atomic at the manifest flip:
//! it writes one merged segment under a fresh (never-reused) sequence
//! number, flips the manifest to `generation + 1` listing only the
//! merged segment, then unlinks the inputs. A crash before the flip
//! leaves the merged file as a stray (removed at the next open); a
//! crash after the flip leaves the inputs as strays. Readers polling
//! the manifest see either the old segment list or the new one.
//!
//! The merged segment is the compacted segments read through
//! [`Merged`] — the serving tier's own merge-on-read, so compaction
//! cannot drift from what readers see: per-term lists concatenate in
//! segment order with tombstoned documents' postings dropped, df/tf add,
//! and every tombstone — including those aimed below the range, at
//! base-snapshot documents — is carried into the merged segment (a
//! reader must keep answering "deleted" for a document whose postings
//! are gone). Stats keep counting tombstoned documents, exactly as the
//! read path does, so compaction preserves served answers byte for byte.
//! Segments are checked against the manifest before anything is written:
//! a directory whose files disagree with it is refused, never rewritten.

use crate::manifest::{Manifest, SegmentRef};
use crate::merged::Merged;
use crate::segment::{write_segment, Segment, SegmentBuild};
use inspire_core::{DocId, TermId};
use intern::TermTable;
use std::io;
use std::path::Path;

/// What one compaction pass did.
#[derive(Debug, Clone)]
pub struct CompactReport {
    pub segments_before: usize,
    pub segments_after: usize,
    pub generation: u64,
    pub bytes_written: u64,
    pub docs: u32,
    /// Postings dropped by resolving in-range tombstones.
    pub postings_dropped: u64,
}

/// Fold every live segment of `dir` into one. `Ok(None)` when there is
/// nothing to fold (zero or one segment).
pub fn compact(dir: &Path) -> io::Result<Option<CompactReport>> {
    let started = std::time::Instant::now();
    let mut m = Manifest::require(dir)?;
    if m.segments.len() <= 1 {
        return Ok(None);
    }
    let merged = Merged::segments_of(dir, &m)?;
    let segs = merged.segments();
    let terms = merged.terms();
    let lists: Vec<_> = (0..terms.len() as TermId)
        .map(|t| {
            let mut list = Vec::new();
            merged.postings_in(t, 0..DocId::MAX, &mut list);
            list
        })
        .collect();
    let kept: u64 = lists.iter().map(|l| l.len() as u64).sum();
    let build = SegmentBuild {
        doc_base: segs[0].doc_base(),
        doc_count: segs.iter().map(Segment::doc_count).sum(),
        tokens: segs.iter().map(Segment::tokens).sum(),
        terms: TermTable::clone(terms),
        lists,
        df: (0..terms.len() as TermId).map(|t| merged.df(t)).collect(),
        tf: (0..terms.len() as TermId).map(|t| merged.tf(t)).collect(),
        tombstones: merged.tombstones().to_vec(),
    };
    let dropped = segs.iter().map(Segment::total_postings).sum::<u64>() - kept;
    let file = m.next_segment_file();
    let bytes_written = write_segment(dir, &file, &build)?;

    let old: Vec<String> = m.segments.iter().map(|s| s.file.clone()).collect();
    m.segments = vec![SegmentRef {
        file,
        doc_base: build.doc_base,
        doc_count: build.doc_count,
    }];
    m.next_seq += 1;
    m.generation += 1;
    m.store(dir)?;
    for f in &old {
        std::fs::remove_file(dir.join(f)).ok();
    }
    let mut metrics = crate::metrics::IngestMetrics::load(dir);
    metrics.observe_seconds(
        "compaction_duration_seconds",
        started.elapsed().as_secs_f64(),
    );
    metrics.store().ok();
    Ok(Some(CompactReport {
        segments_before: old.len(),
        segments_after: 1,
        generation: m.generation,
        bytes_written,
        docs: build.doc_count,
        postings_dropped: dropped,
    }))
}
