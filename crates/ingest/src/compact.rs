//! Compaction: fold all live segments into one.
//!
//! Compaction is read-only over its inputs and goes through the same
//! flip as a commit ([`IngestDir`]'s one way to change a directory): it
//! writes one merged segment under a fresh (never-reused) sequence
//! number, publishes the manifest at `generation + 1` listing only that
//! segment, adopts it, then unlinks the inputs and records its duration
//! in the handle's sidecar. A crash before the manifest rename leaves the
//! merged file as a stray (removed at the next open); a crash after it
//! leaves the inputs as strays. Readers polling the manifest see either
//! the old segment list or the new one.
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

use crate::merged::Merged;
use crate::segment::{Segment, SegmentBuild};
use crate::IngestDir;
use inspire_core::{DocId, TermId};
use intern::TermTable;
use std::io;
use std::time::Instant;

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

impl IngestDir {
    /// Fold every live segment into one. `Ok(None)` when there is
    /// nothing to fold (zero or one segment).
    pub fn compact(&mut self) -> io::Result<Option<CompactReport>> {
        let started = Instant::now();
        let segments_before = self.manifest.segments.len();
        if segments_before <= 1 {
            return Ok(None);
        }
        let merged = Merged::segments_of(&self.dir, &self.manifest)?;
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
        let postings_dropped = segs.iter().map(Segment::total_postings).sum::<u64>() - kept;
        let flipped = self.flip(0, &build, started)?;
        Ok(Some(CompactReport {
            segments_before,
            segments_after: 1,
            generation: flipped.generation,
            bytes_written: flipped.segment_bytes,
            docs: flipped.docs,
            postings_dropped,
        }))
    }
}
