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
//! Merge semantics match the serving tier's merge-on-read exactly:
//! segment doc ranges are disjoint and ascending, so per-term posting
//! lists concatenate in segment order; df/tf deltas add. Tombstones
//! aimed at documents **inside** the compacted range are resolved by
//! dropping those documents' postings. Every tombstone — resolved or
//! aimed below the range, at base-snapshot documents — is carried into
//! the merged segment: a reader must keep answering "deleted" for a
//! document whose postings are gone.
//! Stat deltas intentionally keep counting tombstoned documents — the
//! read path filters postings but never rescales df/tf, so compaction
//! preserves served answers byte for byte.

use crate::manifest::{Manifest, SegmentRef};
use crate::segment::{write_segment, Segment, SegmentBuild};
use inspire_core::index::Posting;
use inspire_core::postings::union_vocabularies;
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

fn bad(dir: &Path, msg: String) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("{}: {msg}", dir.display()),
    )
}

/// Fold every live segment of `dir` into one. `Ok(None)` when there is
/// nothing to fold (zero or one segment).
pub fn compact(dir: &Path) -> io::Result<Option<CompactReport>> {
    let started = std::time::Instant::now();
    let Some(mut m) = Manifest::load(dir)? else {
        return Err(bad(dir, "not an ingest directory (no manifest)".into()));
    };
    if m.segments.len() <= 1 {
        return Ok(None);
    }
    let segs: Vec<Segment> = m
        .segments
        .iter()
        .map(|s| Segment::open(&dir.join(&s.file)))
        .collect::<io::Result<Vec<_>>>()?;
    let doc_base = segs[0].doc_base();
    let doc_end = segs.last().unwrap().doc_end();
    let doc_count: u32 = segs.iter().map(|s| s.doc_count()).sum();
    let tokens: u64 = segs.iter().map(|s| s.tokens()).sum();

    let mut tombs: Vec<u32> = segs
        .iter()
        .flat_map(|s| s.tombstones().iter().copied())
        .collect();
    tombs.sort_unstable();
    tombs.dedup();
    let resolved = |d: u32| (doc_base..doc_end).contains(&d) && tombs.binary_search(&d).is_ok();

    // Per merged term, members arrive in segment order, which is doc
    // order: lists concatenate, stat deltas add.
    let vocabs: Vec<&TermTable> = segs.iter().map(|s| s.terms()).collect();
    let mut vocab: Vec<&str> = Vec::new();
    let mut lists: Vec<Vec<Posting>> = Vec::new();
    let mut df: Vec<u32> = Vec::new();
    let mut tf: Vec<u64> = Vec::new();
    let mut dropped = 0u64;
    let mut scratch: Vec<Posting> = Vec::new();
    union_vocabularies(&vocabs, |term, members| {
        let mut list = Vec::new();
        let (mut d_sum, mut t_sum) = (0u32, 0u64);
        for &(si, local) in members {
            d_sum += segs[si].df(local);
            t_sum += segs[si].tf(local);
            scratch.clear();
            segs[si].postings_into(local, &mut scratch);
            for &p in &scratch {
                if resolved(p.doc) {
                    dropped += 1;
                } else {
                    list.push(p);
                }
            }
        }
        vocab.push(term);
        lists.push(list);
        df.push(d_sum);
        tf.push(t_sum);
    });

    let build = SegmentBuild {
        doc_base,
        doc_count,
        tokens,
        terms: TermTable::from_sorted(vocab.iter().copied()),
        lists,
        df,
        tf,
        tombstones: tombs,
    };
    let file = m.next_segment_file();
    let bytes_written = write_segment(dir, &file, &build)?;

    let old: Vec<String> = m.segments.iter().map(|s| s.file.clone()).collect();
    m.segments = vec![SegmentRef {
        file,
        doc_base,
        doc_count,
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
        docs: doc_count,
        postings_dropped: dropped,
    }))
}
