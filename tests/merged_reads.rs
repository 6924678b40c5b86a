//! The merged view's one posting read, `Merged::postings_in`, against
//! its own definition: over any document range it returns exactly the
//! full merged list filtered to that range.
//!
//! The fixture is one ingest directory whose components exercise every
//! way a range can meet them: a base snapshot, a compacted segment and
//! later one-batch segments, multi-block lists in the base and in a
//! segment, and tombstones in the base's range and in the live range.
//! Ranges are random (the property) and chosen (empty ranges, ranges
//! that straddle a component boundary, ranges past `total_docs`, ranges
//! that start inside a multi-block list).

use proptest::prelude::*;
use std::ops::Range;
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};
use visual_analytics::engine::index::Posting;
use visual_analytics::engine::{DocId, TermId};
use visual_analytics::ingest::{IngestDir, Manifest, Merged};
use visual_analytics::perfmodel::CostModel;
use visual_analytics::prelude::*;

/// Pairs per codec block: a list longer than this has skip entries.
const BLOCK_LEN: usize = 128;

/// The fixture directory's merged view, built once per test process.
fn merged() -> &'static Merged {
    static VIEW: OnceLock<Merged> = OnceLock::new();
    VIEW.get_or_init(|| {
        let dir = fixture_dir();
        let manifest = Manifest::require(&dir).expect("manifest");
        Merged::live(&dir, &manifest).expect("merged view")
    })
}

/// Base = the first half of a PubMed corpus; live = the other half but
/// its last eight files, compacted into one segment, then one segment
/// per remaining file; every seventh base document and every fifth live
/// one deleted, some before the compaction and some after.
fn fixture_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("va-merged-reads-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create test dir");
    let set = CorpusSpec::pubmed(1024 * 1024, 31).generate();
    let (half, tail) = (set.sources.len() / 2, set.sources.len() - 8);
    let base = dir.join("base.isnap");
    let cfg = EngineConfig {
        snapshot_out: Some(base.clone()),
        ..EngineConfig::for_testing()
    };
    let base_set = SourceSet {
        sources: set.sources[..half].to_vec(),
    };
    run_engine(2, Arc::new(CostModel::zero()), &base_set, &cfg);
    let live = dir.join("live");
    let mut ing = IngestDir::create(&live, Some(&base)).expect("create");
    let base_docs = ing.manifest().base_docs;
    let (folded, rest) = set.sources[half..].split_at(tail - half);
    for src in folded {
        ing.append(src.clone()).expect("append");
    }
    let live_docs = |ing: &IngestDir| base_docs..ing.manifest().next_doc_base();
    let deleted = |docs: Range<u32>, every: u32| docs.filter(|d| d % every == 3).collect();
    ing.delete(deleted(0..base_docs / 2, 7))
        .expect("delete base");
    ing.delete(deleted(live_docs(&ing), 5))
        .expect("delete live");
    ing.compact().expect("compact").expect("folds");
    for src in rest {
        ing.append(src.clone()).expect("append");
    }
    ing.delete(deleted(base_docs / 2..base_docs, 7))
        .expect("delete base");
    let after = ing.manifest().segments[0].doc_base + ing.manifest().segments[0].doc_count;
    ing.delete(deleted(after..ing.manifest().next_doc_base(), 5))
        .expect("delete live");
    live
}

/// `term`'s postings over `docs`, through the one read.
fn read(m: &Merged, term: TermId, docs: Range<DocId>) -> Vec<Posting> {
    let mut out = vec![];
    m.postings_in(term, docs, &mut out);
    out
}

/// The full merged list filtered to `docs`: what the read must return.
fn filtered(m: &Merged, term: TermId, docs: &Range<DocId>) -> Vec<Posting> {
    let full = read(m, term, 0..DocId::MAX);
    full.into_iter().filter(|p| docs.contains(&p.doc)).collect()
}

/// Component document ranges: the base's, then each segment's.
fn spans(m: &Merged) -> Vec<Range<DocId>> {
    let base_docs = m.base().expect("base").meta().total_docs;
    let segs = m.segments().iter().map(|s| s.doc_base()..s.doc_end());
    std::iter::once(0..base_docs).chain(segs).collect()
}

/// Component `c`'s posting count of merged `term` (0 when absent).
fn count(m: &Merged, c: usize, term: TermId) -> usize {
    let Some(local) = m.local_id(c, term) else {
        return 0;
    };
    let reader = match c {
        0 => m.base().expect("base").index().expect("index"),
        c => m.segments()[c - 1].index().0,
    };
    reader.dir().count(local) as usize
}

/// Terms whose list in component `c` spans more than one block.
fn multi_block(m: &Merged, c: usize) -> Vec<TermId> {
    (0..m.terms().len() as TermId)
        .filter(|&t| count(m, c, t) > BLOCK_LEN)
        .collect()
}

#[test]
fn the_fixture_has_what_the_property_needs() {
    let m = merged();
    let spans = spans(m);
    assert!(spans.len() >= 4, "base + compacted + later segments");
    assert!(!multi_block(m, 0).is_empty(), "a multi-block base list");
    assert!(!multi_block(m, 1).is_empty(), "a multi-block segment list");
    let base_docs = spans[0].end;
    let tombs = m.tombstones();
    assert!(tombs.iter().any(|&d| d < base_docs), "a base tombstone");
    assert!(tombs.iter().any(|&d| d >= base_docs), "a live tombstone");
}

/// Chosen ranges: empty ones, ones that straddle every component
/// boundary, ones past `total_docs`, and ones that start inside a
/// multi-block list — at its second block, and mid-block.
#[test]
fn chosen_ranges_equal_the_filtered_full_list() {
    let m = merged();
    let spans = spans(m);
    let total = m.total_docs();
    // Empty, and reversed: a range whose start passes its end holds
    // nothing either.
    let reversed = Range { start: 7, end: 3 };
    let mut ranges: Vec<Range<DocId>> = vec![0..0, reversed, total..total, total..DocId::MAX];
    ranges.extend([total - 2..total + 100, total + 5..DocId::MAX]);
    for s in &spans {
        let b = s.start;
        ranges.extend([b..b, b.saturating_sub(3)..b + 3, b.saturating_sub(1)..b + 1]);
        ranges.extend([
            b.saturating_sub(40)..s.end + 40,
            s.clone(),
            s.end - 1..DocId::MAX,
        ]);
    }
    let mut terms: Vec<TermId> = Vec::new();
    for c in 0..spans.len() {
        terms.extend(multi_block(m, c).into_iter().take(3));
    }
    terms.extend([
        0,
        m.terms().len() as TermId / 2,
        m.terms().len() as TermId - 1,
    ]);
    for &t in &terms {
        let mut own = ranges.clone();
        for (c, span) in spans.iter().enumerate() {
            if count(m, c, t) <= BLOCK_LEN {
                continue;
            }
            let local: Vec<DocId> = read(m, t, span.clone()).iter().map(|p| p.doc).collect();
            for at in [BLOCK_LEN, BLOCK_LEN + BLOCK_LEN / 2] {
                if let Some(&d) = local.get(at) {
                    own.extend([d..DocId::MAX, d..d + 1, d..span.end + 1]);
                }
            }
        }
        for r in own {
            assert_eq!(
                read(m, t, r.clone()),
                filtered(m, t, &r),
                "term {t} over {r:?}"
            );
        }
    }
}

/// Terms with a multi-block list in some component.
fn long_terms() -> &'static [TermId] {
    static LONG: OnceLock<Vec<TermId>> = OnceLock::new();
    LONG.get_or_init(|| {
        let m = merged();
        let mut terms: Vec<TermId> = (0..spans(m).len())
            .flat_map(|c| multi_block(m, c))
            .collect();
        terms.sort_unstable();
        terms.dedup();
        terms
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any range, any term: the one read equals the filtered full list.
    /// Half the cases read a term with a multi-block list, whose decode
    /// seeks and stops inside a component.
    #[test]
    fn any_range_equals_the_filtered_full_list(
        pick in 0usize..1_000_000,
        start in 0u32..1_000_000,
        len in 0u32..1_000_000,
    ) {
        let m = merged();
        let long = long_terms();
        let term = match pick % 2 {
            0 => long[pick / 2 % long.len()],
            _ => (pick / 2 % m.terms().len()) as TermId,
        };
        let total = m.total_docs();
        let start = start % (total + 50);
        let r = start..start.saturating_add(len % (total + 50));
        prop_assert_eq!(read(m, term, r.clone()), filtered(m, term, &r), "term {} over {:?}", term, r);
    }
}
