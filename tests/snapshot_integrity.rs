//! Snapshot integrity and serving-identity tests.
//!
//! Two guarantees from the snapshot subsystem are verified here from the
//! outside, through the same public API `vaengine` uses:
//!
//! 1. **No silent corruption**: any single bit flip, any truncation, and
//!    any appended garbage must turn a valid snapshot into a descriptive
//!    load error — never a panic, never a partially loaded engine.
//! 2. **Serving identity**: queries answered from a loaded snapshot are
//!    byte-identical (document ids and score bits) to queries answered by
//!    the freshly run in-memory pipeline, for snapshots written at both
//!    P=1 and P=4.

use proptest::prelude::*;
use std::sync::{Arc, OnceLock};
use visual_analytics::engine::query::{self, Query};
use visual_analytics::engine::snapshot::{checkpoint_path, schema, EngineSnapshot};
use visual_analytics::engine::{index::invert, scan::scan};
use visual_analytics::prelude::*;

fn corpus() -> SourceSet {
    CorpusSpec {
        source_bytes: 8 * 1024,
        ..CorpusSpec::pubmed(96 * 1024, 41)
    }
    .generate()
}

fn snapshot_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("va-integrity-{}-{tag}.isnap", std::process::id()))
}

/// The bytes of a Final snapshot of [`corpus`] built at `procs` ranks.
fn build_snapshot(procs: usize, tag: &str) -> Vec<u8> {
    let path = snapshot_path(tag);
    let cfg = EngineConfig {
        snapshot_out: Some(path.clone()),
        ..EngineConfig::for_testing()
    };
    run_engine(procs, Arc::new(CostModel::zero()), &corpus(), &cfg);
    let bytes = std::fs::read(&path).expect("snapshot written");
    let _ = std::fs::remove_file(&path);
    bytes
}

/// One engine snapshot, built once and shared by the corruption tests.
fn snapshot_bytes() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| build_snapshot(2, "shared"))
}

/// Loading `bytes` as an engine snapshot must fail with a descriptive
/// `io::Error`, and must not panic.
fn assert_rejected(bytes: &[u8], what: &str) {
    let res = inspire_store::Snapshot::from_bytes(bytes, "corrupted")
        .and_then(EngineSnapshot::from_store);
    match res {
        Ok(_) => panic!("{what}: corrupted snapshot was accepted"),
        Err(e) => {
            let msg = e.to_string();
            assert!(
                msg.contains("corrupted") && msg.len() > 12,
                "{what}: error lacks context: {msg:?}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn any_single_bit_flip_is_rejected(pos_seed in 0u64.., bit in 0u8..8) {
        let good = snapshot_bytes();
        let pos = (pos_seed % good.len() as u64) as usize;
        let mut bad = good.to_vec();
        bad[pos] ^= 1 << bit;
        assert_rejected(&bad, &format!("bit {bit} of byte {pos}"));
    }

    #[test]
    fn any_truncation_is_rejected(len_seed in 0u64..) {
        let good = snapshot_bytes();
        let keep = (len_seed % good.len() as u64) as usize;
        assert_rejected(&good[..keep], &format!("truncated to {keep} bytes"));
    }

    #[test]
    fn appended_garbage_is_rejected(extra in prop::collection::vec(0u8..=255, 1..64)) {
        let mut bad = snapshot_bytes().to_vec();
        bad.extend_from_slice(&extra);
        assert_rejected(&bad, &format!("{} garbage bytes appended", extra.len()));
    }
}

#[test]
fn the_pristine_snapshot_itself_loads() {
    let snap = inspire_store::Snapshot::from_bytes(snapshot_bytes(), "pristine")
        .and_then(EngineSnapshot::from_store)
        .expect("uncorrupted snapshot loads");
    assert_eq!(snap.meta().stage, Stage::Final);
    assert_eq!(snap.meta().nprocs, 2);
}

/// `good` rewritten CRC-valid, each section's payload passed through
/// `edit` (`None` keeps it), then opened as an engine snapshot. A
/// checksum cannot catch these files; only `from_store` can.
fn open_rewritten(
    good: &inspire_store::Snapshot,
    tag: &str,
    edit: impl Fn(&str, &[u8]) -> Option<Vec<u8>>,
) -> std::io::Result<EngineSnapshot> {
    let path = snapshot_path(tag);
    let mut w = inspire_store::SnapshotWriter::create(&path).unwrap();
    for (name, kind, _) in good.sections() {
        let payload = good.require(name).unwrap().bytes();
        let edited = edit(name, payload);
        w.add_section(name, kind, edited.as_deref().unwrap_or(payload))
            .unwrap();
    }
    w.finish().unwrap();
    let opened = EngineSnapshot::open(&path);
    let _ = std::fs::remove_file(&path);
    opened
}

/// A snapshot can be CRC-valid and still lie: readers index every
/// `coordnd` row at `[0]` and `[1]`, so a recorded projection width
/// outside {2, 3} must be refused at open — with `coordnd` resized to
/// match, nothing else in the file would give it away.
#[test]
fn projection_width_outside_2_and_3_is_rejected_at_open() {
    const META_PROJ_DIMS: usize = 17;
    let good = inspire_store::Snapshot::from_bytes(snapshot_bytes(), "pristine").unwrap();
    let meta = good.require("meta").unwrap().as_u64s().unwrap();
    let docs = meta[2] as usize;
    for dims in [0u64, 1] {
        let err = open_rewritten(&good, &format!("proj{dims}"), |name, _| match name {
            "meta" => {
                let mut lied = meta.to_vec();
                lied[META_PROJ_DIMS] = dims;
                Some(lied.iter().flat_map(|v| v.to_le_bytes()).collect())
            }
            "coordnd" => Some(vec![0u8; docs * dims as usize * 8]),
            _ => None,
        })
        .err()
        .unwrap_or_else(|| panic!("projection width {dims} was accepted"));
        let msg = err.to_string();
        assert!(
            msg.contains(&format!("{dims} projection dimensions")),
            "error does not name the bad width: {msg}"
        );
    }
}

/// Every length the schema declares is enforced, and every offsets
/// table is checked to be one: each section in turn one element short,
/// one element long, and (offsets tables) with two interior entries
/// swapped must be refused at open by an error naming the section —
/// never accepted, never a panic in a reader later. Each section is
/// lied about in a file that carries it: the Final snapshot, or the
/// Scan checkpoint for the forward index.
#[test]
fn every_lying_section_is_refused_at_open_by_name() {
    // Four ranks, so that `docbase` has interior entries to swap.
    let dir = snapshot_path("lying-ckpt");
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = EngineConfig {
        checkpoint_dir: Some(dir.clone()),
        ..EngineConfig::for_testing()
    };
    run_engine(4, Arc::new(CostModel::zero()), &corpus(), &cfg);
    let open = |stage: Stage| {
        let bytes = std::fs::read(checkpoint_path(&dir, stage)).expect("checkpoint written");
        inspire_store::Snapshot::from_bytes(&bytes, "pristine").unwrap()
    };
    let (at_scan, at_final) = (open(Stage::Scan), open(Stage::Final));
    let _ = std::fs::remove_dir_all(&dir);
    let carrier = |row: &schema::Row| {
        if row.carried_at(Stage::Final) {
            &at_final
        } else {
            &at_scan
        }
    };
    let accepted = std::cell::RefCell::new(Vec::new());
    let refused = |row: &schema::Row, how: &str, lie: &dyn Fn(&[u8]) -> Vec<u8>| {
        let tag = format!("lying-{}-{how}", row.name);
        let edit = |name: &str, payload: &[u8]| (name == row.name).then(|| lie(payload));
        match open_rewritten(carrier(row), &tag, edit) {
            Ok(_) => accepted.borrow_mut().push(format!("`{}` {how}", row.name)),
            Err(e) => assert!(
                e.to_string().contains(&format!("`{}`", row.name)),
                "`{}` {how}: the error does not name the section: {e}",
                row.name
            ),
        }
    };
    let mut lengths = 0;
    let mut tables = 0;
    for row in schema::ENGINE.iter().chain(&schema::ANN) {
        let width = row.kind.elem_size();
        let payload = carrier(row).require(row.name).unwrap().bytes();
        if !matches!(row.len, schema::Len::Parser) {
            assert!(payload.len() >= width, "`{}` is empty", row.name);
            refused(row, "one short", &|p| p[..p.len() - width].to_vec());
            // Repeating the last element keeps an offsets table one.
            refused(row, "one long", &|p| [p, &p[p.len() - width..]].concat());
            lengths += 1;
        }
        if matches!(
            row.values,
            schema::Values::Offsets | schema::Values::Partition
        ) {
            let (lo, hi) = (width, payload.len() - 2 * width);
            assert!(
                lo < hi && payload[lo..lo + width] != payload[hi..hi + width],
                "`{}` has no two distinct interior entries",
                row.name
            );
            refused(row, "with two entries swapped", &|p| {
                let mut p = p.to_vec();
                for i in 0..width {
                    p.swap(lo + i, hi + i);
                }
                p
            });
            tables += 1;
        }
    }
    assert_eq!((lengths, tables), (29, 5), "rows the schema gives a rule");
    // The two sections of ids: `major` (terms of the vocabulary) and
    // `ivfdoc` (a permutation of the documents), with an id repeated and
    // with one out of range.
    for row in [&schema::MAJOR, &schema::IVFDOC] {
        refused(row, "with an id repeated", &|p| {
            [&p[..4], &p[..4], &p[8..]].concat()
        });
        refused(row, "with an id out of range", &|p| {
            [&[0xFF; 4], &p[4..]].concat()
        });
    }
    // Every `f64` section feeds a score or a coordinate: a NaN (such as
    // one in `sigs`, which `/similar` would rank) or an infinity in any
    // of them is refused.
    let floats = (schema::ENGINE.iter().chain(&schema::ANN))
        .filter(|r| r.kind == inspire_store::SectionKind::F64);
    assert_eq!(floats.clone().count(), 8, "f64 sections");
    for row in floats {
        for (how, x) in [
            ("with a NaN", f64::NAN),
            ("with an infinity", f64::INFINITY),
        ] {
            refused(row, how, &|p| [&x.to_le_bytes(), &p[8..]].concat());
        }
    }
    let accepted = accepted.into_inner();
    assert!(accepted.is_empty(), "accepted at open: {accepted:?}");
}

/// The block-compressed index must stay at least 3x smaller than the
/// fixed-width layout it replaced: `postoff` (i64 per term + 1),
/// `postdat` (u64 per posting), `df` (u32 per term), `tf` (u64 per term).
#[test]
fn compressed_index_is_3x_smaller_than_fixed_width() {
    let src = CorpusSpec::pubmed(256 * 1024, 2007).generate();
    let path = snapshot_path("compression");
    let cfg = EngineConfig {
        snapshot_out: Some(path.clone()),
        ..EngineConfig::for_testing()
    };
    run_engine(1, Arc::new(CostModel::zero()), &src, &cfg);
    let snap = EngineSnapshot::open(&path).expect("snapshot loads");
    let dir = snap.postings_dir().expect("final snapshot has an index");
    let (vocab, postings) = (dir.vocab() as u64, dir.total_postings());
    let fixed = 8 * (vocab + 1) + 8 * postings + 4 * vocab + 8 * vocab;
    let compressed: u64 = ["postdir", "postblk", "postskp", "dfv", "tfv"]
        .iter()
        .map(|name| snap.store().require(name).unwrap().bytes().len() as u64)
        .sum();
    assert!(postings > 0, "empty index");
    assert!(
        compressed * 3 <= fixed,
        "index sections take {compressed} B, less than 3x below fixed-width {fixed} B"
    );
    let _ = std::fs::remove_file(&path);
}

/// Hits from `query::search` with doc id and raw score bits, plus the
/// boolean-evaluation ids, gathered identically on every rank.
type ServedAnswers = (Vec<(u32, u64)>, Vec<u32>);

fn answer_queries(
    ctx: &spmd::Ctx,
    scan: &visual_analytics::engine::scan::ScanOutput,
    index: &visual_analytics::engine::index::InvertedIndex,
    free_text: &str,
    boolean: &Query,
) -> ServedAnswers {
    let hits = query::search(ctx, scan, index, free_text, 20)
        .into_iter()
        .map(|h| (h.doc, h.score.to_bits()))
        .collect();
    let docs = query::evaluate(ctx, scan, index, boolean);
    (hits, docs)
}

#[test]
fn snapshot_served_queries_match_in_memory_pipeline() {
    let src = corpus();
    let cfg = EngineConfig::for_testing();
    let zero = Arc::new(CostModel::zero());

    // Pick query terms from the actual vocabulary (single-rank probe).
    let (term_a, term_b) = {
        let src = src.clone();
        let cfg = cfg.clone();
        let mut res = Runtime::new(zero.clone()).run(1, move |ctx| {
            let (s, fwd) = scan(ctx, &src);
            let idx = invert(ctx, &s, fwd, &cfg);
            let mut picks = (0..s.vocab_size())
                .filter(|&t| idx.df[t] >= 4)
                .map(|t| s.terms[t].to_string());
            (picks.next().unwrap(), picks.next().unwrap())
        });
        res.results.remove(0)
    };
    let free_text = format!("{term_a} {term_b}");
    let boolean = Query::parse(&format!("{term_a} OR title:{term_b}")).unwrap();

    for p in [1usize, 4] {
        // In-memory reference: scan + invert + query, no snapshot at all.
        let reference: ServedAnswers = {
            let (src, cfg, free_text, boolean) =
                (src.clone(), cfg.clone(), free_text.clone(), boolean.clone());
            let mut res = Runtime::new(zero.clone()).run(p, move |ctx| {
                let (s, fwd) = scan(ctx, &src);
                let idx = invert(ctx, &s, fwd, &cfg);
                answer_queries(ctx, &s, &idx, &free_text, &boolean)
            });
            res.results.remove(0)
        };

        // Snapshot route: run the engine at P, then serve on one rank.
        let path = snapshot_path(&format!("serve-p{p}"));
        let _ = std::fs::remove_file(&path);
        let snap_cfg = EngineConfig {
            snapshot_out: Some(path.clone()),
            ..cfg.clone()
        };
        run_engine(p, zero.clone(), &src, &snap_cfg);
        let snap = EngineSnapshot::open(&path).expect("snapshot loads");
        assert_eq!(snap.meta().nprocs, p);
        let served: ServedAnswers = {
            let (free_text, boolean) = (free_text.clone(), boolean.clone());
            let mut res = Runtime::new(zero.clone()).run(1, move |ctx| {
                let (s, _) = snap.restore_scan(ctx).expect("scan restores");
                let idx = snap.restore_index(ctx).expect("index restores");
                answer_queries(ctx, &s, &idx, &free_text, &boolean)
            });
            res.results.remove(0)
        };

        assert_eq!(
            served, reference,
            "P={p}: snapshot-served answers diverge from the in-memory run"
        );
        let _ = std::fs::remove_file(&path);
    }
}
