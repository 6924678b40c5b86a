//! Snapshots written by earlier releases: rejected at open with a
//! pointer to `vaengine migrate`, and — once migrated — serving answers
//! byte-identical to a freshly built snapshot of the same corpus.
//!
//! Two checked-in fixtures stand for the two retired layouts:
//! `legacy_v1.isnap` (format v1, fixed-width index sections, Index
//! stage) and `pre_ann_final.isnap` (Final stage written before the IVF
//! and quantized-signature sections existed).

use corpus::CorpusSpec;
use inspire_core::ann;
use inspire_core::migrate::{migrate, MigrateReport};
use inspire_core::pipeline::Engine;
use inspire_core::query::SearchIndex;
use inspire_core::snapshot::checkpoint_path;
use inspire_core::{EngineConfig, EngineSnapshot, Stage, TermId};
use inspire_serve::request::split_target;
use inspire_serve::{execute, ServeRequest, ServeState};
use perfmodel::CostModel;
use spmd::Runtime;
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/data")
        .join(name)
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("va-migrate-{}-{name}", std::process::id()))
}

/// Plain-word terms from the vocabulary, skipping boolean operators.
fn pick_terms(state: &ServeState, n: usize) -> Vec<String> {
    let len = state.terms.len();
    assert!(len > 0, "empty vocabulary");
    let mut out = Vec::new();
    for k in 0..len * 2 {
        let t = state.terms.get((len / 7 + k) % len);
        if t.len() >= 2
            && t.chars().all(|c| c.is_ascii_alphanumeric())
            && !matches!(t, "and" | "or" | "not")
            && !out.iter().any(|o| o == t)
        {
            out.push(t.to_string());
            if out.len() == n {
                return out;
            }
        }
    }
    panic!("not enough usable terms in vocabulary ({len} total)");
}

fn body(state: &ServeState, target: &str) -> String {
    let (path, params) = split_target(target);
    let req = ServeRequest::parse(path, &params).expect("parse");
    execute(state, &req).expect("execute")
}

/// Unmigrated, the fixture must fail to open with the migrate hint.
fn assert_needs_migrate(path: &Path) {
    let err = EngineSnapshot::open(path)
        .err()
        .expect("retired layout must not open");
    assert!(
        err.to_string().contains("vaengine migrate"),
        "error does not name the migrate command: {err}"
    );
}

/// Migrating a current snapshot changes nothing: same bytes out.
fn assert_migrate_is_identity(current: &Path) {
    let out = current.with_extension("again.isnap");
    let report = migrate(current, &out).expect("migrate a current snapshot");
    assert!(!report.reencoded_index && !report.added_ann, "{report:?}");
    assert_eq!(
        std::fs::read(current).unwrap(),
        std::fs::read(&out).unwrap(),
        "migrating a current snapshot is not a byte-for-byte copy"
    );
    let _ = std::fs::remove_file(&out);
}

#[test]
fn legacy_v1_fixture_migrates_to_a_fresh_builds_answers() {
    let old = fixture("legacy_v1.isnap");
    assert_needs_migrate(&old);
    let migrated_path = tmp("legacy.isnap");
    let report = migrate(&old, &migrated_path).expect("migrate the v1 fixture");
    assert_eq!(
        (report.reencoded_index, report.added_ann),
        (true, false),
        "an Index-stage v1 file needs its index re-encoded and nothing else"
    );
    let migrated_snap = EngineSnapshot::open(&migrated_path).expect("migrated fixture opens");
    assert_eq!(migrated_snap.meta().stage, Stage::Index);
    let migrated = ServeState::from_snapshot(migrated_snap).expect("migrated fixture loads");
    assert!(migrated.has_index());

    // Re-run the engine on the corpus the fixture was generated from, at
    // its processor count, and capture a fresh checkpoint.
    let dir = tmp("legacy-ckpt");
    let _ = std::fs::remove_dir_all(&dir);
    let src = CorpusSpec {
        source_bytes: 8 * 1024,
        ..CorpusSpec::pubmed(16 * 1024, 29)
    }
    .generate();
    let engine = Engine::new(EngineConfig {
        checkpoint_dir: Some(dir.clone()),
        ..EngineConfig::for_testing()
    });
    Runtime::new(Arc::new(CostModel::zero())).run(1, |ctx| {
        engine.run_until(ctx, &src, Stage::Index);
    });
    let fresh_path = checkpoint_path(&dir, Stage::Index);
    let fresh = ServeState::load(&fresh_path).expect("fresh checkpoint loads");

    // Same corpus and config ⇒ same collection; a mismatch here means the
    // corpus generator or scan changed and the comparison below would be
    // meaningless.
    assert_eq!(migrated.meta.corpus_fp, fresh.meta.corpus_fp);
    assert_eq!(migrated.meta.total_docs, fresh.meta.total_docs);
    assert_eq!(migrated.terms.len(), fresh.terms.len());

    // Raw reads agree, order included: the fixture's scatter-ordered
    // postings were sorted by the same encoder the fresh build used.
    for t in (0..migrated.terms.len()).step_by(97) {
        let t = t as TermId;
        assert_eq!(migrated.postings_of(t), fresh.postings_of(t), "term {t}");
        assert_eq!(migrated.df(t), fresh.df(t), "df of term {t}");
    }

    let terms = pick_terms(&migrated, 5);
    let targets = vec![
        format!("/term?t={}", terms[0]),
        format!("/term?t={}&top=3", terms[1]),
        format!("/query?q={}+AND+{}", terms[0], terms[2]),
        format!("/query?q={}+OR+{}&top=7", terms[3], terms[4]),
        format!("/query?q={}+AND+NOT+{}", terms[2], terms[0]),
        format!("/search?q={}+{}&top=5", terms[2], terms[1]),
    ];
    for target in &targets {
        assert_eq!(
            body(&migrated, target),
            body(&fresh, target),
            "served body diverges for {target}"
        );
    }

    assert_migrate_is_identity(&fresh_path);
    assert_migrate_is_identity(&migrated_path);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_file(&migrated_path);
}

#[test]
fn pre_ann_fixture_migrates_and_gains_similarity_search() {
    let old = fixture("pre_ann_final.isnap");
    assert_needs_migrate(&old);
    let migrated_path = tmp("pre-ann.isnap");
    let report = migrate(&old, &migrated_path).expect("migrate the pre-ANN fixture");
    assert_eq!(
        report,
        MigrateReport {
            reencoded_index: false,
            added_ann: true,
            bytes: std::fs::metadata(&migrated_path).unwrap().len(),
        }
    );
    let migrated_snap = EngineSnapshot::open(&migrated_path).expect("migrated fixture opens");
    assert_eq!(migrated_snap.meta().stage, Stage::Final);
    assert!(migrated_snap.has_ann());

    // The six appended sections are exactly `build_ivf` over the
    // fixture's own signatures, assignments and centroid count; every
    // section the fixture had is carried over untouched.
    let before = inspire_store::Snapshot::open(&old).expect("fixture container opens");
    let after = migrated_snap.store();
    for (name, kind, _) in before.sections() {
        let now = after.require(name).expect("section carried over");
        assert_eq!(now.kind(), kind, "kind of `{name}`");
        assert_eq!(
            now.bytes(),
            before.require(name).unwrap().bytes(),
            "`{name}`"
        );
    }
    let m = migrated_snap.meta().m_dims;
    let ivf = ann::build_ivf(
        before.require("sigs").unwrap().as_f64s().unwrap(),
        m,
        before.require("assign").unwrap().as_u32s().unwrap(),
        before.require("centroid").unwrap().as_f64s().unwrap().len() / m,
    );
    assert_eq!(
        after.require("qsig").unwrap().as_records(m).unwrap(),
        ivf.codes
    );
    assert_eq!(
        after.require("qscale").unwrap().as_f64s().unwrap(),
        ivf.scale
    );
    assert_eq!(
        after.require("qoff").unwrap().as_f64s().unwrap(),
        ivf.offset
    );
    assert_eq!(
        after.require("signrm").unwrap().as_f64s().unwrap(),
        ivf.norm
    );
    assert_eq!(
        after.require("ivfdoc").unwrap().as_u32s().unwrap(),
        ivf.ivfdoc
    );
    assert_eq!(
        after.require("ivfoff").unwrap().as_u64s().unwrap(),
        ivf.ivfoff
    );
    assert_eq!(after.sections().count(), before.sections().count() + 6);
    let migrated = ServeState::from_snapshot(migrated_snap).expect("migrated fixture loads");

    // Rebuild the corpus the fixture was generated from (`vaengine
    // generate --flavour pubmed --size 96K --seed 29`, including the
    // CLI's write-to-disk/load round trip, which fixes the on-disk source
    // grouping) at the fixture's processor count.
    let corpus_dir = tmp("pre-ann-corpus");
    let _ = std::fs::remove_dir_all(&corpus_dir);
    let set = CorpusSpec::pubmed(96 * 1024, 29).generate();
    corpus::load::write_dir(&set, &corpus_dir).expect("write fixture corpus");
    let src = corpus::load::load_dir(&corpus_dir).expect("load fixture corpus");
    let _ = std::fs::remove_dir_all(&corpus_dir);
    let fresh_path = tmp("pre-ann-fresh.isnap");
    let engine = Engine::new(EngineConfig {
        n_clusters: 6,
        snapshot_out: Some(fresh_path.clone()),
        ..EngineConfig::default()
    });
    Runtime::new(Arc::new(CostModel::zero())).run(2, |ctx| {
        engine.run(ctx, &src);
    });
    let fresh = ServeState::load(&fresh_path).expect("fresh snapshot loads");

    // Same corpus and config ⇒ same collection shape. (corpus_fp hashes
    // the on-disk source *paths*, so it is not comparable across
    // directories; the byte-identical bodies below are the real check.)
    assert_eq!(migrated.meta.total_docs, fresh.meta.total_docs);
    assert_eq!(migrated.meta.total_tokens, fresh.meta.total_tokens);
    assert_eq!(migrated.terms.len(), fresh.terms.len());

    let terms = pick_terms(&migrated, 3);
    let targets = vec![
        format!("/term?t={}", terms[0]),
        format!("/query?q={}+AND+{}", terms[0], terms[1]),
        format!("/query?q={}+OR+{}&top=7", terms[1], terms[2]),
        format!("/search?q={}+{}&top=5", terms[1], terms[2]),
        "/cluster?c=0".to_string(),
        "/rect?x0=-100&y0=-100&x1=100&y1=100&top=20".to_string(),
    ];
    for target in &targets {
        assert_eq!(
            body(&migrated, target),
            body(&fresh, target),
            "served body diverges for {target}"
        );
    }

    // `/similar` answered 409 on the fixture; migrated, it answers.
    for target in ["/similar?doc=0&top=3", "/similar?text=protein"] {
        let b = body(&migrated, target);
        assert!(
            b.starts_with("{\"kind\":\"similar\","),
            "unexpected body for {target}: {b}"
        );
    }

    assert_migrate_is_identity(&fresh_path);
    let _ = std::fs::remove_file(&fresh_path);
    let _ = std::fs::remove_file(&migrated_path);
}
