//! `vaengine migrate` converts one layout, the one immediately before the
//! current: post-Scan files that still carry the forward index. Older
//! layouts are refused at open, by name.
//!
//! Every input is derived from a current checkpointed run: the previous
//! layout is each post-Scan checkpoint with the Scan checkpoint's
//! `fwdoff`/`fwddat` inserted after `seglen`, where every stage wrote
//! them while each stage kept the forward index.

use corpus::CorpusSpec;
use inspire_core::migrate::{migrate, MigrateReport};
use inspire_core::pipeline::Engine;
use inspire_core::snapshot::checkpoint_path;
use inspire_core::{EngineConfig, EngineSnapshot, Stage};
use inspire_serve::request::split_target;
use inspire_serve::{execute, ServeRequest, ServeState};
use inspire_store::{crc32, SectionKind, Snapshot, SnapshotWriter};
use perfmodel::CostModel;
use spmd::Runtime;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const STAGES: [Stage; 4] = [Stage::Scan, Stage::Index, Stage::Sig, Stage::Final];

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("va-migrate-{}-{name}", std::process::id()))
}

/// Checkpoint every stage of a 96 KiB PubMed run at `procs` ranks.
fn checkpointed_run(procs: usize, name: &str) -> PathBuf {
    let dir = tmp(name);
    let _ = std::fs::remove_dir_all(&dir);
    let src = CorpusSpec::pubmed(96 * 1024, 29).generate();
    let engine = Engine::new(EngineConfig {
        n_clusters: 6,
        checkpoint_dir: Some(dir.clone()),
        ..EngineConfig::default()
    });
    Runtime::new(Arc::new(CostModel::zero())).run(procs, |ctx| {
        engine.run(ctx, &src);
    });
    dir
}

/// One section: name, element kind, payload.
type Section = (String, SectionKind, Vec<u8>);

fn section(snap: &Snapshot, name: &str) -> Section {
    let view = snap.require(name).unwrap();
    (name.to_string(), view.kind(), view.bytes().to_vec())
}

/// Write `from`'s sections to `to` in file order, each replaced by what
/// `edit` returns for it.
fn rewrite(from: &Path, to: &Path, mut edit: impl FnMut(Section) -> Vec<Section>) {
    let snap = Snapshot::open(from).unwrap();
    let mut w = SnapshotWriter::create(to).unwrap();
    for (name, ..) in snap.sections() {
        for (name, kind, bytes) in edit(section(&snap, name)) {
            w.add_section(&name, kind, &bytes).unwrap();
        }
    }
    w.finish().unwrap();
}

/// Plain-word terms from the vocabulary, skipping boolean operators.
fn pick_terms(state: &ServeState, n: usize) -> Vec<String> {
    let len = state.terms.len();
    let mut out: Vec<String> = Vec::new();
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

/// The served body, or the refusal's status and message.
fn answer(state: &ServeState, target: &str) -> Result<String, (u16, String)> {
    let (path, params) = split_target(target);
    let req = ServeRequest::parse(path, &params).expect("parse");
    execute(state, &req).map_err(|e| (e.status, e.message))
}

fn open_err(path: &Path) -> String {
    EngineSnapshot::open(path)
        .err()
        .unwrap_or_else(|| panic!("{} opened", path.display()))
        .to_string()
}

#[test]
fn current_files_migrate_to_themselves_and_the_previous_layout_to_them() {
    for procs in [1, 2] {
        let dir = checkpointed_run(procs, &format!("ckpt-p{procs}"));
        let out = dir.join("migrated.isnap");
        for stage in STAGES {
            let current = checkpoint_path(&dir, stage);
            let report = migrate(&current, &out).expect("migrate a current checkpoint");
            assert!(!report.stripped_forward, "P={procs} {stage:?}: {report:?}");
            assert_eq!(
                std::fs::read(&current).unwrap(),
                std::fs::read(&out).unwrap(),
                "P={procs} {stage:?}: migrating a current file is not a byte-for-byte copy"
            );
        }

        let scan = Snapshot::open(&checkpoint_path(&dir, Stage::Scan)).unwrap();
        let forward = [section(&scan, "fwdoff"), section(&scan, "fwddat")];
        for stage in [Stage::Index, Stage::Sig, Stage::Final] {
            let current = checkpoint_path(&dir, stage);
            let previous = dir.join("previous.isnap");
            rewrite(&current, &previous, |s| match s.0.as_str() {
                "seglen" => [vec![s], forward.to_vec()].concat(),
                _ => vec![s],
            });
            let now = ServeState::load(&current).expect("current file loads");
            let old = ServeState::load(&previous).expect("previous layout opens as it is");
            let terms = pick_terms(&now, 3);
            let targets = [
                format!("/term?t={}", terms[0]),
                format!("/search?q={}+{}&top=5", terms[1], terms[2]),
                "/cluster?c=0".to_string(),
                "/cluster?c=5&top=4".to_string(),
                "/similar?doc=0&top=3".to_string(),
                format!("/similar?text={}+{}", terms[0], terms[2]),
            ];
            for target in &targets {
                // A Final file answers every one; earlier stages refuse
                // some, and must refuse them alike.
                assert!(stage != Stage::Final || answer(&now, target).is_ok());
                assert_eq!(
                    answer(&old, target),
                    answer(&now, target),
                    "P={procs} {stage:?}: {target}"
                );
            }

            let report = migrate(&previous, &out).expect("migrate the previous layout");
            let bytes = std::fs::read(&current).unwrap();
            assert_eq!(
                report,
                MigrateReport {
                    stripped_forward: true,
                    bytes: bytes.len() as u64,
                },
                "P={procs} {stage:?}"
            );
            assert_eq!(
                bytes,
                std::fs::read(&out).unwrap(),
                "P={procs} {stage:?}: the migrated file is not the current writer's"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn older_layouts_are_refused_at_open_by_name() {
    let dir = checkpointed_run(1, "refuse");
    let old = dir.join("old.isnap");

    // The Index layout from before the compressed index sections.
    const INDEX: [&str; 5] = ["postdir", "postblk", "postskp", "dfv", "tfv"];
    rewrite(&checkpoint_path(&dir, Stage::Index), &old, |s| {
        if INDEX.contains(&s.0.as_str()) {
            vec![]
        } else {
            vec![s]
        }
    });
    let err = open_err(&old);
    // `migrate` cannot convert it, so the error does not point there.
    assert!(
        err.contains("`postdir`") && !err.contains("vaengine migrate"),
        "{err}"
    );

    // The Final layout from before the similarity-search sections.
    const ANN: [&str; 6] = ["qsig", "qscale", "qoff", "signrm", "ivfdoc", "ivfoff"];
    rewrite(&checkpoint_path(&dir, Stage::Final), &old, |s| {
        if ANN.contains(&s.0.as_str()) {
            vec![]
        } else {
            vec![s]
        }
    });
    let err = open_err(&old);
    // `migrate` cannot convert it, so the error does not point there.
    assert!(
        err.contains("`qsig`") && !err.contains("vaengine migrate"),
        "{err}"
    );

    // A format-v1 container, its header CRC recomputed so that only the
    // version is wrong — at every stage, the Scan checkpoint (which has
    // no section kind newer than version 1) included.
    for stage in STAGES {
        let mut bytes = std::fs::read(checkpoint_path(&dir, stage)).unwrap();
        bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
        let hcrc = crc32(&bytes[0..32]);
        bytes[32..36].copy_from_slice(&hcrc.to_le_bytes());
        std::fs::write(&old, &bytes).unwrap();
        let err = open_err(&old);
        assert!(err.contains("format version 1"), "{stage:?}: {err}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
