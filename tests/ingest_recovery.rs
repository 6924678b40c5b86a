//! Crash-recovery and merge-on-read equivalence tests for the live
//! ingestion subsystem.
//!
//! The contracts under test, end to end:
//!
//! 1. **One side of the commit, exactly** — a commit publishes the
//!    batch's segment, then the manifest that names it. For every crash
//!    state of that sequence — each prefix of the segment's tmp file,
//!    the segment complete under the old manifest, that plus each prefix
//!    of the manifest's tmp file, and the new manifest in place — the
//!    next open serves the pre-commit bodies with no stray left (and a
//!    re-append writes the same segment bytes), or the post-commit ones.
//!    A directory in the previous layout is refused until migrated.
//! 2. **Kill-mid-ingest ≡ clean run** — after a commit killed
//!    part-way, reopening the directory removes its leftovers, and the
//!    merged view serves bodies byte-identical to a from-scratch rebuild
//!    of the acknowledged batches — with the rebuild run at P=1 **and**
//!    P=4.
//! 3. **Compaction is invisible** — folding all segments into one
//!    changes no served byte, and stray files from a simulated
//!    compaction crash are removed on the next open.
//! 4. **Tombstones** — a deleted document vanishes from every posting
//!    enumeration (term, boolean, ranked) before and after compaction,
//!    while df/total_docs keep LSM stats semantics (unchanged until a
//!    full rebuild folds the base).
//! 5. **One signature rule** — live documents are signed bit for bit
//!    the way the engine's signature stage signs records.
//! 6. **Compaction refuses a directory that disagrees with its
//!    manifest** instead of rewriting it.

use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use visual_analytics::engine::pipeline::run_engine;
use visual_analytics::engine::query::{Query, SearchIndex};
use visual_analytics::engine::scan::tokenize_batch;
use visual_analytics::engine::signature::record_signature;
use visual_analytics::engine::snapshot::schema::{ASSOC, MAJOR};
use visual_analytics::engine::tokenize::Tokenizer;
use visual_analytics::engine::{EngineConfig, EngineSnapshot};
use visual_analytics::ingest::{
    compact_dir, migrate_dir, IngestDir, Manifest, MANIFEST_FILE, WAL_FILE,
};
use visual_analytics::perfmodel::CostModel;
use visual_analytics::prelude::{CorpusSpec, SourceSet};
use visual_analytics::serve::{execute, load_live_state, ServeRequest, ServeState};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("va-ingest-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create test dir");
    dir
}

/// Full pipeline at processor count `procs` with `snapshot_out` set.
fn build_snapshot(set: &SourceSet, out: &Path, procs: usize) {
    let cfg = EngineConfig {
        snapshot_out: Some(out.to_path_buf()),
        ..EngineConfig::for_testing()
    };
    let run = run_engine(procs, Arc::new(CostModel::zero()), set, &cfg);
    assert!(
        run.master().snapshot_report.is_some(),
        "snapshot write failed"
    );
}

/// Mixed term/boolean/search requests over the state's vocabulary.
fn build_requests(state: &ServeState) -> Vec<ServeRequest> {
    let len = state.terms.len();
    let mut terms: Vec<String> = Vec::new();
    for k in 0..len * 2 {
        let t = state.terms.get((len / 7 + k) % len);
        if t.len() >= 2
            && t.chars().all(|c| c.is_ascii_alphanumeric())
            && !matches!(t, "and" | "or" | "not")
            && !terms.iter().any(|o| o == t)
        {
            terms.push(t.to_string());
            if terms.len() == 8 {
                break;
            }
        }
    }
    assert!(terms.len() >= 2, "vocabulary too small for query mix");
    let mut out = Vec::new();
    for pair in terms.chunks(2) {
        out.push(ServeRequest::Term {
            term: pair[0].clone(),
            top: 10,
        });
        if pair.len() == 2 {
            let expr = Query::parse(&format!("{} AND {}", pair[0], pair[1])).unwrap();
            out.push(ServeRequest::Boolean { expr, top: 10 });
            out.push(ServeRequest::Search {
                text: format!("{} {}", pair[0], pair[1]),
                top: 5,
            });
        }
    }
    out
}

fn bodies(state: &ServeState, requests: &[ServeRequest]) -> Vec<String> {
    requests
        .iter()
        .map(|r| execute(state, r).expect("request executes"))
        .collect()
}

fn medline(name: &str, text: &str) -> corpus::Source {
    corpus::Source {
        name: name.into(),
        data: text.as_bytes().to_vec(),
        format: corpus::FormatKind::Medline,
    }
}

/// Every file in `dir` with its bytes, by name.
fn files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut out: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .expect("list dir")
        .map(|e| {
            let e = e.expect("entry");
            let bytes = std::fs::read(e.path()).expect("read");
            (e.file_name().to_string_lossy().into_owned(), bytes)
        })
        .collect();
    out.sort();
    out
}

/// Replace `to` with a copy of `from`'s files.
fn copy_dir(from: &Path, to: &Path) {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).expect("create copy");
    for (name, bytes) in files(from) {
        std::fs::write(to.join(name), bytes).expect("write copy");
    }
}

/// The two files one commit publishes, in order: its segment, then the
/// manifest that names it.
struct Commit {
    segment: String,
    segment_bytes: Vec<u8>,
    manifest: Vec<u8>,
}

impl Commit {
    /// Commit `src` on a copy of `dir` and keep what it published;
    /// `dir` itself is untouched.
    fn of(dir: &Path, src: &corpus::Source) -> Commit {
        let copy = dir.with_extension("commit");
        copy_dir(dir, &copy);
        let mut ing = IngestDir::open(&copy).expect("open the copy");
        let segment = ing
            .append(src.clone())
            .expect("commit on the copy")
            .segment_file;
        let commit = Commit {
            segment_bytes: std::fs::read(copy.join(&segment)).expect("segment"),
            segment,
            manifest: std::fs::read(copy.join(MANIFEST_FILE)).expect("manifest"),
        };
        let _ = std::fs::remove_dir_all(&copy);
        commit
    }

    /// Leave in `dir` what this commit leaves when the process dies at
    /// `stage`: 0, the segment's tmp file cut at `cut` bytes; 1, the
    /// whole segment; 2, the whole segment and the manifest's tmp file
    /// cut at `cut` bytes; 3, the new manifest in place too (the commit
    /// landed). Returns how many strays the next open must remove.
    fn plant(&self, dir: &Path, stage: usize, cut: usize) -> usize {
        let seg = dir.join(&self.segment);
        if stage == 0 {
            let tmp = dir.join(format!("{}.tmp", self.segment));
            std::fs::write(tmp, &self.segment_bytes[..cut]).unwrap();
            return 1;
        }
        std::fs::write(seg, &self.segment_bytes).unwrap();
        match stage {
            1 => 1,
            2 => {
                let tmp = dir.join(format!("{MANIFEST_FILE}.tmp"));
                std::fs::write(tmp, &self.manifest[..cut]).unwrap();
                2
            }
            _ => {
                std::fs::write(dir.join(MANIFEST_FILE), &self.manifest).unwrap();
                0
            }
        }
    }
}

/// Contract 1: sweep every crash state of one commit and check that
/// the next open lands on exactly one side of it.
#[test]
fn every_crash_state_of_a_commit_opens_to_one_side_of_it() {
    let dir = tmp_dir("sweep");
    let base_set = SourceSet {
        sources: vec![
            medline(
                "base0",
                "TI  - alpha beta gamma\nAB  - alpha words here\n\n",
            ),
            medline("base1", "TI  - delta beta\nAB  - more delta text\n\n"),
        ],
    };
    let base_path = dir.join("base.isnap");
    build_snapshot(&base_set, &base_path, 1);
    let template = dir.join("template");
    let mut ing = IngestDir::create(&template, Some(&base_path)).expect("create");
    ing.append(medline("a", "TI  - epsilon gamma\nAB  - epsilon body\n\n"))
        .expect("append");
    ing.delete(vec![0]).expect("delete");
    drop(ing);
    let batch = medline("b", "TI  - zeta alpha\nAB  - zeta tail record\n\n");
    let commit = Commit::of(&template, &batch);
    let before = files(&template);

    let trial = dir.join("trial");
    copy_dir(&template, &trial);
    commit.plant(&trial, 3, 0);
    let post_state = load_live_state(&trial).expect("post-commit view");
    let requests = build_requests(&post_state);
    let post = answers(&post_state, &requests);
    let pre = answers(&load_live_state(&template).expect("view"), &requests);
    assert_ne!(pre, post, "the batch must change some answer");

    let mut states: Vec<(usize, usize)> = (0..=commit.segment_bytes.len())
        .map(|cut| (0, cut))
        .collect();
    states.push((1, 0));
    states.extend((0..=commit.manifest.len()).map(|cut| (2, cut)));
    for (stage, cut) in states {
        let at = format!("crash at stage {stage}, cut {cut}");
        copy_dir(&template, &trial);
        let strays = commit.plant(&trial, stage, cut);
        let mut ing = IngestDir::open(&trial).expect(&at);
        assert_eq!(ing.recovery.removed_strays, strays, "{at}");
        let after = files(&trial);
        let names = |f: &[(String, Vec<u8>)]| f.iter().map(|e| e.0.clone()).collect::<Vec<_>>();
        assert!(
            after == before,
            "{at}: open must leave the old generation, left {:?}",
            names(&after)
        );
        let state = load_live_state(&trial).expect(&at);
        assert_eq!(answers(&state, &requests), pre, "{at}");
        let again = ing.append(batch.clone()).expect(&at);
        assert_eq!(again.segment_file, commit.segment, "{at}");
        let segment = std::fs::read(trial.join(&commit.segment)).unwrap();
        assert!(
            segment == commit.segment_bytes,
            "{at}: re-append wrote other bytes"
        );
    }
    copy_dir(&template, &trial);
    commit.plant(&trial, 3, 0);
    let ing = IngestDir::open(&trial).expect("open the landed commit");
    assert_eq!(ing.recovery.removed_strays, 0);
    assert_eq!(ing.total_docs(), post_state.total_docs());
    let state = load_live_state(&trial).expect("view");
    assert_eq!(answers(&state, &requests), post);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Contract 1's previous layout: a directory whose manifest is
/// `inspire-ingest-manifest v1` (which recorded how much of a
/// write-ahead log was sealed) is refused at open by name, pointing at
/// `vaengine migrate --dir`. `migrate_dir` refuses it while the log
/// does not end at the sealed length, naming both, and otherwise
/// publishes the current manifest and removes the log; served bodies
/// are unchanged.
#[test]
fn a_previous_layout_directory_is_refused_until_migrated() {
    let dir = tmp_dir("migrate");
    let set = CorpusSpec::pubmed(64 * 1024, 13).generate();
    let half = set.sources.len() / 2;
    let base_path = dir.join("base.isnap");
    build_snapshot(
        &SourceSet {
            sources: set.sources[..half].to_vec(),
        },
        &base_path,
        1,
    );
    let live = dir.join("live");
    let mut ing = IngestDir::create(&live, Some(&base_path)).expect("create");
    for src in &set.sources[half..] {
        ing.append(src.clone()).expect("append");
    }
    ing.delete(vec![1, 3]).expect("delete");
    drop(ing);
    let state = load_live_state(&live).expect("view");
    let requests = interleaving_requests(&state, &[1, 3]);
    let want = answers(&state, &requests);

    // The previous layout, from the current manifest: the old magic, a
    // watermark line after `base_docs`, and a CRC over both.
    let current = std::fs::read_to_string(live.join(MANIFEST_FILE)).unwrap();
    let sealed = 4242usize;
    let body = current[..current.rfind("crc 0x").unwrap()]
        .replacen("manifest v2\n", "manifest v1\n", 1)
        .replacen(
            "\nlast_seal_unix",
            &format!("\nwal_sealed_bytes {sealed}\nlast_seal_unix"),
            1,
        );
    let v1 = format!(
        "{body}crc 0x{:08x}\n",
        inspire_store::crc32(body.as_bytes())
    );
    std::fs::write(live.join(MANIFEST_FILE), &v1).unwrap();

    let refusals = [
        IngestDir::open(&live)
            .err()
            .expect("a v1 manifest must not open"),
        load_live_state(&live).err().expect("nor serve"),
    ];
    for err in refusals {
        let msg = err.to_string();
        assert!(msg.contains("inspire-ingest-manifest v1"), "{msg}");
        assert!(msg.contains("vaengine migrate --dir"), "{msg}");
    }
    // A log that runs past the watermark holds acknowledged batches no
    // segment has; one that ends before it has lost sealed bytes.
    for len in [sealed + 9, sealed - 1] {
        std::fs::write(live.join(WAL_FILE), vec![7u8; len]).unwrap();
        let msg = migrate_dir(&live).expect_err("refused").to_string();
        assert!(msg.contains(WAL_FILE), "{msg}");
        assert!(msg.contains(&format!("{len} bytes")), "{msg}");
        assert!(msg.contains(&format!("seals {sealed}")), "{msg}");
        assert_eq!(
            std::fs::read_to_string(live.join(MANIFEST_FILE)).unwrap(),
            v1
        );
    }

    std::fs::write(live.join(WAL_FILE), vec![7u8; sealed]).unwrap();
    assert!(migrate_dir(&live).expect("converts"));
    assert!(!live.join(WAL_FILE).exists());
    let converted = std::fs::read_to_string(live.join(MANIFEST_FILE)).unwrap();
    assert_eq!(converted, current);
    assert_eq!(
        answers(&load_live_state(&live).expect("view"), &requests),
        want
    );
    assert!(!migrate_dir(&live).expect("already current"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Contract 1 at the CLI: `vaengine ingest` on a directory holding a
/// killed commit's leftovers reports the strays it removed, and
/// `vaengine migrate --dir` calls a current directory current and exits
/// 1, naming the reason, on a directory that is not an ingest one.
#[test]
fn cli_reports_removed_strays_and_current_layouts() {
    let dir = tmp_dir("cli");
    let live = dir.join("live");
    let mut ing = IngestDir::create(&live, None).expect("create");
    ing.append(medline("a", "TI  - alpha beta\nAB  - alpha words\n\n"))
        .expect("append");
    drop(ing);
    let killed = Commit::of(&live, &medline("b", "TI  - gamma delta\n\n"));
    assert_eq!(killed.plant(&live, 2, 7), 2);
    let run = |args: &[&str]| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_vaengine"))
            .args(args)
            .output()
            .expect("run vaengine");
        let text = |b: Vec<u8>| String::from_utf8_lossy(&b).into_owned();
        (out.status.code(), text(out.stdout), text(out.stderr))
    };
    let live = live.to_str().expect("UTF-8 path");
    let (code, out, err) = run(&["ingest", "--dir", live]);
    assert_eq!(code, Some(0), "{err}");
    assert!(out.contains("recovered: 2 strays removed"), "{out}");
    let (code, out, err) = run(&["migrate", "--dir", live]);
    assert_eq!(code, Some(0), "{err}");
    assert!(out.contains("already current"), "{out}");
    let (code, _, err) = run(&["migrate", "--dir", dir.to_str().unwrap()]);
    assert_eq!(code, Some(1));
    assert!(err.contains("not an ingest directory"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Contracts 2 and 3: the flagship kill-mid-ingest scenario, then
/// compaction on top of it.
#[test]
fn killed_ingest_replays_to_clean_rebuild_bodies() {
    let dir = tmp_dir("kill");
    let set = CorpusSpec::pubmed(96 * 1024, 11).generate();
    let n = set.sources.len();
    assert!(n >= 8, "need at least 8 sources, got {n}");
    let base_half = n / 2;
    let base_set = SourceSet {
        sources: set.sources[..base_half].to_vec(),
    };
    let base_path = dir.join("base.isnap");
    build_snapshot(&base_set, &base_path, 1);

    // Every batch but the last commits; the last one's commit is killed
    // after its segment landed, half-way through the manifest's tmp file.
    let live = dir.join("live");
    let mut ing = IngestDir::create(&live, Some(&base_path)).expect("create");
    for src in &set.sources[base_half..n - 1] {
        ing.append(src.clone()).expect("append");
    }
    drop(ing);
    let killed = Commit::of(&live, &set.sources[n - 1]);
    assert_eq!(killed.plant(&live, 2, killed.manifest.len() / 2), 2);

    let ing = IngestDir::open(&live).expect("recovery");
    assert_eq!(ing.recovery.removed_strays, 2, "the killed commit's files");
    drop(ing);

    // The logical corpus after recovery: every acknowledged batch. A
    // clean rebuild of it — at P=1 and at P=4 — must serve the same
    // bytes the merged view serves.
    let survived = SourceSet {
        sources: set.sources[..n - 1].to_vec(),
    };
    let live_state = load_live_state(&live).expect("merged view");
    assert_eq!(live_state.total_docs(), {
        let clean: u32 = survived
            .sources
            .iter()
            .map(|s| s.record_ranges().len() as u32)
            .sum();
        clean
    });
    let requests = build_requests(&live_state);
    let live_bodies = bodies(&live_state, &requests);
    for procs in [1usize, 4] {
        let clean_path = dir.join(format!("clean-p{procs}.isnap"));
        build_snapshot(&survived, &clean_path, procs);
        let clean_state = ServeState::load(&clean_path).expect("clean load");
        assert_eq!(
            bodies(&clean_state, &requests),
            live_bodies,
            "merged view diverged from the P={procs} rebuild"
        );
    }

    // Contract 3: compaction changes nothing; strays vanish on reopen.
    let mut ing = IngestDir::open(&live).expect("reopen");
    let before = ing.manifest().segments.len();
    assert!(before > 1);
    ing.compact().expect("compact").expect("folds");
    assert_eq!(ing.manifest().segments.len(), 1);
    drop(ing);
    let compacted = load_live_state(&live).expect("compacted view");
    assert_eq!(compacted.segments_open(), 1);
    assert_eq!(
        bodies(&compacted, &requests),
        live_bodies,
        "compaction changed served bytes"
    );

    std::fs::write(live.join("seg-999999.iseg"), b"stray").unwrap();
    std::fs::write(live.join("seg-000001.iseg.tmp"), b"half-written").unwrap();
    let ing = IngestDir::open(&live).expect("stray cleanup open");
    assert_eq!(ing.recovery.removed_strays, 2);
    assert!(!live.join("seg-999999.iseg").exists());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Contract 2 without any crash: plain incremental ingestion equals the
/// full rebuild, at P=1 and P=4.
#[test]
fn merge_on_read_matches_full_rebuild() {
    let dir = tmp_dir("merge");
    let set = CorpusSpec::pubmed(96 * 1024, 23).generate();
    let half = set.sources.len() / 2;
    let base_set = SourceSet {
        sources: set.sources[..half].to_vec(),
    };
    let base_path = dir.join("base.isnap");
    build_snapshot(&base_set, &base_path, 1);
    let live = dir.join("live");
    let mut ing = IngestDir::create(&live, Some(&base_path)).expect("create");
    for src in &set.sources[half..] {
        ing.append(src.clone()).expect("append");
    }
    drop(ing);

    let live_state = load_live_state(&live).expect("merged view");
    let requests = build_requests(&live_state);
    let live_bodies = bodies(&live_state, &requests);
    for procs in [1usize, 4] {
        let clean_path = dir.join(format!("clean-p{procs}.isnap"));
        build_snapshot(&set, &clean_path, procs);
        let clean_state = ServeState::load(&clean_path).expect("clean load");
        assert_eq!(
            bodies(&clean_state, &requests),
            live_bodies,
            "merged view diverged from the P={procs} rebuild"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Contract 4: tombstoned documents disappear from enumeration while
/// stats keep LSM semantics, before and after compaction.
#[test]
fn tombstones_hide_deleted_docs_across_compaction() {
    let dir = tmp_dir("tomb");
    let base_set = SourceSet {
        sources: vec![
            medline(
                "base0",
                "TI  - shared topic alpha\nAB  - alpha base words\n\n",
            ),
            medline(
                "base1",
                "TI  - shared topic beta\nAB  - beta base words\n\n",
            ),
        ],
    };
    let base_path = dir.join("base.isnap");
    build_snapshot(&base_set, &base_path, 1);
    let live = dir.join("live");
    let mut ing = IngestDir::create(&live, Some(&base_path)).expect("create");
    ing.append(medline(
        "inc0",
        "TI  - shared topic gamma\nAB  - gamma incoming words\n\n",
    ))
    .expect("append");

    let before = load_live_state(&live).expect("view");
    let topic = before.term_id("topic").expect("'topic' indexed");
    let victim = before.total_docs() - 1; // the ingested doc
    let pre_docs: Vec<u32> = before.postings_of(topic).iter().map(|p| p.doc).collect();
    assert!(pre_docs.contains(&victim));
    let df_before = before.df(topic);
    let total_before = before.total_docs();

    ing.delete(vec![victim]).expect("delete");
    drop(ing);
    for compacted in [false, true] {
        if compacted {
            let mut ing = IngestDir::open(&live).expect("reopen");
            ing.compact().expect("compact").expect("folds");
        }
        let after = load_live_state(&live).expect("view");
        let docs: Vec<u32> = after.postings_of(topic).iter().map(|p| p.doc).collect();
        assert!(
            !docs.contains(&victim),
            "tombstoned doc still served (compacted={compacted})"
        );
        let hits = visual_analytics::engine::query::search_in(&after, "shared topic", 10);
        assert!(hits.iter().all(|h| h.doc != victim));
        // LSM stats semantics: deletion rescales nothing until a full
        // rebuild folds the base.
        assert_eq!(after.df(topic), df_before);
        assert_eq!(after.total_docs(), total_before);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The signature stage's rule applied to `sources` record by record:
/// each record's `tokenize_batch` doc-total frequencies, in term order,
/// over `snap`'s major-term association rows.
fn rule_signatures(sources: &[corpus::Source], snap: &EngineSnapshot) -> Vec<Vec<f64>> {
    let terms = snap.terms().expect("base vocabulary");
    let (m, assoc) = (snap.meta().m_dims, snap.get::<f64>(&ASSOC));
    let rows: HashMap<&str, usize> = (snap.get::<u32>(&MAJOR).iter().enumerate())
        .map(|(row, &t)| (terms.get(t as usize), row))
        .collect();
    let mut out = Vec::new();
    for src in sources {
        let mut interner = intern::TermInterner::new();
        for doc in tokenize_batch(src, &Tokenizer::default(), &mut interner) {
            let mut freqs: BTreeMap<&str, u32> = BTreeMap::new();
            for &(id, n) in doc.fields.iter().flat_map(|f| &f.counts) {
                *freqs.entry(interner.get(id)).or_default() += n;
            }
            let pairs =
                (freqs.into_iter()).filter_map(|(t, f)| Some((&assoc[rows.get(t)? * m..][..m], f)));
            let mut sig = vec![0.0; m];
            record_signature(pairs, &mut sig);
            out.push(sig);
        }
    }
    out
}

/// Contract 5: every document of a live directory — base documents from
/// their `sigs` rows, live ones derived from segment postings — carries
/// exactly the signature the engine's rule gives its record, before and
/// after compaction.
#[test]
fn live_signatures_follow_the_signature_stage_rule() {
    let dir = tmp_dir("livesig");
    let set = CorpusSpec {
        source_bytes: 8 * 1024,
        ..CorpusSpec::pubmed(256 * 1024, 31)
    }
    .generate();
    let (base_sources, batches) = set.sources.split_at(16);
    assert!(batches.len() >= 8, "got {} batches", batches.len());
    let base_path = dir.join("base.isnap");
    build_snapshot(
        &SourceSet {
            sources: base_sources.to_vec(),
        },
        &base_path,
        1,
    );
    let live = dir.join("live");
    let mut ing = IngestDir::create(&live, Some(&base_path)).expect("create");
    for src in batches {
        ing.append(src.clone()).expect("append");
    }
    for compacted in [false, true] {
        if compacted {
            ing.compact().expect("compact").expect("folds");
        }
        let state = load_live_state(&live).expect("live view");
        let want = rule_signatures(&set.sources, state.snapshot());
        assert_eq!(want.len(), state.total_docs() as usize);
        let base_docs = state.meta.total_docs as usize;
        assert!(want.len() > base_docs, "no live documents");
        for (doc, want) in want.iter().enumerate() {
            let got = state.doc_signature(doc as u32).expect("signed");
            let bits = |s: &[f64]| s.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(got),
                bits(want),
                "doc {doc} (base has {base_docs}, compacted={compacted}) is not signed by the rule"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Contract 6: segment files swapped on disk disagree with the
/// manifest's document ranges. Compaction must refuse, name the
/// segment, and leave every input and the manifest as it found them.
#[test]
fn compaction_refuses_segments_that_disagree_with_the_manifest() {
    let dir = tmp_dir("swap");
    let mut ing = IngestDir::create(&dir, None).expect("create");
    for (name, text) in [
        ("a", "TI  - alpha beta\nAB  - gamma words\n\n"),
        ("b", "TI  - delta beta\nAB  - epsilon text\n\n"),
        ("c", "TI  - zeta alpha\nAB  - eta record\n\n"),
    ] {
        ing.append(medline(name, text)).expect("append");
    }
    drop(ing);
    let files: Vec<PathBuf> = (1..=3)
        .map(|i| dir.join(format!("seg-{i:06}.iseg")))
        .collect();
    let (first, second) = (
        std::fs::read(&files[0]).unwrap(),
        std::fs::read(&files[1]).unwrap(),
    );
    std::fs::write(&files[0], &second).unwrap();
    std::fs::write(&files[1], &first).unwrap();
    let manifest = std::fs::read(dir.join(MANIFEST_FILE)).unwrap();

    let err = compact_dir(&dir).expect_err("compaction over swapped segments must fail");
    assert!(err.to_string().contains("seg-000001.iseg"), "{err}");
    for f in &files {
        assert!(f.exists(), "{} was removed", f.display());
    }
    assert!(!dir.join("seg-000004.iseg").exists());
    assert_eq!(std::fs::read(dir.join(MANIFEST_FILE)).unwrap(), manifest);
    let m = Manifest::load(&dir).expect("the manifest still loads");
    assert_eq!(m.expect("present").segments.len(), 3);
    let _ = std::fs::remove_dir_all(&dir);
}

/// SplitMix64: the interleaving test's only source of randomness, so a
/// failing seed replays exactly.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// `build_requests` plus `/similar` by document (a base document, the
/// newest document, one in between, and every document deleted so far)
/// and by text.
fn interleaving_requests(state: &ServeState, deleted: &[u32]) -> Vec<ServeRequest> {
    let mut out = build_requests(state);
    let text = match &out[0] {
        ServeRequest::Term { term, .. } => term.clone(),
        other => panic!("build_requests starts with a term lookup, got {other:?}"),
    };
    // Ranked search with a repeated token, and cut to the single best
    // hit: the merge over many segments and tombstones must add and
    // tie-break exactly as it does over one component.
    let pair = match &out[2] {
        ServeRequest::Search { text, .. } => text.clone(),
        other => panic!("build_requests' third request is a search, got {other:?}"),
    };
    out.push(ServeRequest::Search {
        text: format!("{pair} {text}"),
        top: 10,
    });
    out.push(ServeRequest::Search { text: pair, top: 1 });
    let docs = state.total_docs();
    let probes = [(0, 8), (docs / 2, 1), (docs - 1, 8)];
    for (doc, nprobe) in probes.into_iter().chain(deleted.iter().map(|&d| (d, 8))) {
        out.push(ServeRequest::Similar {
            doc: Some(doc),
            text: None,
            top: 5,
            nprobe,
        });
    }
    out.push(ServeRequest::Similar {
        doc: None,
        text: Some(text),
        top: 5,
        nprobe: 8,
    });
    out
}

/// Bodies *or* client errors: `/similar?doc=` of a tombstoned document
/// is a 400 that every view must report identically.
fn answers(state: &ServeState, requests: &[ServeRequest]) -> Vec<String> {
    requests
        .iter()
        .map(|r| match execute(state, r) {
            Ok(body) => body,
            Err(e) => format!("{} {}", e.status, e.message),
        })
        .collect()
}

/// Seeds that once failed, one per line, re-run before the standing ones.
fn regression_seeds() -> Vec<u64> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/ingest_recovery.seeds");
    std::fs::read_to_string(path)
        .expect("tests/ingest_recovery.seeds is checked in")
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|l| l.trim().parse().expect("one decimal seed per line"))
        .collect()
}

/// Contract 7: compaction and crash recovery are invisible under
/// *arbitrary* interleavings. Each seed drives two ingest directories
/// over one base through 40 random steps: the subject takes appends,
/// deletes, compactions and crash-reopens (half of them with the
/// leftovers of a killed commit to remove); its twin takes only the
/// appends and deletes, cleanly. After every step both must answer the whole request
/// set — `/similar` included — with the same bytes, and, until the first
/// delete, the term/boolean/search bodies must equal a full rebuild's.
#[test]
fn random_interleavings_serve_identical_bodies() {
    const STEPS: usize = 40;
    let root = tmp_dir("interleave");
    let set = CorpusSpec {
        source_bytes: 2 * 1024,
        ..CorpusSpec::pubmed(96 * 1024, 31)
    }
    .generate();
    assert!(set.sources.len() >= 40, "got {}", set.sources.len());
    let (base_sources, pool) = set.sources.split_at(16);
    let base_path = root.join("base.isnap");
    build_snapshot(
        &SourceSet {
            sources: base_sources.to_vec(),
        },
        &base_path,
        1,
    );

    let mut seeds = regression_seeds();
    seeds.extend(1..=8);
    for seed in seeds {
        let mut rng = Rng(seed);
        let subject = root.join(format!("subject-{seed}"));
        let twin = root.join(format!("twin-{seed}"));
        let mut ing = IngestDir::create(&subject, Some(&base_path)).expect("create subject");
        let mut clean = IngestDir::create(&twin, Some(&base_path)).expect("create twin");
        let mut pool = pool.iter();
        let mut corpus = base_sources.to_vec();
        let mut deleted: Vec<u32> = Vec::new();
        // Deletes end the rebuild comparison, so seeds start them at
        // different points of the run.
        let deletes_from = (seed % 4) as usize * 6;
        for step in 0..STEPS {
            let at = format!("seed {seed} step {step}");
            let mut rebuilt = false;
            let op = match rng.below(10) {
                0..=3 => "append",
                4..=5 if step >= deletes_from => "delete",
                4..=5 => "append",
                6..=7 => "compact",
                _ => "reopen",
            };
            let next = if matches!(op, "append" | "reopen") {
                pool.next()
            } else {
                None
            };
            match (op, next) {
                ("append", Some(src)) => {
                    ing.append(src.clone()).expect("append");
                    clean.append(src.clone()).expect("twin append");
                    corpus.push(src.clone());
                    rebuilt = true;
                }
                ("delete", _) => {
                    let ids: Vec<u32> = (0..1 + rng.below(2))
                        .map(|_| rng.below(ing.total_docs() as usize) as u32)
                        .collect();
                    ing.delete(ids.clone()).expect("delete");
                    clean.delete(ids.clone()).expect("twin delete");
                    deleted.extend(ids);
                }
                ("reopen", next) => {
                    // Crash: part-way through committing the next pool
                    // batch (when the pool still has one), or idle. The
                    // killed commit was never acknowledged, so the batch
                    // is lost and the twin never sees it.
                    drop(ing);
                    let mut strays = 0;
                    if let Some(src) = next.filter(|_| rng.below(2) == 0) {
                        let killed = Commit::of(&subject, src);
                        let stage = rng.below(3);
                        let len = match stage {
                            0 => killed.segment_bytes.len(),
                            _ => killed.manifest.len(),
                        };
                        strays = killed.plant(&subject, stage, rng.below(len + 1));
                    }
                    ing = IngestDir::open(&subject).expect("recovery open");
                    assert_eq!(ing.recovery.removed_strays, strays, "{at}");
                }
                // "compact", and "append" once the pool is spent.
                _ => {
                    ing.compact().expect("compact");
                }
            }
            assert_eq!(ing.total_docs(), clean.total_docs(), "{at}");

            let state = load_live_state(&subject).expect("subject view");
            assert!(
                state.has_ann(),
                "a degenerate base would 409 every /similar"
            );
            let requests = interleaving_requests(&state, &deleted);
            let got = answers(&state, &requests);
            let want = answers(&load_live_state(&twin).expect("twin view"), &requests);
            for ((req, got), want) in requests.iter().zip(&got).zip(&want) {
                assert_eq!(
                    got, want,
                    "{at}: {op} diverged from the clean twin on {req:?}"
                );
            }
            if rebuilt && deleted.is_empty() {
                let clean_path = root.join("rebuild.isnap");
                build_snapshot(
                    &SourceSet {
                        sources: corpus.clone(),
                    },
                    &clean_path,
                    1,
                );
                let rebuild = ServeState::load(&clean_path).expect("rebuild loads");
                let index_requests = build_requests(&state);
                assert_eq!(
                    bodies(&state, &index_requests),
                    bodies(&rebuild, &index_requests),
                    "{at}: {op} diverged from the full rebuild"
                );
            }
        }
        drop((ing, clean));
        std::fs::remove_dir_all(&subject).ok();
        std::fs::remove_dir_all(&twin).ok();
    }
    let _ = std::fs::remove_dir_all(&root);
}
