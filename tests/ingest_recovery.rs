//! Crash-recovery and merge-on-read equivalence tests for the live
//! ingestion subsystem.
//!
//! The contracts under test, end to end:
//!
//! 1. **One side of the commit, exactly** — a commit (a whole `ingest`
//!    run: several files and deletes) publishes one segment, then the
//!    manifest that names it. For every crash state of that sequence —
//!    each prefix of the segment's tmp file, the segment complete under
//!    the old manifest, that plus each prefix of the manifest's tmp
//!    file, and the new manifest in place — the next open serves the
//!    pre-commit bodies with no stray left and none of the batch visible
//!    (and committing again writes the same segment bytes), or the
//!    post-commit ones. A batch commit seals the segment compaction folds
//!    out of the same inputs committed one by one. A directory in the
//!    previous layout is refused until migrated.
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
//! 7. **Arbitrary interleavings** of appends, deletes, compactions and
//!    crash-reopens serve what a twin directory that only appends and
//!    deletes serves.
//! 8. **A base holds an index** — a directory is not created over a
//!    snapshot that predates the Index stage: the refusal names the
//!    stage and leaves no manifest, nor the directory.
//! 9. **A corrupt live file is refused on every flip** — one flipped
//!    byte in the base, a segment or the manifest makes the load fail
//!    naming the file, without a panic; restored, it serves as before.

use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use visual_analytics::engine::pipeline::run_engine;
use visual_analytics::engine::query::{Query, SearchIndex};
use visual_analytics::engine::scan::scan_sources;
use visual_analytics::engine::signature::record_signature;
use visual_analytics::engine::snapshot::checkpoint_path;
use visual_analytics::engine::snapshot::schema::{ASSOC, MAJOR};
use visual_analytics::engine::{EngineConfig, EngineSnapshot, Stage};
use visual_analytics::ingest::{migrate_dir, IngestDir, Manifest, MANIFEST_FILE, WAL_FILE};
use visual_analytics::perfmodel::CostModel;
use visual_analytics::prelude::{CorpusSpec, SourceSet};
use visual_analytics::serve::{execute, load_live_state, ServeRequest, ServeState};

mod common;
use common::{
    build_snapshot, copy_dir, frequent_terms, generate_pubmed, query_json, words, Scratch,
};

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

/// The two files one commit publishes, in order: its segment, then the
/// manifest that names it.
struct Commit {
    segment: String,
    segment_bytes: Vec<u8>,
    manifest: Vec<u8>,
}

impl Commit {
    /// Commit `sources` and `delete` on a copy of `dir` and keep what it
    /// published; `dir` itself is untouched.
    fn of(dir: &Path, sources: &[corpus::Source], delete: &[u32]) -> Commit {
        let copy = dir.with_extension("commit");
        copy_dir(dir, &copy);
        let mut ing = IngestDir::open(&copy).expect("open the copy");
        let segment = ing
            .commit(sources, delete.to_vec())
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
    let dir = Scratch::new("sweep");
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
    // Three files, one document each (docs 3, 4 and 5), and deletes of
    // base document 1 and of the batch's own document 4.
    let batch = [
        medline("b", "TI  - zeta alpha\nAB  - zeta tail record\n\n"),
        medline("c", "TI  - eta beta\nAB  - eta middle record\n\n"),
        medline("d", "TI  - theta gamma\nAB  - theta last record\n\n"),
    ];
    let (deletes, own) = ([1, 4], ["zeta", "eta", "theta"]);
    let commit = Commit::of(&template, &batch, &deletes);
    let before = files(&template);

    let trial = dir.join("trial");
    copy_dir(&template, &trial);
    commit.plant(&trial, 3, 0);
    let post_state = load_live_state(&trial).expect("post-commit view");
    let requests = build_requests(&post_state);
    let post = answers(&post_state, &requests);
    let pre_state = load_live_state(&template).expect("view");
    let pre = answers(&pre_state, &requests);
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
        assert_eq!(state.total_docs(), pre_state.total_docs(), "{at}");
        assert!(own.iter().all(|t| state.term_id(t).is_none()), "{at}");
        let again = ing.commit(&batch, deletes.to_vec()).expect(&at);
        assert_eq!(again.segment_file, commit.segment, "{at}");
        let segment = std::fs::read(trial.join(&commit.segment)).unwrap();
        assert!(
            segment == commit.segment_bytes,
            "{at}: committing again wrote other bytes"
        );
    }
    copy_dir(&template, &trial);
    commit.plant(&trial, 3, 0);
    let ing = IngestDir::open(&trial).expect("open the landed commit");
    assert_eq!(ing.recovery.removed_strays, 0);
    assert_eq!(ing.total_docs(), pre_state.total_docs() + 3);
    let was = Manifest::require(&template).unwrap().generation;
    assert_eq!(ing.manifest().generation, was + 1);
    let state = load_live_state(&trial).expect("view");
    assert_eq!(answers(&state, &requests), post);
    assert!(own.iter().all(|t| state.term_id(t).is_some()));
    assert!(deletes.iter().all(|&d| state.is_deleted(d)));
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
    let dir = Scratch::new("migrate");
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
}

/// Contract 1 at the CLI: `vaengine ingest` on a directory holding a
/// killed commit's leftovers reports the strays it removed, and
/// `vaengine migrate --dir` calls a current directory current and exits
/// 1, naming the reason, on a directory that is not an ingest one.
#[test]
fn cli_reports_removed_strays_and_current_layouts() {
    let dir = Scratch::new("cli");
    let live = dir.join("live");
    let mut ing = IngestDir::create(&live, None).expect("create");
    ing.append(medline("a", "TI  - alpha beta\nAB  - alpha words\n\n"))
        .expect("append");
    drop(ing);
    let killed = Commit::of(&live, &[medline("b", "TI  - gamma delta\n\n")], &[]);
    assert_eq!(killed.plant(&live, 2, 7), 2);
    let out = dir.vaengine(&["ingest", "--dir", "live"]).ok().stdout;
    assert!(out.contains("recovered: 2 strays removed"), "{out}");
    let out = dir.vaengine(&["migrate", "--dir", "live"]).ok().stdout;
    assert!(out.contains("already current"), "{out}");
    let refused = dir.vaengine(&["migrate", "--dir", "."]);
    assert_eq!(refused.code, Some(1));
    assert!(
        refused.stderr.contains("not an ingest directory"),
        "{}",
        refused.stderr
    );
}

/// Contract 1 at the CLI: one `vaengine ingest` run of four files and
/// two deletes — a base document and one the run adds — adds one
/// segment and one generation, and every `query --json` body over it
/// equals the body over a twin directory built by per-file appends and
/// one delete.
#[test]
fn one_ingest_run_is_one_segment_and_one_generation() {
    let dir = Scratch::new("cli-run");
    generate_pubmed(&dir, "9");
    let mut names: Vec<String> = (std::fs::read_dir(dir.join("corpus")).unwrap())
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    let (base_files, run_files) = names.split_at(names.len() - 4);
    for (part, files) in [("base", base_files), ("run", run_files)] {
        std::fs::create_dir_all(dir.join(part)).unwrap();
        for name in files {
            std::fs::copy(dir.join("corpus").join(name), dir.join(part).join(name)).unwrap();
        }
    }
    dir.vaengine(&words("snapshot --input base --procs 1 --out base.isnap"))
        .ok();
    dir.vaengine(&words("ingest --dir live --base base.isnap"))
        .ok();
    let created = Manifest::require(&dir.join("live")).unwrap();
    let own = created.base_docs + 1;
    let line = format!("ingest --dir live --input run --delete 3,{own}");
    let run = dir.vaengine(&words(&line)).ok().stdout;
    assert_eq!(run.matches("sealed").count(), 1, "{run}");
    let m = Manifest::require(&dir.join("live")).unwrap();
    assert_eq!(m.generation, created.generation + 1, "{run}");
    assert_eq!(m.segments.len(), 1, "{run}");

    let sources = corpus::load::load_dir(&dir.join("run")).unwrap().sources;
    assert_eq!(sources.len(), 4);
    let mut twin = IngestDir::create(&dir.join("twin"), Some(&dir.join("base.isnap"))).unwrap();
    for src in sources {
        twin.append(src).unwrap();
    }
    twin.delete(vec![3, own]).unwrap();
    assert_eq!(twin.total_docs(), m.next_doc_base());

    let state = load_live_state(&dir.join("live")).unwrap();
    let t = frequent_terms(&state, 2);
    let (both, pair) = (format!("{} AND {}", t[0], t[1]), t.join(" "));
    let newest = (m.next_doc_base() - 1).to_string();
    let whole = "-1e300,-1e300,1e300,1e300";
    let mut asked: Vec<Vec<&str>> = vec![
        vec!["--term", &t[0], "--top", "10000"],
        vec!["--query", &both],
        vec!["--search", &pair],
        vec!["--cluster", "0"],
        vec!["--rect", whole, "--top", "10000"],
    ];
    for nprobe in ["1", "4", "16"] {
        for doc in ["0", &newest] {
            asked.push(vec!["--similar", doc, "--nprobe", nprobe]);
        }
        asked.push(vec!["--similar-text", &pair, "--nprobe", nprobe]);
    }
    for args in asked {
        let body = |live: &str| query_json(&dir, &[&["--ingest-dir", live][..], &args].concat());
        assert_eq!(body("live"), body("twin"), "{args:?}");
    }
}

/// Contracts 2 and 3: the flagship kill-mid-ingest scenario, then
/// compaction on top of it.
#[test]
fn killed_ingest_replays_to_clean_rebuild_bodies() {
    let dir = Scratch::new("kill");
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
    let killed = Commit::of(&live, &set.sources[n - 1..], &[]);
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
}

/// Contract 2 without any crash: plain incremental ingestion equals the
/// full rebuild, at P=1 and P=4.
#[test]
fn merge_on_read_matches_full_rebuild() {
    let dir = Scratch::new("merge");
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
}

/// Contract 4: tombstoned documents disappear from enumeration while
/// stats keep LSM semantics, before and after compaction.
#[test]
fn tombstones_hide_deleted_docs_across_compaction() {
    let dir = Scratch::new("tomb");
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
}

/// Contract 8: a Scan checkpoint holds no inverted index, so no
/// directory is created over it — no manifest is written, and no
/// directory either — with an error that names its stage. The Index
/// checkpoint of the same run is a base.
#[test]
fn a_base_that_predates_the_index_stage_is_refused_at_create() {
    let dir = Scratch::new("scan-base");
    let ckpt = dir.join("ckpt");
    let cfg = EngineConfig {
        checkpoint_dir: Some(ckpt.clone()),
        ..EngineConfig::for_testing()
    };
    let set = CorpusSpec::pubmed(64 * 1024, 5).generate();
    run_engine(1, Arc::new(CostModel::zero()), &set, &cfg);
    let live = dir.join("live");
    let scan = checkpoint_path(&ckpt, Stage::Scan);
    let err = (IngestDir::create(&live, Some(&scan)).err()).expect("a Scan base is refused");
    assert!(err.to_string().contains("stage Scan"), "{err}");
    assert!(!live.join(MANIFEST_FILE).exists(), "a manifest was written");
    assert!(!live.exists(), "the directory was created");
    let index = checkpoint_path(&ckpt, Stage::Index);
    IngestDir::create(&live, Some(&index)).expect("an Index checkpoint is a base");
    assert!(live.join(MANIFEST_FILE).exists());
}

/// `(offset, padded extent)` of every section in a snapshot container's
/// bytes, read from its header and section table, and the table's own
/// `(offset, length)`.
fn section_extents(bytes: &[u8]) -> (Vec<(usize, usize)>, (usize, usize)) {
    let word = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
    let count = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
    let table = word(16);
    let sections = (0..count)
        .map(|i| {
            let entry = table + 32 * i;
            (word(entry + 8), (8 + word(entry + 16)).next_multiple_of(64))
        })
        .collect();
    (sections, (table, 32 * count))
}

#[test]
fn a_corrupt_live_file_is_refused_on_every_load_and_never_served() {
    let dir = Scratch::new("corrupt-live");
    let set = CorpusSpec {
        source_bytes: 8 * 1024,
        ..CorpusSpec::pubmed(128 * 1024, 29)
    }
    .generate();
    let (base_sources, batches) = set.sources.split_at(set.sources.len() - 3);
    let base = dir.join("base.isnap");
    build_snapshot(
        &SourceSet {
            sources: base_sources.to_vec(),
        },
        &base,
        1,
    );
    let live = dir.join("live");
    let mut ing = IngestDir::create(&live, Some(&base)).expect("create");
    for src in batches {
        ing.append(src.clone()).expect("append");
    }
    let segment = live.join(&ing.manifest().segments[1].file);
    drop(ing);
    let state = load_live_state(&live).expect("pristine load");
    let requests = build_requests(&state);
    let want = bodies(&state, &requests);

    let base_bytes = std::fs::read(&base).expect("read base");
    let (sections, (table, table_len)) = section_extents(&base_bytes);
    let &(largest, extent) = sections.iter().max_by_key(|s| s.1).expect("a section");
    assert!(extent >= 4096, "the largest section is the kernel's bulk");
    let seg_bytes = std::fs::read(&segment).expect("read segment");
    let (seg_sections, _) = section_extents(&seg_bytes);
    let &(seg_largest, seg_extent) = seg_sections.iter().max_by_key(|s| s.1).unwrap();
    assert!(seg_extent >= 128, "the segment's largest section folds");
    let manifest = live.join(MANIFEST_FILE);
    let manifest_len = std::fs::metadata(&manifest).unwrap().len() as usize;
    // The last byte of a section's padded extent sits in the kernel's
    // final 64-byte block, and only the section's CRC covers it.
    let flips: [(&str, &Path, usize); 7] = [
        ("base header", &base, 16),
        ("base largest section, middle", &base, largest + extent / 2),
        ("base largest section, end", &base, largest + extent - 1),
        ("base section table", &base, table + table_len / 2),
        ("segment, middle", &segment, seg_bytes.len() / 2),
        (
            "segment largest section, end",
            &segment,
            seg_largest + seg_extent - 1,
        ),
        ("manifest", &manifest, manifest_len / 2),
    ];
    for (what, path, at) in flips {
        let pristine = std::fs::read(path).expect("read");
        let mut bad = pristine.clone();
        bad[at] ^= 0xFF;
        std::fs::write(path, &bad).expect("write corrupt copy");
        let load = std::panic::catch_unwind(|| load_live_state(&live).err());
        let err = match load {
            Ok(Some(err)) => err.to_string(),
            Ok(None) => panic!("{what}: byte {at} flipped, yet the directory loaded"),
            Err(_) => panic!("{what}: byte {at} flipped, and the load panicked"),
        };
        let name = path.file_name().unwrap().to_string_lossy();
        assert!(err.contains(&*name), "{what}: `{err}` does not name {name}");
        std::fs::write(path, &pristine).expect("restore");
        let state = load_live_state(&live).expect("restored load");
        assert_eq!(bodies(&state, &requests), want, "{what}: restored bodies");
    }
}

/// The signature stage's rule applied to `sources` record by record:
/// each record's doc-total frequencies, summed here over its
/// `scan_sources` fields in term order, over `snap`'s major-term
/// association rows.
fn rule_signatures(sources: &[corpus::Source], snap: &EngineSnapshot) -> Vec<Vec<f64>> {
    let terms = snap.terms().expect("base vocabulary");
    let (m, assoc) = (snap.meta().m_dims, snap.get::<f64>(&ASSOC));
    let rows: HashMap<&str, usize> = (snap.get::<u32>(&MAJOR).iter().enumerate())
        .map(|(row, &t)| (terms.get(t as usize), row))
        .collect();
    let (vocab, docs) = scan_sources(sources);
    (docs.iter())
        .map(|doc| {
            let mut freqs: BTreeMap<&str, u32> = BTreeMap::new();
            for &(id, n) in doc.fields.iter().flat_map(|f| &f.counts) {
                *freqs.entry(vocab.get(id as usize)).or_default() += n;
            }
            let pairs =
                (freqs.into_iter()).filter_map(|(t, f)| Some((&assoc[rows.get(t)? * m..][..m], f)));
            let mut sig = vec![0.0; m];
            record_signature(pairs, &mut sig);
            sig
        })
        .collect()
}

/// Contract 5: every document of a live directory — base documents from
/// their `sigs` rows, live ones derived from segment postings — carries
/// exactly the signature the engine's rule gives its record, before and
/// after compaction.
#[test]
fn live_signatures_follow_the_signature_stage_rule() {
    let dir = Scratch::new("livesig");
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
}

/// Contract 6: segment files swapped on disk disagree with the
/// manifest's document ranges. Compaction must refuse, name the
/// segment, and leave every input and the manifest as it found them.
#[test]
fn compaction_refuses_segments_that_disagree_with_the_manifest() {
    let dir = Scratch::new("swap");
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

    let err = (IngestDir::open(&dir).and_then(|mut ing| ing.compact()))
        .expect_err("compaction over swapped segments must fail");
    assert!(err.to_string().contains("seg-000001.iseg"), "{err}");
    for f in &files {
        assert!(f.exists(), "{} was removed", f.display());
    }
    assert!(!dir.join("seg-000004.iseg").exists());
    assert_eq!(std::fs::read(dir.join(MANIFEST_FILE)).unwrap(), manifest);
    let m = Manifest::load(&dir).expect("the manifest still loads");
    assert_eq!(m.expect("present").segments.len(), 3);
}

/// One commit of k sources plus deletes of base documents writes, byte
/// for byte, the segment that compaction folds out of k appends and one
/// delete of the same inputs: the sealer and the compactor agree on
/// what a batch is.
#[test]
fn a_batch_commit_seals_what_compaction_folds() {
    let dir = Scratch::new("seal-fold");
    let set = CorpusSpec {
        source_bytes: 8 * 1024,
        ..CorpusSpec::pubmed(64 * 1024, 17)
    }
    .generate();
    let (base_sources, batch) = set.sources.split_at(set.sources.len() - 3);
    let base_path = dir.join("base.isnap");
    build_snapshot(
        &SourceSet {
            sources: base_sources.to_vec(),
        },
        &base_path,
        1,
    );
    let deletes = vec![5, 0, 2, 5];
    for k in [1, 3] {
        let sealed = dir.join(format!("sealed-{k}"));
        let mut ing = IngestDir::create(&sealed, Some(&base_path)).expect("create");
        let file = ing
            .commit(&batch[..k], deletes.clone())
            .expect("commit")
            .segment_file;
        let one = std::fs::read(sealed.join(file)).unwrap();

        let folded = dir.join(format!("folded-{k}"));
        let mut ing = IngestDir::create(&folded, Some(&base_path)).expect("create");
        for src in &batch[..k] {
            ing.append(src.clone()).expect("append");
        }
        ing.delete(deletes.clone()).expect("delete");
        ing.compact().expect("compact").expect("folds");
        let file = &ing.manifest().segments[0].file;
        assert!(one == std::fs::read(folded.join(file)).unwrap(), "k = {k}");
    }
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
    let root = Scratch::new("interleave");
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
                        let killed = Commit::of(&subject, std::slice::from_ref(src), &[]);
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
}
