//! End-to-end integration: corpus → engine → ThemeView, plus the query
//! path, across crate boundaries.

use std::sync::Arc;
use visual_analytics::engine::index::invert;
use visual_analytics::engine::query;
use visual_analytics::engine::scan::scan;
use visual_analytics::engine::snapshot::corpus_fingerprint;
use visual_analytics::prelude::*;

fn run(sources: &SourceSet, p: usize) -> EngineRun {
    run_engine(
        p,
        Arc::new(CostModel::pnnl_2007()),
        sources,
        &EngineConfig::for_testing(),
    )
}

#[test]
fn full_pipeline_to_terrain_pubmed() {
    let src = CorpusSpec::pubmed(256 * 1024, 77).generate();
    let stats = CorpusStats::measure(&src);
    let run = run(&src, 4);
    let master = run.master();

    // Every record the corpus framer sees must come out as a document.
    assert_eq!(master.summary.total_docs as usize, stats.records);
    let coords = master.coords.as_ref().unwrap();
    assert_eq!(coords.len(), stats.records);

    // Cluster bookkeeping is consistent.
    assert_eq!(
        master.cluster_sizes.iter().sum::<u64>(),
        stats.records as u64
    );
    let assignments = master.all_assignments.as_ref().unwrap();
    for &a in assignments {
        assert!((a as usize) < master.cluster_sizes.len());
    }
    // Per-cluster counts match assignments.
    let mut counted = vec![0u64; master.cluster_sizes.len()];
    for &a in assignments {
        counted[a as usize] += 1;
    }
    assert_eq!(&counted, &master.cluster_sizes);

    // A terrain built from the coordinates has structure: some relief and
    // at least one peak.
    let terrain = Terrain::build(coords, 48, 24, None);
    let peaks = terrain.peaks(8, 0.2, 4);
    assert!(!peaks.is_empty(), "no theme mountains found");
    assert!(peaks[0].height > 0.9);

    // Rendering works and has the right dimensions.
    let art = render_ascii(&terrain, &peaks);
    assert_eq!(art.lines().count(), 24);
    let pgm = render_pgm(&terrain);
    assert!(pgm.starts_with("P2\n48 24\n255\n"));
}

#[test]
fn full_pipeline_trec_with_markup_noise() {
    let src = CorpusSpec::trec(256 * 1024, 55).generate();
    let run = run(&src, 3);
    let master = run.master();
    assert!(master.summary.total_docs > 50);
    // Markup stopwords must not become topics.
    for labels in &master.cluster_labels {
        for term in labels {
            assert!(term != "html" && term != "body" && term != "href", "{term}");
        }
    }
    // Virtual time is positive and finite.
    assert!(run.virtual_time.is_finite() && run.virtual_time > 0.0);
}

#[test]
fn query_path_integrates_with_engine_structures() {
    let src = CorpusSpec::pubmed(128 * 1024, 33).generate();
    let rt = Runtime::new(Arc::new(CostModel::pnnl_2007()));
    let cfg = EngineConfig::for_testing();
    rt.run(3, |ctx| {
        let (s, fwd) = scan(ctx, &src);
        let idx = invert(ctx, &s, fwd, &cfg);
        // Query by the most frequent term that is not ubiquitous (a term
        // in every document has zero idf and therefore zero score).
        let top_term = (0..s.vocab_size())
            .filter(|&t| idx.df[t] * 2 < idx.total_docs)
            .max_by_key(|&t| idx.tf[t])
            .expect("nonempty vocabulary");
        let term = s.terms[top_term].to_string();
        let hits = query::search(ctx, &s, &idx, &term, 10);
        assert!(!hits.is_empty());
        // All hits reference real documents.
        for h in &hits {
            assert!(h.doc < idx.total_docs);
            assert!(h.score > 0.0);
        }
        // Lookup agrees with df.
        let postings = query::lookup(ctx, &s, &idx, &term);
        let mut docs: Vec<u32> = postings.iter().map(|p| p.doc).collect();
        docs.dedup();
        assert_eq!(docs.len() as u32, idx.df[top_term]);
    });
}

#[test]
fn component_times_cover_the_run() {
    let src = CorpusSpec::pubmed(128 * 1024, 31).generate();
    let run = run(&src, 2);
    let ct = run.components;
    // Components account for (almost) all virtual time; "other" is small.
    let total = ct.total();
    assert!(total > 0.0);
    assert!(
        (total - run.virtual_time).abs() / run.virtual_time < 0.05,
        "components {total} vs wall {}",
        run.virtual_time
    );
    let other = ct.get(Component::Other);
    assert!(other / total < 0.02, "untracked time {other} of {total}");
}

#[test]
fn engine_handles_single_document_corpus() {
    // Degenerate input: one tiny source with one record.
    let mut src = CorpusSpec::pubmed(4 * 1024, 1).generate();
    // Truncate to the first record of the first source.
    let first = &src.sources[0];
    let ranges = first.record_ranges();
    let end = ranges[0].end;
    src.sources.truncate(1);
    src.sources[0].data.truncate(end);

    let run = run_engine(
        2,
        Arc::new(CostModel::zero()),
        &src,
        &EngineConfig::for_testing(),
    );
    let master = run.master();
    assert_eq!(master.summary.total_docs, 1);
    assert_eq!(master.coords.as_ref().unwrap().len(), 1);
}

#[test]
fn more_ranks_than_documents() {
    let mut src = CorpusSpec::pubmed(8 * 1024, 9).generate();
    src.sources.truncate(1);
    let run = run_engine(
        8,
        Arc::new(CostModel::zero()),
        &src,
        &EngineConfig::for_testing(),
    );
    let master = run.master();
    assert!(master.summary.total_docs >= 1);
    assert_eq!(
        master.coords.as_ref().unwrap().len() as u32,
        master.summary.total_docs
    );
}

#[test]
fn full_pipeline_newswire_message_traffic() {
    // The third motivating data type of the paper's introduction:
    // "newswire feeds and message traffic". Short threaded messages.
    let src = CorpusSpec::newswire(256 * 1024, 314).generate();
    let run = run(&src, 3);
    let master = run.master();
    assert!(
        master.summary.total_docs > 300,
        "messages are short: expected many"
    );
    let coords = master.coords.as_ref().unwrap();
    assert_eq!(coords.len() as u32, master.summary.total_docs);
    // Threads make message traffic extra bursty; topicality must still
    // find discriminating terms and clustering must spread documents.
    assert!(master.summary.n_major > 50);
    let nonempty = master.cluster_sizes.iter().filter(|&&s| s > 0).count();
    assert!(
        nonempty >= 3,
        "clusters collapsed: {:?}",
        master.cluster_sizes
    );
}

#[test]
fn newswire_parallel_matches_sequential() {
    let src = CorpusSpec::newswire(128 * 1024, 217).generate();
    let cfg = EngineConfig::for_testing();
    let seq = run_sequential(&src, &cfg);
    let par = run_engine(4, Arc::new(CostModel::zero()), &src, &cfg)
        .outputs
        .remove(0);
    assert_eq!(par.summary.vocab_size, seq.summary.vocab_size);
    assert_eq!(par.cluster_sizes, seq.cluster_sizes);
    let cs = seq.coords.as_ref().unwrap();
    let cp = par.coords.as_ref().unwrap();
    for ((x1, y1), (x2, y2)) in cp.iter().zip(cs) {
        assert!((x1 - x2).abs() < 1e-6 && (y1 - y2).abs() < 1e-6);
    }
}

/// A checkpoint is reused only for the corpus fingerprint it was written
/// for, and that fingerprint hashes each source's name: a name must not
/// change with how the input directory is spelled or where it lives, or
/// `--resume` under `./c` rebuilds every stage `c` checkpointed.
#[test]
fn source_names_and_fingerprint_ignore_how_the_input_path_is_spelled() {
    let root = std::env::temp_dir().join(format!("va-spelling-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let dir = root.join("c");
    let set = CorpusSpec {
        source_bytes: 8 * 1024,
        ..CorpusSpec::pubmed(32 * 1024, 5)
    }
    .generate();
    let moved = root.join("elsewhere/copy");
    for d in [&dir, &moved] {
        corpus::load::write_dir(&set, d).unwrap();
        std::fs::create_dir_all(d.join("nested")).unwrap();
        std::fs::write(d.join("nested/part.txt"), &set.sources[0].data).unwrap();
    }

    let names = |s: &SourceSet| s.sources.iter().map(|s| s.name.clone()).collect::<Vec<_>>();
    let plain = corpus::load::load_dir(&dir).unwrap();
    assert_eq!(plain.sources.len(), set.sources.len() + 1);
    assert!(names(&plain).contains(&"nested/part.txt".to_string()));
    for spelling in [dir.join("."), dir.join("nested/.."), moved] {
        let other = corpus::load::load_dir(&spelling).unwrap();
        assert_eq!(names(&other), names(&plain), "{}", spelling.display());
        assert_eq!(
            corpus_fingerprint(&other),
            corpus_fingerprint(&plain),
            "{}",
            spelling.display()
        );
    }
    let _ = std::fs::remove_dir_all(&root);
}
