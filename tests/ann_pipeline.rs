//! Pipeline-level IVF ANN properties: snapshots built at P = 1 and
//! P = 4 carry bit-identical ANN sections, searching every cluster
//! (`nprobe = k`) reproduces the exhaustive f64 oracle bit-for-bit,
//! the quantized signature store is at least 4x smaller than the
//! fixed-width `f64` signature section it accelerates, and lists that
//! k-means left empty are probed, counted and answered exactly.

use std::sync::Arc;
use visual_analytics::corpus::{FormatKind, Source};
use visual_analytics::engine::ann;
use visual_analytics::engine::query::{rank_cmp, Hit, TopK};
use visual_analytics::engine::snapshot::schema;
use visual_analytics::engine::EngineSnapshot;
use visual_analytics::prelude::*;
use visual_analytics::serve::{execute, ServeRequest, ServeState};

const ANN_SECTIONS: [&str; 6] = ["qsig", "qscale", "qoff", "signrm", "ivfdoc", "ivfoff"];

fn build_snapshot(p: usize, src: &corpus::SourceSet, out: &std::path::Path) -> EngineSnapshot {
    let cfg = EngineConfig {
        snapshot_out: Some(out.to_path_buf()),
        ..EngineConfig::for_testing()
    };
    run_engine(p, Arc::new(CostModel::zero()), src, &cfg);
    EngineSnapshot::open(out).expect("snapshot opens")
}

/// Exhaustive-oracle check for one snapshot: IVF search probing all k
/// clusters must return the same docs with bit-identical scores as the
/// brute-force scan, for every sampled query and both top depths.
fn assert_full_probe_is_exhaustive(snap: &EngineSnapshot) -> Vec<(u32, u64)> {
    let meta = snap.meta();
    let (k, m) = (meta.k, meta.m_dims);
    let sigs = snap.get::<f64>(&schema::SIGS);
    let sums = ann::code_sums(snap.get::<u8>(&schema::QSIG), m);
    let cnorms = ann::row_norms(snap.get::<f64>(&schema::CENTROID), m);
    let view = snap.ann_view(&sums, &cnorms);
    let docs = view.docs();
    assert_eq!(docs, meta.total_docs as usize);
    assert!(docs > 0, "empty snapshot");

    let mut flat = Vec::new();
    let mut queried = 0usize;
    for q in (0..docs).step_by(docs / 11 + 1) {
        let query = &sigs[q * m..(q + 1) * m];
        if ann::l2_norm(query) == 0.0 {
            continue;
        }
        queried += 1;
        for top in [10usize, docs] {
            let mut stats = ann::SearchStats::default();
            let mut best = TopK::new(top);
            ann::search(&view, query, k, &[], &mut best, &mut stats);
            let got = best.into_sorted();
            let want = ann::exhaustive(sigs, m, query, top);
            assert_eq!(stats.probed, k, "q={q} top={top}");
            assert_eq!(got.len(), want.len(), "q={q} top={top}");
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(g.doc, w.doc, "q={q} top={top}");
                assert_eq!(
                    g.score.to_bits(),
                    w.score.to_bits(),
                    "q={q} top={top} doc={}",
                    g.doc
                );
                flat.push((g.doc, g.score.to_bits()));
            }
        }
    }
    assert!(
        queried >= 3,
        "too few non-null query signatures ({queried})"
    );
    flat
}

#[test]
fn ivf_full_probe_matches_exhaustive_at_p1_and_p4() {
    let src = CorpusSpec::pubmed(192 * 1024, 7).generate();
    let dir = std::env::temp_dir().join(format!("va-ann-pipe-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let mut per_p = Vec::new();
    let mut section_bytes: Vec<Vec<Vec<u8>>> = Vec::new();
    for &p in &[1usize, 4] {
        let snap = build_snapshot(p, &src, &dir.join(format!("p{p}.isnap")));
        assert!(
            snap.has_ann(),
            "P={p} Final snapshot must carry ANN sections"
        );
        per_p.push(assert_full_probe_is_exhaustive(&snap));
        section_bytes.push(
            ANN_SECTIONS
                .iter()
                .map(|s| snap.store().require(s).unwrap().bytes().to_vec())
                .collect(),
        );
    }

    // Identical results and byte-identical ANN sections across P.
    assert_eq!(per_p[0], per_p[1], "P=1 vs P=4 ANN results diverge");
    for (i, name) in ANN_SECTIONS.iter().enumerate() {
        assert_eq!(
            section_bytes[0][i], section_bytes[1][i],
            "section `{name}` differs between P=1 and P=4"
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn quantized_sections_shrink_signature_storage_4x() {
    let src = CorpusSpec::pubmed(160 * 1024, 13).generate();
    let out = std::env::temp_dir().join(format!("va-ann-shrink-{}.isnap", std::process::id()));
    let _ = std::fs::remove_file(&out);
    let snap = build_snapshot(2, &src, &out);
    assert!(snap.has_ann());

    let size_of = |name: &str| snap.store().require(name).unwrap().bytes().len();
    let exact = size_of("sigs");
    let quant: usize = ANN_SECTIONS.iter().map(|s| size_of(s)).sum();
    assert!(exact > 0, "empty sigs section");
    assert!(
        quant * 4 <= exact,
        "quantized store {quant} B is less than 4x smaller than exact sigs {exact} B"
    );

    let _ = std::fs::remove_file(&out);
}

/// ROADMAP 5(c)'s empty IVF lists end to end. Documents with equal
/// signatures always share a nearest centroid, so a corpus of ten
/// distinct records, each repeated four times, leaves at least two of
/// k = 12 lists empty. At every `nprobe` a `/similar` answer counts
/// every list it probed, empty ones included, and its hits are the
/// exhaustive `f64` oracle's over the probed lists' documents, bit for
/// bit; at `nprobe = k` that is `ann::exhaustive` itself.
#[test]
fn empty_ivf_lists_are_probed_and_answered_exactly() {
    // Three words of its own per record, and one shared with each ring
    // neighbour, so that records of different texts are similar too.
    let names = [
        "alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf", "hotel", "india", "juliet",
    ];
    let texts: Vec<String> = (0..names.len())
        .map(|i| {
            let (own, next) = (names[i], names[(i + 1) % names.len()]);
            format!("{own}x {own}y {own}z ring{own} ring{next}")
        })
        .collect();
    let records: String = texts
        .iter()
        .map(|t| format!("TI  - {t}\nAB  - {t} {t}\n\n"))
        .collect();
    let sources = (0..4)
        .map(|i| Source {
            name: format!("dup-{i}"),
            data: records.clone().into_bytes(),
            format: FormatKind::Medline,
        })
        .collect();
    let out = std::env::temp_dir().join(format!("va-ann-empty-{}.isnap", std::process::id()));
    let _ = std::fs::remove_file(&out);
    let cfg = EngineConfig {
        snapshot_out: Some(out.clone()),
        n_clusters: 12,
        ..EngineConfig::for_testing()
    };
    run_engine(2, Arc::new(CostModel::zero()), &SourceSet { sources }, &cfg);
    let snap = EngineSnapshot::open(&out).unwrap();
    assert!(snap.has_ann(), "{:?}", snap.meta());
    let (k, m) = (snap.meta().k, snap.meta().m_dims);
    let docs = snap.meta().total_docs as usize;
    let ivfoff = snap.get::<u64>(&schema::IVFOFF);
    let list_len = |c: usize| (ivfoff[c + 1] - ivfoff[c]) as usize;
    assert!(
        (0..k).any(|c| list_len(c) == 0),
        "no empty list among {k}: {ivfoff:?}"
    );
    let (sigs, assign) = (
        snap.get::<f64>(&schema::SIGS),
        snap.get::<u32>(&schema::ASSIGN),
    );
    let centroids = snap.get::<f64>(&schema::CENTROID);
    let state = ServeState::load(&out).unwrap();

    let text = "alphax bravoy ringcharlie";
    let mut queries: Vec<(Option<u32>, Option<String>, Vec<f64>)> = (0..texts.len() as u32)
        .map(|d| (Some(d), None, state.doc_signature(d).unwrap().to_vec()))
        .collect();
    queries.push((None, Some(text.into()), state.embed_text(text).unwrap()));
    let bits = |hits: Vec<Hit>| -> Vec<(u32, u64)> {
        hits.iter().map(|h| (h.doc, h.score.to_bits())).collect()
    };
    let mut empty_probed_early = false;
    for (doc, text, query) in &queries {
        let qnorm = ann::l2_norm(query);
        assert!(qnorm > 0.0, "{doc:?} {text:?}: null query");
        let mut order: Vec<(f64, usize)> = (0..k)
            .map(|c| {
                let row = &centroids[c * m..(c + 1) * m];
                (ann::cosine(query, qnorm, row, ann::l2_norm(row)), c)
            })
            .collect();
        order.sort_by(|&a, &b| rank_cmp(a, b));
        for nprobe in 1..=k {
            let probed: Vec<usize> = order[..nprobe].iter().map(|&(_, c)| c).collect();
            empty_probed_early |= nprobe < k && probed.iter().any(|&c| list_len(c) == 0);
            let listed: usize = probed.iter().map(|&c| list_len(c)).sum();
            let at = format!("{doc:?} {text:?} nprobe={nprobe}");
            for top in [1, 10, docs] {
                let (hits, stats) = state.similar(query, top, nprobe);
                assert_eq!((stats.probed, stats.candidates), (nprobe, listed), "{at}");
                let in_probed = |h: &Hit| probed.contains(&(assign[h.doc as usize] as usize));
                let mut want = ann::exhaustive(sigs, m, query, docs);
                want.retain(in_probed);
                want.truncate(top);
                if nprobe == k {
                    assert_eq!(want, ann::exhaustive(sigs, m, query, top), "{at}");
                }
                assert_eq!(bits(hits), bits(want), "{at} top={top}");
                let req = ServeRequest::Similar {
                    doc: *doc,
                    text: text.clone(),
                    top,
                    nprobe,
                };
                let body = execute(&state, &req).unwrap();
                let counted = format!("\"probed\":{nprobe},\"candidates\":{listed},");
                assert!(body.contains(&counted), "{at}: {body}");
            }
        }
    }
    assert!(
        empty_probed_early,
        "no query probes an empty list before the last probe"
    );
    let _ = std::fs::remove_file(&out);
}
