//! Pipeline-level IVF ANN properties: snapshots built at P = 1 and
//! P = 4 carry bit-identical ANN sections, searching every cluster
//! (`nprobe = k`) reproduces the exhaustive f64 oracle bit-for-bit,
//! and the quantized signature store is at least 4x smaller than the
//! fixed-width `f64` signature section it accelerates.

use std::sync::Arc;
use visual_analytics::engine::ann;
use visual_analytics::engine::query::TopK;
use visual_analytics::engine::snapshot::schema;
use visual_analytics::engine::EngineSnapshot;
use visual_analytics::prelude::*;

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
    let view = snap.ann_view(&sums);
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
