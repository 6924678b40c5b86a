//! Property-based tests (proptest) on the core data structures and
//! numeric kernels, across crate boundaries.

use proptest::prelude::*;
use visual_analytics::engine::ann::{
    approx_dot, build_ivf, code_sums, dot_error_bound, dot_u8, dot_u8_ref, exhaustive, l2_norm,
    quantize_into, row_norms, search, AnnIndexView, SearchStats,
};
use visual_analytics::engine::linalg::{dist2, dot, jacobi_eigen};
use visual_analytics::engine::query::TopK;
use visual_analytics::engine::scan::{pack_entry, unpack_entry};
use visual_analytics::engine::tokenize::Tokenizer;
use visual_analytics::engine::topicality::bookstein_score;
use visual_analytics::prelude::*;

proptest! {
    #[test]
    fn partition_contiguous_covers_exactly_once(
        sizes in prop::collection::vec(0u64..10_000, 0..60),
        p in 1usize..12,
    ) {
        let parts = corpus::partition_contiguous(&sizes, p);
        prop_assert_eq!(parts.len(), p);
        let mut covered = Vec::new();
        for r in &parts {
            covered.extend(r.clone());
        }
        let expect: Vec<usize> = (0..sizes.len()).collect();
        prop_assert_eq!(covered, expect);
    }

    #[test]
    fn tokenizer_output_is_normalized(text in ".{0,300}") {
        let t = Tokenizer::default();
        for term in t.tokenize(&text) {
            prop_assert!(term.len() >= 3 && term.len() <= 40);
            prop_assert!(term.bytes().all(|b| b.is_ascii_lowercase() || b.is_ascii_digit()));
            prop_assert!(term.bytes().any(|b| b.is_ascii_alphabetic()));
        }
    }

    #[test]
    fn tokenizer_is_idempotent_on_its_output(text in "[a-zA-Z0-9 ,.;-]{0,200}") {
        let t = Tokenizer::default();
        let once = t.tokenize(&text);
        let rejoined = once.join(" ");
        let twice = t.tokenize(&rejoined);
        prop_assert_eq!(once, twice);
    }

    #[test]
    fn pack_entry_roundtrips(term in 0u32.., field in 0u8..8, freq in 0u32..0xFF_FFFF) {
        prop_assert_eq!(unpack_entry(pack_entry(term, field, freq)), (term, field, freq));
    }

    #[test]
    fn zipf_pmf_is_distribution(n in 1usize..400, s in 0.0f64..2.5) {
        let z = corpus::Zipf::new(n, s);
        let total: f64 = (0..n).map(|r| z.pmf(r)).sum();
        prop_assert!((total - 1.0).abs() < 1e-6);
        for r in 1..n {
            prop_assert!(z.pmf(r - 1) >= z.pmf(r) - 1e-12);
        }
    }

    #[test]
    fn bookstein_score_is_finite_and_nonnegative(
        df in 1u32..1000,
        extra_tf in 0u64..5000,
        docs in 1u32..100_000,
    ) {
        let df = df.min(docs);
        let tf = df as u64 + extra_tf; // tf >= df always holds in real data
        if let Some(s) = bookstein_score(df, tf, docs, 1, 1.0) {
            prop_assert!(s.is_finite());
            prop_assert!(s >= 0.0);
        }
    }

    #[test]
    fn jacobi_reconstructs_symmetric_matrices(
        vals in prop::collection::vec(-3.0f64..3.0, 6),
    ) {
        // Build a 3x3 symmetric matrix from 6 free entries.
        let a = vec![
            vals[0], vals[1], vals[2],
            vals[1], vals[3], vals[4],
            vals[2], vals[4], vals[5],
        ];
        let e = jacobi_eigen(&a, 3, 60);
        // Trace preserved.
        let trace = vals[0] + vals[3] + vals[5];
        let sum: f64 = e.values.iter().sum();
        prop_assert!((trace - sum).abs() < 1e-8);
        // A v = lambda v for every pair.
        for (k, v) in e.vectors.iter().enumerate() {
            for i in 0..3 {
                let av: f64 = (0..3).map(|j| a[i * 3 + j] * v[j]).sum();
                prop_assert!((av - e.values[k] * v[i]).abs() < 1e-7);
            }
        }
        // Orthonormality.
        for i in 0..3 {
            for j in 0..3 {
                let d = dot(&e.vectors[i], &e.vectors[j]);
                let expect = if i == j { 1.0 } else { 0.0 };
                prop_assert!((d - expect).abs() < 1e-8);
            }
        }
    }

    #[test]
    fn terrain_is_normalized_for_any_points(
        points in prop::collection::vec((-100.0f64..100.0, -100.0f64..100.0), 0..80),
    ) {
        let t = Terrain::build(&points, 16, 12, None);
        prop_assert_eq!(t.heights.len(), 16 * 12);
        for &h in &t.heights {
            prop_assert!((0.0..=1.0).contains(&h));
        }
        if !points.is_empty() {
            let max = t.heights.iter().cloned().fold(0.0f64, f64::max);
            prop_assert!((max - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn terrain_peak_cells_are_within_grid(
        points in prop::collection::vec((0.0f64..10.0, 0.0f64..10.0), 1..60),
    ) {
        let t = Terrain::build(&points, 20, 20, None);
        for peak in t.peaks(10, 0.05, 2) {
            prop_assert!(peak.x < 20 && peak.y < 20);
            prop_assert!((0.0..=1.0).contains(&peak.height));
        }
    }

    #[test]
    fn dhashmap_batch_matches_scalar_sequence(
        raw in prop::collection::vec("[a-z]{1,10}", 1..100),
        p in 1usize..6,
    ) {
        use visual_analytics::ga::DistHashMap;

        // Scalar reference: one insert_or_get per term, in input order.
        let scalar_ids = {
            let raw = raw.clone();
            Runtime::for_testing()
                .run(p, move |ctx| {
                    let m = DistHashMap::create(ctx);
                    let mut ids = Vec::new();
                    if ctx.rank() == 0 {
                        for t in &raw {
                            ids.push(m.insert_or_get(ctx, t));
                        }
                    }
                    ctx.barrier();
                    ids
                })
                .results
                .swap_remove(0)
        };

        // Batched path on an identical fresh map, plus lookups afterwards.
        let (batch_ids, lookups) = {
            let raw = raw.clone();
            Runtime::for_testing()
                .run(p, move |ctx| {
                    let m = DistHashMap::create(ctx);
                    let mut out = (Vec::new(), Vec::new());
                    if ctx.rank() == 0 {
                        let refs: Vec<&str> = raw.iter().map(|s| s.as_str()).collect();
                        out.0 = m.insert_or_get_batch(ctx, &refs);
                        out.1 = raw.iter().map(|t| m.get(ctx, t)).collect();
                    }
                    ctx.barrier();
                    out
                })
                .results
                .swap_remove(0)
        };

        // Bit-identical ID assignment vs the scalar sequence.
        prop_assert_eq!(&batch_ids, &scalar_ids);

        // Lookup-after-insert agrees for every term.
        for (&id, look) in batch_ids.iter().zip(&lookups) {
            prop_assert_eq!(*look, Some(id));
        }

        // Duplicates share an ID; distinct terms never collide.
        let mut by_term = std::collections::HashMap::new();
        let mut by_id = std::collections::HashMap::new();
        for (t, &id) in raw.iter().zip(&batch_ids) {
            prop_assert_eq!(*by_term.entry(t.as_str()).or_insert(id), id);
            prop_assert_eq!(*by_id.entry(id).or_insert(t.as_str()), t.as_str());
        }

        // IDs are interleaved shard-dense: on each shard s the sequence
        // numbers {id / p : id % p == s} form 0..count(s) exactly.
        let mut per_shard: Vec<Vec<u32>> = vec![Vec::new(); p];
        for &id in by_id.keys() {
            per_shard[id as usize % p].push(id / p as u32);
        }
        for seqs in &mut per_shard {
            seqs.sort_unstable();
            for (expect, &got) in seqs.iter().enumerate() {
                prop_assert_eq!(got, expect as u32);
            }
        }
    }

    #[test]
    fn u8_dot_kernel_matches_scalar_reference(
        pairs in prop::collection::vec((any::<u8>(), any::<u8>()), 0..400),
    ) {
        let a: Vec<u8> = pairs.iter().map(|p| p.0).collect();
        let b: Vec<u8> = pairs.iter().map(|p| p.1).collect();
        prop_assert_eq!(dot_u8(&a, &b), dot_u8_ref(&a, &b));
    }

    #[test]
    fn quantized_dot_stays_within_error_bound(
        pairs in prop::collection::vec((-2.0f64..2.0, -2.0f64..2.0), 1..200),
    ) {
        let a: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        let b: Vec<f64> = pairs.iter().map(|p| p.1).collect();
        let m = a.len();
        let (mut ca, mut cb) = (vec![0u8; m], vec![0u8; m]);
        let pa = quantize_into(&a, &mut ca);
        let pb = quantize_into(&b, &mut cb);
        let sum_a: u32 = ca.iter().map(|&c| c as u32).sum();
        let sum_b: u32 = cb.iter().map(|&c| c as u32).sum();
        let approx = approx_dot(m, pa, sum_a, pb, sum_b, dot_u8(&ca, &cb));
        let l1_a: f64 = a.iter().map(|x| x.abs()).sum();
        let l1_b: f64 = b.iter().map(|x| x.abs()).sum();
        let exact = dot(&a, &b);
        prop_assert!(
            (approx - exact).abs() <= dot_error_bound(pa, pb, l1_a, l1_b, m),
            "approx {approx} exact {exact} bound {}",
            dot_error_bound(pa, pb, l1_a, l1_b, m)
        );
    }

    #[test]
    fn ivf_full_probe_matches_exhaustive_scan(
        rows in prop::collection::vec(prop::collection::vec(0.0f64..1.0, 12), 1..50),
        k in 1usize..6,
        qpick in 0usize..4096,
    ) {
        let m = 12;
        let docs = rows.len();
        // L1-normalize each row, mirroring the engine's signatures.
        let mut sigs = vec![0.0f64; docs * m];
        for (d, row) in rows.iter().enumerate() {
            let l1: f64 = row.iter().sum();
            if l1 > 0.0 {
                for (j, &x) in row.iter().enumerate() {
                    sigs[d * m + j] = x / l1;
                }
            }
        }
        // Any assignment is valid IVF structure; centroid quality only
        // affects probe *order*, and nprobe = k probes everything.
        let assignments: Vec<u32> = (0..docs).map(|d| (d % k) as u32).collect();
        let mut centroids = vec![0.0f64; k * m];
        let mut counts = vec![0usize; k];
        for (d, &c) in assignments.iter().enumerate() {
            counts[c as usize] += 1;
            for j in 0..m {
                centroids[c as usize * m + j] += sigs[d * m + j];
            }
        }
        for c in 0..k {
            if counts[c] > 0 {
                for j in 0..m {
                    centroids[c * m + j] /= counts[c] as f64;
                }
            }
        }
        let ivf = build_ivf(&sigs, m, &assignments, k);
        let sums = code_sums(&ivf.codes, m);
        let cnorms = row_norms(&centroids, m);
        let view = AnnIndexView::of(&ivf, &centroids, &cnorms, &sums, &sigs);
        let q = qpick % docs;
        let query = sigs[q * m..(q + 1) * m].to_vec();
        if l2_norm(&query) == 0.0 {
            continue; // null query: cosine undefined, nothing to rank
        }
        for top in [1usize, 5, docs] {
            let mut stats = SearchStats::default();
            let mut best = TopK::new(top);
            search(&view, &query, k, &[], &mut best, &mut stats);
            let got = best.into_sorted();
            let want = exhaustive(&sigs, m, &query, top);
            prop_assert_eq!(stats.probed, k);
            prop_assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(&want) {
                prop_assert_eq!(g.doc, w.doc);
                prop_assert_eq!(g.score.to_bits(), w.score.to_bits());
            }
        }
    }

    #[test]
    fn dist2_triangle_inequality_in_sqrt(
        a in prop::collection::vec(-5.0f64..5.0, 4),
        b in prop::collection::vec(-5.0f64..5.0, 4),
        c in prop::collection::vec(-5.0f64..5.0, 4),
    ) {
        let ab = dist2(&a, &b).sqrt();
        let bc = dist2(&b, &c).sqrt();
        let ac = dist2(&a, &c).sqrt();
        prop_assert!(ac <= ab + bc + 1e-9);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // Heavier properties: exercised with fewer cases.

    #[test]
    fn scaled_models_scale_time_linearly(nominal_mb in 1u64..64) {
        let src = CorpusSpec::pubmed(48 * 1024, 99).generate();
        let t1 = run_engine(
            2,
            std::sync::Arc::new(CostModel::pnnl_2007_scaled(
                nominal_mb << 20,
                src.total_bytes(),
            )),
            &src,
            &EngineConfig::for_testing(),
        )
        .virtual_time;
        let t2 = run_engine(
            2,
            std::sync::Arc::new(CostModel::pnnl_2007_scaled(
                (nominal_mb * 2) << 20,
                src.total_bytes(),
            )),
            &src,
            &EngineConfig::for_testing(),
        )
        .virtual_time;
        // Doubling nominal size roughly doubles time (communication is
        // sublinear, so allow 1.5-2.1).
        let ratio = t2 / t1;
        prop_assert!((1.5..=2.1).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn engine_deterministic_for_random_corpus_seeds(seed in 0u64..1000) {
        let src = CorpusSpec::trec(32 * 1024, seed).generate();
        let cfg = EngineConfig::for_testing();
        let a = run_sequential(&src, &cfg);
        let b = run_sequential(&src, &cfg);
        prop_assert_eq!(a.coords, b.coords);
        prop_assert_eq!(a.cluster_sizes, b.cluster_sizes);
    }
}
