//! Distributed k-means clustering (paper §3.5).
//!
//! *"We implemented a distributed k-means clustering algorithm in our
//! process [Dhillon & Modha]."* Each rank owns its documents' signatures;
//! an iteration assigns each local signature to its nearest centroid,
//! forms partial sums and counts, and merges them with a single Allreduce
//! — the Dhillon–Modha communication pattern, which keeps per-iteration
//! traffic at `O(k·M)` regardless of document count.
//!
//! Initialization samples k documents spread evenly across the global
//! document range (deterministic for a given corpus and k, independent of
//! the processor count). Empty clusters keep their previous centroid.
//! Assignment ties break toward the lower cluster index, so results are
//! reproducible bit-for-bit at any P.

use crate::config::{ClusterMethod, EngineConfig};
use crate::hierarchy::agglomerate;
use crate::signature::Signatures;
use perfmodel::WorkKind;
use spmd::{Ctx, ReduceOp};

/// The clustering outcome on one rank.
#[derive(Debug, Clone)]
pub struct Clustering {
    /// Cluster index of each local document.
    pub assignments: Vec<u32>,
    /// Final centroids, row-major k×M (replicated).
    pub centroids: Vec<f64>,
    /// Number of clusters.
    pub k: usize,
    /// Signature dimensionality.
    pub m: usize,
    /// Iterations executed.
    pub iterations: usize,
    /// Final within-cluster sum of squared distances (global).
    pub objective: f64,
    /// Documents per cluster (global).
    pub sizes: Vec<u64>,
    /// Centroids the projection stage fits PCA on — identical to
    /// `centroids` for plain k-means, but the *fine* first-level
    /// centroids under hierarchical clustering (more samples give the
    /// PCA a better basis).
    pub pca_centroids: Vec<f64>,
    /// Number of rows in `pca_centroids`.
    pub pca_k: usize,
}

impl Clustering {
    /// Centroid `c` as a slice.
    pub fn centroid(&self, c: usize) -> &[f64] {
        &self.centroids[c * self.m..(c + 1) * self.m]
    }
}

/// Centroids per register block of the assignment kernel: 16 `f64`
/// accumulators are eight SSE2 vector registers.
const LANES: usize = 16;

/// Squared distances from `x` to all `k` centroids at once. `ct` is the
/// dimension-major copy of the centroids (`ct[d * k + c]`, `x.len()`
/// rows). The outer loop walks dimensions and the inner loop a block of
/// [`LANES`] centroids, so the additions are independent across the block
/// and vectorise; each centroid's sum still adds its terms in dimension
/// order from `-0.0`, exactly as [`crate::linalg::dist2`]'s `Sum` does, so
/// every `out[c]` has the bits `dist2(x, centroid c)` has.
fn dist2_all(x: &[f64], ct: &[f64], k: usize, out: &mut [f64]) {
    assert!(ct.len() == x.len() * k && out.len() == k);
    let mut c0 = 0;
    while c0 + LANES <= k {
        let mut acc = [-0.0f64; LANES];
        for (d, &xd) in x.iter().enumerate() {
            let row = &ct[d * k + c0..d * k + c0 + LANES];
            for (a, &y) in acc.iter_mut().zip(row) {
                *a += (xd - y) * (xd - y);
            }
        }
        out[c0..c0 + LANES].copy_from_slice(&acc);
        c0 += LANES;
    }
    for c in c0..k {
        let mut acc = -0.0f64;
        for (d, &xd) in x.iter().enumerate() {
            let y = ct[d * k + c];
            acc += (xd - y) * (xd - y);
        }
        out[c] = acc;
    }
}

/// Refill `ct` with the dimension-major copy of the row-major k×m
/// `centroids` that [`dist2_all`] reads.
fn transpose_centroids(centroids: &[f64], k: usize, m: usize, ct: &mut [f64]) {
    for c in 0..k {
        for d in 0..m {
            ct[d * k + c] = centroids[c * m + d];
        }
    }
}

/// The assignment rule: index and value of the first strict minimum,
/// starting from +∞ — ties break toward the lower cluster index and a
/// NaN distance is never chosen.
fn nearest(dists: &[f64]) -> (usize, f64) {
    let mut best = 0usize;
    let mut best_d = f64::INFINITY;
    for (c, &d) in dists.iter().enumerate() {
        if d < best_d {
            best_d = d;
            best = c;
        }
    }
    (best, best_d)
}

/// Run distributed k-means over this rank's signatures. Collective.
pub fn kmeans(
    ctx: &Ctx,
    sigs: &Signatures,
    doc_base: u32,
    total_docs: u32,
    k: usize,
    max_iters: usize,
    tol: f64,
) -> Clustering {
    let m = sigs.m;
    let n_local = sigs.n_local();
    let k = k.max(1).min(total_docs.max(1) as usize);

    // ---- Deterministic initialization: k evenly spread documents ----
    // Each rank contributes the seed signatures it owns; one Allreduce
    // assembles the initial centroids everywhere.
    let mut centroids = vec![0.0f64; k * m];
    for c in 0..k {
        let seed_doc = ((c as u64 * total_docs as u64) / k as u64) as u32;
        if seed_doc >= doc_base && (seed_doc - doc_base) < n_local as u32 {
            let local_idx = (seed_doc - doc_base) as usize;
            centroids[c * m..(c + 1) * m].copy_from_slice(sigs.row(local_idx));
        }
    }
    let mut centroids = ctx.allreduce(centroids, ReduceOp::Sum);

    let mut assignments = vec![0u32; n_local];
    let mut iterations = 0;
    let mut objective = f64::INFINITY;
    let mut sizes = vec![0u64; k];

    // Dimension-major copy of the centroids and one document's distances,
    // both refilled in place.
    let mut ct = vec![0.0f64; m * k];
    let mut dists = vec![0.0f64; k];

    for iter in 0..max_iters {
        iterations = iter + 1;
        // ---- Assignment + partial sums ----
        transpose_centroids(&centroids, k, m, &mut ct);
        let mut part_sums = vec![0.0f64; k * m];
        let mut part_counts = vec![0u64; k];
        let mut part_obj = 0.0f64;
        #[allow(clippy::needless_range_loop)] // i indexes three structures
        for i in 0..n_local {
            let sig = sigs.row(i);
            dist2_all(sig, &ct, k, &mut dists);
            let (best, best_d) = nearest(&dists);
            assignments[i] = best as u32;
            part_obj += best_d;
            part_counts[best] += 1;
            for (s, &x) in part_sums[best * m..(best + 1) * m].iter_mut().zip(sig) {
                *s += x;
            }
        }
        // Assignment cost: n * k * M multiply-adds (×3 for sub/mul/add).
        ctx.charge(WorkKind::Flops, 3 * (n_local * k * m) as u64);

        // ---- Merge (the Dhillon–Modha Allreduce) ----
        let sums = ctx.allreduce(part_sums, ReduceOp::Sum);
        let counts = ctx.allreduce(part_counts, ReduceOp::Sum);
        let new_obj = ctx.allreduce(vec![part_obj], ReduceOp::Sum)[0];

        // ---- Centroid update (identical on every rank) ----
        ctx.charge(WorkKind::Flops, (k * m) as u64);
        for c in 0..k {
            if counts[c] > 0 {
                let inv = 1.0 / counts[c] as f64;
                for d in 0..m {
                    centroids[c * m + d] = sums[c * m + d] * inv;
                }
            }
            // Empty cluster: keep the previous centroid.
        }
        sizes = counts;

        // ---- Convergence test on the global objective ----
        let improved =
            objective.is_infinite() || (objective - new_obj) > tol * objective.abs().max(1e-12);
        objective = new_obj;
        if !improved {
            break;
        }
    }

    Clustering {
        assignments,
        centroids: centroids.clone(),
        k,
        m,
        iterations,
        objective,
        sizes,
        pca_centroids: centroids,
        pca_k: k,
    }
}

/// Cluster this rank's documents per the configured method (§3.5).
/// Collective.
pub fn cluster_documents(
    ctx: &Ctx,
    sigs: &Signatures,
    doc_base: u32,
    total_docs: u32,
    cfg: &EngineConfig,
) -> Clustering {
    match cfg.cluster_method {
        ClusterMethod::KMeans => kmeans(
            ctx,
            sigs,
            doc_base,
            total_docs,
            cfg.n_clusters,
            cfg.max_kmeans_iters,
            cfg.kmeans_tol,
        ),
        ClusterMethod::Hierarchical {
            linkage,
            fine_factor,
            adaptive,
        } => {
            // Level 1: fine-grained distributed k-means.
            let k_fine = (cfg.n_clusters * fine_factor.max(1)).max(cfg.n_clusters);
            let fine = kmeans(
                ctx,
                sigs,
                doc_base,
                total_docs,
                k_fine,
                cfg.max_kmeans_iters,
                cfg.kmeans_tol,
            );
            // Level 2: agglomerate the (replicated) fine centroids —
            // identical on every rank, no communication. Charged as the
            // O(k_fine^3 + k_fine^2 m) it is; k_fine is a configuration
            // constant, so the charge is unscaled.
            let kf = fine.k;
            let m = fine.m;
            ctx.charge_fixed(WorkKind::Flops, (kf * kf * kf + kf * kf * m) as u64);
            let dendrogram = agglomerate(&fine.centroids, kf, m, linkage);
            let leaf_to_coarse = if adaptive {
                dendrogram.adaptive_cut(2, cfg.n_clusters)
            } else {
                dendrogram.cut(cfg.n_clusters)
            };
            let k_coarse = leaf_to_coarse
                .iter()
                .map(|&l| l as usize + 1)
                .max()
                .unwrap_or(1);

            // Remap documents and rebuild coarse centroids as
            // size-weighted means of the fine centroids.
            let assignments: Vec<u32> = fine
                .assignments
                .iter()
                .map(|&a| leaf_to_coarse[a as usize])
                .collect();
            let mut centroids = vec![0.0f64; k_coarse * m];
            let mut weights = vec![0.0f64; k_coarse];
            #[allow(clippy::needless_range_loop)] // leaf indexes two structures
            for leaf in 0..kf {
                let c = leaf_to_coarse[leaf] as usize;
                let w = fine.sizes[leaf] as f64;
                weights[c] += w;
                for d in 0..m {
                    centroids[c * m + d] += w * fine.centroids[leaf * m + d];
                }
            }
            for c in 0..k_coarse {
                if weights[c] > 0.0 {
                    for d in 0..m {
                        centroids[c * m + d] /= weights[c];
                    }
                }
            }
            let mut sizes = vec![0u64; k_coarse];
            for (leaf, &sz) in fine.sizes.iter().enumerate() {
                sizes[leaf_to_coarse[leaf] as usize] += sz;
            }

            Clustering {
                assignments,
                centroids,
                k: k_coarse,
                m,
                iterations: fine.iterations,
                objective: fine.objective,
                sizes,
                pca_centroids: fine.centroids,
                pca_k: kf,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assoc;
    use crate::config::EngineConfig;
    use crate::index::invert;
    use crate::linalg::dist2;
    use crate::scan::scan;
    use crate::signature::generate;
    use crate::topicality::select_topics;
    use corpus::CorpusSpec;
    use proptest::prelude::*;
    use spmd::Runtime;

    /// Component values that stress the bit-identity claim: signed zeros
    /// (5 %), and NaN and the infinities rarely enough (0.75 %) that most
    /// 60-dimensional distances stay finite.
    fn component(pick: usize, v: f64) -> f64 {
        match pick {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            3..=12 => 0.0,
            13..=22 => -0.0,
            _ => v,
        }
    }

    proptest! {
        /// The all-centroid kernel against the per-centroid `dist2` loop it
        /// replaced: every distance bit for bit, and the same first minimum.
        #[test]
        fn dist2_all_matches_per_centroid_dist2(
            raw in prop::collection::vec((0usize..400, any::<f64>()), 61 * 100),
            dups in prop::collection::vec((0usize..100, 0usize..100), 0..8),
        ) {
            for k in [1, 7, 16, 17, 64, 100] {
                for m in [0, 1, 2, 60] {
                    let mut vals = raw.iter().map(|&(pick, v)| component(pick, v));
                    let x: Vec<f64> = vals.by_ref().take(m).collect();
                    let mut centroids: Vec<f64> = vals.take(k * m).collect();
                    // Duplicated centroids: ties must pick the lower index.
                    for &(from, to) in &dups {
                        let (from, to) = (from % k, to % k);
                        centroids.copy_within(from * m..(from + 1) * m, to * m);
                    }
                    let mut ct = vec![0.0f64; m * k];
                    transpose_centroids(&centroids, k, m, &mut ct);

                    let want: Vec<f64> = (0..k)
                        .map(|c| dist2(&x, &centroids[c * m..(c + 1) * m]))
                        .collect();
                    let mut got = vec![f64::NAN; k];
                    dist2_all(&x, &ct, k, &mut got);

                    // Bit equality, except that any NaN equals any NaN: Rust
                    // leaves a NaN's sign and payload unspecified (they
                    // follow operand order, which codegen may swap), and
                    // `kmeans` never selects or sums a NaN distance.
                    let bits = |v: &[f64]| -> Vec<u64> {
                        v.iter()
                            .map(|d| if d.is_nan() { u64::MAX } else { d.to_bits() })
                            .collect()
                    };
                    prop_assert_eq!(bits(&got), bits(&want), "k={} m={}", k, m);
                    prop_assert_eq!(nearest(&got).0, nearest(&want).0);
                }
            }
        }
    }

    fn corpus() -> corpus::SourceSet {
        CorpusSpec {
            source_bytes: 8 * 1024,
            ..CorpusSpec::pubmed(64 * 1024, 5)
        }
        .generate()
    }

    fn run_kmeans(p: usize, k: usize) -> (Vec<f64>, f64, Vec<u64>, Vec<u32>) {
        let src = corpus();
        let rt = Runtime::for_testing();
        let res = rt.run(p, |ctx| {
            let cfg = EngineConfig::for_testing();
            let (s, fwd) = scan(ctx, &src, &cfg);
            let idx = invert(ctx, &s, fwd, &cfg);
            let topics = select_topics(ctx, &idx, &cfg, cfg.n_major, cfg.m_dims());
            let am = assoc::build(ctx, &s, &idx, &topics);
            let sigs = generate(ctx, &s, &am);
            let cl = kmeans(ctx, &sigs, s.doc_base, s.total_docs, k, 20, 1e-4);
            (
                cl.centroids.clone(),
                cl.objective,
                cl.sizes.clone(),
                cl.assignments,
            )
        });
        // Concatenate assignments in rank order for a global view.
        let mut all_assign = Vec::new();
        let mut first = None;
        for (c, o, s, a) in res.results {
            all_assign.extend(a);
            if first.is_none() {
                first = Some((c, o, s));
            }
        }
        let (c, o, s) = first.unwrap();
        (c, o, s, all_assign)
    }

    #[test]
    fn kmeans_identical_across_p() {
        let (c1, o1, s1, a1) = run_kmeans(1, 6);
        for p in [2, 4] {
            let (c, o, s, a) = run_kmeans(p, 6);
            assert_eq!(s, s1, "cluster sizes differ at P={p}");
            assert_eq!(a, a1, "assignments differ at P={p}");
            assert!((o - o1).abs() < 1e-6 * o1.max(1.0), "objective {o} vs {o1}");
            for (x, y) in c.iter().zip(&c1) {
                assert!((x - y).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn sizes_sum_to_total_docs() {
        let (_, _, sizes, assignments) = run_kmeans(3, 5);
        assert_eq!(sizes.iter().sum::<u64>() as usize, assignments.len());
    }

    #[test]
    fn assignments_minimize_distance() {
        let src = corpus();
        let rt = Runtime::for_testing();
        rt.run(2, |ctx| {
            let cfg = EngineConfig::for_testing();
            let (s, fwd) = scan(ctx, &src, &cfg);
            let idx = invert(ctx, &s, fwd, &cfg);
            let topics = select_topics(ctx, &idx, &cfg, cfg.n_major, cfg.m_dims());
            let am = assoc::build(ctx, &s, &idx, &topics);
            let sigs = generate(ctx, &s, &am);
            let cl = kmeans(ctx, &sigs, s.doc_base, s.total_docs, 5, 20, 1e-4);
            // Each document must not be strictly closer to a different
            // centroid than to its own (up to fp noise).
            for i in 0..sigs.n_local() {
                let own = dist2(sigs.row(i), cl.centroid(cl.assignments[i] as usize));
                for c in 0..cl.k {
                    let d = dist2(sigs.row(i), cl.centroid(c));
                    assert!(own <= d + 1e-9, "doc {i}: own {own} vs c{c} {d}");
                }
            }
        });
    }

    #[test]
    fn objective_nonincreasing_over_iterations() {
        // Run with generous iterations and verify monotonicity by probing
        // successive iteration caps.
        let mut prev = f64::INFINITY;
        for iters in [1, 3, 6, 12] {
            let src = corpus();
            let rt = Runtime::for_testing();
            let res = rt.run(2, |ctx| {
                let cfg = EngineConfig::for_testing();
                let (s, fwd) = scan(ctx, &src, &cfg);
                let idx = invert(ctx, &s, fwd, &cfg);
                let topics = select_topics(ctx, &idx, &cfg, cfg.n_major, cfg.m_dims());
                let am = assoc::build(ctx, &s, &idx, &topics);
                let sigs = generate(ctx, &s, &am);
                kmeans(ctx, &sigs, s.doc_base, s.total_docs, 5, iters, 0.0).objective
            });
            let obj = res.results[0];
            assert!(
                obj <= prev + 1e-9,
                "objective rose from {prev} to {obj} at {iters} iters"
            );
            prev = obj;
        }
    }

    #[test]
    fn k_clamped_to_total_docs() {
        let src = CorpusSpec {
            target_bytes: 4 * 1024,
            source_bytes: 4 * 1024,
            ..CorpusSpec::pubmed(4 * 1024, 3)
        }
        .generate();
        let rt = Runtime::for_testing();
        rt.run(2, |ctx| {
            let cfg = EngineConfig::for_testing();
            let (s, fwd) = scan(ctx, &src, &cfg);
            let idx = invert(ctx, &s, fwd, &cfg);
            let topics = select_topics(ctx, &idx, &cfg, cfg.n_major, cfg.m_dims());
            let am = assoc::build(ctx, &s, &idx, &topics);
            let sigs = generate(ctx, &s, &am);
            let cl = kmeans(ctx, &sigs, s.doc_base, s.total_docs, 10_000, 5, 1e-4);
            assert!(cl.k <= s.total_docs as usize);
        });
    }
}
