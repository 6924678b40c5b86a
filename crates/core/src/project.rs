//! Projection from M-space to 2-D (paper §3.5).
//!
//! *"Our approach for dimensionality reduction was to use the cluster
//! centroids and employ principal component analysis (PCA), where we can
//! use the first two principal components to project the M space onto
//! those principal components. Each process computes the transformation
//! matrix using the centroids of the clusters. Finally, using the
//! transformation matrix, each process computes the 2-d or 3-d projection
//! coordinate for its document set. The master process (process with
//! rank=0) collects all the coordinates and writes them to a file."*
//!
//! Fitting PCA on the k centroids instead of all documents keeps the
//! covariance computation `O(k·M²)` and identical on every rank (the
//! centroids are replicated after the k-means Allreduce), so no extra
//! communication is needed until the final coordinate gather.

use crate::cluster::Clustering;
use crate::linalg::{dot, jacobi_eigen};
use crate::signature::Signatures;
use perfmodel::WorkKind;
use spmd::Ctx;

/// The projection outcome (2-D by default; 3-D per §3.5's "2-d or 3-d").
#[derive(Debug, Clone)]
pub struct Projection {
    /// 2-D coordinates of this rank's documents (the first two principal
    /// components — what the ThemeView terrain consumes).
    pub local_coords: Vec<(f64, f64)>,
    /// All documents' 2-D coordinates in global document order — `Some`
    /// on rank 0 only (the paper's master-writes-file step).
    pub all_coords: Option<Vec<(f64, f64)>>,
    /// Full `dims`-dimensional coordinates, row-major `n_local × dims`.
    pub local_coords_nd: Vec<f64>,
    /// Number of projected dimensions (2 or 3).
    pub dims: usize,
    /// The principal axes (each of length M), strongest first.
    pub axes: Vec<Vec<f64>>,
    /// Eigenvalue share captured by the projected axes.
    pub variance_explained: f64,
}

/// Compute the PCA projection onto the first two principal components.
/// Collective.
pub fn project(ctx: &Ctx, sigs: &Signatures, clustering: &Clustering) -> Projection {
    project_nd(ctx, sigs, clustering, 2)
}

/// Compute the PCA projection onto `dims` ∈ {2, 3} principal components.
/// Collective.
pub fn project_nd(
    ctx: &Ctx,
    sigs: &Signatures,
    clustering: &Clustering,
    dims: usize,
) -> Projection {
    assert!((2..=3).contains(&dims), "projection is 2-D or 3-D (§3.5)");
    let m = clustering.m;
    let k = clustering.pca_k;
    let centroid = |c: usize| -> &[f64] { &clustering.pca_centroids[c * m..(c + 1) * m] };

    // ---- Mean-center the centroids ----
    let mut mean = vec![0.0f64; m];
    for c in 0..k {
        for (s, &x) in mean.iter_mut().zip(centroid(c)) {
            *s += x;
        }
    }
    for s in &mut mean {
        *s /= k.max(1) as f64;
    }

    // ---- Covariance of centroids: M×M ----
    ctx.charge(WorkKind::Flops, (k * m * m) as u64);
    let mut cov = vec![0.0f64; m * m];
    for c in 0..k {
        let cen = centroid(c);
        for i in 0..m {
            let di = cen[i] - mean[i];
            for j in i..m {
                let dj = cen[j] - mean[j];
                cov[i * m + j] += di * dj;
            }
        }
    }
    let denom = (k.max(2) - 1) as f64;
    for i in 0..m {
        for j in i..m {
            let v = cov[i * m + j] / denom;
            cov[i * m + j] = v;
            cov[j * m + i] = v;
        }
    }

    // ---- Top principal axes via Jacobi ----
    ctx.charge(WorkKind::Flops, (m * m * m / 2).max(1) as u64);
    let eig = jacobi_eigen(&cov, m, 60);
    let axis = |i: usize| -> Vec<f64> {
        eig.vectors.get(i).cloned().unwrap_or_else(|| {
            // Degenerate covariance (fewer informative dimensions than
            // requested): fall back to a coordinate axis.
            let mut v = vec![0.0; m];
            if i < m {
                v[i] = 1.0;
            }
            v
        })
    };
    let axes: Vec<Vec<f64>> = (0..dims).map(axis).collect();
    let total_var: f64 = eig.values.iter().filter(|v| **v > 0.0).sum();
    let captured: f64 = eig.values.iter().take(dims).filter(|v| **v > 0.0).sum();
    let variance_explained = if total_var > 0.0 {
        captured / total_var
    } else {
        0.0
    };

    // ---- Project local documents ----
    let n_local = sigs.n_local();
    ctx.charge(WorkKind::Flops, (n_local * m * 2 * dims) as u64);
    let mut local_coords = Vec::with_capacity(n_local);
    let mut local_coords_nd = Vec::with_capacity(n_local * dims);
    let mut centered = vec![0.0f64; m];
    for i in 0..n_local {
        let sig = sigs.row(i);
        for (c, (&s, &mu)) in centered.iter_mut().zip(sig.iter().zip(&mean)) {
            *c = s - mu;
        }
        for axis in &axes {
            local_coords_nd.push(dot(&centered, axis));
        }
        let base = local_coords_nd.len() - dims;
        local_coords.push((local_coords_nd[base], local_coords_nd[base + 1]));
    }

    // ---- Master collects all coordinates (rank 0) ----
    let bytes = (n_local * 16) as u64;
    let gathered = ctx.gather_data(0, local_coords.clone(), bytes);
    let all_coords = gathered.map(|parts| parts.concat());

    Projection {
        local_coords,
        all_coords,
        local_coords_nd,
        dims,
        axes,
        variance_explained,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assoc;
    use crate::cluster::kmeans;
    use crate::config::EngineConfig;
    use crate::index::invert;
    use crate::scan::scan;
    use crate::signature::generate;
    use crate::topicality::select_topics;
    use corpus::CorpusSpec;
    use spmd::Runtime;

    fn corpus() -> corpus::SourceSet {
        CorpusSpec {
            source_bytes: 8 * 1024,
            ..CorpusSpec::pubmed(128 * 1024, 5)
        }
        .generate()
    }

    fn run_projection(p: usize) -> (Vec<(f64, f64)>, Vec<Vec<f64>>, f64) {
        let src = corpus();
        let rt = Runtime::for_testing();
        let res = rt.run(p, |ctx| {
            let cfg = EngineConfig::for_testing();
            let (s, fwd) = scan(ctx, &src, &cfg);
            let idx = invert(ctx, &s, fwd, &cfg);
            let topics = select_topics(ctx, &idx, &cfg, cfg.n_major, cfg.m_dims());
            let am = assoc::build(ctx, &s, &idx, &topics);
            let sigs = generate(ctx, &s, &am);
            let cl = kmeans(ctx, &sigs, s.doc_base, s.total_docs, 6, 20, 1e-4);
            let proj = project(ctx, &sigs, &cl);
            (proj.all_coords, proj.axes, proj.variance_explained)
        });
        let (coords, axes, var) = res.results.into_iter().next().unwrap();
        (coords.expect("rank 0 has all coords"), axes, var)
    }

    #[test]
    fn rank0_gathers_all_coordinates() {
        let (coords, _, _) = run_projection(3);
        assert!(coords.len() > 40);
    }

    #[test]
    fn projection_identical_across_p() {
        let (c1, a1, v1) = run_projection(1);
        for p in [2, 4] {
            let (c, a, v) = run_projection(p);
            assert_eq!(c.len(), c1.len());
            for (i, ((x, y), (x1, y1))) in c.iter().zip(&c1).enumerate() {
                assert!(
                    (x - x1).abs() < 1e-7 && (y - y1).abs() < 1e-7,
                    "P={p} doc {i}: ({x},{y}) vs ({x1},{y1})"
                );
            }
            for axis in 0..2 {
                for (x, y) in a[axis].iter().zip(&a1[axis]) {
                    assert!((x - y).abs() < 1e-7);
                }
            }
            assert!((v - v1).abs() < 1e-9);
        }
    }

    #[test]
    fn axes_are_orthonormal() {
        let (_, axes, _) = run_projection(2);
        assert!((dot(&axes[0], &axes[0]) - 1.0).abs() < 1e-9);
        assert!((dot(&axes[1], &axes[1]) - 1.0).abs() < 1e-9);
        assert!(dot(&axes[0], &axes[1]).abs() < 1e-9);
    }

    #[test]
    fn variance_explained_in_unit_range() {
        let (_, _, v) = run_projection(2);
        assert!((0.0..=1.0 + 1e-12).contains(&v), "variance {v}");
        // PCA on k centroids with clear theme structure should capture a
        // non-trivial share in two axes.
        assert!(v > 0.2, "suspiciously low variance explained: {v}");
    }

    #[test]
    fn coordinates_spread_out() {
        // Documents from different themes must not all collapse to one
        // point.
        let (coords, _, _) = run_projection(2);
        let (mut min_x, mut max_x) = (f64::INFINITY, f64::NEG_INFINITY);
        for (x, _) in &coords {
            min_x = min_x.min(*x);
            max_x = max_x.max(*x);
        }
        assert!(
            max_x - min_x > 1e-3,
            "projection collapsed: [{min_x}, {max_x}]"
        );
    }
}
