//! Small dense linear algebra: symmetric Jacobi eigendecomposition.
//!
//! The projection stage needs the top eigenvectors of an M×M covariance
//! matrix (M is the signature dimensionality, tens to a few hundred).
//! The cyclic Jacobi method is simple, numerically robust for symmetric
//! matrices, and deterministic — ideal at this size; no external linear
//! algebra dependency is needed.

/// Eigendecomposition result: pairs sorted by descending eigenvalue.
#[derive(Debug, Clone)]
pub struct Eigen {
    pub values: Vec<f64>,
    /// Row `k` of `vectors` is the unit eigenvector for `values[k]`.
    pub vectors: Vec<Vec<f64>>,
}

/// Cyclic Jacobi eigendecomposition of a symmetric matrix given in
/// row-major order. Returns all eigenpairs sorted by descending
/// eigenvalue. Eigenvector signs are canonicalized (largest-magnitude
/// component positive) so results are reproducible.
///
/// # Panics
/// Panics if `a.len() != n * n`.
pub fn jacobi_eigen(a: &[f64], n: usize, max_sweeps: usize) -> Eigen {
    assert_eq!(a.len(), n * n, "matrix must be n x n");
    if n == 0 {
        return Eigen {
            values: Vec::new(),
            vectors: Vec::new(),
        };
    }
    let mut m = a.to_vec();
    // Eigenvector accumulator, starts as identity.
    let mut v = vec![0.0f64; n * n];
    for i in 0..n {
        v[i * n + i] = 1.0;
    }

    for _sweep in 0..max_sweeps {
        // Sum of squares of off-diagonal elements.
        let mut off = 0.0;
        for i in 0..n {
            for j in (i + 1)..n {
                off += m[i * n + j] * m[i * n + j];
            }
        }
        if off < 1e-22 {
            break;
        }
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = m[p * n + q];
                if apq.abs() < 1e-30 {
                    continue;
                }
                let app = m[p * n + p];
                let aqq = m[q * n + q];
                let theta = (aqq - app) / (2.0 * apq);
                let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;
                // Rotate rows/columns p and q of m.
                for k in 0..n {
                    let mkp = m[k * n + p];
                    let mkq = m[k * n + q];
                    m[k * n + p] = c * mkp - s * mkq;
                    m[k * n + q] = s * mkp + c * mkq;
                }
                for k in 0..n {
                    let mpk = m[p * n + k];
                    let mqk = m[q * n + k];
                    m[p * n + k] = c * mpk - s * mqk;
                    m[q * n + k] = s * mpk + c * mqk;
                }
                // Accumulate the rotation into v (columns p and q).
                for k in 0..n {
                    let vkp = v[k * n + p];
                    let vkq = v[k * n + q];
                    v[k * n + p] = c * vkp - s * vkq;
                    v[k * n + q] = s * vkp + c * vkq;
                }
            }
        }
    }

    // Extract eigenpairs and sort (stably) by descending eigenvalue.
    let mut pairs: Vec<(f64, Vec<f64>)> = (0..n)
        .map(|j| {
            let val = m[j * n + j];
            let mut vec: Vec<f64> = (0..n).map(|i| v[i * n + j]).collect();
            // Sign convention: largest-|component| positive.
            let lead = vec
                .iter()
                .cloned()
                .fold(0.0f64, |acc, x| if x.abs() > acc.abs() { x } else { acc });
            if lead < 0.0 {
                for x in &mut vec {
                    *x = -*x;
                }
            }
            (val, vec)
        })
        .collect();
    pairs.sort_by(|a, b| crate::query::rank_cmp((a.0, ()), (b.0, ())));

    Eigen {
        values: pairs.iter().map(|(v, _)| *v).collect(),
        vectors: pairs.into_iter().map(|(_, v)| v).collect(),
    }
}

/// Dot product.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Squared Euclidean distance.
pub fn dist2(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matvec(a: &[f64], n: usize, x: &[f64]) -> Vec<f64> {
        (0..n).map(|i| dot(&a[i * n..(i + 1) * n], x)).collect()
    }

    #[test]
    fn diagonal_matrix_trivial() {
        let a = vec![3.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 2.0];
        let e = jacobi_eigen(&a, 3, 30);
        assert!((e.values[0] - 3.0).abs() < 1e-12);
        assert!((e.values[1] - 2.0).abs() < 1e-12);
        assert!((e.values[2] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn known_2x2() {
        // [[2,1],[1,2]] has eigenvalues 3 and 1.
        let a = vec![2.0, 1.0, 1.0, 2.0];
        let e = jacobi_eigen(&a, 2, 30);
        assert!((e.values[0] - 3.0).abs() < 1e-12);
        assert!((e.values[1] - 1.0).abs() < 1e-12);
        // Eigenvector of 3 is (1,1)/sqrt(2).
        let v = &e.vectors[0];
        assert!((v[0] - v[1]).abs() < 1e-9);
        assert!((dot(v, v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn eigen_equation_holds() {
        // A symmetric random-ish matrix.
        let n = 8;
        let mut a = vec![0.0f64; n * n];
        for i in 0..n {
            for j in 0..=i {
                let val = ((i * 31 + j * 17) % 13) as f64 / 13.0 - 0.4;
                a[i * n + j] = val;
                a[j * n + i] = val;
            }
        }
        let e = jacobi_eigen(&a, n, 50);
        for (k, v) in e.vectors.iter().enumerate() {
            let av = matvec(&a, n, v);
            for i in 0..n {
                assert!(
                    (av[i] - e.values[k] * v[i]).abs() < 1e-8,
                    "A v != lambda v at pair {k}, row {i}"
                );
            }
        }
    }

    #[test]
    fn eigenvectors_orthonormal() {
        let n = 6;
        let mut a = vec![0.0f64; n * n];
        for i in 0..n {
            for j in 0..=i {
                let val = 1.0 / (1.0 + (i as f64 - j as f64).abs());
                a[i * n + j] = val;
                a[j * n + i] = val;
            }
        }
        let e = jacobi_eigen(&a, n, 50);
        for i in 0..n {
            for j in 0..n {
                let d = dot(&e.vectors[i], &e.vectors[j]);
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((d - expect).abs() < 1e-9, "({i},{j}) dot {d}");
            }
        }
    }

    #[test]
    fn trace_preserved() {
        let n = 5;
        let mut a = vec![0.0f64; n * n];
        for i in 0..n {
            for j in 0..=i {
                let val = ((i + j) % 7) as f64;
                a[i * n + j] = val;
                a[j * n + i] = val;
            }
        }
        let trace: f64 = (0..n).map(|i| a[i * n + i]).sum();
        let e = jacobi_eigen(&a, n, 50);
        let sum: f64 = e.values.iter().sum();
        assert!((trace - sum).abs() < 1e-9);
    }

    #[test]
    fn sign_convention_deterministic() {
        let a = vec![2.0, 1.0, 1.0, 2.0];
        let e1 = jacobi_eigen(&a, 2, 30);
        let e2 = jacobi_eigen(&a, 2, 30);
        assert_eq!(e1.vectors, e2.vectors);
        // Leading component positive.
        for v in &e1.vectors {
            let lead = v
                .iter()
                .cloned()
                .fold(0.0f64, |acc, x| if x.abs() > acc.abs() { x } else { acc });
            assert!(lead > 0.0);
        }
    }

    #[test]
    fn empty_matrix() {
        let e = jacobi_eigen(&[], 0, 10);
        assert!(e.values.is_empty());
    }

    #[test]
    fn dist2_and_dot() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        assert_eq!(dist2(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
    }
}
