//! Knowledge signature (document vector) generation (paper §3.4, step 6).
//!
//! > *"Each process computes the knowledge signatures by cycling through
//! > each record. For each term that exists in that record, we obtain the
//! > row within the association matrix. These rows represent a term vector
//! > that when linearly combined with other term vectors and then
//! > normalized we form a signature of that record. During the linear
//! > combination, each term vector is multiplied by the frequency of that
//! > term within that record. … Each signature is normalized based on a
//! > L1 Norm."*
//!
//! The module also implements the §4.2 observation: with too few
//! dimensions *"many records had less than desirable signatures and some
//! were null"*. [`SignatureStats`] counts null and weak signatures so the
//! pipeline can apply the adaptive-dimensionality remedy (expand N and M
//! and regenerate).

use crate::assoc::AssociationMatrix;
use crate::scan::ScanOutput;
use ga::GlobalArray;
use perfmodel::WorkKind;
use spmd::{Ctx, ReduceOp};

/// A signature with fewer than this many non-zero dimensions is "weak".
pub const WEAK_DIMS: usize = 3;

/// Documents per intra-rank chunk for signature generation. Fixed so
/// chunk boundaries — and the order signature blocks concatenate in —
/// do not depend on the pool width.
const SIG_DOC_CHUNK: usize = 64;

/// Quality statistics over all documents (globally reduced).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SignatureStats {
    pub total: u64,
    /// Documents whose signature is identically zero (no major terms).
    pub null: u64,
    /// Documents with a non-null signature on fewer than [`WEAK_DIMS`]
    /// dimensions.
    pub weak: u64,
}

impl SignatureStats {
    /// Fraction of documents with null-or-weak signatures.
    pub fn weak_fraction(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            (self.null + self.weak) as f64 / self.total as f64
        }
    }
}

/// The signatures of this rank's documents plus the persisted global
/// array (the engine's "valuable intermediate product", §2.1 step 7).
pub struct Signatures {
    /// Row-major `n_local × m` local signature block.
    pub local: Vec<f64>,
    /// Signature dimensionality (M). Can be zero when no terms qualified
    /// as topics (degenerate corpora); documents still exist and project
    /// to the origin.
    pub m: usize,
    /// Number of local documents (tracked explicitly so `m == 0` does not
    /// lose them).
    n_local: usize,
    /// The global row-major docs×M array holding every rank's
    /// signatures, one row per document in row-aligned blocks
    /// ([`GlobalArray::create_rows`]).
    pub global: GlobalArray<f64>,
    /// Global quality statistics.
    pub stats: SignatureStats,
}

impl Signatures {
    /// Signature of local document index `i` (empty slice when `m == 0`).
    pub fn row(&self, i: usize) -> &[f64] {
        debug_assert!(i < self.n_local);
        &self.local[i * self.m..(i + 1) * self.m]
    }

    pub fn n_local(&self) -> usize {
        self.n_local
    }

    /// Reassemble signatures from persisted parts (the snapshot restore
    /// path). `local` must be the row-major `n_local × m` block and
    /// `global` the already-populated docs×M array.
    pub fn from_parts(
        local: Vec<f64>,
        m: usize,
        n_local: usize,
        global: GlobalArray<f64>,
        stats: SignatureStats,
    ) -> Signatures {
        debug_assert_eq!(local.len(), n_local * m);
        Signatures {
            local,
            m,
            n_local,
            global,
            stats,
        }
    }
}

/// One record's signature (§3.4): every `(row, freq)` pair — a major
/// term's association-matrix row and the term's frequency in the record
/// — adds `freq × row` into `sig` (zeroed, `m` wide), and the sum is
/// L1-normalized. Pairs add in the order given, so callers that pass
/// them in the same order get the same bits: [`generate`] and the
/// serving tier's live-document signatures pass term order. Returns the
/// L1 norm before normalization; 0 leaves a null signature.
pub fn record_signature<'a>(
    pairs: impl IntoIterator<Item = (&'a [f64], u32)>,
    sig: &mut [f64],
) -> f64 {
    for (row, freq) in pairs {
        let w = freq as f64;
        for (s, &a) in sig.iter_mut().zip(row) {
            *s += w * a;
        }
    }
    let l1: f64 = sig.iter().map(|x| x.abs()).sum();
    if l1 != 0.0 {
        for s in sig.iter_mut() {
            *s /= l1;
        }
    }
    l1
}

/// Generate signatures for this rank's documents. Collective.
pub fn generate(ctx: &Ctx, scan: &ScanOutput, am: &AssociationMatrix) -> Signatures {
    let m = am.m;
    // Each document's signature depends only on its own terms, so the
    // per-doc loop fans out over the intra-rank pool: each fixed-size
    // chunk produces its block of rows, and blocks concatenate in chunk
    // index order — bit-identical to the serial loop at any pool width.
    // The Flops charge lands once, after the merge.
    let blocks: Vec<(Vec<f64>, u64, u64, u64)> =
        ctx.pool()
            .map_chunks(scan.docs.len(), SIG_DOC_CHUNK, |chunk| {
                let mut block = vec![0.0f64; chunk.len() * m];
                let mut null = 0u64;
                let mut weak = 0u64;
                let mut flops = 0u64;
                for (bi, d) in scan.docs[chunk].iter().enumerate() {
                    let sig = &mut block[bi * m..(bi + 1) * m];
                    let mut rows = 0u64;
                    let terms = d.distinct_terms().into_iter();
                    let pairs = terms.filter_map(|(t, freq)| Some((am.row(t)?, freq)));
                    let l1 = record_signature(pairs.inspect(|_| rows += 1), sig);
                    flops += (2 * rows + 1) * m as u64;
                    if l1 == 0.0 {
                        null += 1;
                    } else if sig.iter().filter(|&&x| x != 0.0).count() < WEAK_DIMS {
                        weak += 1;
                    }
                }
                (block, null, weak, flops)
            });
    let mut local = Vec::with_capacity(scan.docs.len() * m);
    let mut null = 0u64;
    let mut weak = 0u64;
    let mut flops = 0u64;
    for (block, n, w, f) in blocks {
        local.extend_from_slice(&block);
        null += n;
        weak += w;
        flops += f;
    }
    ctx.charge(WorkKind::Flops, flops);

    // Persist into the global signature array (step 7).
    let global = GlobalArray::<f64>::create_rows(ctx, scan.total_docs as usize, m);
    global.put(ctx, scan.doc_base as usize * m, &local);
    ctx.barrier();

    // Global quality statistics.
    let sums = ctx.allreduce(vec![scan.docs.len() as u64, null, weak], ReduceOp::Sum);
    let stats = SignatureStats {
        total: sums[0],
        null: sums[1],
        weak: sums[2],
    };

    Signatures {
        local,
        m,
        n_local: scan.docs.len(),
        global,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assoc;
    use crate::config::EngineConfig;
    use crate::index::invert;
    use crate::scan::scan;
    use crate::topicality::select_topics;
    use corpus::CorpusSpec;
    use spmd::Runtime;

    fn corpus() -> corpus::SourceSet {
        CorpusSpec {
            source_bytes: 8 * 1024,
            ..CorpusSpec::pubmed(48 * 1024, 31)
        }
        .generate()
    }

    fn full_sigs(p: usize) -> (usize, Vec<f64>, SignatureStats) {
        let src = corpus();
        let rt = Runtime::for_testing();
        let mut res = rt.run(p, |ctx| {
            let cfg = EngineConfig::for_testing();
            let (s, fwd) = scan(ctx, &src);
            let idx = invert(ctx, &s, fwd, &cfg);
            let topics = select_topics(ctx, &idx, &cfg, cfg.n_major, cfg.m_dims());
            let am = assoc::build(ctx, &s, &idx, &topics);
            let sigs = generate(ctx, &s, &am);
            ctx.barrier();
            // Materialize the full matrix for comparison.
            (sigs.m, sigs.global.to_vec_collective(ctx), sigs.stats)
        });
        res.results.remove(0)
    }

    #[test]
    fn signatures_l1_normalized() {
        let (m, all, _) = full_sigs(2);
        let n_docs = all.len() / m;
        let mut checked = 0;
        for d in 0..n_docs {
            let row = &all[d * m..(d + 1) * m];
            let l1: f64 = row.iter().map(|x| x.abs()).sum();
            if l1 > 0.0 {
                assert!((l1 - 1.0).abs() < 1e-9, "doc {d} l1 {l1}");
                checked += 1;
            }
        }
        assert!(checked > 0, "no non-null signatures at all");
    }

    #[test]
    fn signatures_identical_across_p() {
        let (m1, v1, st1) = full_sigs(1);
        for p in [2, 3] {
            let (m, v, st) = full_sigs(p);
            assert_eq!(m, m1);
            assert_eq!(st, st1, "stats differ at P={p}");
            assert_eq!(v.len(), v1.len());
            for (i, (a, b)) in v.iter().zip(&v1).enumerate() {
                assert!((a - b).abs() < 1e-9, "P={p} sig[{i}]: {a} vs {b}");
            }
        }
    }

    #[test]
    fn signatures_nonnegative() {
        // Association entries are probabilities and frequencies are
        // positive, so signatures live on the simplex.
        let (_, v, _) = full_sigs(2);
        assert!(v.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn stats_account_for_all_docs() {
        let (m, v, st) = full_sigs(2);
        assert_eq!(st.total as usize, v.len() / m);
        assert!(st.null + st.weak <= st.total);
    }

    #[test]
    fn record_signature_weights_rows_by_frequency_then_l1_normalizes() {
        // Two rows, m = 3.
        let (r0, r1) = ([0.2, 0.0, 0.6], [0.1, 0.3, 0.0]);
        let mut sig = [0.0; 3];
        let l1 = record_signature([(&r0[..], 2), (&r1[..], 1)], &mut sig);
        // Raw: 2*[0.2,0,0.6] + 1*[0.1,0.3,0] = [0.5,0.3,1.2]; L1 = 2.
        assert!((l1 - 2.0).abs() < 1e-12);
        assert!((sig[0] - 0.25).abs() < 1e-12);
        assert!((sig[1] - 0.15).abs() < 1e-12);
        assert!((sig[2] - 0.6).abs() < 1e-12);
        let l1: f64 = sig.iter().sum();
        assert!((l1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn record_signature_without_rows_is_null() {
        let mut sig = [0.0; 3];
        assert_eq!(record_signature(std::iter::empty(), &mut sig), 0.0);
        assert_eq!(sig, [0.0; 3]);
    }

    #[test]
    fn weak_fraction_bounds() {
        let s = SignatureStats {
            total: 100,
            null: 5,
            weak: 15,
        };
        assert!((s.weak_fraction() - 0.2).abs() < 1e-12);
        let empty = SignatureStats {
            total: 0,
            null: 0,
            weak: 0,
        };
        assert_eq!(empty.weak_fraction(), 0.0);
    }
}
