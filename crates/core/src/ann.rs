//! IVF-accelerated similarity search over knowledge signatures.
//!
//! "Find documents like this one" over the per-document knowledge
//! signatures (paper §3.4) needs candidate pruning to stay interactive:
//! an exhaustive scan is O(docs × M) `f64` work per query. This module
//! reuses the engine's k-means centroids (§3.5) as an **inverted-file
//! (IVF) coarse quantizer**:
//!
//! * At snapshot time every document already carries its nearest-centroid
//!   assignment; [`build_ivf`] groups documents into per-centroid posting
//!   lists and re-encodes each signature with **per-signature scalar
//!   quantization** — `u8` codes plus an `f64` scale/offset pair — and
//!   records the exact `f64` L2 norm for re-ranking.
//! * At query time [`search`] ranks centroids by cosine, scans the
//!   top-`nprobe` lists with the widening `u8` dot-product kernel
//!   [`dot_u8`], drops every candidate whose upper bound (from the
//!   quantization error bound [`dot_error_bound`]) lies below the
//!   top-k-th best lower bound, and **exactly re-ranks** the survivors
//!   in `f64`, skipping each one whose upper bound cannot displace the
//!   current k-th best exact score. Within the probed lists the result
//!   is therefore identical to an exhaustive `f64` scan of those lists,
//!   so `nprobe = k` reproduces [`exhaustive`] exactly.
//!
//! Everything here is deterministic: every order is
//! [`rank_cmp`](crate::query::rank_cmp), so ties break toward the lower
//! doc id (and lower centroid index), and no accumulation order depends
//! on the processor count.

use crate::linalg::dot;
use crate::query::{rank_cmp, Hit, TopK};
use crate::DocId;
use std::cmp::Ordering;

/// Largest quantization code (codes span `0..=255`).
pub const QMAX: f64 = 255.0;

/// Per-signature scalar quantization parameters: a signature component
/// `s_i` is encoded as `round((s_i - offset) / scale)` and decoded as
/// `offset + code * scale`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantParams {
    pub scale: f64,
    pub offset: f64,
}

/// Quantize one signature into `codes` (same length), returning the
/// per-signature parameters. A constant signature (max == min, including
/// the all-zero null signature) encodes as all-zero codes with scale 0.
pub fn quantize_into(sig: &[f64], codes: &mut [u8]) -> QuantParams {
    debug_assert_eq!(sig.len(), codes.len());
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for &x in sig {
        lo = lo.min(x);
        hi = hi.max(x);
    }
    if sig.is_empty() || hi <= lo {
        codes.fill(0);
        return QuantParams {
            scale: 0.0,
            offset: if sig.is_empty() { 0.0 } else { lo },
        };
    }
    let scale = (hi - lo) / QMAX;
    let inv = QMAX / (hi - lo);
    for (c, &x) in codes.iter_mut().zip(sig) {
        *c = ((x - lo) * inv).round().clamp(0.0, QMAX) as u8;
    }
    QuantParams { scale, offset: lo }
}

/// Decode one component.
pub fn dequantize(code: u8, p: QuantParams) -> f64 {
    p.offset + code as f64 * p.scale
}

/// Components per `u32` partial sum in [`dot_u8`]: 16384 products of
/// at most 255² sum to under 2³⁰, far from `u32::MAX` (which 66,052
/// saturated products would pass).
const DOT_BLOCK: usize = 16384;

/// `u8·u8` dot product: a plain widening `u8 → u32` multiply-sum per
/// block of [`DOT_BLOCK`] components, which the compiler vectorises,
/// folded into `u64` per block so that no length can overflow.
pub fn dot_u8(a: &[u8], b: &[u8]) -> u64 {
    debug_assert_eq!(a.len(), b.len());
    (a.chunks(DOT_BLOCK).zip(b.chunks(DOT_BLOCK)))
        .map(|(ca, cb)| {
            let block: u32 = ca.iter().zip(cb).map(|(&x, &y)| x as u32 * y as u32).sum();
            block as u64
        })
        .sum()
}

/// Scalar reference for [`dot_u8`] (the oracle the kernel is tested
/// against).
pub fn dot_u8_ref(a: &[u8], b: &[u8]) -> u64 {
    a.iter().zip(b).map(|(&x, &y)| x as u64 * y as u64).sum()
}

/// Approximate `f64` dot product of two quantized signatures, expanded
/// from the affine decode without materializing any `f64` vector:
///
/// ```text
/// â·b̂ = Σ (oa + sa·ai)(ob + sb·bi)
///     = m·oa·ob + oa·sb·Σbi + ob·sa·Σai + sa·sb·Σ ai·bi
/// ```
///
/// `sum_a`/`sum_b` are the plain code sums and the last term is the
/// [`dot_u8`] kernel.
#[allow(clippy::too_many_arguments)]
pub fn approx_dot(
    m: usize,
    a: QuantParams,
    sum_a: u32,
    b: QuantParams,
    sum_b: u32,
    codes_dot: u64,
) -> f64 {
    m as f64 * a.offset * b.offset
        + a.offset * b.scale * sum_b as f64
        + b.offset * a.scale * sum_a as f64
        + a.scale * b.scale * codes_dot as f64
}

/// Upper bound on `|a·b − â·b̂|` for round-to-nearest quantization with
/// per-component error ≤ scale/2, in terms of the exact L1 norms:
///
/// ```text
/// |a·b − â·b̂| ≤ Σ|aᵢ−âᵢ||bᵢ| + Σ|âᵢ||bᵢ−b̂ᵢ|
///            ≤ (sa/2)·‖b‖₁ + (sb/2)·(‖a‖₁ + m·sa/2)
/// ```
///
/// The returned value is inflated by a small relative+absolute slack so
/// the bound stays safe under its own `f64` rounding.
pub fn dot_error_bound(a: QuantParams, b: QuantParams, l1_a: f64, l1_b: f64, m: usize) -> f64 {
    let ea = a.scale * 0.5;
    let eb = b.scale * 0.5;
    let raw = ea * l1_b + eb * (l1_a + m as f64 * ea);
    raw * (1.0 + 1e-9) + 1e-15
}

/// Exact L2 norm of a signature row; the same helper is used at snapshot
/// write time and by the exhaustive oracle, so stored and recomputed
/// norms are bit-identical.
pub fn l2_norm(row: &[f64]) -> f64 {
    dot(row, row).sqrt()
}

/// The IVF index and quantized signature store built at snapshot time.
/// `ivfdoc`, `codes`, `scale`, `offset`, and `norm` are all in **list
/// order**: documents grouped by centroid (clusters ascending, doc ids
/// ascending within a cluster) so a probe scans contiguous memory.
#[derive(Debug, Clone, PartialEq)]
pub struct IvfData {
    pub k: usize,
    pub m: usize,
    /// `k + 1` offsets into the list-order arrays; cluster `c` owns list
    /// positions `ivfoff[c] .. ivfoff[c + 1]`.
    pub ivfoff: Vec<u64>,
    /// Global doc id at each list position (a permutation of `0..docs`).
    pub ivfdoc: Vec<u32>,
    /// `docs × m` quantized codes, list order.
    pub codes: Vec<u8>,
    /// Per-signature quantization scale, list order.
    pub scale: Vec<f64>,
    /// Per-signature quantization offset, list order.
    pub offset: Vec<f64>,
    /// Exact `f64` L2 norm of each signature, list order.
    pub norm: Vec<f64>,
}

/// Build the IVF lists and quantized store from the full `docs × m`
/// signature matrix and the per-document centroid assignments.
pub fn build_ivf(sigs: &[f64], m: usize, assignments: &[u32], k: usize) -> IvfData {
    let docs = assignments.len();
    debug_assert_eq!(sigs.len(), docs * m);
    let mut counts = vec![0u64; k + 1];
    for &a in assignments {
        debug_assert!((a as usize) < k);
        counts[a as usize + 1] += 1;
    }
    let mut ivfoff = counts;
    for c in 0..k {
        ivfoff[c + 1] += ivfoff[c];
    }
    let mut next: Vec<u64> = ivfoff[..k].to_vec();
    let mut ivfdoc = vec![0u32; docs];
    let mut codes = vec![0u8; docs * m];
    let mut scale = vec![0.0f64; docs];
    let mut offset = vec![0.0f64; docs];
    let mut norm = vec![0.0f64; docs];
    // Ascending doc order within each cluster falls out of the stable
    // counting sort: documents are visited in global id order.
    for (doc, &a) in assignments.iter().enumerate() {
        let pos = next[a as usize] as usize;
        next[a as usize] += 1;
        let row = &sigs[doc * m..(doc + 1) * m];
        ivfdoc[pos] = doc as u32;
        let p = quantize_into(row, &mut codes[pos * m..(pos + 1) * m]);
        scale[pos] = p.scale;
        offset[pos] = p.offset;
        norm[pos] = l2_norm(row);
    }
    IvfData {
        k,
        m,
        ivfoff,
        ivfdoc,
        codes,
        scale,
        offset,
        norm,
    }
}

/// Per-list-position code sums (`Σ codes`), precomputed once at state
/// load so [`search`]'s affine expansion needs no per-query pass.
pub fn code_sums(codes: &[u8], m: usize) -> Vec<u32> {
    if m == 0 {
        return Vec::new();
    }
    codes
        .chunks_exact(m)
        .map(|row| row.iter().map(|&c| c as u32).sum())
        .collect()
}

/// [`l2_norm`] of each `m`-wide row of `rows`: the centroid norms
/// [`search`] ranks probes by, precomputed once at state load.
pub fn row_norms(rows: &[f64], m: usize) -> Vec<f64> {
    if m == 0 {
        return Vec::new();
    }
    rows.chunks_exact(m).map(l2_norm).collect()
}

/// Borrowed view over a (possibly snapshot-backed) IVF index plus the
/// exact `f64` signatures used for re-ranking.
#[derive(Debug, Clone, Copy)]
pub struct AnnIndexView<'a> {
    pub k: usize,
    pub m: usize,
    /// Row-major `k × m` k-means centroids.
    pub centroids: &'a [f64],
    /// Precomputed [`row_norms`] of `centroids`.
    pub centroid_norms: &'a [f64],
    pub ivfoff: &'a [u64],
    pub ivfdoc: &'a [u32],
    pub codes: &'a [u8],
    pub scale: &'a [f64],
    pub offset: &'a [f64],
    pub norm: &'a [f64],
    /// Precomputed [`code_sums`].
    pub sums: &'a [u32],
    /// Exact `docs × m` signatures in **doc order** (the snapshot's
    /// `sigs` section), indexed by global doc id for re-ranking.
    pub exact: &'a [f64],
}

impl<'a> AnnIndexView<'a> {
    /// Borrow a freshly built [`IvfData`] (testing and benches).
    pub fn of(
        data: &'a IvfData,
        centroids: &'a [f64],
        centroid_norms: &'a [f64],
        sums: &'a [u32],
        exact: &'a [f64],
    ) -> Self {
        AnnIndexView {
            k: data.k,
            m: data.m,
            centroids,
            centroid_norms,
            ivfoff: &data.ivfoff,
            ivfdoc: &data.ivfdoc,
            codes: &data.codes,
            scale: &data.scale,
            offset: &data.offset,
            norm: &data.norm,
            sums,
            exact,
        }
    }

    pub fn docs(&self) -> usize {
        self.ivfdoc.len()
    }
}

/// Work counters for one [`search`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Clusters probed.
    pub probed: usize,
    /// Quantized candidates scanned with the `u8` kernel.
    pub candidates: usize,
    /// Candidates exactly re-ranked in `f64`: those that pass both the
    /// threshold [`search`] sets before sorting and the running k-th
    /// best check, never a tombstoned one.
    pub reranked: usize,
}

/// Cosine similarity of `query` and `row` given their L2 norms; 0 when
/// either is null. The re-rank's exact score.
pub fn cosine(query: &[f64], qnorm: f64, row: &[f64], norm: f64) -> f64 {
    if qnorm == 0.0 || norm == 0.0 {
        return 0.0;
    }
    dot(query, row) / (qnorm * norm)
}

/// One scanned list member: its approximate cosine, that cosine's error
/// bound, its list position and its document.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    approx: f64,
    bound: f64,
    pos: u32,
    doc: DocId,
}

impl Candidate {
    /// The re-rank order: by approximate cosine, ties to the lower doc.
    fn rank_cmp(&self, other: &Candidate) -> Ordering {
        rank_cmp((self.approx, self.doc), (other.approx, other.doc))
    }

    /// The least exact cosine the bound allows, with a non-finite one
    /// read as `-∞` so that it can vouch for nothing.
    fn floor(&self) -> f64 {
        let low = self.approx - self.bound;
        if low.is_finite() {
            low
        } else {
            f64::NEG_INFINITY
        }
    }
}

/// IVF similarity search: rank centroids by cosine, scan the top
/// `nprobe` lists with the quantized kernel, then exactly re-rank into
/// `best`, passing over the `deleted` documents (sorted ids), until the
/// error bound proves no remaining candidate can enter it. A null or
/// mis-sized query offers nothing and counts nothing.
///
/// Only the candidates that could still reach `best` are sorted: with
/// `T` the `best.capacity()`-th largest lower bound (`approx − bound`)
/// among the live candidates, at least that many live candidates score
/// `≥ T` exactly, so `best`'s k-th score ends `≥ T` whatever is offered
/// to it later, and a candidate whose upper bound (`approx + bound`)
/// lies below `T` can never enter. The answer is the one re-ranking
/// every candidate would give; only [`SearchStats::reranked`] may be
/// lower.
pub fn search(
    view: &AnnIndexView,
    query: &[f64],
    nprobe: usize,
    deleted: &[DocId],
    best: &mut TopK,
    out_stats: &mut SearchStats,
) {
    *out_stats = SearchStats::default();
    let Some((qnorm, mut cand)) = scan(view, query, nprobe, out_stats) else {
        return;
    };
    // ---- Keep the live candidates that can reach the top. ----
    cand.retain(|c| deleted.binary_search(&c.doc).is_err());
    let threshold = match best.capacity().checked_sub(1) {
        Some(i) if i < cand.len() => {
            let (_, nth, _) =
                cand.select_nth_unstable_by(i, |a, b| b.floor().total_cmp(&a.floor()));
            nth.floor()
        }
        _ => f64::NEG_INFINITY,
    };
    // A NaN upper bound is not below the threshold: it survives.
    cand.retain(|c| (c.approx + c.bound).partial_cmp(&threshold) != Some(Ordering::Less));
    cand.sort_unstable_by(Candidate::rank_cmp);
    rerank(view, query, qnorm, &cand, best, out_stats);
}

/// Rank the centroids by cosine (ties toward the lower index) and scan
/// the top `nprobe` lists with the quantized kernel, counting both in
/// `stats`. `None`, counting nothing, for a null or mis-sized query or
/// an empty index; else the query's L2 norm and every list member.
fn scan(
    view: &AnnIndexView,
    query: &[f64],
    nprobe: usize,
    stats: &mut SearchStats,
) -> Option<(f64, Vec<Candidate>)> {
    let (m, qnorm) = (view.m, l2_norm(query));
    if view.docs() == 0 || m == 0 || query.len() != m || qnorm == 0.0 {
        return None;
    }
    let ql1: f64 = query.iter().map(|x| x.abs()).sum();
    let mut qcodes = vec![0u8; m];
    let qp = quantize_into(query, &mut qcodes);
    let qsum: u32 = qcodes.iter().map(|&c| c as u32).sum();

    let mut order: Vec<(f64, usize)> = (0..view.k)
        .map(|c| {
            let row = &view.centroids[c * m..(c + 1) * m];
            (cosine(query, qnorm, row, view.centroid_norms[c]), c)
        })
        .collect();
    order.sort_by(|&a, &b| rank_cmp(a, b));
    let probed = &order[..nprobe.clamp(1, view.k)];
    let list = |c: usize| view.ivfoff[c] as usize..view.ivfoff[c + 1] as usize;

    let mut cand = Vec::with_capacity(probed.iter().map(|&(_, c)| list(c).len()).sum());
    for &(_, c) in probed {
        let span = list(c);
        let rows = view.codes[span.start * m..span.end * m].chunks_exact(m);
        for (pos, row) in span.zip(rows) {
            let dn = view.norm[pos];
            let dp = QuantParams {
                scale: view.scale[pos],
                offset: view.offset[pos],
            };
            let (approx, bound) = if dn == 0.0 {
                (0.0, 0.0)
            } else {
                let ad = approx_dot(m, qp, qsum, dp, view.sums[pos], dot_u8(&qcodes, row));
                // Document signatures are L1-normalized, so a non-null
                // signature has ‖s‖₁ = 1 exactly.
                let eb = dot_error_bound(qp, dp, ql1, 1.0, m);
                (ad / (qnorm * dn), eb / (qnorm * dn))
            };
            cand.push(Candidate {
                approx,
                bound,
                pos: pos as u32,
                doc: view.ivfdoc[pos],
            });
        }
    }
    stats.probed = probed.len();
    stats.candidates = cand.len();
    Some((qnorm, cand))
}

/// Bounded exact re-rank of `cand`, in [`Candidate::rank_cmp`] order,
/// into `best`. Once `best` is full, a candidate whose optimistic score
/// (approx + bound) falls below its k-th best is provably outside it,
/// and the candidates after it are ranked lower still — but their
/// bounds differ, so each is checked individually.
fn rerank(
    view: &AnnIndexView,
    query: &[f64],
    qnorm: f64,
    cand: &[Candidate],
    best: &mut TopK,
    stats: &mut SearchStats,
) {
    let m = view.m;
    for c in cand {
        if best.kth().is_some_and(|kth| c.approx + c.bound < kth) {
            continue;
        }
        let row = &view.exact[c.doc as usize * m..(c.doc as usize + 1) * m];
        let score = cosine(query, qnorm, row, view.norm[c.pos as usize]);
        stats.reranked += 1;
        best.offer(Hit { doc: c.doc, score });
    }
}

/// Exhaustive-scan oracle: exact `f64` cosine against every document,
/// scored and fully sorted on its own, so that it shares no top-k with
/// the [`search`] it checks.
pub fn exhaustive(sigs: &[f64], m: usize, query: &[f64], top: usize) -> Vec<Hit> {
    if m == 0 || sigs.is_empty() || top == 0 || query.len() != m {
        return Vec::new();
    }
    let qnorm = l2_norm(query);
    if qnorm == 0.0 {
        return Vec::new();
    }
    let docs = sigs.len() / m;
    let mut hits: Vec<Hit> = (0..docs)
        .map(|d| {
            let row = &sigs[d * m..(d + 1) * m];
            let dn = l2_norm(row);
            let score = if dn == 0.0 {
                0.0
            } else {
                dot(query, row) / (qnorm * dn)
            };
            Hit {
                doc: d as DocId,
                score,
            }
        })
        .collect();
    hits.sort_by(Hit::rank_cmp);
    hits.truncate(top);
    hits
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Deterministic xorshift for synthetic signatures.
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }
        fn f64(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// `docs` simplex-ish signatures (nonnegative, L1-normalized, some
    /// null), plus k-means-free synthetic assignments.
    fn synth(docs: usize, m: usize, k: usize, seed: u64) -> (Vec<f64>, Vec<u32>, Vec<f64>) {
        let mut rng = Rng(seed | 1);
        let mut sigs = vec![0.0f64; docs * m];
        for d in 0..docs {
            if d % 17 == 9 {
                continue; // null signature
            }
            let row = &mut sigs[d * m..(d + 1) * m];
            for x in row.iter_mut() {
                // Sparse-ish nonnegative values.
                let v = rng.f64();
                *x = if v < 0.55 { 0.0 } else { v };
            }
            let l1: f64 = row.iter().sum();
            if l1 > 0.0 {
                for x in row.iter_mut() {
                    *x /= l1;
                }
            }
        }
        let assignments: Vec<u32> = (0..docs).map(|d| (d % k) as u32).collect();
        // Centroids: mean of each cluster's signatures.
        let mut centroids = vec![0.0f64; k * m];
        let mut counts = vec![0u64; k];
        for d in 0..docs {
            let c = assignments[d] as usize;
            counts[c] += 1;
            for j in 0..m {
                centroids[c * m + j] += sigs[d * m + j];
            }
        }
        for c in 0..k {
            if counts[c] > 0 {
                for j in 0..m {
                    centroids[c * m + j] /= counts[c] as f64;
                }
            }
        }
        (sigs, assignments, centroids)
    }

    /// The search before the threshold, kept as the oracle of [`search`]:
    /// every live candidate sorted and offered to the bounded re-rank.
    fn search_sorting_all(
        view: &AnnIndexView,
        query: &[f64],
        nprobe: usize,
        deleted: &[DocId],
        best: &mut TopK,
        out_stats: &mut SearchStats,
    ) {
        *out_stats = SearchStats::default();
        let Some((qnorm, mut cand)) = scan(view, query, nprobe, out_stats) else {
            return;
        };
        cand.retain(|c| deleted.binary_search(&c.doc).is_err());
        cand.sort_by(Candidate::rank_cmp);
        rerank(view, query, qnorm, &cand, best, out_stats);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The threshold changes which candidates are re-ranked, never
        /// the answer: at every `nprobe` and top size, over random
        /// signatures (null rows among them) and tombstones, [`search`]
        /// returns the oracle's hits bit for bit and counts the same
        /// probes and candidates, re-ranking no more than it.
        #[test]
        fn threshold_search_equals_sorting_every_candidate(
            docs in 1usize..300,
            m in 1usize..40,
            k in 1usize..12,
            seed in any::<u64>(),
            tomb_seed in any::<u64>(),
            qpick in any::<usize>(),
        ) {
            let (sigs, assignments, centroids) = synth(docs, m, k, seed);
            let ivf = build_ivf(&sigs, m, &assignments, k);
            let sums = code_sums(&ivf.codes, m);
            let cnorms = row_norms(&centroids, m);
            let view = AnnIndexView::of(&ivf, &centroids, &cnorms, &sums, &sigs);
            let mut rng = Rng(tomb_seed | 1);
            let density = rng.next() % 4;
            let deleted: Vec<DocId> =
                (0..docs as DocId).filter(|_| rng.next() % 8 < density).collect();
            let q = qpick % docs;
            let query = &sigs[q * m..(q + 1) * m];
            for nprobe in 1..=k {
                for top in [0, 1, 10, 50, docs + 1] {
                    let (mut got, mut want) = (TopK::new(top), TopK::new(top));
                    let (mut gs, mut ws) = (SearchStats::default(), SearchStats::default());
                    search(&view, query, nprobe, &deleted, &mut got, &mut gs);
                    search_sorting_all(&view, query, nprobe, &deleted, &mut want, &mut ws);
                    let bits = |hits: Vec<Hit>| -> Vec<(DocId, u64)> {
                        hits.iter().map(|h| (h.doc, h.score.to_bits())).collect()
                    };
                    prop_assert_eq!(
                        bits(got.into_sorted()),
                        bits(want.into_sorted()),
                        "q={} nprobe={} top={}", q, nprobe, top
                    );
                    prop_assert_eq!((gs.probed, gs.candidates), (ws.probed, ws.candidates));
                    prop_assert!(gs.reranked <= ws.reranked);
                }
            }
        }
    }

    /// [`search`] into a fresh top-`top`, nothing deleted.
    fn top_hits(
        view: &AnnIndexView,
        query: &[f64],
        top: usize,
        nprobe: usize,
        stats: &mut SearchStats,
    ) -> Vec<Hit> {
        let mut best = TopK::new(top);
        search(view, query, nprobe, &[], &mut best, stats);
        best.into_sorted()
    }

    #[test]
    fn quantize_roundtrip_within_half_scale() {
        let mut rng = Rng(7);
        for _ in 0..50 {
            let sig: Vec<f64> = (0..37).map(|_| rng.f64()).collect();
            let mut codes = vec![0u8; sig.len()];
            let p = quantize_into(&sig, &mut codes);
            for (&c, &x) in codes.iter().zip(&sig) {
                let err = (dequantize(c, p) - x).abs();
                assert!(
                    err <= p.scale * 0.5 + 1e-12,
                    "err {err} vs scale {}",
                    p.scale
                );
            }
        }
    }

    #[test]
    fn quantize_degenerate_rows() {
        let mut codes = vec![0u8; 4];
        let p = quantize_into(&[0.0; 4], &mut codes);
        assert_eq!(
            p,
            QuantParams {
                scale: 0.0,
                offset: 0.0
            }
        );
        assert_eq!(codes, [0; 4]);
        let p = quantize_into(&[0.25; 4], &mut codes);
        assert_eq!(p.scale, 0.0);
        assert_eq!(p.offset, 0.25);
        assert_eq!(dequantize(codes[0], p), 0.25);
        let p = quantize_into(&[], &mut []);
        assert_eq!(p.scale, 0.0);
    }

    #[test]
    fn kernel_matches_reference() {
        let mut rng = Rng(11);
        for len in [0usize, 1, 3, 4, 5, 60, 180, 1000, 20000] {
            let a: Vec<u8> = (0..len).map(|_| rng.next() as u8).collect();
            let b: Vec<u8> = (0..len).map(|_| rng.next() as u8).collect();
            assert_eq!(dot_u8(&a, &b), dot_u8_ref(&a, &b), "len {len}");
        }
        // Saturated: worst-case magnitudes must not overflow, on either
        // side of a block edge and past one `u32`'s worth of 255²
        // products (66,052 of them exceed `u32::MAX`).
        for len in [16383u64, 16384, 16385, 20000, 66052] {
            let a = vec![255u8; len as usize];
            assert_eq!(dot_u8(&a, &a), len * 255 * 255, "len {len}");
        }
    }

    #[test]
    fn approx_dot_within_error_bound() {
        let mut rng = Rng(23);
        let m = 60;
        for _ in 0..200 {
            let a: Vec<f64> = (0..m).map(|_| rng.f64()).collect();
            let b: Vec<f64> = (0..m).map(|_| rng.f64() * 0.01).collect();
            let (mut ca, mut cb) = (vec![0u8; m], vec![0u8; m]);
            let pa = quantize_into(&a, &mut ca);
            let pb = quantize_into(&b, &mut cb);
            let sa: u32 = ca.iter().map(|&c| c as u32).sum();
            let sb: u32 = cb.iter().map(|&c| c as u32).sum();
            let approx = approx_dot(m, pa, sa, pb, sb, dot_u8(&ca, &cb));
            let exact = dot(&a, &b);
            let l1a: f64 = a.iter().sum();
            let l1b: f64 = b.iter().sum();
            let bound = dot_error_bound(pa, pb, l1a, l1b, m);
            assert!(
                (approx - exact).abs() <= bound,
                "err {} vs bound {bound}",
                (approx - exact).abs()
            );
        }
    }

    #[test]
    fn ivf_lists_partition_docs() {
        let (sigs, assignments, _) = synth(101, 24, 7, 5);
        let ivf = build_ivf(&sigs, 24, &assignments, 7);
        assert_eq!(ivf.ivfoff.len(), 8);
        assert_eq!(*ivf.ivfoff.last().unwrap(), 101);
        let mut seen = [false; 101];
        for c in 0..7 {
            let lo = ivf.ivfoff[c] as usize;
            let hi = ivf.ivfoff[c + 1] as usize;
            for pos in lo..hi {
                let doc = ivf.ivfdoc[pos];
                assert_eq!(assignments[doc as usize] as usize, c);
                assert!(!seen[doc as usize]);
                seen[doc as usize] = true;
                if pos > lo {
                    assert!(ivf.ivfdoc[pos - 1] < doc, "lists ascend by doc id");
                }
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn full_probe_matches_exhaustive_bitwise() {
        let m = 24;
        let k = 7;
        let (sigs, assignments, centroids) = synth(101, m, k, 13);
        let ivf = build_ivf(&sigs, m, &assignments, k);
        let sums = code_sums(&ivf.codes, m);
        let cnorms = row_norms(&centroids, m);
        let view = AnnIndexView::of(&ivf, &centroids, &cnorms, &sums, &sigs);
        let mut stats = SearchStats::default();
        for q in [0usize, 3, 9, 42, 100] {
            let query = sigs[q * m..(q + 1) * m].to_vec();
            if l2_norm(&query) == 0.0 {
                continue;
            }
            for top in [1, 10, 100] {
                let got = top_hits(&view, &query, top, k, &mut stats);
                let want = exhaustive(&sigs, m, &query, top);
                assert_eq!(got.len(), want.len());
                for (g, w) in got.iter().zip(&want) {
                    assert_eq!(g.doc, w.doc, "doc mismatch, q={q} top={top}");
                    assert_eq!(
                        g.score.to_bits(),
                        w.score.to_bits(),
                        "score bits differ, q={q} top={top}"
                    );
                }
            }
        }
    }

    /// Deleted documents are passed over at re-rank, yet still counted
    /// as candidates: the full probe equals the exhaustive scan with
    /// them filtered out.
    #[test]
    fn deleted_docs_are_skipped_not_uncounted() {
        let (m, k) = (24, 7);
        let (sigs, assignments, centroids) = synth(101, m, k, 13);
        let ivf = build_ivf(&sigs, m, &assignments, k);
        let sums = code_sums(&ivf.codes, m);
        let cnorms = row_norms(&centroids, m);
        let view = AnnIndexView::of(&ivf, &centroids, &cnorms, &sums, &sigs);
        let query = sigs[3 * m..4 * m].to_vec();
        let want: Vec<Hit> = exhaustive(&sigs, m, &query, 101)
            .into_iter()
            .filter(|h| h.doc % 3 != 0)
            .take(10)
            .collect();
        let deleted: Vec<DocId> = (0..101).step_by(3).collect();
        let mut best = TopK::new(10);
        let mut stats = SearchStats::default();
        search(&view, &query, k, &deleted, &mut best, &mut stats);
        assert_eq!(best.into_sorted(), want);
        assert_eq!(stats.candidates, 101);
    }

    #[test]
    fn rerank_is_bounded_not_exhaustive() {
        let m = 32;
        let k = 8;
        let (sigs, assignments, centroids) = synth(400, m, k, 99);
        let ivf = build_ivf(&sigs, m, &assignments, k);
        let sums = code_sums(&ivf.codes, m);
        let cnorms = row_norms(&centroids, m);
        let view = AnnIndexView::of(&ivf, &centroids, &cnorms, &sums, &sigs);
        let query = sigs[8 * m..9 * m].to_vec();
        let mut stats = SearchStats::default();
        let got = top_hits(&view, &query, 10, k, &mut stats);
        assert_eq!(got.len(), 10);
        assert_eq!(stats.candidates, 400);
        assert!(
            stats.reranked < stats.candidates,
            "re-rank should prune: {} of {}",
            stats.reranked,
            stats.candidates
        );
    }

    #[test]
    fn fewer_probes_scan_fewer_candidates() {
        let m = 24;
        let k = 8;
        let (sigs, assignments, centroids) = synth(200, m, k, 3);
        let ivf = build_ivf(&sigs, m, &assignments, k);
        let sums = code_sums(&ivf.codes, m);
        let cnorms = row_norms(&centroids, m);
        let view = AnnIndexView::of(&ivf, &centroids, &cnorms, &sums, &sigs);
        let query = sigs[..m].to_vec();
        let mut s1 = SearchStats::default();
        let mut s8 = SearchStats::default();
        top_hits(&view, &query, 5, 1, &mut s1);
        top_hits(&view, &query, 5, k, &mut s8);
        assert_eq!(s1.probed, 1);
        assert_eq!(s8.probed, k);
        assert!(s1.candidates < s8.candidates);
    }

    #[test]
    fn null_query_and_empty_index() {
        let m = 8;
        let (sigs, assignments, centroids) = synth(20, m, 2, 1);
        let ivf = build_ivf(&sigs, m, &assignments, 2);
        let sums = code_sums(&ivf.codes, m);
        let cnorms = row_norms(&centroids, m);
        let view = AnnIndexView::of(&ivf, &centroids, &cnorms, &sums, &sigs);
        let mut stats = SearchStats::default();
        assert!(top_hits(&view, &vec![0.0; m], 5, 2, &mut stats).is_empty());
        assert!(
            top_hits(&view, &[1.0], 5, 2, &mut stats).is_empty(),
            "wrong dims"
        );
        assert!(exhaustive(&sigs, m, &[0.0; 8], 5).is_empty());
        let empty = build_ivf(&[], m, &[], 2);
        let esums = code_sums(&empty.codes, m);
        let eview = AnnIndexView::of(&empty, &centroids, &cnorms, &esums, &[]);
        assert!(top_hits(&eview, &sigs[..m], 5, 2, &mut stats).is_empty());
    }

    #[test]
    fn code_sums_match_rows() {
        let codes = [1u8, 2, 3, 250, 251, 252];
        assert_eq!(code_sums(&codes, 3), vec![6, 753]);
        assert_eq!(code_sums(&[], 3), Vec::<u32>::new());
        assert_eq!(code_sums(&[], 0), Vec::<u32>::new());
    }
}
