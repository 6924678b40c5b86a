//! The association matrix (paper §3.4, step 5).
//!
//! An N×M matrix relating the N major terms to the M anchoring topics:
//!
//! > *"the entries in the matrix being the conditional probabilities of
//! > occupance, modified by the independent probability of occurrence"*
//!
//! We read that as `A[i][j] = P(tᵢ | tⱼ) · (1 − P(tⱼ))`: how strongly
//! major term `i` co-occurs with topic `j`, discounted when topic `j` is
//! so common that co-occurrence is uninformative. Probabilities are
//! document-level: `P(tᵢ|tⱼ) = df(tᵢ ∧ tⱼ) / df(tⱼ)`.
//!
//! *"each process computes the association matrix for the terms associated
//! with its dataset. The association matrices of all the processes are
//! merged (MPI_Allreduce operation)"* — each rank counts co-occurrences
//! over its own documents, the count matrices are allreduced, then every
//! rank normalizes identically.

use crate::index::InvertedIndex;
use crate::scan::ScanOutput;
use crate::topicality::TopicSelection;
use crate::TermId;
use perfmodel::WorkKind;
use spmd::{Ctx, ReduceOp};
use std::sync::Arc;

/// Documents per intra-rank chunk for co-occurrence accumulation. Fixed
/// so chunk boundaries — and the order partial matrices merge in — do
/// not depend on the pool width. The partials hold integer counts, so
/// any fixed size merges to the same bits; this one keeps the N×M
/// partials a rank zeroes and merges few.
const ASSOC_DOC_CHUNK: usize = 256;

/// Marks a term with no position in a [`position_table`].
pub const ABSENT: u32 = u32::MAX;

/// Dense `term id → position in ids` table of vocabulary length
/// ([`ABSENT`] elsewhere), so per-term resolution in the per-document
/// loops is an array index. Every id must be below `vocab`.
pub(crate) fn position_table(ids: &[TermId], vocab: usize) -> Vec<u32> {
    let mut table = vec![ABSENT; vocab];
    for (i, &t) in ids.iter().enumerate() {
        table[t as usize] = i as u32;
    }
    table
}

/// Position of `t` in a [`position_table`]; `None` for absent terms and
/// ids beyond the table.
fn position(table: &[u32], t: TermId) -> Option<usize> {
    table
        .get(t as usize)
        .filter(|&&at| at != ABSENT)
        .map(|&at| at as usize)
}

/// The merged, normalized association matrix (replicated on all ranks).
#[derive(Debug, Clone)]
pub struct AssociationMatrix {
    /// Row-major N×M values.
    pub values: Arc<Vec<f64>>,
    /// N (rows, major terms).
    pub n: usize,
    /// M (columns, topics).
    pub m: usize,
    /// Major-term id → row index, as a [`position_table`].
    pub row_of: Arc<Vec<u32>>,
}

impl AssociationMatrix {
    /// The M-dimensional row of major term `t`, if `t` is a major term.
    pub fn row(&self, t: TermId) -> Option<&[f64]> {
        let r = position(&self.row_of, t)?;
        Some(&self.values[r * self.m..(r + 1) * self.m])
    }
}

/// Build the association matrix. Collective.
pub fn build(
    ctx: &Ctx,
    scan: &ScanOutput,
    index: &InvertedIndex,
    topics: &TopicSelection,
) -> AssociationMatrix {
    let n = topics.major.len();
    let m = topics.topics.len();
    let row_of = position_table(&topics.major, scan.vocab_size());
    let col_of = position_table(&topics.topics, scan.vocab_size());

    // Local document-level co-occurrence counts, fanned out over the
    // intra-rank pool. Entries are small integer counts, and partial
    // matrices merge in chunk index order, so the merged matrix is
    // bit-identical to the serial accumulation at any pool width. The
    // AssocOps charge lands once, after the merge.
    let partials: Vec<(Vec<f64>, u64)> =
        ctx.pool()
            .map_chunks(scan.docs.len(), ASSOC_DOC_CHUNK, |chunk| {
                let mut cooc = vec![0.0f64; n * m];
                let mut ops = 0u64;
                // Scratch reused across the chunk's documents; the
                // accumulation order is unchanged, so the merged matrix
                // stays bit-identical.
                let mut rows: Vec<usize> = Vec::new();
                let mut cols: Vec<usize> = Vec::new();
                for d in &scan.docs[chunk] {
                    let distinct = d.distinct_terms();
                    ops += distinct.len() as u64;
                    rows.clear();
                    rows.extend(distinct.iter().filter_map(|&(t, _)| position(&row_of, t)));
                    cols.clear();
                    cols.extend(distinct.iter().filter_map(|&(t, _)| position(&col_of, t)));
                    ops += (rows.len() * cols.len()) as u64;
                    for &i in &rows {
                        for &j in &cols {
                            cooc[i * m + j] += 1.0;
                        }
                    }
                }
                (cooc, ops)
            });
    let mut cooc = vec![0.0f64; n * m];
    let mut ops = 0u64;
    for (part, part_ops) in partials {
        for (acc, v) in cooc.iter_mut().zip(&part) {
            *acc += v;
        }
        ops += part_ops;
    }
    ctx.charge(WorkKind::AssocOps, ops);

    // Merge partial matrices (the paper's MPI_Allreduce).
    let mut merged = ctx.allreduce(cooc, ReduceOp::Sum);

    // Normalize: P(t_i | t_j) * (1 - P(t_j)).
    ctx.charge(WorkKind::Flops, (n * m) as u64);
    let d_total = index.total_docs as f64;
    for (j, &tj) in topics.topics.iter().enumerate() {
        let df_j = index.df[tj as usize] as f64;
        let p_j = if d_total > 0.0 { df_j / d_total } else { 0.0 };
        let inv = if df_j > 0.0 { 1.0 / df_j } else { 0.0 };
        for i in 0..n {
            merged[i * m + j] *= inv * (1.0 - p_j);
        }
    }

    AssociationMatrix {
        values: Arc::new(merged),
        n,
        m,
        row_of: Arc::new(row_of),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use crate::index::invert;
    use crate::scan::scan;
    use crate::topicality::select_topics;
    use corpus::CorpusSpec;
    use spmd::Runtime;

    fn corpus() -> corpus::SourceSet {
        CorpusSpec {
            source_bytes: 8 * 1024,
            ..CorpusSpec::pubmed(48 * 1024, 9)
        }
        .generate()
    }

    fn build_matrix(p: usize) -> (usize, usize, Vec<f64>) {
        let src = corpus();
        let rt = Runtime::for_testing();
        let mut res = rt.run(p, |ctx| {
            let cfg = EngineConfig::for_testing();
            let (s, fwd) = scan(ctx, &src);
            let idx = invert(ctx, &s, fwd, &cfg);
            let topics = select_topics(ctx, &idx, &cfg, cfg.n_major, cfg.m_dims());
            let am = build(ctx, &s, &idx, &topics);
            (am.n, am.m, am.values.as_ref().clone())
        });
        res.results.remove(0)
    }

    #[test]
    fn matrix_identical_across_p() {
        let (n1, m1, v1) = build_matrix(1);
        for p in [2, 4] {
            let (n, m, v) = build_matrix(p);
            assert_eq!((n, m), (n1, m1));
            assert_eq!(v.len(), v1.len());
            for (a, b) in v.iter().zip(&v1) {
                assert!((a - b).abs() < 1e-9, "P={p}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn entries_are_probability_like() {
        let (_, _, v) = build_matrix(2);
        for &x in &v {
            assert!((0.0..=1.0).contains(&x), "entry {x} out of range");
        }
        // The matrix must not be all-zero — topics co-occur with majors.
        assert!(v.iter().any(|&x| x > 0.0));
    }

    #[test]
    fn topic_self_association_is_strong() {
        // A topic term is also a major term (topics ⊂ major); its own
        // column entry equals 1 - P(t_j), the maximum possible in that
        // column.
        let src = corpus();
        let rt = Runtime::for_testing();
        rt.run(2, |ctx| {
            let cfg = EngineConfig::for_testing();
            let (s, fwd) = scan(ctx, &src);
            let idx = invert(ctx, &s, fwd, &cfg);
            let topics = select_topics(ctx, &idx, &cfg, cfg.n_major, cfg.m_dims());
            let am = build(ctx, &s, &idx, &topics);
            for (j, &tj) in topics.topics.iter().enumerate().take(5) {
                let i = topics.major.iter().position(|&t| t == tj);
                let i = i.expect("topic is a major term");
                let self_assoc = am.values[i * am.m + j];
                let expected = 1.0 - idx.df[tj as usize] as f64 / idx.total_docs as f64;
                assert!(
                    (self_assoc - expected).abs() < 1e-9,
                    "self association {self_assoc} vs {expected}"
                );
                // And no other row in column j exceeds it.
                for r in 0..am.n {
                    assert!(am.values[r * am.m + j] <= self_assoc + 1e-9);
                }
            }
        });
    }

    #[test]
    fn position_tables_agree_with_selection_order_for_every_term() {
        let src = corpus();
        let rt = Runtime::for_testing();
        rt.run(2, |ctx| {
            let cfg = EngineConfig::for_testing();
            let (s, fwd) = scan(ctx, &src);
            let idx = invert(ctx, &s, fwd, &cfg);
            let topics = select_topics(ctx, &idx, &cfg, cfg.n_major, cfg.m_dims());
            let am = build(ctx, &s, &idx, &topics);
            let col_of = position_table(&topics.topics, s.vocab_size());
            assert_eq!(am.row_of.len(), s.vocab_size());
            for t in 0..s.vocab_size() as TermId {
                let row = topics.major.iter().position(|&x| x == t);
                let col = topics.topics.iter().position(|&x| x == t);
                assert_eq!(position(&am.row_of, t), row, "row of term {t}");
                assert_eq!(position(&col_of, t), col, "column of term {t}");
                assert_eq!(am.row(t).is_some(), row.is_some());
            }
            assert_eq!(position(&am.row_of, s.vocab_size() as TermId), None);
        });
    }

    #[test]
    fn row_lookup_matches_layout() {
        let src = corpus();
        let rt = Runtime::for_testing();
        rt.run(2, |ctx| {
            let cfg = EngineConfig::for_testing();
            let (s, fwd) = scan(ctx, &src);
            let idx = invert(ctx, &s, fwd, &cfg);
            let topics = select_topics(ctx, &idx, &cfg, cfg.n_major, cfg.m_dims());
            let am = build(ctx, &s, &idx, &topics);
            let t = topics.major[3];
            let row = am.row(t).unwrap();
            assert_eq!(row, &am.values[3 * am.m..4 * am.m]);
            assert_eq!(am.row(u32::MAX), None);
        });
    }
}
