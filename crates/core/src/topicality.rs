//! Topicality: finding the discriminating terms (paper §3.4, step 4).
//!
//! *"Topicality is a measure that defines discriminating terms within a
//! set of documents. Our approach to compute topicality is based on
//! Bookstein's serial clustering method."*
//!
//! Bookstein, Klein & Raita's insight is that **content-bearing words
//! cluster serially**: a term that carries meaning concentrates its
//! occurrences in few documents, while function words spread evenly. For a
//! term with collection frequency `tf` in a collection of `D` documents,
//! random scattering would touch `E = D·(1 − (1 − 1/D)^tf)` distinct
//! documents in expectation. The *condensation* `(E − df)/E` measures how
//! far short of that the observed document frequency `df` falls; we weight
//! it by `ln(1 + tf)` so the measure prefers substantial terms over rare
//! flukes.
//!
//! Parallelization follows the paper: terms are sharded N/P per process,
//! each process scores its shard, and a global merge (an Allreduce over
//! the vocabulary-length score vector followed by an identical sort on
//! every rank — the collective whose cost makes this the one component
//! that does not scale, Figures 6b/7b) yields the top-N **major terms**;
//! the top M ≈ 10 % become the anchoring **topics**.

use crate::config::EngineConfig;
use crate::index::InvertedIndex;
use crate::TermId;
use perfmodel::WorkKind;
use spmd::{Ctx, ReduceOp};

/// Bookstein condensation score. Returns `None` for terms failing the
/// document-frequency filters (too rare to trust, or too common to
/// discriminate).
pub fn bookstein_score(
    df: u32,
    tf: u64,
    n_docs: u32,
    min_df: u32,
    max_df_frac: f64,
) -> Option<f64> {
    if df < min_df || n_docs == 0 {
        return None;
    }
    if df as f64 > max_df_frac * n_docs as f64 {
        return None;
    }
    let d = n_docs as f64;
    // E[df] under random scattering of tf occurrences over D documents.
    let expected = d * (1.0 - ((1.0 - 1.0 / d).ln() * tf as f64).exp());
    if expected <= 0.0 {
        return None;
    }
    let condensation = ((expected - df as f64) / expected).max(0.0);
    Some(condensation * (1.0 + tf as f64).ln())
}

/// The outcome of topic selection.
#[derive(Debug, Clone, PartialEq)]
pub struct TopicSelection {
    /// Top-N terms by topicality, descending score (ties broken by term id,
    /// which is lexicographic under canonical vocabulary ids).
    pub major: Vec<TermId>,
    /// Scores aligned with `major`.
    pub scores: Vec<f64>,
    /// The top `M` of `major`: the anchoring dimensions of the topic space.
    pub topics: Vec<TermId>,
}

impl TopicSelection {
    /// Number of signature dimensions (M).
    pub fn m_dims(&self) -> usize {
        self.topics.len()
    }

    /// Position of `term` within `major`, if selected.
    pub fn major_rank(&self, term: TermId) -> Option<usize> {
        self.major.iter().position(|&t| t == term)
    }
}

/// Select major terms and topics with `n_major` overriding the config's N
/// (the adaptive-dimensionality loop passes expanded values).
pub fn select_topics(
    ctx: &Ctx,
    index: &InvertedIndex,
    cfg: &EngineConfig,
    n_major: usize,
    m_dims: usize,
) -> TopicSelection {
    let v = index.df.len();
    let p = ctx.nprocs();

    // Score this rank's term shard (N/P terms per process, §3.4) into a
    // full-length score vector (non-shard entries stay at the neutral
    // element of the max-merge).
    let lo = v * ctx.rank() / p;
    let hi = v * (ctx.rank() + 1) / p;
    ctx.charge_vocab(WorkKind::TopicalityTerms, (hi - lo) as u64);
    let mut score_vec = vec![f64::NEG_INFINITY; v];
    for (t, slot) in score_vec.iter_mut().enumerate().take(hi).skip(lo) {
        if let Some(s) = bookstein_score(
            index.df[t],
            index.tf[t],
            index.total_docs,
            cfg.min_df,
            cfg.max_df_frac,
        ) {
            *slot = s;
        }
    }

    // Global merge: an Allreduce over the vocabulary-length score vector
    // (shards are disjoint, so max-merge assembles the full vector), then
    // an identical top-N sort on every rank — the paper's "global
    // merge-sort … broadcast out to all processes". The Allreduce payload
    // is vocabulary-sized and independent of P while everything else
    // shrinks as 1/P: this is why topicality is the one component that
    // does not scale (Figures 6b/7b).
    let scores_all = ctx.allreduce(score_vec, ReduceOp::Max);
    let log_v = (usize::BITS - v.max(2).leading_zeros()) as u64;
    ctx.charge_vocab(WorkKind::Flops, v as u64 * log_v);
    let mut all: Vec<(f64, TermId)> = scores_all
        .into_iter()
        .enumerate()
        .filter(|(_, s)| s.is_finite())
        .map(|(t, s)| (s, t as TermId))
        .collect();
    all.sort_unstable_by(|a, b| b.0.partial_cmp(&a.0).unwrap().then(a.1.cmp(&b.1)));
    all.truncate(n_major);

    let major: Vec<TermId> = all.iter().map(|&(_, t)| t).collect();
    let scores: Vec<f64> = all.iter().map(|&(s, _)| s).collect();
    let topics: Vec<TermId> = major
        .iter()
        .copied()
        .take(m_dims.max(2).min(major.len()))
        .collect();
    TopicSelection {
        major,
        scores,
        topics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clustered_term_outscores_scattered() {
        // Both terms occur 100 times in 1000 docs; one concentrated in 10
        // docs (content-bearing), one spread over 95 (function-like).
        let clustered = bookstein_score(10, 100, 1000, 2, 0.5).unwrap();
        let scattered = bookstein_score(95, 100, 1000, 2, 0.5).unwrap();
        assert!(clustered > scattered * 5.0, "{clustered} vs {scattered}");
    }

    #[test]
    fn min_df_filter() {
        assert_eq!(bookstein_score(1, 50, 1000, 3, 0.5), None);
        assert!(bookstein_score(3, 50, 1000, 3, 0.5).is_some());
    }

    #[test]
    fn max_df_filter_rejects_ubiquitous() {
        assert_eq!(bookstein_score(900, 2000, 1000, 2, 0.2), None);
    }

    #[test]
    fn random_scatter_scores_near_zero() {
        // tf == df: each occurrence in its own document, exactly the random
        // expectation for small tf/D — no condensation.
        let s = bookstein_score(20, 20, 10_000, 2, 0.5).unwrap();
        assert!(s < 0.05, "score {s}");
    }

    #[test]
    fn heavier_terms_win_at_equal_condensation() {
        let light = bookstein_score(5, 50, 1000, 2, 0.5).unwrap();
        let heavy = bookstein_score(50, 500, 1000, 2, 0.5).unwrap();
        assert!(heavy > light);
    }

    #[test]
    fn zero_docs_is_none() {
        assert_eq!(bookstein_score(0, 0, 0, 0, 1.0), None);
    }
}
