//! Engine configuration.

use crate::hierarchy::Linkage;
use std::path::PathBuf;

/// Load-balancing strategy for the inversion stage (§3.3 and Figure 9).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Balancing {
    /// Fixed-size chunking over a shared atomic task queue: own loads
    /// first, then stealing (the paper's approach).
    Dynamic,
    /// Static owner-computes: each process inverts exactly its own loads
    /// (the baseline dynamic balancing is compared against).
    Static,
    /// Master-worker task handout through rank 0, the classical
    /// message-passing alternative the paper argues does not scale: every
    /// request is serviced by a single master, so requests queue behind
    /// each other as the processor count grows.
    MasterWorker,
}

/// Document clustering method (§3.5). K-means is the paper's default;
/// hierarchical runs agglomerative clustering over the centroids of a
/// finer-grained k-means, per the paper's "other types of clustering
/// could be applied" remark.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ClusterMethod {
    /// Distributed k-means (Dhillon–Modha), the paper's approach.
    KMeans,
    /// Two-level: fine k-means (`n_clusters × fine_factor` centroids)
    /// followed by identical-everywhere agglomeration of the centroids.
    Hierarchical {
        linkage: Linkage,
        /// Fine-grained centroids per final cluster.
        fine_factor: usize,
        /// Use the adaptive largest-gap cut instead of a fixed k.
        adaptive: bool,
    },
}

/// Full engine configuration. `Default` is tuned for the megabyte-scale
/// corpora used in tests and examples; the benchmark harness scales the
/// dimensionality up for paper-sized runs. The paper's fixed ratios are
/// constants beside the code that reads them ([`TOPIC_RATIO`],
/// [`crate::pipeline::WEAK_SIG_THRESHOLD`],
/// [`crate::topicality::MAX_DF_FRAC`]), and k-means seeds from evenly
/// spaced document ids, so no setting seeds it.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// N: number of major terms selected by topicality.
    pub n_major: usize,
    /// k for the distributed k-means clustering.
    pub n_clusters: usize,
    /// How documents are clustered.
    pub cluster_method: ClusterMethod,
    /// Project to 2 or 3 dimensions (§3.5 "the 2-d or 3-d projection
    /// coordinate"); the ThemeView terrain uses the first two either way.
    pub projection_dims: usize,
    /// Maximum k-means iterations.
    pub max_kmeans_iters: usize,
    /// Relative objective improvement below which k-means stops.
    pub kmeans_tol: f64,
    /// Fixed-size chunking: documents per inversion load (§3.3).
    pub chunk_docs: usize,
    /// Load-balancing strategy for inversion.
    pub balancing: Balancing,
    /// Enable the adaptive-dimensionality remedy (§4.2): when too many
    /// signatures come out null/weak, expand N and M and regenerate.
    pub adaptive_dims: bool,
    /// Maximum number of dimensionality expansions.
    pub max_dim_expansions: usize,
    /// Terms must appear in at least this many documents to be topical.
    pub min_df: u32,
    /// Intra-rank worker threads for the hot pipeline stages (tokenize,
    /// inversion counting, association accumulation, signature
    /// generation). Host wall-clock parallelism only: results and virtual
    /// time are bit-identical at any width. 1 (the default) is serial.
    pub threads_per_rank: usize,
    /// When set, the engine writes a cumulative checkpoint snapshot into
    /// this directory after every completed pipeline stage.
    pub checkpoint_dir: Option<PathBuf>,
    /// With [`EngineConfig::checkpoint_dir`] set: resume from the most
    /// advanced valid checkpoint that matches this configuration, corpus,
    /// and processor count, re-running only the remaining stages.
    pub resume: bool,
    /// When set, write the complete engine output as a single-file
    /// snapshot (servable by `vaengine query --snapshot`) at this path.
    pub snapshot_out: Option<PathBuf>,
    /// Record per-rank stage/collective spans for Chrome trace-event
    /// export (`vaengine analyze --trace-out`). Off by default; tracing
    /// only reads clocks, so engine output is identical either way.
    pub trace: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            n_major: 600,
            n_clusters: 12,
            cluster_method: ClusterMethod::KMeans,
            projection_dims: 2,
            max_kmeans_iters: 40,
            kmeans_tol: 1e-4,
            chunk_docs: 32,
            balancing: Balancing::Dynamic,
            adaptive_dims: true,
            max_dim_expansions: 2,
            min_df: 3,
            threads_per_rank: 1,
            checkpoint_dir: None,
            resume: false,
            snapshot_out: None,
            trace: false,
        }
    }
}

/// M as a fraction of N: the anchoring topic dimensions are "typically
/// 10 % of the top N" (§3.4).
pub const TOPIC_RATIO: f64 = 0.1;

impl EngineConfig {
    /// M = `max(2, n_major * TOPIC_RATIO)`: the number of anchoring topic
    /// dimensions.
    pub fn m_dims(&self) -> usize {
        ((self.n_major as f64 * TOPIC_RATIO).round() as usize).max(2)
    }

    /// A configuration sized for small unit-test corpora.
    pub fn for_testing() -> Self {
        EngineConfig {
            n_major: 200,
            n_clusters: 6,
            max_kmeans_iters: 15,
            chunk_docs: 8,
            min_df: 2,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn m_is_ten_percent_of_n() {
        let c = EngineConfig::default();
        assert_eq!(c.m_dims(), 60);
    }

    #[test]
    fn m_has_floor() {
        let c = EngineConfig {
            n_major: 5,
            ..Default::default()
        };
        assert_eq!(c.m_dims(), 2);
    }
}
