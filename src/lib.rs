//! # visual-analytics — scalable visual analytics of massive textual datasets
//!
//! A production-quality Rust reproduction of *Scalable Visual Analytics of
//! Massive Textual Datasets* (Krishnan, Bohn, Cowley, Crow, Nieplocha —
//! IPPS 2007): the first scalable implementation of the IN-SPIRE text
//! processing engine, here rebuilt from scratch on an SPMD runtime with a
//! Global-Arrays-style one-sided communication substrate.
//!
//! This meta-crate re-exports the workspace's public API:
//!
//! * [`perfmodel`] — the virtual-time cost model of the paper's 2007
//!   Itanium/InfiniBand cluster.
//! * [`spmd`] — the SPMD runtime: threads as ranks, MPI-style collectives,
//!   per-rank virtual clocks.
//! * [`ga`] — global arrays, distributed hashmap, atomic task queue.
//! * [`corpus`] — synthetic PubMed-like and TREC GOV2-like corpora.
//! * [`engine`] (inspire-core) — the text processing pipeline: scan,
//!   FAST-INV inverted indexing with dynamic load balancing, Bookstein
//!   topicality, association matrix, knowledge signatures, distributed
//!   k-means, PCA projection.
//! * [`themeview`] — terrain visualization of the projected documents.
//! * [`ingest`] (inspire-ingest) — live ingestion: write-ahead log,
//!   immutable index segments, crash-safe manifest, compaction.
//! * [`serve`] (inspire-serve) — the concurrent serving tier, including
//!   merge-on-read over base snapshot + ingest segments.
//!
//! ## Quickstart
//!
//! ```
//! use visual_analytics::prelude::*;
//! use std::sync::Arc;
//!
//! // 1. A small PubMed-like corpus.
//! let corpus = CorpusSpec::pubmed(64 * 1024, 42).generate();
//!
//! // 2. Run the engine on 4 simulated cluster processors.
//! let run = run_engine(
//!     4,
//!     Arc::new(CostModel::pnnl_2007()),
//!     &corpus,
//!     &EngineConfig::for_testing(),
//! );
//!
//! // 3. Rank 0 holds the 2-D coordinates; build the ThemeView terrain.
//! let coords = run.master().coords.clone().unwrap();
//! let terrain = Terrain::build(&coords, 40, 20, None);
//! assert!(!terrain.heights.is_empty());
//! println!("virtual time on the modeled cluster: {:.1}s", run.virtual_time);
//! ```

pub use corpus;
pub use ga;
pub use inspire_core as engine;
pub use inspire_ingest as ingest;
pub use inspire_serve as serve;
pub use perfmodel;
pub use spmd;
pub use themeview;

/// Everything needed for typical use.
pub mod prelude {
    pub use corpus::{CorpusSpec, CorpusStats, Flavour, SourceSet};
    pub use inspire_core::pipeline::{run_engine, EngineOutput, EngineRun};
    pub use inspire_core::seq::run_sequential;
    pub use inspire_core::{
        Balancing, ClusterMethod, EngineConfig, EngineSnapshot, SnapshotReport, Stage,
    };
    pub use perfmodel::{ClusterSpec, CostModel, WorkloadScale};
    pub use spmd::{Component, Runtime};
    pub use themeview::{render_ascii, render_csv, render_pgm, Terrain};
}
