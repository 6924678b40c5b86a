//! # inspire-core — the parallel text processing engine
//!
//! A from-scratch implementation of the text processing engine described in
//! *Scalable Visual Analytics of Massive Textual Datasets* (IPPS 2007):
//! the backend that turns a raw document collection into the 2-D document
//! coordinates a ThemeView visualization is built from.
//!
//! The pipeline follows the paper's §2.1 processing steps exactly:
//!
//! 1. [`scan`] — **Scan & Map**: partition sources by size, tokenize,
//!    build the field-to-term forward index, and register vocabulary in a
//!    distributed hashmap that assigns global term IDs.
//! 2. [`index`] — **Inverted File Indexing**: FAST-INV-style two-pass
//!    inversion (count, then scatter into preallocated slots) of the
//!    forward index into a term-to-(document, field) index held in a
//!    global array, with **fixed-size-chunking dynamic load balancing**
//!    over a shared atomic task queue.
//! 3. [`index`] — **Global term statistics**: document and collection
//!    frequencies accumulated into global arrays.
//! 4. [`topicality`] — **Topicality**: Bookstein serial-clustering
//!    condensation scores; global top-N merge selects the *major terms*,
//!    the top M ≈ 10 % of those anchor the topic space.
//! 5. [`assoc`] — **Association matrix**: the N×M matrix of conditional
//!    probabilities `P(tᵢ | tⱼ)·(1 − P(tⱼ))`, merged with an Allreduce.
//! 6. [`signature`] — **Knowledge signatures**: per-document
//!    frequency-weighted combinations of association rows, L1-normalized;
//!    with the paper's *adaptive dimensionality* remedy for null/weak
//!    signatures.
//! 7. [`cluster`] — **Clustering**: distributed k-means (Dhillon–Modha).
//! 8. [`project`] — **Projection**: PCA over the cluster centroids
//!    (Jacobi eigensolver), first two principal components, gather of the
//!    2-D coordinates on rank 0.
//!
//! [`pipeline::Engine`] orchestrates the stages and attributes virtual
//! time to the paper's component names (scan, index, topic, AM, DocVec,
//! ClusProj). Running the engine with `nprocs = 1` *is* the sequential
//! reference; [`seq`] wraps that as an explicit oracle for tests.

pub mod ann;
pub mod assoc;
pub mod cluster;
pub mod config;
pub mod hierarchy;
pub mod index;
pub mod interact;
pub mod io;
pub mod linalg;
pub mod migrate;
pub mod pipeline;
pub mod postings;
pub mod project;
pub mod query;
pub mod report;
pub mod scan;
pub mod seq;
pub mod signature;
pub mod snapshot;
pub mod tokenize;
pub mod topicality;

pub use config::{Balancing, ClusterMethod, EngineConfig};
pub use pipeline::{Engine, EngineOutput, EngineSummary};
pub use report::build_run_report;
pub use snapshot::{EngineSnapshot, SnapshotReport, Stage};

/// Global term identifier assigned by the distributed vocabulary map.
pub type TermId = u32;
/// Global document identifier (dense, in corpus order).
pub type DocId = u32;

/// Field names the scanners recognize, indexed by `FieldId`.
pub const FIELD_NAMES: &[&str] = &[
    "pmid", "title", "abstract", "mesh", "author", "docno", "url", "body",
];

/// Index into [`FIELD_NAMES`].
pub type FieldId = u8;

/// Resolve a field name to its id, if known.
pub fn field_id(name: &str) -> Option<FieldId> {
    FIELD_NAMES
        .iter()
        .position(|&n| n == name)
        .map(|i| i as FieldId)
}
