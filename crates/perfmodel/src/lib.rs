//! # perfmodel — virtual-time cost model of a 2007-era commodity cluster
//!
//! The IPPS 2007 paper *Scalable Visual Analytics of Massive Textual
//! Datasets* evaluates its parallel text engine on a Linux cluster of dual
//! 1.5 GHz Itanium-2 nodes connected by InfiniBand (48 processors total).
//! This reproduction executes the same algorithms for real, but on a single
//! development machine, so elapsed wall-clock time cannot exhibit the
//! paper's scaling curves. Instead every rank of the SPMD runtime carries a
//! **virtual clock** that is advanced by the *work it actually performed*
//! (bytes scanned, postings inverted, floating-point operations, …) priced
//! by the model in this crate, plus communication charges for one-sided
//! accesses and collectives.
//!
//! The model is deliberately simple and fully documented:
//!
//! * [`ClusterSpec`] — the machine: processors per node, memory and
//!   disk per node, and the interconnect ([`Network`]).
//! * [`RateCard`] — how fast one 2007-era processor performs each
//!   [`WorkKind`] (calibrated against the paper's absolute minutes).
//! * [`collectives`] — LogP-style binomial-tree costs for barrier,
//!   broadcast, allreduce and gather.
//! * [`MemoryModel`] — a thrash multiplier once a processor's working set
//!   exceeds its share of node memory; this reproduces the paper's
//!   observation that 16.44 GB of PubMed on 4 processors is
//!   disproportionately slow ("excessive cache misses, page faults").
//! * [`WorkloadScale`] — maps a scaled-down corpus that we really generate
//!   (megabytes) onto the nominal corpus the paper processed (gigabytes),
//!   scaling compute charges linearly in bytes and communication payloads by
//!   a Heaps-law vocabulary exponent.
//!
//! The crate is pure and dependency-light: everything is `f64` seconds and
//! plain functions, so it can be unit-tested exhaustively and reused by the
//! `spmd` runtime, the `ga` toolkit, and the benchmark harness.

pub mod cluster;
pub mod collectives;
pub mod memory;
pub mod rates;
pub mod workload;

pub use cluster::{ClusterSpec, Network, StorageModel};
pub use memory::MemoryModel;
pub use rates::{RateCard, WorkKind};
pub use workload::WorkloadScale;

/// The complete cost model handed to the SPMD runtime.
///
/// All methods return **virtual seconds**. The model is immutable and
/// shared (`Arc`) between ranks; it contains no interior mutability.
#[derive(Debug, Clone)]
pub struct CostModel {
    /// The machine being modeled.
    pub cluster: ClusterSpec,
    /// Per-processor throughput for each kind of work.
    pub rates: RateCard,
    /// Memory-pressure model (thrashing).
    pub memory: MemoryModel,
    /// Scaling between the generated corpus and the nominal (paper-sized)
    /// corpus.
    pub scale: WorkloadScale,
}

impl CostModel {
    /// Model of the paper's evaluation platform processing a corpus at its
    /// real (generated) size — `scale` is identity.
    pub fn pnnl_2007() -> Self {
        CostModel {
            cluster: ClusterSpec::pnnl_itanium_2007(),
            rates: RateCard::itanium_2007(),
            memory: MemoryModel::default_2007(),
            scale: WorkloadScale::identity(),
        }
    }

    /// Same platform, but pretending the generated corpus of `actual_bytes`
    /// stands in for a nominal corpus of `nominal_bytes` (see
    /// [`WorkloadScale`]).
    pub fn pnnl_2007_scaled(nominal_bytes: u64, actual_bytes: u64) -> Self {
        CostModel {
            scale: WorkloadScale::new(nominal_bytes, actual_bytes),
            ..Self::pnnl_2007()
        }
    }

    /// A "free" model: all charges are zero. Used by unit tests that only
    /// care about algorithmic results, not timing.
    pub fn zero() -> Self {
        CostModel {
            cluster: ClusterSpec::pnnl_itanium_2007(),
            rates: RateCard::zero(),
            memory: MemoryModel::disabled(),
            scale: WorkloadScale::identity(),
        }
    }

    /// Virtual seconds for `units` of `kind` performed by one processor.
    ///
    /// Compute charges scale with [`WorkloadScale::data_scale`]: the real
    /// corpus is a constant-factor miniature of the nominal one, and every
    /// [`WorkKind`] in the pipeline is linear in corpus size.
    pub fn compute(&self, kind: WorkKind, units: u64) -> f64 {
        self.rates.seconds(kind, units) * self.scale.data_scale()
    }

    /// One-sided remote access of `bytes` (get/put/accumulate). Charged to
    /// the *origin* only — the essence of the Global Arrays / ARMCI model is
    /// that the target does not participate.
    ///
    /// Scaled by `data_scale`: GA bulk traffic (forward-index fetches,
    /// posting scatters) is proportional to corpus bytes, so a nominal-size
    /// run performs `data_scale`× as many such operations.
    pub fn one_sided(&self, bytes: u64) -> f64 {
        let n = &self.cluster.network;
        (n.msg_overhead_s + bytes as f64 / n.bandwidth_bps) * self.scale.data_scale()
    }

    /// One-sided RPC whose *count* scales with the vocabulary rather than
    /// the corpus (distributed-hashmap term registration): by Heaps' law
    /// the nominal run performs `vocab_scale`× as many.
    pub fn one_sided_vocab(&self, bytes: u64) -> f64 {
        let n = &self.cluster.network;
        (n.msg_overhead_s + bytes as f64 / n.bandwidth_bps) * self.scale.vocab_scale()
    }

    /// Local (same-address-space) array access of `bytes`.
    pub fn local_access(&self, bytes: u64) -> f64 {
        self.rates.seconds(WorkKind::MemoryBytes, bytes) * self.scale.data_scale()
    }

    /// Remote atomic read-modify-write (fetch-and-increment): one network
    /// round trip. Atomic counts accompany data-proportional work
    /// (inversion cursors, task claims), hence `data_scale`.
    pub fn remote_atomic(&self) -> f64 {
        2.0 * self.cluster.network.msg_overhead_s * self.scale.data_scale()
    }

    /// Disk read of `bytes` by one processor; the node's disk bandwidth is
    /// shared by `procs_per_node` processors, which is what eventually makes
    /// scanning I/O bound at scale (paper §4.2).
    pub fn disk_read(&self, bytes: u64) -> f64 {
        let per_proc_bw = self.cluster.disk_bandwidth_bps / self.cluster.procs_per_node as f64;
        (bytes as f64 * self.scale.data_scale()) / per_proc_bw
    }

    /// Reading `bytes` of source data by one of `p` concurrently scanning
    /// processors. Under NFS-class shared storage the fixed aggregate
    /// bandwidth is divided among readers (total scan I/O constant in `p`
    /// — the paper's "scanning becomes I/O bound" effect); a Lustre-class
    /// parallel filesystem scales with the reading nodes up to its
    /// backplane; node-local disks behave like [`CostModel::disk_read`].
    pub fn scan_io(&self, bytes: u64, p: usize) -> f64 {
        let nominal = bytes as f64 * self.scale.data_scale();
        match self.cluster.storage {
            cluster::StorageModel::NodeLocal => self.disk_read(bytes),
            cluster::StorageModel::SharedFixed { aggregate_bps } => {
                nominal / (aggregate_bps / p.max(1) as f64)
            }
            cluster::StorageModel::Parallel {
                per_node_bps,
                backplane_bps,
            } => {
                let nodes = p.max(1).div_ceil(self.cluster.procs_per_node);
                let agg = (per_node_bps * nodes as f64).min(backplane_bps);
                nominal / (agg / p.max(1) as f64)
            }
        }
    }

    /// Cost of a barrier across `p` ranks.
    pub fn barrier(&self, p: usize) -> f64 {
        collectives::barrier(&self.cluster.network, p)
    }

    /// Cost of broadcasting `bytes` from one root to `p` ranks.
    pub fn broadcast(&self, p: usize, bytes: u64) -> f64 {
        collectives::broadcast(&self.cluster.network, p, self.scale.comm_bytes(bytes))
    }

    /// Cost of an allreduce of `bytes` across `p` ranks.
    pub fn allreduce(&self, p: usize, bytes: u64) -> f64 {
        collectives::allreduce(&self.cluster.network, p, self.scale.comm_bytes(bytes))
    }

    /// Cost of gathering `bytes_per_rank` from each of `p` ranks to a root
    /// (or to every rank: an allgather is priced the same).
    pub fn gather(&self, p: usize, bytes_per_rank: u64) -> f64 {
        collectives::gather(
            &self.cluster.network,
            p,
            self.scale.comm_bytes(bytes_per_rank),
        )
    }

    /// Gather whose payload is proportional to corpus size (per-document
    /// data such as projected coordinates) rather than vocabulary size.
    pub fn gather_data(&self, p: usize, bytes_per_rank: u64) -> f64 {
        collectives::gather(
            &self.cluster.network,
            p,
            bytes_per_rank as f64 * self.scale.data_scale(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_model_charges_nothing() {
        let m = CostModel::zero();
        assert_eq!(m.compute(WorkKind::ScanBytes, 1 << 30), 0.0);
    }

    #[test]
    fn compute_scales_linearly_in_units() {
        let m = CostModel::pnnl_2007();
        let one = m.compute(WorkKind::ScanBytes, 1_000_000);
        let ten = m.compute(WorkKind::ScanBytes, 10_000_000);
        assert!((ten / one - 10.0).abs() < 1e-9);
    }

    #[test]
    fn data_scale_inflates_compute() {
        let base = CostModel::pnnl_2007();
        let scaled = CostModel::pnnl_2007_scaled(1 << 30, 1 << 20); // 1 GiB nominal, 1 MiB actual
        let b = base.compute(WorkKind::ScanBytes, 1 << 20);
        let s = scaled.compute(WorkKind::ScanBytes, 1 << 20);
        assert!((s / b - 1024.0).abs() < 1e-6);
    }

    #[test]
    fn one_sided_is_latency_plus_bandwidth() {
        let m = CostModel::pnnl_2007();
        let small = m.one_sided(8);
        let large = m.one_sided(8 * 1024 * 1024);
        assert!(small >= m.cluster.network.msg_overhead_s);
        assert!(large > small);
    }

    #[test]
    fn disk_shared_between_node_procs() {
        let m = CostModel::pnnl_2007();
        // With 2 procs/node, each proc sees half the node disk bandwidth.
        let t = m.disk_read(1 << 20);
        let full_bw = (1u64 << 20) as f64 / m.cluster.disk_bandwidth_bps;
        assert!((t / full_bw - m.cluster.procs_per_node as f64).abs() < 1e-9);
    }

    #[test]
    fn collective_costs_grow_with_p() {
        let m = CostModel::pnnl_2007();
        assert!(m.allreduce(32, 4096) > m.allreduce(2, 4096));
        assert!(m.broadcast(16, 1024) > m.broadcast(2, 1024));
        assert!(m.barrier(32) > m.barrier(2));
    }

    #[test]
    fn shared_fixed_storage_makes_scan_io_constant_in_p() {
        let m = CostModel::pnnl_2007();
        // Per-rank bytes halve as P doubles, but the aggregate is fixed:
        // total time constant.
        let total_bytes = 1u64 << 26;
        let t4 = m.scan_io(total_bytes / 4, 4);
        let t32 = m.scan_io(total_bytes / 32, 32);
        assert!((t4 - t32).abs() < 1e-9, "{t4} vs {t32}");
    }

    #[test]
    fn parallel_storage_scales_with_nodes() {
        let mut m = CostModel::pnnl_2007();
        m.cluster.storage = StorageModel::Parallel {
            per_node_bps: 200e6,
            backplane_bps: 10e9,
        };
        let total_bytes = 1u64 << 26;
        let t4 = m.scan_io(total_bytes / 4, 4);
        let t32 = m.scan_io(total_bytes / 32, 32);
        // Per-processor bandwidth is constant (the filesystem scales with
        // the nodes), so per-rank time scales like the per-rank bytes: 8x.
        assert!((t4 / t32 - 8.0).abs() < 0.1, "{t4} vs {t32}");
        // Contrast with the shared server, where t4 == t32.
        let shared = CostModel::pnnl_2007();
        let s4 = shared.scan_io(total_bytes / 4, 4);
        let s32 = shared.scan_io(total_bytes / 32, 32);
        assert!((s4 - s32).abs() < 1e-9);
    }

    #[test]
    fn parallel_storage_capped_by_backplane() {
        let mut m = CostModel::pnnl_2007();
        m.cluster.storage = StorageModel::Parallel {
            per_node_bps: 200e6,
            backplane_bps: 400e6,
        };
        // 16 nodes would give 3.2 GB/s uncapped; the backplane holds it
        // to 400 MB/s, i.e. the SharedFixed behaviour.
        let t = m.scan_io(1 << 20, 32);
        let expect = (1u64 << 20) as f64 / (400e6 / 32.0);
        assert!((t - expect).abs() / expect < 1e-9);
    }
}
