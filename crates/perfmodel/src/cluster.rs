//! Description of the machine being modeled.

/// Interconnect parameters (a two-parameter latency/bandwidth model, i.e.
/// the postal / Hockney model that LogP-style collective costs build on).
#[derive(Debug, Clone)]
pub struct Network {
    /// One-way small-message latency in seconds (what a blocking
    /// round-trip or a collective tree round pays).
    pub latency_s: f64,
    /// Per-message initiation overhead under pipelining, in seconds.
    /// One-sided RMA and atomics are issued non-blocking and overlapped
    /// (the ARMCI design the paper builds on — ref [21], "exploiting
    /// non-blocking remote memory access"), so a stream of them is
    /// limited by the message rate, not by serial round trips.
    pub msg_overhead_s: f64,
    /// Point-to-point bandwidth in bytes per second.
    pub bandwidth_bps: f64,
}

impl Network {
    /// 2007-era single-data-rate InfiniBand: ~5 µs MPI latency, ~900 MB/s
    /// effective point-to-point bandwidth.
    pub fn infiniband_sdr() -> Self {
        Network {
            latency_s: 5e-6,
            msg_overhead_s: 1.2e-6,
            bandwidth_bps: 900e6,
        }
    }

    /// Gigabit Ethernet of the same era, for sensitivity studies: ~50 µs
    /// latency, ~110 MB/s.
    pub fn gigabit_ethernet() -> Self {
        Network {
            latency_s: 50e-6,
            msg_overhead_s: 12e-6,
            bandwidth_bps: 110e6,
        }
    }

    /// Time to move `bytes` point to point.
    pub fn ptp(&self, bytes: f64) -> f64 {
        self.latency_s + bytes / self.bandwidth_bps
    }
}

/// Where the source datasets live and how reading them scales (§4.2:
/// scanning "can be leveraged by using scalable parallel file systems
/// (e.g., Lustre)").
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StorageModel {
    /// Each node reads from its own local disk (data pre-staged).
    NodeLocal,
    /// A shared server (NFS-class): fixed aggregate bandwidth divided
    /// among all readers — scanning I/O stops scaling with P.
    SharedFixed {
        /// Aggregate bytes per second of the shared server.
        aggregate_bps: f64,
    },
    /// A parallel filesystem (Lustre-class): bandwidth grows with the
    /// number of reading nodes, up to a backplane cap.
    Parallel {
        /// Bytes per second each reading node can stream.
        per_node_bps: f64,
        /// Upper bound across all nodes.
        backplane_bps: f64,
    },
}

/// The cluster: homogeneous nodes, each with `procs_per_node` processors
/// sharing the node's memory and disk.
#[derive(Debug, Clone)]
pub struct ClusterSpec {
    /// Human-readable name, recorded in experiment output.
    pub name: String,
    /// Processors (cores/CPUs) per node.
    pub procs_per_node: usize,
    /// CPU clock in GHz (informational; throughput lives in the rate card).
    pub cpu_ghz: f64,
    /// Bytes of RAM per node.
    pub memory_per_node: u64,
    /// Local disk read bandwidth per node, bytes per second, shared by the
    /// node's processors.
    pub disk_bandwidth_bps: f64,
    /// Where the source datasets live (the paper's configuration is a
    /// shared server; they note Lustre as the remedy for scanning
    /// becoming I/O bound, §4.2).
    pub storage: StorageModel,
    /// Interconnect.
    pub network: Network,
}

impl ClusterSpec {
    /// The paper's platform: "a Linux cluster based on dual 1.5-GHz Intel
    /// Itanium nodes and Infiniband network (48 processors total)" at PNNL,
    /// i.e. 24 nodes × 2 processors. Node memory is not stated in the paper;
    /// 8 GB/node is representative of that machine class and makes the
    /// 16.44 GB PubMed run oversubscribe memory at P = 4 exactly as the
    /// paper reports.
    pub fn pnnl_itanium_2007() -> Self {
        ClusterSpec {
            name: "PNNL Itanium-2/InfiniBand (24 nodes x 2 procs)".to_string(),
            procs_per_node: 2,
            cpu_ghz: 1.5,
            memory_per_node: 8 << 30,
            disk_bandwidth_bps: 200e6,
            storage: StorageModel::SharedFixed {
                aggregate_bps: 500e6,
            },
            network: Network::infiniband_sdr(),
        }
    }

    /// Memory available to each *active* processor when only `p` ranks
    /// run: with block placement, a run smaller than a node leaves the
    /// rest of the node's memory to the ranks it does host.
    pub fn memory_per_active_proc(&self, p: usize) -> u64 {
        let per_node = self.procs_per_node.min(p.max(1));
        self.memory_per_node / per_node as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_split_between_active_procs() {
        let c = ClusterSpec::pnnl_itanium_2007();
        assert_eq!(c.memory_per_active_proc(48), 4 << 30);
        assert_eq!(c.memory_per_active_proc(1), 8 << 30);
    }

    #[test]
    fn ptp_monotone_in_size() {
        let n = Network::infiniband_sdr();
        assert!(n.ptp(1e6) > n.ptp(1e3));
        assert!(n.ptp(0.0) == n.latency_s);
    }

    #[test]
    fn ethernet_slower_than_ib() {
        let ib = Network::infiniband_sdr();
        let eth = Network::gigabit_ethernet();
        assert!(eth.ptp(1e6) > ib.ptp(1e6));
    }
}
