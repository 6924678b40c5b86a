//! LogP-style costs for the MPI collectives the engine uses.
//!
//! All collectives are modeled as binomial trees over the [`Network`]'s
//! latency/bandwidth parameters: `ceil(log2 p)` rounds, each moving the
//! payload point to point. This is the standard first-order model for the
//! MVAPICH-class MPI implementations of the paper's era and is what makes
//! the Allreduce-heavy topicality step stop scaling as `p` grows — exactly
//! the behaviour the paper reports in Figures 6b/7b.

use crate::cluster::Network;

/// `ceil(log2 p)`, with `p <= 1` costing zero rounds.
pub fn rounds(p: usize) -> u32 {
    if p <= 1 {
        0
    } else {
        usize::BITS - (p - 1).leading_zeros()
    }
}

/// Barrier: latency-only binomial dissemination.
pub fn barrier(net: &Network, p: usize) -> f64 {
    rounds(p) as f64 * net.latency_s
}

/// Broadcast `bytes` from a root: `log p` rounds of the full payload.
pub fn broadcast(net: &Network, p: usize, bytes: f64) -> f64 {
    rounds(p) as f64 * net.ptp(bytes)
}

/// Allreduce: a reduce to a root over the broadcast tree, followed by a
/// broadcast (the classical implementation;
/// recursive-doubling halves the constant but has the same `log p` shape).
pub fn allreduce(net: &Network, p: usize, bytes: f64) -> f64 {
    2.0 * broadcast(net, p, bytes)
}

/// Gather `bytes_per_rank` from every rank to a root (an allgather is
/// priced the same: ring/Bruck moves `(p-1)` payloads through each rank).
/// The root's inbound link is the bottleneck: `(p-1)` payloads, pipelined
/// behind one latency per tree round.
pub fn gather(net: &Network, p: usize, bytes_per_rank: f64) -> f64 {
    if p <= 1 {
        return 0.0;
    }
    rounds(p) as f64 * net.latency_s + (p - 1) as f64 * bytes_per_rank / net.bandwidth_bps
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net() -> Network {
        Network::infiniband_sdr()
    }

    #[test]
    fn rounds_matches_log2_ceiling() {
        assert_eq!(rounds(1), 0);
        assert_eq!(rounds(2), 1);
        assert_eq!(rounds(3), 2);
        assert_eq!(rounds(4), 2);
        assert_eq!(rounds(5), 3);
        assert_eq!(rounds(8), 3);
        assert_eq!(rounds(9), 4);
        assert_eq!(rounds(32), 5);
        assert_eq!(rounds(48), 6);
    }

    #[test]
    fn single_rank_collectives_are_free() {
        let n = net();
        assert_eq!(barrier(&n, 1), 0.0);
        assert_eq!(broadcast(&n, 1, 1e6), 0.0);
        assert_eq!(allreduce(&n, 1, 1e6), 0.0);
        assert_eq!(gather(&n, 1, 1e6), 0.0);
    }

    #[test]
    fn allreduce_twice_broadcast() {
        let n = net();
        assert!((allreduce(&n, 16, 4096.0) - 2.0 * broadcast(&n, 16, 4096.0)).abs() < 1e-15);
    }

    #[test]
    fn costs_monotone_in_p() {
        let n = net();
        let mut prev = 0.0;
        for p in [2usize, 4, 8, 16, 32] {
            let c = allreduce(&n, p, 8192.0);
            assert!(c > prev);
            prev = c;
        }
    }

    #[test]
    fn gather_dominated_by_payload_volume() {
        let n = net();
        let small = gather(&n, 32, 8.0);
        let large = gather(&n, 32, 1e6);
        assert!(large > 10.0 * small);
    }
}
