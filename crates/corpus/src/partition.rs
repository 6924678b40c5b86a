//! Static partitioning of sources across processes.
//!
//! §3.2: *"The source datasets are partitioned equally into a distinct set
//! of documents and distributed among processes. This static partitioning
//! of sources is based on the size of individual documents/records (bytes)
//! and ensures load balance when distributed."*
//!
//! [`partition_contiguous`] splits the sources into contiguous ranges whose
//! byte boundaries approximate equal shares (what a file-list split does);
//! the scan uses it on every rank.

use std::ops::Range;

/// Split `sizes` into `p` contiguous ranges with near-equal byte totals.
/// Every index is assigned to exactly one range; empty ranges are possible
/// when there are fewer items than partitions.
pub fn partition_contiguous(sizes: &[u64], p: usize) -> Vec<Range<usize>> {
    assert!(p > 0);
    let total: u64 = sizes.iter().sum();
    let mut out = Vec::with_capacity(p);
    let mut start = 0usize;
    let mut acc: u64 = 0;
    for r in 0..p {
        // Ideal cumulative boundary for the end of partition r.
        let target = total as f64 * (r + 1) as f64 / p as f64;
        let mut end = start;
        // Remaining partitions must each be able to stay non-degenerate:
        // leave at least (p - 1 - r) items behind if possible.
        let reserve = p - 1 - r;
        while end < sizes.len().saturating_sub(reserve) {
            let next = acc + sizes[end];
            // Stop when passing the target makes balance worse.
            if next as f64 >= target {
                let overshoot = next as f64 - target;
                let undershoot = target - acc as f64;
                if end > start && overshoot > undershoot {
                    break;
                }
                acc = next;
                end += 1;
                break;
            }
            acc = next;
            end += 1;
        }
        out.push(start..end);
        start = end;
    }
    // Any remainder goes to the last partition.
    if start < sizes.len() {
        out.last_mut().unwrap().end = sizes.len();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contiguous_covers_everything_once() {
        let sizes = vec![5, 1, 9, 2, 2, 7, 3, 8, 1, 1];
        for p in 1..=10 {
            let parts = partition_contiguous(&sizes, p);
            assert_eq!(parts.len(), p);
            let mut covered = Vec::new();
            for r in &parts {
                covered.extend(r.clone());
            }
            assert_eq!(covered, (0..sizes.len()).collect::<Vec<_>>(), "p={p}");
        }
    }

    #[test]
    fn contiguous_balances_uniform_sizes() {
        let sizes = vec![10u64; 100];
        let parts = partition_contiguous(&sizes, 4);
        for r in &parts {
            assert_eq!(r.len(), 25);
        }
    }

    #[test]
    fn contiguous_handles_fewer_items_than_parts() {
        let sizes = vec![3u64, 4];
        let parts = partition_contiguous(&sizes, 5);
        let total: usize = parts.iter().map(|r| r.len()).sum();
        assert_eq!(total, 2);
        assert_eq!(parts.len(), 5);
    }

    #[test]
    fn empty_input() {
        let parts = partition_contiguous(&[], 3);
        assert_eq!(parts.len(), 3);
        assert!(parts.iter().all(|r| r.is_empty()));
    }
}
