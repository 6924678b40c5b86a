//! Intra-rank worker pool: data parallelism *inside* one SPMD rank.
//!
//! The paper's engine scales across ranks; on modern multi-core nodes
//! each rank can additionally fan embarrassingly parallel loops (record
//! tokenization, posting counts, association-matrix accumulation,
//! signature generation) across a small thread pool. This module provides
//! that pool with two invariants the engine depends on:
//!
//! 1. **Rank-collective semantics are untouched.** The pool runs only
//!    pure closures over index ranges; all collectives, virtual-clock
//!    charges, and timer attribution stay on the owning rank thread
//!    (`Ctx` is `!Send`, so the compiler enforces this).
//! 2. **Results are independent of the thread count.** Work is split
//!    into fixed-size chunks whose boundaries depend only on the item
//!    count — never on the pool width — and per-chunk partials are
//!    returned in chunk index order. A caller that merges partials
//!    sequentially therefore produces bit-identical results at any
//!    `threads_per_rank`, including the serial pool.

use std::ops::Range;

/// A fixed-width worker pool owned by one rank's `Ctx`.
///
/// Width 1 is the serial pool: `map_chunks` degenerates to a plain loop
/// with no thread-pool machinery at all.
pub struct IntraPool {
    pool: Option<rayon::ThreadPool>,
    width: usize,
}

impl IntraPool {
    /// Create a pool of `width` workers. Width 0 is treated as 1.
    pub fn new(width: usize) -> Self {
        let width = width.max(1);
        let pool = if width > 1 {
            Some(
                rayon::ThreadPoolBuilder::new()
                    .num_threads(width)
                    .build()
                    .expect("build intra-rank pool"),
            )
        } else {
            None
        };
        IntraPool { pool, width }
    }

    /// Serial pool (the default for every rank unless configured).
    pub fn serial() -> Self {
        IntraPool::new(1)
    }

    /// Number of worker threads this pool fans out to.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Split `0..n_items` into chunks of `chunk_size` and map `f` over
    /// them, returning the per-chunk results **in chunk index order**.
    ///
    /// Chunk boundaries depend only on `n_items` and `chunk_size`, so the
    /// partial list — and any in-order sequential merge of it — is
    /// identical for every pool width. `f` must be pure with respect to
    /// rank state: it runs off the rank thread when `width > 1`.
    pub fn map_chunks<R, F>(&self, n_items: usize, chunk_size: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(Range<usize>) -> R + Sync,
    {
        let chunk_size = chunk_size.max(1);
        let chunks: Vec<usize> = (0..n_items).step_by(chunk_size).collect();
        let run = |s: usize| -> R { f(s..(s + chunk_size).min(n_items)) };
        match &self.pool {
            Some(pool) if chunks.len() > 1 => pool.install(|| {
                use rayon::prelude::*;
                chunks.into_par_iter().map(run).collect()
            }),
            _ => chunks.into_iter().map(run).collect(),
        }
    }
}

impl std::fmt::Debug for IntraPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IntraPool")
            .field("width", &self.width)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_boundaries_ignore_width() {
        let serial = IntraPool::serial();
        let wide = IntraPool::new(4);
        let a = serial.map_chunks(103, 10, |r| (r.start, r.end));
        let b = wide.map_chunks(103, 10, |r| (r.start, r.end));
        assert_eq!(a, b);
        assert_eq!(a.len(), 11);
        assert_eq!(a[0], (0, 10));
        assert_eq!(a[10], (100, 103));
    }

    #[test]
    fn partials_merge_identically_across_widths() {
        let items: Vec<u64> = (0..1000).map(|i| i * 7 + 3).collect();
        let merge = |pool: &IntraPool| -> u64 {
            pool.map_chunks(items.len(), 64, |r| items[r].iter().sum::<u64>())
                .into_iter()
                .sum()
        };
        let expect: u64 = items.iter().sum();
        for width in [1, 2, 3, 4, 8] {
            assert_eq!(merge(&IntraPool::new(width)), expect, "width {width}");
        }
    }

    #[test]
    fn empty_input_yields_no_chunks() {
        let pool = IntraPool::new(4);
        let out = pool.map_chunks(0, 16, |_| -> u32 {
            unreachable!("no chunks for empty input")
        });
        assert!(out.is_empty());
    }

    #[test]
    fn width_zero_is_serial() {
        let pool = IntraPool::new(0);
        assert_eq!(pool.width(), 1);
        let out = pool.map_chunks(5, 2, |r| r.len());
        assert_eq!(out, vec![2, 2, 1]);
    }

    #[test]
    fn concatenation_order_is_stable() {
        let wide = IntraPool::new(8);
        let blocks = wide.map_chunks(57, 5, |r| r.collect::<Vec<usize>>());
        let flat: Vec<usize> = blocks.into_iter().flatten().collect();
        assert_eq!(flat, (0..57).collect::<Vec<usize>>());
    }
}
