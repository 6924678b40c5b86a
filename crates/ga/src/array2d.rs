//! Two-dimensional (row-block-distributed) global arrays.
//!
//! The engine stores the association matrix (N×M) and the knowledge
//! signatures (docs×M) in 2-D global arrays, distributed by contiguous row
//! blocks as GA does by default for the leading dimension.

use crate::global_array::block_starts;
use parking_lot::RwLock;
use spmd::Ctx;
use std::ops::Range;
use std::sync::Arc;

struct Storage2D<T> {
    /// One row-block per rank, stored row-major.
    blocks: Vec<RwLock<Vec<T>>>,
    row_starts: Vec<usize>,
    rows: usize,
    cols: usize,
}

/// A handle to a row-block-distributed matrix of `T`.
pub struct GlobalArray2D<T> {
    storage: Arc<Storage2D<T>>,
}

impl<T> Clone for GlobalArray2D<T> {
    fn clone(&self) -> Self {
        GlobalArray2D {
            storage: self.storage.clone(),
        }
    }
}

impl<T: Copy + Default + Send + Sync + 'static> GlobalArray2D<T> {
    /// Collective creation of a zero-initialized `rows × cols` matrix.
    pub fn create(ctx: &Ctx, rows: usize, cols: usize) -> Self {
        let p = ctx.nprocs();
        let handle = if ctx.rank() == 0 {
            let row_starts = block_starts(rows, p);
            let blocks = (0..p)
                .map(|r| {
                    RwLock::new(vec![
                        T::default();
                        (row_starts[r + 1] - row_starts[r]) * cols
                    ])
                })
                .collect();
            Some(GlobalArray2D {
                storage: Arc::new(Storage2D {
                    blocks,
                    row_starts,
                    rows,
                    cols,
                }),
            })
        } else {
            None
        };
        ctx.broadcast(0, handle, 16)
    }

    pub fn rows(&self) -> usize {
        self.storage.rows
    }

    pub fn cols(&self) -> usize {
        self.storage.cols
    }

    /// Row range owned by `rank`.
    pub fn row_distribution(&self, rank: usize) -> Range<usize> {
        self.storage.row_starts[rank]..self.storage.row_starts[rank + 1]
    }

    /// Which rank owns global row `row`.
    pub fn row_owner(&self, row: usize) -> usize {
        debug_assert!(row < self.storage.rows, "row {row} out of bounds");
        match self.storage.row_starts.binary_search(&row) {
            Ok(r) if r < self.storage.blocks.len() => r,
            Ok(r) => r - 1,
            Err(ins) => ins - 1,
        }
    }

    fn for_row_blocks(&self, rows: Range<usize>, mut f: impl FnMut(usize, Range<usize>, usize)) {
        assert!(rows.end <= self.storage.rows, "row range out of bounds");
        let mut at = rows.start;
        while at < rows.end {
            let r = self.row_owner(at);
            let block_end = self.storage.row_starts[r + 1];
            let seg_end = rows.end.min(block_end);
            let local_row = at - self.storage.row_starts[r];
            f(r, at..seg_end, local_row);
            at = seg_end;
        }
    }

    /// One-sided get of one full row.
    pub fn get_row(&self, ctx: &Ctx, row: usize) -> Vec<T> {
        let r = self.row_owner(row);
        let cols = self.storage.cols;
        let bytes = (cols * std::mem::size_of::<T>()) as u64;
        ctx.charge_one_sided(bytes, r);
        let block = self.storage.blocks[r].read();
        let local = (row - self.storage.row_starts[r]) * cols;
        block[local..local + cols].to_vec()
    }

    /// One-sided get of a contiguous row range, returned row-major.
    pub fn get_rows(&self, ctx: &Ctx, rows: Range<usize>) -> Vec<T> {
        let cols = self.storage.cols;
        let mut out = Vec::with_capacity(rows.len() * cols);
        self.for_row_blocks(rows, |r, seg, local_row| {
            let n = seg.len() * cols;
            ctx.charge_one_sided((n * std::mem::size_of::<T>()) as u64, r);
            let block = self.storage.blocks[r].read();
            out.extend_from_slice(&block[local_row * cols..local_row * cols + n]);
        });
        out
    }

    /// One-sided put of row-major `data` covering rows starting at
    /// `first_row`. A zero-column matrix accepts only empty data.
    pub fn put_rows(&self, ctx: &Ctx, first_row: usize, data: &[T]) {
        let cols = self.storage.cols;
        if cols == 0 {
            assert!(data.is_empty(), "zero-column matrix takes no data");
            return;
        }
        assert_eq!(data.len() % cols, 0, "data must be whole rows");
        let nrows = data.len() / cols;
        self.for_row_blocks(first_row..first_row + nrows, |r, seg, local_row| {
            let n = seg.len() * cols;
            ctx.charge_one_sided((n * std::mem::size_of::<T>()) as u64, r);
            let mut block = self.storage.blocks[r].write();
            let src_off = (seg.start - first_row) * cols;
            block[local_row * cols..local_row * cols + n]
                .copy_from_slice(&data[src_off..src_off + n]);
        });
    }

    /// Mutable access to this rank's own row block as `(row_range,
    /// row-major slice)`.
    pub fn with_local_mut<R>(&self, ctx: &Ctx, f: impl FnOnce(Range<usize>, &mut [T]) -> R) -> R {
        let r = ctx.rank();
        let rows = self.row_distribution(r);
        let bytes = (rows.len() * self.storage.cols * std::mem::size_of::<T>()) as u64;
        ctx.charge_one_sided(bytes, r);
        let mut block = self.storage.blocks[r].write();
        f(rows, &mut block)
    }

    /// Read-only access to this rank's own row block.
    pub fn with_local<R>(&self, ctx: &Ctx, f: impl FnOnce(Range<usize>, &[T]) -> R) -> R {
        let r = ctx.rank();
        let rows = self.row_distribution(r);
        let bytes = (rows.len() * self.storage.cols * std::mem::size_of::<T>()) as u64;
        ctx.charge_one_sided(bytes, r);
        let block = self.storage.blocks[r].read();
        f(rows, &block)
    }

    /// Collective: materialize the whole matrix (row-major) on every rank.
    pub fn to_vec_collective(&self, ctx: &Ctx) -> Vec<T> {
        let local: Vec<T> = self.storage.blocks[ctx.rank()].read().clone();
        let bytes = (local.len() * std::mem::size_of::<T>()) as u64;
        let parts = ctx.allgather(local, bytes);
        parts.concat()
    }

    /// Collective: materialize the whole matrix (row-major) on `root`
    /// only (`None` elsewhere); see [`crate::GlobalArray::gather_to`].
    pub fn gather_to(&self, ctx: &Ctx, root: usize) -> Option<Vec<T>> {
        let mine = self.row_distribution(ctx.rank()).len() * self.storage.cols;
        ctx.gather(root, (), (mine * std::mem::size_of::<T>()) as u64)?;
        let mut out = Vec::with_capacity(self.storage.rows * self.storage.cols);
        for block in &self.storage.blocks {
            out.extend_from_slice(&block.read());
        }
        Some(out)
    }
}

impl<T> GlobalArray2D<T>
where
    T: Copy + Default + Send + Sync + 'static + std::ops::AddAssign,
{
    /// One-sided accumulate of row-major `data` into rows starting at
    /// `first_row`. Atomic per block.
    pub fn acc_rows(&self, ctx: &Ctx, first_row: usize, data: &[T]) {
        let cols = self.storage.cols;
        if cols == 0 {
            assert!(data.is_empty(), "zero-column matrix takes no data");
            return;
        }
        assert_eq!(data.len() % cols, 0, "data must be whole rows");
        let nrows = data.len() / cols;
        self.for_row_blocks(first_row..first_row + nrows, |r, seg, local_row| {
            let n = seg.len() * cols;
            ctx.charge_one_sided((n * std::mem::size_of::<T>()) as u64, r);
            let mut block = self.storage.blocks[r].write();
            let src_off = (seg.start - first_row) * cols;
            for (dst, s) in block[local_row * cols..local_row * cols + n]
                .iter_mut()
                .zip(&data[src_off..src_off + n])
            {
                *dst += *s;
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmd::Runtime;

    #[test]
    fn rows_cover_all_ranks() {
        let rt = Runtime::for_testing();
        rt.run(4, |ctx| {
            let m = GlobalArray2D::<f64>::create(ctx, 10, 3);
            let mut covered = 0;
            for r in 0..4 {
                covered += m.row_distribution(r).len();
            }
            assert_eq!(covered, 10);
            assert_eq!(m.rows(), 10);
            assert_eq!(m.cols(), 3);
        });
    }

    #[test]
    fn put_get_rows_roundtrip() {
        let rt = Runtime::for_testing();
        rt.run(3, |ctx| {
            let m = GlobalArray2D::<u32>::create(ctx, 8, 4);
            if ctx.rank() == 2 {
                let data: Vec<u32> = (0..32).collect();
                m.put_rows(ctx, 0, &data);
            }
            ctx.barrier();
            assert_eq!(m.get_row(ctx, 3), vec![12, 13, 14, 15]);
            assert_eq!(m.get_rows(ctx, 2..5), (8..20).collect::<Vec<u32>>());
        });
    }

    #[test]
    fn acc_rows_sums_over_ranks() {
        let rt = Runtime::for_testing();
        let res = rt.run(5, |ctx| {
            let m = GlobalArray2D::<f64>::create(ctx, 6, 2);
            let contribution: Vec<f64> = (0..12).map(|i| i as f64).collect();
            m.acc_rows(ctx, 0, &contribution);
            ctx.barrier();
            m.to_vec_collective(ctx)
        });
        for v in res.results {
            let expect: Vec<f64> = (0..12).map(|i| 5.0 * i as f64).collect();
            assert_eq!(v, expect);
        }
    }

    #[test]
    fn local_rows_round_trip() {
        let rt = Runtime::for_testing();
        rt.run(4, |ctx| {
            let m = GlobalArray2D::<u64>::create(ctx, 11, 3);
            m.with_local_mut(ctx, |rows, block| {
                for (i, row) in rows.clone().enumerate() {
                    for c in 0..3 {
                        block[i * 3 + c] = (row * 10 + c) as u64;
                    }
                }
            });
            ctx.barrier();
            for row in 0..11 {
                assert_eq!(
                    m.get_row(ctx, row),
                    vec![
                        (row * 10) as u64,
                        (row * 10 + 1) as u64,
                        (row * 10 + 2) as u64
                    ]
                );
            }
        });
    }

    #[test]
    fn more_ranks_than_rows() {
        let rt = Runtime::for_testing();
        rt.run(7, |ctx| {
            let m = GlobalArray2D::<u32>::create(ctx, 2, 2);
            if ctx.rank() == 0 {
                m.put_rows(ctx, 0, &[1, 2, 3, 4]);
            }
            ctx.barrier();
            assert_eq!(m.to_vec_collective(ctx), vec![1, 2, 3, 4]);
        });
    }
}
