//! Block-distributed global arrays, optionally with row-aligned blocks.
//!
//! A [`GlobalArray`] is one-dimensional storage split into one contiguous
//! block per rank. [`GlobalArray::create_rows`] lays a row-major
//! `rows × cols` matrix over it with every block boundary on a row
//! boundary — GA's default distribution of a matrix's leading dimension —
//! so a rank's block holds whole rows and a span of rows touches exactly
//! the blocks that own them.

use parking_lot::RwLock;
use spmd::Ctx;
use std::ops::Range;
use std::sync::Arc;

/// Physically distributed storage: one block per rank, individually locked
/// so one-sided accesses to different blocks never contend.
struct Storage<T> {
    blocks: Vec<RwLock<Vec<T>>>,
    /// `starts[r]` is the global index of the first element of rank `r`'s
    /// block; `starts[nprocs]` == `len`.
    starts: Vec<usize>,
    len: usize,
}

/// A handle to a block-distributed array of `T`.
///
/// Created collectively by [`GlobalArray::create`] or
/// [`GlobalArray::create_rows`]; every rank holds a
/// clone of the same handle. All data-access methods take the caller's
/// [`Ctx`] so the traffic is charged to the right virtual clock.
pub struct GlobalArray<T> {
    storage: Arc<Storage<T>>,
}

impl<T> Clone for GlobalArray<T> {
    fn clone(&self) -> Self {
        GlobalArray {
            storage: self.storage.clone(),
        }
    }
}

/// Standard block distribution: the first `len % p` ranks get one extra
/// element.
fn block_starts(len: usize, p: usize) -> Vec<usize> {
    let base = len / p;
    let extra = len % p;
    let mut starts = Vec::with_capacity(p + 1);
    let mut at = 0;
    for r in 0..p {
        starts.push(at);
        at += base + usize::from(r < extra);
    }
    starts.push(at);
    debug_assert_eq!(at, len);
    starts
}

impl<T: Copy + Default + Send + Sync + 'static> GlobalArray<T> {
    /// Collective creation of a zero-initialized array of `len` elements
    /// block-distributed over all ranks. Every rank must call this.
    pub fn create(ctx: &Ctx, len: usize) -> Self {
        Self::create_rows(ctx, len, 1)
    }

    /// Collective creation of a zero-initialized row-major `rows × cols`
    /// matrix whose blocks hold whole rows: rows are block-distributed
    /// like [`create`](GlobalArray::create)'s elements, so
    /// `distribution(r)` is rank `r`'s row range times `cols`. Global
    /// index `row * cols + col` addresses an element. Every rank must
    /// call this.
    pub fn create_rows(ctx: &Ctx, rows: usize, cols: usize) -> Self {
        let handle = (ctx.rank() == 0).then(|| {
            let starts: Vec<usize> = block_starts(rows, ctx.nprocs())
                .into_iter()
                .map(|row| row * cols)
                .collect();
            let blocks = starts
                .windows(2)
                .map(|w| RwLock::new(vec![T::default(); w[1] - w[0]]))
                .collect();
            GlobalArray {
                storage: Arc::new(Storage {
                    blocks,
                    starts,
                    len: rows * cols,
                }),
            }
        });
        ctx.broadcast(0, handle, 16)
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.storage.len
    }

    pub fn is_empty(&self) -> bool {
        self.storage.len == 0
    }

    /// The global index range owned by `rank` (the GA "distribution"
    /// query — locality information the paper's §3.1 highlights).
    pub fn distribution(&self, rank: usize) -> Range<usize> {
        self.storage.starts[rank]..self.storage.starts[rank + 1]
    }

    /// Which rank owns global index `i`.
    pub fn owner(&self, i: usize) -> usize {
        debug_assert!(i < self.storage.len, "index {i} out of bounds");
        // starts is sorted; binary search for the containing block.
        match self.storage.starts.binary_search(&i) {
            Ok(r) if r < self.storage.blocks.len() => r,
            Ok(r) => r - 1,
            Err(ins) => ins - 1,
        }
    }

    /// For each block overlapping `range`, call `f(rank, global_sub_range,
    /// local_offset)`.
    fn for_blocks(&self, range: Range<usize>, mut f: impl FnMut(usize, Range<usize>, usize)) {
        assert!(range.end <= self.storage.len, "range out of bounds");
        if range.start >= range.end {
            return;
        }
        let mut at = range.start;
        while at < range.end {
            let r = self.owner(at);
            let block_end = self.storage.starts[r + 1];
            let seg_end = range.end.min(block_end);
            let local = at - self.storage.starts[r];
            f(r, at..seg_end, local);
            at = seg_end;
        }
    }

    /// One-sided get of `range` into a fresh vector.
    pub fn get(&self, ctx: &Ctx, range: Range<usize>) -> Vec<T> {
        let mut out = Vec::with_capacity(range.len());
        self.for_blocks(range, |r, seg, local| {
            let bytes = (seg.len() * std::mem::size_of::<T>()) as u64;
            ctx.charge_one_sided(bytes, r);
            let block = self.storage.blocks[r].read();
            out.extend_from_slice(&block[local..local + seg.len()]);
        });
        out
    }

    /// One-sided put of `data` starting at global index `start`.
    pub fn put(&self, ctx: &Ctx, start: usize, data: &[T]) {
        self.for_blocks(start..start + data.len(), |r, seg, local| {
            let bytes = (seg.len() * std::mem::size_of::<T>()) as u64;
            ctx.charge_one_sided(bytes, r);
            let mut block = self.storage.blocks[r].write();
            let src = &data[seg.start - start..seg.end - start];
            block[local..local + seg.len()].copy_from_slice(src);
        });
    }

    /// One-sided put of many `(start, data)` pairs as a
    /// **destination-aggregated exchange**: every span (or span segment,
    /// when a span straddles a block boundary) bound for one rank is
    /// packed into a single message to that rank — ARMCI-style
    /// aggregation of one-sided operations. Spans need not be contiguous
    /// or sorted; the message carries the scattered spans with their
    /// target offsets. The stored result is identical to issuing every
    /// put individually, and the charged payload bytes are unchanged;
    /// only the *message count* collapses, from one per span to at most
    /// one per destination rank.
    ///
    /// This is the transport for scatter passes that emit many small
    /// writes across the array (FAST-INV posting placement).
    pub fn put_batch<'a>(&self, ctx: &Ctx, puts: impl IntoIterator<Item = (usize, &'a [T])>) {
        self.dest_packed_apply(ctx, puts, |dst, src| dst.copy_from_slice(src));
    }

    /// Bucket `ops` into span segments per owning rank, then per
    /// destination: charge one message (payload = the sum of the rank's
    /// segment bytes, scalar-equivalent = the number of segments packed)
    /// and run `apply(block_slice, payload)` over its segments in
    /// submission order under **one** write lock of that block — the
    /// owner applies a message atomically, as in
    /// [`fetch_add_batch`](GlobalArray::fetch_add_batch).
    fn dest_packed_apply<'a>(
        &self,
        ctx: &Ctx,
        ops: impl IntoIterator<Item = (usize, &'a [T])>,
        apply: impl Fn(&mut [T], &[T]),
    ) {
        let p = self.storage.blocks.len();
        // Per destination: payload bytes and (block-local offset, payload).
        let mut bytes = vec![0u64; p];
        let mut segs: Vec<Vec<(usize, &[T])>> = vec![Vec::new(); p];
        for (start, data) in ops {
            self.for_blocks(start..start + data.len(), |r, seg, local| {
                bytes[r] += (seg.len() * std::mem::size_of::<T>()) as u64;
                segs[r].push((local, &data[seg.start - start..seg.end - start]));
            });
        }
        for (r, segs) in segs.iter().enumerate() {
            if segs.is_empty() {
                continue;
            }
            ctx.charge_one_sided_batch(bytes[r], r, segs.len() as u64);
            let mut block = self.storage.blocks[r].write();
            for &(local, src) in segs {
                apply(&mut block[local..local + src.len()], src);
            }
        }
    }

    /// Run `f` over this rank's own block (no copy, charged as local
    /// access of the block's size).
    pub fn with_local_mut<R>(&self, ctx: &Ctx, f: impl FnOnce(&mut [T]) -> R) -> R {
        let r = ctx.rank();
        let bytes = ((self.storage.starts[r + 1] - self.storage.starts[r])
            * std::mem::size_of::<T>()) as u64;
        ctx.charge_one_sided(bytes, r);
        let mut block = self.storage.blocks[r].write();
        f(&mut block)
    }

    /// Collective: gather the full array contents on every rank (an
    /// Allgather of the local blocks).
    pub fn to_vec_collective(&self, ctx: &Ctx) -> Vec<T> {
        let local: Vec<T> = {
            let r = ctx.rank();
            let block = self.storage.blocks[r].read();
            block.clone()
        };
        let bytes = (local.len() * std::mem::size_of::<T>()) as u64;
        let parts = ctx.allgather(local, bytes);
        parts.concat()
    }

    /// Collective: gather the full array contents on `root` only (`None`
    /// elsewhere) — a Gather of the local blocks, for a consumer that
    /// runs on one rank. Charged as that Gather, but no block rides the
    /// rendezvous: once every rank has arrived the root copies each block
    /// out of storage once, so no rank allocates a send copy. As with any
    /// collective read, one-sided writes must not overlap the call.
    pub fn gather_to(&self, ctx: &Ctx, root: usize) -> Option<Vec<T>> {
        let mine = self.distribution(ctx.rank()).len();
        ctx.gather(root, (), (mine * std::mem::size_of::<T>()) as u64)?;
        let mut out = Vec::with_capacity(self.storage.len);
        for block in &self.storage.blocks {
            out.extend_from_slice(&block.read());
        }
        Some(out)
    }
}

impl<T> GlobalArray<T>
where
    T: Copy + Default + Send + Sync + 'static + std::ops::AddAssign,
{
    /// One-sided accumulate: `a[start..] += data`, element-wise. Each
    /// block update is atomic with respect to other accumulates (the GA
    /// `NGA_Acc` contract).
    pub fn acc(&self, ctx: &Ctx, start: usize, data: &[T]) {
        self.for_blocks(start..start + data.len(), |r, seg, local| {
            let bytes = (seg.len() * std::mem::size_of::<T>()) as u64;
            ctx.charge_one_sided(bytes, r);
            let mut block = self.storage.blocks[r].write();
            let src = &data[seg.start - start..seg.end - start];
            for (dst, s) in block[local..local + seg.len()].iter_mut().zip(src) {
                *dst += *s;
            }
        });
    }

    /// Batched [`acc`](GlobalArray::acc) with the same
    /// destination-aggregated packing and charging discipline as
    /// [`put_batch`](GlobalArray::put_batch): at most one message per
    /// destination rank, scattered spans inside.
    pub fn acc_batch<'a>(&self, ctx: &Ctx, accs: impl IntoIterator<Item = (usize, &'a [T])>) {
        self.dest_packed_apply(ctx, accs, |dst, src| {
            for (d, s) in dst.iter_mut().zip(src) {
                *d += *s;
            }
        });
    }
}

impl GlobalArray<i64> {
    /// Atomic read-and-increment of element `i` by `delta`, returning the
    /// previous value — GA's `NGA_Read_inc`, the primitive behind the
    /// paper's dynamic load balancing.
    pub fn read_inc(&self, ctx: &Ctx, i: usize, delta: i64) -> i64 {
        let r = self.owner(i);
        ctx.charge_remote_atomic(r);
        let mut block = self.storage.blocks[r].write();
        let local = i - self.storage.starts[r];
        let old = block[local];
        block[local] += delta;
        old
    }

    /// Batched fetch-and-add: apply every `(index, delta)` op and return
    /// the pre-increment values in **submission order**, charging one
    /// aggregated RPC per destination rank instead of one remote atomic
    /// per op. Block distribution makes ownership computable locally, so
    /// the ops bound for one rank travel in a single message; the owner
    /// applies its sub-batch atomically (under one block lock) in
    /// submission order, which makes the returned values exactly what a
    /// scalar [`read_inc`](GlobalArray::read_inc) sequence would have
    /// seen had no other rank interleaved — and, because each op still
    /// reserves a disjoint `[old, old+delta)` window, the *set* of
    /// reserved windows is identical to the scalar sequence under any
    /// interleaving.
    pub fn fetch_add_batch(&self, ctx: &Ctx, ops: &[(usize, i64)]) -> Vec<i64> {
        let p = self.storage.blocks.len();
        let mut out = vec![0i64; ops.len()];
        // Group op indices by owning rank, preserving submission order.
        let mut groups: Vec<Vec<usize>> = vec![Vec::new(); p];
        for (i, &(idx, _)) in ops.iter().enumerate() {
            groups[self.owner(idx)].push(i);
        }
        for (r, group) in groups.iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            // One round trip carrying the rank's (index, delta) pairs and
            // returning one old value per pair.
            let bytes = (group.len() * 16) as u64;
            ctx.charge_one_sided_batch(bytes, r, group.len() as u64);
            let mut block = self.storage.blocks[r].write();
            for &i in group {
                let (idx, delta) = ops[i];
                let local = idx - self.storage.starts[r];
                out[i] = block[local];
                block[local] += delta;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmd::Runtime;

    #[test]
    fn block_starts_cover_everything() {
        for (len, p) in [(10usize, 3usize), (7, 7), (5, 8), (0, 4), (100, 1)] {
            let s = block_starts(len, p);
            assert_eq!(s.len(), p + 1);
            assert_eq!(s[0], 0);
            assert_eq!(s[p], len);
            for w in s.windows(2) {
                assert!(w[0] <= w[1]);
            }
        }
    }

    #[test]
    fn create_rows_puts_every_block_boundary_on_a_row_boundary() {
        // (rows, cols, P): more rows than ranks, fewer rows than ranks,
        // no rows, no columns.
        for (rows, cols, p) in [
            (10, 3, 4),
            (11, 3, 4),
            (6, 2, 5),
            (2, 2, 7),
            (0, 5, 3),
            (6, 0, 3),
        ] {
            Runtime::for_testing().run(p, |ctx| {
                let a = GlobalArray::<u64>::create_rows(ctx, rows, cols);
                assert_eq!(a.len(), rows * cols);
                let mut at = 0;
                for r in 0..p {
                    let d = a.distribution(r);
                    assert_eq!(d.start, at, "blocks tile the array");
                    if cols > 0 {
                        assert_eq!((d.start % cols, d.len() % cols), (0, 0), "whole rows");
                    }
                    at = d.end;
                }
                assert_eq!(at, rows * cols);
                // Each rank writes row * 10 + col into its own rows, then
                // every rank adds 1 everywhere.
                let mine = a.distribution(ctx.rank());
                a.with_local_mut(ctx, |block| {
                    for (g, v) in mine.zip(block) {
                        *v = (g / cols * 10 + g % cols) as u64;
                    }
                });
                ctx.barrier();
                a.acc(ctx, 0, &vec![1; rows * cols]);
                ctx.barrier();
                let want: Vec<u64> = (0..rows)
                    .flat_map(|row| (0..cols).map(move |c| (row * 10 + c) as u64 + p as u64))
                    .collect();
                assert_eq!(a.to_vec_collective(ctx), want);
                // An empty put, all an empty matrix ever takes, is free.
                let before = ctx.stats.snapshot();
                a.put(ctx, 0, &[]);
                assert_eq!(ctx.stats.snapshot(), before);
            });
        }
    }

    #[test]
    fn a_put_across_two_row_blocks_charges_two_messages_of_whole_rows() {
        Runtime::for_testing().run(3, |ctx| {
            // 8 rows of 4 over 3 ranks: rows 0..3 | 3..6 | 6..8.
            let a = GlobalArray::<u32>::create_rows(ctx, 8, 4);
            if ctx.rank() == 0 {
                // Rows 2..5: row 2 is rank 0's own, rows 3 and 4 are
                // rank 1's.
                let before = ctx.stats.snapshot();
                a.put(ctx, 2 * 4, &(8..20).collect::<Vec<u32>>());
                let snap = ctx.stats.snapshot();
                assert_eq!(snap.total_msgs() - before.total_msgs(), 2);
                assert_eq!(snap.local_bytes - before.local_bytes, 4 * 4);
                assert_eq!(snap.one_sided_bytes - before.one_sided_bytes, 2 * 4 * 4);
            }
            ctx.barrier();
            assert_eq!(a.get(ctx, 3 * 4..4 * 4), vec![12, 13, 14, 15]);
            assert_eq!(a.get(ctx, 2 * 4..5 * 4), (8..20).collect::<Vec<u32>>());
        });
    }

    #[test]
    fn put_get_roundtrip_across_blocks() {
        let rt = Runtime::for_testing();
        rt.run(4, |ctx| {
            let a = GlobalArray::<u32>::create(ctx, 103);
            if ctx.rank() == 0 {
                let data: Vec<u32> = (0..103).collect();
                a.put(ctx, 0, &data);
            }
            ctx.barrier();
            let got = a.get(ctx, 0..103);
            assert_eq!(got, (0..103).collect::<Vec<u32>>());
            // Sub-range crossing block boundaries.
            let mid = a.get(ctx, 20..80);
            assert_eq!(mid, (20..80).collect::<Vec<u32>>());
        });
    }

    #[test]
    fn owner_matches_distribution() {
        let rt = Runtime::for_testing();
        rt.run(5, |ctx| {
            let a = GlobalArray::<u8>::create(ctx, 37);
            for r in 0..5 {
                for i in a.distribution(r) {
                    assert_eq!(a.owner(i), r, "index {i}");
                }
            }
        });
    }

    #[test]
    fn accumulate_sums_concurrent_contributions() {
        let rt = Runtime::for_testing();
        let res = rt.run(8, |ctx| {
            let a = GlobalArray::<u64>::create(ctx, 50);
            // Every rank accumulates 1 into every element.
            a.acc(ctx, 0, &vec![1u64; 50]);
            ctx.barrier();
            a.get(ctx, 0..50)
        });
        for v in res.results {
            assert_eq!(v, vec![8u64; 50]);
        }
    }

    #[test]
    fn read_inc_hands_out_unique_tickets() {
        let rt = Runtime::for_testing();
        let res = rt.run(6, |ctx| {
            let a = GlobalArray::<i64>::create(ctx, 1);
            let mut mine = Vec::new();
            for _ in 0..100 {
                mine.push(a.read_inc(ctx, 0, 1));
            }
            ctx.barrier();
            (mine, a.get(ctx, 0..1)[0])
        });
        let mut all: Vec<i64> = res.results.iter().flat_map(|(m, _)| m.clone()).collect();
        all.sort_unstable();
        assert_eq!(all, (0..600).collect::<Vec<i64>>());
        for (_, total) in res.results {
            assert_eq!(total, 600);
        }
    }

    #[test]
    fn local_access_sees_own_block_only() {
        let rt = Runtime::for_testing();
        let res = rt.run(4, |ctx| {
            let a = GlobalArray::<u32>::create(ctx, 40);
            let my = a.distribution(ctx.rank());
            a.with_local_mut(ctx, |block| {
                assert_eq!(block.len(), my.len());
                for (off, v) in block.iter_mut().enumerate() {
                    *v = (my.start + off) as u32;
                }
            });
            ctx.barrier();
            a.get(ctx, 0..40)
        });
        for v in res.results {
            assert_eq!(v, (0..40u32).collect::<Vec<u32>>());
        }
    }

    #[test]
    fn to_vec_collective_agrees_with_get() {
        let rt = Runtime::for_testing();
        rt.run(3, |ctx| {
            let a = GlobalArray::<u16>::create(ctx, 17);
            if ctx.rank() == 1 {
                a.put(ctx, 0, &(0..17).map(|i| i * 3).collect::<Vec<u16>>());
            }
            ctx.barrier();
            let v = a.to_vec_collective(ctx);
            assert_eq!(v, a.get(ctx, 0..17));
        });
    }

    #[test]
    fn gather_to_materializes_on_the_root_only() {
        let rt = Runtime::for_testing();
        rt.run(3, |ctx| {
            let a = GlobalArray::<u16>::create(ctx, 17);
            if ctx.rank() == 1 {
                a.put(ctx, 0, &(0..17).map(|i| i * 3).collect::<Vec<u16>>());
            }
            ctx.barrier();
            let v = a.gather_to(ctx, 2);
            assert_eq!(v.is_some(), ctx.rank() == 2);
            if let Some(v) = v {
                assert_eq!(v, a.get(ctx, 0..17));
            }
        });
    }

    #[test]
    fn remote_traffic_is_charged_local_is_cheaper() {
        let rt = Runtime::new(Arc::new(perfmodel::CostModel::pnnl_2007()));
        let res = rt.run(2, |ctx| {
            let a = GlobalArray::<u64>::create(ctx, 1000);
            ctx.barrier();
            let t0 = ctx.now();
            // Rank 0 reads its own block; rank 1 reads rank 0's block.
            let _ = a.get(ctx, 0..500);
            ctx.now() - t0
        });
        assert!(
            res.results[1] > res.results[0],
            "remote get must cost more: {:?}",
            res.results
        );
    }

    #[test]
    fn put_batch_matches_individual_puts() {
        let rt = Runtime::for_testing();
        rt.run(3, |ctx| {
            let a = GlobalArray::<u32>::create(ctx, 40);
            let b = GlobalArray::<u32>::create(ctx, 40);
            if ctx.rank() == 0 {
                // Out-of-order, partly adjacent, partly gapped writes.
                let payloads: Vec<(usize, Vec<u32>)> = vec![
                    (10, vec![1, 2, 3]),
                    (0, vec![7]),
                    (13, vec![4, 5]),
                    (30, vec![9, 9]),
                    (1, vec![8, 8]),
                ];
                for (s, d) in &payloads {
                    a.put(ctx, *s, d);
                }
                let refs: Vec<(usize, &[u32])> =
                    payloads.iter().map(|(s, d)| (*s, d.as_slice())).collect();
                b.put_batch(ctx, refs.iter().copied());
            }
            ctx.barrier();
            assert_eq!(a.get(ctx, 0..40), b.get(ctx, 0..40));
        });
    }

    #[test]
    fn put_batch_charges_one_message_per_destination() {
        let rt = Runtime::for_testing();
        rt.run(1, |ctx| {
            let a = GlobalArray::<u32>::create(ctx, 100);
            let payloads: Vec<(usize, Vec<u32>)> = (0..10).map(|i| (i * 2, vec![1, 1])).collect();
            let refs: Vec<(usize, &[u32])> =
                payloads.iter().map(|(s, d)| (*s, d.as_slice())).collect();

            // Scalar puts: one message each.
            let before = ctx.stats.snapshot();
            for (s, d) in &refs {
                a.put(ctx, *s, d);
            }
            let scalar_msgs = ctx.stats.snapshot().total_msgs() - before.total_msgs();
            assert_eq!(scalar_msgs, 10);

            // The same writes batched: one destination rank, one message.
            let before = ctx.stats.snapshot();
            a.put_batch(ctx, refs.iter().copied());
            let snap = ctx.stats.snapshot();
            let batch_msgs = snap.total_msgs() - before.total_msgs();
            assert_eq!(batch_msgs, 1);
            // Payload bytes are unchanged by packing, and the fold is
            // recorded: 10 scalar-equivalent spans in 1 batched message.
            assert_eq!(
                snap.local_bytes - before.local_bytes,
                (20 * std::mem::size_of::<u32>()) as u64
            );
            assert_eq!(snap.batched_rpcs - before.batched_rpcs, 1);
            assert_eq!(snap.batched_scalar_equiv - before.batched_scalar_equiv, 10);
        });
    }

    #[test]
    fn put_batch_packs_gapped_spans_into_one_message() {
        let rt = Runtime::for_testing();
        rt.run(1, |ctx| {
            let a = GlobalArray::<u32>::create(ctx, 100);
            // Scattered, gapped spans — still one destination, so the
            // aggregated exchange ships them in a single message.
            let payloads: Vec<(usize, Vec<u32>)> = vec![
                (0, vec![1, 2]),
                (2, vec![3]),
                (50, vec![4]),
                (51, vec![5, 6]),
            ];
            let refs: Vec<(usize, &[u32])> =
                payloads.iter().map(|(s, d)| (*s, d.as_slice())).collect();
            let before = ctx.stats.snapshot();
            a.put_batch(ctx, refs.iter().copied());
            let msgs = ctx.stats.snapshot().total_msgs() - before.total_msgs();
            assert_eq!(msgs, 1);
            assert_eq!(a.get(ctx, 0..3), vec![1, 2, 3]);
            assert_eq!(a.get(ctx, 50..53), vec![4, 5, 6]);
        });
    }

    #[test]
    fn put_batch_charges_per_destination_rank() {
        let rt = Runtime::for_testing();
        rt.run(4, |ctx| {
            // 40 elements over 4 ranks: blocks of 10.
            let a = GlobalArray::<u32>::create(ctx, 40);
            if ctx.rank() == 0 {
                // Spans on ranks 0 and 2 only, plus one straddling 1|2.
                let payloads: Vec<(usize, Vec<u32>)> = vec![
                    (0, vec![1]),
                    (5, vec![2, 3]),
                    (25, vec![4]),
                    (18, vec![5, 6, 7, 8]), // 18..22 straddles ranks 1 and 2
                ];
                let refs: Vec<(usize, &[u32])> =
                    payloads.iter().map(|(s, d)| (*s, d.as_slice())).collect();
                let before = ctx.stats.snapshot();
                a.put_batch(ctx, refs.iter().copied());
                let snap = ctx.stats.snapshot();
                // Destinations touched: 0, 1, 2 → exactly 3 messages.
                assert_eq!(snap.total_msgs() - before.total_msgs(), 3);
                // 5 span segments folded (the straddler splits in two).
                assert_eq!(snap.batched_scalar_equiv - before.batched_scalar_equiv, 5);
            }
            ctx.barrier();
            assert_eq!(a.get(ctx, 18..22), vec![5, 6, 7, 8]);
            assert_eq!(a.get(ctx, 25..26), vec![4]);
        });
    }

    #[test]
    fn acc_batch_matches_individual_accs() {
        let rt = Runtime::for_testing();
        let res = rt.run(4, |ctx| {
            let a = GlobalArray::<u64>::create(ctx, 20);
            // Every rank accumulates adjacent slices covering 0..20.
            let payloads: Vec<(usize, Vec<u64>)> = (0..5).map(|i| (i * 4, vec![1u64; 4])).collect();
            let refs: Vec<(usize, &[u64])> =
                payloads.iter().map(|(s, d)| (*s, d.as_slice())).collect();
            let before = ctx.stats.snapshot();
            a.acc_batch(ctx, refs.iter().copied());
            let msgs = ctx.stats.snapshot().total_msgs() - before.total_msgs();
            ctx.barrier();
            (a.get(ctx, 0..20), msgs)
        });
        for (v, msgs) in res.results {
            assert_eq!(v, vec![4u64; 20]);
            // 0..20 touches all 4 blocks: one message per destination.
            assert_eq!(msgs, 4);
        }
    }

    #[test]
    fn fetch_add_batch_matches_scalar_sequence_single_rank() {
        let rt = Runtime::for_testing();
        rt.run(3, |ctx| {
            let scalar = GlobalArray::<i64>::create(ctx, 17);
            let batch = GlobalArray::<i64>::create(ctx, 17);
            if ctx.rank() == 1 {
                // Repeated indices, mixed deltas, out of order.
                let ops: Vec<(usize, i64)> =
                    vec![(3, 2), (0, 1), (3, 5), (16, 7), (0, 4), (9, 1), (3, 1)];
                let want: Vec<i64> = ops
                    .iter()
                    .map(|&(i, d)| scalar.read_inc(ctx, i, d))
                    .collect();
                let got = batch.fetch_add_batch(ctx, &ops);
                assert_eq!(got, want);
            }
            ctx.barrier();
            assert_eq!(
                scalar.get(ctx, 0..17),
                batch.get(ctx, 0..17),
                "final cursor state must agree"
            );
        });
    }

    #[test]
    fn fetch_add_batch_charges_one_message_per_destination() {
        let rt = Runtime::for_testing();
        rt.run(4, |ctx| {
            let a = GlobalArray::<i64>::create(ctx, 40);
            if ctx.rank() == 0 {
                // 12 ops spread over 3 of the 4 blocks.
                let ops: Vec<(usize, i64)> = (0..12).map(|i| ((i * 7) % 30, 1)).collect();
                let before = ctx.stats.snapshot();
                a.fetch_add_batch(ctx, &ops);
                let snap = ctx.stats.snapshot();
                assert_eq!(snap.total_msgs() - before.total_msgs(), 3);
                assert_eq!(snap.batched_scalar_equiv - before.batched_scalar_equiv, 12);
                assert_eq!(snap.remote_atomics, before.remote_atomics);
            }
            ctx.barrier();
        });
    }

    #[test]
    fn fetch_add_batch_reserves_disjoint_windows_concurrently() {
        let rt = Runtime::for_testing();
        let res = rt.run(6, |ctx| {
            let a = GlobalArray::<i64>::create(ctx, 5);
            // Every rank reserves 30 windows of width 1..=4 across 5
            // cursors, in two batches.
            let mut seed = 0x9e3779b97f4a7c15u64 ^ (ctx.rank() as u64);
            let mut next = move || {
                seed ^= seed << 13;
                seed ^= seed >> 7;
                seed ^= seed << 17;
                seed
            };
            let ops: Vec<(usize, i64)> = (0..30)
                .map(|_| ((next() % 5) as usize, (next() % 4) as i64 + 1))
                .collect();
            let old_a = a.fetch_add_batch(ctx, &ops[..13]);
            let old_b = a.fetch_add_batch(ctx, &ops[13..]);
            let windows: Vec<(usize, i64, i64)> = ops
                .iter()
                .zip(old_a.iter().chain(&old_b))
                .map(|(&(i, d), &old)| (i, old, old + d))
                .collect();
            ctx.barrier();
            (windows, a.get(ctx, 0..5))
        });
        // Per cursor: all reserved windows are disjoint and exactly tile
        // [0, final), under whatever interleaving the run produced.
        let final_vals = res.results[0].1.clone();
        for (cursor, &final_val) in final_vals.iter().enumerate() {
            let mut windows: Vec<(i64, i64)> = res
                .results
                .iter()
                .flat_map(|(w, _)| w.iter().filter(|t| t.0 == cursor).map(|t| (t.1, t.2)))
                .collect();
            windows.sort_unstable();
            let mut at = 0i64;
            for (lo, hi) in windows {
                assert_eq!(lo, at, "cursor {cursor}: window gap or overlap");
                at = hi;
            }
            assert_eq!(at, final_val, "cursor {cursor}: final value");
        }
    }

    #[test]
    fn empty_batches_are_free() {
        let rt = Runtime::for_testing();
        rt.run(2, |ctx| {
            let a = GlobalArray::<i64>::create(ctx, 10);
            let before = ctx.stats.snapshot();
            assert!(a.fetch_add_batch(ctx, &[]).is_empty());
            a.put_batch(ctx, []);
            a.acc_batch(ctx, []);
            assert_eq!(ctx.stats.snapshot(), before);
        });
    }

    #[test]
    fn empty_range_get_is_free_and_empty() {
        let rt = Runtime::for_testing();
        rt.run(2, |ctx| {
            let a = GlobalArray::<u32>::create(ctx, 10);
            assert!(a.get(ctx, 3..3).is_empty());
        });
    }

    #[test]
    fn len_smaller_than_nprocs() {
        let rt = Runtime::for_testing();
        rt.run(8, |ctx| {
            let a = GlobalArray::<u32>::create(ctx, 3);
            if ctx.rank() == 7 {
                a.put(ctx, 0, &[9, 8, 7]);
            }
            ctx.barrier();
            assert_eq!(a.get(ctx, 0..3), vec![9, 8, 7]);
        });
    }
}
