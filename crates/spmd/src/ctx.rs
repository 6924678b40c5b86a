//! The per-rank execution context: virtual clock, work charging, and
//! MPI-style collectives.

use crate::pool::IntraPool;
use crate::rendezvous::Rendezvous;
use crate::stats::CommStats;
use crate::timer::{Component, Timers};
use inspire_trace::span::{RankTrace, SpanRecorder};
use perfmodel::{CostModel, WorkKind};
use std::cell::Cell;
use std::sync::Arc;
use std::time::Instant;

/// Reduction operators for the numeric allreduce helpers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    Sum,
    Min,
    Max,
}

/// Shared state owned by the runtime, visible to every rank.
pub struct SharedState {
    pub(crate) rendezvous: Rendezvous,
    #[allow(dead_code)]
    pub(crate) nprocs: usize,
}

/// One rank's view of the SPMD computation.
///
/// A `Ctx` is created per spawned thread by [`Runtime::run`]
/// (crate::Runtime::run) and is deliberately `!Send`: it owns the rank's
/// virtual clock and statistics, which must never migrate.
pub struct Ctx {
    rank: usize,
    nprocs: usize,
    model: Arc<CostModel>,
    shared: Arc<SharedState>,
    clock: Cell<f64>,
    /// Memory-pressure multiplier applied to compute charges (see
    /// [`Ctx::set_working_set`]).
    pressure: Cell<f64>,
    /// Communication counters.
    pub stats: CommStats,
    /// Component time attribution.
    pub timers: Timers,
    /// Span recorder (disabled unless the runtime enables tracing).
    trace: SpanRecorder,
    /// Intra-rank worker pool for pure per-chunk parallelism.
    pool: IntraPool,
}

impl Ctx {
    pub(crate) fn new(
        rank: usize,
        nprocs: usize,
        model: Arc<CostModel>,
        shared: Arc<SharedState>,
        threads_per_rank: usize,
        trace: SpanRecorder,
    ) -> Self {
        Ctx {
            rank,
            nprocs,
            model,
            shared,
            clock: Cell::new(0.0),
            pressure: Cell::new(1.0),
            stats: CommStats::new(),
            timers: Timers::new(),
            trace,
            pool: IntraPool::new(threads_per_rank),
        }
    }

    /// This rank's id in `0..nprocs`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the computation.
    pub fn nprocs(&self) -> usize {
        self.nprocs
    }

    /// The cost model in effect.
    pub fn model(&self) -> &CostModel {
        &self.model
    }

    /// This rank's intra-rank worker pool. Fan pure per-chunk work out
    /// with [`IntraPool::map_chunks`], merge the partials in chunk order
    /// on this thread, then charge the merged totals — the virtual clock
    /// and component timers never observe the pool width.
    pub fn pool(&self) -> &IntraPool {
        &self.pool
    }

    /// Current virtual time in seconds.
    pub fn now(&self) -> f64 {
        self.clock.get()
    }

    /// Advance the virtual clock by raw `seconds` (no pressure applied).
    pub fn advance(&self, seconds: f64) {
        debug_assert!(seconds >= 0.0, "time cannot run backwards");
        self.clock.set(self.clock.get() + seconds);
    }

    /// Declare this rank's working set (bytes at nominal scale). Subsequent
    /// compute charges are multiplied by the model's thrash factor —
    /// this is how the Figure 5 memory-pressure anomaly enters the clock.
    pub fn set_working_set(&self, nominal_bytes: u64) {
        let mem = self.model.cluster.memory_per_active_proc(self.nprocs);
        let f = self.model.memory.thrash_factor(nominal_bytes, mem);
        self.pressure.set(f);
    }

    /// Current memory-pressure multiplier.
    pub fn pressure(&self) -> f64 {
        self.pressure.get()
    }

    /// Charge `units` of compute work of `kind` to the local clock.
    pub fn charge(&self, kind: WorkKind, units: u64) {
        self.advance(self.model.compute(kind, units) * self.pressure.get());
    }

    /// Charge compute work whose population scales with the *vocabulary*
    /// (per-term passes: topicality scoring shards, vocabulary sorting,
    /// offset prefix sums) rather than with corpus bytes.
    pub fn charge_vocab(&self, kind: WorkKind, units: u64) {
        let base = self.model.rates.seconds(kind, units);
        self.advance(base * self.model.scale.vocab_scale() * self.pressure.get());
    }

    /// Charge compute work that is independent of corpus size (fixed-
    /// dimensional numeric kernels: PCA on centroids, per-centroid
    /// updates — their size is set by the engine configuration, which the
    /// nominal run shares).
    pub fn charge_fixed(&self, kind: WorkKind, units: u64) {
        let base = self.model.rates.seconds(kind, units);
        self.advance(base * self.pressure.get());
    }

    /// Charge source-data I/O for scanning `bytes` while `nprocs` ranks
    /// compete for the shared filesystem.
    pub fn charge_scan_io(&self, bytes: u64) {
        self.advance(self.model.scan_io(bytes, self.nprocs));
    }

    /// Charge a one-sided access of `bytes` against `target` rank: network
    /// cost when remote, memory cost when local. Used by the `ga` crate.
    pub fn charge_one_sided(&self, bytes: u64, target: usize) {
        if target == self.rank {
            self.stats.record_local(bytes);
            self.advance(self.model.local_access(bytes));
        } else {
            self.stats.record_one_sided(bytes);
            self.advance(self.model.one_sided(bytes));
        }
    }

    /// Charge one **aggregated** one-sided message to `target`: `bytes`
    /// of payload that replaces `scalar_ops` individual one-sided
    /// operations (ARMCI-style destination aggregation). Costs a single
    /// pipelined message; the counters record both the one message
    /// actually sent and the scalar-equivalent count it folded, so
    /// batching factors are observable per stage.
    pub fn charge_one_sided_batch(&self, bytes: u64, target: usize, scalar_ops: u64) {
        if target == self.rank {
            self.stats.record_local_batch(bytes, scalar_ops);
            self.advance(self.model.local_access(bytes));
        } else {
            self.stats.record_one_sided_batch(bytes, scalar_ops);
            self.advance(self.model.one_sided(bytes));
        }
    }

    /// Charge a one-sided RPC whose population scales with the vocabulary
    /// (distributed-hashmap term registration) rather than the corpus.
    pub fn charge_one_sided_vocab(&self, bytes: u64, target: usize) {
        if target == self.rank {
            self.stats.record_local(bytes);
            self.advance(self.model.local_access(bytes));
        } else {
            self.stats.record_one_sided(bytes);
            self.advance(self.model.one_sided_vocab(bytes));
        }
    }

    /// Charge a remote atomic read-modify-write against `target`.
    pub fn charge_remote_atomic(&self, target: usize) {
        if target != self.rank {
            self.stats.record_remote_atomic();
            self.advance(self.model.remote_atomic());
        } else {
            self.stats.record_local(8);
            self.advance(self.model.local_access(8));
        }
    }

    /// Is span tracing enabled for this run?
    pub fn tracing(&self) -> bool {
        self.trace.enabled()
    }

    /// Record the span from virtual time `start` to now — zero-length
    /// when `start` is now. A no-op unless the runtime enabled tracing;
    /// never touches the clock.
    #[inline]
    pub fn trace_span(&self, cat: &'static str, name: &'static str, start: f64) {
        self.trace.record(cat, name, start, self.now());
    }

    /// Drain this rank's recorded spans (used by the runtime at the end
    /// of a run).
    pub(crate) fn take_trace(&self) -> RankTrace {
        self.trace.take(self.rank)
    }

    /// Run `f` attributing its virtual-time delta to `component` and its
    /// charged communication to the component's per-stage counters. The
    /// stage's host wall time is measured as well (observational only),
    /// and when tracing is on the stage is recorded as a span.
    pub fn component<R>(&self, component: Component, f: impl FnOnce() -> R) -> R {
        let start = self.now();
        let wall_start = Instant::now();
        let prev = self.stats.set_stage(component);
        let out = f();
        self.trace_span("stage", component.label(), start);
        self.stats.set_stage(prev);
        self.timers.accrue(component, self.now() - start);
        self.timers
            .accrue_wall(component, wall_start.elapsed().as_secs_f64());
        out
    }

    // ---------------------------------------------------------------
    // Collectives. MPI semantics: every rank calls each collective, in
    // the same order, with compatible types.
    // ---------------------------------------------------------------

    /// Bookkeeping at collective entry: count the payload and return the
    /// entry clock for wait attribution and the trace span.
    #[inline]
    fn enter_collective(&self, bytes: u64) -> f64 {
        self.stats.record_collective(bytes);
        self.now()
    }

    /// Bookkeeping at collective exit: the gap between entering the
    /// rendezvous and departing it — peer skew plus the modeled transfer
    /// cost — is this rank's wait, attributed to the active pipeline
    /// stage. Only reads and sets the clock the rendezvous already
    /// computed, so tracing cannot perturb virtual time.
    #[inline]
    fn leave_collective(&self, name: &'static str, entry: f64, departed: f64) {
        self.timers
            .accrue_wait(self.stats.stage(), departed - entry);
        self.clock.set(departed);
        self.trace_span("collective", name, entry);
    }

    /// Synchronize all ranks; clocks advance to the latest participant plus
    /// the modeled barrier cost.
    pub fn barrier(&self) {
        let p = self.nprocs;
        let cost = self.model.barrier(p);
        let entry = self.enter_collective(0);
        let (_r, clock) =
            self.shared
                .rendezvous
                .round(self.rank, (), entry, move |_vals: Vec<()>, mx| {
                    ((), mx + cost)
                });
        self.leave_collective("barrier", entry, clock);
    }

    /// Broadcast from `root`. The root passes `Some(value)`, everyone else
    /// `None`. `bytes` is the payload size used for cost accounting.
    pub fn broadcast<T>(&self, root: usize, value: Option<T>, bytes: u64) -> T
    where
        T: Clone + Send + Sync + 'static,
    {
        assert!(root < self.nprocs, "broadcast root out of range");
        assert_eq!(
            value.is_some(),
            self.rank == root,
            "exactly the root must supply the broadcast value"
        );
        let cost = self.model.broadcast(self.nprocs, bytes);
        let entry = self.enter_collective(bytes);
        let (res, clock) = self.shared.rendezvous.round(
            self.rank,
            value,
            entry,
            move |mut vals: Vec<Option<T>>, mx| {
                let v = vals[root].take().expect("root deposited a value");
                (v, mx + cost)
            },
        );
        self.leave_collective("broadcast", entry, clock);
        (*res).clone()
    }

    /// Element-wise allreduce over `f64` vectors. All ranks must pass
    /// vectors of identical length. Combining is done in rank order, so the
    /// floating-point result is deterministic.
    pub fn allreduce_f64(&self, value: Vec<f64>, op: ReduceOp) -> Vec<f64> {
        let bytes = (value.len() * 8) as u64;
        let cost = self.model.allreduce(self.nprocs, bytes);
        // Combining arithmetic, charged unscaled: the transported payload
        // (already scaled) is what grows with the nominal workload.
        let flops = value.len() as u64 * (self.nprocs.max(1) as u64 - 1);
        self.charge_fixed(WorkKind::Flops, flops);
        let entry = self.enter_collective(bytes);
        let (res, clock) = self.shared.rendezvous.round(
            self.rank,
            value,
            entry,
            move |vals: Vec<Vec<f64>>, mx| {
                let mut it = vals.into_iter();
                let mut acc = it.next().expect("at least one rank");
                for v in it {
                    assert_eq!(v.len(), acc.len(), "allreduce length mismatch");
                    for (a, b) in acc.iter_mut().zip(v) {
                        *a = match op {
                            ReduceOp::Sum => *a + b,
                            ReduceOp::Min => a.min(b),
                            ReduceOp::Max => a.max(b),
                        };
                    }
                }
                (acc, mx + cost)
            },
        );
        self.leave_collective("allreduce", entry, clock);
        (*res).clone()
    }

    /// Element-wise allreduce over `u64` vectors.
    pub fn allreduce_u64(&self, value: Vec<u64>, op: ReduceOp) -> Vec<u64> {
        let bytes = (value.len() * 8) as u64;
        let cost = self.model.allreduce(self.nprocs, bytes);
        let flops = value.len() as u64 * (self.nprocs.max(1) as u64 - 1);
        self.charge_fixed(WorkKind::Flops, flops);
        let entry = self.enter_collective(bytes);
        let (res, clock) = self.shared.rendezvous.round(
            self.rank,
            value,
            entry,
            move |vals: Vec<Vec<u64>>, mx| {
                let mut it = vals.into_iter();
                let mut acc = it.next().expect("at least one rank");
                for v in it {
                    assert_eq!(v.len(), acc.len(), "allreduce length mismatch");
                    for (a, b) in acc.iter_mut().zip(v) {
                        *a = match op {
                            ReduceOp::Sum => a.wrapping_add(b),
                            ReduceOp::Min => (*a).min(b),
                            ReduceOp::Max => (*a).max(b),
                        };
                    }
                }
                (acc, mx + cost)
            },
        );
        self.leave_collective("allreduce", entry, clock);
        (*res).clone()
    }

    /// Scalar allreduce conveniences.
    pub fn allreduce_scalar_f64(&self, value: f64, op: ReduceOp) -> f64 {
        self.allreduce_f64(vec![value], op)[0]
    }

    pub fn allreduce_scalar_u64(&self, value: u64, op: ReduceOp) -> u64 {
        self.allreduce_u64(vec![value], op)[0]
    }

    /// Allgather: every rank contributes `value`, every rank receives the
    /// per-rank values in rank order.
    pub fn allgather<T>(&self, value: T, bytes_per_rank: u64) -> Vec<T>
    where
        T: Clone + Send + Sync + 'static,
    {
        let cost = self.model.allgather(self.nprocs, bytes_per_rank);
        let entry = self.enter_collective(bytes_per_rank);
        let (res, clock) =
            self.shared
                .rendezvous
                .round(self.rank, value, entry, move |vals: Vec<T>, mx| {
                    (vals, mx + cost)
                });
        self.leave_collective("allgather", entry, clock);
        (*res).clone()
    }

    /// Gather to `root`: returns `Some(values in rank order)` at the root,
    /// `None` elsewhere. (All ranks pay the synchronization; only the root
    /// receives data — matching MPI_Gather.)
    pub fn gather<T>(&self, root: usize, value: T, bytes_per_rank: u64) -> Option<Vec<T>>
    where
        T: Clone + Send + Sync + 'static,
    {
        assert!(root < self.nprocs, "gather root out of range");
        let cost = self.model.gather(self.nprocs, bytes_per_rank);
        let entry = self.enter_collective(bytes_per_rank);
        let (res, clock) =
            self.shared
                .rendezvous
                .round(self.rank, value, entry, move |vals: Vec<T>, mx| {
                    (vals, mx + cost)
                });
        self.leave_collective("gather", entry, clock);
        if self.rank == root {
            Some((*res).clone())
        } else {
            None
        }
    }

    /// Gather to `root` for payloads proportional to corpus size
    /// (per-document data such as projected coordinates).
    pub fn gather_data<T>(&self, root: usize, value: T, bytes_per_rank: u64) -> Option<Vec<T>>
    where
        T: Clone + Send + Sync + 'static,
    {
        assert!(root < self.nprocs, "gather root out of range");
        let cost = self.model.gather_data(self.nprocs, bytes_per_rank);
        let entry = self.enter_collective(bytes_per_rank);
        let (res, clock) =
            self.shared
                .rendezvous
                .round(self.rank, value, entry, move |vals: Vec<T>, mx| {
                    (vals, mx + cost)
                });
        self.leave_collective("gather_data", entry, clock);
        if self.rank == root {
            Some((*res).clone())
        } else {
            None
        }
    }

    /// Exclusive prefix sum over a `u64` contribution: rank `r` receives
    /// the sum of contributions of ranks `0..r`, plus the global total.
    pub fn exscan_u64(&self, value: u64) -> (u64, u64) {
        let all = self.allgather(value, 8);
        let before: u64 = all[..self.rank].iter().sum();
        let total: u64 = all.iter().sum();
        (before, total)
    }

    /// Inclusive prefix sum: rank `r` receives the sum over ranks `0..=r`.
    pub fn scan_u64(&self, value: u64) -> u64 {
        let (before, _) = self.exscan_u64(value);
        before + value
    }

    /// All-to-all personalized exchange: `send[j]` goes to rank `j`;
    /// returns what every rank sent to this one (indexed by source rank).
    /// All ranks must pass vectors of length `nprocs`.
    pub fn alltoall<T>(&self, send: Vec<T>, bytes_per_pair: u64) -> Vec<T>
    where
        T: Clone + Send + Sync + 'static,
    {
        assert_eq!(send.len(), self.nprocs, "alltoall needs one item per rank");
        let cost = self.model.alltoall(self.nprocs, bytes_per_pair);
        let entry = self.enter_collective(bytes_per_pair * self.nprocs as u64);
        let me = self.rank;
        let (res, clock) =
            self.shared
                .rendezvous
                .round(self.rank, send, entry, move |mats: Vec<Vec<T>>, mx| {
                    (mats, mx + cost)
                });
        self.leave_collective("alltoall", entry, clock);
        // Transpose: my inbox is column `me`.
        res.iter().map(|row| row[me].clone()).collect()
    }

    /// Reduce-scatter over `f64` vectors: the element-wise sum of all
    /// ranks' vectors is computed and rank `r` receives the `r`-th
    /// equal-length block. All ranks must pass vectors of identical
    /// length divisible by `nprocs`.
    pub fn reduce_scatter_f64(&self, value: Vec<f64>) -> Vec<f64> {
        assert_eq!(
            value.len() % self.nprocs,
            0,
            "reduce_scatter length must divide evenly"
        );
        let total_bytes = (value.len() * 8) as u64;
        let cost = self.model.reduce_scatter(self.nprocs, total_bytes);
        let flops = value.len() as u64 * (self.nprocs.max(1) as u64 - 1);
        self.charge_fixed(WorkKind::Flops, flops);
        let entry = self.enter_collective(total_bytes);
        let p = self.nprocs;
        let me = self.rank;
        let (res, clock) = self.shared.rendezvous.round(
            self.rank,
            value,
            entry,
            move |vals: Vec<Vec<f64>>, mx| {
                let mut it = vals.into_iter();
                let mut acc = it.next().expect("at least one rank");
                for v in it {
                    for (a, b) in acc.iter_mut().zip(v) {
                        *a += b;
                    }
                }
                // Pre-split into per-rank blocks so each rank clones only
                // its own share.
                let chunk = acc.len() / p;
                let blocks: Vec<Vec<f64>> = acc.chunks(chunk.max(1)).map(|c| c.to_vec()).collect();
                (blocks, mx + cost)
            },
        );
        self.leave_collective("reduce_scatter", entry, clock);
        res[me].clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::Runtime;

    #[test]
    fn charge_advances_clock() {
        let rt = Runtime::new(Arc::new(CostModel::pnnl_2007()));
        let res = rt.run(1, |ctx| {
            let before = ctx.now();
            ctx.charge(WorkKind::ScanBytes, 1_500_000);
            ctx.now() - before
        });
        assert!((res.results[0] - 1.0).abs() < 1e-9); // 1.5e6 bytes at 1.5e6 B/s
    }

    #[test]
    fn pressure_multiplies_charges() {
        let rt = Runtime::new(Arc::new(CostModel::pnnl_2007()));
        let res = rt.run(1, |ctx| {
            ctx.set_working_set(64 << 30); // far beyond 4 GB/proc
            let before = ctx.now();
            ctx.charge(WorkKind::Flops, 1_200_000);
            ctx.now() - before
        });
        let unpressured = 1_200_000.0 / 1.2e8;
        assert!(res.results[0] > 5.0 * unpressured);
    }

    #[test]
    fn allreduce_sums_across_ranks() {
        let rt = Runtime::new(Arc::new(CostModel::zero()));
        let res = rt.run(4, |ctx| {
            ctx.allreduce_f64(vec![ctx.rank() as f64, 1.0], ReduceOp::Sum)
        });
        for v in res.results {
            assert_eq!(v, vec![6.0, 4.0]);
        }
    }

    #[test]
    fn allreduce_min_max() {
        let rt = Runtime::new(Arc::new(CostModel::zero()));
        let res = rt.run(5, |ctx| {
            let mn = ctx.allreduce_scalar_u64(ctx.rank() as u64 + 10, ReduceOp::Min);
            let mx = ctx.allreduce_scalar_u64(ctx.rank() as u64 + 10, ReduceOp::Max);
            (mn, mx)
        });
        for (mn, mx) in res.results {
            assert_eq!((mn, mx), (10, 14));
        }
    }

    #[test]
    fn broadcast_from_nonzero_root() {
        let rt = Runtime::new(Arc::new(CostModel::zero()));
        let res = rt.run(4, |ctx| {
            let v = if ctx.rank() == 2 {
                Some("hello".to_string())
            } else {
                None
            };
            ctx.broadcast(2, v, 5)
        });
        for v in res.results {
            assert_eq!(v, "hello");
        }
    }

    #[test]
    fn allgather_in_rank_order() {
        let rt = Runtime::new(Arc::new(CostModel::zero()));
        let res = rt.run(6, |ctx| ctx.allgather(ctx.rank() * 2, 8));
        for v in res.results {
            assert_eq!(v, vec![0, 2, 4, 6, 8, 10]);
        }
    }

    #[test]
    fn gather_only_at_root() {
        let rt = Runtime::new(Arc::new(CostModel::zero()));
        let res = rt.run(3, |ctx| ctx.gather(1, ctx.rank() as u32, 4));
        assert_eq!(res.results[0], None);
        assert_eq!(res.results[1], Some(vec![0, 1, 2]));
        assert_eq!(res.results[2], None);
    }

    #[test]
    fn exscan_prefix_sums() {
        let rt = Runtime::new(Arc::new(CostModel::zero()));
        let res = rt.run(4, |ctx| ctx.exscan_u64((ctx.rank() as u64 + 1) * 10));
        // contributions: 10, 20, 30, 40 → prefixes 0, 10, 30, 60; total 100
        assert_eq!(res.results, vec![(0, 100), (10, 100), (30, 100), (60, 100)]);
    }

    #[test]
    fn alltoall_transposes() {
        let rt = Runtime::for_testing();
        let res = rt.run(4, |ctx| {
            // send[j] = rank * 10 + j
            let send: Vec<usize> = (0..4).map(|j| ctx.rank() * 10 + j).collect();
            ctx.alltoall(send, 8)
        });
        for (rank, inbox) in res.results.iter().enumerate() {
            let expect: Vec<usize> = (0..4).map(|src| src * 10 + rank).collect();
            assert_eq!(inbox, &expect);
        }
    }

    #[test]
    fn reduce_scatter_gives_each_rank_its_block() {
        let rt = Runtime::for_testing();
        let res = rt.run(4, |ctx| {
            // Each rank contributes [r, r, ..., r] of length 8.
            let v = vec![ctx.rank() as f64; 8];
            ctx.reduce_scatter_f64(v)
        });
        // Sum over ranks = 0+1+2+3 = 6 in every element; block size 2.
        for block in res.results {
            assert_eq!(block, vec![6.0, 6.0]);
        }
    }

    #[test]
    fn inclusive_scan_matches_prefix() {
        let rt = Runtime::for_testing();
        let res = rt.run(5, |ctx| ctx.scan_u64(ctx.rank() as u64 + 1));
        assert_eq!(res.results, vec![1, 3, 6, 10, 15]);
    }

    #[test]
    fn barrier_syncs_clocks() {
        let rt = Runtime::new(Arc::new(CostModel::pnnl_2007()));
        let res = rt.run(4, |ctx| {
            // Unequal work before the barrier.
            ctx.charge(WorkKind::Flops, (ctx.rank() as u64 + 1) * 12_000_000);
            ctx.barrier();
            ctx.now()
        });
        let clocks = res.results;
        for w in &clocks {
            assert!(
                (w - clocks[0]).abs() < 1e-12,
                "clocks must agree after barrier"
            );
        }
        // And the agreed clock reflects the slowest rank (4 * 12e6 flops at 1.2e8/s = 0.4 s).
        assert!(clocks[0] >= 0.4);
    }

    #[test]
    fn component_timer_attribution() {
        let rt = Runtime::new(Arc::new(CostModel::pnnl_2007()));
        let res = rt.run(2, |ctx| {
            ctx.component(Component::Scan, || {
                ctx.charge(WorkKind::ScanBytes, 3_000_000);
            });
            ctx.component(Component::DocVec, || {
                ctx.charge(WorkKind::Flops, 12_000_000);
            });
            ctx.timers.snapshot()
        });
        for snap in res.results {
            assert!((snap.get(Component::Scan) - 2.0).abs() < 1e-9);
            assert!((snap.get(Component::DocVec) - 0.1).abs() < 1e-9);
            assert_eq!(snap.get(Component::Index), 0.0);
        }
    }
}
