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

/// Reduction operators for [`Ctx::allreduce`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    Sum,
    Min,
    Max,
}

/// An element type [`Ctx::allreduce`] combines.
pub trait Reduce: Copy + Send + Sync + 'static {
    /// `self op other`.
    fn combine(self, other: Self, op: ReduceOp) -> Self;
}

impl Reduce for f64 {
    fn combine(self, other: f64, op: ReduceOp) -> f64 {
        match op {
            ReduceOp::Sum => self + other,
            ReduceOp::Min => self.min(other),
            ReduceOp::Max => self.max(other),
        }
    }
}

impl Reduce for u64 {
    fn combine(self, other: u64, op: ReduceOp) -> u64 {
        match op {
            ReduceOp::Sum => self.wrapping_add(other),
            ReduceOp::Min => self.min(other),
            ReduceOp::Max => self.max(other),
        }
    }
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
    /// The rendezvous every rank of the run shares.
    rendezvous: Arc<Rendezvous>,
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
        rendezvous: Arc<Rendezvous>,
        threads_per_rank: usize,
        trace: SpanRecorder,
    ) -> Self {
        Ctx {
            rank,
            nprocs,
            model,
            rendezvous,
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

    /// The one collective round under every public collective: count
    /// `bytes` of payload, deposit `value` at the rendezvous, and leave
    /// with `combine` of all deposits in rank order. Departure is the
    /// latest entry clock plus `cost`; the gap from this rank's entry —
    /// peer skew plus the modeled transfer — is its wait, attributed to
    /// the active pipeline stage, and the round is traced as a
    /// `collective` span called `name`. Only reads and sets the clock the
    /// rendezvous computed, so tracing cannot perturb virtual time.
    fn collective<T, R>(
        &self,
        name: &'static str,
        bytes: u64,
        cost: f64,
        value: T,
        combine: impl FnOnce(Vec<T>) -> R,
    ) -> Arc<R>
    where
        T: Send + 'static,
        R: Send + Sync + 'static,
    {
        self.stats.record_collective(bytes);
        let entry = self.now();
        let depart = move |vals: Vec<T>, latest: f64| (combine(vals), latest + cost);
        let (res, departed) = self.rendezvous.round(self.rank, value, entry, depart);
        self.timers
            .accrue_wait(self.stats.stage(), departed - entry);
        self.clock.set(departed);
        self.trace_span("collective", name, entry);
        res
    }

    /// Synchronize all ranks; clocks advance to the latest participant plus
    /// the modeled barrier cost.
    pub fn barrier(&self) {
        let cost = self.model.barrier(self.nprocs);
        self.collective("barrier", 0, cost, (), |_| ());
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
        let res = self.collective("broadcast", bytes, cost, value, move |mut vals| {
            vals[root].take().expect("root deposited a value")
        });
        (*res).clone()
    }

    /// Element-wise allreduce. All ranks must pass vectors of identical
    /// length. Combining is done in rank order, so the floating-point
    /// result is deterministic.
    pub fn allreduce<T: Reduce>(&self, value: Vec<T>, op: ReduceOp) -> Vec<T> {
        let bytes = std::mem::size_of_val(value.as_slice()) as u64;
        let cost = self.model.allreduce(self.nprocs, bytes);
        // Combining arithmetic, charged unscaled: the transported payload
        // (already scaled) is what grows with the nominal workload.
        let flops = value.len() as u64 * (self.nprocs as u64 - 1);
        self.charge_fixed(WorkKind::Flops, flops);
        let res = self.collective("allreduce", bytes, cost, value, move |vals| {
            let mut it = vals.into_iter();
            let mut acc = it.next().expect("at least one rank");
            for v in it {
                assert_eq!(v.len(), acc.len(), "allreduce length mismatch");
                for (a, b) in acc.iter_mut().zip(v) {
                    *a = a.combine(b, op);
                }
            }
            acc
        });
        (*res).clone()
    }

    /// Allgather: every rank contributes `value`, every rank receives the
    /// per-rank values in rank order. Priced as a gather.
    pub fn allgather<T>(&self, value: T, bytes_per_rank: u64) -> Vec<T>
    where
        T: Clone + Send + Sync + 'static,
    {
        let cost = self.model.gather(self.nprocs, bytes_per_rank);
        (*self.collective("allgather", bytes_per_rank, cost, value, |vals| vals)).clone()
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
        let res = self.collective("gather", bytes_per_rank, cost, value, |vals| vals);
        (self.rank == root).then(|| (*res).clone())
    }

    /// Gather to `root` for payloads proportional to corpus size
    /// (per-document data such as projected coordinates).
    pub fn gather_data<T>(&self, root: usize, value: T, bytes_per_rank: u64) -> Option<Vec<T>>
    where
        T: Clone + Send + Sync + 'static,
    {
        assert!(root < self.nprocs, "gather root out of range");
        let cost = self.model.gather_data(self.nprocs, bytes_per_rank);
        let res = self.collective("gather_data", bytes_per_rank, cost, value, |vals| vals);
        (self.rank == root).then(|| (*res).clone())
    }

    /// Exclusive prefix sum over a `u64` contribution: rank `r` receives
    /// the sum of contributions of ranks `0..r`, plus the global total.
    pub fn exscan_u64(&self, value: u64) -> (u64, u64) {
        let all = self.allgather(value, 8);
        let before: u64 = all[..self.rank].iter().sum();
        let total: u64 = all.iter().sum();
        (before, total)
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
            let f = ctx.allreduce(vec![ctx.rank() as f64, 1.0], ReduceOp::Sum);
            // `u64` sums wrap.
            let u = ctx.allreduce(vec![u64::MAX, 1], ReduceOp::Sum);
            (f, u)
        });
        for (f, u) in res.results {
            assert_eq!(f, vec![6.0, 4.0]);
            assert_eq!(u, vec![u64::MAX - 3, 4]);
        }
    }

    #[test]
    fn allreduce_min_max() {
        let rt = Runtime::new(Arc::new(CostModel::zero()));
        let res = rt.run(5, |ctx| {
            let mn = ctx.allreduce(vec![ctx.rank() as u64 + 10], ReduceOp::Min)[0];
            let mx = ctx.allreduce(vec![ctx.rank() as u64 + 10], ReduceOp::Max)[0];
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

    /// Every public collective is one round of the one helper: it
    /// records one collective with its payload bytes, accrues its wait to
    /// the active stage, and traces one `collective` span under its name.
    #[test]
    fn every_collective_records_one_round_its_wait_and_its_span() {
        type Call = fn(&Ctx);
        let cases: [(&str, u64, Call); 8] = [
            ("barrier", 0, |c| c.barrier()),
            ("broadcast", 24, |c| {
                c.broadcast(1, (c.rank() == 1).then_some(7u8), 24);
            }),
            ("allreduce", 16, |c| {
                c.allreduce(vec![c.rank() as f64, 1.0], ReduceOp::Sum);
            }),
            ("allreduce", 24, |c| {
                c.allreduce(vec![c.rank() as u64; 3], ReduceOp::Max);
            }),
            ("allgather", 8, |c| {
                c.allgather(c.rank(), 8);
            }),
            ("gather", 4, |c| {
                c.gather(0, c.rank() as u32, 4);
            }),
            ("gather_data", 12, |c| {
                c.gather_data(2, c.rank(), 12);
            }),
            ("allgather", 8, |c| {
                c.exscan_u64(c.rank() as u64);
            }),
        ];
        let rt = Runtime::new(Arc::new(CostModel::pnnl_2007())).with_tracing(true);
        for (name, bytes, call) in cases {
            let res = rt.run(3, |ctx| {
                ctx.component(Component::Index, || {
                    // Unequal work first, so the early ranks wait for the
                    // last; everyone waits out the modeled cost.
                    ctx.charge(WorkKind::Flops, (ctx.rank() as u64 + 1) * 12_000_000);
                    let before = ctx.stats.snapshot();
                    call(ctx);
                    let after = ctx.stats.snapshot();
                    (
                        after.collectives - before.collectives,
                        after.collective_bytes - before.collective_bytes,
                        after.stage_msgs_for(Component::Index)
                            - before.stage_msgs_for(Component::Index),
                    )
                })
            });
            for rank in 0..3 {
                assert_eq!(res.results[rank], (1, bytes, 1), "{name} at rank {rank}");
                let t = &res.timers[rank];
                for c in Component::ALL {
                    let wait = t.get_wait(c);
                    assert_eq!(
                        wait > 0.0,
                        c == Component::Index,
                        "{name}: {c:?} wait {wait}"
                    );
                }
                let spans: Vec<_> = res.traces[rank]
                    .spans
                    .iter()
                    .filter(|s| s.cat == "collective")
                    .map(|s| s.name)
                    .collect();
                assert_eq!(spans, [name], "rank {rank}");
            }
            let waits: Vec<f64> = res
                .timers
                .iter()
                .map(|t| t.get_wait(Component::Index))
                .collect();
            assert!(waits[0] > waits[2], "{name}: {waits:?}");
        }
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
