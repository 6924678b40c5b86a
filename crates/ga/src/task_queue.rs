//! The shared, owner-prioritized task queue behind dynamic load balancing.
//!
//! §3.3 of the paper: *"a shared task queue, which is stored in a global
//! array, represents the collection of loads to be processed by all
//! processes. The task queue is prioritized in such a way that each process
//! completes its inversion loads first, and then works on loads owned by
//! other processes. When a process finishes computing its loads, it gets
//! the next available load from the task queue, and atomically increments
//! the task queue to point to the next available load."*
//!
//! The queue holds one *head cursor per owner*. [`TaskQueue::pop`] first
//! advances the caller's own cursor (a local atomic), then — once its own
//! loads are done — steals from other owners' cursors in round-robin order
//! starting after itself, paying a remote-atomic round trip per attempt,
//! exactly the fetch-and-increment pattern the paper implements with GA
//! atomics.
//!
//! Claims are serialised in (virtual clock, rank) order by a
//! [`VirtualGate`], but *processing* overlaps: a rank that has claimed a
//! task calls [`TaskQueue::promise`] with a lower bound on its next claim
//! clock — its clock now plus a charge it is certain to make before it
//! pops again — and peers below that bound claim without waiting for it
//! to finish. Every charge is non-negative, so such a bound can only be
//! early, never late; [`TaskQueue::pop`] asserts it in debug builds.

use spmd::{Ctx, VirtualGate};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Identity of one claimed task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TaskId {
    /// Rank that owns the task's data.
    pub owner: usize,
    /// Index of the task within its owner's load list.
    pub index: usize,
}

struct Inner {
    heads: Vec<AtomicUsize>,
    counts: Vec<usize>,
    /// Exclusive prefix sums of `counts`, for global task numbering.
    offsets: Vec<usize>,
}

/// A shared task queue with per-owner subqueues.
///
/// Claims are ordered by **virtual time** through a [`VirtualGate`]: the
/// rank whose virtual clock is lowest claims next, which is what
/// fixed-size chunking produces on the modeled cluster (see the gate's
/// module documentation for why real-time claiming would be wrong here).
pub struct TaskQueue {
    inner: Arc<Inner>,
    gate: Arc<VirtualGate>,
}

impl Clone for TaskQueue {
    fn clone(&self) -> Self {
        TaskQueue {
            inner: self.inner.clone(),
            gate: self.gate.clone(),
        }
    }
}

impl TaskQueue {
    /// Collective creation. `my_count` is the number of loads this rank
    /// owns; the per-owner counts are allgathered so every rank sees the
    /// same queue.
    pub fn create(ctx: &Ctx, my_count: usize) -> Self {
        let gate = VirtualGate::create(ctx);
        let counts: Vec<usize> = ctx.allgather(my_count, 8);
        let handle = if ctx.rank() == 0 {
            let mut offsets = Vec::with_capacity(counts.len() + 1);
            let mut at = 0;
            for &c in &counts {
                offsets.push(at);
                at += c;
            }
            offsets.push(at);
            Some(TaskQueue {
                inner: Arc::new(Inner {
                    heads: counts.iter().map(|_| AtomicUsize::new(0)).collect(),
                    counts,
                    offsets,
                }),
                gate: gate.clone(),
            })
        } else {
            None
        };
        ctx.broadcast(0, handle, 16)
    }

    /// Total number of tasks.
    pub fn total(&self) -> usize {
        *self.inner.offsets.last().unwrap_or(&0)
    }

    /// Global (dense) number of a task, usable to index task-descriptor
    /// arrays.
    pub fn global_index(&self, id: TaskId) -> usize {
        self.inner.offsets[id.owner] + id.index
    }

    /// Claim the next task: own loads first, then round-robin stealing.
    /// Returns `None` when every subqueue is exhausted (after which the
    /// rank stops participating in the claim ordering).
    pub fn pop(&self, ctx: &Ctx) -> Option<TaskId> {
        let paced = ctx.now();
        self.gate.pace(ctx);
        ctx.trace_span("queue", "task.pace", paced);
        let t = self.claim(ctx);
        match t {
            None => self.gate.leave(ctx),
            // A claim whose data lives on another rank is a steal — the
            // event the paper's dynamic balancing exists to produce.
            Some(task) if task.owner != ctx.rank() => {
                ctx.trace_span("queue", "task.steal", ctx.now()); // zero-length
            }
            Some(_) => {}
        }
        t
    }

    /// Promise that this rank's next [`pop`](TaskQueue::pop) happens at
    /// virtual clock `t` or later, so peers with earlier clocks need not
    /// wait for the task in hand to finish (see the module docs).
    pub fn promise(&self, ctx: &Ctx, t: f64) {
        self.gate.publish_bound(ctx, t);
    }

    fn claim(&self, ctx: &Ctx) -> Option<TaskId> {
        let p = self.inner.counts.len();
        let me = ctx.rank();
        // Own subqueue: a local atomic fetch-and-increment.
        if self.inner.counts[me] > 0 {
            let idx = self.inner.heads[me].fetch_add(1, Ordering::Relaxed);
            ctx.charge_remote_atomic(me);
            if idx < self.inner.counts[me] {
                return Some(TaskId {
                    owner: me,
                    index: idx,
                });
            }
        }
        // Steal, starting just past ourselves so the load spreads.
        for step in 1..p {
            let owner = (me + step) % p;
            if self.inner.counts[owner] == 0 {
                continue;
            }
            // Cheap remote read first (the paper's GA implementation also
            // reads the cursor before attempting the increment).
            if self.inner.heads[owner].load(Ordering::Relaxed) >= self.inner.counts[owner] {
                continue;
            }
            ctx.charge_remote_atomic(owner);
            let idx = self.inner.heads[owner].fetch_add(1, Ordering::Relaxed);
            if idx < self.inner.counts[owner] {
                return Some(TaskId { owner, index: idx });
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use spmd::Runtime;
    use std::collections::HashSet;
    use std::sync::Mutex;
    use std::time::{Duration, Instant};

    /// Drain a queue where rank `r` owns `counts[r]` tasks and task `g`
    /// costs `costs[g % costs.len()]` virtual seconds, each rank promising
    /// `fraction` of the cost of the task in hand. Returns the claim log
    /// in claim order: (task, claiming rank, clock bits after the claim).
    fn claim_log(counts: &[usize], costs: &[f64], fraction: f64) -> Vec<(usize, usize, u64)> {
        let rt = Runtime::new(Arc::new(perfmodel::CostModel::pnnl_2007()));
        let log = Mutex::new(Vec::new());
        rt.run(counts.len(), |ctx| {
            let q = TaskQueue::create(ctx, counts[ctx.rank()]);
            while let Some(t) = q.pop(ctx) {
                let g = q.global_index(t);
                // Still inside the claim's exclusive window: no peer can
                // claim before the promise below, so pushes land in claim
                // order.
                log.lock()
                    .unwrap()
                    .push((g, ctx.rank(), ctx.now().to_bits()));
                let cost = costs[g % costs.len()];
                q.promise(ctx, ctx.now() + fraction * cost);
                ctx.advance(cost);
            }
            ctx.barrier();
        });
        log.into_inner().unwrap()
    }

    proptest! {
        #[test]
        fn claim_log_is_independent_of_promises(
            p in 2usize..=6,
            counts in prop::collection::vec(0usize..6, 6),
            costs in prop::collection::vec(0.0f64..1.0, 1..12),
            quantum in 1u32..=4,
        ) {
            // Coarse costs make equal clocks (rank-id tie breaks) common.
            let q = quantum as f64;
            let costs: Vec<f64> = costs.iter().map(|c| (c * q).round() / q).collect();
            let counts = &counts[..p];
            let exact = claim_log(counts, &costs, 1.0);
            prop_assert_eq!(exact.len(), counts.iter().sum::<usize>());
            prop_assert_eq!(&claim_log(counts, &costs, 0.5), &exact);
            prop_assert_eq!(&claim_log(counts, &costs, 0.0), &exact);
        }
    }

    #[test]
    fn promised_tasks_overlap_in_wall_time() {
        // Two ranks, 20 equal-cost tasks each, every task a 5 ms sleep.
        // Claims alternate in virtual time; with promises the sleeps
        // overlap, so the drain takes about half the summed sleep, not
        // all of it.
        let rt = Runtime::for_testing();
        let start = Instant::now();
        let res = rt.run(2, |ctx| {
            let q = TaskQueue::create(ctx, 20);
            let mut slept = Duration::ZERO;
            while q.pop(ctx).is_some() {
                q.promise(ctx, ctx.now() + 1.0);
                let t0 = Instant::now();
                std::thread::sleep(Duration::from_millis(5));
                slept += t0.elapsed();
                ctx.advance(1.0);
            }
            slept
        });
        let wall = start.elapsed();
        let slept: Duration = res.results.iter().sum();
        assert!(
            wall < slept.mul_f64(0.75),
            "drain took {wall:?} of {slept:?} summed sleep: tasks did not overlap"
        );
    }

    #[test]
    fn every_task_claimed_exactly_once() {
        let rt = Runtime::for_testing();
        let res = rt.run(6, |ctx| {
            // Uneven loads: rank r owns 10*r tasks.
            let q = TaskQueue::create(ctx, ctx.rank() * 10);
            let mut claimed = Vec::new();
            while let Some(t) = q.pop(ctx) {
                claimed.push(q.global_index(t));
            }
            ctx.barrier();
            claimed
        });
        let total: usize = (0..6).map(|r| r * 10).sum();
        let mut seen = HashSet::new();
        for list in &res.results {
            for &g in list {
                assert!(seen.insert(g), "task {g} claimed twice");
            }
        }
        assert_eq!(seen.len(), total);
        assert_eq!(seen.iter().max().map(|m| m + 1), Some(total));
    }

    #[test]
    fn own_tasks_claimed_first() {
        let rt = Runtime::for_testing();
        let res = rt.run(4, |ctx| {
            let q = TaskQueue::create(ctx, 5);
            let mut order = Vec::new();
            while let Some(t) = q.pop(ctx) {
                order.push(t.owner);
            }
            (ctx.rank(), order)
        });
        for (rank, order) in res.results {
            // Once a rank steals, its own subqueue was exhausted, so no own
            // task may appear after a stolen one in its claim sequence.
            if let Some(first_steal) = order.iter().position(|&o| o != rank) {
                assert!(
                    order[first_steal..].iter().all(|&o| o != rank),
                    "rank {rank} claimed an own task after stealing: {order:?}"
                );
            }
        }
    }

    #[test]
    fn empty_queue_returns_none() {
        let rt = Runtime::for_testing();
        rt.run(3, |ctx| {
            let q = TaskQueue::create(ctx, 0);
            assert_eq!(q.pop(ctx), None);
            assert_eq!(q.total(), 0);
        });
    }

    #[test]
    fn single_owner_queue_fully_stolen() {
        let rt = Runtime::for_testing();
        let res = rt.run(4, |ctx| {
            let count = if ctx.rank() == 0 { 40 } else { 0 };
            let q = TaskQueue::create(ctx, count);
            let mut n = 0;
            while q.pop(ctx).is_some() {
                n += 1;
            }
            ctx.barrier();
            n
        });
        let total: usize = res.results.iter().sum();
        assert_eq!(total, 40);
    }

    #[test]
    fn global_index_is_dense_and_ordered_by_owner() {
        let rt = Runtime::for_testing();
        rt.run(3, |ctx| {
            let q = TaskQueue::create(ctx, 4);
            assert_eq!(q.total(), 12);
            assert_eq!(q.global_index(TaskId { owner: 0, index: 0 }), 0);
            assert_eq!(q.global_index(TaskId { owner: 1, index: 0 }), 4);
            assert_eq!(q.global_index(TaskId { owner: 2, index: 3 }), 11);
        });
    }
}
