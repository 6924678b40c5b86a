//! Virtual-time claim ordering for shared work queues.
//!
//! The runtime executes ranks as preemptively-scheduled OS threads, but
//! *cost* is virtual: a rank's clock advances only by modeled charges. A
//! shared task queue drained in real-time order would therefore be
//! nonsense — on a single host core one thread can empty the queue before
//! its peers are scheduled at all, even though in virtual time those peers
//! were idle and should have claimed work.
//!
//! [`VirtualGate`] restores the cluster semantics: a rank may claim the
//! next task only when its virtual clock is the minimum among the ranks
//! still drawing from the queue (ties break by rank id). This is exactly
//! greedy list scheduling — what fixed-size chunking achieves on the real
//! machine — and it makes load-balance results (paper Figure 9)
//! independent of host scheduling.
//!
//! Protocol: every rank passes through [`VirtualGate::pace`] before each
//! claim attempt and calls [`VirtualGate::leave`] when it stops claiming.
//! Each rank publishes a **lower bound on the clock of its next claim**:
//! `pace` sets it to the current clock, and a rank that knows a charge
//! still ahead of it may raise it with [`VirtualGate::publish_bound`]
//! (conservative-PDES lookahead). Peers wait only while another rank's
//! bound is below their clock, so a promise frees them while the
//! promiser is still processing. Clocks never run backwards, so a bound
//! of "now plus charges certain to come" is sound and leaves the claim
//! order exactly that of the modeled cluster; `pace` asserts in debug
//! builds that the clock it publishes honours the last promise, so an
//! unsound bound cannot pass the tests silently.

use crate::ctx::Ctx;
use parking_lot::{Condvar, Mutex};
use std::sync::Arc;

struct GateState {
    /// Per rank: lower bound on the clock of its next claim.
    bounds: Vec<f64>,
    active: Vec<bool>,
}

/// See the module documentation.
pub struct VirtualGate {
    state: Mutex<GateState>,
    cv: Condvar,
}

impl VirtualGate {
    /// Collective creation; all ranks start active.
    pub fn create(ctx: &Ctx) -> Arc<VirtualGate> {
        let p = ctx.nprocs();
        let gate = if ctx.rank() == 0 {
            Some(Arc::new(VirtualGate {
                state: Mutex::new(GateState {
                    bounds: vec![f64::NEG_INFINITY; p],
                    active: vec![true; p],
                }),
                cv: Condvar::new(),
            }))
        } else {
            None
        };
        ctx.broadcast(0, gate, 16)
    }

    /// Publish this rank's current clock and block until it holds the
    /// minimum `(clock, rank)` among active ranks. On return the caller
    /// is the unique rank allowed to claim the next task.
    pub fn pace(&self, ctx: &Ctx) {
        let me = ctx.rank();
        let my_clock = ctx.now();
        let mut st = self.state.lock();
        debug_assert!(
            my_clock >= st.bounds[me],
            "rank {me} paces at {my_clock} after promising {}",
            st.bounds[me]
        );
        st.bounds[me] = my_clock;
        self.cv.notify_all();
        while !Self::is_min(&st, me, my_clock) {
            self.cv.wait(&mut st);
        }
    }

    /// Promise that this rank's next [`pace`](VirtualGate::pace) clock
    /// will be at least `t`, releasing peers whose clocks are below it.
    /// Monotone: a promise below the current bound is ignored.
    pub fn publish_bound(&self, ctx: &Ctx, t: f64) {
        let me = ctx.rank();
        let mut st = self.state.lock();
        if t > st.bounds[me] {
            st.bounds[me] = t;
            self.cv.notify_all();
        }
    }

    fn is_min(st: &GateState, me: usize, my_clock: f64) -> bool {
        for r in 0..st.bounds.len() {
            if r == me || !st.active[r] {
                continue;
            }
            let other = (st.bounds[r], r);
            if other < (my_clock, me) {
                return false;
            }
        }
        true
    }

    /// Stop participating (the queue is exhausted for this rank).
    pub fn leave(&self, ctx: &Ctx) {
        let mut st = self.state.lock();
        st.active[ctx.rank()] = false;
        self.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::Runtime;
    use parking_lot::Mutex as PMutex;
    use perfmodel::WorkKind;

    #[test]
    fn claims_follow_virtual_clock_order() {
        // Each rank starts with a different virtual clock; tasks must be
        // claimed in ascending clock order regardless of host scheduling.
        let rt = Runtime::new(std::sync::Arc::new(perfmodel::CostModel::pnnl_2007()));
        let claims: Arc<PMutex<Vec<(f64, usize)>>> = Arc::new(PMutex::new(Vec::new()));
        let claims2 = claims.clone();
        rt.run(4, move |ctx| {
            // Stagger initial clocks: rank r starts at r seconds.
            ctx.advance(ctx.rank() as f64);
            let gate = VirtualGate::create(ctx);
            // Each rank claims twice, working 10s per task.
            for _ in 0..2 {
                gate.pace(ctx);
                claims2.lock().push((ctx.now(), ctx.rank()));
                ctx.charge(WorkKind::Flops, 1_200_000_000); // 10 virtual s
            }
            gate.leave(ctx);
            ctx.barrier();
        });
        let log = claims.lock();
        assert_eq!(log.len(), 8);
        for w in log.windows(2) {
            assert!(
                (w[0].0, w[0].1) <= (w[1].0, w[1].1),
                "claims out of virtual order: {log:?}"
            );
        }
        // First four claims are the four ranks in starting-clock order.
        let first: Vec<usize> = log.iter().take(4).map(|&(_, r)| r).collect();
        assert_eq!(first, vec![0, 1, 2, 3]);
    }

    #[test]
    fn leaving_unblocks_waiters() {
        let rt = Runtime::for_testing();
        rt.run(3, |ctx| {
            let gate = VirtualGate::create(ctx);
            if ctx.rank() == 0 {
                // Rank 0 (lowest clock) claims once then leaves; others
                // must then be able to pace through.
                gate.pace(ctx);
                gate.leave(ctx);
            } else {
                ctx.advance(ctx.rank() as f64);
                gate.pace(ctx);
                gate.leave(ctx);
            }
            ctx.barrier();
        });
    }

    #[test]
    fn promise_releases_a_waiter_before_the_promiser_returns() {
        // Rank 0 claims at clock 0, promises clock 10, and does not pace
        // again until rank 1 has come through the gate at clock 5 — under
        // a last-published-clock rule rank 1 would wait for that pace and
        // this would deadlock.
        let rt = Runtime::for_testing();
        let passed = std::sync::Barrier::new(2);
        rt.run(2, |ctx| {
            let gate = VirtualGate::create(ctx);
            if ctx.rank() == 0 {
                gate.pace(ctx);
                gate.publish_bound(ctx, 10.0);
                passed.wait();
                ctx.advance(10.0);
            } else {
                ctx.advance(5.0);
                gate.pace(ctx);
                passed.wait();
            }
            gate.leave(ctx);
            ctx.barrier();
        });
    }

    #[test]
    fn lower_promise_is_ignored() {
        let rt = Runtime::for_testing();
        rt.run(1, |ctx| {
            let gate = VirtualGate::create(ctx);
            ctx.advance(3.0);
            gate.pace(ctx);
            gate.publish_bound(ctx, 4.0);
            gate.publish_bound(ctx, 1.0);
            assert_eq!(gate.state.lock().bounds[0], 4.0);
            ctx.advance(1.0);
            gate.pace(ctx);
        });
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "after promising")]
    fn over_promise_trips_the_pace_assertion() {
        let rt = Runtime::for_testing();
        rt.run(1, |ctx| {
            let gate = VirtualGate::create(ctx);
            gate.pace(ctx);
            gate.publish_bound(ctx, ctx.now() + 10.0);
            ctx.advance(1.0);
            gate.pace(ctx);
        });
    }

    #[test]
    fn single_rank_never_blocks() {
        let rt = Runtime::for_testing();
        rt.run(1, |ctx| {
            let gate = VirtualGate::create(ctx);
            for _ in 0..100 {
                gate.pace(ctx);
            }
            gate.leave(ctx);
        });
    }
}
