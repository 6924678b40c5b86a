//! The SPMD runtime: spawns ranks, collects results, merges clocks and
//! timers.

use crate::ctx::Ctx;
use crate::rendezvous::Rendezvous;
use crate::stats::CommStatsSnapshot;
use crate::timer::TimerSnapshot;
use inspire_trace::span::{RankTrace, SpanRecorder, CAPACITY};
use perfmodel::CostModel;
use std::sync::Arc;
use std::time::Instant;

/// Outcome of one SPMD execution.
#[derive(Debug)]
pub struct RunResult<R> {
    /// Per-rank return values, indexed by rank.
    pub results: Vec<R>,
    /// Per-rank final virtual clocks (seconds).
    pub clocks: Vec<f64>,
    /// Per-rank component timers.
    pub timers: Vec<TimerSnapshot>,
    /// Per-rank communication statistics.
    pub stats: Vec<CommStatsSnapshot>,
    /// Per-rank recorded spans, indexed by rank; empty unless the runtime
    /// was built [`Runtime::with_tracing`].
    pub traces: Vec<RankTrace>,
}

impl<R> RunResult<R> {
    /// Virtual wall-clock of the whole run: the slowest rank.
    pub fn virtual_time(&self) -> f64 {
        self.clocks.iter().cloned().fold(0.0, f64::max)
    }

    /// Critical-path time per component (element-wise max over ranks).
    pub fn component_times(&self) -> TimerSnapshot {
        self.timers
            .iter()
            .fold(TimerSnapshot::default(), |acc, t| acc.max(t))
    }

    /// Aggregate communication statistics over all ranks.
    pub fn total_stats(&self) -> CommStatsSnapshot {
        self.stats
            .iter()
            .fold(CommStatsSnapshot::default(), |acc, s| acc.merge(s))
    }
}

/// Factory for SPMD executions against one cost model.
pub struct Runtime {
    model: Arc<CostModel>,
    threads_per_rank: usize,
    tracing: bool,
}

impl Runtime {
    pub fn new(model: Arc<CostModel>) -> Self {
        Runtime {
            model,
            threads_per_rank: 1,
            tracing: false,
        }
    }

    /// Convenience constructor with a zero-cost model (correctness-only).
    pub fn for_testing() -> Self {
        Runtime::new(Arc::new(CostModel::zero()))
    }

    /// Give every rank an intra-rank pool of `n` worker threads (host
    /// wall-clock parallelism). Virtual time and all results are
    /// invariant in `n`: chunked work merges in chunk index order and
    /// charges land on the rank thread after the merge. `0` and `1` both
    /// mean the serial pool.
    pub fn with_threads_per_rank(mut self, n: usize) -> Self {
        self.threads_per_rank = n.max(1);
        self
    }

    /// Intra-rank pool width ranks will be given.
    pub fn threads_per_rank(&self) -> usize {
        self.threads_per_rank
    }

    /// Record stage, collective and task-queue spans on every rank (the
    /// newest [`CAPACITY`] per rank), exposed through
    /// [`RunResult::traces`]. Off by default; recording only reads the
    /// virtual clock, so results are bit-identical either way.
    pub fn with_tracing(mut self, on: bool) -> Self {
        self.tracing = on;
        self
    }

    /// Is span tracing enabled?
    pub fn tracing(&self) -> bool {
        self.tracing
    }

    pub fn model(&self) -> &Arc<CostModel> {
        &self.model
    }

    /// Execute `f` on `nprocs` ranks (one OS thread each) and collect
    /// everything. Panics in any rank poison the collectives (so peers fail
    /// fast) and are re-thrown here.
    pub fn run<R, F>(&self, nprocs: usize, f: F) -> RunResult<R>
    where
        R: Send + 'static,
        F: Fn(&Ctx) -> R + Send + Sync,
    {
        assert!(nprocs > 0, "need at least one rank");
        let rendezvous = Arc::new(Rendezvous::new(nprocs));

        // A guard that poisons the rendezvous if the rank unwinds, so the
        // other ranks don't deadlock inside a collective.
        struct PoisonOnPanic {
            rendezvous: Arc<Rendezvous>,
        }
        impl Drop for PoisonOnPanic {
            fn drop(&mut self) {
                if std::thread::panicking() {
                    self.rendezvous.poison();
                }
            }
        }

        let model = &self.model;
        let threads_per_rank = self.threads_per_rank;
        let tracing = self.tracing;
        // One epoch per run so wall stamps align across rank lanes.
        let epoch = Instant::now();
        let f = &f;
        type RankOutput<R> = (R, f64, TimerSnapshot, CommStatsSnapshot, RankTrace);
        let outputs: Vec<RankOutput<R>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..nprocs)
                .map(|rank| {
                    let rendezvous = rendezvous.clone();
                    let model = model.clone();
                    scope.spawn(move || {
                        let _guard = PoisonOnPanic {
                            rendezvous: rendezvous.clone(),
                        };
                        let trace = if tracing {
                            SpanRecorder::enabled_with(epoch, CAPACITY)
                        } else {
                            SpanRecorder::disabled()
                        };
                        let ctx =
                            Ctx::new(rank, nprocs, model, rendezvous, threads_per_rank, trace);
                        let out = f(&ctx);
                        (
                            out,
                            ctx.now(),
                            ctx.timers.snapshot(),
                            ctx.stats.snapshot(),
                            ctx.take_trace(),
                        )
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(v) => v,
                    Err(e) => std::panic::resume_unwind(e),
                })
                .collect()
        });

        let mut results = Vec::with_capacity(nprocs);
        let mut clocks = Vec::with_capacity(nprocs);
        let mut timers = Vec::with_capacity(nprocs);
        let mut stats = Vec::with_capacity(nprocs);
        let mut traces = Vec::with_capacity(nprocs);
        for (r, c, t, s, tr) in outputs {
            results.push(r);
            clocks.push(c);
            timers.push(t);
            stats.push(s);
            traces.push(tr);
        }
        RunResult {
            results,
            clocks,
            timers,
            stats,
            traces,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::ReduceOp;
    use perfmodel::WorkKind;

    #[test]
    fn results_indexed_by_rank() {
        let rt = Runtime::for_testing();
        let res = rt.run(8, |ctx| ctx.rank() * 3);
        assert_eq!(res.results, vec![0, 3, 6, 9, 12, 15, 18, 21]);
    }

    #[test]
    fn virtual_time_is_slowest_rank() {
        let rt = Runtime::new(Arc::new(CostModel::pnnl_2007()));
        let res = rt.run(4, |ctx| {
            ctx.charge(WorkKind::Flops, (ctx.rank() as u64 + 1) * 120_000_000);
        });
        assert!((res.virtual_time() - 4.0).abs() < 1e-9);
        assert!((res.clocks[0] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn single_rank_works() {
        let rt = Runtime::for_testing();
        let res = rt.run(1, |ctx| {
            ctx.barrier();
            ctx.allreduce(vec![5.0], ReduceOp::Sum)[0]
        });
        assert_eq!(res.results, vec![5.0]);
    }

    #[test]
    fn rank_panic_propagates_not_deadlocks() {
        let rt = Runtime::for_testing();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            rt.run(4, |ctx| {
                if ctx.rank() == 2 {
                    panic!("rank 2 exploded");
                }
                // Other ranks head into a collective and must be released
                // by the poison rather than hanging.
                ctx.barrier();
            });
        }));
        assert!(outcome.is_err());
    }

    #[test]
    fn deterministic_across_repeats() {
        let rt = Runtime::new(Arc::new(CostModel::pnnl_2007()));
        let runs: Vec<Vec<f64>> = (0..3)
            .map(|_| {
                rt.run(6, |ctx| {
                    ctx.charge(WorkKind::ScanBytes, 1000 * (ctx.rank() as u64 + 1));
                    ctx.allreduce(vec![ctx.rank() as f64 * 0.1; 16], ReduceOp::Sum);
                    ctx.barrier();
                    ctx.now()
                })
                .clocks
            })
            .collect();
        assert_eq!(runs[0], runs[1]);
        assert_eq!(runs[1], runs[2]);
    }

    #[test]
    fn many_ranks_many_collectives() {
        let rt = Runtime::for_testing();
        let res = rt.run(16, |ctx| {
            let mut acc = 0u64;
            for i in 0..50 {
                acc = ctx.allreduce(vec![acc + i + ctx.rank() as u64], ReduceOp::Sum)[0];
            }
            acc
        });
        // All ranks agree.
        for v in &res.results {
            assert_eq!(*v, res.results[0]);
        }
    }

    #[test]
    fn tracing_records_complete_spans_that_nest() {
        use crate::timer::Component;
        let rt = Runtime::new(Arc::new(CostModel::pnnl_2007())).with_tracing(true);
        let res = rt.run(3, |ctx| {
            assert!(ctx.tracing());
            ctx.component(Component::Scan, || {
                ctx.charge(WorkKind::ScanBytes, 1_000_000 * (ctx.rank() as u64 + 1));
                ctx.barrier();
            });
            ctx.allreduce(vec![1u64], ReduceOp::Sum);
        });
        assert_eq!(res.traces.len(), 3);
        for (rank, t) in res.traces.iter().enumerate() {
            assert_eq!(t.rank, rank);
            assert_eq!(t.dropped, 0);
            // Close order: the barrier inside the stage, the stage, the
            // allreduce after it.
            let names: Vec<_> = t.spans.iter().map(|s| (s.cat, s.name)).collect();
            assert_eq!(
                names,
                [
                    ("collective", "barrier"),
                    ("stage", "scan"),
                    ("collective", "allreduce")
                ]
            );
            assert!(t.spans.iter().all(|s| s.dur_us >= 0.0));
        }
        let json = inspire_trace::chrome::to_chrome_json(&res.traces);
        let summary = inspire_trace::chrome::validate_chrome_json(&json).expect("spans nest");
        assert_eq!((summary.lanes, summary.spans), (3, 9));
    }

    #[test]
    fn tracing_off_by_default_and_invisible_to_results() {
        let model = Arc::new(CostModel::pnnl_2007());
        let work = |ctx: &Ctx| {
            ctx.charge(WorkKind::Flops, (ctx.rank() as u64 + 1) * 10_000_000);
            ctx.barrier();
            ctx.allreduce(vec![ctx.now()], ReduceOp::Max)[0].to_bits()
        };
        let plain = Runtime::new(model.clone()).run(4, work);
        assert!(plain.traces.iter().all(|t| t.spans.is_empty()));
        let traced = Runtime::new(model).with_tracing(true).run(4, work);
        assert!(traced.traces.iter().any(|t| !t.spans.is_empty()));
        // Bit-identical outputs and clocks.
        assert_eq!(plain.results, traced.results);
        assert_eq!(plain.clocks, traced.clocks);
    }

    #[test]
    fn collective_wait_attributed_to_active_stage() {
        use crate::timer::Component;
        let rt = Runtime::new(Arc::new(CostModel::pnnl_2007()));
        let res = rt.run(2, |ctx| {
            ctx.component(Component::Index, || {
                // Rank 1 does 10x the work; rank 0 waits at the barrier.
                ctx.charge(WorkKind::Flops, (1 + 9 * ctx.rank() as u64) * 12_000_000);
                ctx.barrier();
            });
        });
        let fast = res.timers[0];
        let slow = res.timers[1];
        assert!(
            fast.get_wait(Component::Index) > slow.get_wait(Component::Index),
            "the underloaded rank must accrue more wait"
        );
        // The fast rank's wait covers the skew: ~9x its own compute.
        assert!(fast.get_wait(Component::Index) > 8.0 * fast.get(Component::Index) / 10.0);
        assert_eq!(fast.get_wait(Component::Scan), 0.0);
    }

    #[test]
    fn component_times_are_critical_path() {
        use crate::timer::Component;
        let rt = Runtime::new(Arc::new(CostModel::pnnl_2007()));
        let res = rt.run(3, |ctx| {
            ctx.component(Component::Index, || {
                ctx.charge(WorkKind::InvertPostings, 250_000 * (ctx.rank() as u64 + 1));
            });
        });
        let ct = res.component_times();
        assert!((ct.get(Component::Index) - 3.0).abs() < 1e-9);
    }
}
