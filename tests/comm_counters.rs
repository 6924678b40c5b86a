//! Comm-plane counter tests for the batched hot paths.
//!
//! Guarantees from the batching PRs, checked on a fixture corpus:
//!
//! 1. **Scan batching factor** — the scan stage's charged vocabulary
//!    RPC count drops at least 5x versus the scalar one-message-per-term
//!    discipline it replaced (the scan output carries both counts).
//! 2. **Index aggregation** — the index stage's aggregated exchange
//!    (batched cursor reservation + destination-packed posting puts)
//!    keeps the stage's message count under a fixed ceiling, far below
//!    the scalar-equivalent operation count it folds.
//! 3. **Width invariance** — charged message/byte counters are a
//!    function of the workload, not of the intra-rank pool width:
//!    `threads_per_rank` ∈ {1, 2, 4} must produce bit-identical
//!    per-stage counters on every rank.

use std::sync::Arc;
use visual_analytics::engine::index::invert;
use visual_analytics::engine::scan::scan;
use visual_analytics::perfmodel::CostModel;
use visual_analytics::prelude::*;
use visual_analytics::spmd::stats::CommStatsSnapshot;

const FIXTURE_BYTES: u64 = 64 * 1024;

/// Per-rank (stats snapshot, scan's batched RPC msgs, scalar-equiv count)
/// from a scan+invert run bracketed in its pipeline components.
fn comm_profile(
    src: &SourceSet,
    procs: usize,
    threads: usize,
) -> Vec<(CommStatsSnapshot, u64, u64)> {
    let rt = Runtime::new(Arc::new(CostModel::zero())).with_threads_per_rank(threads);
    let cfg = EngineConfig::for_testing();
    rt.run(procs, |ctx| {
        let (s, fwd) = ctx.component(Component::Scan, || scan(ctx, src, &cfg));
        let idx = ctx.component(Component::Index, || invert(ctx, &s, fwd, &cfg));
        assert!(idx.total_docs > 0);
        (
            ctx.stats.snapshot(),
            s.vocab_rpc_msgs,
            s.vocab_rpc_scalar_equiv,
        )
    })
    .results
}

#[test]
fn scan_vocab_rpcs_drop_at_least_5x_on_fixture_corpus() {
    let src = CorpusSpec::pubmed(FIXTURE_BYTES, 2007).generate();
    for procs in [1usize, 4] {
        let prof = comm_profile(&src, procs, 1);
        let batched: u64 = prof.iter().map(|r| r.1).sum();
        let scalar: u64 = prof.iter().map(|r| r.2).sum();
        assert!(batched > 0, "p={procs}: scan charged no vocabulary RPCs");
        assert!(
            scalar >= 5 * batched,
            "p={procs}: batching factor below 5x: {scalar} scalar-equivalent \
             inserts over {batched} charged messages"
        );
        // The stage counter includes those RPCs, so it must also sit far
        // below the scalar-equivalent count.
        let scan_msgs: u64 = prof
            .iter()
            .map(|r| r.0.stage_msgs_for(Component::Scan))
            .sum();
        assert!(
            scalar >= 5 * scan_msgs,
            "p={procs}: scan stage msgs {scan_msgs} vs scalar-equiv {scalar}"
        );
    }
}

#[test]
fn scan_stage_counters_attribute_to_scan_and_index() {
    let src = CorpusSpec::pubmed(FIXTURE_BYTES, 2007).generate();
    let prof = comm_profile(&src, 2, 1);
    for (rank, (snap, _, _)) in prof.iter().enumerate() {
        assert!(
            snap.stage_msgs_for(Component::Scan) > 0,
            "rank {rank}: no messages attributed to scan"
        );
        assert!(
            snap.stage_msgs_for(Component::Index) > 0,
            "rank {rank}: no messages attributed to index"
        );
        assert_eq!(
            snap.stage_msgs.iter().sum::<u64>(),
            snap.total_msgs(),
            "rank {rank}: stage attribution must cover every charged op"
        );
    }
}

/// Ceiling on the index stage's total charged message count on the
/// 64 KiB fixture, summed over all ranks, for P ∈ {1, 2, 4}. The
/// pre-aggregation scatter charged one read_inc per (term, load) plus
/// one put per posting run — thousands of messages on this fixture
/// (the scalar-equivalent counter records ~5,600 folded operations). The aggregated exchange pays O(P) messages per load, so a
/// fixed small ceiling holds at every P and catches any regression to
/// per-term traffic.
const INDEX_STAGE_MSG_CEILING: u64 = 1024;

#[test]
fn index_stage_msgs_under_fixed_ceiling() {
    let src = CorpusSpec::pubmed(FIXTURE_BYTES, 2007).generate();
    for procs in [1usize, 2, 4] {
        let prof = comm_profile(&src, procs, 1);
        let index_msgs: u64 = prof
            .iter()
            .map(|r| r.0.stage_msgs_for(Component::Index))
            .sum();
        let batched: u64 = prof
            .iter()
            .map(|r| r.0.stage_batched_msgs_for(Component::Index))
            .sum();
        let scalar_equiv: u64 = prof
            .iter()
            .map(|r| r.0.stage_scalar_equiv_for(Component::Index))
            .sum();
        eprintln!(
            "p={procs}: index_msgs={index_msgs} batched={batched} scalar_equiv={scalar_equiv}"
        );
        assert!(
            index_msgs <= INDEX_STAGE_MSG_CEILING,
            "p={procs}: index stage charged {index_msgs} messages, \
             ceiling is {INDEX_STAGE_MSG_CEILING}"
        );
        // The batched messages must stand in for far more scalar
        // operations than were actually charged: the aggregation is
        // doing real folding, not forwarding singleton batches.
        assert!(batched > 0, "p={procs}: no batched RPCs in index stage");
        assert!(
            scalar_equiv >= 10 * batched,
            "p={procs}: index batching factor below 10x: \
             {scalar_equiv} scalar-equivalent ops over {batched} batches"
        );
    }
}

#[test]
fn index_stage_msgs_invariant_in_pool_width() {
    let src = CorpusSpec::pubmed(FIXTURE_BYTES, 2007).generate();
    for procs in [1usize, 2] {
        let base: Vec<(u64, u64, u64)> = comm_profile(&src, procs, 1)
            .iter()
            .map(|r| {
                (
                    r.0.stage_msgs_for(Component::Index),
                    r.0.stage_batched_msgs_for(Component::Index),
                    r.0.stage_scalar_equiv_for(Component::Index),
                )
            })
            .collect();
        for threads in [2usize, 4] {
            let wide: Vec<(u64, u64, u64)> = comm_profile(&src, procs, threads)
                .iter()
                .map(|r| {
                    (
                        r.0.stage_msgs_for(Component::Index),
                        r.0.stage_batched_msgs_for(Component::Index),
                        r.0.stage_scalar_equiv_for(Component::Index),
                    )
                })
                .collect();
            assert_eq!(
                base, wide,
                "p={procs}: index-stage counters differ between \
                 threads_per_rank=1 and {threads}"
            );
        }
    }
}

#[test]
fn comm_counters_invariant_across_pool_widths() {
    let src = CorpusSpec::pubmed(FIXTURE_BYTES, 2007).generate();
    for procs in [1usize, 2] {
        let base = comm_profile(&src, procs, 1);
        for threads in [2usize, 4] {
            let wide = comm_profile(&src, procs, threads);
            assert_eq!(
                base, wide,
                "p={procs}: counters differ between threads_per_rank=1 and {threads}"
            );
        }
    }
}
