//! Per-rank communication statistics.
//!
//! Purely observational counters used by tests (to assert, e.g., that the
//! dynamic load balancer actually performed remote steals) and by the
//! benchmark harness to report communication volumes alongside timings.

use crate::timer::{Component, PerStage};
use std::cell::{Cell, RefCell};

/// Counters for one rank. Not shared across threads; each [`Ctx`]
/// (crate::Ctx) owns one.
///
/// Besides the global totals, every charged operation (one-sided, local,
/// remote atomic, collective) is attributed to the pipeline stage active
/// at the time — the [`Component`] set by [`Ctx::component`]
/// (crate::Ctx::component) — so the bench harness can report per-stage
/// message and byte counts.
#[derive(Debug)]
pub struct CommStats {
    one_sided_ops: Cell<u64>,
    one_sided_bytes: Cell<u64>,
    local_ops: Cell<u64>,
    local_bytes: Cell<u64>,
    remote_atomics: Cell<u64>,
    collectives: Cell<u64>,
    collective_bytes: Cell<u64>,
    /// Aggregated (destination-packed) RPC messages charged.
    batched_rpcs: Cell<u64>,
    /// Scalar one-sided operations those batched messages replaced.
    batched_scalar_equiv: Cell<u64>,
    /// The active stage.
    stage: Cell<Component>,
    /// Charged operations per stage (every record_* counts one message).
    stage_msgs: RefCell<PerStage<u64>>,
    /// Payload bytes per stage.
    stage_bytes: RefCell<PerStage<u64>>,
    /// Batched RPC messages per stage.
    stage_batched_msgs: RefCell<PerStage<u64>>,
    /// Scalar-equivalent operations folded into batches, per stage.
    stage_scalar_equiv: RefCell<PerStage<u64>>,
}

impl Default for CommStats {
    fn default() -> Self {
        CommStats {
            one_sided_ops: Cell::new(0),
            one_sided_bytes: Cell::new(0),
            local_ops: Cell::new(0),
            local_bytes: Cell::new(0),
            remote_atomics: Cell::new(0),
            collectives: Cell::new(0),
            collective_bytes: Cell::new(0),
            batched_rpcs: Cell::new(0),
            batched_scalar_equiv: Cell::new(0),
            // Unbracketed work lands in Other, matching the timers.
            stage: Cell::new(Component::Other),
            stage_msgs: RefCell::new(PerStage::default()),
            stage_bytes: RefCell::new(PerStage::default()),
            stage_batched_msgs: RefCell::new(PerStage::default()),
            stage_scalar_equiv: RefCell::new(PerStage::default()),
        }
    }
}

/// A plain snapshot of [`CommStats`], safe to send across threads.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommStatsSnapshot {
    pub one_sided_ops: u64,
    pub one_sided_bytes: u64,
    pub local_ops: u64,
    pub local_bytes: u64,
    pub remote_atomics: u64,
    pub collectives: u64,
    pub collective_bytes: u64,
    /// Aggregated (destination-packed) RPC messages charged.
    pub batched_rpcs: u64,
    /// Scalar one-sided operations those batched messages replaced.
    pub batched_scalar_equiv: u64,
    /// Charged operations per stage.
    pub stage_msgs: PerStage<u64>,
    /// Payload bytes per stage.
    pub stage_bytes: PerStage<u64>,
    /// Batched RPC messages per stage.
    pub stage_batched_msgs: PerStage<u64>,
    /// Scalar-equivalent operations folded into batches, per stage.
    pub stage_scalar_equiv: PerStage<u64>,
}

impl CommStats {
    pub fn new() -> Self {
        Self::default()
    }

    /// Attribute subsequent operations to `stage`; returns the previous
    /// stage so callers can restore it (nesting-safe).
    pub fn set_stage(&self, stage: Component) -> Component {
        self.stage.replace(stage)
    }

    /// The stage currently receiving attribution.
    pub fn stage(&self) -> Component {
        self.stage.get()
    }

    #[inline]
    fn attribute(&self, bytes: u64) {
        let stage = self.stage.get();
        self.stage_msgs.borrow_mut()[stage] += 1;
        self.stage_bytes.borrow_mut()[stage] += bytes;
    }

    /// Count one batched message replacing `scalar_ops` scalar operations.
    #[inline]
    fn attribute_batch(&self, scalar_ops: u64) {
        self.batched_rpcs.set(self.batched_rpcs.get() + 1);
        self.batched_scalar_equiv
            .set(self.batched_scalar_equiv.get() + scalar_ops);
        let stage = self.stage.get();
        self.stage_batched_msgs.borrow_mut()[stage] += 1;
        self.stage_scalar_equiv.borrow_mut()[stage] += scalar_ops;
    }

    pub fn record_one_sided(&self, bytes: u64) {
        self.one_sided_ops.set(self.one_sided_ops.get() + 1);
        self.one_sided_bytes.set(self.one_sided_bytes.get() + bytes);
        self.attribute(bytes);
    }

    pub fn record_local(&self, bytes: u64) {
        self.local_ops.set(self.local_ops.get() + 1);
        self.local_bytes.set(self.local_bytes.get() + bytes);
        self.attribute(bytes);
    }

    /// One aggregated remote message of `bytes` whose payload folds
    /// `scalar_ops` scalar one-sided operations into a single round trip.
    pub fn record_one_sided_batch(&self, bytes: u64, scalar_ops: u64) {
        self.record_one_sided(bytes);
        self.attribute_batch(scalar_ops);
    }

    /// Local-block counterpart of [`record_one_sided_batch`]
    /// (CommStats::record_one_sided_batch): still one charged operation,
    /// still tracked as a batch so batching factors are width-invariant
    /// in the rank that happens to own the block.
    pub fn record_local_batch(&self, bytes: u64, scalar_ops: u64) {
        self.record_local(bytes);
        self.attribute_batch(scalar_ops);
    }

    pub fn record_remote_atomic(&self) {
        self.remote_atomics.set(self.remote_atomics.get() + 1);
        self.attribute(8);
    }

    pub fn record_collective(&self, bytes: u64) {
        self.collectives.set(self.collectives.get() + 1);
        self.collective_bytes
            .set(self.collective_bytes.get() + bytes);
        self.attribute(bytes);
    }

    pub fn snapshot(&self) -> CommStatsSnapshot {
        CommStatsSnapshot {
            one_sided_ops: self.one_sided_ops.get(),
            one_sided_bytes: self.one_sided_bytes.get(),
            local_ops: self.local_ops.get(),
            local_bytes: self.local_bytes.get(),
            remote_atomics: self.remote_atomics.get(),
            collectives: self.collectives.get(),
            collective_bytes: self.collective_bytes.get(),
            batched_rpcs: self.batched_rpcs.get(),
            batched_scalar_equiv: self.batched_scalar_equiv.get(),
            stage_msgs: *self.stage_msgs.borrow(),
            stage_bytes: *self.stage_bytes.borrow(),
            stage_batched_msgs: *self.stage_batched_msgs.borrow(),
            stage_scalar_equiv: *self.stage_scalar_equiv.borrow(),
        }
    }
}

impl CommStatsSnapshot {
    /// Element-wise sum, for aggregating over ranks.
    pub fn merge(&self, other: &CommStatsSnapshot) -> CommStatsSnapshot {
        let mut stage_msgs = self.stage_msgs;
        let mut stage_bytes = self.stage_bytes;
        let mut stage_batched_msgs = self.stage_batched_msgs;
        let mut stage_scalar_equiv = self.stage_scalar_equiv;
        stage_msgs.add_assign(&other.stage_msgs);
        stage_bytes.add_assign(&other.stage_bytes);
        stage_batched_msgs.add_assign(&other.stage_batched_msgs);
        stage_scalar_equiv.add_assign(&other.stage_scalar_equiv);
        CommStatsSnapshot {
            one_sided_ops: self.one_sided_ops + other.one_sided_ops,
            one_sided_bytes: self.one_sided_bytes + other.one_sided_bytes,
            local_ops: self.local_ops + other.local_ops,
            local_bytes: self.local_bytes + other.local_bytes,
            remote_atomics: self.remote_atomics + other.remote_atomics,
            collectives: self.collectives + other.collectives,
            collective_bytes: self.collective_bytes + other.collective_bytes,
            batched_rpcs: self.batched_rpcs + other.batched_rpcs,
            batched_scalar_equiv: self.batched_scalar_equiv + other.batched_scalar_equiv,
            stage_msgs,
            stage_bytes,
            stage_batched_msgs,
            stage_scalar_equiv,
        }
    }

    /// Messages attributed to `stage`.
    pub fn stage_msgs_for(&self, stage: Component) -> u64 {
        self.stage_msgs[stage]
    }

    /// Batched RPC messages attributed to `stage`.
    pub fn stage_batched_msgs_for(&self, stage: Component) -> u64 {
        self.stage_batched_msgs[stage]
    }

    /// Scalar-equivalent operations folded into `stage`'s batches.
    pub fn stage_scalar_equiv_for(&self, stage: Component) -> u64 {
        self.stage_scalar_equiv[stage]
    }

    /// Total charged operations across all kinds.
    pub fn total_msgs(&self) -> u64 {
        self.one_sided_ops + self.local_ops + self.remote_atomics + self.collectives
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = CommStats::new();
        s.record_one_sided(100);
        s.record_one_sided(50);
        s.record_local(8);
        s.record_remote_atomic();
        s.record_collective(4096);
        let snap = s.snapshot();
        assert_eq!(snap.one_sided_ops, 2);
        assert_eq!(snap.one_sided_bytes, 150);
        assert_eq!(snap.local_ops, 1);
        assert_eq!(snap.local_bytes, 8);
        assert_eq!(snap.remote_atomics, 1);
        assert_eq!(snap.collectives, 1);
        assert_eq!(snap.collective_bytes, 4096);
        assert_eq!(snap.total_msgs(), 5);
    }

    #[test]
    fn merge_is_elementwise_sum() {
        let a = CommStatsSnapshot {
            one_sided_ops: 1,
            one_sided_bytes: 2,
            local_ops: 3,
            local_bytes: 4,
            remote_atomics: 5,
            collectives: 6,
            collective_bytes: 7,
            batched_rpcs: 8,
            batched_scalar_equiv: 9,
            stage_msgs: PerStage::new([1, 0, 0, 0, 0, 0, 2]),
            stage_bytes: PerStage::new([10, 0, 0, 0, 0, 0, 20]),
            stage_batched_msgs: PerStage::new([0, 1, 0, 0, 0, 0, 0]),
            stage_scalar_equiv: PerStage::new([0, 5, 0, 0, 0, 0, 0]),
        };
        let b = a;
        let m = a.merge(&b);
        assert_eq!(m.one_sided_ops, 2);
        assert_eq!(m.collective_bytes, 14);
        assert_eq!(m.batched_rpcs, 16);
        assert_eq!(m.batched_scalar_equiv, 18);
        assert_eq!(m.stage_msgs, PerStage::new([2, 0, 0, 0, 0, 0, 4]));
        assert_eq!(m.stage_bytes, PerStage::new([20, 0, 0, 0, 0, 0, 40]));
        assert_eq!(m.stage_batched_msgs, PerStage::new([0, 2, 0, 0, 0, 0, 0]));
        assert_eq!(m.stage_scalar_equiv, PerStage::new([0, 10, 0, 0, 0, 0, 0]));
    }

    #[test]
    fn batched_records_count_one_message_and_fold_scalars() {
        let s = CommStats::new();
        s.set_stage(Component::Index);
        s.record_one_sided_batch(96, 12);
        s.record_local_batch(32, 4);
        let snap = s.snapshot();
        // One charged operation per batch, payload bytes unchanged.
        assert_eq!(snap.one_sided_ops, 1);
        assert_eq!(snap.one_sided_bytes, 96);
        assert_eq!(snap.local_ops, 1);
        assert_eq!(snap.local_bytes, 32);
        assert_eq!(snap.total_msgs(), 2);
        // The fold is visible globally and attributed to the stage.
        assert_eq!(snap.batched_rpcs, 2);
        assert_eq!(snap.batched_scalar_equiv, 16);
        assert_eq!(snap.stage_batched_msgs_for(Component::Index), 2);
        assert_eq!(snap.stage_scalar_equiv_for(Component::Index), 16);
        assert_eq!(snap.stage_batched_msgs_for(Component::Scan), 0);
    }

    #[test]
    fn stage_attribution_defaults_to_other() {
        let s = CommStats::new();
        assert_eq!(s.stage(), Component::Other);
        s.record_one_sided(100);
        let snap = s.snapshot();
        assert_eq!(snap.stage_msgs_for(Component::Other), 1);
        assert_eq!(snap.stage_bytes[Component::Other], 100);
        assert_eq!(snap.stage_msgs_for(Component::Scan), 0);
    }

    #[test]
    fn stage_attribution_follows_set_stage() {
        let s = CommStats::new();
        let prev = s.set_stage(Component::Scan);
        assert_eq!(prev, Component::Other);
        s.record_local(4);
        s.record_collective(16);
        let inner = s.set_stage(Component::Index);
        assert_eq!(inner, Component::Scan);
        s.record_one_sided(32);
        s.record_remote_atomic();
        s.set_stage(inner);
        s.record_local(8);
        let snap = s.snapshot();
        assert_eq!(snap.stage_msgs_for(Component::Scan), 3);
        assert_eq!(snap.stage_bytes[Component::Scan], 4 + 16 + 8);
        assert_eq!(snap.stage_msgs_for(Component::Index), 2);
        assert_eq!(snap.stage_bytes[Component::Index], 32 + 8);
        // Per-stage totals reconcile with the global message count.
        assert_eq!(snap.stage_msgs.iter().sum::<u64>(), snap.total_msgs());
    }
}
