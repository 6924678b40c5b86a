//! # spmd — a single-program-multiple-data runtime with virtual time
//!
//! The paper's engine is an SPMD program: `P` processes execute the same
//! code on different partitions of the data, communicating through MPI
//! collectives and one-sided Global Arrays operations. This crate provides
//! that execution model on one machine:
//!
//! * [`Runtime::run`] spawns one OS thread per rank and hands each a
//!   [`Ctx`]. The threads perform the *real* computation on their real data
//!   partitions — nothing about the algorithms is simulated.
//! * Each rank carries a **virtual clock** (seconds on the modeled 2007
//!   cluster). Compute work advances only the local clock
//!   ([`Ctx::charge`]); collectives synchronize clocks to the maximum
//!   participant plus the modeled collective cost, exactly like a
//!   discrete-event simulation driven by the real execution trace.
//! * Six collectives — [`Ctx::barrier`], [`Ctx::broadcast`],
//!   [`Ctx::allreduce`] (over `f64` or `u64`), [`Ctx::allgather`],
//!   [`Ctx::gather`] and [`Ctx::gather_data`], plus [`Ctx::exscan_u64`]
//!   on top of allgather — follow MPI semantics: **every rank must call
//!   every collective in the same order**. Each is one round of one
//!   rendezvous that combines the deposits in rank order, so the outcome
//!   is deterministic regardless of thread scheduling.
//! * [`Ctx::timers`] attribute virtual time to the paper's pipeline
//!   components (scan, index, topic, AM, DocVec, ClusProj) so the harness
//!   can regenerate Figures 6b, 7b and 8.
//! * Each rank owns an [`IntraPool`] ([`Ctx::pool`]) for *intra-rank*
//!   data parallelism: pure per-chunk work fans out across host threads
//!   while collectives, clocks and timers stay on the rank thread. Chunk
//!   boundaries are width-independent, so results are bit-identical at
//!   any `threads_per_rank` (see [`Runtime::with_threads_per_rank`]).
//! * With [`Runtime::with_tracing`], each rank records its stages,
//!   collectives and task-queue work as complete `inspire-trace` spans
//!   ([`Ctx::trace_span`]: from a start to now, on the virtual clock,
//!   stamped with wall time) into a ring buffer that
//!   [`RunResult::traces`] exposes for Chrome trace-event export.
//!   Recording only *reads* clocks — engine output is bit-identical with
//!   tracing on or off.
//!
//! The wall-clock/virtual-clock split is the substitution documented in
//! DESIGN.md §2: the machine running this reproduction has a single core,
//! so scaling curves must come from modeled time; correctness still comes
//! from real execution.

pub mod ctx;
pub mod gate;
pub mod pool;
pub mod rendezvous;
pub mod runtime;
pub mod stats;
pub mod timer;

pub use ctx::{Ctx, Reduce, ReduceOp};
pub use gate::VirtualGate;
pub use pool::IntraPool;
pub use runtime::{RunResult, Runtime};
pub use stats::CommStats;
pub use timer::{Component, PerStage, Timers};

pub use perfmodel::{CostModel, WorkKind};
