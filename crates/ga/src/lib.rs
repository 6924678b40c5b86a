//! # ga — a Global Arrays toolkit analogue
//!
//! The paper's parallelization rests on the Global Arrays (GA) programming
//! model: *"Each process in a SPMD parallel program can asynchronously
//! access logical blocks of physically distributed dense multi-dimensional
//! arrays, without need for explicit cooperation by other processes"*
//! (§3.1). Four GA facilities carry the whole engine, and this crate
//! provides all four:
//!
//! * [`GlobalArray`] — block-distributed dense arrays with one-sided
//!   `get` / `put` / `acc`(umulate) and locality queries; a matrix is one
//!   with row-aligned blocks ([`GlobalArray::create_rows`]). The engine
//!   keeps the forward index, the term statistics, the inverted index's
//!   postings and cursors, and the knowledge signatures in these; the
//!   association matrix is allreduced and replicated on every rank
//!   instead.
//! * [`GlobalArray::read_inc`] — the atomic fetch-and-increment that
//!   implements fixed-size-chunking dynamic load balancing *"in only a few
//!   lines of code"* (§3.3).
//! * [`DistHashMap`] — the ARMCI-RPC-style distributed hashmap that assigns
//!   global term IDs to vocabulary words during scanning (§3.2).
//! * [`TaskQueue`] — the shared, owner-prioritized task queue used by the
//!   parallel FAST-INV inversion (§3.3): every process first drains its own
//!   loads, then steals loads from other owners via atomic increments.
//!
//! Everything is backed by shared memory (the ranks are threads) but the
//! *accounting* follows the distributed-memory model: any access outside a
//! rank's own block is charged network latency + bandwidth against the
//! caller's virtual clock, atomic operations on remote portions are charged
//! a round trip, and local accesses are charged memory-copy time. Locality
//! therefore matters exactly as it does on the modeled cluster.

pub mod counter;
pub mod dhashmap;
pub mod global_array;
pub mod task_queue;

pub use counter::GlobalCounter;
pub use dhashmap::DistHashMap;
pub use global_array::GlobalArray;
pub use task_queue::{TaskId, TaskQueue};
