//! The deterministic simulation engine.
//!
//! One scheduler (`shard`, with `barrier` and `inbox`) drives every
//! simulation: logical threads are grouped into shards, each shard runs a
//! minimum-key loop over the threads it owns, cross-shard effects are gated
//! by conservative time-window barriers on the other shards' clock
//! frontiers, and trace/analysis side effects are deferred to per-thread
//! logs merged in `(cycle, spawn id, seq)` order after the run — so effects
//! and observer streams land in global `(completion cycle, spawn id)` order.
//!
//! The scheduler has two topologies that produce byte-identical results
//! (same final memory image, same [`SimOutcome`], same analysis and trace
//! streams): a host shard plus one shard per NMP partition (always, outside
//! tests), and a single shard holding every thread (`Config::single_loop`),
//! which is the sequential order by construction and serves as the
//! reference of the determinism suites. `core` holds the thread-side half
//! ([`ThreadCtx`], [`Simulation`]); `native` runs the same bodies as free
//! OS threads with no scheduler at all.
//!
//! See `DESIGN.md` §4.9 for the topologies and the determinism argument.

mod barrier;
mod core;
mod inbox;
mod native;
mod shard;

pub(crate) use self::inbox::defer_analysis;
pub(crate) use self::inbox::defer_trace;
pub(crate) use self::inbox::quiesce_for_global_mutation;

pub use self::core::{SimOutcome, Simulation, ThreadCtx, ThreadFn, ThreadKind};
pub use self::native::{NativeRun, Spawner};
