//! The deterministic simulation engine.
//!
//! The engine has two execution strategies that produce byte-identical
//! results (same final memory image, same [`SimOutcome`], same analysis and
//! trace streams) for the same program and configuration:
//!
//! * **Legacy single loop** (`core`): one scheduler thread resumes the
//!   globally minimum-key logical thread, one at a time. Selected with
//!   `Config::shards == 1` (or `NMP_SIM_SHARDS=1`).
//! * **Sharded loops** (`shard`, `inbox`, `barrier`): a host shard
//!   plus one shard per vault/partition group, each running its own
//!   minimum-key loop over the threads it owns. Cross-shard effects are
//!   gated by conservative time-window barriers on the other shards' clock
//!   frontiers, and trace/analysis side effects are deferred to per-shard
//!   buffers merged in `(cycle, spawn id, seq)` order at the serialization
//!   point — reproducing exactly the `(completion cycle, spawn id)` order
//!   the legacy loop serializes.
//!
//! See `DESIGN.md` §4.9 for the shard topology and the determinism
//! argument.

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
