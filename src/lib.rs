//! # hybrids-repro — reproduction of HybriDS (SPAA '22)
//!
//! Umbrella crate tying together the three layers of the reproduction:
//!
//! * [`nmp_sim`] — the deterministic near-memory-processing architecture
//!   simulator (host caches, vaulted DRAM, NMP cores, scratchpad MMIO);
//! * [`workloads`] — deterministic YCSB-style workload generation;
//! * [`hybrids`] — the concurrent data structures: the paper's hybrid
//!   skiplist and hybrid B+ tree plus all evaluated baselines.
//!
//! See `README.md` for a tour, `DESIGN.md` for the system inventory and
//! fidelity argument, and `EXPERIMENTS.md` for paper-vs-measured results.
//! Runnable walk-throughs live in `examples/`; the figure/table experiments
//! are run by the `figures` binary of `crates/bench`.

pub use hybrids;
pub use nmp_sim;
pub use workloads;

/// Everything needed for typical use, in one import.
pub mod prelude {
    pub use hybrids::api::{Issued, OpResult, PollOutcome, SimIndex};
    pub use hybrids::btree::{HostBTree, HybridBTree};
    pub use hybrids::driver::{run_index, RunResult, RunSpec};
    pub use hybrids::hashmap::HybridHashMap;
    pub use hybrids::pqueue::HybridPqueue;
    pub use hybrids::skiplist::{HybridSkipList, LockFreeSkipList, NmpSkipList};
    pub use nmp_sim::{Config, Machine, Simulation, ThreadCtx, ThreadKind};
    pub use workloads::{InsertDist, Key, KeyDist, KeySpace, Mix, Op, Value, WorkloadSpec};
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_exposes_core_types() {
        use crate::prelude::*;
        let cfg = Config::tiny();
        cfg.validate();
        let _ = Mix::ycsb_c();
    }
}
