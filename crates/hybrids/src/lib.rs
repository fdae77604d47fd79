//! # hybrids — HybriDS concurrent data structures on a simulated NMP machine
//!
//! Reproduction of *HybriDS: Cache-Conscious Concurrent Data Structures for
//! Near-Memory Processing Architectures* (Choe, Crotty, Moreshet, Herlihy,
//! Bahar — SPAA 2022), built on the [`nmp_sim`] substrate.
//!
//! ## Structures
//!
//! | paper name | type | here |
//! |---|---|---|
//! | *lock-free* | skiplist baseline (non-NMP) | [`skiplist::LockFreeSkipList`] |
//! | *NMP-based* | flat-combining skiplist (prior work) | [`skiplist::NmpSkipList`] |
//! | **hybrid skiplist** | §3.3 | [`skiplist::HybridSkipList`] |
//! | *host-only* | seqlock B+ tree baseline | [`btree::HostBTree`] |
//! | **hybrid B+ tree** | §3.4 | [`btree::HybridBTree`] |
//! | **hybrid hash map** | §6.3 extension | [`hashmap::HybridHashMap`] |
//! | **hybrid priority queue** | §6.3 extension | [`pqueue::HybridPqueue`] |
//!
//! All structures implement [`api::SimIndex`]: operations execute inside
//! the simulator on logical host threads, with blocking (`execute`) or
//! non-blocking (`issue`/`poll`, §3.5) NMP calls. [`driver::run_index`]
//! runs a YCSB-style workload and reports the paper's metrics.
//!
//! ## Example
//!
//! ```
//! use std::sync::Arc;
//! use hybrids::skiplist::HybridSkipList;
//! use hybrids::api::SimIndex;
//! use hybrids::driver::{run_index, RunSpec};
//! use nmp_sim::{Config, Machine};
//! use workloads::{KeySpace, WorkloadSpec};
//!
//! let machine = Machine::new(Config::tiny());
//! let ks = KeySpace::new(512, 2, 64);
//! let sl = HybridSkipList::new(Arc::clone(&machine), ks, 10, 4, 42, 4);
//! sl.populate((0..ks.total_initial()).map(|i| (ks.initial_key(i), i)));
//!
//! let spec = RunSpec::new(WorkloadSpec::ycsb_c(7, 2, 50), 10, 1);
//! let result = run_index(&machine, &sl, &ks, &spec);
//! assert_eq!(result.measured_ops, 100);
//! sl.check_invariants();
//! ```

#![warn(missing_docs)]

pub mod api;
pub mod btree;
pub mod driver;
pub mod effects;
pub mod hashmap;
pub mod offload;
pub mod pqueue;
pub mod publist;
pub mod skiplist;

pub use api::{Issued, OpResult, PollOutcome, SimIndex};
pub use driver::run_index_recorded;
pub use driver::{run_index, RunResult, RunSpec};
pub use effects::{register_effect_spec, topology};
pub use offload::policy::Policy;
pub use offload::{OffloadClient, OffloadRuntime, Offloaded, PendingOp, Step};
