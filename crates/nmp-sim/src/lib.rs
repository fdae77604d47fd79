//! # nmp-sim — a deterministic near-memory-processing architecture simulator
//!
//! This crate is the evaluation substrate for the HybriDS reproduction: a
//! cycle-approximate model of the machine in Table 1 of *HybriDS:
//! Cache-Conscious Concurrent Data Structures for Near-Memory Processing
//! Architectures* (SPAA '22):
//!
//! * 8 host cores with private L1 caches and a shared L2 (the LLC),
//! * an HMC-style memory device with 16 vaults (8 host main-memory vaults,
//!   8 NMP vaults) and per-bank open-row DRAM timing,
//! * one in-order, cache-less NMP core per NMP vault, equipped with a single
//!   node-size register buffer and a scratchpad that is memory-mapped into
//!   the host address space (the publication-list channel),
//! * a deterministic discrete-event engine that interleaves logical host /
//!   NMP threads at memory-access granularity, as coroutines on the OS
//!   thread that runs the simulation.
//!
//! The machine's bytes live in one [`Ram`] (real atomics, real orderings).
//! A [`Simulation`] and a [`NativeRun`] — free-running OS threads, no cycle
//! accounting — are two engines over it: they differ in timing, yielding
//! and tracing, never in the loads, stores and CASes they execute.
//!
//! See `DESIGN.md` at the repository root for the fidelity argument and the
//! list of deliberate simplifications relative to gem5/SMCSim.
//!
//! ## The `analysis` layer
//!
//! The crate ships three engine-integrated correctness checkers in the
//! [`analysis`] module:
//!
//! * a vector-clock happens-before **race detector** over simulated
//!   addresses, where simulated CAS and acquire/release-annotated accesses
//!   are the synchronization operations,
//! * a **region-policy lint** that records (instead of panicking on) host
//!   accesses to NMP partitions, NMP accesses to foreign regions, and
//!   non-MMIO scratchpad accesses,
//! * a **linearizability checker** over recorded operation histories,
//!   verified against a sequential map oracle.
//!
//! The checkers are opt-in at runtime: call [`Machine::attach_analysis`]
//! before running simulations, then inspect [`analysis::Report`] (or the
//! `races_detected` / `policy_violations` counters in a
//! [`StatsSnapshot`]). When nothing is attached the per-access overhead is
//! a single atomic load, and benchmarks simply never attach.
//!
//! ## The `trace` layer
//!
//! The [`trace`] module provides a cycle-level event tracer: op-lifecycle
//! spans (host phase, MMIO post, combiner batch, NMP execution, response
//! drain, retries), DRAM vault occupancy events, per-op-kind latency
//! histograms, and a Perfetto / Chrome-trace JSON exporter ([`trace::TraceSink::chrome_json`]). Like
//! `analysis` it is opt-in at runtime ([`Machine::attach_tracer`]) and
//! untimed: attaching a tracer never changes simulated cycle counts, and the
//! exported trace is byte-identical across runs of the same seed/config.
//! Both layers are always compiled and independent: each is its own
//! `OnceLock` hook on [`MemorySystem`], and any combination of attached
//! and unattached runs with identical simulated timing.
//!
//! ## Quick tour
//!
//! ```
//! use nmp_sim::{Config, Machine, ThreadKind};
//!
//! let machine = Machine::new(Config::tiny());
//! let addr = machine.host_arena().alloc(8);
//! machine.ram().write_u64(addr, 1); // untimed population
//!
//! let mut sim = machine.simulation();
//! sim.spawn("host-0", ThreadKind::Host { core: 0 }, move |ctx| {
//!     let v = ctx.read_u64(addr); // timed: caches + DRAM model
//!     ctx.write_u64(addr, v + 1);
//! });
//! let outcome = sim.run();
//! assert_eq!(machine.ram().read_u64(addr), 2);
//! assert!(outcome.makespan() > 0);
//! ```
#![warn(missing_docs)]

pub mod alloc;
pub mod analysis;
pub mod backend;
pub mod cache;
pub mod config;
pub mod dram;
pub mod engine;
pub mod machine;
pub mod mem;
pub mod stats;
pub mod trace;

pub use alloc::Arena;
pub use analysis::{AccessDecl, EffectSpec, OpSpec, SpecError, Topology};
pub use analysis::{Analysis, HistEvent, HistOp, HistoryRecorder, Report};
pub use backend::Ram;
pub use config::{CacheConfig, Config, Policy};
pub use engine::{NativeRun, SimOutcome, Simulation, Spawner, ThreadCtx, ThreadFn, ThreadKind};
pub use machine::Machine;
pub use mem::{Addr, MemMap, MemorySystem, Region, NULL, OFFLOAD_HIST_BUCKETS, OFFLOAD_LANE_CAP};
pub use stats::{CacheStats, OffloadStats, StatsSnapshot, VaultStats};
pub use trace::{LatencyHist, TraceSink, Tracer};
