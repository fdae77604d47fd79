//! The deterministic simulation engine.
//!
//! A [`Simulation`] runs on the OS thread that calls [`Simulation::run`].
//! Every logical thread is a stackful coroutine (`coro`) and one
//! minimum-`(clock, spawn id)` loop (`sched`) resumes them, so exactly one
//! logical thread executes at a time and effects on shared words, trace
//! events and analysis events land live in global `(completion cycle, spawn
//! id)` order. `core` holds the thread-side half ([`ThreadCtx`],
//! [`Simulation`]); `native` runs the same bodies as free OS threads with no
//! scheduler at all.
//!
//! See `DESIGN.md` §4.9 for the loop and the determinism argument.

mod core;
mod coro;
mod native;
mod sched;

pub use self::core::{
    IdleSequence, Resume, SimOutcome, Simulation, ThreadCtx, ThreadFn, ThreadKind,
};
pub use self::native::{NativeRun, Spawner};
