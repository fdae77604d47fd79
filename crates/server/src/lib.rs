//! # hybrids-server — a cache front end over a native run
//!
//! This crate turns the reproduction's [`HybridHashMap`] into a running
//! network service: a memcached-text-protocol server whose connection
//! workers are host threads of a [`nmp_sim::NativeRun`], executing the
//! *same* offload-client code the cycle-accurate simulator verifies — but
//! on free-running OS threads at hardware speed (see `DESIGN.md` §4.11:
//! one RAM, two engines). Those workers are the only threads there are: a
//! native run has no NMP processor, so the worker that posts a request
//! also runs the flat-combining pass that serves it.
//!
//! The pieces:
//!
//! * [`proto`] — incremental memcached text parser (pipelining,
//!   partial-frame buffering, malformed-input tolerance) and the
//!   reference response encoders,
//! * [`service`] — the request-execution layer: one code path from a
//!   parsed command to response bytes,
//! * [`ttl`] — memcached `exptime` semantics: absolute-expiry table,
//!   lazy expiry on `get`, injectable clock,
//! * [`runtime`] — the connection runtime (Linux-only): every worker is
//!   an epoll reactor executing its own connections' requests (connection
//!   state machines, idle sweep, write backpressure, graceful drain),
//! * [`server`] — the `hybrids-server` facade: the reactor-worker host
//!   threads of one native run,
//! * [`loadgen`] — the `hybrids-loadgen` client: deterministic
//!   workload-driven request streams, closed- and open-loop latency
//!   measurement, and the JSON report.
//!
//! [`HybridHashMap`]: hybrids::hashmap::HybridHashMap
#![warn(missing_docs)]

pub mod loadgen;
pub mod proto;
pub mod runtime;
pub mod server;
pub mod service;
pub mod ttl;

pub use loadgen::{LoadReport, LoadgenOpts};
pub use proto::{Command, Parsed, Parser};
pub use runtime::{EventedOpts, RuntimeKind};
pub use server::{max_viable_workers, Server, ServerOpts};
pub use service::{ServeCounters, Service};
pub use ttl::{Clock, TtlTable};
