//! Connection-scaling sweep: blocking vs evented runtime, same machine,
//! same workload, increasing connection counts.
//!
//! For each connection count the sweep starts a fresh in-process server
//! per runtime, drives it with the deterministic loadgen mix over
//! held-open connections (the multiplexed client), and records a
//! [`SweepPoint`]. The thread-count asymmetry is the experiment:
//!
//! * **blocking** needs one worker (one host thread of the native
//!   machine) *per connection* — a worker owns its connection until it
//!   closes — but workers are publication-list clients, and the
//!   machine's fixed scratchpad caps them at
//!   [`max_viable_workers`] (32 on
//!   the default machine at 4 lanes). Its point records
//!   `workers == min(conns, max_viable)`: past the cap, surplus
//!   connections are *never adopted* and show up as `starved_conns`,
//!   with only the adopted connections' requests completing.
//! * **evented** serves every connection count with the same small fixed
//!   pool of reactor-workers — multiplexing is exactly what frees it
//!   from the scratchpad ceiling.
//!
//! The [`SweepSummary`] compares the two at the largest swept connection
//! count; `BENCH_10.json` is this report serialized.

use std::io;

use serde::{Deserialize, Serialize};

use workloads::{CacheMix, KeyDist};

use nmp_sim::Config;

use crate::loadgen::{self, LoadgenOpts};
use crate::runtime::{EventedOpts, RuntimeKind};
use crate::server::{max_viable_workers, Server, ServerOpts};
use crate::ttl::Clock;

/// Sweep configuration.
#[derive(Debug, Clone)]
pub struct SweepOpts {
    /// Connection counts to sweep (each measured for both runtimes).
    pub conn_counts: Vec<u32>,
    /// Total timed requests per point, split evenly across connections.
    pub total_ops: u32,
    /// Key universe size.
    pub keys: u32,
    /// Root seed for the request streams.
    pub seed: u64,
    /// Worker pool size for the evented runtime (blocking always uses
    /// one worker per connection).
    pub evented_workers: usize,
    /// Optional open-loop offered rate (requests/second, total); `None`
    /// runs closed-loop.
    pub rate: Option<u32>,
    /// Closed-loop client threads multiplexing the connections (`0` =
    /// one client thread per connection). The sweep defaults to a small
    /// pool so the *generator* stays off the scheduler's back and the
    /// measured difference is the server runtimes', not the client's.
    pub client_threads: u32,
    /// Outstanding requests per connection (memcached pipelining) in the
    /// multiplexed client; matching the server's `max_inflight` keeps
    /// every connection's offload lanes busy.
    pub pipeline: u32,
}

impl Default for SweepOpts {
    fn default() -> Self {
        SweepOpts {
            conn_counts: vec![4, 64, 512],
            total_ops: 25_600,
            keys: 4096,
            seed: 42,
            evented_workers: 4,
            rate: None,
            client_threads: 8,
            pipeline: 4,
        }
    }
}

/// One (runtime, connection count) measurement.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepPoint {
    /// `blocking` or `evented`.
    pub runtime: String,
    /// Concurrent client connections driven.
    pub conns: u32,
    /// Server worker threads (host cores of the native machine).
    pub workers: usize,
    /// Timed requests completed (starved connections' requests excluded).
    pub total_ops: u64,
    /// Connections the server answered at least once.
    pub served_conns: u32,
    /// Connections never adopted by the server (its worker pool was
    /// full); their requests went unserved.
    pub starved_conns: u32,
    /// Wall-clock seconds of the timed phase.
    pub elapsed_s: f64,
    /// Served requests per second.
    pub ops_per_sec: f64,
    /// Median latency, microseconds.
    pub p50_us: f64,
    /// 95th-percentile latency, microseconds.
    pub p95_us: f64,
    /// 99th-percentile latency, microseconds.
    pub p99_us: f64,
}

/// Blocking-vs-evented comparison at the largest swept connection count.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepSummary {
    /// The connection count the comparison is taken at.
    pub conns: u32,
    /// Blocking's worker (thread) count at that point — its max viable
    /// (capped by the machine's publication-list scratchpad).
    pub blocking_workers: usize,
    /// Blocking throughput there.
    pub blocking_ops_per_sec: f64,
    /// Connections blocking never served at that point.
    pub blocking_starved_conns: u32,
    /// Evented's worker count.
    pub evented_workers: usize,
    /// Evented throughput there.
    pub evented_ops_per_sec: f64,
    /// `evented_ops_per_sec / blocking_ops_per_sec`.
    pub evented_vs_blocking: f64,
}

/// The artifact written to `BENCH_10.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepReport {
    /// Artifact tag (`conn_scaling`).
    pub experiment: String,
    /// The PR that introduced the artifact.
    pub pr: u32,
    /// Memory backend serving the requests (`native`).
    pub backend: String,
    /// get/set/delete mix label.
    pub mix: String,
    /// `closed` or `open` loadgen arrivals.
    pub mode: String,
    /// Client threads multiplexing the connections (`0` = one per
    /// connection).
    pub client_threads: u32,
    /// Outstanding requests per connection in the multiplexed client.
    pub pipeline: u32,
    /// Every (runtime, conns) measurement.
    pub points: Vec<SweepPoint>,
    /// Head-to-head at the largest connection count.
    pub summary: SweepSummary,
}

/// Measure one (runtime, conns, workers) point on a fresh server.
fn run_point(
    runtime: RuntimeKind,
    conns: u32,
    workers: usize,
    opts: &SweepOpts,
) -> io::Result<SweepPoint> {
    let server = Server::start(&ServerOpts {
        addr: "127.0.0.1:0".into(),
        workers,
        buckets: 1024,
        max_inflight: 4,
        seed: opts.seed,
        runtime,
        evented: EventedOpts::default(),
        clock: Clock::System,
    })?;
    let report = loadgen::run(&LoadgenOpts {
        addr: server.addr().to_string(),
        conns,
        per_conn: (opts.total_ops / conns).max(1),
        seed: opts.seed,
        mix: CacheMix::read_heavy(),
        dist: KeyDist::Zipfian,
        keys: opts.keys,
        preload: true,
        shutdown: true,
        rate: opts.rate,
        client_threads: opts.client_threads,
        pipeline: opts.pipeline,
        starve_timeout_ms: 250,
    })?;
    server.wait();
    Ok(SweepPoint {
        runtime: match runtime {
            RuntimeKind::Blocking => "blocking".into(),
            RuntimeKind::Evented => "evented".into(),
        },
        conns,
        workers,
        total_ops: report.total_ops,
        served_conns: report.served_conns,
        starved_conns: report.starved_conns,
        elapsed_s: report.elapsed_s,
        ops_per_sec: report.ops_per_sec,
        p50_us: report.p50_us,
        p95_us: report.p95_us,
        p99_us: report.p99_us,
    })
}

/// Run the full sweep and assemble the report.
pub fn run(opts: &SweepOpts) -> io::Result<SweepReport> {
    assert!(!opts.conn_counts.is_empty(), "sweep needs at least one connection count");
    let mut points = Vec::new();
    // The machine's publication-list ceiling: blocking cannot field more
    // host threads than this no matter the connection count.
    let cap = max_viable_workers(&Config::default_scaled(), 4);
    for &conns in &opts.conn_counts {
        for runtime in [RuntimeKind::Blocking, RuntimeKind::Evented] {
            let workers = match runtime {
                RuntimeKind::Blocking => (conns as usize).min(cap),
                RuntimeKind::Evented => opts.evented_workers,
            };
            eprintln!("sweep: {runtime:?} conns={conns} workers={workers}…");
            points.push(run_point(runtime, conns, workers, opts)?);
        }
    }

    let max_conns = *opts.conn_counts.iter().max().unwrap();
    let at = |rt: &str| {
        points.iter().find(|p| p.runtime == rt && p.conns == max_conns).expect("sweep point exists")
    };
    let blocking = at("blocking");
    let evented = at("evented");
    let summary = SweepSummary {
        conns: max_conns,
        blocking_workers: blocking.workers,
        blocking_ops_per_sec: blocking.ops_per_sec,
        blocking_starved_conns: blocking.starved_conns,
        evented_workers: evented.workers,
        evented_ops_per_sec: evented.ops_per_sec,
        evented_vs_blocking: if blocking.ops_per_sec > 0.0 {
            evented.ops_per_sec / blocking.ops_per_sec
        } else {
            0.0
        },
    };
    Ok(SweepReport {
        experiment: "conn_scaling".into(),
        pr: 10,
        backend: "native".into(),
        mix: CacheMix::read_heavy().label(),
        mode: if opts.rate.is_some() { "open".into() } else { "closed".into() },
        client_threads: opts.client_threads,
        pipeline: opts.pipeline,
        points,
        summary,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_serializes_with_summary() {
        let p = SweepPoint {
            runtime: "evented".into(),
            conns: 4,
            workers: 2,
            total_ops: 100,
            served_conns: 4,
            starved_conns: 0,
            elapsed_s: 0.5,
            ops_per_sec: 200.0,
            p50_us: 10.0,
            p95_us: 20.0,
            p99_us: 30.0,
        };
        let r = SweepReport {
            experiment: "conn_scaling".into(),
            pr: 10,
            backend: "native".into(),
            mix: "90-9-1".into(),
            mode: "closed".into(),
            client_threads: 8,
            pipeline: 4,
            points: vec![p],
            summary: SweepSummary {
                conns: 4,
                blocking_workers: 4,
                blocking_ops_per_sec: 100.0,
                blocking_starved_conns: 0,
                evented_workers: 2,
                evented_ops_per_sec: 200.0,
                evented_vs_blocking: 2.0,
            },
        };
        let json = serde_json::to_string(&r).unwrap();
        assert!(json.contains("\"experiment\":\"conn_scaling\""));
        assert!(json.contains("\"evented_vs_blocking\":"));
        let back: SweepReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.summary.evented_vs_blocking, 2.0);
        assert_eq!(back.points.len(), 1);
    }
}
