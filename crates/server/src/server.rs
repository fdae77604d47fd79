//! The `hybrids-server` runtime: a listener plus worker threads serving
//! the memcached text protocol over a [`HybridHashMap`] driven by a
//! native run.
//!
//! Each of the `workers` is a reactor (see [`crate::runtime`] and
//! `DESIGN.md` §4.12): it multiplexes its share of the connections over
//! epoll and executes their requests inline; worker 0 also accepts.
//! Each worker is a *host thread of the native run* (a distinct host core
//! of the machine model), so its `ThreadCtx` can drive the
//! publication-list offload client directly — the exact same
//! `HybridHashMap::execute` path the simulator verifies, on the same RAM,
//! at hardware speed. The workers are the only threads: a native run has no
//! NMP processor, so a worker that finds its request unserved takes the
//! partition's combiner and runs the flat-combining pass itself
//! (`hybrids::publist`); `--workers N` is N + 1 OS threads, main included.
//!
//! Host threads are an architectural constant — every one owns
//! publication-list slots in each partition's fixed scratchpad
//! ([`max_viable_workers`]) — which is why connections are multiplexed
//! over the workers and never mapped to threads of their own.
//!
//! Shutdown: the `shutdown` protocol verb (or [`Server::stop`]) raises a
//! flag; accepting stops, in-flight requests drain, and [`Server::wait`]
//! joins the workers before returning the map for inspection. A worker
//! that panics (say, on an exhausted partition arena) stops the run: its
//! siblings fail on their next offload to the dead partition instead of
//! waiting on it, and `wait` re-raises the first panic.

use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use hybrids::hashmap::HybridHashMap;
use hybrids::publist;
use nmp_sim::{Config, Machine, NativeRun, ThreadKind};

use crate::runtime::reactor::Reactor;
use crate::runtime::{EventedOpts, RuntimeKind};
use crate::service::{ServeCounters, Service};
use crate::ttl::{Clock, TtlTable};

/// Server construction options.
#[derive(Debug, Clone)]
pub struct ServerOpts {
    /// Bind address, e.g. `127.0.0.1:11211` (port 0 picks a free port).
    pub addr: String,
    /// Request workers — each is one host core of the machine model.
    pub workers: usize,
    /// Hash-map buckets (multiple of the machine's partition count).
    pub buckets: u32,
    /// Offload lanes (publication-list slots per partition) per host core.
    /// The service posts blocking operations, which use lane 0 only; lanes
    /// 1.. are slots every combining pass scans and nobody fills, until
    /// batching a reactor's ready set through `issue`/`poll` (parked in
    /// ROADMAP) gives them a poster. No flag sets this.
    pub max_inflight: usize,
    /// Hash seed for the map.
    pub seed: u64,
    /// Has one value and selects nothing; see [`RuntimeKind`].
    pub runtime: RuntimeKind,
    /// Connection-runtime tuning.
    pub evented: EventedOpts,
    /// Time source for `exptime` expiry (manual in tests).
    pub clock: Clock,
}

impl Default for ServerOpts {
    fn default() -> Self {
        ServerOpts {
            addr: "127.0.0.1:11211".into(),
            workers: 4,
            buckets: 1024,
            max_inflight: 4,
            seed: 42,
            runtime: RuntimeKind::Evented,
            evented: EventedOpts::default(),
            clock: Clock::System,
        }
    }
}

/// The largest worker pool the machine's publication lists can carry at
/// `max_inflight` lanes per worker: every worker owns `max_inflight`
/// 64-byte slots in each partition's scratchpad, and the scratchpad is a
/// fixed architectural parameter. Past it the server cannot add host
/// threads no matter how many connections arrive.
pub fn max_viable_workers(cfg: &Config, max_inflight: usize) -> usize {
    let per_worker = publist::SLOT_BYTES as u64 * max_inflight.max(1) as u64;
    (cfg.scratchpad_bytes as u64 / per_worker) as usize
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidInput, msg)
}

/// Reject option values the machine and the map would otherwise assert on.
fn validate(opts: &ServerOpts, cfg: &Config) -> io::Result<()> {
    if opts.workers == 0 {
        return Err(invalid("--workers 0: need at least one worker".into()));
    }
    if opts.max_inflight == 0 {
        return Err(invalid("max_inflight 0: need at least one offload lane per worker".into()));
    }
    let parts = cfg.nmp_partitions() as u32;
    if opts.buckets == 0 || !opts.buckets.is_multiple_of(parts) {
        return Err(invalid(format!(
            "--buckets {}: must be a nonzero multiple of the machine's {parts} partitions",
            opts.buckets
        )));
    }
    if opts.buckets as u64 * 8 > cfg.l2.size_bytes as u64 {
        return Err(invalid(format!(
            "--buckets {}: the bucket directory ({} B) must fit the {} B LLC (at most {} buckets)",
            opts.buckets,
            opts.buckets as u64 * 8,
            cfg.l2.size_bytes,
            cfg.l2.size_bytes / 8,
        )));
    }
    let cap = max_viable_workers(cfg, opts.max_inflight);
    if opts.workers > cap {
        return Err(io::Error::other(format!(
            "{} workers need {} B of publication-list scratchpad, machine has {} B \
             (max viable {} workers at inflight {})",
            opts.workers,
            (opts.workers as u64)
                .saturating_mul(opts.max_inflight as u64)
                .saturating_mul(publist::SLOT_BYTES as u64),
            cfg.scratchpad_bytes,
            cap,
            opts.max_inflight,
        )));
    }
    Ok(())
}

/// A running server (listener + native run).
pub struct Server {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    run: NativeRun,
    map: Arc<HybridHashMap>,
    counters: Arc<ServeCounters>,
}

impl Server {
    /// Build the machine, the map and one reactor per worker; bind the
    /// listener and start accepting.
    pub fn start(opts: &ServerOpts) -> io::Result<Server> {
        let mut cfg = Config::default_scaled();
        cfg.host_cores = opts.workers;
        validate(opts, &cfg)?;
        let machine = Machine::new(cfg);
        let map =
            HybridHashMap::new(Arc::clone(&machine), opts.buckets, opts.seed, opts.max_inflight);

        let listener = TcpListener::bind(&opts.addr)
            .map_err(|e| io::Error::new(e.kind(), format!("bind {} failed: {e}", opts.addr)))?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;

        let shutdown = Arc::new(AtomicBool::new(false));
        let counters = Arc::new(ServeCounters::default());
        let service = Arc::new(Service {
            map: Arc::clone(&map),
            ttl: TtlTable::new(opts.clock.clone()),
            counters: Arc::clone(&counters),
        });
        let mut run = machine.native_run();
        map.spawn_services_on(&mut run);

        // Each reactor runs as host thread `core` of `run`, so
        // `NativeRun::finish` joins it once it has drained and propagates
        // its panic; reactor 0 accepts from `listener`.
        let mut reactors = (0..opts.workers)
            .map(|_| Reactor::new(&opts.evented, Arc::clone(&counters), Arc::clone(&shutdown)))
            .collect::<io::Result<Vec<_>>>()?;
        let peers = reactors.iter().map(Reactor::handle).collect();
        reactors[0].listen(listener, peers)?;
        for (core, reactor) in reactors.into_iter().enumerate() {
            let service = Arc::clone(&service);
            run.spawn(format!("conn-{core}"), ThreadKind::Host { core }, move |ctx| {
                reactor.run(ctx, &service);
            });
        }

        Ok(Server { addr, shutdown, run, map, counters })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live served-traffic counters (also returned by [`Server::wait`]).
    pub fn counters(&self) -> Arc<ServeCounters> {
        Arc::clone(&self.counters)
    }

    /// Request shutdown from outside the protocol.
    pub fn stop(&self) {
        self.shutdown.store(true, Ordering::Release);
    }

    /// Block until shutdown, join the workers, and hand back the map and
    /// counters for inspection.
    pub fn wait(self) -> (Arc<HybridHashMap>, Arc<ServeCounters>) {
        // Each worker returns once it has drained; there is nobody else.
        self.run.finish();
        (self.map, self.counters)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `Server::start`'s error for `opts` (the listener is never bound:
    /// every case here is rejected before the machine is built).
    fn rejected(opts: ServerOpts) -> io::Error {
        match Server::start(&ServerOpts { addr: "127.0.0.1:0".into(), ..opts }) {
            Ok(_) => panic!("options were accepted"),
            Err(e) => e,
        }
    }

    #[test]
    fn zero_workers_is_invalid_input() {
        let e = rejected(ServerOpts { workers: 0, ..ServerOpts::default() });
        assert_eq!(e.kind(), io::ErrorKind::InvalidInput);
        assert_eq!(e.to_string(), "--workers 0: need at least one worker");
    }

    #[test]
    fn zero_lanes_is_invalid_input() {
        let e = rejected(ServerOpts { max_inflight: 0, ..ServerOpts::default() });
        assert_eq!(e.kind(), io::ErrorKind::InvalidInput);
        assert!(e.to_string().starts_with("max_inflight 0:"), "{e}");
    }

    #[test]
    fn buckets_not_splitting_across_partitions_is_invalid_input() {
        for buckets in [0, 1001] {
            let e = rejected(ServerOpts { buckets, ..ServerOpts::default() });
            assert_eq!(e.kind(), io::ErrorKind::InvalidInput);
            assert_eq!(
                e.to_string(),
                format!(
                    "--buckets {buckets}: must be a nonzero multiple of the machine's 8 partitions"
                )
            );
        }
    }

    #[test]
    fn directory_larger_than_the_llc_is_invalid_input() {
        let e = rejected(ServerOpts { buckets: 16_384, ..ServerOpts::default() });
        assert_eq!(e.kind(), io::ErrorKind::InvalidInput);
        assert_eq!(
            e.to_string(),
            "--buckets 16384: the bucket directory (131072 B) must fit the 65536 B LLC \
             (at most 8192 buckets)"
        );
    }

    #[test]
    fn one_worker_past_the_scratchpad_ceiling_keeps_its_message() {
        let cap = max_viable_workers(&Config::default_scaled(), 4);
        assert_eq!(cap, 32);
        let e = rejected(ServerOpts { workers: cap + 1, ..ServerOpts::default() });
        assert_eq!(
            e.to_string(),
            "33 workers need 8448 B of publication-list scratchpad, machine has 8192 B \
             (max viable 32 workers at inflight 4)"
        );
    }

    #[test]
    fn the_largest_valid_options_start() {
        let server = Server::start(&ServerOpts {
            addr: "127.0.0.1:0".into(),
            workers: 32,
            buckets: 8192,
            ..ServerOpts::default()
        })
        .expect("boundary values are valid");
        server.stop();
        server.wait();
    }
}
