//! The `hybrids-server` runtime: a listener plus worker threads serving
//! the memcached text protocol over a [`HybridHashMap`] running on the
//! native memory backend.
//!
//! Two selectable connection runtimes share this facade (see
//! [`RuntimeKind`] and `DESIGN.md` §4.12):
//!
//! * **blocking** — an acceptor OS thread `accept()`s connections and
//!   feeds them through a channel to `workers` connection workers; each
//!   worker owns one connection at a time, blocking on its socket.
//! * **evented** — each of the `workers` is a reactor: it multiplexes its
//!   share of the connections over epoll/poll and executes their requests
//!   inline; worker 0 also accepts (see [`crate::runtime`]).
//!
//! In both, each worker is a *host thread of the native run* (a distinct
//! host core of the machine model), so its [`ThreadCtx`] can drive the
//! publication-list offload client directly — the exact same
//! `HybridHashMap::execute` path the simulator verifies, now over real
//! atomics at hardware speed. The NMP combiners run as native daemons,
//! one per partition, just as they do under simulation. Requests execute
//! through the shared [`Service`] layer, so the two runtimes produce
//! byte-identical responses for identical request streams.
//!
//! Shutdown: the `shutdown` protocol verb (or [`Server::stop`]) raises a
//! flag; accepting stops, in-flight requests drain, and [`Server::wait`]
//! joins every thread (stopping the combiner daemons) before returning
//! the map for inspection.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::Mutex;

use hybrids::hashmap::HybridHashMap;
use hybrids::publist;
use nmp_sim::{Config, Machine, NativeRun, ThreadCtx, ThreadKind};

use crate::proto::{self, Command, Parsed, Parser};
use crate::runtime::{self, EventedOpts, RuntimeKind};
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
    /// Offload lanes per host core.
    pub max_inflight: usize,
    /// Hash seed for the map.
    pub seed: u64,
    /// Which connection runtime drives the sockets.
    pub runtime: RuntimeKind,
    /// Evented-runtime tuning (ignored under [`RuntimeKind::Blocking`]).
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
            runtime: RuntimeKind::Blocking,
            evented: EventedOpts::default(),
            clock: Clock::System,
        }
    }
}

/// The largest worker pool the machine's publication lists can carry at
/// `max_inflight` lanes per worker: every worker owns `max_inflight`
/// 64-byte slots in each partition's scratchpad, and the scratchpad is a
/// fixed architectural parameter. This is the blocking runtime's *max
/// viable thread count* — past it, a thread-per-connection server cannot
/// add host threads no matter how many connections arrive.
pub fn max_viable_workers(cfg: &Config, max_inflight: usize) -> usize {
    (cfg.scratchpad_bytes / (publist::SLOT_BYTES * max_inflight.max(1) as u32)) as usize
}

/// A running server (listener + native run), either runtime.
pub struct Server {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    /// The blocking runtime's acceptor OS thread; the evented runtime has
    /// no thread outside `run`.
    acceptor: Option<JoinHandle<()>>,
    run: NativeRun,
    map: Arc<HybridHashMap>,
    counters: Arc<ServeCounters>,
}

impl Server {
    /// Build the native machine, the map, the combiner daemons, and the
    /// chosen connection runtime; bind the listener and start accepting.
    pub fn start(opts: &ServerOpts) -> io::Result<Server> {
        assert!(opts.workers >= 1, "need at least one worker");
        let mut cfg = Config::default_scaled();
        cfg.host_cores = opts.workers;
        // Workers are publication-list clients: each needs `max_inflight`
        // scratchpad slots per partition, and the scratchpad is a fixed
        // architectural parameter of the machine — it does not grow to
        // absorb bigger thread pools. Surface the ceiling as a server
        // error instead of the publication list's deeper panic.
        let cap = max_viable_workers(&cfg, opts.max_inflight);
        if opts.workers > cap {
            return Err(io::Error::other(format!(
                "{} workers need {} B of publication-list scratchpad, machine has {} B \
                 (max viable {} workers at inflight {})",
                opts.workers,
                (opts.workers * opts.max_inflight) as u32 * publist::SLOT_BYTES,
                cfg.scratchpad_bytes,
                cap,
                opts.max_inflight,
            )));
        }
        let machine = Machine::new_native(cfg);
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

        let acceptor = match opts.runtime {
            RuntimeKind::Blocking => {
                let (tx, rx) = mpsc::channel::<TcpStream>();
                let rx = Arc::new(Mutex::new(rx));
                for core in 0..opts.workers {
                    let rx = Arc::clone(&rx);
                    let service = Arc::clone(&service);
                    let shutdown = Arc::clone(&shutdown);
                    run.spawn(format!("conn-{core}"), ThreadKind::Host { core }, move |ctx| {
                        blocking_worker_loop(ctx, &service, &rx, &shutdown);
                    });
                }
                let shutdown = Arc::clone(&shutdown);
                Some(
                    std::thread::Builder::new()
                        .name("acceptor".into())
                        .spawn(move || blocking_accept_loop(listener, tx, &shutdown))
                        .expect("spawn acceptor"),
                )
            }
            RuntimeKind::Evented => {
                runtime::start_evented(
                    listener,
                    Arc::clone(&service),
                    &mut run,
                    opts.workers,
                    Arc::clone(&shutdown),
                    &opts.evented,
                )?;
                None
            }
        };

        Ok(Server { addr, shutdown, acceptor, run, map, counters })
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

    /// Block until shutdown, join every thread, and hand back the map and
    /// counters for inspection.
    pub fn wait(self) -> (Arc<HybridHashMap>, Arc<ServeCounters>) {
        let Server { acceptor, run, map, counters, .. } = self;
        if let Some(acceptor) = acceptor {
            // Blocking workers exit once the acceptor drops the sender and
            // the channel drains.
            acceptor.join().expect("acceptor panicked");
        }
        // finish() joins the workers (evented: each reactor returns once
        // it has drained), then stops the combiner daemons.
        run.finish();
        (map, counters)
    }
}

fn blocking_accept_loop(listener: TcpListener, tx: mpsc::Sender<TcpStream>, shutdown: &AtomicBool) {
    while !shutdown.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _)) => {
                if tx.send(stream).is_err() {
                    break; // all workers gone
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
    // Dropping `tx` here disconnects the workers' queue.
}

fn blocking_worker_loop(
    ctx: &mut ThreadCtx,
    service: &Service,
    rx: &Mutex<mpsc::Receiver<TcpStream>>,
    shutdown: &AtomicBool,
) {
    loop {
        // Take the lock only long enough to pull one connection.
        let next = rx.lock().recv_timeout(Duration::from_millis(20));
        match next {
            Ok(stream) => {
                if serve_conn(ctx, service, stream, shutdown).unwrap_or(false) {
                    shutdown.store(true, Ordering::Release);
                }
                service.counters.conns.fetch_add(1, Ordering::Relaxed);
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                if shutdown.load(Ordering::Acquire) {
                    return;
                }
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => return,
        }
    }
}

/// Serve one connection to completion (blocking runtime). Returns
/// `Ok(true)` if the client asked for server shutdown.
fn serve_conn(
    ctx: &mut ThreadCtx,
    service: &Service,
    mut stream: TcpStream,
    shutdown: &AtomicBool,
) -> io::Result<bool> {
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(Duration::from_millis(50)))?;
    let mut parser = Parser::new();
    let mut rdbuf = [0u8; 4096];
    let mut out = Vec::new();
    loop {
        let n = match stream.read(&mut rdbuf) {
            Ok(0) => return Ok(false), // client hung up
            Ok(n) => n,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if shutdown.load(Ordering::Acquire) {
                    return Ok(false);
                }
                continue;
            }
            Err(e) => return Err(e),
        };
        parser.push(&rdbuf[..n]);
        out.clear();
        // Drain every command completed by this read (pipelining), then
        // flush one combined write.
        for step in parser.by_ref() {
            match step {
                Parsed::Cmd(Command::Quit) => {
                    stream.write_all(&out)?;
                    return Ok(false);
                }
                Parsed::Cmd(Command::Shutdown) => {
                    out.extend_from_slice(proto::encode_ok());
                    stream.write_all(&out)?;
                    return Ok(true);
                }
                Parsed::Cmd(cmd) => service.execute(ctx, &cmd, &mut out),
                Parsed::Error { line, fatal } => {
                    service.counters.proto_errors.fetch_add(1, Ordering::Relaxed);
                    out.extend_from_slice(&proto::encode_error_line(&line));
                    if fatal {
                        stream.write_all(&out)?;
                        return Ok(false);
                    }
                }
            }
        }
        if !out.is_empty() {
            stream.write_all(&out)?;
        }
    }
}
