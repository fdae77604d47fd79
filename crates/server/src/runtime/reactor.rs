//! The reactor-worker: one host thread of the native run multiplexing
//! many connections over a [`Poller`] and executing their requests itself.
//!
//! Each reactor owns a slab of [`Conn`] state machines. A readiness event
//! drives the whole request on this one thread: read and parse, run every
//! dispatched command through [`Service::execute`] on the thread's own
//! [`ThreadCtx`], fill the response slots, flush. Nothing is handed to
//! another thread, so a connection's requests execute in arrival order by
//! construction and a response can never outlive its connection.
//!
//! Reactor 0 also owns the listening socket: it accepts in its own event
//! loop and deals connection *k* to reactor *k* mod N (itself included)
//! through that reactor's [`ReactorHandle`] inbox and self-pipe waker —
//! the only cross-thread traffic in the runtime.

use std::io;
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use nmp_sim::ThreadCtx;

use crate::proto::Command;
use crate::service::{ServeCounters, Service};

use super::conn::Conn;
use super::poller::{EpollPoller, Event, Interest, Poller};
use super::sys;
use super::EventedOpts;

/// Poller token reserved for the self-pipe waker.
const WAKER_TOKEN: usize = usize::MAX;

/// Poller token reserved for the listening socket (reactor 0 only).
const LISTENER_TOKEN: usize = usize::MAX - 1;

/// The self-pipe write end plus its wake-once latch.
struct Waker {
    fd: RawFd,
    /// True while a wake byte is in flight — collapses N wakes into one
    /// pipe write per reactor iteration.
    pending: AtomicBool,
}

impl Drop for Waker {
    fn drop(&mut self) {
        sys::close_fd(self.fd);
    }
}

/// Cloneable inbox of a reactor: the accepting reactor hands it freshly
/// accepted connections.
#[derive(Clone)]
pub struct ReactorHandle {
    inbox: Arc<Mutex<Vec<TcpStream>>>,
    waker: Arc<Waker>,
}

impl ReactorHandle {
    /// Hand a freshly accepted connection to the reactor.
    pub fn inject(&self, stream: TcpStream) {
        self.inbox.lock().push(stream);
        self.wake();
    }

    fn wake(&self) {
        if !self.waker.pending.swap(true, Ordering::AcqRel) {
            // A full pipe (WouldBlock) still wakes the reactor; any
            // other failure means the reactor is gone — nothing to do.
            let _ = sys::write_fd(self.waker.fd, &[1]);
        }
    }
}

struct Entry {
    conn: Conn<TcpStream>,
    interest: Interest,
}

/// The listening socket and the inboxes it deals to (reactor 0 only).
struct Acceptor {
    listener: TcpListener,
    peers: Vec<ReactorHandle>,
    /// Connections accepted so far; connection `k` goes to peer `k % N`.
    accepted: usize,
}

/// One reactor-worker's state. Construct with [`Reactor::new`], then move
/// into a host thread of the native run and call [`Reactor::run`].
pub struct Reactor {
    poller: Box<dyn Poller>,
    waker_rx: RawFd,
    handle: ReactorHandle,
    acceptor: Option<Acceptor>,
    entries: Vec<Option<Entry>>,
    free: Vec<usize>,
    opts: EventedOpts,
    counters: Arc<ServeCounters>,
    shutdown: Arc<AtomicBool>,
}

impl Reactor {
    /// Build a reactor over `epoll` with an empty inbox and no listener.
    pub fn new(
        opts: &EventedOpts,
        counters: Arc<ServeCounters>,
        shutdown: Arc<AtomicBool>,
    ) -> io::Result<Reactor> {
        Reactor::with_poller(Box::new(EpollPoller::new()?), opts, counters, shutdown)
    }

    /// [`Reactor::new`] over a caller-supplied poller (an in-memory
    /// transport's, or a test's).
    pub fn with_poller(
        mut poller: Box<dyn Poller>,
        opts: &EventedOpts,
        counters: Arc<ServeCounters>,
        shutdown: Arc<AtomicBool>,
    ) -> io::Result<Reactor> {
        let (waker_rx, waker_tx) = sys::pipe_nonblocking()?;
        poller.register(waker_rx, WAKER_TOKEN, Interest::READ)?;
        Ok(Reactor {
            poller,
            waker_rx,
            handle: ReactorHandle {
                inbox: Arc::new(Mutex::new(Vec::new())),
                waker: Arc::new(Waker { fd: waker_tx, pending: AtomicBool::new(false) }),
            },
            acceptor: None,
            entries: Vec::new(),
            free: Vec::new(),
            opts: *opts,
            counters,
            shutdown,
        })
    }

    /// The inbox other threads feed this reactor through.
    pub fn handle(&self) -> ReactorHandle {
        self.handle.clone()
    }

    /// Make this reactor the acceptor: watch the (non-blocking) `listener`
    /// and deal its connections round-robin over `peers`.
    pub fn listen(&mut self, listener: TcpListener, peers: Vec<ReactorHandle>) -> io::Result<()> {
        self.poller.register(listener.as_raw_fd(), LISTENER_TOKEN, Interest::READ)?;
        self.acceptor = Some(Acceptor { listener, peers, accepted: 0 });
        Ok(())
    }

    /// The event loop, run on host thread `ctx`. Returns once shutdown is
    /// requested and every connection has drained (or the drain deadline
    /// forced the issue).
    pub fn run(mut self, ctx: &mut ThreadCtx, service: &Service) {
        let epoch = Instant::now();
        let tick_ms = self.opts.tick_ms.max(1);
        let idle_ticks = (self.opts.idle_timeout_ms / tick_ms).max(1);
        let mut events = Vec::new();
        let mut dispatch: Vec<(u64, Command)> = Vec::new();
        let mut last_tick = 0u64;
        let mut draining = false;
        let mut drain_deadline = Instant::now();
        loop {
            let timeout = tick_ms.clamp(1, 50) as i32;
            if self.poller.poll(&mut events, timeout).is_err() {
                // A failing poller is unrecoverable; drop every conn.
                self.shutdown.store(true, Ordering::Release);
                break;
            }
            let now_tick = epoch.elapsed().as_millis() as u64 / tick_ms;

            // Self-pipe first, so the pending latch resets before the
            // inbox is swapped (a wake raced in after the swap will land
            // a fresh byte and re-wake us next iteration).
            if events.iter().any(|e| e.token == WAKER_TOKEN) {
                let mut sink = [0u8; 64];
                while matches!(sys::read_fd(self.waker_rx, &mut sink), Ok(n) if n > 0) {}
            }
            self.handle.waker.pending.store(false, Ordering::Release);
            let new_conns = std::mem::take(&mut *self.handle.inbox.lock());
            for stream in new_conns {
                self.admit(stream, now_tick, draining);
            }

            for &ev in &events {
                match ev.token {
                    WAKER_TOKEN => {}
                    LISTENER_TOKEN => self.accept(),
                    _ => self.handle_event(ev, now_tick, ctx, service, &mut dispatch),
                }
            }

            if now_tick > last_tick {
                self.sweep_idle(last_tick, now_tick, idle_ticks);
                last_tick = now_tick;
            }

            // `stop_requested` is the native run's flag: a sibling
            // reactor-worker panicked, so drain instead of serving on.
            if !draining && (self.shutdown.load(Ordering::Acquire) || ctx.stop_requested()) {
                draining = true;
                drain_deadline = Instant::now() + Duration::from_millis(self.opts.drain_ms);
                if let Some(acceptor) = self.acceptor.take() {
                    // Dropping the listener refuses further connects.
                    let _ = self.poller.deregister(acceptor.listener.as_raw_fd());
                }
                for idx in 0..self.entries.len() {
                    if let Some(entry) = self.entries[idx].as_mut() {
                        entry.conn.begin_close();
                    }
                    self.post_io(idx);
                }
            }
            if draining {
                for idx in 0..self.entries.len() {
                    if self.entries[idx].as_ref().is_some_and(|e| e.conn.should_close()) {
                        self.teardown(idx);
                    }
                }
                let live = self.entries.iter().filter(|e| e.is_some()).count();
                if live == 0 {
                    break;
                }
                if Instant::now() >= drain_deadline {
                    for idx in 0..self.entries.len() {
                        if self.entries[idx].is_some() {
                            self.teardown(idx);
                        }
                    }
                    break;
                }
            }
        }
    }

    /// Accept every pending connection (one readiness event can stand for
    /// a burst of connects) and deal each to the next peer in turn.
    fn accept(&mut self) {
        let Some(acceptor) = self.acceptor.as_mut() else {
            return; // a stale event from before the listener was dropped
        };
        // `WouldBlock` ends the burst; any other error is retried on the
        // next (level-triggered) readiness event.
        while let Ok((stream, _)) = acceptor.listener.accept() {
            acceptor.peers[acceptor.accepted % acceptor.peers.len()].inject(stream);
            acceptor.accepted += 1;
        }
    }

    /// Register a freshly accepted connection (or drop it mid-drain).
    fn admit(&mut self, stream: TcpStream, now_tick: u64, draining: bool) {
        if draining {
            return; // accepted after shutdown began: just close it
        }
        if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
            return;
        }
        if let Some(bytes) = self.opts.sock_sndbuf {
            // Best effort: a socket that keeps the kernel default still
            // works, it just backpressures later.
            let _ = sys::set_send_buffer(stream.as_raw_fd(), bytes);
        }
        let idx = self.free.pop().unwrap_or_else(|| {
            self.entries.push(None);
            self.entries.len() - 1
        });
        if self.poller.register(stream.as_raw_fd(), idx, Interest::READ).is_err() {
            self.free.push(idx);
            return;
        }
        let mut conn = Conn::new(stream, self.opts.conn_cfg());
        conn.last_active = now_tick;
        self.entries[idx] = Some(Entry { conn, interest: Interest::READ });
    }

    /// React to one readiness event on a connection: read, parse, execute
    /// what was dispatched, and queue the responses, all on this thread.
    fn handle_event(
        &mut self,
        ev: Event,
        now_tick: u64,
        ctx: &mut ThreadCtx,
        service: &Service,
        dispatch: &mut Vec<(u64, Command)>,
    ) {
        let idx = ev.token;
        let Some(entry) = self.entries.get_mut(idx).and_then(Option::as_mut) else {
            return; // already torn down this iteration
        };
        let mut dead = false;
        if ev.readable || ev.hangup {
            entry.conn.last_active = now_tick;
            match entry.conn.on_readable(dispatch) {
                Ok(outcome) => {
                    if outcome.shutdown {
                        self.shutdown.store(true, Ordering::Release);
                    }
                }
                Err(_) => dead = true,
            }
            // One read round dispatches at most `max_inflight_per_conn`
            // requests plus a chunk's worth, which bounds how long this
            // connection keeps the reactor from its neighbours.
            for (seq, cmd) in dispatch.drain(..) {
                let mut out = Vec::new();
                service.execute(ctx, &cmd, &mut out);
                entry.conn.complete(seq, out);
            }
        }
        if ev.hangup {
            // Hard error/hangup (not just half-close): both directions are
            // gone, responses can't be delivered — tear down now.
            dead = true;
        }
        if dead {
            self.teardown(idx);
        } else {
            self.post_io(idx);
        }
    }

    /// Flush, harvest counters, close-if-done, and sync poller interest —
    /// the common tail after anything touches a connection.
    fn post_io(&mut self, idx: usize) {
        let Some(entry) = self.entries.get_mut(idx).and_then(Option::as_mut) else {
            return;
        };
        if entry.conn.wants_write() && entry.conn.flush().is_err() {
            self.teardown(idx);
            return;
        }
        let pauses = entry.conn.take_pause_events();
        if pauses > 0 {
            self.counters.backpressure_pauses.fetch_add(pauses, Ordering::Relaxed);
        }
        let errors = entry.conn.take_proto_errors();
        if errors > 0 {
            self.counters.proto_errors.fetch_add(errors, Ordering::Relaxed);
        }
        if entry.conn.should_close() {
            self.teardown(idx);
            return;
        }
        let desired = Interest { read: entry.conn.wants_read(), write: entry.conn.wants_write() };
        if desired != entry.interest {
            let fd = entry.conn.stream().as_raw_fd();
            if self.poller.reregister(fd, idx, desired).is_ok() {
                if let Some(entry) = self.entries[idx].as_mut() {
                    entry.interest = desired;
                }
            }
        }
    }

    /// Idle eviction, called as the tick moves from `last_tick` to
    /// `now_tick`: eight times per idle timeout (whenever the tick crosses
    /// a multiple of `idle_ticks / 8`) every connection is looked at once
    /// and those silent for `idle_ticks` are closed, so an idle connection
    /// outlives its timeout by at most an eighth of it.
    fn sweep_idle(&mut self, last_tick: u64, now_tick: u64, idle_ticks: u64) {
        let every = (idle_ticks / 8).max(1);
        if now_tick / every == last_tick / every {
            return;
        }
        let idle = |e: &Entry| now_tick >= e.conn.last_active + idle_ticks;
        for idx in 0..self.entries.len() {
            if self.entries[idx].as_ref().is_some_and(idle) {
                self.counters.idle_evicted.fetch_add(1, Ordering::Relaxed);
                self.teardown(idx);
            }
        }
    }

    /// Remove a connection: deregister, close, recycle the slot.
    fn teardown(&mut self, idx: usize) {
        let Some(entry) = self.entries[idx].take() else {
            return;
        };
        let _ = self.poller.deregister(entry.conn.stream().as_raw_fd());
        self.free.push(idx);
        self.counters.conns.fetch_add(1, Ordering::Relaxed);
        // Dropping the entry closes the socket.
    }
}

impl Drop for Reactor {
    fn drop(&mut self) {
        sys::close_fd(self.waker_rx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn waker_collapses_repeat_wakes() {
        let shutdown = Arc::new(AtomicBool::new(false));
        let counters = Arc::new(ServeCounters::default());
        let reactor = Reactor::new(&EventedOpts::default(), counters, shutdown).unwrap();
        let handle = reactor.handle();
        // First wake writes a byte and latches; repeats are absorbed.
        handle.wake();
        assert!(handle.waker.pending.load(Ordering::Acquire));
        handle.wake();
        handle.wake();
        let mut buf = [0u8; 16];
        let n = sys::read_fd(reactor.waker_rx, &mut buf).unwrap();
        assert_eq!(n, 1, "three wakes, one byte");
    }

    /// A poller that never reports readiness and records what it watches.
    struct WatchList(Arc<Mutex<Vec<RawFd>>>);

    impl Poller for WatchList {
        fn register(&mut self, fd: RawFd, _token: usize, _interest: Interest) -> io::Result<()> {
            self.0.lock().push(fd);
            Ok(())
        }
        fn reregister(&mut self, _fd: RawFd, _token: usize, _interest: Interest) -> io::Result<()> {
            Ok(())
        }
        fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
            self.0.lock().retain(|&watched| watched != fd);
            Ok(())
        }
        fn poll(&mut self, events: &mut Vec<Event>, _timeout_ms: i32) -> io::Result<()> {
            events.clear();
            Ok(())
        }
    }

    #[test]
    fn idle_sweep_spares_recent_traffic_and_evicts_within_an_eighth_past_the_timeout() {
        const IDLE: u64 = 80;
        let watched = Arc::new(Mutex::new(Vec::new()));
        let counters = Arc::new(ServeCounters::default());
        let mut reactor = Reactor::with_poller(
            Box::new(WatchList(Arc::clone(&watched))),
            &EventedOpts::default(),
            Arc::clone(&counters),
            Arc::new(AtomicBool::new(false)),
        )
        .unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        // Both connections arrive at tick 3; the clients stay open throughout.
        let mut admit = || {
            let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
            let (stream, _) = listener.accept().unwrap();
            let fd = stream.as_raw_fd();
            reactor.admit(stream, 3, false);
            (client, fd)
        };
        let (_quiet_client, quiet) = admit();
        let (_busy_client, busy) = admit();
        let (quiet_idx, busy_idx) = (0, 1);
        let live = |r: &Reactor, idx: usize| r.entries[idx].is_some();

        let mut quiet_evicted_at = None;
        let mut busy_evicted_at = None;
        for tick in 4..=200 {
            if tick == 60 {
                // Traffic: what `handle_event` stamps on a readable event.
                reactor.entries[busy_idx].as_mut().unwrap().conn.last_active = tick;
            }
            reactor.sweep_idle(tick - 1, tick, IDLE);
            if quiet_evicted_at.is_none() && !live(&reactor, quiet_idx) {
                quiet_evicted_at = Some(tick);
                assert!(live(&reactor, busy_idx), "traffic at tick 60 is inside the timeout");
                assert!(!watched.lock().contains(&quiet) && watched.lock().contains(&busy));
            }
            if busy_evicted_at.is_none() && !live(&reactor, busy_idx) {
                busy_evicted_at = Some(tick);
            }
        }
        let within = |at: Option<u64>, last_active: u64| {
            let at = at.expect("evicted");
            (last_active + IDLE..=last_active + IDLE + IDLE / 8).contains(&at)
        };
        assert!(within(quiet_evicted_at, 3), "quiet conn evicted at {quiet_evicted_at:?}");
        assert!(within(busy_evicted_at, 60), "busy conn evicted at {busy_evicted_at:?}");
        assert_eq!(counters.idle_evicted.load(Ordering::Relaxed), 2);
        assert!(!watched.lock().contains(&busy));
    }
}
