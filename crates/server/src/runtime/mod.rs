//! Connection runtimes for `hybrids-server`.
//!
//! The server can drive its sockets two ways:
//!
//! * **blocking** — the original thread-per-connection topology: an
//!   acceptor feeds an mpsc channel; each worker (a host thread of the
//!   native machine) owns one connection at a time, blocking on its
//!   socket. Simple, and kept as the differential baseline.
//! * **evented** — every worker (a host thread of the native machine) is
//!   a reactor: it multiplexes its share of the connections over `epoll`
//!   (or `poll`) and parses, executes and answers their requests itself.
//!   Reactor 0 also accepts, dealing connections round-robin. Connections
//!   outnumber threads by orders of magnitude, and a request never
//!   changes threads.
//!
//! Both runtimes execute requests through the same
//! [`Service`] layer, so for an identical request
//! stream they produce byte-identical responses — the differential tests
//! hold the runtimes to that.

pub mod conn;
pub mod poller;
pub mod reactor;
pub mod sys;
pub mod timer;

pub use conn::ConnCfg;
pub use poller::PollerKind;
pub use reactor::ReactorHandle;

use std::io;
use std::net::TcpListener;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use nmp_sim::{NativeRun, ThreadKind};

use crate::service::Service;

use reactor::Reactor;

/// Which connection runtime drives the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RuntimeKind {
    /// Thread-per-connection (the original topology).
    #[default]
    Blocking,
    /// Reactor-multiplexed connections over epoll/poll.
    Evented,
}

impl RuntimeKind {
    /// Parse a `--runtime` flag value.
    pub fn parse(s: &str) -> Option<RuntimeKind> {
        match s {
            "blocking" => Some(RuntimeKind::Blocking),
            "evented" => Some(RuntimeKind::Evented),
            _ => None,
        }
    }
}

/// Evented-runtime tuning (all fields have serviceable defaults).
#[derive(Debug, Clone, Copy)]
pub struct EventedOpts {
    /// Close connections idle longer than this.
    pub idle_timeout_ms: u64,
    /// Graceful-shutdown drain budget before force-closing.
    pub drain_ms: u64,
    /// Per-connection unsent-backlog high-water mark (parks reads).
    pub wq_high: usize,
    /// Per-connection backlog low-water mark (resumes reads).
    pub wq_low: usize,
    /// Maximum dispatched-but-unanswered requests per connection.
    pub max_inflight_per_conn: usize,
    /// Readiness backend.
    pub poller: PollerKind,
    /// Reactor tick (poll timeout / timer resolution), in milliseconds.
    pub tick_ms: u64,
    /// Cap each accepted socket's kernel send buffer (`SO_SNDBUF`);
    /// `None` keeps the kernel's auto-tuned default. Capping it makes the
    /// userspace write-queue watermarks the real backpressure boundary
    /// instead of multi-megabyte kernel buffers.
    pub sock_sndbuf: Option<usize>,
}

impl Default for EventedOpts {
    fn default() -> Self {
        EventedOpts {
            idle_timeout_ms: 60_000,
            drain_ms: 5_000,
            wq_high: 256 * 1024,
            wq_low: 64 * 1024,
            max_inflight_per_conn: 1024,
            poller: PollerKind::Epoll,
            tick_ms: 20,
            sock_sndbuf: None,
        }
    }
}

impl EventedOpts {
    pub(crate) fn conn_cfg(&self) -> ConnCfg {
        ConnCfg {
            wq_high: self.wq_high,
            wq_low: self.wq_low,
            max_inflight: self.max_inflight_per_conn,
        }
    }
}

/// Start the evented runtime: one reactor per worker, each spawned as host
/// thread `core` of `run` (so [`NativeRun::finish`] joins them once they
/// have drained, and propagates their panics), reactor 0 accepting from
/// `listener`.
pub(crate) fn start_evented(
    listener: TcpListener,
    service: Arc<Service>,
    run: &mut NativeRun,
    workers: usize,
    shutdown: Arc<AtomicBool>,
    opts: &EventedOpts,
) -> io::Result<()> {
    let mut reactors = (0..workers)
        .map(|_| Reactor::new(opts, Arc::clone(&service.counters), Arc::clone(&shutdown)))
        .collect::<io::Result<Vec<_>>>()?;
    let peers = reactors.iter().map(Reactor::handle).collect();
    reactors[0].listen(listener, peers)?;
    for (core, reactor) in reactors.into_iter().enumerate() {
        let service = Arc::clone(&service);
        run.spawn(format!("conn-{core}"), ThreadKind::Host { core }, move |ctx| {
            reactor.run(ctx, &service);
        });
    }
    Ok(())
}
