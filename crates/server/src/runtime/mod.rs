//! The connection runtime of `hybrids-server`.
//!
//! Every worker (a host thread of the native run) is a reactor: it
//! multiplexes its share of the connections over `epoll` and parses,
//! executes and answers their requests itself. Reactor 0 also accepts,
//! dealing connections round-robin. Connections outnumber threads by
//! orders of magnitude, and a request never changes threads.
//!
//! The runtime is Linux-only and says so: [`sys`] declares Linux's
//! `epoll` entry points and Linux's constant values against the libc
//! `std` links, so on any other target this module is a compile error
//! rather than a build with the wrong numbers in it.
//!
//! Requests execute through the [`Service`](crate::service::Service)
//! layer, which is also what the in-memory reference of the differential
//! test in `tests/runtime_evented.rs` calls — the socket path must answer
//! byte for byte what `Parser` + `Service::execute` answer without one.

#[cfg(not(target_os = "linux"))]
compile_error!(
    "hybrids-server's connection runtime is Linux-only: it calls epoll and hard-codes Linux's \
     fcntl/setsockopt constants (crates/server/src/runtime/sys.rs)"
);

pub mod conn;
pub mod poller;
pub mod reactor;
pub mod sys;

pub use conn::ConnCfg;
pub use reactor::ReactorHandle;

/// The connection runtime's name. It has one variant and selects nothing:
/// it exists only because the frozen `benchmark/` package names
/// `RuntimeKind::Evented` and [`ServerOpts::runtime`](crate::ServerOpts::runtime);
/// the next `benchmark` PR drops both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RuntimeKind {
    /// Reactor-multiplexed connections over epoll.
    #[default]
    Evented,
}

/// Connection-runtime tuning (all fields have serviceable defaults).
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
    /// Reactor tick (poll timeout / idle-sweep resolution), in milliseconds.
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
