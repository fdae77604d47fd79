//! Readiness polling behind a small [`Poller`] trait.
//!
//! There is one backend, [`EpollPoller`] — a thin wrapper over raw
//! `epoll_create1`/`epoll_ctl`/`epoll_wait` (level-triggered, which pairs
//! naturally with the connection state machine's buffer-until-`WouldBlock`
//! discipline) — and [`Reactor::new`](super::reactor::Reactor::new) builds
//! it. The trait is the seam a deterministic in-memory transport plugs
//! into: a caller that wants another poller hands one to
//! [`Reactor::with_poller`](super::reactor::Reactor::with_poller); no
//! option selects one.

use std::io;
use std::os::unix::io::RawFd;

use super::sys;

/// What a registration wants to be woken for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the fd is readable.
    pub read: bool,
    /// Wake when the fd is writable.
    pub write: bool,
}

impl Interest {
    /// Read-only interest.
    pub const READ: Interest = Interest { read: true, write: false };
    /// Write-only interest.
    pub const WRITE: Interest = Interest { read: false, write: true };
    /// Both directions.
    pub const BOTH: Interest = Interest { read: true, write: true };
    /// Registered but dormant (backpressured connection with nothing to
    /// write — kept in the set so hangups still surface).
    pub const NONE: Interest = Interest { read: false, write: false };
}

/// One readiness event, translated out of the backend's vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// The token the fd was registered with.
    pub token: usize,
    /// Readable now (or peer half-closed — reads will return 0).
    pub readable: bool,
    /// Writable now.
    pub writable: bool,
    /// Error or hangup; the connection should be torn down after a final
    /// read attempt drains whatever the kernel still buffers.
    pub hangup: bool,
}

/// A readiness poller: the reactor's only view of the OS event queue.
pub trait Poller: Send {
    /// Start watching `fd` with `interest`; `token` comes back in events.
    fn register(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()>;
    /// Change the interest set of a registered fd.
    fn reregister(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()>;
    /// Stop watching `fd`.
    fn deregister(&mut self, fd: RawFd) -> io::Result<()>;
    /// Wait up to `timeout_ms` (0 = poll, negative = forever) and append
    /// ready events to `events` (which is cleared first).
    fn poll(&mut self, events: &mut Vec<Event>, timeout_ms: i32) -> io::Result<()>;
}

/// Level-triggered epoll backend.
pub struct EpollPoller {
    epfd: RawFd,
    buf: Vec<sys::epoll_event>,
}

impl EpollPoller {
    /// Create the epoll instance.
    pub fn new() -> io::Result<Self> {
        Ok(EpollPoller {
            epfd: sys::epoll_create()?,
            buf: vec![sys::epoll_event { events: 0, u64: 0 }; 256],
        })
    }

    fn mask(interest: Interest) -> u32 {
        // EPOLLRDHUP is always on so a half-closed peer surfaces even
        // while read interest is parked by backpressure.
        let mut m = sys::EPOLLRDHUP;
        if interest.read {
            m |= sys::EPOLLIN;
        }
        if interest.write {
            m |= sys::EPOLLOUT;
        }
        m
    }
}

impl Poller for EpollPoller {
    fn register(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
        let ev = sys::epoll_event { events: Self::mask(interest), u64: token as u64 };
        sys::epoll_control(self.epfd, sys::EPOLL_CTL_ADD, fd, Some(ev))
    }

    fn reregister(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
        let ev = sys::epoll_event { events: Self::mask(interest), u64: token as u64 };
        sys::epoll_control(self.epfd, sys::EPOLL_CTL_MOD, fd, Some(ev))
    }

    fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        sys::epoll_control(self.epfd, sys::EPOLL_CTL_DEL, fd, None)
    }

    fn poll(&mut self, events: &mut Vec<Event>, timeout_ms: i32) -> io::Result<()> {
        events.clear();
        let n = sys::epoll_wait_events(self.epfd, &mut self.buf, timeout_ms)?;
        for ev in &self.buf[..n] {
            let bits = ev.events;
            events.push(Event {
                token: { ev.u64 } as usize,
                readable: bits & (sys::EPOLLIN | sys::EPOLLRDHUP) != 0,
                writable: bits & sys::EPOLLOUT != 0,
                hangup: bits & (sys::EPOLLERR | sys::EPOLLHUP) != 0,
            });
        }
        Ok(())
    }
}

impl Drop for EpollPoller {
    fn drop(&mut self) {
        sys::close_fd(self.epfd);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;

    /// A connected loopback socket pair.
    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let a = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (b, _) = listener.accept().unwrap();
        (a, b)
    }

    #[test]
    fn epoll_backend_honors_the_contract() {
        let mut p = EpollPoller::new().unwrap();
        let (mut a, b) = pair();
        b.set_nonblocking(true).unwrap();
        let fd = b.as_raw_fd();
        p.register(fd, 9, Interest::READ).unwrap();

        let mut events = Vec::new();
        p.poll(&mut events, 0).unwrap();
        assert!(events.is_empty(), "idle socket reported ready");

        a.write_all(b"hi").unwrap();
        p.poll(&mut events, 2_000).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 9);
        assert!(events[0].readable);

        // Parking read interest silences readability even with unread
        // bytes pending (the backpressure mechanism).
        p.reregister(fd, 9, Interest::NONE).unwrap();
        p.poll(&mut events, 10).unwrap();
        assert!(
            events.iter().all(|e| !e.readable || e.hangup),
            "parked fd still readable: {events:?}"
        );

        // Write interest on an idle socket fires immediately.
        p.reregister(fd, 9, Interest::BOTH).unwrap();
        p.poll(&mut events, 2_000).unwrap();
        assert!(events.iter().any(|e| e.writable));

        // Peer close surfaces as readable (EOF) and/or hangup.
        drop(a);
        p.poll(&mut events, 2_000).unwrap();
        assert!(events.iter().any(|e| e.readable || e.hangup), "close invisible: {events:?}");
        p.deregister(fd).unwrap();
        assert!(p.deregister(fd).is_err(), "double deregister");
    }
}
