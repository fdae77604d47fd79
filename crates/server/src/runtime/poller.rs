//! Readiness polling behind a small [`Poller`] trait.
//!
//! The backend is a build-time fact. On Linux it is [`EpollPoller`] — a
//! thin wrapper over raw `epoll_create1`/`epoll_ctl`/`epoll_wait`
//! (level-triggered, which pairs naturally with the connection state
//! machine's buffer-until-`WouldBlock` discipline). Everywhere else it is
//! [`PollPoller`] over POSIX `poll(2)`: same trait, same semantics, O(n)
//! per wait. Tests substitute [`PollerKind::Poll`] on Linux too, as a
//! differential check that nothing in the runtime secretly depends on
//! epoll behavior.

use std::collections::HashMap;
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
    /// Backend name for logs and bench records.
    fn name(&self) -> &'static str;
}

/// Which poller backend to construct (no flag sets this: the default is
/// the platform's backend, and tests substitute [`PollerKind::Poll`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PollerKind {
    /// Linux `epoll` (the default; `poll` off-Linux).
    #[default]
    Epoll,
    /// Portable POSIX `poll(2)`.
    Poll,
}

impl PollerKind {
    /// Construct the chosen backend.
    pub fn build(self) -> io::Result<Box<dyn Poller>> {
        match self {
            #[cfg(target_os = "linux")]
            PollerKind::Epoll => Ok(Box::new(EpollPoller::new()?)),
            #[cfg(not(target_os = "linux"))]
            PollerKind::Epoll => Ok(Box::new(PollPoller::new())),
            PollerKind::Poll => Ok(Box::new(PollPoller::new())),
        }
    }
}

/// Level-triggered epoll backend.
#[cfg(target_os = "linux")]
pub struct EpollPoller {
    epfd: RawFd,
    buf: Vec<sys::epoll_event>,
}

#[cfg(target_os = "linux")]
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

#[cfg(target_os = "linux")]
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

    fn name(&self) -> &'static str {
        "epoll"
    }
}

#[cfg(target_os = "linux")]
impl Drop for EpollPoller {
    fn drop(&mut self) {
        sys::close_fd(self.epfd);
    }
}

/// Portable `poll(2)` backend: a flat fd table rebuilt per wait.
pub struct PollPoller {
    entries: HashMap<RawFd, (usize, Interest)>,
    fds: Vec<sys::pollfd>,
}

impl PollPoller {
    /// Empty registration table.
    pub fn new() -> Self {
        PollPoller { entries: HashMap::new(), fds: Vec::new() }
    }
}

impl Default for PollPoller {
    fn default() -> Self {
        PollPoller::new()
    }
}

impl Poller for PollPoller {
    fn register(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
        if self.entries.insert(fd, (token, interest)).is_some() {
            return Err(io::Error::new(io::ErrorKind::AlreadyExists, "fd already registered"));
        }
        Ok(())
    }

    fn reregister(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
        match self.entries.get_mut(&fd) {
            Some(slot) => {
                *slot = (token, interest);
                Ok(())
            }
            None => Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered")),
        }
    }

    fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        match self.entries.remove(&fd) {
            Some(_) => Ok(()),
            None => Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered")),
        }
    }

    fn poll(&mut self, events: &mut Vec<Event>, timeout_ms: i32) -> io::Result<()> {
        events.clear();
        self.fds.clear();
        for (&fd, &(_, interest)) in &self.entries {
            let mut mask = 0i16;
            if interest.read {
                mask |= sys::POLLIN;
            }
            if interest.write {
                mask |= sys::POLLOUT;
            }
            // Zero-interest fds stay in the set: POLLERR/POLLHUP are
            // reported regardless of the requested mask.
            self.fds.push(sys::pollfd { fd, events: mask, revents: 0 });
        }
        if self.fds.is_empty() {
            // Nothing registered: honor the timeout so the reactor still
            // ticks its timer wheel.
            if timeout_ms > 0 {
                std::thread::sleep(std::time::Duration::from_millis(timeout_ms as u64));
            }
            return Ok(());
        }
        sys::poll_fds(&mut self.fds, timeout_ms)?;
        for pfd in &self.fds {
            if pfd.revents == 0 {
                continue;
            }
            let token = self.entries[&pfd.fd].0;
            events.push(Event {
                token,
                readable: pfd.revents & sys::POLLIN != 0,
                writable: pfd.revents & sys::POLLOUT != 0,
                hangup: pfd.revents & (sys::POLLERR | sys::POLLHUP) != 0,
            });
        }
        Ok(())
    }

    fn name(&self) -> &'static str {
        "poll"
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

    fn backend_contract(mut p: Box<dyn Poller>) {
        let (mut a, b) = pair();
        b.set_nonblocking(true).unwrap();
        let fd = b.as_raw_fd();
        p.register(fd, 9, Interest::READ).unwrap();

        let mut events = Vec::new();
        p.poll(&mut events, 0).unwrap();
        assert!(events.is_empty(), "{}: idle socket reported ready", p.name());

        a.write_all(b"hi").unwrap();
        p.poll(&mut events, 2_000).unwrap();
        assert_eq!(events.len(), 1, "{}", p.name());
        assert_eq!(events[0].token, 9);
        assert!(events[0].readable);

        // Parking read interest silences readability even with unread
        // bytes pending (the backpressure mechanism).
        p.reregister(fd, 9, Interest::NONE).unwrap();
        p.poll(&mut events, 10).unwrap();
        assert!(
            events.iter().all(|e| !e.readable || e.hangup),
            "{}: parked fd still readable: {events:?}",
            p.name()
        );

        // Write interest on an idle socket fires immediately.
        p.reregister(fd, 9, Interest::BOTH).unwrap();
        p.poll(&mut events, 2_000).unwrap();
        assert!(events.iter().any(|e| e.writable), "{}", p.name());

        // Peer close surfaces as readable (EOF) and/or hangup.
        drop(a);
        p.poll(&mut events, 2_000).unwrap();
        assert!(
            events.iter().any(|e| e.readable || e.hangup),
            "{}: close invisible: {events:?}",
            p.name()
        );
        p.deregister(fd).unwrap();
        assert!(p.deregister(fd).is_err(), "{}: double deregister", p.name());
    }

    #[test]
    fn poll_backend_honors_the_contract() {
        backend_contract(Box::new(PollPoller::new()));
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn epoll_backend_honors_the_contract() {
        backend_contract(Box::new(EpollPoller::new().unwrap()));
    }

    #[test]
    fn poll_kind_builds_the_poll_backend() {
        assert_eq!(PollerKind::Poll.build().unwrap().name(), "poll");
    }
}
