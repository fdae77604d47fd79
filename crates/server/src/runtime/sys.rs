//! Raw syscall bindings for the evented runtime — the only file in the
//! repository that declares foreign functions.
//!
//! The build environment vendors no `libc` crate, so the handful of
//! syscalls the reactor needs (`epoll_*`, `pipe`, `fcntl`, `setsockopt`)
//! are declared here as `extern "C"` items against the libc that `std`
//! already links. The constants are Linux's (the runtime refuses to
//! compile anywhere else, see [`super`]). Everything is wrapped in small
//! safe(ish) helpers that translate `-1` into
//! [`io::Error::last_os_error`]; nothing outside
//! `crates/server/src/runtime/` may name these symbols (the xtask
//! sys-confinement lint enforces it).

#![allow(non_camel_case_types)]

use std::io;
use std::os::unix::io::RawFd;

/// One `struct epoll_event`. Packed on x86-64, exactly as in the kernel
/// ABI (`__EPOLL_PACKED`).
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Debug, Clone, Copy)]
pub struct epoll_event {
    /// Interest / readiness mask ([`EPOLLIN`], [`EPOLLOUT`], …).
    pub events: u32,
    /// Caller-owned cookie returned verbatim with each event.
    pub u64: u64,
}

/// `epoll` readable interest/readiness.
pub const EPOLLIN: u32 = 0x001;
/// `epoll` writable interest/readiness.
pub const EPOLLOUT: u32 = 0x004;
/// `epoll` error readiness (always reported).
pub const EPOLLERR: u32 = 0x008;
/// `epoll` hangup readiness (always reported).
pub const EPOLLHUP: u32 = 0x010;
/// Peer closed its writing half (must be requested explicitly).
pub const EPOLLRDHUP: u32 = 0x2000;

/// `epoll_ctl` op: add a new fd.
pub const EPOLL_CTL_ADD: i32 = 1;
/// `epoll_ctl` op: remove an fd.
pub const EPOLL_CTL_DEL: i32 = 2;
/// `epoll_ctl` op: change an fd's interest mask.
pub const EPOLL_CTL_MOD: i32 = 3;
/// `epoll_create1` flag: close-on-exec.
pub const EPOLL_CLOEXEC: i32 = 0o2000000;

/// `fcntl` command: get file status flags.
pub const F_GETFL: i32 = 3;
/// `fcntl` command: set file status flags.
pub const F_SETFL: i32 = 4;
/// Non-blocking file status flag.
pub const O_NONBLOCK: i32 = 0o4000;

/// `setsockopt` level for socket-level options.
pub const SOL_SOCKET: i32 = 1;
/// Kernel send-buffer size option.
pub const SO_SNDBUF: i32 = 7;

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut epoll_event) -> i32;
    fn epoll_wait(epfd: i32, events: *mut epoll_event, maxevents: i32, timeout: i32) -> i32;
    fn pipe(fds: *mut i32) -> i32;
    fn fcntl(fd: i32, cmd: i32, ...) -> i32;
    fn setsockopt(fd: i32, level: i32, optname: i32, optval: *const u8, optlen: u32) -> i32;
    fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
    fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    fn close(fd: i32) -> i32;
}

fn cvt(ret: i32) -> io::Result<i32> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// Create an epoll instance (close-on-exec).
pub fn epoll_create() -> io::Result<RawFd> {
    cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })
}

/// Add/modify/delete an fd in an epoll set. `event` may be `None` for
/// [`EPOLL_CTL_DEL`].
pub fn epoll_control(
    epfd: RawFd,
    op: i32,
    fd: RawFd,
    event: Option<epoll_event>,
) -> io::Result<()> {
    let mut ev = event.unwrap_or(epoll_event { events: 0, u64: 0 });
    cvt(unsafe { epoll_ctl(epfd, op, fd, &mut ev) }).map(|_| ())
}

/// Wait for events; returns how many entries of `events` were filled.
/// `timeout_ms < 0` blocks indefinitely. `EINTR` is retried internally.
pub fn epoll_wait_events(
    epfd: RawFd,
    events: &mut [epoll_event],
    timeout_ms: i32,
) -> io::Result<usize> {
    loop {
        let n = unsafe { epoll_wait(epfd, events.as_mut_ptr(), events.len() as i32, timeout_ms) };
        if n >= 0 {
            return Ok(n as usize);
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

/// Create a non-blocking pipe: `(read_end, write_end)`.
pub fn pipe_nonblocking() -> io::Result<(RawFd, RawFd)> {
    let mut fds = [0i32; 2];
    cvt(unsafe { pipe(fds.as_mut_ptr()) })?;
    for fd in fds {
        if let Err(e) = set_nonblocking(fd) {
            close_fd(fds[0]);
            close_fd(fds[1]);
            return Err(e);
        }
    }
    Ok((fds[0], fds[1]))
}

/// Set `O_NONBLOCK` on an fd.
pub fn set_nonblocking(fd: RawFd) -> io::Result<()> {
    let flags = cvt(unsafe { fcntl(fd, F_GETFL, 0) })?;
    cvt(unsafe { fcntl(fd, F_SETFL, flags | O_NONBLOCK) }).map(|_| ())
}

/// Cap a socket's kernel send buffer (`SO_SNDBUF`). Without a cap, Linux
/// auto-tunes send buffers to many megabytes, which lets the kernel —
/// rather than the connection's write-queue watermarks — absorb a
/// non-draining peer's backlog.
pub fn set_send_buffer(fd: RawFd, bytes: usize) -> io::Result<()> {
    let value = (bytes as i32).to_ne_bytes();
    cvt(unsafe { setsockopt(fd, SOL_SOCKET, SO_SNDBUF, value.as_ptr(), value.len() as u32) })
        .map(|_| ())
}

/// Read up to `buf.len()` bytes from a raw fd (for the waker pipe).
pub fn read_fd(fd: RawFd, buf: &mut [u8]) -> io::Result<usize> {
    let n = unsafe { read(fd, buf.as_mut_ptr(), buf.len()) };
    if n < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(n as usize)
    }
}

/// Write `buf` to a raw fd (for the waker pipe).
pub fn write_fd(fd: RawFd, buf: &[u8]) -> io::Result<usize> {
    let n = unsafe { write(fd, buf.as_ptr(), buf.len()) };
    if n < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(n as usize)
    }
}

/// Close a raw fd, ignoring errors (used in drops).
pub fn close_fd(fd: RawFd) {
    unsafe {
        let _ = close(fd);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipe_round_trip_then_empty_read_would_block() {
        let (r, w) = pipe_nonblocking().unwrap();
        // Empty pipe: non-blocking read reports WouldBlock instead of
        // parking the thread.
        let mut buf = [0u8; 8];
        let err = read_fd(r, &mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
        assert_eq!(write_fd(w, b"xy").unwrap(), 2);
        assert_eq!(read_fd(r, &mut buf).unwrap(), 2);
        assert_eq!(&buf[..2], b"xy");
        close_fd(r);
        close_fd(w);
    }

    #[test]
    fn epoll_sees_pipe_readability() {
        let ep = epoll_create().unwrap();
        let (r, w) = pipe_nonblocking().unwrap();
        epoll_control(ep, EPOLL_CTL_ADD, r, Some(epoll_event { events: EPOLLIN, u64: 77 }))
            .unwrap();
        let mut events = [epoll_event { events: 0, u64: 0 }; 4];
        assert_eq!(epoll_wait_events(ep, &mut events, 0).unwrap(), 0, "idle pipe");
        write_fd(w, &[1]).unwrap();
        let n = epoll_wait_events(ep, &mut events, 1_000).unwrap();
        assert_eq!(n, 1);
        let ev = events[0];
        assert_eq!({ ev.u64 }, 77);
        assert_ne!(ev.events & EPOLLIN, 0);
        close_fd(ep);
        close_fd(r);
        close_fd(w);
    }
}
