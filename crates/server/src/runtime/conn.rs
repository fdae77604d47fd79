//! Per-connection state machine for the evented runtime.
//!
//! A [`Conn`] owns one socket's entire lifecycle: bytes in → parsed
//! frames → dispatched requests → **ordered** response slots → write
//! buffer → bytes out, with partial writes resumed wherever the kernel
//! left off. It is generic over `Read + Write` so the whole machine is
//! unit-testable against scripted in-memory streams, `WouldBlock`s and
//! all.
//!
//! # Ordering
//!
//! Responses must leave in request order. Each dispatched request takes
//! the next sequence number and an empty slot in a ring; the caller (the
//! reactor, which executes a read round's requests in dispatch order
//! before the next read) hands each response to [`Conn::complete`], and
//! the pump appends slots to the write buffer only in sequence order — so
//! the machine does not depend on the order completions arrive in.
//! Inline responses (protocol errors, `shutdown`'s `OK`) go through the
//! same slots so they interleave correctly with dispatched requests.
//!
//! # Backpressure
//!
//! A peer that sends requests but never reads responses would otherwise
//! grow the write buffer without bound. When the unsent backlog crosses
//! `wq_high` the connection *parks its read interest* — already-parsed
//! frames still execute (bounded by `max_inflight`), but no new bytes are
//! read until the backlog drains below `wq_low` (hysteresis, so interest
//! doesn't flap on every write). Worst-case memory per connection is
//! therefore `wq_high` + one read round of responses, not "whatever the
//! peer pipelined".

use std::collections::VecDeque;
use std::io::{self, Read, Write};

use crate::proto::{self, Command, Parsed, Parser};

/// Tuning knobs for a connection's buffers and limits.
#[derive(Debug, Clone, Copy)]
pub struct ConnCfg {
    /// Park read interest when the unsent write backlog reaches this.
    pub wq_high: usize,
    /// Resume reading once the backlog drains to this.
    pub wq_low: usize,
    /// Maximum dispatched-but-unanswered requests per connection.
    pub max_inflight: usize,
}

impl Default for ConnCfg {
    fn default() -> Self {
        ConnCfg { wq_high: 256 * 1024, wq_low: 64 * 1024, max_inflight: 1024 }
    }
}

/// Connection lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ConnState {
    /// Reading and serving.
    Open,
    /// No more reads; drain in-flight responses, then close.
    Closing,
}

/// What a read round observed, beyond frames dispatched.
#[derive(Debug, Default, Clone, Copy)]
pub struct ReadOutcome {
    /// The peer sent `shutdown` — the whole server should begin draining.
    pub shutdown: bool,
}

/// One connection's state machine. `S` is the transport (a non-blocking
/// `TcpStream` in production, a scripted mock in tests).
pub struct Conn<S> {
    stream: S,
    parser: Parser,
    /// Response slots for dispatched requests, indexed by
    /// `seq - head_seq`. `None` = still in flight.
    slots: VecDeque<Option<Vec<u8>>>,
    /// Sequence number of `slots[0]`.
    head_seq: u64,
    /// Sequence number the next dispatched request will take.
    next_seq: u64,
    /// Bytes queued to the peer; `wbuf[wpos..]` is unsent.
    wbuf: Vec<u8>,
    wpos: usize,
    state: ConnState,
    /// Read interest parked by backpressure.
    paused: bool,
    /// Number of pause transitions not yet harvested by the reactor.
    pause_events: u64,
    /// Protocol errors not yet harvested by the reactor.
    proto_errors: u64,
    /// Reactor tick of the last read activity (what the idle sweep
    /// compares with the timeout).
    pub last_active: u64,
    cfg: ConnCfg,
}

impl<S: Read + Write> Conn<S> {
    /// Wrap a transport (already non-blocking in production).
    pub fn new(stream: S, cfg: ConnCfg) -> Self {
        Conn {
            stream,
            parser: Parser::new(),
            slots: VecDeque::new(),
            head_seq: 0,
            next_seq: 0,
            wbuf: Vec::new(),
            wpos: 0,
            state: ConnState::Open,
            paused: false,
            pause_events: 0,
            proto_errors: 0,
            last_active: 0,
            cfg,
        }
    }

    /// Shared reference to the transport (for `deregister`/shutdown).
    pub fn stream(&self) -> &S {
        &self.stream
    }

    /// Read available bytes, drain every complete frame, and push
    /// dispatchable requests as `(seq, cmd)` onto `dispatch`. Inline
    /// responses (errors, `quit`, `shutdown`) are slotted directly.
    /// `Err` means the transport failed and the conn must be torn down.
    pub fn on_readable(&mut self, dispatch: &mut Vec<(u64, Command)>) -> io::Result<ReadOutcome> {
        let mut outcome = ReadOutcome::default();
        let mut buf = [0u8; 4096];
        // Read and parse ONE CHUNK AT A TIME, re-checking the inflight
        // cap between chunks. Parsing must interleave with reading: the
        // cap is enforced by frames dispatched, so reading everything
        // first would let a fast pipeliner blow arbitrarily far past it
        // in a single readiness round. Interleaved, overshoot is bounded
        // by the frames of one 4 KiB chunk.
        while self.state == ConnState::Open && self.inflight() < self.cfg.max_inflight {
            match self.stream.read(&mut buf) {
                Ok(0) => {
                    self.state = ConnState::Closing;
                    break;
                }
                Ok(n) => {
                    self.parser.push(&buf[..n]);
                    self.drain_parser(dispatch, &mut outcome);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        // Every byte read above was parsed right after its read, so at
        // this point the parser holds at most a partial frame — there is
        // nothing left to drain. (After `quit` the rest of the buffer is
        // deliberately ignored.)
        self.pump();
        Ok(outcome)
    }

    /// Drain every complete frame currently buffered in the parser.
    fn drain_parser(&mut self, dispatch: &mut Vec<(u64, Command)>, outcome: &mut ReadOutcome) {
        while let Some(parsed) = self.parser.next() {
            match parsed {
                Parsed::Cmd(Command::Quit) => {
                    // Pipelined requests before the quit still get their
                    // responses; we just stop reading.
                    self.state = ConnState::Closing;
                    break;
                }
                Parsed::Cmd(Command::Shutdown) => {
                    let seq = self.alloc_slot();
                    self.fill_slot(seq, proto::encode_ok().to_vec());
                    outcome.shutdown = true;
                    self.state = ConnState::Closing;
                    break;
                }
                Parsed::Cmd(cmd) => {
                    let seq = self.alloc_slot();
                    dispatch.push((seq, cmd));
                }
                Parsed::Error { line, fatal } => {
                    self.proto_errors += 1;
                    let seq = self.alloc_slot();
                    self.fill_slot(seq, proto::encode_error_line(&line));
                    if fatal {
                        self.state = ConnState::Closing;
                        break;
                    }
                }
            }
        }
    }

    /// Deliver the response bytes for request `seq` and pump any newly-in-order slots to the write buffer.
    pub fn complete(&mut self, seq: u64, bytes: Vec<u8>) {
        self.fill_slot(seq, bytes);
        self.pump();
    }

    /// Write as much of the backlog as the kernel will take. Returns
    /// `Ok(true)` if the backlog is now empty.
    pub fn flush(&mut self) -> io::Result<bool> {
        while self.wpos < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => return Err(io::Error::new(io::ErrorKind::WriteZero, "peer gone")),
                Ok(n) => self.wpos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        if self.wpos == self.wbuf.len() {
            self.wbuf.clear();
            self.wpos = 0;
        } else if self.wpos > 64 * 1024 {
            self.wbuf.drain(..self.wpos);
            self.wpos = 0;
        }
        self.recheck_pressure();
        Ok(self.wpos == self.wbuf.len())
    }

    /// Requests dispatched (or slotted inline) but not yet pumped out.
    pub fn inflight(&self) -> usize {
        self.slots.len()
    }

    /// Whether the reactor should keep read interest on this socket.
    pub fn wants_read(&self) -> bool {
        self.state == ConnState::Open && !self.paused && self.inflight() < self.cfg.max_inflight
    }

    /// Whether unsent response bytes are queued.
    pub fn wants_write(&self) -> bool {
        self.wpos < self.wbuf.len()
    }

    /// Whether every accepted request has been answered and flushed.
    pub fn is_drained(&self) -> bool {
        self.slots.is_empty() && !self.wants_write()
    }

    /// Whether the connection is done: closing and fully drained.
    pub fn should_close(&self) -> bool {
        self.state == ConnState::Closing && self.is_drained()
    }

    /// Stop reading (graceful-shutdown draining); in-flight responses
    /// still go out.
    pub fn begin_close(&mut self) {
        self.state = ConnState::Closing;
    }

    /// Harvest backpressure pause transitions since the last call.
    pub fn take_pause_events(&mut self) -> u64 {
        std::mem::take(&mut self.pause_events)
    }

    /// Harvest protocol-error counts since the last call.
    pub fn take_proto_errors(&mut self) -> u64 {
        std::mem::take(&mut self.proto_errors)
    }

    fn alloc_slot(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.slots.push_back(None);
        seq
    }

    fn fill_slot(&mut self, seq: u64, bytes: Vec<u8>) {
        let idx = (seq - self.head_seq) as usize;
        debug_assert!(self.slots[idx].is_none(), "response {seq} delivered twice");
        self.slots[idx] = Some(bytes);
    }

    /// Move every in-order completed slot into the write buffer.
    fn pump(&mut self) {
        while let Some(Some(_)) = self.slots.front() {
            let bytes = self.slots.pop_front().unwrap().unwrap();
            self.head_seq += 1;
            self.wbuf.extend_from_slice(&bytes);
        }
        self.recheck_pressure();
    }

    /// Hysteresis on the unsent backlog: park reads at `wq_high`, resume
    /// at `wq_low`.
    fn recheck_pressure(&mut self) {
        let backlog = self.wbuf.len() - self.wpos;
        if !self.paused && backlog >= self.cfg.wq_high {
            self.paused = true;
            self.pause_events += 1;
        } else if self.paused && backlog <= self.cfg.wq_low {
            self.paused = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque as Script;

    /// A scripted transport: reads pop from `input` (empty = WouldBlock),
    /// writes append to `written` until the kernel-buffer `write_budget`
    /// depletes, then report `WouldBlock` (as a full socket buffer would).
    struct Mock {
        input: Script<Vec<u8>>,
        written: Vec<u8>,
        write_budget: usize,
    }

    impl Mock {
        fn new() -> Self {
            Mock { input: Script::new(), written: Vec::new(), write_budget: usize::MAX }
        }

        fn feed(&mut self, bytes: &[u8]) {
            self.input.push_back(bytes.to_vec());
        }
    }

    impl Read for Mock {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            match self.input.pop_front() {
                Some(chunk) => {
                    let n = chunk.len().min(buf.len());
                    buf[..n].copy_from_slice(&chunk[..n]);
                    if n < chunk.len() {
                        self.input.push_front(chunk[n..].to_vec());
                    }
                    Ok(n)
                }
                None => Err(io::ErrorKind::WouldBlock.into()),
            }
        }
    }

    impl Write for Mock {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let n = buf.len().min(self.write_budget);
            if n == 0 {
                return Err(io::ErrorKind::WouldBlock.into());
            }
            if self.write_budget != usize::MAX {
                self.write_budget -= n;
            }
            self.written.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn conn(cfg: ConnCfg) -> Conn<Mock> {
        Conn::new(Mock::new(), cfg)
    }

    #[test]
    fn out_of_order_completions_flush_in_request_order() {
        let mut c = conn(ConnCfg::default());
        c.stream.feed(b"get 1\r\nget 2\r\nget 3\r\n");
        let mut dispatch = Vec::new();
        c.on_readable(&mut dispatch).unwrap();
        assert_eq!(dispatch.len(), 3);
        // Answered 2, 0, 1 — the wire must still say 0, 1, 2.
        c.complete(dispatch[2].0, b"C".to_vec());
        assert!(!c.wants_write(), "seq 2 must wait for 0 and 1");
        c.complete(dispatch[0].0, b"A".to_vec());
        c.complete(dispatch[1].0, b"B".to_vec());
        c.flush().unwrap();
        assert_eq!(c.stream.written, b"ABC");
        assert!(c.is_drained());
    }

    #[test]
    fn slow_loris_partial_frames_assemble_across_reads() {
        let mut c = conn(ConnCfg::default());
        let mut dispatch = Vec::new();
        // One byte at a time, across separate readiness rounds.
        for chunk in [&b"ge"[..], b"t 7", b"\r", b"\n"] {
            c.stream.feed(chunk);
            c.on_readable(&mut dispatch).unwrap();
        }
        assert_eq!(dispatch.len(), 1);
        assert!(matches!(dispatch[0].1, Command::Get(ref k) if k == &vec![7]));
    }

    #[test]
    fn partial_writes_resume_where_they_stopped() {
        let mut c = conn(ConnCfg::default());
        c.stream.feed(b"get 5\r\n");
        let mut dispatch = Vec::new();
        c.on_readable(&mut dispatch).unwrap();
        c.complete(dispatch[0].0, b"0123456789".to_vec());
        c.stream.write_budget = 3;
        assert!(!c.flush().unwrap());
        assert_eq!(c.stream.written, b"012");
        c.stream.write_budget = 4;
        assert!(!c.flush().unwrap());
        assert_eq!(c.stream.written, b"0123456");
        c.stream.write_budget = usize::MAX;
        assert!(c.flush().unwrap());
        assert_eq!(c.stream.written, b"0123456789");
    }

    #[test]
    fn backpressure_parks_reads_with_hysteresis() {
        let mut c = conn(ConnCfg { wq_high: 10, wq_low: 3, max_inflight: 64 });
        c.stream.feed(b"get 1\r\n");
        let mut dispatch = Vec::new();
        c.on_readable(&mut dispatch).unwrap();
        c.stream.write_budget = 0; // peer not draining
        c.complete(dispatch[0].0, vec![b'x'; 12]);
        assert!(!c.wants_read(), "backlog over high-water parks reads");
        assert_eq!(c.take_pause_events(), 1);
        // Draining to above low-water is not enough to resume…
        c.stream.write_budget = 5;
        c.flush().unwrap();
        assert!(!c.wants_read(), "hysteresis: 7 > wq_low");
        // …but below it is.
        c.stream.write_budget = usize::MAX;
        c.flush().unwrap();
        assert!(c.wants_read());
        assert_eq!(c.take_pause_events(), 0, "resume is not a pause event");
    }

    #[test]
    fn inflight_cap_stops_reading_new_bytes() {
        let mut c = conn(ConnCfg { wq_high: 1 << 20, wq_low: 1 << 10, max_inflight: 2 });
        c.stream.feed(b"get 1\r\nget 2\r\n");
        let mut dispatch = Vec::new();
        c.on_readable(&mut dispatch).unwrap();
        assert_eq!(dispatch.len(), 2);
        assert!(!c.wants_read(), "at the inflight cap");
        c.complete(dispatch[0].0, b"a".to_vec());
        c.complete(dispatch[1].0, b"b".to_vec());
        assert!(c.wants_read(), "answers free capacity");
    }

    #[test]
    fn ingest_interleaves_parsing_so_the_cap_holds_per_chunk() {
        let mut c = conn(ConnCfg { wq_high: 1 << 20, wq_low: 1 << 10, max_inflight: 1 });
        // Two kernel chunks are available; the cap must stop reading
        // after the first one's frames fill it, leaving the second in
        // the kernel (not buffered in userspace).
        c.stream.feed(b"get 1\r\n");
        c.stream.feed(b"get 2\r\n");
        let mut dispatch = Vec::new();
        c.on_readable(&mut dispatch).unwrap();
        assert_eq!(dispatch.len(), 1);
        assert_eq!(c.stream.input.len(), 1, "second chunk must stay unread");
        // Answering frees capacity; the next round picks the chunk up.
        c.complete(dispatch[0].0, b"a".to_vec());
        dispatch.clear();
        c.on_readable(&mut dispatch).unwrap();
        assert_eq!(dispatch.len(), 1);
        assert!(matches!(dispatch[0].1, Command::Get(ref k) if k == &vec![2]));
    }

    #[test]
    fn quit_drains_pipelined_requests_then_closes() {
        let mut c = conn(ConnCfg::default());
        c.stream.feed(b"get 1\r\nquit\r\nget 2\r\n");
        let mut dispatch = Vec::new();
        c.on_readable(&mut dispatch).unwrap();
        assert_eq!(dispatch.len(), 1, "nothing after quit is parsed");
        assert!(!c.wants_read());
        assert!(!c.should_close(), "the pre-quit get is still in flight");
        c.complete(dispatch[0].0, b"END\r\n".to_vec());
        c.flush().unwrap();
        assert!(c.should_close());
        assert_eq!(c.stream.written, b"END\r\n");
    }

    #[test]
    fn shutdown_slots_ok_inline_and_reports_it() {
        let mut c = conn(ConnCfg::default());
        c.stream.feed(b"get 1\r\nshutdown\r\n");
        let mut dispatch = Vec::new();
        let outcome = c.on_readable(&mut dispatch).unwrap();
        assert!(outcome.shutdown);
        c.complete(dispatch[0].0, b"END\r\n".to_vec());
        c.flush().unwrap();
        // OK comes after the get's response: slots keep wire order.
        assert_eq!(c.stream.written, b"END\r\nOK\r\n");
        assert!(c.should_close());
    }

    #[test]
    fn recoverable_protocol_error_keeps_the_conn_open() {
        let mut c = conn(ConnCfg::default());
        c.stream.feed(b"bogus\r\nget 4\r\n");
        let mut dispatch = Vec::new();
        c.on_readable(&mut dispatch).unwrap();
        // The error response is slotted inline, the next command parses.
        assert_eq!(dispatch.len(), 1);
        c.complete(dispatch[0].0, b"END\r\n".to_vec());
        c.flush().unwrap();
        assert_eq!(c.stream.written, b"ERROR\r\nEND\r\n");
        assert!(c.wants_read());
    }

    #[test]
    fn fatal_protocol_error_answers_then_closes() {
        let mut c = conn(ConnCfg::default());
        // A line longer than any legal frame, never terminated: framing is
        // unrecoverable, so the error is fatal.
        c.stream.feed(&[b'a'; 2048]);
        let mut dispatch = Vec::new();
        c.on_readable(&mut dispatch).unwrap();
        assert!(dispatch.is_empty());
        c.flush().unwrap();
        assert!(c.should_close());
        assert_eq!(c.stream.written, b"CLIENT_ERROR line too long\r\n");
    }

    #[test]
    fn eof_without_traffic_closes_cleanly() {
        let mut c = conn(ConnCfg::default());
        c.stream.feed(b""); // a 0-byte read = EOF
        let mut dispatch = Vec::new();
        c.on_readable(&mut dispatch).unwrap();
        assert!(dispatch.is_empty());
        assert!(c.should_close());
    }
}
