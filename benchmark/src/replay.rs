//! The traced serve pass's second half: replay the exact bytes the
//! clients sent, on one worker thread, through `Parser` → `Conn` over an
//! in-memory stream → `Service::execute`, with one span per layer per
//! request. Timing these calls from outside is how the benchmark
//! attributes a request's cost to `proto`, `conn` and `service` without
//! touching `hybrids-server`; spans inside the server are a later change.

use std::cell::RefCell;
use std::io::{self, Read, Write};
use std::rc::Rc;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use hybrids_server::runtime::conn::Conn;
use hybrids_server::runtime::ConnCfg;
use hybrids_server::{Clock, Parsed, Parser, ServeCounters, Service, TtlTable};
use nmp_sim::ThreadKind;

use crate::probes::server_shaped_map;
use crate::serve::{Script, ServePlan, MAP_SEED};
use crate::spans::Span;
use crate::stats::median;

#[derive(Default)]
struct Pipe {
    input: Vec<u8>,
    read: usize,
    output: Vec<u8>,
}

/// An in-memory `Read + Write` transport: reads drain what was fed and
/// then report `WouldBlock`, writes accumulate. Cloning shares the pipe,
/// so the caller keeps a handle on the stream a `Conn` owns.
#[derive(Clone, Default)]
pub struct MemStream(Rc<RefCell<Pipe>>);

impl MemStream {
    /// Make `bytes` the next thing the connection reads.
    pub fn feed(&self, bytes: &[u8]) {
        let mut p = self.0.borrow_mut();
        if p.read == p.input.len() {
            p.input.clear();
            p.read = 0;
        }
        p.input.extend_from_slice(bytes);
    }

    /// Take everything written so far.
    pub fn take_output(&self) -> Vec<u8> {
        std::mem::take(&mut self.0.borrow_mut().output)
    }
}

impl Read for MemStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let mut p = self.0.borrow_mut();
        let n = (p.input.len() - p.read).min(buf.len());
        if n == 0 {
            return Err(io::ErrorKind::WouldBlock.into());
        }
        buf[..n].copy_from_slice(&p.input[p.read..p.read + n]);
        p.read += n;
        Ok(n)
    }
}

impl Write for MemStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.borrow_mut().output.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// What the replay measured.
#[derive(Default)]
pub struct Replayed {
    /// One `request` span per timed request with `proto.parse`,
    /// `conn.on_readable`, `service.execute` and `conn.complete+flush`
    /// children.
    pub spans: Vec<Span>,
    /// Median `Service::execute` microseconds by request kind:
    /// get, set, delete, multiget (per key).
    pub service_us: [f64; 4],
    /// Mean `Service::execute` microseconds per timed request.
    pub service_mean_us: f64,
    /// Offload posts per timed request (exact: one worker, no races).
    pub round_trips_per_req: f64,
    /// Replayed responses that differ from the shadow's prediction.
    pub mismatched: u64,
}

/// Replay every connection's script in turn. `epoch` is the span clock.
pub fn replay(plan: &ServePlan, scripts: Arc<Vec<Script>>, epoch: Instant) -> Replayed {
    let (machine, map) = server_shaped_map(plan.buckets, MAP_SEED);
    let service = Service {
        map: Arc::clone(&map),
        ttl: TtlTable::new(Clock::System),
        counters: Arc::new(ServeCounters::default()),
    };
    let mut run = machine.native_run();
    map.spawn_services_on(&mut run);
    let out = Arc::new(Mutex::new(Replayed::default()));
    {
        let (out, machine) = (Arc::clone(&out), Arc::clone(&machine));
        run.spawn("replay", ThreadKind::Host { core: 0 }, move |ctx| {
            let now = |t: Instant| (t - epoch).as_nanos() as u64;
            let mut r = Replayed::default();
            let mut by_kind: [Vec<f64>; 4] = Default::default();
            let (mut service_ns, mut timed, mut posted) = (0u64, 0u64, 0u64);
            let mut dispatch = Vec::new();
            let mut response = Vec::new();
            for (c, script) in scripts.iter().enumerate() {
                let stream = MemStream::default();
                let mut conn = Conn::new(stream.clone(), ConnCfg::default());
                let mut parser = Parser::new();
                let mut posted_before = 0;
                for i in 0..script.len() {
                    let is_timed = i >= script.untimed;
                    if i == script.untimed {
                        posted_before = machine.mem().snapshot().offload.posted_total();
                    }
                    let bytes = script.request(i);
                    let t0 = Instant::now();
                    // The parser alone, on the bytes the connection is about
                    // to parse again inside `on_readable`.
                    parser.push(bytes);
                    let parsed_ok = matches!(parser.next(), Some(Parsed::Cmd(_)));
                    let t1 = Instant::now();
                    stream.feed(bytes);
                    conn.on_readable(&mut dispatch).expect("in-memory stream cannot fail");
                    let t2 = Instant::now();
                    let mut t3 = t2;
                    for (seq, cmd) in dispatch.drain(..) {
                        response.clear();
                        service.execute(ctx, &cmd, &mut response);
                        t3 = Instant::now();
                        conn.complete(seq, std::mem::take(&mut response));
                    }
                    conn.flush().expect("in-memory stream cannot fail");
                    let t4 = Instant::now();
                    if !parsed_ok || stream.take_output() != script.expected(i) {
                        r.mismatched += 1;
                    }
                    if !is_timed {
                        continue;
                    }
                    timed += 1;
                    let exec_ns = (t3 - t2).as_nanos() as u64;
                    service_ns += exec_ns;
                    let kind = script.kind[i];
                    let slot = ["get", "set", "delete", "multiget"]
                        .iter()
                        .position(|k| *k == kind)
                        .expect("known request kind");
                    by_kind[slot].push(exec_ns as f64 / 1e3 / script.nkeys[i].max(1) as f64);
                    let req = ((c as u64 + 1) << 32) | i as u64;
                    let parent = r.spans.len();
                    let track = c as u32 + 1;
                    let span = |layer, name, parent, a: Instant, b: Instant| Span {
                        layer,
                        name,
                        detail: kind,
                        req,
                        parent,
                        track,
                        start_ns: now(a),
                        end_ns: now(b),
                    };
                    r.spans.push(span("replay", "request", None, t0, t4));
                    r.spans.push(span("server::proto", "parse", Some(parent), t0, t1));
                    r.spans.push(span(
                        "server::runtime::conn",
                        "on_readable",
                        Some(parent),
                        t1,
                        t2,
                    ));
                    r.spans.push(span("server::service", "execute", Some(parent), t2, t3));
                    r.spans.push(span(
                        "server::runtime::conn",
                        "complete+flush",
                        Some(parent),
                        t3,
                        t4,
                    ));
                }
                posted += machine.mem().snapshot().offload.posted_total() - posted_before;
            }
            for (slot, samples) in by_kind.iter().enumerate() {
                r.service_us[slot] = if samples.is_empty() { 0.0 } else { median(samples) };
            }
            r.service_mean_us = service_ns as f64 / 1e3 / timed.max(1) as f64;
            r.round_trips_per_req = posted as f64 / timed.max(1) as f64;
            *out.lock().expect("replay result poisoned") = r;
        });
    }
    run.finish();
    let replayed = std::mem::take(&mut *out.lock().expect("replay result poisoned"));
    replayed
}
