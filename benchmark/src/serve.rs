//! The three cache-server workloads: an in-process `hybrids-server`
//! (evented runtime, native backend) driven over loopback by a closed-loop
//! client that checks every response against the shadow model.
//!
//! All load comes from this process: `CONNS` client threads, one
//! connection each (= `nproc` on the sandbox). Closed loop, because
//! memcached callers wait for their reply; an open-loop pacer sharing one
//! CPU with eight yield-spinning combiners would time the scheduler's
//! wake-ups, not the server.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use hybrids_server::{RuntimeKind, ServeCounters, Server, ServerOpts};
use workloads::{mix64, Key, Rng, ScrambledZipfian};

use crate::shadow::{Req, Shadow, EXPTIME_FAR, EXPTIME_HOUR, EXPTIME_PAST};
use crate::spans::Span;

/// Client threads = connections. Each owns the keys `1 + i * CONNS + conn`.
pub const CONNS: usize = 2;
/// Server request workers (host cores of the native machine).
pub const WORKERS: usize = 2;
/// Offload lanes per worker.
pub const LANES: usize = 4;
/// The map's hash seed (`ServerOpts::default()`'s): a setting of the
/// server, not an input, so it does not follow `--seed`.
pub const MAP_SEED: u64 = 42;
/// Share of the timed request count run first, untimed, as warm-up.
const WARMUP_SHARE: f64 = 0.05;
/// Requests in flight while preloading (untimed; pipelined to keep set-up
/// short — one connection's requests still execute in order).
const PRELOAD_DEPTH: usize = 16;
/// A response that has not fully arrived after this long is a failure.
const READ_TIMEOUT: Duration = Duration::from_secs(5);

/// Which cache-server workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeKind {
    /// 90/9/1 get/set/delete, zipfian, single key, one request in flight.
    Get,
    /// 45 % set (half with an expiry) / 45 % get / 10 % delete, uniform.
    SetTtl,
    /// 95 % 16-key get / 5 % set, uniform, 8 requests in flight.
    Multiget,
}

/// Shape of one serve workload.
#[derive(Debug, Clone, Copy)]
pub struct ServePlan {
    /// Which mix.
    pub kind: ServeKind,
    /// Hash-map buckets.
    pub buckets: u32,
    /// Keys in the universe (all preloaded).
    pub keys: u32,
    /// Requests each connection keeps in flight.
    pub depth: usize,
    /// Timed requests per connection.
    pub per_conn: usize,
}

impl ServePlan {
    /// The plan of `kind` at `per_conn` timed requests per connection.
    pub fn new(kind: ServeKind, per_conn: usize) -> Self {
        let (buckets, keys, depth) = match kind {
            ServeKind::Get => (1024, 4096, 1),
            ServeKind::SetTtl => (8192, 32_768, 1),
            ServeKind::Multiget => (8192, 32_768, 8),
        };
        ServePlan { kind, buckets, keys, depth, per_conn }
    }

    fn warmup(&self) -> usize {
        (self.per_conn as f64 * WARMUP_SHARE).ceil() as usize
    }
}

/// One connection's whole conversation, pre-encoded: preload, then
/// warm-up, then the timed requests, with the response the shadow
/// predicts for each.
pub struct Script {
    /// Request wire bytes, back to back.
    pub tx: Vec<u8>,
    /// End offset of each request in `tx`.
    pub tx_end: Vec<u32>,
    /// Expected response bytes, back to back.
    pub rx: Vec<u8>,
    /// End offset of each expected response in `rx`.
    pub rx_end: Vec<u32>,
    /// Kind label of each request.
    pub kind: Vec<&'static str>,
    /// Keys each request touches.
    pub nkeys: Vec<u16>,
    /// Requests before the first timed one (preload + warm-up).
    pub untimed: usize,
}

impl Script {
    /// Number of requests.
    pub fn len(&self) -> usize {
        self.tx_end.len()
    }

    /// Wire bytes of request `i`.
    pub fn request(&self, i: usize) -> &[u8] {
        nth(&self.tx, &self.tx_end, i)
    }

    /// Expected response bytes of request `i`.
    pub fn expected(&self, i: usize) -> &[u8] {
        nth(&self.rx, &self.rx_end, i)
    }
}

/// The `i`-th of the back-to-back items in `bytes` that end at `ends`.
fn nth<'a>(bytes: &'a [u8], ends: &[u32], i: usize) -> &'a [u8] {
    let start = if i == 0 { 0 } else { ends[i - 1] as usize };
    &bytes[start..ends[i] as usize]
}

/// Generate connection `conn`'s script and the shadow state it ends in.
pub fn script(plan: &ServePlan, seed: u64, conn: usize, now_unix: u64) -> (Script, Shadow) {
    let slice = plan.keys as usize / CONNS;
    let key_at = |i: u64| -> Key { 1 + (i as usize * CONNS + conn) as Key };
    let mut rng = Rng::new(mix64(seed ^ 0x5E77E)).fork(conn as u64);
    let zipf = ScrambledZipfian::ycsb(slice as u64);
    let mut shadow = Shadow::new(now_unix);
    let total = slice + plan.warmup() + plan.per_conn;
    let mut s = Script {
        tx: Vec::new(),
        tx_end: Vec::with_capacity(total),
        rx: Vec::new(),
        rx_end: Vec::with_capacity(total),
        kind: Vec::with_capacity(total),
        nkeys: Vec::with_capacity(total),
        untimed: slice + plan.warmup(),
    };
    let emit = |req: Req, s: &mut Script, shadow: &mut Shadow| {
        req.encode(&mut s.tx);
        s.tx_end.push(s.tx.len() as u32);
        shadow.apply(&req, &mut s.rx);
        s.rx_end.push(s.rx.len() as u32);
        s.kind.push(req.kind());
        s.nkeys.push(req.keys() as u16);
    };
    for i in 0..slice as u64 {
        let key = key_at(i);
        emit(Req::Set { key, value: key ^ 0x5aa5_5aa5, exptime: 0 }, &mut s, &mut shadow);
    }
    for _ in 0..plan.warmup() + plan.per_conn {
        let roll = rng.below(100);
        let req = match plan.kind {
            ServeKind::Get => {
                let key = key_at(zipf.next_index(&mut rng));
                match roll {
                    0..=89 => Req::Get(vec![key]),
                    90..=98 => Req::Set { key, value: rng.next_u32() | 1, exptime: 0 },
                    _ => Req::Delete(key),
                }
            }
            ServeKind::SetTtl => {
                let key = key_at(rng.below(slice as u64));
                match roll {
                    0..=44 => {
                        // Half the sets carry an expiry: relative, far
                        // absolute, or an absolute time already past.
                        let exptime = match rng.below(6) {
                            0 => EXPTIME_HOUR,
                            1 => EXPTIME_FAR,
                            2 => EXPTIME_PAST,
                            _ => 0,
                        };
                        Req::Set { key, value: rng.next_u32() | 1, exptime }
                    }
                    45..=89 => Req::Get(vec![key]),
                    _ => Req::Delete(key),
                }
            }
            ServeKind::Multiget => match roll {
                0..=94 => Req::Get((0..16).map(|_| key_at(rng.below(slice as u64))).collect()),
                _ => Req::Set {
                    key: key_at(rng.below(slice as u64)),
                    value: rng.next_u32() | 1,
                    exptime: 0,
                },
            },
        };
        emit(req, &mut s, &mut shadow);
    }
    (s, shadow)
}

/// Current unix time in whole seconds.
pub fn unix_now() -> u64 {
    SystemTime::now().duration_since(UNIX_EPOCH).map_or(0, |d| d.as_secs())
}

/// What one client thread observed over a range of its script.
#[derive(Default)]
pub struct ClientRun {
    /// Round-trip latency of each request, send → last response byte.
    pub lat_ns: Vec<u64>,
    /// Requests whose response was wrong, late, or never came.
    pub failed: u64,
    /// When the first request was sent / the last response was read.
    pub window: Option<(Instant, Instant)>,
    /// One span per request (traced runs only).
    pub spans: Vec<Span>,
}

/// Fill `buf` from `stream`; returns when the first bytes arrived.
fn read_full(stream: &mut TcpStream, buf: &mut [u8]) -> io::Result<Instant> {
    let mut got = 0;
    let mut first = None;
    while got < buf.len() {
        match stream.read(&mut buf[got..]) {
            Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
            Ok(n) => {
                first.get_or_insert_with(Instant::now);
                got += n;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(first.unwrap_or_else(Instant::now))
}

/// Drive requests `range` of `script` over `stream`, `depth` in flight,
/// checking every response byte for byte. A response of the wrong length
/// loses framing, so it fails every later request of the connection too.
pub fn drive(
    stream: &mut TcpStream,
    script: &Script,
    range: std::ops::Range<usize>,
    depth: usize,
    trace: Option<(Instant, u32)>,
) -> ClientRun {
    let n = range.len();
    let mut run = ClientRun { lat_ns: Vec::with_capacity(n), ..Default::default() };
    if trace.is_some() {
        run.spans.reserve(n);
    }
    let mut sent_at: Vec<Instant> = Vec::with_capacity(n);
    let mut buf = vec![0u8; 64];
    let (mut sent, mut done) = (0usize, 0usize);
    let started = Instant::now();
    'conn: while done < n {
        while sent < n && sent - done < depth {
            sent_at.push(Instant::now());
            if stream.write_all(script.request(range.start + sent)).is_err() {
                run.failed += (n - done) as u64;
                break 'conn;
            }
            sent += 1;
        }
        let i = range.start + done;
        let want = script.expected(i);
        if buf.len() < want.len() {
            buf.resize(want.len(), 0);
        }
        let first = match read_full(stream, &mut buf[..want.len()]) {
            Ok(first) => first,
            Err(_) => {
                run.failed += (n - done) as u64;
                break;
            }
        };
        let end = Instant::now();
        run.lat_ns.push((end - sent_at[done]).as_nanos() as u64);
        if &buf[..want.len()] != want {
            run.failed += 1;
        }
        if let Some((epoch, track)) = trace {
            let start_ns = (sent_at[done] - epoch).as_nanos() as u64;
            let req = ((track as u64) << 32) | i as u64;
            let parent = run.spans.len();
            run.spans.push(Span {
                layer: "client",
                name: "request",
                detail: script.kind[i],
                req,
                parent: None,
                track,
                start_ns,
                end_ns: (end - epoch).as_nanos() as u64,
            });
            run.spans.push(Span {
                layer: "client",
                name: "wait-first-byte",
                detail: script.kind[i],
                req,
                parent: Some(parent),
                track,
                start_ns,
                end_ns: (first - epoch).as_nanos() as u64,
            });
        }
        done += 1;
    }
    run.window = Some((started, Instant::now()));
    run
}

/// A started server with its connected, preloaded, warmed-up clients.
pub struct Live {
    server: Server,
    conns: Vec<TcpStream>,
    /// Per-connection scripts.
    pub scripts: Arc<Vec<Script>>,
    shadows: Vec<Shadow>,
    /// Milliseconds from `connect()` to each connection's first response.
    pub connect_ms: Vec<f64>,
    /// Failures during preload and warm-up.
    pub setup_failed: u64,
}

fn connect(addr: SocketAddr) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(READ_TIMEOUT))?;
    Ok(stream)
}

/// Everything before the timed window: generate the scripts, start the
/// server, connect, preload each connection's key slice, warm up.
pub fn setup(plan: &ServePlan, seed: u64) -> io::Result<Live> {
    let now = unix_now();
    let (scripts, shadows): (Vec<Script>, Vec<Shadow>) =
        (0..CONNS).map(|c| script(plan, seed, c, now)).unzip();
    let scripts = Arc::new(scripts);
    let server = Server::start(&ServerOpts {
        addr: "127.0.0.1:0".into(),
        workers: WORKERS,
        buckets: plan.buckets,
        max_inflight: LANES,
        seed: MAP_SEED,
        runtime: RuntimeKind::Evented,
        ..Default::default()
    })?;
    let mut conns = Vec::with_capacity(CONNS);
    let mut connect_ms = Vec::with_capacity(CONNS);
    let mut setup_failed = 0;
    // One at a time, each answered before the next connects, so accept
    // order — and with it the connection → reactor → worker pinning — is
    // the same on every run.
    for script in scripts.iter() {
        let t0 = Instant::now();
        let mut stream = connect(server.addr())?;
        setup_failed += drive(&mut stream, script, 0..1, 1, None).failed;
        connect_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        conns.push(stream);
    }
    let (depth, warmup) = (plan.depth, plan.warmup());
    let handles: Vec<_> = conns
        .drain(..)
        .enumerate()
        .map(|(c, mut stream)| {
            let scripts = Arc::clone(&scripts);
            std::thread::spawn(move || {
                let s = &scripts[c];
                let preloaded = s.untimed - warmup;
                let failed = drive(&mut stream, s, 1..preloaded, PRELOAD_DEPTH, None).failed
                    + drive(&mut stream, s, preloaded..s.untimed, depth, None).failed;
                (stream, failed)
            })
        })
        .collect();
    for h in handles {
        let (stream, failed) = h.join().expect("warm-up client panicked");
        setup_failed += failed;
        conns.push(stream);
    }
    Ok(Live { server, conns, scripts, shadows, connect_ms, setup_failed })
}

/// The timed window of one run.
pub struct Timed {
    /// Per-connection client observations.
    pub clients: Vec<ClientRun>,
    /// Wall seconds from the first send to the last response.
    pub wall_s: f64,
}

impl Live {
    /// Run the timed requests: `CONNS` client threads released together.
    pub fn run_timed(&mut self, depth: usize, trace_epoch: Option<Instant>) -> Timed {
        let barrier = Arc::new(Barrier::new(CONNS));
        let handles: Vec<_> = self
            .conns
            .drain(..)
            .enumerate()
            .map(|(c, mut stream)| {
                let scripts = Arc::clone(&self.scripts);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    let s = &scripts[c];
                    barrier.wait();
                    let trace = trace_epoch.map(|e| (e, c as u32 + 1));
                    let run = drive(&mut stream, s, s.untimed..s.len(), depth, trace);
                    (stream, run)
                })
            })
            .collect();
        let mut clients = Vec::with_capacity(CONNS);
        for h in handles {
            let (stream, run) = h.join().expect("client panicked");
            self.conns.push(stream);
            clients.push(run);
        }
        let start = clients.iter().filter_map(|c| c.window).map(|w| w.0).min();
        let end = clients.iter().filter_map(|c| c.window).map(|w| w.1).max();
        let wall_s = match (start, end) {
            (Some(s), Some(e)) => (e - s).as_secs_f64(),
            _ => 0.0,
        };
        Timed { clients, wall_s }
    }

    /// Close the clients, stop the server, and hold the map it returns to
    /// the merged shadows: returns the number of keys that differ, and the
    /// server's counters.
    pub fn finish(self) -> (u64, Arc<ServeCounters>) {
        let Live { server, conns, shadows, .. } = self;
        drop(conns);
        server.stop();
        let (map, counters) = server.wait();
        map.check_invariants();
        let mut want: Vec<(Key, u32)> = shadows.iter().flat_map(Shadow::contents).collect();
        want.sort_unstable();
        let got = map.collect();
        let differing = if got == want {
            0
        } else {
            let want: std::collections::BTreeSet<_> = want.into_iter().collect();
            let got: std::collections::BTreeSet<_> = got.into_iter().collect();
            want.symmetric_difference(&got).count() as u64
        };
        (differing, counters)
    }

    /// `get` keys that hit over `get` keys looked up, per the shadows.
    pub fn hit_share(&self) -> f64 {
        let hits: u64 = self.shadows.iter().map(|s| s.hits).sum();
        let lookups: u64 = self.shadows.iter().map(|s| s.lookups).sum();
        if lookups == 0 {
            0.0
        } else {
            hits as f64 / lookups as f64
        }
    }
}
