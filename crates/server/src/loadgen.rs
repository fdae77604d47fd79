//! The `hybrids-loadgen` client: drives a running `hybrids-server` with
//! deterministic request streams and reports throughput and latency
//! percentiles.
//!
//! Request streams come from [`workloads::RequestSpec`] — a pure function
//! of the seed — so two runs against the same server state issue identical
//! byte sequences. There are two modes:
//!
//! * **closed-loop** (default) — every connection keeps `pipeline`
//!   requests outstanding (one, by default: send a request, read its full
//!   response, repeat); latency is the request round trip, and the
//!   offered load self-limits to the service rate. `client_threads`
//!   threads share the connections, each driving its shard of them in
//!   turn (`0` = one thread per connection), which keeps the generator
//!   cheap at connection counts where a thread per connection would
//!   itself be the bottleneck.
//! * **open-loop** (`rate: Some(_)`) — one thread pair per connection: a
//!   paced writer sends each request at its [`workloads::OpenLoop`] due
//!   time regardless of outstanding responses, while a reader consumes
//!   responses in order; latency is measured from the *due* time, so
//!   queueing delay shows up in the percentiles instead of silently
//!   throttling the arrival process.
//!
//! Per-request latencies are merged across connections for the percentile
//! summary, and throughput is total requests over wall-clock time.

use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use workloads::{CacheMix, CacheRequest, Key, KeyDist, KeySpace, OpenLoop, RequestSpec};

use crate::proto::{encode_request, Command};

/// Load-generation options.
#[derive(Debug, Clone)]
pub struct LoadgenOpts {
    /// Server address, e.g. `127.0.0.1:11211`.
    pub addr: String,
    /// Concurrent connections.
    pub conns: u32,
    /// Timed requests per connection.
    pub per_conn: u32,
    /// Root seed for the request streams.
    pub seed: u64,
    /// get/set/delete percentages.
    pub mix: CacheMix,
    /// Key popularity for get/set/delete targets.
    pub dist: KeyDist,
    /// Size of the key universe (initial keys; multiple of 4).
    pub keys: u32,
    /// Pre-populate the universe with `set`s before the timed phase.
    pub preload: bool,
    /// Send `shutdown` after the run (CI teardown).
    pub shutdown: bool,
    /// Open-loop total offered rate in requests/second across all
    /// connections; `None` runs closed-loop.
    pub rate: Option<u32>,
    /// Closed-loop only: drive all connections from this many client
    /// threads (`0`, or more than `conns`, = one thread per connection).
    /// Each thread owns a shard of connections and serves them in turn —
    /// a bounded window of outstanding requests per connection — so the
    /// *client* stays cheap at connection counts where a
    /// thread-per-connection generator becomes the benchmark bottleneck.
    pub client_threads: u32,
    /// Closed-loop only: outstanding requests per connection (memcached
    /// pipelining; clamped to at least 1).
    pub pipeline: u32,
}

impl Default for LoadgenOpts {
    fn default() -> Self {
        LoadgenOpts {
            addr: "127.0.0.1:11211".into(),
            conns: 4,
            per_conn: 5_000,
            seed: 42,
            mix: CacheMix::read_heavy(),
            dist: KeyDist::Zipfian,
            keys: 4096,
            preload: true,
            shutdown: false,
            rate: None,
            client_threads: 0,
            pipeline: 1,
        }
    }
}

/// The run summary `hybrids-loadgen` prints.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LoadReport {
    /// Artifact tag (`serve_throughput`).
    pub experiment: String,
    /// Engine serving the requests (always `native`: real OS threads).
    pub backend: String,
    /// Connections driven.
    pub conns: u32,
    /// Timed requests per connection.
    pub per_conn: u32,
    /// Total timed requests completed.
    pub total_ops: u64,
    /// Wall-clock seconds of the timed phase.
    pub elapsed_s: f64,
    /// Served requests per second.
    pub ops_per_sec: f64,
    /// Median round-trip latency, microseconds.
    pub p50_us: f64,
    /// 95th-percentile round-trip latency, microseconds.
    pub p95_us: f64,
    /// 99th-percentile round-trip latency, microseconds.
    pub p99_us: f64,
    /// `get` requests that returned a value.
    pub get_hits: u64,
    /// `get` requests that missed.
    pub get_misses: u64,
    /// get/set/delete mix label.
    pub mix: String,
    /// Root seed.
    pub seed: u64,
    /// `closed` or `open` (paced arrivals).
    pub mode: String,
    /// Open-loop total offered rate (requests/second); `None` when
    /// closed-loop.
    pub offered_rate: Option<u32>,
}

/// Per-connection tallies folded into the report.
#[derive(Debug, Default)]
struct ConnStats {
    latencies_ns: Vec<u64>,
    get_hits: u64,
    get_misses: u64,
}

/// A line-framed client connection.
struct Conn {
    reader: BufReader<TcpStream>,
    line: String,
}

impl Conn {
    fn connect(addr: &str) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn { reader: BufReader::new(stream), line: String::new() })
    }

    /// Read one line (no socket has a read deadline, so this blocks until
    /// the server answers or closes).
    fn read_line(&mut self) -> io::Result<&str> {
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "server closed"));
        }
        Ok(self.line.trim_end_matches(['\r', '\n']))
    }

    fn send(&mut self, cmd: &Command) -> io::Result<()> {
        self.reader.get_mut().write_all(&encode_request(cmd))
    }

    /// Read a full `get` response; returns the number of VALUE stanzas.
    fn read_get_response(&mut self) -> io::Result<u32> {
        let mut hits = 0;
        loop {
            let line = self.read_line()?;
            if line == "END" {
                return Ok(hits);
            }
            if line.starts_with("VALUE ") {
                hits += 1;
                // The data block is one line (decimal u32).
                self.read_line()?;
            } else if line.starts_with("ERROR") || line.contains("_ERROR") {
                return Err(io::Error::other(format!("server error: {line}")));
            } else {
                return Err(io::Error::other(format!("unexpected get reply: {line}")));
            }
        }
    }

    /// Read and validate the complete response to `req`; records hit/miss
    /// for gets.
    fn read_response(&mut self, req: &CacheRequest, stats: &mut ConnStats) -> io::Result<()> {
        match *req {
            CacheRequest::Get(_) => {
                if self.read_get_response()? > 0 {
                    stats.get_hits += 1;
                } else {
                    stats.get_misses += 1;
                }
            }
            CacheRequest::Set(..) => {
                let line = self.read_line()?;
                if line != "STORED" {
                    return Err(io::Error::other(format!("set failed: {line}")));
                }
            }
            CacheRequest::Delete(_) => {
                let line = self.read_line()?;
                if line != "DELETED" && line != "NOT_FOUND" {
                    return Err(io::Error::other(format!("delete failed: {line}")));
                }
            }
        }
        Ok(())
    }
}

/// The wire command for one generated request.
fn request_command(req: &CacheRequest) -> Command {
    match *req {
        CacheRequest::Get(key) => Command::Get(vec![key]),
        CacheRequest::Set(key, value) => Command::Set { key, value, exptime: 0, noreply: false },
        CacheRequest::Delete(key) => Command::Delete { key, noreply: false },
    }
}

/// The key universe the generator draws from.
pub fn keyspace(keys: u32) -> KeySpace {
    KeySpace::new(keys, 4, 64)
}

/// Pre-populate every initial key over one connection (`set k 0 0 …`).
fn preload(addr: &str, ks: &KeySpace) -> io::Result<()> {
    let mut conn = Conn::connect(addr)?;
    for i in 0..ks.total_initial() {
        let key: Key = ks.initial_key(i);
        conn.send(&Command::Set { key, value: key ^ 0x5aa5_5aa5, exptime: 0, noreply: false })?;
        let line = conn.read_line()?;
        if line != "STORED" {
            return Err(io::Error::other(format!("preload set failed: {line}")));
        }
    }
    Ok(())
}

/// One client thread's closed loop over a shard of connections (often
/// just one): every connection keeps up to `window` requests outstanding
/// (memcached pipelining), and each round the thread reads one response
/// and tops the window back up on every connection in turn. Latency is
/// the round trip from a request's send to its complete response. With
/// many connections per thread the generator stays off the scheduler's
/// back at connection counts where thread-per-connection clients would
/// themselves be the bottleneck. Every connection is held open for the
/// whole run.
fn run_conns_muxed(
    addr: &str,
    streams: &[Vec<CacheRequest>],
    window: u32,
) -> io::Result<ConnStats> {
    let window = window.max(1) as usize;
    let mut conns = Vec::with_capacity(streams.len());
    for _ in streams {
        conns.push(Conn::connect(addr)?);
    }
    let total: usize = streams.iter().map(Vec::len).sum();
    let mut stats = ConnStats { latencies_ns: Vec::with_capacity(total), ..Default::default() };
    // Per-connection cursors and in-flight send timestamps.
    let mut next_send = vec![0usize; streams.len()];
    let mut next_read = vec![0usize; streams.len()];
    let mut sent_at: Vec<std::collections::VecDeque<Instant>> =
        streams.iter().map(|_| std::collections::VecDeque::with_capacity(window)).collect();
    // Fill every connection's window.
    for (i, stream) in streams.iter().enumerate() {
        while next_send[i] < stream.len().min(window) {
            sent_at[i].push_back(Instant::now());
            conns[i].send(&request_command(&stream[next_send[i]]))?;
            next_send[i] += 1;
        }
    }
    let mut done = 0;
    while done < total {
        for (i, stream) in streams.iter().enumerate() {
            if next_read[i] == next_send[i] {
                continue; // nothing in flight
            }
            conns[i].read_response(&stream[next_read[i]], &mut stats)?;
            let t0 = sent_at[i].pop_front().expect("in-flight timestamp");
            stats.latencies_ns.push(t0.elapsed().as_nanos() as u64);
            next_read[i] += 1;
            done += 1;
            if next_send[i] < stream.len() {
                sent_at[i].push_back(Instant::now());
                conns[i].send(&request_command(&stream[next_send[i]]))?;
                next_send[i] += 1;
            }
        }
    }
    Ok(stats)
}

/// One connection's open loop: a writer thread sends each request at its
/// scheduled due time whether or not earlier responses have arrived; this
/// thread reads responses in order. Latency runs from the request's *due*
/// time to its response, so falling behind schedule is charged to the
/// server, not hidden by a stalled arrival process.
fn run_conn_open(addr: &str, stream: Vec<CacheRequest>, pace: OpenLoop) -> io::Result<ConnStats> {
    let sock = TcpStream::connect(addr)?;
    sock.set_nodelay(true)?;
    let mut wr = sock.try_clone()?;
    let reqs = Arc::new(stream);
    let start = Instant::now();
    let writer = {
        let reqs = Arc::clone(&reqs);
        std::thread::spawn(move || -> io::Result<()> {
            for (i, req) in reqs.iter().enumerate() {
                let due = Duration::from_nanos(pace.offset_ns(i as u32));
                let elapsed = start.elapsed();
                if elapsed < due {
                    std::thread::sleep(due - elapsed);
                }
                wr.write_all(&encode_request(&request_command(req)))?;
            }
            Ok(())
        })
    };
    let mut conn = Conn { reader: BufReader::new(sock), line: String::new() };
    let mut stats =
        ConnStats { latencies_ns: Vec::with_capacity(reqs.len()), ..Default::default() };
    for (i, req) in reqs.iter().enumerate() {
        conn.read_response(req, &mut stats)?;
        let due_ns = pace.offset_ns(i as u32);
        let lat = (start.elapsed().as_nanos() as u64).saturating_sub(due_ns);
        stats.latencies_ns.push(lat);
    }
    writer.join().expect("open-loop writer panicked")?;
    Ok(stats)
}

/// Run the workload and assemble the report.
pub fn run(opts: &LoadgenOpts) -> io::Result<LoadReport> {
    let ks = keyspace(opts.keys);
    if opts.preload {
        preload(&opts.addr, &ks)?;
    }
    let spec = RequestSpec {
        seed: opts.seed,
        conns: opts.conns,
        per_conn: opts.per_conn,
        dist: opts.dist,
        mix: opts.mix,
    };
    let streams = spec.generate(&ks);
    let pace = opts.rate.and_then(|total| OpenLoop::split_total(total, opts.conns));
    // Connections per thread: one in open-loop mode and when no pool size
    // is given, else an even split over the pool.
    let shard = match (pace, opts.client_threads) {
        (Some(_), _) | (None, 0) => 1,
        (None, threads) => streams.len().div_ceil(threads as usize).max(1),
    };

    let started = Instant::now();
    let mut handles = Vec::new();
    for (t, chunk) in streams.chunks(shard).enumerate() {
        let addr = opts.addr.clone();
        let mut chunk = chunk.to_vec();
        let window = opts.pipeline;
        handles.push(
            std::thread::Builder::new()
                .name(format!("loadgen-{t}"))
                .spawn(move || match pace {
                    Some(p) => run_conn_open(&addr, chunk.pop().expect("one connection"), p),
                    None => run_conns_muxed(&addr, &chunk, window),
                })
                .expect("spawn loadgen thread"),
        );
    }
    let mut latencies = Vec::new();
    let mut get_hits = 0u64;
    let mut get_misses = 0u64;
    for h in handles {
        let stats = h.join().expect("loadgen thread panicked")?;
        latencies.extend_from_slice(&stats.latencies_ns);
        get_hits += stats.get_hits;
        get_misses += stats.get_misses;
    }
    let elapsed_s = started.elapsed().as_secs_f64();

    if opts.shutdown {
        let mut conn = Conn::connect(&opts.addr)?;
        conn.send(&Command::Shutdown)?;
        let _ = conn.read_line(); // "OK"
    }

    latencies.sort_unstable();
    let total_ops = latencies.len() as u64;
    Ok(LoadReport {
        experiment: "serve_throughput".into(),
        backend: "native".into(),
        conns: opts.conns,
        per_conn: opts.per_conn,
        total_ops,
        elapsed_s,
        ops_per_sec: if elapsed_s > 0.0 { total_ops as f64 / elapsed_s } else { 0.0 },
        p50_us: percentile_us(&latencies, 50.0),
        p95_us: percentile_us(&latencies, 95.0),
        p99_us: percentile_us(&latencies, 99.0),
        get_hits,
        get_misses,
        mix: opts.mix.label(),
        seed: opts.seed,
        mode: if pace.is_some() { "open".into() } else { "closed".into() },
        offered_rate: opts.rate,
    })
}

/// Nearest-rank percentile over sorted nanosecond samples, in µs.
fn percentile_us(sorted_ns: &[u64], p: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted_ns.len() as f64).ceil() as usize;
    sorted_ns[rank.clamp(1, sorted_ns.len()) - 1] as f64 / 1_000.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_nearest_rank() {
        let ns: Vec<u64> = (1..=100).map(|i| i * 1_000).collect();
        assert_eq!(percentile_us(&ns, 50.0), 50.0);
        assert_eq!(percentile_us(&ns, 95.0), 95.0);
        assert_eq!(percentile_us(&ns, 99.0), 99.0);
        assert_eq!(percentile_us(&ns, 100.0), 100.0);
        assert_eq!(percentile_us(&[], 50.0), 0.0);
        assert_eq!(percentile_us(&[7_500], 50.0), 7.5);
    }

    #[test]
    fn report_serializes() {
        let r = LoadReport {
            experiment: "serve_throughput".into(),
            backend: "native".into(),
            conns: 2,
            per_conn: 10,
            total_ops: 20,
            elapsed_s: 0.5,
            ops_per_sec: 40.0,
            p50_us: 1.0,
            p95_us: 2.0,
            p99_us: 3.0,
            get_hits: 5,
            get_misses: 6,
            mix: "90-9-1".into(),
            seed: 42,
            mode: "closed".into(),
            offered_rate: None,
        };
        let json = serde_json::to_string(&r).unwrap();
        assert!(json.contains("\"backend\":\"native\""));
        assert!(json.contains("\"ops_per_sec\""));
    }
}
