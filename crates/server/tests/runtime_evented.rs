//! End-to-end tests for the connection runtime: real sockets on loopback
//! against a real server, exercising exactly the properties the reactor
//! exists to provide — slow-loris tolerance, write backpressure, idle
//! eviction, graceful drain, and answers byte-identical to what the
//! parser and the service layer produce with no socket in between.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hybrids::hashmap::HybridHashMap;
use hybrids_server::proto::{self, Command, Parsed, Parser};
use hybrids_server::ttl::EXPTIME_PIVOT;
use hybrids_server::{Clock, EventedOpts, ServeCounters, Server, ServerOpts, Service, TtlTable};
use nmp_sim::{Config, Machine, ThreadKind};
use parking_lot::Mutex;
use workloads::Rng;

/// Server on an ephemeral port with test-friendly tuning.
fn evented_server(evented: EventedOpts, clock: Clock) -> Server {
    evented_server_with(2, evented, clock)
}

fn evented_server_with(workers: usize, evented: EventedOpts, clock: Clock) -> Server {
    Server::start(&ServerOpts {
        addr: "127.0.0.1:0".into(),
        workers,
        buckets: 256,
        max_inflight: 2,
        seed: 42,
        evented,
        clock,
        ..ServerOpts::default()
    })
    .expect("bind loopback")
}

fn shut_down(addr: std::net::SocketAddr) {
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(&proto::encode_request(&Command::Shutdown)).unwrap();
    let mut buf = [0u8; 16];
    let _ = s.read(&mut buf);
}

fn read_exactly(s: &mut TcpStream, want: usize) -> Vec<u8> {
    let mut out = vec![0u8; want];
    s.read_exact(&mut out).expect("full response");
    out
}

/// Read until EOF (the server closed the connection).
fn read_to_eof(s: &mut TcpStream) -> Vec<u8> {
    let mut out = Vec::new();
    s.read_to_end(&mut out).expect("read to EOF");
    out
}

#[test]
fn evented_pipelined_round_trip_is_byte_exact() {
    let server = evented_server(EventedOpts::default(), Clock::System);
    let addr = server.addr();

    let mut s = TcpStream::connect(addr).unwrap();
    let mut wire = Vec::new();
    wire.extend_from_slice(&proto::encode_request(&Command::Set {
        key: 10,
        value: 7,
        exptime: 0,
        noreply: false,
    }));
    wire.extend_from_slice(&proto::encode_request(&Command::Set {
        key: 11,
        value: 900,
        exptime: 0,
        noreply: true,
    }));
    wire.extend_from_slice(&proto::encode_request(&Command::Get(vec![10, 11, 12])));
    wire.extend_from_slice(&proto::encode_request(&Command::Delete { key: 10, noreply: false }));
    wire.extend_from_slice(&proto::encode_request(&Command::Get(vec![10])));
    s.write_all(&wire).unwrap();

    let mut want = Vec::new();
    want.extend_from_slice(proto::encode_stored());
    want.extend_from_slice(&proto::encode_get(&[(10, 7), (11, 900)]));
    want.extend_from_slice(proto::encode_deleted());
    want.extend_from_slice(&proto::encode_get(&[]));

    let got = read_exactly(&mut s, want.len());
    assert_eq!(got, want, "wire bytes differ from reference encoding");
    drop(s);

    shut_down(addr);
    let (map, counters) = server.wait();
    map.check_invariants();
    assert_eq!(map.collect(), vec![(11, 900)]);
    assert_eq!(counters.get_hits.load(Ordering::Relaxed), 2);
    assert_eq!(counters.get_misses.load(Ordering::Relaxed), 2);
}

/// A clock well past `EXPTIME_PIVOT`, so an `exptime` of PIVOT+1 (an
/// absolute unix timestamp) is already in the past.
fn late_clock() -> Clock {
    Clock::manual(100_000_000).0
}

/// Send `wire` to a fresh server in the given fragments (a pause between
/// fragments keeps the kernel from coalescing them) and return every byte
/// the server sent before it closed the connection.
fn converse(wire: &[u8], fragments: &[usize]) -> Vec<u8> {
    let server = evented_server(EventedOpts::default(), late_clock());
    let addr = server.addr();
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_nodelay(true).unwrap();
    let mut rest = wire;
    for &len in fragments {
        let (now, later) = rest.split_at(len);
        s.write_all(now).unwrap();
        rest = later;
        if !rest.is_empty() {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    assert!(rest.is_empty(), "fragments must cover the wire");
    let got = read_to_eof(&mut s);
    drop(s);
    shut_down(addr);
    server.wait();
    got
}

/// The socket-less reference: `wire` through `Parser` and, per command,
/// `Service::execute` on one host thread of a fresh native machine.
fn reference(wire: &[u8]) -> Vec<u8> {
    let mut cfg = Config::default_scaled();
    cfg.host_cores = 1;
    let machine = Machine::new(cfg);
    let map = HybridHashMap::new(Arc::clone(&machine), 256, 42, 2);
    let service = Service {
        map: Arc::clone(&map),
        ttl: TtlTable::new(late_clock()),
        counters: Arc::new(ServeCounters::default()),
    };
    let mut run = machine.native_run();
    map.spawn_services_on(&mut run);
    let answer = Arc::new(Mutex::new(Vec::new()));
    {
        let (answer, wire) = (Arc::clone(&answer), wire.to_vec());
        run.spawn("reference", ThreadKind::Host { core: 0 }, move |ctx| {
            let mut parser = Parser::new();
            parser.push(&wire);
            let mut out = Vec::new();
            for step in parser.by_ref() {
                match step {
                    Parsed::Cmd(Command::Quit) => break,
                    Parsed::Cmd(cmd) => service.execute(ctx, &cmd, &mut out),
                    Parsed::Error { line, fatal } => {
                        out.extend_from_slice(&proto::encode_error_line(&line));
                        if fatal {
                            break;
                        }
                    }
                }
            }
            *answer.lock() = out;
        });
    }
    run.finish();
    map.check_invariants();
    let out = std::mem::take(&mut *answer.lock());
    out
}

#[test]
fn socket_path_answers_exactly_what_parser_and_service_answer() {
    // A stream touching every response path: stored, noreply, multi-get
    // hits and misses, an immediately-expired set (absolute past
    // exptime), deletes both ways, a recoverable protocol error, and a
    // trailing quit so the server closes the connection.
    let mut wire = Vec::new();
    for cmd in [
        Command::Set { key: 1, value: 11, exptime: 0, noreply: false },
        Command::Set { key: 2, value: 22, exptime: 0, noreply: true },
        Command::Set { key: 3, value: 33, exptime: EXPTIME_PIVOT + 1, noreply: false },
        Command::Get(vec![1, 2, 3, 4]),
        Command::Delete { key: 1, noreply: false },
        Command::Delete { key: 9, noreply: false },
    ] {
        wire.extend_from_slice(&proto::encode_request(&cmd));
    }
    wire.extend_from_slice(b"bogus\r\n");
    wire.extend_from_slice(&proto::encode_request(&Command::Get(vec![2])));
    wire.extend_from_slice(&proto::encode_request(&Command::Quit));

    let want = reference(&wire);
    assert!(!want.is_empty());
    // The expired key was a miss: key 3's get found it dead.
    assert!(String::from_utf8_lossy(&want).contains("VALUE 1 0"));
    assert!(!String::from_utf8_lossy(&want).contains("VALUE 3"));

    let mut rng = Rng::new(0x5eed_f4a6);
    let mut random = Vec::new();
    let mut left = wire.len();
    while left > 0 {
        let take = (1 + rng.below(17) as usize).min(left);
        random.push(take);
        left -= take;
    }
    for (how, fragments) in [
        ("one write", vec![wire.len()]),
        ("one byte at a time", vec![1; wire.len()]),
        ("seeded random fragments", random),
    ] {
        let got = converse(&wire, &fragments);
        assert_eq!(
            String::from_utf8_lossy(&got),
            String::from_utf8_lossy(&want),
            "socket path disagrees with the in-memory reference ({how})"
        );
    }
}

#[test]
fn slow_loris_single_bytes_still_parse() {
    let server = evented_server(EventedOpts::default(), Clock::System);
    let addr = server.addr();

    let mut s = TcpStream::connect(addr).unwrap();
    s.set_nodelay(true).unwrap();
    // Drip a set and a get one byte at a time across ~100 writes.
    for b in b"set 5 0 0 2\r\n37\r\nget 5\r\n" {
        s.write_all(&[*b]).unwrap();
        std::thread::sleep(Duration::from_millis(2));
    }
    let mut want = Vec::new();
    want.extend_from_slice(proto::encode_stored());
    want.extend_from_slice(&proto::encode_get(&[(5, 37)]));
    let got = read_exactly(&mut s, want.len());
    assert_eq!(got, want);
    drop(s);

    shut_down(addr);
    server.wait();
}

#[test]
fn non_draining_reader_trips_backpressure_without_unbounded_buffering() {
    // Tiny write-queue watermarks so the test trips them quickly, and a
    // capped SO_SNDBUF so the kernel (which otherwise auto-tunes socket
    // buffers to many MB and absorbs the whole backlog itself) hands the
    // pressure to userspace.
    let opts = EventedOpts {
        wq_high: 1024,
        wq_low: 256,
        sock_sndbuf: Some(16 * 1024),
        ..EventedOpts::default()
    };
    let server = evented_server(opts, Clock::System);
    let addr = server.addr();
    let counters = server.counters();

    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(b"set 7 0 0 3\r\n123\r\n").unwrap();
    assert_eq!(read_exactly(&mut s, 8), b"STORED\r\n");

    // A writer thread pipelines gets and never reads a byte back. Kernel
    // socket buffers absorb the first chunk of responses, so the volume
    // needed to hit the userspace high-water mark is discovered at run
    // time rather than hard-coded: keep writing until the server parks
    // read interest on this connection.
    const BATCH: usize = 512;
    const MAX_BATCHES: usize = 64; // hard cap ≈ 32K gets / ~750 KB of responses
    let stop = Arc::new(AtomicBool::new(false));
    let sent = Arc::new(AtomicUsize::new(0));
    let writer = {
        let mut s = s.try_clone().unwrap();
        let stop = Arc::clone(&stop);
        let sent = Arc::clone(&sent);
        std::thread::spawn(move || {
            let batch = b"get 7\r\n".repeat(BATCH);
            for _ in 0..MAX_BATCHES {
                if stop.load(Ordering::Acquire) {
                    break;
                }
                s.write_all(&batch).unwrap();
                sent.fetch_add(BATCH, Ordering::Release);
            }
        })
    };

    let trip_deadline = Instant::now() + Duration::from_secs(30);
    while counters.backpressure_pauses.load(Ordering::Relaxed) == 0 {
        assert!(Instant::now() < trip_deadline, "a non-draining reader never parked read interest");
        std::thread::sleep(Duration::from_millis(10));
    }
    stop.store(true, Ordering::Release);

    // Drain. Reading un-wedges the writer if its last `write_all` is
    // blocked; it then sees `stop` and exits. Every response must arrive
    // intact and in order: the stream is a strict repetition of RESP, so
    // each received byte is checked against its expected phase.
    const RESP: &[u8] = b"VALUE 7 0 3\r\n123\r\nEND\r\n";
    s.set_read_timeout(Some(Duration::from_millis(100))).unwrap();
    let mut last_progress = Instant::now();
    let mut got = 0usize;
    let mut buf = vec![0u8; 1 << 16];
    loop {
        if writer.is_finished() && got == sent.load(Ordering::Acquire) * RESP.len() {
            break;
        }
        assert!(
            last_progress.elapsed() < Duration::from_secs(10),
            "drain stalled: {got} bytes received"
        );
        match s.read(&mut buf) {
            Ok(0) => panic!("server closed the connection mid-drain"),
            Ok(n) => {
                for (i, &b) in buf[..n].iter().enumerate() {
                    assert_eq!(
                        b,
                        RESP[(got + i) % RESP.len()],
                        "response stream corrupted at byte {}",
                        got + i
                    );
                }
                got += n;
                last_progress = Instant::now();
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut => {
            }
            Err(e) => panic!("drain read failed: {e}"),
        }
    }
    writer.join().expect("writer thread panicked");
    drop(s);

    shut_down(addr);
    let (_, counters) = server.wait();
    assert!(
        counters.backpressure_pauses.load(Ordering::Relaxed) > 0,
        "a non-draining reader never parked read interest"
    );
}

#[test]
fn parked_peer_does_not_stall_its_reactor_neighbours() {
    // One worker, so A and B share a reactor and every request of either
    // executes on that one thread. Watermarks as in the backpressure test.
    let opts = EventedOpts {
        wq_high: 1024,
        wq_low: 256,
        sock_sndbuf: Some(16 * 1024),
        ..EventedOpts::default()
    };
    let server = evented_server_with(1, opts, Clock::System);
    let addr = server.addr();
    let counters = server.counters();

    let mut a = TcpStream::connect(addr).unwrap();
    a.write_all(b"set 7 0 0 3\r\n123\r\n").unwrap();
    assert_eq!(read_exactly(&mut a, 8), b"STORED\r\n");

    // A pipelines gets and never reads a byte back; its writer stops on
    // `stop`, or on the error from A's socket being shut down under it.
    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let mut a = a.try_clone().unwrap();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let batch = b"get 7\r\n".repeat(512);
            while !stop.load(Ordering::Acquire) && a.write_all(&batch).is_ok() {}
        })
    };

    // B round-trips on the same reactor while A floods it and after A is
    // parked; the read timeout is each round trip's deadline.
    let mut b = TcpStream::connect(addr).unwrap();
    b.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let trip_deadline = Instant::now() + Duration::from_secs(30);
    let mut after_park = 0;
    let mut value = 0u32;
    while after_park < 20 {
        if counters.backpressure_pauses.load(Ordering::Relaxed) > 0 {
            after_park += 1;
        } else {
            assert!(Instant::now() < trip_deadline, "A never parked read interest");
        }
        value += 1;
        let mut wire =
            proto::encode_request(&Command::Set { key: 9, value, exptime: 0, noreply: false });
        wire.extend_from_slice(&proto::encode_request(&Command::Get(vec![9])));
        b.write_all(&wire).unwrap();
        let mut want = proto::encode_stored().to_vec();
        want.extend_from_slice(&proto::encode_get(&[(9, value)]));
        assert_eq!(read_exactly(&mut b, want.len()), want, "B stalled or misread behind A");
    }

    stop.store(true, Ordering::Release);
    a.shutdown(std::net::Shutdown::Both).unwrap();
    writer.join().expect("writer thread panicked");
    drop(a);
    drop(b);

    shut_down(addr);
    server.wait();
}

#[test]
fn pipelined_get_sees_the_set_before_it_on_every_connection() {
    const CONNS: u32 = 64;
    const KEYS: u32 = 50;
    let server = evented_server(EventedOpts::default(), Clock::System);
    let addr = server.addr();

    // Every connection sends its whole pipeline before any is read, so
    // both reactor-workers execute interleaved connections at once.
    let mut conns = Vec::new();
    for c in 0..CONNS {
        let mut s = TcpStream::connect(addr).unwrap();
        let (mut wire, mut want) = (Vec::new(), Vec::new());
        for i in 0..KEYS {
            let (key, value) = (c * KEYS + i + 1, c * 1000 + i + 1);
            wire.extend_from_slice(&proto::encode_request(&Command::Set {
                key,
                value,
                exptime: 0,
                noreply: false,
            }));
            wire.extend_from_slice(&proto::encode_request(&Command::Get(vec![key])));
            want.extend_from_slice(proto::encode_stored());
            want.extend_from_slice(&proto::encode_get(&[(key, value)]));
        }
        s.write_all(&wire).unwrap();
        conns.push((s, want));
    }
    for (c, (mut s, want)) in conns.into_iter().enumerate() {
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let got = read_exactly(&mut s, want.len());
        assert_eq!(got, want, "connection {c}: a get missed the set pipelined before it");
    }

    shut_down(addr);
    let (map, _) = server.wait();
    map.check_invariants();
    assert_eq!(map.collect().len(), (CONNS * KEYS) as usize);
}

#[test]
fn idle_connections_are_evicted() {
    let opts = EventedOpts { idle_timeout_ms: 150, tick_ms: 10, ..EventedOpts::default() };
    let server = evented_server(opts, Clock::System);
    let addr = server.addr();

    // An active exchange keeps the connection alive…
    let mut idle = TcpStream::connect(addr).unwrap();
    idle.write_all(b"get 1\r\n").unwrap();
    read_exactly(&mut idle, b"END\r\n".len());

    // …then going quiet gets it closed by the idle sweep, seen as EOF.
    idle.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let start = Instant::now();
    let mut buf = [0u8; 16];
    let n = idle.read(&mut buf).expect("server should close, not error");
    assert_eq!(n, 0, "expected EOF from idle eviction");
    assert!(start.elapsed() >= Duration::from_millis(100), "evicted suspiciously fast");
    drop(idle);

    shut_down(addr);
    let (_, counters) = server.wait();
    assert!(counters.idle_evicted.load(Ordering::Relaxed) >= 1);
}

#[test]
fn graceful_shutdown_quiesces_in_flight_requests() {
    let server = evented_server(EventedOpts::default(), Clock::System);
    let addr = server.addr();

    // Client A pipelines work and deliberately does not read yet.
    let mut a = TcpStream::connect(addr).unwrap();
    a.write_all(b"set 4 0 0 2\r\n55\r\n").unwrap();
    let n_gets = 200usize;
    let mut burst = Vec::new();
    for _ in 0..n_gets {
        burst.extend_from_slice(b"get 4\r\n");
    }
    a.write_all(&burst).unwrap();
    // Let the reactor ingest A's burst before shutdown stops reads.
    std::thread::sleep(Duration::from_millis(300));

    // Client B asks the server to shut down.
    let mut b = TcpStream::connect(addr).unwrap();
    b.write_all(&proto::encode_request(&Command::Shutdown)).unwrap();
    let ok = read_to_eof(&mut b);
    assert_eq!(ok, b"OK\r\n", "shutdown is acknowledged then the conn closes");

    // A still receives every response it was owed, then EOF.
    let mut want = Vec::new();
    want.extend_from_slice(proto::encode_stored());
    for _ in 0..n_gets {
        want.extend_from_slice(&proto::encode_get(&[(4, 55)]));
    }
    a.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let got = read_to_eof(&mut a);
    assert_eq!(got, want, "in-flight responses were dropped by shutdown");

    let (map, counters) = server.wait();
    map.check_invariants();
    assert_eq!(counters.get_hits.load(Ordering::Relaxed), n_gets as u64);
}

#[test]
fn exptime_expires_lazily_under_manual_clock() {
    let (clock, cell) = Clock::manual(1_000_000);
    let server = evented_server(EventedOpts::default(), clock);
    let addr = server.addr();

    let mut s = TcpStream::connect(addr).unwrap();
    // Relative exptime: dies 5 seconds after the set.
    s.write_all(b"set 6 0 5 2\r\n99\r\nget 6\r\n").unwrap();
    let mut want = Vec::new();
    want.extend_from_slice(proto::encode_stored());
    want.extend_from_slice(&proto::encode_get(&[(6, 99)]));
    assert_eq!(read_exactly(&mut s, want.len()), want, "alive before expiry");

    cell.store(1_000_005, Ordering::Release);
    s.write_all(b"get 6\r\n").unwrap();
    let miss = proto::encode_get(&[]);
    assert_eq!(read_exactly(&mut s, miss.len()), miss, "dead at the boundary second");
    drop(s);

    shut_down(addr);
    let (map, counters) = server.wait();
    assert_eq!(counters.serve_expired.load(Ordering::Relaxed), 1);
    // The lazy expiry really removed the key from the map.
    assert!(map.collect().is_empty());
}
