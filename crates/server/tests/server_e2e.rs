//! End-to-end tests: a real `hybrids-server` on loopback, driven over
//! real sockets.
//!
//! These are the executable form of the quickstart: start the server on
//! an ephemeral port, speak the wire protocol at it (byte-exact against
//! the reference encoders), run the load generator, shut down, inspect
//! the surviving map.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;

use hybrids_server::loadgen::{self, LoadgenOpts};
use hybrids_server::proto::{self, Command};
use hybrids_server::{Server, ServerOpts};
use workloads::{CacheMix, KeyDist};

fn test_server() -> Server {
    Server::start(&ServerOpts {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        buckets: 256,
        max_inflight: 2,
        seed: 42,
        ..ServerOpts::default()
    })
    .expect("bind loopback")
}

/// Send `shutdown` so `Server::wait` can join.
fn shut_down(addr: std::net::SocketAddr) {
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(&proto::encode_request(&Command::Shutdown)).unwrap();
    let mut buf = [0u8; 16];
    let _ = s.read(&mut buf);
}

/// Read until the connection has produced `want` bytes (responses arrive
/// in one or more TCP segments).
fn read_exactly(s: &mut TcpStream, want: usize) -> Vec<u8> {
    let mut out = vec![0u8; want];
    s.read_exact(&mut out).expect("full response");
    out
}

#[test]
fn pipelined_round_trip_is_byte_exact() {
    let server = test_server();
    let addr = server.addr();

    let mut s = TcpStream::connect(addr).unwrap();
    // One write carrying a whole pipelined conversation.
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
    wire.extend_from_slice(&proto::encode_request(&Command::Delete { key: 12, noreply: false }));
    wire.extend_from_slice(&proto::encode_request(&Command::Get(vec![10])));
    s.write_all(&wire).unwrap();

    // Expected bytes, straight from the reference encoders.
    let mut want = Vec::new();
    want.extend_from_slice(proto::encode_stored());
    want.extend_from_slice(&proto::encode_get(&[(10, 7), (11, 900)]));
    want.extend_from_slice(proto::encode_deleted());
    want.extend_from_slice(proto::encode_not_found());
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

#[test]
fn malformed_input_gets_errors_not_hangups() {
    let server = test_server();
    let addr = server.addr();

    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(b"frobnicate\r\nget zero\r\nset 1 0 0 1\r\n7\r\nget 1\r\n").unwrap();
    let mut want = Vec::new();
    want.extend_from_slice(&proto::encode_error_line("ERROR"));
    want.extend_from_slice(&proto::encode_error_line("CLIENT_ERROR bad key"));
    want.extend_from_slice(proto::encode_stored());
    want.extend_from_slice(&proto::encode_get(&[(1, 7)]));
    let got = read_exactly(&mut s, want.len());
    assert_eq!(got, want);
    drop(s);

    shut_down(addr);
    let (map, counters) = server.wait();
    map.check_invariants();
    assert_eq!(counters.proto_errors.load(Ordering::Relaxed), 2);
}

#[test]
fn loadgen_mixed_run_produces_report() {
    let server = test_server();
    let addr = server.addr();

    let opts = LoadgenOpts {
        addr: addr.to_string(),
        conns: 2,
        per_conn: 300,
        seed: 7,
        mix: CacheMix::new(60, 30, 10),
        dist: KeyDist::Uniform,
        keys: 512,
        preload: true,
        shutdown: true,
        rate: None,
        client_threads: 0,
        pipeline: 1,
    };
    let report = loadgen::run(&opts).expect("loadgen run");
    assert_eq!(report.total_ops, 600);
    assert_eq!(report.backend, "native");
    assert_eq!(report.mix, "60-30-10");
    assert_eq!(report.mode, "closed");
    assert!(report.ops_per_sec > 0.0);
    assert!(report.p50_us > 0.0 && report.p50_us <= report.p95_us);
    assert!(report.p95_us <= report.p99_us);
    // Preload makes most gets hit (deletes erode a few keys).
    assert!(report.get_hits > report.get_misses, "{report:?}");

    let (map, counters) = server.wait();
    map.check_invariants();
    assert!(counters.sets.load(Ordering::Relaxed) >= 512, "preload counted");
    // The served state is a coherent map: every surviving key has a
    // nonzero value and keys are unique.
    let contents = map.collect();
    let mut keys: Vec<u32> = contents.iter().map(|(k, _)| *k).collect();
    keys.sort_unstable();
    keys.dedup();
    assert_eq!(keys.len(), contents.len(), "duplicate keys in chains");
}

#[test]
fn loadgen_open_loop_paces_arrivals_and_reports() {
    let server = test_server();
    let addr = server.addr();

    let opts = LoadgenOpts {
        addr: addr.to_string(),
        conns: 2,
        per_conn: 200,
        seed: 11,
        mix: CacheMix::new(80, 15, 5),
        dist: KeyDist::Uniform,
        keys: 256,
        preload: true,
        shutdown: true,
        // 4000 req/s total over 2 conns -> 2000/s each; 200 requests
        // per conn means the schedule spans exactly 100 ms.
        rate: Some(4_000),
        client_threads: 0,
        pipeline: 1,
    };
    let t0 = std::time::Instant::now();
    let report = loadgen::run(&opts).expect("open-loop run");
    assert_eq!(report.total_ops, 400);
    assert_eq!(report.mode, "open");
    assert_eq!(report.offered_rate, Some(4_000));
    // Paced arrivals: the run cannot finish before the schedule does.
    assert!(t0.elapsed() >= std::time::Duration::from_millis(95), "arrivals were not paced");
    assert!(report.p50_us > 0.0 && report.p50_us <= report.p99_us);

    let (map, _) = server.wait();
    map.check_invariants();
}

#[test]
fn loadgen_muxed_client_matches_thread_per_conn_totals() {
    // The muxed client holds all 8 connections open for the whole run,
    // so 2 workers serve them only by multiplexing.
    let server = test_server();
    let addr = server.addr();

    // 8 connections driven by 2 client threads, lockstep closed loop.
    let opts = LoadgenOpts {
        addr: addr.to_string(),
        conns: 8,
        per_conn: 100,
        seed: 7,
        mix: CacheMix::new(60, 30, 10),
        dist: KeyDist::Uniform,
        keys: 512,
        preload: true,
        shutdown: true,
        rate: None,
        client_threads: 2,
        pipeline: 2,
    };
    let report = loadgen::run(&opts).expect("muxed loadgen run");
    assert_eq!(report.total_ops, 800, "every connection's stream fully served");
    assert_eq!(report.mode, "closed");
    assert!(report.ops_per_sec > 0.0);
    assert!(report.get_hits > 0, "{report:?}");

    let (map, _) = server.wait();
    map.check_invariants();
}
