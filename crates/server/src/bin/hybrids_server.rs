//! `hybrids-server` — serve a `HybridHashMap` over the memcached text
//! protocol, on the native memory backend.
//!
//! ```text
//! hybrids-server [--addr 127.0.0.1:11211] [--workers 4]
//!                [--buckets 1024] [--max-inflight 4] [--seed 42]
//!                [--runtime blocking|evented]
//!                [--poller epoll|poll] [--idle-timeout-ms 60000]
//! ```
//!
//! `--runtime blocking` (the default) serves one connection per worker
//! thread; `--runtime evented` makes every worker an epoll reactor that
//! multiplexes its share of the connections and executes their requests
//! itself (DESIGN.md §4.12).
//!
//! The process runs until a client sends the `shutdown` verb (or the
//! process is killed). On clean shutdown it prints a one-line summary of
//! served traffic to stdout.

use std::process::exit;
use std::sync::atomic::Ordering;

use hybrids_server::{PollerKind, RuntimeKind, Server, ServerOpts};

fn usage() -> ! {
    eprintln!(
        "usage: hybrids-server [--addr HOST:PORT] [--workers N] [--buckets N] \
         [--max-inflight N] [--seed N] [--runtime blocking|evented] \
         [--poller epoll|poll] [--idle-timeout-ms MS]"
    );
    exit(2)
}

fn main() {
    let mut opts = ServerOpts::default();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut val = |name: &str| args.next().unwrap_or_else(|| panic!("{name} needs a value"));
        match flag.as_str() {
            "--addr" => opts.addr = val("--addr"),
            "--workers" => opts.workers = val("--workers").parse().expect("--workers: usize"),
            "--buckets" => opts.buckets = val("--buckets").parse().expect("--buckets: u32"),
            "--max-inflight" => {
                opts.max_inflight = val("--max-inflight").parse().expect("--max-inflight: usize")
            }
            "--seed" => opts.seed = val("--seed").parse().expect("--seed: u64"),
            "--runtime" => {
                opts.runtime = RuntimeKind::parse(&val("--runtime"))
                    .unwrap_or_else(|| panic!("--runtime: blocking|evented"))
            }
            "--poller" => {
                opts.evented.poller = PollerKind::parse(&val("--poller"))
                    .unwrap_or_else(|| panic!("--poller: epoll|poll"))
            }
            "--idle-timeout-ms" => {
                opts.evented.idle_timeout_ms =
                    val("--idle-timeout-ms").parse().expect("--idle-timeout-ms: u64")
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag: {other}");
                usage()
            }
        }
    }

    let server = match Server::start(&opts) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("hybrids-server: {e}");
            exit(1)
        }
    };
    println!(
        "hybrids-server listening on {} ({} workers, {} buckets, runtime {:?}, backend native)",
        server.addr(),
        opts.workers,
        opts.buckets,
        opts.runtime,
    );
    let (map, counters) = server.wait();
    map.check_invariants();
    println!(
        "hybrids-server done: {} conns, {} get hits, {} get misses, {} sets, \
         {} deletes, {} protocol errors, {} expired serves, {} resident keys",
        counters.conns.load(Ordering::Relaxed),
        counters.get_hits.load(Ordering::Relaxed),
        counters.get_misses.load(Ordering::Relaxed),
        counters.sets.load(Ordering::Relaxed),
        counters.deletes.load(Ordering::Relaxed),
        counters.proto_errors.load(Ordering::Relaxed),
        counters.serve_expired.load(Ordering::Relaxed),
        map.collect().len(),
    );
}
