//! `hybrids-server` — serve a `HybridHashMap` over the memcached text
//! protocol, on real OS threads (a native run).
//!
//! ```text
//! hybrids-server [--addr 127.0.0.1:11211] [--workers 4]
//!                [--buckets 1024] [--seed 42] [--idle-timeout-ms 60000]
//! ```
//!
//! Every worker is an epoll reactor (the server is Linux-only) that
//! multiplexes its share of the connections and executes their requests
//! itself (DESIGN.md §4.12), so `--workers` bounds threads, not
//! connections.
//!
//! The process runs until a client sends the `shutdown` verb (or the
//! process is killed). On clean shutdown it prints a one-line summary of
//! served traffic to stdout.

use std::process::exit;
use std::str::FromStr;
use std::sync::atomic::Ordering;

use hybrids_server::{Server, ServerOpts};

fn usage() -> ! {
    eprintln!(
        "usage: hybrids-server [--addr HOST:PORT] [--workers N] [--buckets N] [--seed N] \
         [--idle-timeout-ms MS]"
    );
    exit(2)
}

/// The value following `flag`, parsed; a missing or malformed one is a
/// usage error.
fn value<T: FromStr>(flag: &str, args: &mut impl Iterator<Item = String>) -> T {
    let Some(raw) = args.next() else {
        eprintln!("{flag} needs a value");
        usage()
    };
    raw.parse().unwrap_or_else(|_| {
        eprintln!("{flag}: cannot parse {raw:?}");
        usage()
    })
}

fn main() {
    let mut opts = ServerOpts::default();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--addr" => opts.addr = value(&flag, &mut args),
            "--workers" => opts.workers = value(&flag, &mut args),
            "--buckets" => opts.buckets = value(&flag, &mut args),
            "--seed" => opts.seed = value(&flag, &mut args),
            "--idle-timeout-ms" => opts.evented.idle_timeout_ms = value(&flag, &mut args),
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
        "hybrids-server listening on {} ({} workers, {} buckets, backend native)",
        server.addr(),
        opts.workers,
        opts.buckets,
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
