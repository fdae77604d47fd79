//! `hybrids-loadgen` — drive a running `hybrids-server` with a
//! deterministic get/set/delete mix and print the throughput/latency
//! report as one JSON line on stdout.
//!
//! ```text
//! hybrids-loadgen [--addr 127.0.0.1:11211] [--conns 4] [--ops 5000]
//!                 [--mix 90/9/1] [--dist zipfian|uniform] [--keys 4096]
//!                 [--seed 42] [--rate OPS_PER_SEC] [--client-threads 0]
//!                 [--pipeline 1] [--no-preload] [--shutdown]
//!                 [--out PATH]
//! ```
//!
//! `--ops` is per connection; `--rate` switches to open-loop arrivals
//! (total requests/second across connections, latency measured from each
//! request's scheduled due time). Closed-loop, each connection keeps
//! `--pipeline` requests outstanding and `--client-threads` threads share
//! the connections (`0` = one thread per connection). `--shutdown` sends
//! the server the `shutdown` verb after the run (CI teardown). `--out
//! PATH` also writes the JSON to a file.

use std::process::exit;
use std::str::FromStr;

use hybrids_server::loadgen::{self, LoadgenOpts};
use workloads::{CacheMix, KeyDist};

fn usage() -> ! {
    eprintln!(
        "usage: hybrids-loadgen [--addr HOST:PORT] [--conns N] [--ops N] [--mix G/S/D] \
         [--dist zipfian|uniform] [--keys N] [--seed N] [--rate N] [--client-threads N] \
         [--pipeline N] [--no-preload] [--shutdown] [--out PATH]"
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
    let mut opts = LoadgenOpts::default();
    let mut out_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--addr" => opts.addr = value(&flag, &mut args),
            "--conns" => opts.conns = value(&flag, &mut args),
            "--ops" => opts.per_conn = value(&flag, &mut args),
            "--seed" => opts.seed = value(&flag, &mut args),
            "--keys" => opts.keys = value(&flag, &mut args),
            "--rate" => opts.rate = Some(value(&flag, &mut args)),
            "--client-threads" => opts.client_threads = value(&flag, &mut args),
            "--pipeline" => opts.pipeline = value(&flag, &mut args),
            "--mix" => {
                let s: String = value(&flag, &mut args);
                opts.mix = CacheMix::parse(&s).unwrap_or_else(|| {
                    eprintln!("--mix wants get/set/delete percentages summing to 100, e.g. 90/9/1");
                    exit(2)
                });
            }
            "--dist" => {
                opts.dist = match value::<String>(&flag, &mut args).as_str() {
                    "zipfian" => KeyDist::Zipfian,
                    "uniform" => KeyDist::Uniform,
                    other => {
                        eprintln!("--dist wants zipfian or uniform, got {other}");
                        exit(2)
                    }
                }
            }
            "--no-preload" => opts.preload = false,
            "--shutdown" => opts.shutdown = true,
            "--out" => out_path = Some(value(&flag, &mut args)),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag: {other}");
                usage()
            }
        }
    }

    let report = match loadgen::run(&opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("hybrids-loadgen: run against {} failed: {e}", opts.addr);
            exit(1)
        }
    };
    let json = serde_json::to_string(&report).expect("serialize report");
    println!("{json}");
    if let Some(out_path) = out_path {
        if let Err(e) = std::fs::write(&out_path, format!("{json}\n")) {
            eprintln!("hybrids-loadgen: writing {out_path} failed: {e}");
            exit(1)
        }
        eprintln!(
            "hybrids-loadgen: {:.0} ops/s, p50 {:.1}us p95 {:.1}us p99 {:.1}us -> {out_path}",
            report.ops_per_sec, report.p50_us, report.p95_us, report.p99_us
        );
    }
}
