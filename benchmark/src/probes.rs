//! Per-layer probes: small loops timed from outside around one layer's
//! public functions ("wall" metrics, median of `BATCHES` batches), and the
//! Table 2 offload-delay probe, whose simulated cycles repeat exactly.

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use hybrids::api::SimIndex;
use hybrids::hashmap::HybridHashMap;
use hybrids::publist::{spawn_combiners, NmpExec, OpCode, PubLists, Request, Response};
use hybrids_bench::Scale;
use hybrids_server::proto;
use hybrids_server::runtime::conn::Conn;
use hybrids_server::runtime::ConnCfg;
use hybrids_server::{Clock, Parser, TtlTable};
use nmp_sim::cache::Cache;
use nmp_sim::dram::{DramTiming, Vault};
use nmp_sim::{Config, Machine, ThreadCtx, ThreadKind};
use workloads::{KeyDist, KeySpace, Op, Rng, ScrambledZipfian, WorkloadSpec};

use crate::replay::MemStream;
use crate::serve::{Script, LANES, MAP_SEED, WORKERS};
use crate::stats::{median, median_ns_per_iter};

/// Batches behind every wall probe's median.
const BATCHES: usize = 7;

/// `workloads`: zipfian draw cost and stream-generation rate.
pub fn workloads(out: &mut Vec<(&'static str, f64)>) {
    let z = ScrambledZipfian::ycsb(1 << 17);
    let mut rng = Rng::new(7);
    out.push((
        "workloads.zipf_next_ns",
        median_ns_per_iter(BATCHES, 200_000, || {
            black_box(z.next_index(&mut rng));
        }),
    ));
    let ks = KeySpace::new(1 << 17, 8, 4096);
    let spec = WorkloadSpec::hashmap_mixed(11, 8, 5_000, KeyDist::Zipfian);
    let per_gen = median_ns_per_iter(BATCHES, 1, || {
        black_box(spec.generate(&ks));
    });
    out.push(("workloads.gen_ops_per_s", 8.0 * 5_000.0 / (per_gen / 1e9)));
}

/// `nmp_sim::cache` and `nmp_sim::dram` model functions, called directly.
pub fn cache_and_dram(out: &mut Vec<(&'static str, f64)>) {
    let cfg = Scale::ci().cfg;
    let mut cache = Cache::new(&cfg.l2);
    cache.access(0x1000, false);
    out.push((
        "cache.access_hit_ns",
        median_ns_per_iter(BATCHES, 500_000, || {
            black_box(cache.access(black_box(0x1000), false));
        }),
    ));
    let mut cache = Cache::new(&cfg.l2);
    let mut a = 0u32;
    out.push((
        "cache.access_miss_ns",
        median_ns_per_iter(BATCHES, 500_000, || {
            a = a.wrapping_add(128);
            black_box(cache.access(black_box(a % (64 << 20)), false));
        }),
    ));
    let t = DramTiming::from_config(&cfg);
    let mut v = Vault::new(&t);
    let (mut now, mut a) = (0u64, 0u32);
    out.push((
        "dram.vault_access_ns",
        median_ns_per_iter(BATCHES, 500_000, || {
            now += 100;
            a = a.wrapping_add(4096 + 64);
            black_box(v.access(now, a % (64 << 20), false, &t));
        }),
    ));
}

/// Wall nanoseconds per simulated access of `threads` host threads each
/// reading `reads` cached words: with one thread nothing is handed off,
/// with two every access hands the engine to the other thread.
fn engine_ns_per_access(threads: usize, reads: u32) -> f64 {
    let per_batch: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let machine = Machine::new(Config::tiny());
            let base = machine.map().host_base;
            let mut sim = machine.simulation();
            for core in 0..threads {
                sim.spawn(format!("h{core}"), ThreadKind::Host { core }, move |ctx| {
                    for i in 0..reads {
                        black_box(ctx.read_u64(base + (core as u32 * 256 + i % 256) * 8));
                    }
                });
            }
            let t0 = Instant::now();
            black_box(sim.run().makespan());
            t0.elapsed().as_nanos() as f64 / (threads as f64 * reads as f64)
        })
        .collect();
    median(&per_batch)
}

/// `nmp_sim::engine` handoff costs within the host shard.
pub fn engine(out: &mut Vec<(&'static str, f64)>) {
    out.push(("engine.solo_access_ns", engine_ns_per_access(1, 20_000)));
    out.push(("engine.same_shard_handoff_ns", engine_ns_per_access(2, 10_000)));
}

/// No-op executor that records when the NMP core saw the request.
struct Notice {
    noticed: Arc<AtomicU64>,
    finished: Arc<AtomicU64>,
}

impl NmpExec for Notice {
    type SlotState = ();

    fn exec(&self, ctx: &mut ThreadCtx, _part: usize, _req: &Request, _s: &mut ()) -> Response {
        self.noticed.store(ctx.now(), Ordering::Relaxed);
        ctx.advance(1); // negligible NMP-side work
        self.finished.store(ctx.now(), Ordering::Relaxed);
        Response::ok_value(0)
    }

    fn effect_spec(&self) -> nmp_sim::EffectSpec {
        // Pure protocol probe: no data-structure memory is touched.
        nmp_sim::EffectSpec::new("offload-probe")
            .op(hybrids::effects::protocol_op(OpCode::Read, "Read"))
    }
}

/// The Table 2 probe (`crates/bench/benches/table2_offload_delays.rs`):
/// single offloads on an otherwise idle `Scale::ci()` machine. The cycle
/// figures are exact; the wall time per round trip is the engine's cost of
/// a host-shard ↔ vault-shard exchange.
pub fn table2(out: &mut Vec<(&'static str, f64)>) {
    const ITERATIONS: u32 = 2_000;
    let cfg = Scale::ci().cfg;
    let llc = cfg.llc_miss_cycles() as f64;
    let machine = Machine::new(cfg);
    let lists = Arc::new(PubLists::new(Arc::clone(&machine), 1));
    let noticed = Arc::new(AtomicU64::new(0));
    let finished = Arc::new(AtomicU64::new(0));
    // (request write, notice delay, response notice delay, round trip)
    let samples: Arc<Mutex<Vec<[u64; 4]>>> = Arc::new(Mutex::new(Vec::new()));

    let mut sim = machine.simulation();
    spawn_combiners(
        &mut sim,
        Arc::clone(&lists),
        Arc::new(Notice { noticed: Arc::clone(&noticed), finished: Arc::clone(&finished) }),
    );
    {
        let samples = Arc::clone(&samples);
        sim.spawn("host-0", ThreadKind::Host { core: 0 }, move |ctx| {
            let mut local = Vec::with_capacity(ITERATIONS as usize);
            for i in 0..ITERATIONS {
                let start = ctx.now();
                lists.post(ctx, 0, 0, &Request::new(OpCode::Read, 100 + i, 0));
                let posted = ctx.now();
                let _ = lists.wait_response(ctx, 0, 0);
                let done = ctx.now();
                local.push([
                    posted - start,
                    noticed.load(Ordering::Relaxed).saturating_sub(posted),
                    done.saturating_sub(finished.load(Ordering::Relaxed)),
                    done - start,
                ]);
                ctx.idle(200); // let the combiner go idle between iterations
            }
            *samples.lock().expect("probe thread poisoned the samples") = local;
        });
    }
    let t0 = Instant::now();
    sim.run();
    let wall_ns = t0.elapsed().as_nanos() as f64;

    let samples = samples.lock().expect("probe thread poisoned the samples");
    let mean = |i: usize| samples.iter().map(|s| s[i]).sum::<u64>() as f64 / samples.len() as f64;
    out.push(("publist.post_cycles", mean(0)));
    out.push(("publist.notice_cycles", mean(1)));
    out.push(("publist.poll_cycles", mean(2)));
    out.push(("publist.roundtrip_cycles", mean(3)));
    out.push(("publist.roundtrip_llc_misses", (mean(0) + mean(2)) / llc));
    out.push(("engine.cross_shard_handoff_ns", wall_ns / ITERATIONS as f64));
}

/// `nmp_sim::backend`: the native data plane through the `MemBackend`
/// trait object the structures use.
pub fn backend(out: &mut Vec<(&'static str, f64)>) {
    let machine = Machine::new_native(Config::tiny());
    let ram = machine.ram();
    let base = machine.map().host_base;
    let mut i = 0u32;
    out.push((
        "backend.native_read_ns",
        median_ns_per_iter(BATCHES, 1_000_000, || {
            i = i.wrapping_add(1);
            black_box(ram.read_u64(base + (i % 512) * 8));
        }),
    ));
    let mut v = ram.read_u64(base);
    out.push((
        "backend.native_cas_ns",
        median_ns_per_iter(BATCHES, 1_000_000, || {
            let _ = black_box(ram.cas_u64(base, v, v + 1));
            v += 1;
        }),
    ));
}

/// A native machine of the server's shape with a map on it.
pub fn server_shaped_map(buckets: u32, seed: u64) -> (Arc<Machine>, Arc<HybridHashMap>) {
    let mut cfg = Config::default_scaled();
    cfg.host_cores = WORKERS;
    let machine = Machine::new_native(cfg);
    let map = HybridHashMap::new(Arc::clone(&machine), buckets, seed, LANES);
    (machine, map)
}

/// `hybrids::publist` on the native backend: one host thread and the
/// combiner daemons, blocking hash-map reads.
pub fn native_roundtrip(out: &mut Vec<(&'static str, f64)>) {
    const KEYS: u32 = 4096;
    const READS: u32 = 20_000;
    let (machine, map) = server_shaped_map(1024, MAP_SEED);
    map.populate((1..=KEYS).map(|k| (k, k)));
    let mut run = machine.native_run();
    map.spawn_services_on(&mut run);
    let result = Arc::new(Mutex::new(0.0));
    {
        let (map, result) = (Arc::clone(&map), Arc::clone(&result));
        run.spawn("probe", ThreadKind::Host { core: 0 }, move |ctx| {
            let mut k = 0u32;
            let ns = median_ns_per_iter(BATCHES, (READS / BATCHES as u32) as u64, || {
                k = k % KEYS + 1;
                black_box(map.execute(ctx, Op::Read(k)));
            });
            *result.lock().expect("probe result poisoned") = ns;
        });
    }
    run.finish();
    out.push(("publist.native_roundtrip_ns", *result.lock().expect("probe result poisoned")));
}

/// `server::proto`: the parser over the workload's own request bytes in
/// 4 KiB chunks, and the reference encoders over its own responses.
pub fn proto(script: &Script, out: &mut Vec<(&'static str, f64)>) {
    // Every script starts with its preload, so `untimed` is never 0.
    let bytes = &script.tx[script.tx_end[script.untimed - 1] as usize..];
    let requests = (script.len() - script.untimed) as f64;
    let per_pass = median_ns_per_iter(BATCHES, 1, || {
        let mut parser = Parser::new();
        for chunk in bytes.chunks(4096) {
            parser.push(chunk);
            for parsed in parser.by_ref() {
                black_box(parsed);
            }
        }
    });
    out.push(("proto.parse_ns_per_req", per_pass / requests));
    out.push(("proto.parse_mb_per_s", bytes.len() as f64 / 1e6 / (per_pass / 1e9)));

    // Re-encode what the server would: decode each expected response into
    // the arguments the service passes the encoders.
    let responses: Vec<Vec<(u32, u32)>> = (script.untimed..script.len())
        .map(|i| {
            let text = std::str::from_utf8(script.expected(i)).expect("responses are ASCII");
            let mut lines = text.split("\r\n");
            let mut hits = Vec::new();
            while let Some(line) = lines.next() {
                if let Some(rest) = line.strip_prefix("VALUE ") {
                    let key = rest.split(' ').next().and_then(|k| k.parse().ok()).unwrap_or(0);
                    let value = lines.next().and_then(|v| v.parse().ok()).unwrap_or(0);
                    hits.push((key, value));
                }
            }
            hits
        })
        .collect();
    let per_pass = median_ns_per_iter(BATCHES, 1, || {
        for (i, hits) in responses.iter().enumerate() {
            match script.kind[script.untimed + i] {
                "get" | "multiget" => {
                    black_box(proto::encode_get(hits));
                }
                "set" => {
                    black_box(proto::encode_stored());
                }
                _ => {
                    black_box(proto::encode_deleted());
                }
            }
        }
    });
    out.push(("proto.encode_ns_per_resp", per_pass / requests));
}

/// `server::ttl`: the side table's two hot calls.
pub fn ttl(out: &mut Vec<(&'static str, f64)>) {
    const KEYS: u32 = 32_768;
    let table = TtlTable::new(Clock::System);
    for k in (1..=KEYS).step_by(2) {
        table.on_set(k, 3_600);
    }
    let mut k = 0u32;
    out.push((
        "ttl.is_expired_ns",
        median_ns_per_iter(BATCHES, 200_000, || {
            k = k % KEYS + 1;
            black_box(table.is_expired(k));
        }),
    ));
    out.push((
        "ttl.on_set_ns",
        median_ns_per_iter(BATCHES, 200_000, || {
            k = k % KEYS + 1;
            table.on_set(k, if k.is_multiple_of(2) { 0 } else { 3_600 });
        }),
    ));
}

/// `server::runtime::conn`: one connection state machine over an
/// in-memory stream, fed the workload's own requests and handed the
/// expected responses — no service behind it. Nanoseconds per request.
pub fn conn_cycle_ns(script: &Script) -> f64 {
    let timed = script.untimed..script.len();
    let per_pass = median_ns_per_iter(BATCHES, 1, || {
        let stream = MemStream::default();
        let mut conn = Conn::new(stream.clone(), ConnCfg::default());
        let mut dispatch = Vec::new();
        for i in timed.clone() {
            stream.feed(script.request(i));
            conn.on_readable(&mut dispatch).expect("in-memory stream cannot fail");
            for (seq, _cmd) in dispatch.drain(..) {
                conn.complete(seq, script.expected(i).to_vec());
            }
            conn.flush().expect("in-memory stream cannot fail");
            black_box(stream.take_output());
        }
    });
    per_pass / timed.len() as f64
}
