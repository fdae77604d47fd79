//! Cycle-attribution report over the six conformance structures.
//!
//! Runs each structure at the scale selected by `HYBRIDS_SCALE` with a
//! tracer attached, prints a per-structure attribution table splitting
//! end-to-end op latency into host / post / queueing / NMP-exec / drain
//! components, and exports one Chrome-trace JSON per structure under
//! `results/trace/` (load them at <https://ui.perfetto.dev>). Each export
//! is re-parsed with the vendored JSON parser as a self-check.

use std::sync::Arc;

use hybrids::btree::{HostBTree, HybridBTree};
use hybrids::driver::{run_index, RunResult, RunSpec};
use hybrids::hashmap::HybridHashMap;
use hybrids::pqueue::HybridPqueue;
use hybrids::skiplist::{hybrid::split_for, HybridSkipList, NmpSkipList};
use hybrids_bench::{hashmap_workload, initial_pairs, pqueue_workload, sensitivity, Scale, SEED};
use nmp_sim::trace::{PhaseTotals, TraceSink, Tracer};
use nmp_sim::Machine;
use serde::Value;
use workloads::{InsertDist, KeyDist, Mix, WorkloadSpec};

struct Row {
    name: &'static str,
    result: RunResult,
    totals: PhaseTotals,
    events: u64,
    json_bytes: usize,
}

fn spec(scale: &Scale, workload: WorkloadSpec) -> RunSpec {
    RunSpec {
        workload,
        warmup_per_thread: scale.warmup_per_thread,
        inflight: 1,
        app_footprint_lines: 0,
    }
}

fn export(name: &'static str, scale: &Scale, tracer: &Tracer) -> usize {
    let dir = std::env::var("HYBRIDS_RESULTS_DIR").unwrap_or_else(|_| {
        format!("{}/results", env!("CARGO_MANIFEST_DIR").trim_end_matches("/crates/bench"))
    });
    let dir = format!("{dir}/trace");
    std::fs::create_dir_all(&dir).expect("create results/trace");
    let json = TraceSink::chrome_json(tracer);
    // Self-check: the export must re-parse as JSON with a non-empty
    // traceEvents array (the same check the CI smoke step performs).
    let v = serde_json::parse_value_str(&json).expect("exported trace must parse");
    match v.field("traceEvents").expect("traceEvents field") {
        Value::Array(items) => {
            assert!(!items.is_empty(), "{name}: exported trace is empty")
        }
        _ => panic!("{name}: traceEvents is not an array"),
    }
    let path = format!("{dir}/{name}.{}.json", scale.name);
    std::fs::write(&path, &json).expect("write trace json");
    eprintln!("[trace-report] wrote {path} ({} bytes)", json.len());
    json.len()
}

fn run_one(
    name: &'static str,
    scale: &Scale,
    machine: &Arc<Machine>,
    tracer: &Tracer,
    result: RunResult,
) -> Row {
    let _ = machine;
    let totals = tracer.phase_totals_all();
    let events = tracer.summary().events;
    let json_bytes = export(name, scale, tracer);
    Row { name, result, totals, events, json_bytes }
}

fn main() {
    let mut scale = Scale::from_env();
    // `--policy fixed|adaptive` selects the offload policy for this report
    // only.
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--policy" => {
                let p = args.next().expect("--policy needs a value");
                scale = scale.with_policy(
                    nmp_sim::Policy::parse(&p).expect("--policy must be 'fixed' or 'adaptive'"),
                );
            }
            other => {
                panic!("unknown trace-report flag `{other}` (supported: --policy fixed|adaptive)")
            }
        }
    }
    eprintln!("[trace-report] policy: {}", scale.cfg.policy.label());
    let threads = scale.cfg.host_cores as u32;
    let map_mix = sensitivity(&scale, Mix::read_insert_remove(50, 25, 25), InsertDist::UniformGap);
    let mut rows = Vec::new();

    // nmp-skiplist: whole structure NMP-resident.
    {
        let ks = scale.skiplist_keyspace();
        let machine = Machine::new(scale.cfg.clone());
        let tracer = machine.attach_tracer();
        let per_part = (ks.total_initial() / ks.parts).max(2) as u64;
        let levels = 64 - (per_part - 1).leading_zeros();
        let sl = NmpSkipList::new(Arc::clone(&machine), ks, levels, SEED, 1);
        sl.populate(initial_pairs(&ks));
        let r = run_index(&machine, &sl, &ks, &spec(&scale, map_mix));
        rows.push(run_one("nmp-skiplist", &scale, &machine, &tracer, r));
    }
    // hybrid-skiplist: host upper levels, NMP lower levels.
    {
        let ks = scale.skiplist_keyspace();
        let machine = Machine::new(scale.cfg.clone());
        let tracer = machine.attach_tracer();
        let (total, nh) = split_for(ks.total_initial() as u64, scale.cfg.l2.size_bytes as u64);
        let sl = HybridSkipList::new(Arc::clone(&machine), ks, total, nh, SEED, 1);
        sl.populate(initial_pairs(&ks));
        let r = run_index(&machine, &sl, &ks, &spec(&scale, map_mix));
        rows.push(run_one("hybrid-skiplist", &scale, &machine, &tracer, r));
    }
    // hybrid-btree and the host-only baseline.
    {
        let ks = scale.btree_keyspace();
        let machine = Machine::new(scale.cfg.clone());
        let tracer = machine.attach_tracer();
        let pairs = initial_pairs(&ks);
        let t = HybridBTree::new(Arc::clone(&machine), &pairs, 0.5, 1);
        let r = run_index(&machine, &t, &ks, &spec(&scale, map_mix));
        rows.push(run_one("hybrid-btree", &scale, &machine, &tracer, r));
    }
    {
        let ks = scale.btree_keyspace();
        let machine = Machine::new(scale.cfg.clone());
        let tracer = machine.attach_tracer();
        let pairs = initial_pairs(&ks);
        let t = HostBTree::new(Arc::clone(&machine), &pairs, 0.5);
        let r = run_index(&machine, &t, &ks, &spec(&scale, map_mix));
        rows.push(run_one("host-btree", &scale, &machine, &tracer, r));
    }
    // hybrid-hashmap: LLC-resident bucket directory, NMP chains.
    {
        let ks = scale.skiplist_keyspace();
        let machine = Machine::new(scale.cfg.clone());
        let tracer = machine.attach_tracer();
        let parts = ks.parts;
        let max_buckets = (scale.cfg.l2.size_bytes / 8 / parts).max(1) * parts;
        let buckets = (ks.total_initial() / 4 / parts).max(1) * parts;
        let hm = HybridHashMap::new(Arc::clone(&machine), buckets.min(max_buckets), SEED, 1);
        hm.populate(initial_pairs(&ks));
        let wl = hashmap_workload(&scale, KeyDist::Uniform);
        let r = run_index(&machine, &hm, &ks, &spec(&scale, wl));
        rows.push(run_one("hybrid-hashmap", &scale, &machine, &tracer, r));
    }
    // hybrid-pqueue: cached per-partition minima, NMP runs.
    {
        let ks = scale.skiplist_keyspace();
        let machine = Machine::new(scale.cfg.clone());
        let tracer = machine.attach_tracer();
        let per_part = (ks.total_initial() / ks.parts).max(2) as u64;
        let levels = 64 - (per_part - 1).leading_zeros();
        let pq = HybridPqueue::new(Arc::clone(&machine), ks, levels, SEED, 1);
        pq.populate(&initial_pairs(&ks));
        let wl = pqueue_workload(&scale, 50);
        let r = run_index(&machine, &pq, &ks, &spec(&scale, wl));
        let stale = machine.mem().snapshot().offload.pq_stale_total();
        eprintln!("[trace-report] pqueue stale-empty probes: {stale}");
        rows.push(run_one("hybrid-pqueue", &scale, &machine, &tracer, r));
    }

    print_table(&scale, threads, &rows);
}

fn print_table(scale: &Scale, threads: u32, rows: &[Row]) {
    println!("\n== cycle attribution ({} scale, {threads} host threads) ==", scale.name);
    println!(
        "  {:<16} {:>8} {:>10} {:>7} {:>7} {:>7} {:>7} {:>7}  {:>9} {:>9} {:>9}",
        "structure",
        "ops",
        "mean_cyc",
        "host%",
        "post%",
        "queue%",
        "exec%",
        "drain%",
        "p50",
        "p95",
        "p99",
    );
    for row in rows {
        let t = &row.totals;
        if t.ops == 0 {
            // Host-only structures never enter the offload runtime: the
            // whole op is host computation by construction.
            println!(
                "  {:<16} {:>8} {:>10.1} {:>6.1}% {:>6.1}% {:>6.1}% {:>6.1}% {:>6.1}%  {:>9.0} {:>9.0} {:>9.0}",
                row.name,
                row.result.measured_ops,
                row.result.cycles as f64 * row.result.threads as f64
                    / row.result.measured_ops as f64,
                100.0, 0.0, 0.0, 0.0, 0.0,
                row.result.lat_p50_cycles,
                row.result.lat_p95_cycles,
                row.result.lat_p99_cycles,
            );
            continue;
        }
        let pct = |x: u64| 100.0 * x as f64 / (t.total.max(1)) as f64;
        // `wait` tiles into queue + exec + drain; any wait not covered
        // by an observed NMP leg (e.g. host-side polling overshoot)
        // stays in the drain column's remainder.
        let rem = t.wait.saturating_sub(t.queue + t.exec + t.drain);
        println!(
            "  {:<16} {:>8} {:>10.1} {:>6.1}% {:>6.1}% {:>6.1}% {:>6.1}% {:>6.1}%  {:>9.0} {:>9.0} {:>9.0}",
            row.name,
            t.ops,
            t.total as f64 / t.ops as f64,
            pct(t.host),
            pct(t.post),
            pct(t.queue),
            pct(t.exec),
            pct(t.drain + rem),
            row.result.lat_p50_cycles,
            row.result.lat_p95_cycles,
            row.result.lat_p99_cycles,
        );
    }
    println!();
    for row in rows {
        println!(
            "  {:<16} {:>8} trace events, {:>9} B exported",
            row.name, row.events, row.json_bytes
        );
    }
    println!("\n  load the JSON files under results/trace/ at https://ui.perfetto.dev");
}
