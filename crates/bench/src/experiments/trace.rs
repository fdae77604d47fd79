//! Cycle-attribution report over the six conformance structures.
//!
//! Runs each structure with a tracer attached, prints a per-structure
//! attribution table splitting end-to-end op latency into host / post /
//! queueing / NMP-exec / drain components, and returns one Chrome-trace
//! JSON per structure (saved under `<out>/trace/`; load them at
//! <https://ui.perfetto.dev>). Each export is re-parsed with the vendored
//! JSON parser as a self-check.

use hybrids::driver::RunResult;
use nmp_sim::trace::{PhaseTotals, TraceSink};
use nmp_sim::Machine;
use serde::Value;
use workloads::{InsertDist, KeyDist, Mix};

use crate::{hashmap_workload, pqueue_workload, sensitivity, Results, Scale, Variant};

struct Row {
    name: &'static str,
    result: RunResult,
    totals: PhaseTotals,
    events: u64,
    json_bytes: usize,
}

pub fn run(scale: &Scale) -> Results {
    // Attribution is of the structure's own cycles: blocking calls and no
    // application traffic around the B+ tree operations.
    let scale = &Scale { btree_footprint_lines: 0, ..scale.clone() };
    eprintln!("[trace] policy: {}", scale.cfg.policy.label());
    let map_mix = sensitivity(scale, Mix::read_insert_remove(50, 25, 25), InsertDist::UniformGap);
    let mut rows = Vec::new();
    let mut traces = Vec::new();
    for (name, variant, workload) in [
        ("nmp-skiplist", Variant::NmpBased, map_mix),
        ("hybrid-skiplist", Variant::HybridBlocking, map_mix),
        ("hybrid-btree", Variant::HybridBtBlocking, map_mix),
        ("host-btree", Variant::HostOnly, map_mix),
        ("hybrid-hashmap", Variant::HashMapBlocking, hashmap_workload(scale, KeyDist::Uniform)),
        ("hybrid-pqueue", Variant::PqueueBlocking, pqueue_workload(scale, 50)),
    ] {
        let machine = Machine::new(scale.cfg.clone());
        let tracer = machine.attach_tracer();
        let result = variant.run_on(&machine, scale, variant.keyspace(scale), workload);
        if variant == Variant::PqueueBlocking {
            let stale = machine.mem().snapshot().offload.pq_stale_total();
            eprintln!("[trace] pqueue stale-empty probes: {stale}");
        }
        let json = TraceSink::chrome_json(&tracer);
        // Self-check: the export must re-parse as JSON with a non-empty
        // traceEvents array (the same check the CI smoke step performs).
        let v = serde_json::parse_value_str(&json).expect("exported trace must parse");
        match v.field("traceEvents").expect("traceEvents field") {
            Value::Array(items) => assert!(!items.is_empty(), "{name}: exported trace is empty"),
            _ => panic!("{name}: traceEvents is not an array"),
        }
        rows.push(Row {
            name,
            result,
            totals: tracer.phase_totals_all(),
            events: tracer.summary().events,
            json_bytes: json.len(),
        });
        traces.push((name, json));
    }
    print_table(scale, &rows);
    Results { records: Vec::new(), traces }
}

fn print_table(scale: &Scale, rows: &[Row]) {
    println!(
        "\n== cycle attribution ({} scale, {} host threads) ==",
        scale.name, scale.cfg.host_cores
    );
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
        let (t, r) = (&row.totals, &row.result);
        let (ops, mean_cycles, shares) = if t.ops == 0 {
            // Host-only structures never enter the offload runtime: the
            // whole op is host computation by construction.
            let mean = r.cycles as f64 * r.threads as f64 / r.measured_ops as f64;
            (r.measured_ops, mean, [100.0, 0.0, 0.0, 0.0, 0.0])
        } else {
            let pct = |x: u64| 100.0 * x as f64 / (t.total.max(1)) as f64;
            // `wait` tiles into queue + exec + drain; any wait not covered
            // by an observed NMP leg (e.g. host-side polling overshoot)
            // stays in the drain column's remainder.
            let rem = t.wait.saturating_sub(t.queue + t.exec + t.drain);
            let shares = [t.host, t.post, t.queue, t.exec, t.drain + rem].map(pct);
            (t.ops, t.total as f64 / t.ops as f64, shares)
        };
        let [host, post, queue, exec, drain] = shares;
        println!(
            "  {:<16} {ops:>8} {mean_cycles:>10.1} {host:>6.1}% {post:>6.1}% {queue:>6.1}% {exec:>6.1}% {drain:>6.1}%  {:>9.0} {:>9.0} {:>9.0}",
            row.name, r.lat_p50_cycles, r.lat_p95_cycles, r.lat_p99_cycles,
        );
    }
    println!();
    for row in rows {
        println!(
            "  {:<16} {:>8} trace events, {:>9} B exported",
            row.name, row.events, row.json_bytes
        );
    }
    println!("\n  load the JSON files under <out>/trace/ at https://ui.perfetto.dev");
}
