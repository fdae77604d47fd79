//! One workload, one pass: run it, check it, and turn what was observed
//! into the catalogue's metrics. The untraced pass yields the end-to-end
//! metrics; the traced pass runs the workload twice at a quarter length
//! (tracing off, then on), adds the baseline or the replay, runs the
//! probes and yields the per-layer metrics.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use crate::probes;
use crate::replay;
use crate::serve::{self, ServeKind, ServePlan, CONNS};
use crate::sim::{self, Side, SimKind, SimRun};
use crate::spans::Spans;
use crate::spec::{Length, Runs, WorkloadDef, END_TO_END, MIN_OPS, PER_LAYER, SUBRUNS};
use crate::stats::{highest_supported, median, nearest_rank};

/// Most benchmark-side spans written to one trace file (a serve pass
/// records several per request; the metrics use all of them).
const TRACE_FILE_SPANS: usize = 50_000;

/// What one pass of one workload produced.
pub struct Outcome {
    /// Operations attempted in the timed window.
    pub attempted: u64,
    /// Operations the oracle rejected (or that errored or timed out).
    pub failed: u64,
    /// `(name, value)` for every metric of the pass, in catalogue order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Remarks for the human reader (printed, not parsed).
    pub notes: Vec<String>,
}

/// Directory the traced pass writes its Chrome-trace files to.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Write `json` and prove it re-parses; returns whether both worked.
fn write_trace(path: &Path, json: &str, notes: &mut Vec<String>) -> bool {
    let written = std::fs::create_dir_all(out_dir()).and_then(|()| std::fs::write(path, json));
    let ok = written.is_ok() && !json.is_empty() && crate::jsoncheck::validate(json).is_ok();
    notes.push(format!(
        "trace {} ({} bytes){}",
        path.display(),
        json.len(),
        if ok { "" } else { " FAILED to write or re-parse" }
    ));
    ok
}

/// Order `got` as the catalogue lists them; metrics of layers the
/// workload does not reach read 0.
fn in_catalogue_order(
    catalogue: &[crate::spec::MetricDef],
    got: Vec<(&'static str, f64)>,
) -> Vec<(&'static str, f64)> {
    for (name, _) in &got {
        assert!(catalogue.iter().any(|m| m.name == *name), "metric {name} is not in the catalogue");
    }
    catalogue
        .iter()
        .map(|m| (m.name, got.iter().find(|(n, _)| *n == m.name).map_or(0.0, |(_, v)| *v)))
        .collect()
}

/// Run one pass of `w`.
pub fn measure(w: &WorkloadDef, seed: u64, len: Length) -> Outcome {
    let ops = len.ops(w);
    match (w.runs, len.traced) {
        (Runs::Sim(kind), false) => sim_end_to_end(kind, seed, ops),
        (Runs::Sim(kind), true) => sim_per_layer(w.name, kind, seed, ops),
        (Runs::Serve(kind), false) => serve_end_to_end(kind, seed, ops as usize),
        (Runs::Serve(kind), true) => serve_per_layer(w.name, kind, seed, ops as usize),
    }
}

/// Seed of sub-run `i` of a run seeded `seed`.
fn sub_seed(seed: u64, i: u32) -> u64 {
    workloads::mix64(seed ^ (u64::from(i) << 32) ^ 0x5B_5EED)
}

/// Collects each sub-run's value of each end-to-end metric; the run
/// reports the medians.
#[derive(Default)]
struct SubRuns {
    values: Vec<(&'static str, Vec<f64>)>,
    attempted: u64,
    failed: u64,
}

impl SubRuns {
    fn add(&mut self, attempted: u64, failed: u64, metrics: &[(&'static str, f64)]) {
        self.attempted += attempted;
        self.failed += failed;
        for &(name, value) in metrics {
            match self.values.iter_mut().find(|(n, _)| *n == name) {
                Some((_, values)) => values.push(value),
                None => self.values.push((name, vec![value])),
            }
        }
    }

    fn outcome(self, notes: Vec<String>) -> Outcome {
        let mut metrics: Vec<_> = self.values.iter().map(|(n, v)| (*n, median(v))).collect();
        metrics.push(("peak_rss_mb", crate::env::peak_rss_mb()));
        Outcome {
            attempted: self.attempted,
            failed: self.failed.min(self.attempted),
            metrics: in_catalogue_order(END_TO_END, metrics),
            notes,
        }
    }
}

fn sim_end_to_end(kind: SimKind, seed: u64, ops: u32) -> Outcome {
    let mut subs = SubRuns::default();
    let mut notes = Vec::new();
    for i in 0..SUBRUNS {
        let ops = (ops / SUBRUNS).max(MIN_OPS);
        let run = sim::run(kind, Side::Hybrid, sub_seed(seed, i), ops, false, &mut Spans::new());
        let r = &run.result;
        let cycles_per_us = run.clock_ghz * 1e3;
        subs.add(
            r.measured_ops,
            run.rejected,
            &[
                ("throughput_ops_per_s", r.mops * 1e6),
                ("latency_p50_us", r.lat_p50_cycles / cycles_per_us),
                ("latency_p95_us", r.lat_p95_cycles / cycles_per_us),
                ("host_us_per_op", r.wall_ms * 1e3 / run.simulated_ops as f64),
                ("setup_s", run.setup_s),
            ],
        );
        notes.push(format!(
            "sub-run {i}: {:.4} Mops, {:.3} DRAM reads/op, p99 {:.0} cycles simulated; \
             simulator at {:.0} cycles/s",
            r.mops, r.dram_reads_per_op, r.lat_p99_cycles, r.sim_cycles_per_sec
        ));
    }
    subs.outcome(notes)
}

/// Exact per-layer metrics of one simulated run.
fn sim_layers(run: &SimRun, m: &mut Vec<(&'static str, f64)>) {
    let r = &run.result;
    let st = &r.stats;
    let ops = r.measured_ops.max(1) as f64;
    let share = |num: u64, den: u64| if den == 0 { 0.0 } else { num as f64 / den as f64 };
    m.push(("cache.l1_miss_rate", share(st.l1.misses, st.l1.accesses())));
    m.push(("cache.l2_miss_rate", share(st.l2.misses, st.l2.accesses())));
    let sum = |f: fn(&nmp_sim::VaultStats) -> u64| st.vaults.iter().map(f).sum::<u64>();
    let row_accesses = sum(|v| v.row_hits + v.row_misses + v.row_conflicts);
    m.push(("dram.row_hit_rate", share(sum(|v| v.row_hits), row_accesses)));
    m.push(("dram.row_conflict_rate", share(sum(|v| v.row_conflicts), row_accesses)));
    m.push(("dram.bank_wait_cycles_per_op", sum(|v| v.bank_wait_cycles) as f64 / ops));
    m.push(("dram.reads_per_op", r.dram_reads_per_op));
    m.push(("dram.host_reads_per_op", r.host_dram_reads_per_op));
    m.push(("dram.nmp_reads_per_op", r.nmp_dram_reads_per_op));
    m.push(("mem.mmio_per_op", r.mmio_per_op));
    let nmp_reads = st.nmp_dram_reads();
    m.push(("mem.nmp_buffer_hit_rate", share(st.nmp_buffer_hits, st.nmp_buffer_hits + nmp_reads)));
    let nmp_vault: u64 = st.vaults[st.main_vaults..].iter().map(|v| v.reads + v.writes).sum();
    let accesses =
        st.l1.accesses() + st.mmio_reads + st.mmio_writes + st.nmp_buffer_hits + nmp_vault;
    m.push(("mem.accesses_per_op", accesses as f64 / ops));
    // The counters cover the measured window only; charge it its share
    // (by operation count) of the wall time, which also covers warm-up.
    let measured_wall_ns = r.wall_ms * 1e6 * r.measured_ops as f64 / run.simulated_ops as f64;
    m.push(("engine.host_ns_per_access", measured_wall_ns / accesses.max(1) as f64));
    m.push(("engine.sim_cycles_per_sec", r.sim_cycles_per_sec));
    m.push(("offload.posted_per_op", r.offload_posted as f64 / ops));
    m.push(("offload.retry_share", share(r.offload_retries, r.offload_posted)));
    m.push(("offload.lock_path_share", share(r.offload_lock_path, r.offload_posted)));
    m.push(("offload.mean_batch", r.offload_mean_batch));
    let lanes: u64 = st.offload.lane_posted.iter().sum();
    let beyond_first = lanes - st.offload.lane_posted.first().copied().unwrap_or(0);
    m.push(("offload.lane_occupancy", share(beyond_first, lanes)));
    m.push(("policy.coalesced_share", share(r.offload_coalesced, r.offload_posted)));
    for (kind, name) in [
        ("read", "struct.read_p50_cycles"),
        ("insert", "struct.insert_p50_cycles"),
        ("remove", "struct.remove_p50_cycles"),
    ] {
        if let Some(l) = r.op_latency.iter().find(|l| l.kind == kind) {
            m.push((name, l.p50_cycles));
        }
    }
    m.push(("struct.p99_cycles", r.lat_p99_cycles));
    m.push(("struct.success_share", r.succeeded_ops as f64 / ops));
}

fn sim_per_layer(name: &str, kind: SimKind, seed: u64, ops: u32) -> Outcome {
    let mut spans = Spans::new();
    let mut notes = Vec::new();
    let untraced = sim::run(kind, Side::Hybrid, seed, ops, false, &mut spans);
    let traced = sim::run(kind, Side::Hybrid, seed, ops, true, &mut spans);
    let baseline = sim::run(kind, Side::Baseline, seed, ops, false, &mut spans);
    let mut failed = untraced.rejected + traced.rejected + baseline.rejected;

    // Tracer invisibility: attaching a tracer must not move one simulated
    // statistic.
    if sim::fingerprint(&untraced.result) != sim::fingerprint(&traced.result) {
        failed += 1;
        notes.push("traced and untraced passes DIFFER in simulated statistics".into());
    }

    let mut m = Vec::new();
    sim_layers(&untraced, &mut m);
    let t = traced.traced.as_ref().expect("the traced pass attached a tracer");
    let per_op = |cycles: u64| cycles as f64 / t.phases.ops.max(1) as f64;
    m.push(("offload.host_cycles_per_op", per_op(t.phases.host)));
    m.push(("offload.post_cycles_per_op", per_op(t.phases.post)));
    m.push(("offload.queue_cycles_per_op", per_op(t.phases.queue)));
    m.push(("offload.exec_cycles_per_op", per_op(t.phases.exec)));
    m.push(("offload.drain_cycles_per_op", per_op(t.phases.drain)));
    m.push(("trace.overhead_pct", (traced.result.wall_ms / untraced.result.wall_ms - 1.0) * 100.0));
    m.push(("trace.events", t.events as f64));

    let speedup = untraced.result.mops / baseline.result.mops;
    m.push(("baseline.sim_mops", baseline.result.mops));
    m.push(("baseline.speedup", speedup));
    match kind.paper_speedup() {
        Some(paper) => {
            let err = (speedup - paper).abs() / paper * 100.0;
            m.push(("baseline.paper_err_pct", err));
            notes.push(format!(
                "speedup over the {} {speedup:.3}x, paper {paper:.2}x, error {err:.1} %",
                kind.baseline_label()
            ));
        }
        None => notes.push(format!(
            "speedup over the {} {speedup:.3}x; the paper has no such experiment, so the \
             model is unvalidated here and baseline.paper_err_pct reads 0",
            kind.baseline_label()
        )),
    }

    let probing = spans.begin("bench", "probes", "sim", None);
    probes::workloads(&mut m);
    probes::cache_and_dram(&mut m);
    probes::engine(&mut m);
    probes::table2(&mut m);
    spans.end(probing);

    let dir = out_dir();
    let files = [
        (dir.join(format!("{name}.sim.trace.json")), t.chrome_json.clone()),
        (dir.join(format!("{name}.bench.trace.json")), spans.chrome_json(usize::MAX)),
    ];
    for (path, json) in &files {
        if !write_trace(path, json, &mut notes) {
            failed += 1;
        }
    }
    let attempted = untraced.result.measured_ops;
    Outcome {
        attempted,
        failed: failed.min(attempted),
        metrics: in_catalogue_order(PER_LAYER, m),
        notes,
    }
}

/// Client-side figures of one timed window.
struct ServeFigures {
    requests: u64,
    failed: u64,
    wall_s: f64,
    /// Ascending round-trip latencies, nanoseconds.
    lat_ns: Vec<u64>,
}

/// One set-up, timed window, tear-down and check.
struct ServePass {
    figures: ServeFigures,
    setup_s: f64,
    connect_ms: Vec<f64>,
    hit_share: f64,
    backpressure_pauses: u64,
    scripts: Arc<Vec<serve::Script>>,
    client_spans: Vec<crate::spans::Span>,
}

fn serve_pass(plan: &ServePlan, seed: u64, trace_epoch: Option<Instant>) -> ServePass {
    let t0 = Instant::now();
    let mut live = serve::setup(plan, seed).expect("server start / connect failed");
    let setup_s = t0.elapsed().as_secs_f64();
    let mut timed = live.run_timed(plan.depth, trace_epoch);
    let hit_share = live.hit_share();
    let scripts = Arc::clone(&live.scripts);
    let connect_ms = live.connect_ms.clone();
    let setup_failed = live.setup_failed;
    let (differing, counters) = live.finish();
    let failed = setup_failed + differing + timed.clients.iter().map(|c| c.failed).sum::<u64>();
    let mut lat_ns: Vec<u64> =
        timed.clients.iter().flat_map(|c| c.lat_ns.iter().copied()).collect();
    lat_ns.sort_unstable();
    let requests = (CONNS * plan.per_conn) as u64;
    ServePass {
        figures: ServeFigures {
            requests,
            failed: failed.min(requests),
            wall_s: timed.wall_s,
            lat_ns,
        },
        setup_s,
        connect_ms,
        hit_share,
        backpressure_pauses: counters
            .backpressure_pauses
            .load(std::sync::atomic::Ordering::Relaxed),
        scripts,
        client_spans: timed.clients.iter_mut().flat_map(|c| std::mem::take(&mut c.spans)).collect(),
    }
}

fn percentile_us(sorted_ns: &[u64], q: f64) -> f64 {
    if sorted_ns.is_empty() {
        0.0
    } else {
        nearest_rank(sorted_ns, q) as f64 / 1e3
    }
}

fn serve_end_to_end(kind: ServeKind, seed: u64, per_conn: usize) -> Outcome {
    let mut subs = SubRuns::default();
    let mut notes = Vec::new();
    for i in 0..SUBRUNS {
        let per_conn = (per_conn / SUBRUNS as usize).max(MIN_OPS as usize);
        let pass = serve_pass(&ServePlan::new(kind, per_conn), sub_seed(seed, i), None);
        let f = &pass.figures;
        subs.add(
            f.requests,
            f.failed,
            &[
                ("throughput_ops_per_s", f.requests as f64 / f.wall_s),
                ("latency_p50_us", percentile_us(&f.lat_ns, 0.50)),
                ("latency_p95_us", percentile_us(&f.lat_ns, 0.95)),
                ("host_us_per_op", f.wall_s * 1e6 / f.requests as f64),
                ("setup_s", pass.setup_s),
            ],
        );
        notes.push(format!(
            "sub-run {i}: {} latency samples; highest percentile with ten samples beyond it: p{}",
            f.lat_ns.len(),
            highest_supported(f.lat_ns.len()).unwrap_or(0.0) * 100.0
        ));
    }
    subs.outcome(notes)
}

fn serve_per_layer(name: &str, kind: ServeKind, seed: u64, per_conn: usize) -> Outcome {
    let plan = ServePlan::new(kind, per_conn);
    let mut notes = Vec::new();
    let untraced = serve_pass(&plan, seed, None);
    let mut spans = Spans::new();
    let epoch = spans.epoch();
    let traced = serve_pass(&plan, seed, Some(epoch));
    let replayed = replay::replay(&plan, Arc::clone(&traced.scripts), epoch);
    let mut failed = untraced.figures.failed + traced.figures.failed + replayed.mismatched;
    if replayed.mismatched > 0 {
        notes.push(format!("{} replayed responses DIFFER from the shadow", replayed.mismatched));
    }

    let mut m = Vec::new();
    let f = &untraced.figures;
    let wall_us_per_req = f.wall_s * 1e6 / f.requests as f64;
    let keys: u64 = traced
        .scripts
        .iter()
        .map(|s| s.nkeys[s.untimed..].iter().map(|&k| k as u64).sum::<u64>())
        .sum();
    m.push(("client.p99_us", percentile_us(&f.lat_ns, 0.99)));
    m.push(("client.p999_us", percentile_us(&f.lat_ns, 0.999)));
    m.push(("client.keys_per_sec", keys as f64 / f.wall_s));
    m.push(("client.get_hit_share", untraced.hit_share));
    m.push(("client.samples", f.lat_ns.len() as f64));
    m.push(("runtime.connect_ms", median(&untraced.connect_ms)));
    m.push(("runtime.backpressure_pauses", untraced.backpressure_pauses as f64));
    m.push(("trace.overhead_pct", (traced.figures.wall_s / f.wall_s - 1.0) * 100.0));

    let [get, set, delete, multiget] = replayed.service_us;
    m.push(("service.get_us", get));
    m.push(("service.set_us", set));
    m.push(("service.delete_us", delete));
    m.push(("service.multiget_us_per_key", multiget));
    m.push(("service.round_trips_per_req", replayed.round_trips_per_req));

    let probing = spans.begin("bench", "probes", "serve", None);
    probes::workloads(&mut m);
    probes::backend(&mut m);
    probes::native_roundtrip(&mut m);
    probes::proto(&traced.scripts[0], &mut m);
    probes::ttl(&mut m);
    let conn_ns = probes::conn_cycle_ns(&traced.scripts[0]);
    spans.end(probing);
    m.push(("conn.cycle_ns_per_req", conn_ns));
    m.push((
        "runtime.residual_us_per_req",
        wall_us_per_req - conn_ns / 1e3 - replayed.service_mean_us,
    ));

    spans.extend(traced.client_spans);
    spans.extend(replayed.spans);
    m.push(("trace.events", spans.all().len() as f64));
    let path = out_dir().join(format!("{name}.bench.trace.json"));
    if spans.all().len() > TRACE_FILE_SPANS {
        notes.push(format!(
            "{} spans recorded, the first {TRACE_FILE_SPANS} written",
            spans.all().len()
        ));
    }
    if !write_trace(&path, &spans.chrome_json(TRACE_FILE_SPANS), &mut notes) {
        failed += 1;
    }
    Outcome {
        attempted: f.requests,
        failed: failed.min(f.requests),
        metrics: in_catalogue_order(PER_LAYER, m),
        notes,
    }
}
