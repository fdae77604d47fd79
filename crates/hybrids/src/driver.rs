//! Workload driver: runs a [`WorkloadSpec`] against a [`SimIndex`] inside
//! the simulator and reports the paper's metrics (operation throughput,
//! DRAM reads per operation).
//!
//! The driver spawns one logical host thread per workload thread plus the
//! structure's NMP service daemons, executes a warm-up phase, resets the
//! memory-system counters at a barrier, and measures the timed phase.
//! With `inflight == 1` every NMP call blocks (§3.3/3.4); with
//! `inflight > 1` each host thread keeps up to that many non-blocking NMP
//! calls outstanding (§3.5, e.g. *hybrid-nonblocking4*).

// xtask: allow(atomic-ordering) — the measurement barrier and the result
// counters below coordinate *simulation worker threads*, not simulated
// memory; they are harness state outside the modeled machine.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use nmp_sim::analysis::{HistEvent, HistOp, HistoryRecorder};
use nmp_sim::trace::{kind_label, LatencyHist, OP_KINDS};
use nmp_sim::{Addr, Machine, Resume, StatsSnapshot, ThreadCtx, ThreadKind};
use serde::Serialize;
use workloads::{KeySpace, Op, WorkloadSpec};

use crate::api::{host_core, Issued, OpResult, PollOutcome, SimIndex};
use crate::offload::policy::Backoff;
use crate::publist;

/// Per-thread view of a history recorder: the recorder plus the recording
/// thread's id. `None` disables recording (the normal benchmarking path).
pub type RecorderHandle<'a> = Option<(&'a HistoryRecorder, usize)>;

/// Record one completed point operation. Scans are skipped: their
/// multi-key footprint is outside the per-key linearizability model.
pub fn record_completion(rec: RecorderHandle<'_>, op: Op, r: OpResult, inv: u64, resp: u64) {
    let Some((rec, thread)) = rec else { return };
    let (hop, key, value) = match op {
        Op::Read(k) => (HistOp::Read, k, r.value),
        Op::Insert(k, v) => (HistOp::Insert, k, v),
        Op::Remove(k) => (HistOp::Remove, k, 0),
        Op::Update(k, v) => (HistOp::Update, k, v),
        Op::Scan(..) | Op::ExtractMin => return,
    };
    rec.record(HistEvent { thread, op: hop, key, ok: r.ok, value, inv, resp });
}

/// Per-thread latency sink: one histogram per op kind, filled during the
/// measured phase only. `None` (the warm-up phase) disables it.
type LatSink<'a> = Option<&'a mut [LatencyHist; OP_KINDS]>;

fn note_latency(lat: &mut LatSink<'_>, op: Op, inv: u64, resp: u64) {
    if let Some(h) = lat.as_deref_mut() {
        h[crate::offload::op_kind(op) as usize].record(resp.saturating_sub(inv));
    }
}

/// One experiment's execution parameters.
#[derive(Debug, Clone, Copy)]
pub struct RunSpec {
    /// Measured workload (threads, ops/thread, mix, distributions, seed).
    pub workload: WorkloadSpec,
    /// Per-thread warm-up operations executed before the measured window
    /// (drawn from the same distribution under a derived seed).
    pub warmup_per_thread: u32,
    /// Maximum in-flight NMP calls per host thread (1 = blocking).
    pub inflight: usize,
    /// Cache lines of *application* data each host thread touches around
    /// every index operation (0 = pure index microbenchmark). In the
    /// paper's full-system OLTP setting, transactions read row data and
    /// run driver code between index operations, polluting the host
    /// caches; this knob models that traffic. The touched lines come from
    /// a private 2 MiB per-thread region and are excluded from the
    /// reported DRAM-reads-per-op metric.
    pub app_footprint_lines: u32,
}

impl RunSpec {
    /// Spec with the given workload, warm-up, and lane depth; no app footprint.
    pub fn new(workload: WorkloadSpec, warmup_per_thread: u32, inflight: usize) -> Self {
        RunSpec { workload, warmup_per_thread, inflight, app_footprint_lines: 0 }
    }

    /// Set [`RunSpec::app_footprint_lines`].
    pub fn with_footprint(mut self, lines: u32) -> Self {
        self.app_footprint_lines = lines;
        self
    }
}

/// Per-thread application-data region touched by the footprint model.
const FOOTPRINT_REGION_BYTES: u32 = 2 * 1024 * 1024;

/// Measured results of one run.
#[derive(Debug, Clone, Serialize)]
pub struct RunResult {
    /// Host threads that executed the workload.
    pub threads: u32,
    /// Operations completed in the measured window.
    pub measured_ops: u64,
    /// Operations whose success bit was set.
    pub succeeded_ops: u64,
    /// Simulated cycles of the measured window (max end − min start).
    pub cycles: u64,
    /// Throughput in million operations per second of simulated time.
    pub mops: f64,
    /// DRAM read bursts per operation (the Fig. 5b/6b/9 metric).
    pub dram_reads_per_op: f64,
    /// [`RunResult::dram_reads_per_op`] issued by host cores.
    pub host_dram_reads_per_op: f64,
    /// [`RunResult::dram_reads_per_op`] issued by NMP cores.
    pub nmp_dram_reads_per_op: f64,
    /// MMIO transactions per operation (offload traffic).
    pub mmio_per_op: f64,
    /// Host wall-clock milliseconds spent inside `sim.run()` (warm-up and
    /// measured phases): the real cost of simulating this experiment.
    pub wall_ms: f64,
    /// Simulated cycles advanced per wall-clock second — the simulator's
    /// effective speed for this run (makespan / wall time).
    pub sim_cycles_per_sec: f64,
    /// Offload requests posted to publication lists in the measured window.
    pub offload_posted: u64,
    /// NMP-side retries (stale `begin`, parked-slot conflicts) in the window.
    pub offload_retries: u64,
    /// Lock-path falls (hybrid B+ tree splits reaching host levels).
    pub offload_lock_path: u64,
    /// Mean requests combined per non-idle combiner pass (>1 means the
    /// flat-combining batching is actually coalescing concurrent posts).
    pub offload_mean_batch: f64,
    /// Requests served by replicating a coalesced sibling's response
    /// instead of their own NMP descent (`Policy::Adaptive` key-range
    /// coalescing; always 0 under `Policy::Fixed`).
    pub offload_coalesced: u64,
    /// End-to-end operation latency percentiles over the measured window,
    /// in simulated cycles across all op kinds.
    pub lat_p50_cycles: f64,
    /// 95th-percentile latency; see [`RunResult::lat_p50_cycles`].
    pub lat_p95_cycles: f64,
    /// 99th-percentile latency; see [`RunResult::lat_p50_cycles`].
    pub lat_p99_cycles: f64,
    /// Per-op-kind latency breakdown.
    pub op_latency: Vec<OpLatency>,
    /// Full counter snapshot of the measured window.
    pub stats: StatsSnapshot,
}

/// Measured-window latency summary for one op kind (Read, Insert, ...).
#[derive(Debug, Clone, Serialize)]
pub struct OpLatency {
    /// Op-kind label (`read`, `insert`, `remove`, `update`, `scan`,
    /// `extract_min`).
    pub kind: String,
    /// Completed operations of this kind in the measured window.
    pub count: u64,
    /// Mean end-to-end latency in simulated cycles.
    pub mean_cycles: f64,
    /// Median latency in simulated cycles.
    pub p50_cycles: f64,
    /// 95th-percentile latency in simulated cycles.
    pub p95_cycles: f64,
    /// 99th-percentile latency in simulated cycles.
    pub p99_cycles: f64,
}

struct Shared {
    arrived: AtomicU32,
    released: AtomicU32,
    starts: Vec<AtomicU64>,
    ends: Vec<AtomicU64>,
    succeeded: AtomicU64,
}

/// Run `spec` against `index` on `machine`. The structure must already be
/// populated with the key space's initial keys.
pub fn run_index<S: SimIndex>(
    machine: &Arc<Machine>,
    index: &Arc<S>,
    ks: &KeySpace,
    spec: &RunSpec,
) -> RunResult {
    run_index_inner(machine, index, ks, spec, None)
}

/// As [`run_index`], but every completed point operation (warm-up
/// included; scans excluded) is recorded into `recorder`, ready for
/// [`HistoryRecorder::check_linearizable`] against the structure's
/// *pre-simulation* contents.
pub fn run_index_recorded<S: SimIndex>(
    machine: &Arc<Machine>,
    index: &Arc<S>,
    ks: &KeySpace,
    spec: &RunSpec,
    recorder: &Arc<HistoryRecorder>,
) -> RunResult {
    run_index_inner(machine, index, ks, spec, Some(Arc::clone(recorder)))
}

fn run_index_inner<S: SimIndex>(
    machine: &Arc<Machine>,
    index: &Arc<S>,
    ks: &KeySpace,
    spec: &RunSpec,
    recorder: Option<Arc<HistoryRecorder>>,
) -> RunResult {
    let threads = spec.workload.threads;
    assert!(threads as usize <= machine.config().host_cores, "more threads than host cores");
    assert!(spec.inflight >= 1 && spec.inflight <= index.max_inflight());

    let warmup_spec = WorkloadSpec {
        seed: workloads::mix64(spec.workload.seed ^ 0x57A2_4D11),
        ops_per_thread: spec.warmup_per_thread,
        ..spec.workload
    };
    let warmup_streams = warmup_spec.generate(ks);
    let measured_streams = spec.workload.generate(ks);

    let shared = Arc::new(Shared {
        arrived: AtomicU32::new(0),
        released: AtomicU32::new(0),
        starts: (0..threads).map(|_| AtomicU64::new(0)).collect(),
        ends: (0..threads).map(|_| AtomicU64::new(0)).collect(),
        succeeded: AtomicU64::new(0),
    });
    let lat_shared: Arc<parking_lot::Mutex<Vec<[LatencyHist; OP_KINDS]>>> =
        Arc::new(parking_lot::Mutex::new(Vec::new()));

    let mut sim = machine.simulation();
    index.spawn_services(&mut sim);
    for t in 0..threads as usize {
        let index = Arc::clone(index);
        let machine = Arc::clone(machine);
        let shared = Arc::clone(&shared);
        let warm = warmup_streams[t].clone();
        let meas = measured_streams[t].clone();
        let inflight = spec.inflight;
        let footprint = (spec.app_footprint_lines > 0).then(|| {
            // Cap the per-thread region so small test machines still fit.
            let budget = machine.host_arena().remaining_bytes() / (2 * threads);
            let region = FOOTPRINT_REGION_BYTES.min(budget / 128 * 128).max(4096);
            Footprint {
                base: machine.host_arena().alloc_aligned(region, 128),
                region_bytes: region,
                lines: spec.app_footprint_lines,
                rng: workloads::Rng::new(spec.workload.seed ^ (t as u64) ^ 0xF007),
            }
        });
        let recorder = recorder.clone();
        let lat_shared = Arc::clone(&lat_shared);
        sim.spawn(format!("host-{t}"), ThreadKind::Host { core: t }, move |ctx| {
            let mut footprint = footprint;
            let rec: RecorderHandle<'_> = recorder.as_deref().map(|r| (r, t));
            run_stream(ctx, &*index, &warm, inflight, footprint.as_mut(), rec, None);
            // Barrier: wait for everyone's warm-up to finish, then the last
            // arriver resets the counters (cache state stays warm).
            let n = shared.arrived.fetch_add(1, Ordering::Relaxed) + 1;
            if n == threads {
                ctx.reset_stats();
                shared.released.store(1, Ordering::Release);
            } else {
                let idle = machine.config().host_pipeline_idle_cycles;
                while shared.released.load(Ordering::Acquire) == 0 {
                    // A thread panicked, so a sibling may never arrive:
                    // end, and let the run report the panic.
                    if ctx.stop_requested() {
                        return;
                    }
                    ctx.idle(idle);
                }
            }
            let mut lat: [LatencyHist; OP_KINDS] = std::array::from_fn(|_| LatencyHist::new());
            let sink: LatSink<'_> = Some(&mut lat);
            shared.starts[t].store(ctx.now(), Ordering::Relaxed);
            let ok = run_stream(ctx, &*index, &meas, inflight, footprint.as_mut(), rec, sink);
            shared.ends[t].store(ctx.now(), Ordering::Relaxed);
            shared.succeeded.fetch_add(ok, Ordering::Relaxed);
            lat_shared.lock().push(lat);
        });
    }
    let t0 = std::time::Instant::now();
    let outcome = sim.run();
    let wall = t0.elapsed().as_secs_f64();

    let start = shared.starts.iter().map(|a| a.load(Ordering::Relaxed)).min().unwrap_or(0);
    let end = shared.ends.iter().map(|a| a.load(Ordering::Relaxed)).max().unwrap_or(0);
    let cycles = end.saturating_sub(start).max(1);
    let measured_ops = threads as u64 * spec.workload.ops_per_thread as u64;
    let stats = machine.mem().snapshot();
    let ghz = machine.config().clock_ghz;
    // Footprint lines come from a region far larger than the caches, so
    // virtually every touch is a DRAM read; exclude them from the index's
    // per-op metric.
    let fp = spec.app_footprint_lines as f64;
    let (lat_all, op_latency) = {
        let per_thread = lat_shared.lock();
        let mut merged: [LatencyHist; OP_KINDS] = std::array::from_fn(|_| LatencyHist::new());
        let mut all = LatencyHist::new();
        for hists in per_thread.iter() {
            for (k, h) in hists.iter().enumerate() {
                merged[k].merge(h);
                all.merge(h);
            }
        }
        let op_latency: Vec<OpLatency> = merged
            .iter()
            .enumerate()
            .filter(|(_, h)| h.count() > 0)
            .map(|(k, h)| OpLatency {
                kind: kind_label(k as u8).to_string(),
                count: h.count(),
                mean_cycles: h.mean(),
                p50_cycles: h.percentile(0.50),
                p95_cycles: h.percentile(0.95),
                p99_cycles: h.percentile(0.99),
            })
            .collect();
        (all, op_latency)
    };
    RunResult {
        threads,
        measured_ops,
        succeeded_ops: shared.succeeded.load(Ordering::Relaxed),
        cycles,
        mops: measured_ops as f64 / cycles as f64 * ghz * 1e3,
        dram_reads_per_op: (stats.dram_reads() as f64 / measured_ops as f64 - fp).max(0.0),
        host_dram_reads_per_op: (stats.host_dram_reads() as f64 / measured_ops as f64 - fp)
            .max(0.0),
        nmp_dram_reads_per_op: stats.nmp_dram_reads() as f64 / measured_ops as f64,
        mmio_per_op: (stats.mmio_reads + stats.mmio_writes) as f64 / measured_ops as f64,
        wall_ms: wall * 1e3,
        sim_cycles_per_sec: if wall > 0.0 { outcome.makespan() as f64 / wall } else { 0.0 },
        offload_posted: stats.offload.posted_total(),
        offload_retries: stats.offload.retries_total(),
        offload_lock_path: stats.offload.lock_path_total(),
        offload_mean_batch: stats.offload.mean_batch(),
        offload_coalesced: stats.offload.coalesced_total(),
        lat_p50_cycles: lat_all.percentile(0.50),
        lat_p95_cycles: lat_all.percentile(0.95),
        lat_p99_cycles: lat_all.percentile(0.99),
        op_latency,
        stats,
    }
}

/// Application-data pollution source (see [`RunSpec::app_footprint_lines`]).
struct Footprint {
    base: nmp_sim::Addr,
    region_bytes: u32,
    lines: u32,
    rng: workloads::Rng,
}

impl Footprint {
    /// Touch `lines` random cache lines of this thread's application data.
    fn touch(&mut self, ctx: &mut ThreadCtx) {
        let region_lines = (self.region_bytes / 128) as u64;
        for _ in 0..self.lines {
            let line = self.rng.below(region_lines) as u32;
            let _ = ctx.read_u64(self.base + line * 128);
        }
    }
}

/// Execute a stream of operations; returns how many reported success.
/// `inflight == 1` uses blocking calls; otherwise a lane-based pipeline of
/// non-blocking NMP calls (Fig. 4b). The pipeline polls its lanes round
/// after round, idling its [`Backoff`] after a round that made no progress;
/// when every occupied lane then waits on a posted request, the host parks
/// on their control words instead ([`ThreadCtx::park`]) and resumes at the
/// lane whose poll is the first to see a combiner's answer.
fn run_stream<S: SimIndex>(
    ctx: &mut ThreadCtx,
    index: &S,
    ops: &[Op],
    inflight: usize,
    mut footprint: Option<&mut Footprint>,
    rec: RecorderHandle<'_>,
    mut lat: LatSink<'_>,
) -> u64 {
    let mut ok = 0u64;
    if inflight <= 1 {
        for &op in ops {
            let inv = ctx.now();
            let r = index.execute(ctx, op);
            record_completion(rec, op, r, inv, ctx.now());
            note_latency(&mut lat, op, inv, ctx.now());
            ok += r.ok as u64;
            if let Some(f) = footprint.as_deref_mut() {
                f.touch(ctx);
            }
        }
        return ok;
    }
    let cfg = ctx.mem().config();
    let mut idle = Backoff::pipeline(cfg.policy, cfg.host_pipeline_idle_cycles);
    let mut lanes: Vec<Option<S::Pending>> = (0..inflight).map(|_| None).collect();
    // Invocation metadata per lane, kept for the completion record.
    let mut issued: Vec<(Op, u64)> = vec![(Op::Read(0), 0); inflight];
    // The control words the occupied lanes wait on, and those lanes.
    let (mut words, mut waiting) = (Vec::with_capacity(inflight), Vec::with_capacity(inflight));
    // Where the next round starts: a parked round resumes mid-way.
    let mut first_lane = 0;
    let mut next = 0usize;
    let mut done = 0usize;
    while done < ops.len() {
        let mut progressed = false;
        for lane in std::mem::take(&mut first_lane)..inflight {
            match lanes[lane].take() {
                None if next < ops.len() => {
                    let op = ops[next];
                    next += 1;
                    progressed = true;
                    let inv = ctx.now();
                    match index.issue(ctx, lane, op) {
                        Issued::Done(r) => {
                            done += 1;
                            ok += r.ok as u64;
                            record_completion(rec, op, r, inv, ctx.now());
                            note_latency(&mut lat, op, inv, ctx.now());
                            if let Some(f) = footprint.as_deref_mut() {
                                f.touch(ctx);
                            }
                        }
                        Issued::Pending(p) => {
                            lanes[lane] = Some(p);
                            issued[lane] = (op, inv);
                        }
                    }
                }
                None => {}
                Some(mut p) => match index.poll(ctx, &mut p) {
                    PollOutcome::Done(r) => {
                        done += 1;
                        ok += r.ok as u64;
                        progressed = true;
                        let (op, inv) = issued[lane];
                        record_completion(rec, op, r, inv, ctx.now());
                        note_latency(&mut lat, op, inv, ctx.now());
                        if let Some(f) = footprint.as_deref_mut() {
                            f.touch(ctx);
                        }
                    }
                    PollOutcome::Pending => lanes[lane] = Some(p),
                },
            }
        }
        if progressed {
            idle.rearm();
            continue;
        }
        let gap = idle.next_idle();
        if !awaited_words(index, &lanes, &mut words, &mut waiting) {
            // Host-side work is due, or an answer landed after its lane's
            // poll this round: the next round polls.
            ctx.idle(gap);
            continue;
        }
        match ctx.park(&words, gap, &mut idle) {
            Resume::Scan { word, .. } => first_lane = waiting[word],
            Resume::Stop { .. } => {
                publist::stopping(&format!("host {} lanes {waiting:?}", host_core(ctx)))
            }
        }
    }
    ok
}

/// Fill `words` with the control word each occupied lane waits on and
/// `waiting` with those lanes, in lane order. False if no lane is occupied
/// or one has something other than a wait to do next.
fn awaited_words<S: SimIndex>(
    index: &S,
    lanes: &[Option<S::Pending>],
    words: &mut Vec<Addr>,
    waiting: &mut Vec<usize>,
) -> bool {
    words.clear();
    waiting.clear();
    for (lane, p) in lanes.iter().enumerate() {
        if let Some(p) = p {
            let Some(word) = index.awaited_word(p) else { return false };
            words.push(word);
            waiting.push(lane);
        }
    }
    !words.is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::btree::HostBTree;
    use crate::skiplist::{HybridSkipList, NmpSkipList};
    use nmp_sim::Config;
    use workloads::{InsertDist, KeyDist, Mix};

    fn ks() -> KeySpace {
        KeySpace::new(512, 2, 128)
    }

    fn wl(threads: u32, ops: u32, mix: Mix) -> WorkloadSpec {
        WorkloadSpec {
            seed: 99,
            threads,
            ops_per_thread: ops,
            mix,
            read_dist: KeyDist::Uniform,
            insert_dist: InsertDist::UniformGap,
        }
    }

    #[test]
    fn driver_measures_host_btree() {
        let m = Machine::new(Config::tiny());
        let ks = ks();
        let pairs: Vec<(u32, u32)> =
            (0..ks.total_initial()).map(|i| (ks.initial_key(i), i)).collect();
        let t = HostBTree::new(Arc::clone(&m), &pairs, 0.5);
        let r = run_index(
            &m,
            &t,
            &ks,
            &RunSpec {
                workload: wl(2, 50, Mix::ycsb_c()),
                warmup_per_thread: 10,
                inflight: 1,
                app_footprint_lines: 0,
            },
        );
        assert_eq!(r.measured_ops, 100);
        assert_eq!(r.succeeded_ops, 100, "all reads hit initial keys");
        assert!(r.cycles > 0);
        assert!(r.mops > 0.0);
    }

    #[test]
    fn driver_blocking_vs_nonblocking_hybrid_skiplist() {
        let m = Machine::new(Config::tiny());
        let ks = ks();
        let sl = HybridSkipList::new(Arc::clone(&m), ks, 10, 4, 7, 4);
        sl.populate((0..ks.total_initial()).map(|i| (ks.initial_key(i), i)));
        let spec = |inflight| RunSpec {
            workload: wl(4, 40, Mix::ycsb_c()),
            warmup_per_thread: 10,
            inflight,
            app_footprint_lines: 0,
        };
        let blocking = run_index(&m, &sl, &ks, &spec(1));
        // Fresh machine for a fair second run.
        let m2 = Machine::new(Config::tiny());
        let sl2 = HybridSkipList::new(Arc::clone(&m2), ks, 10, 4, 7, 4);
        sl2.populate((0..ks.total_initial()).map(|i| (ks.initial_key(i), i)));
        let nonblocking = run_index(&m2, &sl2, &ks, &spec(4));
        assert!(
            nonblocking.mops > blocking.mops,
            "non-blocking ({:.3}) should beat blocking ({:.3})",
            nonblocking.mops,
            blocking.mops
        );
        sl.check_invariants();
        sl2.check_invariants();
    }

    #[test]
    fn driver_mixed_workload_counts_successes() {
        let m = Machine::new(Config::tiny());
        let ks = ks();
        let sl = NmpSkipList::new(Arc::clone(&m), ks, 8, 3, 2);
        sl.populate((0..ks.total_initial()).map(|i| (ks.initial_key(i), i)));
        let r = run_index(
            &m,
            &sl,
            &ks,
            &RunSpec {
                workload: wl(2, 100, Mix::read_insert_remove(50, 25, 25)),
                warmup_per_thread: 5,
                inflight: 1,
                app_footprint_lines: 0,
            },
        );
        assert_eq!(r.measured_ops, 200);
        assert!(r.succeeded_ops > 0 && r.succeeded_ops <= 200);
        sl.check_invariants();
    }

    #[test]
    fn driver_deterministic() {
        let go = || {
            let m = Machine::new(Config::tiny());
            let ks = ks();
            let sl = NmpSkipList::new(Arc::clone(&m), ks, 8, 3, 1);
            sl.populate((0..ks.total_initial()).map(|i| (ks.initial_key(i), i)));
            let r = run_index(
                &m,
                &sl,
                &ks,
                &RunSpec {
                    workload: wl(3, 30, Mix::read_insert_remove(70, 15, 15)),
                    warmup_per_thread: 5,
                    inflight: 1,
                    app_footprint_lines: 0,
                },
            );
            (r.cycles, r.succeeded_ops, r.stats.dram_reads())
        };
        assert_eq!(go(), go());
    }

    #[test]
    fn recorded_history_linearizes() {
        let m = Machine::new(Config::tiny());
        let ks = ks();
        let sl = NmpSkipList::new(Arc::clone(&m), ks, 8, 3, 2);
        let pairs: Vec<(u32, u32)> =
            (0..ks.total_initial()).map(|i| (ks.initial_key(i), i)).collect();
        sl.populate(pairs.iter().copied());
        let initial: std::collections::HashMap<u32, u32> = pairs.into_iter().collect();
        let rec = Arc::new(HistoryRecorder::new());
        let r = run_index_recorded(
            &m,
            &sl,
            &ks,
            &RunSpec {
                workload: wl(2, 60, Mix::read_insert_remove(40, 30, 30)),
                warmup_per_thread: 10,
                inflight: 1,
                app_footprint_lines: 0,
            },
            &rec,
        );
        // Warm-up (2 * 10) + measured (2 * 60) point ops, no scans in the mix.
        assert_eq!(rec.len() as u64, r.measured_ops + 20);
        rec.check_linearizable(|k| initial.get(&k).copied()).expect("history must linearize");
        sl.check_invariants();
    }

    /// A host that panics in warm-up never reaches the barrier: the others
    /// stop waiting for it, and the run reports the panic.
    #[test]
    #[should_panic(expected = "host 0 fails in warm-up")]
    fn a_warmup_panic_ends_the_run() {
        struct FailsOnHost0;
        impl SimIndex for FailsOnHost0 {
            type Pending = ();
            fn execute(&self, ctx: &mut ThreadCtx, _op: Op) -> OpResult {
                ctx.idle(10);
                assert_ne!(ctx.kind(), ThreadKind::Host { core: 0 }, "host 0 fails in warm-up");
                OpResult::ok(0)
            }
            fn issue(&self, ctx: &mut ThreadCtx, _lane: usize, op: Op) -> Issued<()> {
                Issued::Done(self.execute(ctx, op))
            }
            fn poll(&self, _: &mut ThreadCtx, _: &mut ()) -> PollOutcome {
                unreachable!("every op is done at issue")
            }
            fn effect_spec(&self) -> nmp_sim::EffectSpec {
                nmp_sim::EffectSpec::new("fails-on-host-0")
            }
            fn spawn_services(self: &Arc<Self>, _: &mut nmp_sim::Simulation) {}
        }
        let m = Machine::new(Config::tiny());
        run_index(&m, &Arc::new(FailsOnHost0), &ks(), &RunSpec::new(wl(2, 4, Mix::ycsb_c()), 2, 1));
    }

    #[test]
    fn warmup_reduces_measured_dram_reads() {
        let ks = ks();
        let run_with = |warmup: u32| {
            let m = Machine::new(Config::tiny());
            let pairs: Vec<(u32, u32)> =
                (0..ks.total_initial()).map(|i| (ks.initial_key(i), i)).collect();
            let t = HostBTree::new(Arc::clone(&m), &pairs, 0.5);
            run_index(
                &m,
                &t,
                &ks,
                &RunSpec {
                    workload: wl(1, 60, Mix::ycsb_c()),
                    warmup_per_thread: warmup,
                    inflight: 1,
                    app_footprint_lines: 0,
                },
            )
            .dram_reads_per_op
        };
        assert!(run_with(200) < run_with(0), "warm caches -> fewer measured DRAM reads");
    }
}
