//! The benchmark's catalogue: workloads, end-to-end metrics with their
//! regression bounds, per-layer metrics. `BENCHMARK.json` at the
//! repository root declares the same names; the tests below hold the two
//! together.

use crate::serve::ServeKind;
use crate::sim::SimKind;

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before
    /// it counts as a regression (end-to-end metrics only).
    pub bound: Option<f64>,
    /// What it measures.
    pub what: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    what: &'static str,
) -> MetricDef {
    MetricDef { name, unit, better, bound: Some(bound), what }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    what: &'static str,
) -> MetricDef {
    MetricDef { name, unit, better, bound: None, what }
}

use Better::{Higher, Lower};

/// End-to-end metrics. Every workload reports every one of them (the
/// driver's contract), so each is defined for both products: on `sim-*`
/// the operation clock is simulated time, on `serve-*` it is wall time.
pub const END_TO_END: &[MetricDef] = &[
    e2e(
        "throughput_ops_per_s",
        "ops/s",
        Higher,
        0.15,
        "sim: RunResult::mops x 1e6, operations per second of simulated time (exact per seed); \
         serve: timed requests / wall",
    ),
    e2e(
        "latency_p50_us",
        "us",
        Lower,
        0.15,
        "sim: RunResult::lat_p50_cycles / clock, all op kinds (exact per seed); \
         serve: client round trip, send -> last response byte",
    ),
    e2e(
        "latency_p95_us",
        "us",
        Lower,
        0.20,
        "same, 95th percentile (p99 is per-layer: the driver's power-of-two histogram cannot \
         resolve it steadily on sim-*)",
    ),
    e2e(
        "host_us_per_op",
        "us",
        Lower,
        0.10,
        "host wall time per operation: sim: sim.run() wall / (warm-up + measured ops), the \
         simulator's host speed; serve: timed wall / requests on the one pinned CPU",
    ),
    e2e(
        "setup_s",
        "s",
        Lower,
        0.25,
        "everything before a sub-run's timed window: input generation, machine + structure \
         build, populate / server start + preload + warm-up",
    ),
    e2e("peak_rss_mb", "MiB", Lower, 0.10, "the measuring process's VmHWM at exit"),
];

/// Per-layer metrics, reported by the traced run. Metrics of a layer the
/// workload does not reach read 0 (see README.md for which).
pub const PER_LAYER: &[MetricDef] = &[
    // workloads
    layer("workloads.zipf_next_ns", "ns", Lower, "ScrambledZipfian::next_index, wall"),
    layer("workloads.gen_ops_per_s", "ops/s", Higher, "WorkloadSpec::generate, wall"),
    // nmp_sim::cache
    layer("cache.access_hit_ns", "ns", Lower, "Cache::access on a resident block, wall"),
    layer("cache.access_miss_ns", "ns", Lower, "Cache::access streaming misses, wall"),
    layer("cache.l1_miss_rate", "fraction", Lower, "L1 misses / accesses, measured window"),
    layer("cache.l2_miss_rate", "fraction", Lower, "L2 misses / accesses, measured window"),
    // nmp_sim::dram
    layer("dram.vault_access_ns", "ns", Lower, "Vault::access, wall"),
    layer("dram.row_hit_rate", "fraction", Higher, "row hits / vault accesses"),
    layer("dram.row_conflict_rate", "fraction", Lower, "row conflicts / vault accesses"),
    layer("dram.bank_wait_cycles_per_op", "cycles/op", Lower, "bank queueing per operation"),
    layer("dram.reads_per_op", "reads/op", Lower, "the Fig. 5b/6b/9 metric"),
    layer("dram.host_reads_per_op", "reads/op", Lower, "reads by host cores"),
    layer("dram.nmp_reads_per_op", "reads/op", Lower, "reads by NMP cores"),
    // nmp_sim::mem
    layer("mem.mmio_per_op", "count/op", Lower, "MMIO transactions per operation"),
    layer("mem.nmp_buffer_hit_rate", "fraction", Higher, "NMP node-buffer hits / NMP reads"),
    layer("mem.accesses_per_op", "count/op", Lower, "counted simulated accesses per operation"),
    // nmp_sim::engine
    layer("engine.solo_access_ns", "ns", Lower, "one thread, no handoff: wall per access"),
    layer("engine.same_shard_handoff_ns", "ns", Lower, "two host threads alternating"),
    layer(
        "engine.cross_shard_handoff_ns",
        "ns",
        Lower,
        "host <-> NMP: wall per publication-list round trip of the Table 2 probe",
    ),
    layer(
        "engine.host_ns_per_access",
        "ns",
        Lower,
        "measured window's share of sim.run() wall / counted accesses",
    ),
    layer("engine.sim_cycles_per_sec", "cycles/s", Higher, "RunResult::sim_cycles_per_sec"),
    // nmp_sim::backend
    layer("backend.native_read_ns", "ns", Lower, "MemBackend::read_u64 on NativeRam, wall"),
    layer("backend.native_cas_ns", "ns", Lower, "MemBackend::cas_u64 on NativeRam, wall"),
    // tracing cost
    layer("trace.overhead_pct", "%", Lower, "traced vs untraced wall of the same run"),
    layer("trace.events", "count", Lower, "events / spans the traced run recorded"),
    // hybrids::publist (Table 2 probe)
    layer("publist.post_cycles", "cycles", Lower, "host writes the request (4 MMIO stores)"),
    layer("publist.notice_cycles", "cycles", Lower, "until the combiner picks it up"),
    layer("publist.poll_cycles", "cycles", Lower, "completion until the host notices"),
    layer("publist.roundtrip_cycles", "cycles", Lower, "full round trip, 1-cycle NMP work"),
    layer(
        "publist.roundtrip_llc_misses",
        "count",
        Lower,
        "request + response communication in LLC-miss delays (paper: 1-2)",
    ),
    layer(
        "publist.native_roundtrip_ns",
        "ns",
        Lower,
        "one host thread + the combiners, blocking hash-map Read, wall",
    ),
    // hybrids::offload
    layer("offload.host_cycles_per_op", "cycles/op", Lower, "host-side client code"),
    layer("offload.post_cycles_per_op", "cycles/op", Lower, "MMIO posts"),
    layer("offload.queue_cycles_per_op", "cycles/op", Lower, "posted, not yet executing"),
    layer("offload.exec_cycles_per_op", "cycles/op", Lower, "combiner execute window"),
    layer("offload.drain_cycles_per_op", "cycles/op", Lower, "response until observed"),
    layer("offload.posted_per_op", "count/op", Lower, "publication-list posts per operation"),
    layer("offload.retry_share", "fraction", Lower, "retry responses / posts"),
    layer("offload.lock_path_share", "fraction", Lower, "LOCK_PATH falls / posts"),
    layer("offload.mean_batch", "count", Higher, "requests per non-idle combiner pass"),
    layer("offload.lane_occupancy", "fraction", Higher, "posts on a lane beyond the first"),
    // hybrids::offload::policy
    layer("policy.coalesced_share", "fraction", Higher, "coalesced serves / posts"),
    // structures
    layer("struct.read_p50_cycles", "cycles", Lower, "median read latency"),
    layer("struct.insert_p50_cycles", "cycles", Lower, "median insert latency"),
    layer("struct.remove_p50_cycles", "cycles", Lower, "median remove latency"),
    layer("struct.p99_cycles", "cycles", Lower, "RunResult::lat_p99_cycles, all op kinds"),
    layer("struct.success_share", "fraction", Higher, "operations whose success bit was set"),
    layer("baseline.sim_mops", "Mops", Higher, "the baseline structure on the same stream"),
    layer("baseline.speedup", "ratio", Higher, "hybrid Mops / baseline Mops"),
    layer(
        "baseline.paper_err_pct",
        "%",
        Lower,
        "|speedup - paper's| / paper's (0 where the paper has no such experiment)",
    ),
    // server::proto
    layer("proto.parse_ns_per_req", "ns", Lower, "Parser over the workload's own bytes"),
    layer("proto.parse_mb_per_s", "MB/s", Higher, "same, as bandwidth"),
    layer("proto.encode_ns_per_resp", "ns", Lower, "reference encoders over the responses"),
    // server::ttl
    layer("ttl.is_expired_ns", "ns", Lower, "TtlTable::is_expired, wall"),
    layer("ttl.on_set_ns", "ns", Lower, "TtlTable::on_set, wall"),
    // server::runtime::conn
    layer(
        "conn.cycle_ns_per_req",
        "ns",
        Lower,
        "Conn over an in-memory stream: on_readable -> complete -> flush",
    ),
    // server::service
    layer("service.get_us", "us", Lower, "Service::execute, single-key get, median"),
    layer("service.set_us", "us", Lower, "Service::execute, set, median"),
    layer("service.delete_us", "us", Lower, "Service::execute, delete, median"),
    layer("service.multiget_us_per_key", "us", Lower, "Service::execute, 16-key get, per key"),
    layer("service.round_trips_per_req", "count", Lower, "offload posts / requests in replay"),
    // server::runtime
    layer(
        "runtime.residual_us_per_req",
        "us",
        Lower,
        "wall per request minus conn.cycle and service: reactor, queues, sockets, client",
    ),
    layer("runtime.connect_ms", "ms", Lower, "connect() to first response, median"),
    layer("runtime.backpressure_pauses", "count", Lower, "read-interest parks"),
    // client
    layer("client.p99_us", "us", Lower, "client round trip, 99th percentile"),
    layer("client.p999_us", "us", Lower, "client round trip, 99.9th percentile"),
    layer("client.keys_per_sec", "keys/s", Higher, "keys touched per second"),
    layer("client.get_hit_share", "fraction", Higher, "get keys that hit"),
    layer("client.samples", "count", Higher, "latency samples behind the percentiles"),
];

/// What a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Runs {
    /// The figure harness on the simulated backend.
    Sim(SimKind),
    /// The cache server on the native backend.
    Serve(ServeKind),
}

/// One workload.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadDef {
    /// Name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Why it is in the benchmark.
    pub why: &'static str,
    /// What it runs.
    pub runs: Runs,
    /// Operations per second of `--seconds`: per host thread (sim) or per
    /// connection (serve). Run length is this times `--seconds`, a fixed
    /// operation count, so two commits do identical work.
    pub ops_per_second: u32,
}

/// The six workloads.
pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: "sim-skiplist-ycsbc",
        why: "Fig. 5, the paper's headline: read-only, so offload lanes, publist and NMP walks \
              do the work and no write path runs",
        runs: Runs::Sim(SimKind::SkiplistYcsbC),
        ops_per_second: 600,
    },
    WorkloadDef {
        name: "sim-btree-splits",
        why: "Fig. 8: the same offload runtime used for writes: seqlocks, splits and the \
              LOCK_PATH fallback",
        runs: Runs::Sim(SimKind::BtreeSplits),
        ops_per_second: 1300,
    },
    WorkloadDef {
        name: "sim-hashmap-adaptive",
        why: "the only workload where offload::policy runs (coalescing, lane governor, \
              back-off); the other two sim workloads are Policy::Fixed and must not move with it",
        runs: Runs::Sim(SimKind::HashmapAdaptive),
        ops_per_second: 1100,
    },
    WorkloadDef {
        name: "serve-get",
        why: "one request in flight per connection, so per-request runtime hops (reactor, \
              queue, worker, mailbox, write) dominate and batching has nothing to batch",
        runs: Runs::Serve(ServeKind::Get),
        ops_per_second: 20_000,
    },
    WorkloadDef {
        name: "serve-set-ttl",
        why: "the service layer used for writes: set as an Insert+Update race, the TTL \
              side-table lock on every op, lazy-expiry removes",
        runs: Runs::Serve(ServeKind::SetTtl),
        ops_per_second: 19_000,
    },
    WorkloadDef {
        name: "serve-multiget",
        why: "16 map round trips per request and 8 requests queued per connection: socket and \
              parse cost is amortized, the one-blocking-offload-per-key loop is the whole cost",
        runs: Runs::Serve(ServeKind::Multiget),
        ops_per_second: 5_000,
    },
];

/// Sub-runs of one untraced run. A run is split into independent
/// sub-runs — a fresh set-up and a derived seed each — and every metric is
/// the median across them: a zipfian stream on one machine, or one server
/// instance, settles into a regime that differs from the next by more than
/// any bound (README.md, "Steadiness").
pub const SUBRUNS: u32 = 3;

/// No sub-run or traced pass is shorter than this many operations per host
/// thread / connection.
pub const MIN_OPS: u32 = 20;

/// Look a workload up by name.
pub fn workload(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// How long a run is.
#[derive(Debug, Clone, Copy)]
pub struct Length {
    /// `--seconds`: the run's nominal measuring time.
    pub seconds: u32,
    /// `--smoke`: every workload at 1/50 size.
    pub smoke: bool,
    /// The traced pass runs at a quarter length.
    pub traced: bool,
}

impl Length {
    /// Timed operations per host thread / per connection for `w`.
    pub fn ops(&self, w: &WorkloadDef) -> u32 {
        let mut ops = w.ops_per_second * self.seconds;
        if self.smoke {
            ops /= 50;
        }
        if self.traced {
            ops /= 4;
        }
        ops.max(MIN_OPS)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    /// What `BENCHMARK.json` must say, rendered from the catalogue.
    fn expected_benchmark_json() -> Value {
        use crate::obj;
        let s = |x: &str| Value::Str(x.to_owned());
        let command = [
            "cargo",
            "run",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            "benchmark/Cargo.toml",
            "--",
        ];
        obj(vec![
            ("command", Value::Array(command.iter().map(|c| s(c)).collect())),
            ("paths", Value::Array(vec![s("benchmark")])),
            ("run_seconds", Value::UInt(crate::DEFAULT_SECONDS.into())),
            (
                "workloads",
                Value::Array(
                    WORKLOADS
                        .iter()
                        .map(|w| obj(vec![("name", s(w.name)), ("why", s(w.why))]))
                        .collect(),
                ),
            ),
            (
                "end_to_end",
                Value::Array(
                    END_TO_END
                        .iter()
                        .map(|m| {
                            obj(vec![
                                ("name", s(m.name)),
                                ("unit", s(m.unit)),
                                ("better", s(m.better.label())),
                                (
                                    "bound",
                                    Value::Float(m.bound.expect("end-to-end metrics are bounded")),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "per_layer",
                Value::Array(
                    PER_LAYER
                        .iter()
                        .map(|m| {
                            obj(vec![
                                ("name", s(m.name)),
                                ("unit", s(m.unit)),
                                ("better", s(m.better.label())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    #[test]
    fn benchmark_json_declares_exactly_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let expected = expected_benchmark_json();
        let text = std::fs::read_to_string(path).unwrap_or_default();
        let declared = serde_json::parse_value_str(&text).unwrap_or(Value::Null);
        assert!(
            declared == expected,
            "BENCHMARK.json is out of step with src/spec.rs; it should read:\n{}",
            serde_json::to_string_pretty(&crate::Json(expected)).unwrap()
        );
    }

    fn well_formed(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        !name.is_empty()
            && name.len() <= 64
            && name.chars().all(ok)
            && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
    }

    #[test]
    fn names_are_well_formed_and_used_once() {
        let names: Vec<&str> = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().chain(PER_LAYER).map(|m| m.name))
            .collect();
        for name in &names {
            assert!(
                well_formed(name),
                "{name:?} must match [A-Za-z0-9][A-Za-z0-9_.-]*, <= 64 chars"
            );
        }
        let unique: std::collections::BTreeSet<_> = names.iter().collect();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        assert!(!well_formed("bad name") && !well_formed(".lead") && !well_formed(""));
    }

    #[test]
    fn units_and_reasons_fit_the_contract() {
        for m in END_TO_END.iter().chain(PER_LAYER) {
            let ok =
                |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
            assert!(
                !m.unit.is_empty() && m.unit.len() <= 16 && m.unit.chars().all(ok),
                "unit {:?}",
                m.unit
            );
        }
        for w in WORKLOADS {
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "{}: why must be one line",
                w.name
            );
        }
    }

    #[test]
    fn the_caps_hold() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!(END_TO_END.iter().all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = END_TO_END.iter().filter_map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest), "setup_s takes the largest bound");
    }

    #[test]
    fn run_length_is_a_fixed_operation_count() {
        let w = &WORKLOADS[0];
        let full = Length { seconds: 8, smoke: false, traced: false };
        assert_eq!(full.ops(w), w.ops_per_second * 8);
        assert_eq!(Length { traced: true, ..full }.ops(w), w.ops_per_second * 2);
        assert_eq!(Length { smoke: true, ..full }.ops(w), w.ops_per_second * 8 / 50);
        assert_eq!(Length { seconds: 1, smoke: true, traced: true }.ops(w), 20);
    }
}
