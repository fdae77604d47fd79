//! Every experiment of the table, end to end at smoke scale: the same
//! `run_experiment` the `figures` binary calls, writing into a scratch
//! directory, with what it wrote read back and held against the committed
//! golden rows in `golden/smoke/`.

#[path = "../../../tests/support/golden.rs"]
mod golden;

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::path::Path;

use hybrids_bench::experiments::EXPERIMENTS;
use hybrids_bench::{run_experiment, Scale};
use serde::Value;

/// Keys of one results row (EXPERIMENTS.md, "Raw results").
const ROW_KEYS: [&str; 26] = [
    "cycles",
    "dram_reads_per_op",
    "experiment",
    "host_dram_reads_per_op",
    "lat_p50_cycles",
    "lat_p95_cycles",
    "lat_p99_cycles",
    "measured_ops",
    "mmio_per_op",
    "mops",
    "nmp_dram_reads_per_op",
    "offload_coalesced",
    "offload_lock_path",
    "offload_mean_batch",
    "offload_posted",
    "offload_retries",
    "policy",
    "pq_stale_probes",
    "scale",
    "sim_cycles_per_sec",
    "structure",
    "succeeded_ops",
    "threads",
    "variant",
    "wall_ms",
    "workload",
];

/// The experiments that print a table but record no rows.
const NO_RECORDS: [&str; 4] = ["fig4", "table2", "ablations", "trace"];

/// Row fields that time the host running the simulation, not the
/// simulation: left out of the golden rows.
const WALL_CLOCK: [&str; 2] = ["wall_ms", "sim_cycles_per_sec"];

/// The golden file holding one FNV-1a digest per Perfetto export.
const PERFETTO_DIGESTS: &str = "perfetto.fnv1a";

/// A results row as it is committed: the row without its wall-clock fields.
fn golden_row(row: &Value) -> String {
    let Value::Object(fields) = row else { panic!("row is not an object") };
    let kept: Vec<(String, Value)> =
        fields.iter().filter(|(k, _)| !WALL_CLOCK.contains(&k.as_str())).cloned().collect();
    serde_json::to_string(&Value::Object(kept)).unwrap()
}

/// `structure/variant/threads/workload`: what tells the rows of one file
/// apart.
fn row_key(row: &Value) -> String {
    let text = |k: &str| {
        row.field(k).map_or_else(
            |_| "?".into(),
            |v| match v {
                Value::Str(s) => s.clone(),
                other => serde_json::to_string(other).unwrap(),
            },
        )
    };
    format!("{}/{}/{}/{}", text("structure"), text("variant"), text("threads"), text("workload"))
}

/// Every difference between a committed golden file and its regeneration,
/// one line each: `key field: old → new` for rows (matched by [`row_key`]; a
/// row missing on one side shows `(none)` there), `line N: old → new` for
/// Perfetto digests.
fn moves(file: &str, old: &str, new: &str) -> Vec<String> {
    if file == PERFETTO_DIGESTS {
        return golden::line_moves(old, new);
    }
    let rows = |text: &str| -> BTreeMap<String, Value> {
        text.lines().map(parse).map(|row| (row_key(&row), row)).collect()
    };
    let (old, new) = (rows(old), rows(new));
    let show = |v: Option<&Value>| v.map_or("(none)".into(), |v| serde_json::to_string(v).unwrap());
    let mut out = Vec::new();
    for key in old.keys().chain(new.keys()).collect::<BTreeSet<_>>() {
        let (Some(Value::Object(of)), Some(Value::Object(nf))) = (old.get(key), new.get(key))
        else {
            out.push(format!("{key}: {} → {}", show(old.get(key)), show(new.get(key))));
            continue;
        };
        let field =
            |f: &[(String, Value)], k: &str| show(f.iter().find(|(x, _)| x == k).map(|f| &f.1));
        for k in of.iter().chain(nf).map(|(k, _)| k.as_str()).collect::<BTreeSet<_>>() {
            let (was, now) = (field(of, k), field(nf, k));
            if was != now {
                out.push(format!("{key} {k}: {was} → {now}"));
            }
        }
    }
    out
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn parse(json: &str) -> Value {
    serde_json::parse_value_str(json).unwrap_or_else(|e| panic!("{json}: {e}"))
}

#[test]
fn every_experiment_runs_and_its_output_reads_back() {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("all_experiments");
    let _ = std::fs::remove_dir_all(&out);
    std::fs::create_dir_all(&out).unwrap();
    let scale = Scale::smoke();
    let mut names = BTreeSet::new();
    let mut traces = 0;
    let mut fresh = BTreeMap::new();
    let mut digests = String::new();
    for (name, run) in EXPERIMENTS {
        assert!(names.insert(name), "`{name}` is in the table twice");
        // Runs the experiment's own assertions too: fig4 fails here if
        // non-blocking calls come out slower than blocking ones.
        let results = run_experiment(*run, &scale, &out).unwrap();
        assert_eq!(results.records.is_empty(), NO_RECORDS.contains(name), "{name}");
        if let Some(first) = results.records.first() {
            let text = read(&out.join(format!("{}.jsonl", first.experiment)));
            assert_eq!(text.lines().count(), results.records.len(), "{name}: one line per record");
            let golden: String = text.lines().map(|l| golden_row(&parse(l)) + "\n").collect();
            let keys: BTreeSet<String> = text.lines().map(|l| row_key(&parse(l))).collect();
            assert_eq!(keys.len(), results.records.len(), "{name}: two rows share a key");
            fresh.insert(format!("{}.jsonl", first.experiment), golden);
            for row in text.lines().map(parse) {
                let Value::Object(fields) = &row else { panic!("{name}: row is not an object") };
                let keys: BTreeSet<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(keys, BTreeSet::from(ROW_KEYS), "{name}");
                assert_eq!(fields.len(), ROW_KEYS.len(), "{name}: a key appears twice");
                assert_eq!(row.field("experiment"), Ok(&Value::Str(first.experiment.into())));
                assert_eq!(row.field("scale"), Ok(&Value::Str("smoke".into())));
            }
        }
        for (structure, _) in &results.traces {
            let json = read(&out.join("trace").join(format!("{structure}.smoke.json")));
            let _ = writeln!(digests, "{structure} {:016x}", golden::fnv1a64(&json));
            let doc = parse(&json);
            match doc.field("traceEvents") {
                Ok(Value::Array(events)) => assert!(!events.is_empty(), "{structure}: no events"),
                other => panic!("{structure}: traceEvents is {other:?}"),
            }
            traces += 1;
        }
    }
    assert_eq!(traces, 6, "`trace` exports one Perfetto file per conformance structure");
    std::fs::remove_dir_all(&out).unwrap();
    fresh.insert(PERFETTO_DIGESTS.into(), digests);
    golden::check("smoke", &fresh, moves);
}
