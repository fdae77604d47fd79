//! Every experiment of the table, end to end at smoke scale: the same
//! `run_experiment` the `figures` binary calls, writing into a scratch
//! directory, with what it wrote read back.

use std::collections::BTreeSet;
use std::path::Path;

use hybrids_bench::experiments::EXPERIMENTS;
use hybrids_bench::{run_experiment, Scale};
use serde::Value;

/// Keys of one results row (EXPERIMENTS.md, "Raw results").
const ROW_KEYS: [&str; 26] = [
    "cycles",
    "dram_reads_per_op",
    "energy_nj_per_op",
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
    "succeeded_ops",
    "threads",
    "variant",
    "wall_ms",
    "workload",
];

/// The experiments that print a table but record no rows.
const NO_RECORDS: [&str; 4] = ["fig4", "table2", "ablations", "trace"];

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
    for (name, run) in EXPERIMENTS {
        assert!(names.insert(name), "`{name}` is in the table twice");
        // Runs the experiment's own assertions too: fig4 fails here if
        // non-blocking calls come out slower than blocking ones.
        let results = run_experiment(*run, &scale, &out).unwrap();
        assert_eq!(results.records.is_empty(), NO_RECORDS.contains(name), "{name}");
        if let Some(first) = results.records.first() {
            let text = read(&out.join(format!("{}.jsonl", first.experiment)));
            assert_eq!(text.lines().count(), results.records.len(), "{name}: one line per record");
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
            let doc = parse(&read(&out.join("trace").join(format!("{structure}.smoke.json"))));
            match doc.field("traceEvents") {
                Ok(Value::Array(events)) => assert!(!events.is_empty(), "{structure}: no events"),
                other => panic!("{structure}: traceEvents is {other:?}"),
            }
            traces += 1;
        }
    }
    assert_eq!(traces, 6, "`trace` exports one Perfetto file per conformance structure");
    std::fs::remove_dir_all(&out).unwrap();
}
