//! Every experiment of the table, end to end at smoke scale: the same
//! `run_experiment` the `figures` binary calls, writing into a scratch
//! directory, with what it wrote read back and held against the committed
//! golden rows in `golden/smoke/`.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

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

/// Row fields that time the host running the simulation, not the
/// simulation: left out of the golden rows.
const WALL_CLOCK: [&str; 2] = ["wall_ms", "sim_cycles_per_sec"];

/// The golden file holding one FNV-1a digest per Perfetto export.
const PERFETTO_DIGESTS: &str = "perfetto.fnv1a";

/// The committed golden files: `<experiment>.jsonl` rows without
/// [`WALL_CLOCK`], and [`PERFETTO_DIGESTS`].
fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("golden").join("smoke")
}

/// 64-bit FNV-1a.
fn fnv1a64(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
}

/// A results row as it is committed: the row without its wall-clock fields.
fn golden_row(row: &Value) -> String {
    let Value::Object(fields) = row else { panic!("row is not an object") };
    let kept: Vec<(String, Value)> =
        fields.iter().filter(|(k, _)| !WALL_CLOCK.contains(&k.as_str())).cloned().collect();
    serde_json::to_string(&Value::Object(kept)).unwrap()
}

/// `variant/threads/workload` of a golden row.
fn row_label(row: &Value) -> String {
    let text = |k: &str| {
        row.field(k).map_or_else(
            |_| "?".into(),
            |v| match v {
                Value::Str(s) => s.clone(),
                other => serde_json::to_string(other).unwrap(),
            },
        )
    };
    format!("{}/{}/{}", text("variant"), text("threads"), text("workload"))
}

/// Every difference between a committed golden file and its regeneration,
/// one line each: `variant/threads/workload field: old → new` for rows
/// (matched by position), `structure: old → new` for Perfetto digests.
fn moves(file: &str, old: &str, new: &str) -> Vec<String> {
    let (old, new): (Vec<&str>, Vec<&str>) = (old.lines().collect(), new.lines().collect());
    let mut out = Vec::new();
    for i in 0..old.len().max(new.len()) {
        let (o, n) = (old.get(i).copied(), new.get(i).copied());
        if o == n {
            continue;
        }
        if file == PERFETTO_DIGESTS {
            fn split(l: Option<&str>) -> (&str, &str) {
                l.and_then(|l| l.split_once(' ')).unwrap_or(("", "(none)"))
            }
            let ((name, was), (other, now)) = (split(o), split(n));
            let name = if name.is_empty() { other } else { name };
            out.push(format!("{file} {name}: {was} → {now}"));
            continue;
        }
        let (o, n) = (o.map(parse), n.map(parse));
        let label = format!("{file} {}", row_label(n.as_ref().or(o.as_ref()).unwrap()));
        let fields = |v: &Option<Value>| match v {
            Some(Value::Object(f)) => f.clone(),
            _ => Vec::new(),
        };
        let (of, nf) = (fields(&o), fields(&n));
        let show = |f: &[(String, Value)], k: &str| {
            f.iter()
                .find(|(x, _)| x == k)
                .map_or("(none)".into(), |(_, v)| serde_json::to_string(v).unwrap())
        };
        let keys: BTreeSet<&str> = of.iter().chain(&nf).map(|(k, _)| k.as_str()).collect();
        for k in keys {
            let (was, now) = (show(&of, k), show(&nf, k));
            if was != now {
                out.push(format!("{label} {k}: {was} → {now}"));
            }
        }
    }
    out
}

/// Hold the regenerated golden files against the committed ones. On any
/// difference, write the regenerated set under `CARGO_TARGET_TMPDIR`, then
/// fail naming every moved field and the `cp` command that accepts them.
fn check_golden(fresh: &BTreeMap<String, String>) {
    let dir = golden_dir();
    let mut moved = Vec::new();
    for (file, text) in fresh {
        let committed = std::fs::read_to_string(dir.join(file)).unwrap_or_default();
        if committed != *text {
            moved.extend(moves(file, &committed, text));
        }
    }
    if moved.is_empty() {
        return;
    }
    let new_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("golden").join("smoke");
    std::fs::create_dir_all(&new_dir).unwrap();
    for (file, text) in fresh {
        std::fs::write(new_dir.join(file), text).unwrap();
    }
    let mut msg = format!("{} golden smoke value(s) moved:\n", moved.len());
    for m in &moved {
        let _ = writeln!(msg, "  {m}");
    }
    let _ = write!(
        msg,
        "If the change is meant to move them, accept the new rows with\n  cp {}/* {}/",
        new_dir.display(),
        dir.display()
    );
    panic!("{msg}");
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
            let _ = writeln!(digests, "{structure} {:016x}", fnv1a64(&json));
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
    check_golden(&fresh);
}
