//! Run the figure/table harnesses from one binary:
//!
//! ```text
//! cargo run --release -p hybrids-bench --bin figures -- [--scale smoke|ci|scaled|paper] [--policy fixed|adaptive] [fig5 fig6 fig7 fig8 table2 fig4 newstructs trace | all]
//! ```
//!
//! Each experiment is the same code `cargo bench` runs (the bench targets
//! in `crates/bench/benches/`); this binary just makes targeted, scaled
//! runs convenient.

use std::process::Command;

fn main() {
    let mut scale = None;
    let mut policy = None;
    let mut figs: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--scale" => scale = args.next(),
            "--policy" => {
                let p = args.next().expect("--policy needs a value");
                nmp_sim::Policy::parse(&p).expect("--policy must be 'fixed' or 'adaptive'");
                policy = Some(p);
            }
            other => figs.push(other.to_string()),
        }
    }
    if figs.is_empty() || figs.iter().any(|f| f == "all") {
        figs = [
            "fig4",
            "fig5",
            "fig6",
            "fig7",
            "fig8",
            "table2",
            "ablations",
            "ycsbe",
            "newstructs",
            "trace",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
    }
    let bench_name = |f: &str| {
        match f {
        "fig4" => "fig4_blocking_trace",
        "fig5" => "fig5_skiplist_baseline",
        "fig6" => "fig6_btree_baseline",
        "fig7" => "fig7_skiplist_sensitivity",
        "fig8" | "fig9" => "fig8_btree_sensitivity",
        "table2" => "table2_offload_delays",
        "ablations" => "ablations",
        "ycsbe" | "ycsb_e" => "ycsb_e_scans",
        "newstructs" | "hashmap" | "pqueue" => "new_structures",
        // Not a bench target: the trace-report bin (cycle attribution +
        // Perfetto export); handled specially in the loop below.
        "trace" | "trace-report" => "trace",
        other => panic!(
            "unknown experiment '{other}' (fig4/fig5/fig6/fig7/fig8/fig9/table2/ablations/ycsbe/newstructs/trace)"
        ),
    }
    };
    for f in &figs {
        let mut cmd = Command::new(std::env::var("CARGO").unwrap_or_else(|_| "cargo".into()));
        let name = bench_name(f);
        if name == "trace" {
            cmd.args(["run", "--release", "-p", "hybrids-bench", "--bin", "trace-report"]);
        } else {
            cmd.args(["bench", "-p", "hybrids-bench", "--bench", name]);
        }
        if let Some(s) = &scale {
            cmd.env("HYBRIDS_SCALE", s);
        }
        if let Some(p) = &policy {
            cmd.env("HYBRIDS_POLICY", p);
        }
        eprintln!("== running {f} ==");
        let status = cmd.status().expect("failed to spawn cargo bench");
        assert!(status.success(), "experiment {f} failed");
    }
}
