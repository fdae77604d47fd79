//! Figure 7 — skiplist sensitivity to concurrent modifications.
//!
//! Workloads `X-Y-Z` (read-insert-remove percentages) with uniform key
//! distribution, all host threads, in-order host cores (§5.2). Throughputs
//! are normalized to *lock-free* at 100-0-0.
//!
//! Paper shape targets: modifications hurt every variant but hurt the
//! hybrids least (lock-free retains 80% of its read-only throughput at
//! 50-25-25; hybrid-blocking 90%; hybrid-nonblocking4 93%), and at
//! 50-25-25 the hybrids reach ≈1.61× / ≈3.12× lock-free.

use workloads::{InsertDist, Mix};

use super::result_of;
use crate::{sensitivity, Record, Results, Scale, Variant};

pub fn run(scale: &Scale) -> Results {
    let scale = &scale.clone().in_order();
    let variants = [Variant::LockFree, Variant::HybridBlocking, Variant::HybridNonblocking(4)];
    let mut records = Vec::new();
    println!("fig7: skiplist sensitivity (scale = {}, in-order hosts)", scale.name);
    println!("{:<22} {:>10} {:>12} {:>14}", "variant", "mix", "Mops/s", "DRAM reads/op");
    for mix in Mix::sensitivity_suite() {
        for v in variants {
            let r = v.run(scale, sensitivity(scale, mix, InsertDist::UniformGap));
            println!(
                "{:<22} {:>10} {:>12.4} {:>14.2}",
                v.label(),
                mix.label(),
                r.mops,
                r.dram_reads_per_op
            );
            records.push(Record::new("fig7", scale, v, &mix.label(), r));
        }
    }
    let get = |v: &str, m: &str| result_of(&records, |r| r.variant == v && r.workload == m).mops;
    let base = get("lock-free", "100-0-0");
    println!("\nnormalized throughput (lock-free @ 100-0-0 = 1.00):");
    for r in &records {
        println!("  {:<22} {:>10}  {:.3}", r.variant, r.workload, r.result.mops / base);
    }
    println!("\nretention at 50-25-25 vs own 100-0-0 (paper: 80% / 90% / 93%):");
    for v in ["lock-free", "hybrid-blocking", "hybrid-nonblocking4"] {
        println!("  {v:<22} {:.1}%", get(v, "50-25-25") / get(v, "100-0-0") * 100.0);
    }
    println!("\nratios vs lock-free at 50-25-25 (paper: 1.61x / 3.12x):");
    println!(
        "  hybrid-blocking     {:.2}x",
        get("hybrid-blocking", "50-25-25") / get("lock-free", "50-25-25")
    );
    println!(
        "  hybrid-nonblocking4 {:.2}x",
        get("hybrid-nonblocking4", "50-25-25") / get("lock-free", "50-25-25")
    );
    records.into()
}
