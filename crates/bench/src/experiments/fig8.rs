//! Figures 8 & 9 — B+ tree sensitivity to concurrent modifications.
//!
//! Mixes `X-Y-Z` with uniform read/remove keys and **split-heavy** insert
//! keys targeted at the last leaf of each NMP partition (maximum node
//! splits), plus the *50-25-25 fully uniform* workload whose inserts are
//! spread over all leaves and incur no splits (§5.2). In-order host cores.
//!
//! Fig. 8 reports throughput normalized to *host-only* at 100-0-0;
//! Fig. 9 reports memory reads per operation for the same runs.
//!
//! Paper shape targets: hybrid-blocking stays within ~10% of its read-only
//! throughput and ≈93.5% of host-only at 50-25-25; host-only *gains* a few
//! percent with split-heavy inserts (targeted leaves stay cached) and loses
//! ~6% on fully-uniform; hybrid-nonblocking4 ≈ 1.5× host-only everywhere.

use workloads::{InsertDist, Mix};

use super::result_of;
use crate::{sensitivity, Record, Results, Scale, Variant};

pub fn run(scale: &Scale) -> Results {
    let scale = &scale.clone().in_order();
    let variants = [Variant::HostOnly, Variant::HybridBtBlocking, Variant::HybridBtNonblocking(4)];
    let mut records = Vec::new();
    println!("fig8/fig9: B+ tree sensitivity (scale = {}, in-order hosts)", scale.name);
    println!("{:<22} {:>18} {:>12} {:>14}", "variant", "workload", "Mops/s", "mem reads/op");
    let mut workloads_list: Vec<(String, Mix, InsertDist)> = Mix::sensitivity_suite()
        .into_iter()
        .map(|m| (m.label(), m, InsertDist::PartitionTail))
        .collect();
    workloads_list.push((
        "50-25-25-uniform".into(),
        Mix::read_insert_remove(50, 25, 25),
        InsertDist::UniformGap,
    ));
    for (label, mix, dist) in &workloads_list {
        for v in variants {
            let r = v.run(scale, sensitivity(scale, *mix, *dist));
            println!(
                "{:<22} {:>18} {:>12.4} {:>14.2}",
                v.label(),
                label,
                r.mops,
                r.dram_reads_per_op
            );
            records.push(Record::new("fig8", scale, v, label, r));
        }
    }
    let get = |v: &str, m: &str| result_of(&records, |r| r.variant == v && r.workload == m).mops;
    let base = get("host-only", "100-0-0");
    println!("\nfig8: normalized throughput (host-only @ 100-0-0 = 1.00):");
    for r in &records {
        println!("  {:<22} {:>18}  {:.3}", r.variant, r.workload, r.result.mops / base);
    }
    println!("\nfig9: memory reads per operation:");
    for r in &records {
        println!("  {:<22} {:>18}  {:.2}", r.variant, r.workload, r.result.dram_reads_per_op);
    }
    println!("\nheadline shapes:");
    println!(
        "  hybrid-blocking @50-25-25 vs own read-only: {:.1}% (paper ~90%)",
        get("hybrid-blocking", "50-25-25") / get("hybrid-blocking", "100-0-0") * 100.0
    );
    println!(
        "  hybrid-blocking / host-only @50-25-25:      {:.2}x (paper ~0.935x)",
        get("hybrid-blocking", "50-25-25") / get("host-only", "50-25-25")
    );
    println!(
        "  hybrid-nonblocking4 / host-only @50-25-25:  {:.2}x (paper ~1.46x)",
        get("hybrid-nonblocking4", "50-25-25") / get("host-only", "50-25-25")
    );
    println!(
        "  hybrid-nonblocking4 / host-only @50-25-25-uniform: {:.2}x (paper ~1.60x)",
        get("hybrid-nonblocking4", "50-25-25-uniform") / get("host-only", "50-25-25-uniform")
    );
    records.into()
}
