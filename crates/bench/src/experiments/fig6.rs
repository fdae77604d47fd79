//! Figure 6 — B+ tree baseline evaluation with YCSB-C.
//!
//! (a) operation throughput vs. host thread count for *host-only*,
//!     *hybrid-blocking*, *hybrid-nonblocking4*;
//! (b) average DRAM reads per operation.
//!
//! Paper shape targets (at 8 threads): hybrid-blocking ≈ +18% over
//! host-only; hybrid-nonblocking4 ≈ 2.11× host-only; DRAM reads/op
//! host-only ≈ 9 vs hybrid ≈ 3.

use super::result_of;
use crate::{ycsb_c, Record, Results, Scale, Variant};

pub fn run(scale: &Scale) -> Results {
    let threads = scale.thread_sweep();
    let variants = [Variant::HostOnly, Variant::HybridBtBlocking, Variant::HybridBtNonblocking(4)];
    let mut records = Vec::new();
    println!("fig6: B+ tree YCSB-C baseline (scale = {})", scale.name);
    println!("{:<22} {:>7} {:>12} {:>14}", "variant", "threads", "Mops/s", "DRAM reads/op");
    for &t in &threads {
        for v in variants {
            let r = v.run(scale, ycsb_c(scale, t));
            println!("{:<22} {:>7} {:>12.4} {:>14.2}", v.label(), t, r.mops, r.dram_reads_per_op);
            records.push(Record::new("fig6", scale, v, "YCSB-C", r));
        }
    }
    let last = *threads.last().expect("every scale has at least one host core");
    let at = |v: &str| result_of(&records, |r| r.variant == v && r.result.threads == last);
    let host = at("host-only");
    let hb = at("hybrid-blocking");
    let hn4 = at("hybrid-nonblocking4");
    println!("\nheadline ratios at {last} threads:");
    println!("  hybrid-blocking / host-only     = {:.2}x  (paper ~1.18x)", hb.mops / host.mops);
    println!("  hybrid-nonblocking4 / host-only = {:.2}x  (paper ~2.11x)", hn4.mops / host.mops);
    println!(
        "  DRAM reads/op: host-only {:.1}, hybrid {:.1} (paper ~9 / ~3)",
        host.dram_reads_per_op, hb.dram_reads_per_op
    );
    records.into()
}
