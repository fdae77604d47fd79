//! Figure 5 — skiplist baseline evaluation with YCSB-C.
//!
//! (a) operation throughput vs. host thread count for *lock-free*,
//!     *NMP-based*, *hybrid-blocking*, *hybrid-nonblocking2/4*;
//! (b) average DRAM reads per operation for the same variants.
//!
//! Paper shape targets (at 8 threads): hybrid-blocking ≈ +99% over
//! NMP-based and ≈ +46% over lock-free; hybrid-nonblocking4 ≈ 2.46× the
//! lock-free throughput. DRAM reads/op: NMP-based > lock-free > hybrid
//! (paper: ≈60 / 36 / 24).

use super::result_of;
use crate::{ycsb_c, Record, Results, Scale, Variant};

pub fn run(scale: &Scale) -> Results {
    let threads = scale.thread_sweep();
    let variants = [
        Variant::LockFree,
        Variant::NmpBased,
        Variant::HybridBlocking,
        Variant::HybridNonblocking(2),
        Variant::HybridNonblocking(4),
    ];
    let mut records = Vec::new();
    println!("fig5: skiplist YCSB-C baseline (scale = {})", scale.name);
    println!("{:<22} {:>7} {:>12} {:>14}", "variant", "threads", "Mops/s", "DRAM reads/op");
    for &t in &threads {
        for v in variants {
            let r = v.run(scale, ycsb_c(scale, t));
            println!("{:<22} {:>7} {:>12.4} {:>14.2}", v.label(), t, r.mops, r.dram_reads_per_op);
            records.push(Record::new("fig5", scale, v, "YCSB-C", r));
        }
    }
    // Fig 5a headline ratios at max threads.
    let last = *threads.last().expect("every scale has at least one host core");
    let at = |v: &str| result_of(&records, |r| r.variant == v && r.result.threads == last);
    let lf = at("lock-free").mops;
    let nmp = at("NMP-based").mops;
    let hb = at("hybrid-blocking").mops;
    let hn4 = at("hybrid-nonblocking4").mops;
    println!("\nheadline ratios at {last} threads:");
    println!("  hybrid-blocking / NMP-based     = {:.2}x  (paper ~1.99x)", hb / nmp);
    println!("  hybrid-blocking / lock-free     = {:.2}x  (paper ~1.46x)", hb / lf);
    println!("  hybrid-nonblocking4 / lock-free = {:.2}x  (paper ~2.46x)", hn4 / lf);
    println!(
        "  DRAM reads/op: lock-free {:.1}, NMP-based {:.1}, hybrid {:.1} (paper 36 / ~60 / 24)",
        at("lock-free").dram_reads_per_op,
        at("NMP-based").dram_reads_per_op,
        at("hybrid-blocking").dram_reads_per_op
    );
    records.into()
}
