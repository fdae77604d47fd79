//! YCSB-E range scans (extension — the paper evaluates point operations
//! only). Short scans (95%) with occasional inserts (5%) against the
//! B+ trees and skiplists.
//!
//! Expected shape: scans amortize one offload round trip over many
//! bottom-level reads executed close to memory, so the hybrid structures'
//! per-item cost drops well below the host-only/lock-free baselines' —
//! NMP turns from a latency play into a bandwidth play.

use workloads::{InsertDist, KeyDist, Mix, WorkloadSpec};

use crate::{Record, Results, Scale, Variant, SEED};

pub fn run(scale: &Scale) -> Results {
    // Scans are ~50x heavier than points.
    let scale = &Scale { ops_per_thread: scale.ops_per_thread.min(200), ..scale.clone() };
    let wl = WorkloadSpec {
        seed: SEED ^ 0xE5CA,
        threads: scale.cfg.host_cores as u32,
        ops_per_thread: scale.ops_per_thread,
        mix: Mix::ycsb_e(),
        read_dist: KeyDist::Zipfian,
        insert_dist: InsertDist::UniformGap,
    };
    println!("ycsb-e: 95% scans (1-100 items) / 5% inserts (scale = {})", scale.name);
    println!("{:<22} {:>12} {:>16}", "variant", "Mops/s", "DRAM reads/op");
    let mut records = Vec::new();
    let variants =
        [Variant::LockFree, Variant::HybridBlocking, Variant::HostOnly, Variant::HybridBtBlocking];
    for v in variants {
        let r = v.run(scale, wl);
        let (structure, label) = (v.structure(), v.label());
        println!("{structure:<8} {label:<13} {:>12.4} {:>16.2}", r.mops, r.dram_reads_per_op);
        records.push(Record::new("ycsb_e", scale, v, "YCSB-E", r));
    }
    records.into()
}
