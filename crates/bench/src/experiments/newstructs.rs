//! New hybrid structures on the shared offload runtime (§6.3 extension):
//! the hash map (host-resident bucket directory, NMP-managed chains) and
//! the priority queue (host-merged partition minima, NMP-managed sorted
//! runs), each in blocking and 4-deep pipelined modes.
//!
//! Expected shape: the hash map's host phase is a single LLC-resident
//! directory read, so nearly all of its DRAM traffic is NMP-side chain
//! walking — the most offload-friendly structure in the suite. The
//! priority queue's extract-min adds a host-side merge over the cached
//! partition minima; pipelining overlaps the combiner round trips of
//! independent inserts.

use workloads::KeyDist;

use crate::{hashmap_workload, pqueue_workload, Record, Results, Scale, Variant};

pub fn run(scale: &Scale) -> Results {
    println!("new structures: hybrid hash map + hybrid pqueue (scale = {})", scale.name);
    println!(
        "{:<10} {:<22} {:<16} {:>10} {:>14} {:>10}",
        "structure", "variant", "workload", "Mops/s", "DRAM reads/op", "posted"
    );
    let mut records = Vec::new();
    let hashmap = [(KeyDist::Uniform, "-uni"), (KeyDist::Zipfian, "-zipf")].map(|(dist, tag)| {
        let wl = hashmap_workload(scale, dist);
        (wl.mix.label() + tag, wl)
    });
    let pqueue = [50u8, 80].map(|insert_pct| {
        let wl = pqueue_workload(scale, insert_pct);
        (wl.mix.label(), wl)
    });
    for (structure, variants, workloads) in [
        ("hashmap", [Variant::HashMapBlocking, Variant::HashMapNonblocking(4)], hashmap),
        ("pqueue", [Variant::PqueueBlocking, Variant::PqueueNonblocking(4)], pqueue),
    ] {
        for v in variants {
            for (label, wl) in &workloads {
                let r = v.run(scale, *wl);
                println!(
                    "{:<10} {:<22} {:<16} {:>10.4} {:>14.2} {:>10}",
                    structure,
                    v.label(),
                    label,
                    r.mops,
                    r.dram_reads_per_op,
                    r.offload_posted
                );
                records.push(Record::new("new_structures", scale, v, label, r));
            }
        }
    }
    records.into()
}
