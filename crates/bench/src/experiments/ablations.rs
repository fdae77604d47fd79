//! Ablations of the design choices DESIGN.md calls out, plus the skew
//! study the paper sketches as future work (§7).
//!
//! 1. **Skew sweep** — zipfian θ ∈ {0, .5, .9, .99} on the skiplist:
//!    reproduces the paper's §7 observation that highly skewed workloads
//!    favor conventional cache-resident structures, eroding (and eventually
//!    crossing over) the hybrid's advantage.
//! 2. **Split-point sweep** — moving the hybrid skiplist's host-NMP split
//!    around the LLC-derived optimum of §3.3.
//! 3. **Off-chip link sweep** — the hybrid's edge as a function of the
//!    host↔memory serial-link latency that NMP cores avoid.
//! 4. **Node-layout ablation** — the lock-free baseline with conventional
//!    (packed, full-height-array) nodes vs the cache-aligned layout.

use std::sync::Arc;

use hybrids::driver::{run_index, RunSpec};
use hybrids::skiplist::{hybrid::split_for, lockfree::NodeLayout, HybridSkipList};
use nmp_sim::Machine;
use workloads::{InsertDist, KeyDist, WorkloadSpec};

use crate::{initial_pairs, lockfree_skiplist, ycsb_c, Results, Scale, Variant, SEED};

fn zipf_workload(scale: &Scale, theta_x100: u32) -> WorkloadSpec {
    WorkloadSpec {
        seed: SEED ^ theta_x100 as u64,
        threads: scale.cfg.host_cores as u32,
        ops_per_thread: scale.ops_per_thread,
        mix: workloads::Mix::ycsb_c(),
        read_dist: if theta_x100 == 0 {
            KeyDist::Uniform
        } else {
            KeyDist::ZipfianTheta { theta_x100 }
        },
        insert_dist: InsertDist::UniformGap,
    }
}

/// YCSB-C on all host cores, for the two sweeps that build their structure
/// by hand because the swept parameter is one [`Variant::run`] derives.
fn spec(scale: &Scale, inflight: usize) -> RunSpec {
    RunSpec::new(ycsb_c(scale, scale.cfg.host_cores as u32), scale.warmup_per_thread, inflight)
}

fn skew_sweep(scale: &Scale) {
    println!("\n== ablation 1: workload skew (paper §7's limitation) ==");
    println!(
        "{:<8} {:>18} {:>22} {:>8}",
        "theta", "lock-free Mops/s", "hybrid-nb4 Mops/s", "ratio"
    );
    for theta in [0u32, 50, 90, 99] {
        let wl = zipf_workload(scale, theta);
        let lf = Variant::LockFree.run(scale, wl);
        let hy = Variant::HybridNonblocking(4).run(scale, wl);
        println!(
            "{:<8} {:>18.4} {:>22.4} {:>8.2}",
            theta as f64 / 100.0,
            lf.mops,
            hy.mops,
            hy.mops / lf.mops
        );
    }
    println!("(expect the ratio to shrink as skew grows: hot paths fit the host cache)");
}

fn split_sweep(scale: &Scale) {
    println!("\n== ablation 2: host-NMP split point (hybrid skiplist) ==");
    let ks = scale.skiplist_keyspace();
    let (total, nh_star) = split_for(ks.total_initial() as u64, scale.cfg.l2.size_bytes as u64);
    println!("LLC-derived optimum: nmp_height = {nh_star} of {total} levels");
    println!("{:<12} {:>14} {:>16} {:>16}", "nmp_height", "Mops/s", "DRAM reads/op", "host bytes");
    for delta in [-2i32, -1, 0, 1, 2] {
        let nh = (nh_star as i32 + delta).clamp(1, total as i32 - 1) as u32;
        let machine = Machine::new(scale.cfg.clone());
        let sl = HybridSkipList::new(Arc::clone(&machine), ks, total, nh, SEED, 4);
        sl.populate(initial_pairs(&ks));
        let r = run_index(&machine, &sl, &ks, &spec(scale, 4));
        println!(
            "{:<12} {:>14.4} {:>16.2} {:>16}",
            format!("{nh}{}", if nh == nh_star { " (*)" } else { "" }),
            r.mops,
            r.dram_reads_per_op,
            sl.host_bytes()
        );
    }
    println!("(trade-off: each level moved to the host costs LLC capacity but removes");
    println!(" ~3 NMP reads/op; with deep pipelining the NMP core is the bottleneck, so");
    println!(" smaller NMP portions keep winning until the host portion overflows memory.");
    println!(" The LLC-derived split (*) is the paper's cache-residency optimum, which");
    println!(" matters most for blocking calls and pollution-heavy co-running workloads)");
}

fn link_sweep(scale: &Scale) {
    println!("\n== ablation 3: off-chip host link latency ==");
    println!(
        "{:<12} {:>18} {:>22} {:>8}",
        "link (ns)", "lock-free Mops/s", "hybrid-nb4 Mops/s", "ratio"
    );
    for link_ns in [0.0, 8.0, 16.0, 32.0] {
        let mut s = scale.clone();
        s.cfg.host_link_ns = link_ns;
        let wl = ycsb_c(&s, s.cfg.host_cores as u32);
        let lf = Variant::LockFree.run(&s, wl);
        let hy = Variant::HybridNonblocking(4).run(&s, wl);
        println!("{:<12} {:>18.4} {:>22.4} {:>8.2}", link_ns, lf.mops, hy.mops, hy.mops / lf.mops);
    }
    println!("(the NMP advantage is precisely the traffic that skips this link)");
}

fn layout_ablation(scale: &Scale) {
    println!("\n== ablation 4: lock-free baseline node layout ==");
    let ks = scale.skiplist_keyspace();
    println!("{:<16} {:>14} {:>16}", "layout", "Mops/s", "DRAM reads/op");
    for (name, layout) in
        [("packed", NodeLayout::Packed), ("cache-aligned", NodeLayout::CacheAligned)]
    {
        let machine = Machine::new(scale.cfg.clone());
        let r = run_index(&machine, &lockfree_skiplist(&machine, ks, layout), &ks, &spec(scale, 1));
        println!("{:<16} {:>14.4} {:>16.2}", name, r.mops, r.dram_reads_per_op);
    }
    println!("(the paper's baseline uses the conventional packed layout; the aligned");
    println!(" variant shows how much of the hybrid's edge is pure node layout)");
}

pub fn run(scale: &Scale) -> Results {
    // Ablations are extensions: keep them cheap.
    let scale = &Scale { ops_per_thread: scale.ops_per_thread.min(300), ..scale.clone() };
    println!("ablations (scale = {})", scale.name);
    skew_sweep(scale);
    split_sweep(scale);
    link_sweep(scale);
    layout_ablation(scale);
    Results::default()
}
