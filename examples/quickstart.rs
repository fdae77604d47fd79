//! Quickstart: build a simulated NMP machine, populate a hybrid skiplist,
//! and run a few operations from concurrent host threads.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use std::sync::Arc;

use hybrids_repro::prelude::*;

fn main() {
    // A small machine: 4 host cores, 2 NMP partitions (see Config::paper()
    // for the full Table 1 machine).
    let cfg = Config::tiny();
    println!(
        "machine: {} host cores, {} NMP partitions, {} kB LLC",
        cfg.host_cores,
        cfg.nmp_partitions(),
        cfg.l2.size_bytes / 1024
    );
    let machine = Machine::new(cfg);

    // 1024 initial keys over 2 partitions, with tail headroom for inserts.
    let ks = KeySpace::new(1024, 2, 256);

    // Hybrid skiplist: 11 total levels, bottom 5 NMP-managed.
    let index = HybridSkipList::new(Arc::clone(&machine), ks, 11, 5, 42, 4);
    index.populate((0..ks.total_initial()).map(|i| (ks.initial_key(i), i * 10)));
    println!(
        "hybrid skiplist: {} keys, {} total levels ({} host / {} NMP), host portion {} B",
        ks.total_initial(),
        index.total_levels(),
        index.host_levels(),
        index.nmp_height(),
        index.host_bytes()
    );

    // Run concurrent operations inside the simulator.
    let mut sim = machine.simulation();
    index.spawn_services(&mut sim); // one flat-combining NMP core per partition
    for core in 0..4usize {
        let index = Arc::clone(&index);
        sim.spawn(format!("host-{core}"), ThreadKind::Host { core }, move |ctx| {
            let base = core as u32 * 100;
            for i in 0..50u32 {
                let key = ks.initial_key((base + i * 7) % ks.total_initial());
                match i % 3 {
                    0 => {
                        let r = index.execute(ctx, Op::Read(key));
                        assert!(r.ok);
                    }
                    1 => {
                        let _ = index.execute(ctx, Op::Update(key, i));
                    }
                    _ => {
                        // Gap key: a fresh insert between existing keys.
                        let _ = index.execute(ctx, Op::Insert(key + 1 + core as u32, i));
                    }
                }
            }
        });
    }
    let outcome = sim.run();

    let stats = machine.mem().snapshot();
    println!("\nsimulated {} cycles (4 host threads)", outcome.makespan());
    println!("  L1 hit rate: {:.1}%", stats.l1.hit_rate() * 100.0);
    println!("  L2 hit rate: {:.1}%", stats.l2.hit_rate() * 100.0);
    println!(
        "  DRAM reads: {} (host {}, NMP {})",
        stats.dram_reads(),
        stats.host_dram_reads(),
        stats.nmp_dram_reads()
    );
    println!("  MMIO (publication list) ops: {}", stats.mmio_reads + stats.mmio_writes);

    index.check_invariants();
    println!("\ninvariants OK; {} live keys", index.collect().len());
}
