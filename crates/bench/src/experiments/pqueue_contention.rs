//! Priority-queue minima-cache contention sweep: zipf θ × host threads.
//!
//! The hybrid pqueue caches each partition's minimum in a host-side sync
//! cell; extract-min merges over the cache and only probes a partition's
//! NMP run when its cell claims a candidate. Under skewed insertion
//! (zipfian-gap keys pile onto the top partition) with a net-draining mix
//! (40 % insert / 60 % extract) over a deliberately tiny queue
//! ([`pqueue_contention_keyspace`]: 16 initial keys/partition), the low
//! partitions drain empty, their cached minima go stale, and extract-min
//! burns round trips on stale-empty probes — `pq_stale_probes` in the
//! results files. Sweeping θ at several thread counts charts how skew and
//! concurrency compound: more threads drain faster than the cache
//! refreshes, and higher θ starves more partitions.

use nmp_sim::Machine;

use crate::{pqueue_contention_keyspace, pqueue_skewed_workload, Record, Results, Scale, Variant};

pub fn run(scale: &Scale) -> Results {
    // θ must stay inside the YCSB generator's domain [0, 1).
    let thetas: &[u32] = &[10, 50, 90, 99];
    let threads = scale.thread_sweep();
    println!("pqueue minima-cache contention sweep (scale = {})", scale.name);
    println!(
        "{:<8} {:>8} {:<16} {:>10} {:>12} {:>12}",
        "theta", "threads", "variant", "Mops/s", "stale", "stale/op"
    );
    let mut records = Vec::new();
    for v in [Variant::PqueueBlocking, Variant::PqueueNonblocking(4)] {
        for &theta_x100 in thetas {
            for &t in &threads {
                let wl = pqueue_skewed_workload(scale, 40, theta_x100, t);
                let machine = Machine::new(scale.cfg.clone());
                let r = v.run_on(&machine, scale, pqueue_contention_keyspace(scale), wl);
                let stale = r.stats.offload.pq_stale_total();
                let label = format!("{}-th{:.2}-t{}", wl.mix.label(), theta_x100 as f64 / 100.0, t);
                println!(
                    "{:<8.2} {:>8} {:<16} {:>10.4} {:>12} {:>12.3}",
                    theta_x100 as f64 / 100.0,
                    t,
                    v.label(),
                    r.mops,
                    stale,
                    stale as f64 / r.measured_ops.max(1) as f64,
                );
                records.push(Record::new("pqueue_contention", scale, v, &label, r));
            }
        }
    }
    records.into()
}
