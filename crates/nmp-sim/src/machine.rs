//! A [`Machine`] bundles the memory system with per-region allocators — the
//! substrate that data structures are built on. One machine serves both
//! engines: [`Machine::simulation`] runs deterministic, cycle-accounted
//! logical threads over its [`Ram`], [`Machine::native_run`] free-running OS
//! threads over the same words.

use std::sync::Arc;

use crate::alloc::Arena;
use crate::backend::Ram;
use crate::config::Config;
use crate::engine::{NativeRun, Simulation};
use crate::mem::{MemMap, MemorySystem};

/// The machine: memory system + allocators for every region.
pub struct Machine {
    mem: Arc<MemorySystem>,
    host_arena: Arena,
    part_arenas: Vec<Arena>,
}

impl Machine {
    /// Build a machine (memory system + arenas) for `cfg`.
    pub fn new(cfg: Config) -> Arc<Self> {
        let mem = Arc::new(MemorySystem::new(cfg));
        let map = *mem.map();
        let host_arena = Arena::new("host-heap", map.host_base, map.host_size);
        let part_arenas = (0..map.parts)
            .map(|p| Arena::new("nmp-partition", map.part_base(p), map.part_size))
            .collect();
        Arc::new(Machine { mem, host_arena, part_arenas })
    }

    /// Alias of [`Machine::new`], kept only because the frozen `benchmark/`
    /// package names it; the next `benchmark` PR drops it.
    pub fn new_native(cfg: Config) -> Arc<Self> {
        Self::new(cfg)
    }

    /// The machine's memory system (timed access plane).
    pub fn mem(&self) -> &Arc<MemorySystem> {
        &self.mem
    }

    /// Raw backing storage (untimed data plane, e.g. for population).
    pub fn ram(&self) -> &Ram {
        self.mem.ram()
    }

    /// The static address map of this machine.
    pub fn map(&self) -> &MemMap {
        self.mem.map()
    }

    /// The configuration the machine was built from.
    pub fn config(&self) -> &Config {
        self.mem.config()
    }

    /// Allocator for host main memory.
    pub fn host_arena(&self) -> &Arena {
        &self.host_arena
    }

    /// Allocator for NMP partition `p`.
    pub fn part_arena(&self, p: usize) -> &Arena {
        &self.part_arenas[p]
    }

    /// Number of NMP partitions.
    pub fn partitions(&self) -> usize {
        self.part_arenas.len()
    }

    /// Start building a simulation over this machine's memory.
    pub fn simulation(self: &Arc<Self>) -> Simulation {
        Simulation::with_memory(Arc::clone(&self.mem))
    }

    /// Start a native (real-thread) run over this machine's memory: no
    /// scheduler, no cycle accounting, hardware speed.
    pub fn native_run(self: &Arc<Self>) -> NativeRun {
        NativeRun::new(Arc::clone(&self.mem))
    }

    /// Attach the correctness checkers (race detector, spec conformance)
    /// to this machine and return them.
    /// Idempotent: a second call returns the already-attached instance.
    /// Once attached, every timed memory access in every subsequent
    /// simulation over this machine is observed.
    pub fn attach_analysis(&self) -> Arc<crate::analysis::Analysis> {
        if let Some(a) = self.mem.analysis() {
            return Arc::clone(a);
        }
        let a = crate::analysis::Analysis::new(*self.map());
        self.mem.attach_analysis(Arc::clone(&a));
        // `mem` may have raced another attach; wire the winning instance
        // into the arenas so `free` resets the right detector.
        let a = Arc::clone(self.mem.analysis().expect("just attached"));
        self.host_arena.attach_analysis(Arc::clone(&a));
        for arena in &self.part_arenas {
            arena.attach_analysis(Arc::clone(&a));
        }
        a
    }

    /// Attach the cycle-level event tracer (see [`crate::trace`]) to this
    /// machine and return it. Idempotent: a second call returns the
    /// already-attached instance. Once attached, every subsequent simulation
    /// over this machine records op-lifecycle spans and memory events —
    /// untimed, so simulated cycle counts are unchanged.
    pub fn attach_tracer(&self) -> Arc<crate::trace::Tracer> {
        if let Some(t) = self.mem.tracer() {
            return Arc::clone(t);
        }
        let t = Arc::new(crate::trace::Tracer::new(self.config().trace_buffer_events));
        self.mem.attach_tracer(t);
        // `mem` may have raced another attach; return the winning instance.
        Arc::clone(self.mem.tracer().expect("just attached"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ThreadKind;
    use crate::mem::Region;

    #[test]
    fn arenas_allocate_in_their_regions() {
        let m = Machine::new(Config::tiny());
        let h = m.host_arena().alloc(64);
        let p0 = m.part_arena(0).alloc(64);
        let p1 = m.part_arena(1).alloc(64);
        assert_eq!(m.map().region_of(h), Region::Host);
        assert_eq!(m.map().region_of(p0), Region::Part(0));
        assert_eq!(m.map().region_of(p1), Region::Part(1));
    }

    #[test]
    fn simulation_shares_machine_memory() {
        let m = Machine::new(Config::tiny());
        let addr = m.host_arena().alloc(8);
        m.ram().write_u64(addr, 123); // untimed population
        let mut sim = m.simulation();
        sim.spawn("t", ThreadKind::Host { core: 0 }, move |ctx| {
            assert_eq!(ctx.read_u64(addr), 123);
        });
        sim.run();
    }

    #[test]
    fn two_simulations_can_reuse_one_machine() {
        let m = Machine::new(Config::tiny());
        let addr = m.host_arena().alloc(8);
        for round in 1..=2u64 {
            let mut sim = m.simulation();
            sim.spawn("t", ThreadKind::Host { core: 0 }, move |ctx| {
                let v = ctx.read_u64(addr);
                ctx.write_u64(addr, v + round);
            });
            sim.run();
        }
        assert_eq!(m.ram().read_u64(addr), 3);
    }
}
