//! A [`Machine`] bundles the simulated memory system with per-region
//! allocators — the substrate that data structures are built on.

use std::sync::Arc;

use crate::alloc::Arena;
use crate::backend::{BackendKind, MemBackend};
use crate::config::Config;
use crate::engine::{NativeRun, Simulation};
use crate::mem::{MemMap, MemorySystem};

/// The simulated machine: memory system + allocators for every region.
pub struct Machine {
    mem: Arc<MemorySystem>,
    host_arena: Arena,
    part_arenas: Vec<Arena>,
}

impl Machine {
    /// Build a machine (memory system + arenas) for `cfg` on the
    /// cycle-accurate simulated backend.
    pub fn new(cfg: Config) -> Arc<Self> {
        let mem = Arc::new(MemorySystem::new(cfg));
        Arc::new(Self::from_memory(mem))
    }

    /// Build a machine for `cfg` on the native backend: same address map
    /// and arenas, but the data plane is real memory with real atomics and
    /// threads run through [`Machine::native_run`] at hardware speed with
    /// no cycle accounting.
    pub fn new_native(cfg: Config) -> Arc<Self> {
        let mem = Arc::new(MemorySystem::new_with_backend(cfg, BackendKind::Native));
        Arc::new(Self::from_memory(mem))
    }

    fn from_memory(mem: Arc<MemorySystem>) -> Machine {
        let map = *mem.map();
        let host_arena = Arena::new("host-heap", map.host_base, map.host_size);
        let part_arenas = (0..map.parts)
            .map(|p| Arena::new("nmp-partition", map.part_base(p), map.part_size))
            .collect();
        Machine { mem, host_arena, part_arenas }
    }

    /// The machine's memory system (timed access plane).
    pub fn mem(&self) -> &Arc<MemorySystem> {
        &self.mem
    }

    /// Raw backing storage (untimed data plane, e.g. for population).
    pub fn ram(&self) -> &dyn MemBackend {
        self.mem.ram()
    }

    /// Which data-plane substrate this machine is built on.
    pub fn backend_kind(&self) -> BackendKind {
        self.mem.backend_kind()
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

    /// Start building a simulation over this machine's memory. Requires
    /// the simulated backend: cycle accounting over native memory would be
    /// meaningless (and the determinism argument would not hold).
    pub fn simulation(self: &Arc<Self>) -> Simulation {
        assert_eq!(
            self.backend_kind(),
            BackendKind::Sim,
            "simulations need a simulated-backend machine (Machine::new); \
             use Machine::native_run on a native machine"
        );
        Simulation::with_memory(Arc::clone(&self.mem))
    }

    /// Start a native (real-thread) run over this machine's memory.
    /// Requires the native backend: real concurrent threads need the real
    /// atomic orderings `NativeRam` provides.
    pub fn native_run(self: &Arc<Self>) -> NativeRun {
        NativeRun::new(Arc::clone(&self.mem))
    }

    /// Attach the correctness checkers (race detector, region-policy lint)
    /// to this machine and return them. Idempotent: a second call returns
    /// the already-attached instance. Once attached, every timed memory
    /// access in every subsequent simulation over this machine is traced,
    /// and region-policy violations are recorded instead of panicking.
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
