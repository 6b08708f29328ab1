//! Collectives over rank main threads (threads or the simulator's
//! serialized collective).

use std::any::Any;

use super::AmCtx;

impl AmCtx {
    // ------------------------------------------------------------------
    // Collectives
    // ------------------------------------------------------------------

    /// Barrier across all rank main threads.
    pub fn barrier(&self) {
        debug_assert_eq!(self.thread, 0, "collectives involve rank main threads only");
        match &self.shared.sim {
            // Sim mode: condvar waits would block the OS thread while it
            // holds the scheduling token; the sim's serialized collective
            // parks cooperatively instead.
            Some(sim) => {
                sim.all_reduce(&self.shared, self.rank, 0, |a, b| a | b);
            }
            None => self.shared.coll.barrier(),
        }
    }

    /// All-reduce a `u64` across rank main threads.
    pub fn all_reduce(&self, mine: u64, op: impl Fn(u64, u64) -> u64) -> u64 {
        debug_assert_eq!(self.thread, 0, "collectives involve rank main threads only");
        match &self.shared.sim {
            Some(sim) => sim.all_reduce(&self.shared, self.rank, mine, op),
            None => self.shared.coll.all_reduce(mine, op),
        }
    }

    /// Global OR across rank main threads.
    pub fn any_rank(&self, mine: bool) -> bool {
        debug_assert_eq!(self.thread, 0, "collectives involve rank main threads only");
        match &self.shared.sim {
            Some(sim) => sim.all_reduce(&self.shared, self.rank, mine as u64, |a, b| a | b) != 0,
            None => self.shared.coll.any(mine),
        }
    }

    /// Global sum across rank main threads.
    pub fn sum_ranks(&self, mine: u64) -> u64 {
        debug_assert_eq!(self.thread, 0, "collectives involve rank main threads only");
        match &self.shared.sim {
            Some(sim) => sim.all_reduce(&self.shared, self.rank, mine, |a, b| a.wrapping_add(b)),
            None => self.shared.coll.sum(mine),
        }
    }

    /// Collectively construct one shared value: the first rank to arrive
    /// runs `make`, every rank receives a clone. The in-process stand-in
    /// for "rank 0 builds + broadcasts" — used to create machine-wide
    /// structures (property maps, graphs) from inside the SPMD program.
    /// Every rank must call with the same type at the same point.
    pub fn share<T: Clone + Send + 'static>(&self, make: impl FnOnce() -> T) -> T {
        debug_assert_eq!(self.thread, 0, "collectives involve rank main threads only");
        self.barrier(); // round aligned: previous share fully cleared
        let v = {
            let mut slot = self.shared.share_slot.lock();
            if slot.is_none() {
                *slot = Some(Box::new(make()) as Box<dyn Any + Send>);
            }
            match slot.as_ref().and_then(|s| s.downcast_ref::<T>()) {
                Some(v) => v.clone(),
                None => panic!("all ranks must share the same type per round"),
            }
        };
        self.barrier(); // all ranks cloned
                        // Idempotent clear; every take after this barrier precedes any
                        // construction of the next round (which sits behind its own entry
                        // barrier that this rank has not reached yet).
        self.shared.share_slot.lock().take();
        v
    }
}
