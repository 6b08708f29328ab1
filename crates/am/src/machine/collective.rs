//! Collectives over rank main threads (threads or the simulator's
//! serialized collective).

use std::any::Any;

use super::AmCtx;

impl AmCtx {
    // ------------------------------------------------------------------
    // Collectives
    // ------------------------------------------------------------------

    /// All-reduce a `u64` across rank main threads: the one collective.
    /// Every barrier and vote — epoch entry and exit included — is a
    /// round of it, counted once in [`crate::StatsSnapshot::collectives`].
    pub fn all_reduce(&self, mine: u64, op: impl Fn(u64, u64) -> u64) -> u64 {
        debug_assert_eq!(self.thread, 0, "collectives involve rank main threads only");
        match &self.shared.sim {
            // Sim mode: condvar waits would block the OS thread while it
            // holds the scheduling token; the sim's serialized collective
            // parks cooperatively instead.
            Some(sim) => sim.all_reduce(&self.shared, self.rank, mine, op),
            None => self.shared.coll.all_reduce(mine, op),
        }
    }

    /// Barrier across all rank main threads.
    pub fn barrier(&self) {
        self.all_reduce(0, |a, b| a | b);
    }

    /// Global OR across rank main threads.
    pub fn any_rank(&self, mine: bool) -> bool {
        self.all_reduce(mine as u64, |a, b| a | b) != 0
    }

    /// Global sum across rank main threads, modulo 2⁶⁴: one wrapping
    /// definition on threads and under the simulator, so an overflowing
    /// sum neither panics in debug builds nor differs between machines.
    pub fn sum_ranks(&self, mine: u64) -> u64 {
        self.all_reduce(mine, u64::wrapping_add)
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

        // Idempotent clear: every take after this barrier precedes the
        // next round's construction, which sits behind that round's first
        // barrier, which this rank has not reached yet.
        self.shared.share_slot.lock().take();
        v
    }
}
