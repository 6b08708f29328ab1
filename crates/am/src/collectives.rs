//! The counted reduction behind every collective of a threaded machine.
//!
//! Strategies in the paper need coarse coordination outside the
//! message-driven data path: the `once` strategy returns "did *any* rank
//! modify a property map" (a global OR), epochs are entered and left
//! collectively, and the CC driver loops until a global fixed point. All
//! of them are one operation, an all-reduce, reached through
//! [`crate::AmCtx::all_reduce`] (which picks this condvar reduce on
//! threads and the simulator's serialized one under `run_sim`): every
//! rank contributes a value, the last arrival combines and publishes,
//! everyone reads the result.
//!
//! Rounds are naturally serialized: a rank cannot begin round *r + 1* until
//! round *r* has completed (its call blocks), so a single result slot is
//! race-free.
//!
//! ## Poisoning
//!
//! A participant that panics can never arrive, so a collective would wait
//! forever. [`Collective::poison`] marks the collective unusable and wakes
//! every waiter. [`Collective::try_all_reduce`] surfaces this as
//! [`Poisoned`]; [`Collective::all_reduce`] aborts the calling thread with
//! the machine's internal unwind sentinel, which the rank-level supervisor
//! in [`crate::machine`] recognizes as a *secondary* failure (the primary
//! [`crate::MachineError`] was recorded by whoever poisoned the machine).

use parking_lot::{Condvar, Mutex};

/// Error returned by [`Collective::try_all_reduce`]: another participant
/// failed and poisoned the collective, so this round can never complete.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Poisoned;

struct CollState {
    generation: u64,
    arrived: usize,
    acc: Option<u64>,
    result: u64,
    poisoned: bool,
}

/// A reusable counted reduction across a fixed set of participants.
pub struct Collective {
    participants: usize,
    state: Mutex<CollState>,
    cv: Condvar,
}

impl Collective {
    /// Create a collective for `participants` ranks.
    pub fn new(participants: usize) -> Self {
        assert!(participants >= 1);
        Collective {
            participants,
            state: Mutex::new(CollState {
                generation: 0,
                arrived: 0,
                acc: None,
                result: 0,
                poisoned: false,
            }),
            cv: Condvar::new(),
        }
    }

    /// All-reduce: every participant calls with its contribution and the
    /// same associative, commutative `op`; every participant returns the
    /// combined value. Blocks until all participants of this round arrive,
    /// or fails fast with [`Poisoned`] when a participant can never arrive.
    pub fn try_all_reduce(&self, mine: u64, op: impl Fn(u64, u64) -> u64) -> Result<u64, Poisoned> {
        let mut st = self.state.lock();
        if st.poisoned {
            return Err(Poisoned);
        }
        let my_gen = st.generation;
        let combined = match st.acc.take() {
            None => mine,
            Some(a) => op(a, mine),
        };
        st.arrived += 1;
        if st.arrived == self.participants {
            st.result = combined;
            st.arrived = 0;
            st.generation += 1;
            self.cv.notify_all();
        } else {
            st.acc = Some(combined);
            while st.generation == my_gen {
                self.cv.wait(&mut st);
                if st.poisoned {
                    return Err(Poisoned);
                }
            }
        }
        Ok(st.result)
    }

    /// [`try_all_reduce`](Self::try_all_reduce) that aborts the calling
    /// thread (controlled unwind, recognized by the machine's rank
    /// supervisor) instead of returning [`Poisoned`].
    pub fn all_reduce(&self, mine: u64, op: impl Fn(u64, u64) -> u64) -> u64 {
        match self.try_all_reduce(mine, op) {
            Ok(v) => v,
            Err(Poisoned) => std::panic::resume_unwind(Box::new(crate::error::Abort)),
        }
    }

    /// Mark the collective unusable and wake all waiters: called when a
    /// participant panics so the others fail fast instead of deadlocking.
    pub fn poison(&self) {
        let mut st = self.state.lock();
        st.poisoned = true;
        self.cv.notify_all();
    }

    /// Rounds completed so far: the last arrival of each round advances
    /// the generation before it releases anyone, so every participant
    /// that has returned from round *r* reads at least *r*.
    pub fn rounds(&self) -> u64 {
        self.state.lock().generation
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn with_threads(n: usize, f: impl Fn(usize, &Collective) + Send + Sync) {
        let coll = Arc::new(Collective::new(n));
        std::thread::scope(|s| {
            for r in 0..n {
                let coll = coll.clone();
                let f = &f;
                s.spawn(move || f(r, &coll));
            }
        });
    }

    #[test]
    fn sum_across_threads() {
        with_threads(8, |r, c| {
            assert_eq!(c.all_reduce(r as u64, u64::wrapping_add), 28);
        });
    }

    #[test]
    fn repeated_rounds_do_not_mix() {
        with_threads(4, |r, c| {
            for round in 0..100u64 {
                let got = c.all_reduce(round + r as u64, u64::wrapping_add);
                assert_eq!(got, 4 * round + 6);
            }
            assert!(c.rounds() >= 100);
        });
    }

    #[test]
    fn single_participant_is_identity() {
        let c = Collective::new(1);
        assert_eq!(c.all_reduce(41, u64::wrapping_add), 41);
        assert_eq!(c.rounds(), 1);
    }

    #[test]
    fn poison_wakes_waiters_with_error() {
        // 2 of 3 participants arrive; the third poisons instead. Both
        // waiters must return Err rather than hanging.
        let coll = Arc::new(Collective::new(3));
        std::thread::scope(|s| {
            for _ in 0..2 {
                let coll = coll.clone();
                s.spawn(move || {
                    assert_eq!(coll.try_all_reduce(1, |a, b| a + b), Err(Poisoned));
                });
            }
            let coll = coll.clone();
            s.spawn(move || {
                // Give the waiters a moment to block first.
                std::thread::sleep(std::time::Duration::from_millis(20));
                coll.poison();
            });
        });
        assert_eq!(coll.try_all_reduce(0, |a, b| a | b), Err(Poisoned));
    }

    #[test]
    fn poisoned_collective_rejects_new_rounds() {
        let c = Collective::new(2);
        c.poison();
        assert_eq!(c.try_all_reduce(1, |a, b| a + b), Err(Poisoned));
        assert_eq!(c.try_all_reduce(0, |a, b| a | b), Err(Poisoned));
    }
}
