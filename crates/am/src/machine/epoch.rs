//! Epochs and their termination: `epoch`/`epoch_reduce`, `epoch_flush`,
//! `try_finish`, the drain/flush loop every idle path runs through, the
//! epoch-deadline watchdog, and the one termination-detection step both
//! `try_finish` and epoch exit run (see [`crate::termination`]).

use std::sync::atomic::Ordering::SeqCst;
use std::time::Instant;

use super::shared::NOT_IDLE;
use super::{AmCtx, RankId};
use crate::error::{Abort, MachineError};
use crate::obs::{SpanGuard, SpanKind};
use crate::stats::MachineStats;

impl AmCtx {
    // ------------------------------------------------------------------
    // Epochs
    // ------------------------------------------------------------------

    /// Run `f` inside an epoch. Collective: every rank must call `epoch`
    /// the same number of times. Returns only when every message sent by
    /// any rank inside this epoch (transitively, including handler sends)
    /// has been handled. Two collective rounds: the entry barrier and the
    /// exit; [`epoch_reduce`](Self::epoch_reduce) with a constant vote.
    pub fn epoch<R>(&self, f: impl FnOnce(&AmCtx) -> R) -> R {
        self.epoch_reduce(f, || 0, |a, b| a | b).0
    }

    /// [`epoch`](Self::epoch) whose exit is also the strategy's vote:
    /// once the epoch has terminated machine-wide, each rank runs `vote`,
    /// and the exit collective is the all-reduce of those votes under
    /// `op` (associative and commutative, as for
    /// [`all_reduce`](Self::all_reduce)). Returns the body's result and
    /// the reduced vote — "did any rank assign", "lowest non-empty
    /// bucket" — at the price of a plain epoch: two collective rounds.
    ///
    /// `vote` sees everything every handler of this epoch did: see
    /// [`crate::termination`] ("Reading state after termination"). It runs
    /// outside the epoch, between termination and the exit, so it may
    /// read and reset strategy-local state but must not send, flush or
    /// enter a collective.
    pub fn epoch_reduce<R>(
        &self,
        f: impl FnOnce(&AmCtx) -> R,
        vote: impl FnOnce() -> u64,
        op: impl Fn(u64, u64) -> u64,
    ) -> (R, u64) {
        assert_eq!(self.thread, 0, "epochs are entered by rank main threads");
        assert!(!self.in_epoch.get(), "epochs do not nest");
        // The idle declaration must be withdrawn *before* the entry
        // barrier: termination detection treats an idle rank as "its epoch
        // body has returned and it is only serving handlers". A stale
        // declaration left over from the previous epoch would let a fast
        // rank declare quiescence while this rank has not started sending
        // yet — and this rank would then exit with its own messages still
        // in flight. The barrier itself stays for the reasons in
        // `crate::termination` ("Why the entry barrier stays").
        self.shared.ranks[self.rank].idle_at.store(NOT_IDLE, SeqCst);
        self.barrier();
        let my_gen = self.epochs_entered.get() + 1;
        self.epochs_entered.set(my_gen);
        self.in_epoch.set(true);
        self.epoch_entered_at.set(Some(Instant::now()));
        self.shared.epoch_active.fetch_add(1, SeqCst);
        // Freeze this thread's dispatch tables and pre-size the hot-path
        // per-type vectors for every registered type: the epoch body never
        // takes a registration lock and never grows these on the send path.
        // (Registration inside epochs is rejected by assert, so the frozen
        // tables cannot go stale mid-epoch.)
        self.refresh_tables();
        self.presize_locals();
        // First rank past the entry barrier stamps the epoch's start time.
        self.shared.epoch_prof.enter();
        self.mark(SpanKind::EpochEnter, "epoch.enter", my_gen, 0);
        let epoch_span = SpanGuard::begin(self, SpanKind::Epoch, "epoch", my_gen).args(my_gen, 0);

        let result = f(self);

        self.finish_epoch(my_gen);

        // Sim mode: epoch-triggered plan transitions (partitions forming
        // or healing "after epoch N") and the epoch-cadence invariant
        // check run here, exactly once per generation, while the machine
        // is provably quiescent (termination detected, exit barrier not
        // yet passed).
        if let Some(sim) = &self.shared.sim {
            sim.on_epoch_end(&self.shared, my_gen);
        }
        self.shared.epoch_active.fetch_sub(1, SeqCst);
        self.in_epoch.set(false);
        self.epoch_entered_at.set(None);
        MachineStats::bump(&self.shared.stats.epochs, 1);
        // The exit: no rank proceeds (e.g. reads results, starts the next
        // epoch) until all have observed termination, and the round that
        // says so carries the vote.
        let voted = self.all_reduce(vote(), op);
        // Quiescent: every counter touched by this epoch is stable until
        // all ranks pass the *next* epoch's entry barrier, so the first
        // rank through seals an exact machine-wide delta for this epoch.
        self.shared
            .epoch_prof
            .seal(my_gen, self.shared.full_snapshot());
        drop(epoch_span);
        #[cfg(debug_assertions)]
        {
            let h = self.shared.total_handled();
            let s = self.shared.total_sent();
            // Under fault injection the inbox may legitimately hold
            // in-flight *duplicates* (the dedup layer will suppress them);
            // the counter balance must hold either way.
            let inbox_clear = self.shared.reliability.is_some()
                || self.shared.wire.is_some()
                || self.shared.ranks[self.rank].rx.is_empty();
            debug_assert!(
                inbox_clear && h == s,
                "epoch {my_gen} on rank {} ended non-quiescent (handled={h}, sent={s})",
                self.rank
            );
        }
        (result, voted)
    }

    /// The paper's `epoch_flush`: perform as much pending work as is
    /// available right now — ship this thread's buffers and handle every
    /// message currently queued — then return control.
    /// Only meaningful inside an epoch. Returns the number of envelopes
    /// handled.
    pub fn epoch_flush(&self) -> usize {
        debug_assert!(self.in_epoch.get(), "epoch_flush is used inside an epoch");
        let mut handled = 0;
        loop {
            self.flush_own_buffers();
            let popped = self.drain_inbox(None);
            self.pump_transport();
            if popped == 0 {
                break;
            }
            handled += popped;
        }
        handled
    }

    /// The paper's `try_finish`: attempt to end the current epoch from
    /// within. Returns `true` when the epoch has terminated (no pending
    /// actions anywhere); the caller should then fall out of its work loop.
    /// Contract: call only when this rank has no deferred local work (e.g.
    /// empty Δ-stepping buckets); see [`crate::termination`] for why.
    pub fn try_finish(&self) -> bool {
        debug_assert!(self.in_epoch.get(), "try_finish is used inside an epoch");
        self.termination_step(self.epochs_entered.get())
    }

    /// Epoch exit: run the termination step until the epoch is over,
    /// inside the `termination.counters` span. Whatever the epoch body
    /// left in Δ-buckets stays there — a plain epoch ends when messages
    /// quiesce, so `try_finish`'s no-deferred-work contract is not needed.
    fn finish_epoch(&self, my_gen: u64) {
        let mut span =
            SpanGuard::begin(self, SpanKind::Termination, "termination.counters", my_gen)
                .args(my_gen, 0);
        let mut rounds: u64 = 1;
        while !self.termination_step(my_gen) {
            rounds += 1;
        }
        span.set_arg1(rounds);
    }

    /// One pass of termination detection for epoch `my_gen` (see
    /// [`crate::termination`]): drain and flush, publish, declare the
    /// rank idle, double-scan the shared declarations and counters, and
    /// either decide or wait for a ring. Returns whether the epoch has
    /// terminated.
    fn termination_step(&self, my_gen: u64) -> bool {
        self.shared.check_poison();
        if let Some(entered) = self.epoch_entered_at.get() {
            self.check_deadline(entered, my_gen);
        }
        if self.shared.completed_epoch.load(SeqCst) >= my_gen {
            return true;
        }
        let me = &self.shared.ranks[self.rank];
        if self.drain_and_flush() {
            // Made progress; may have produced local work.
            self.activity_seen.set(me.activity.load(SeqCst));
            return false;
        }
        // No-op unless something dirtied the deltas since the flush above;
        // the counter reads below must only see published state.
        self.publish_deltas();
        debug_assert_eq!(
            self.buffered_pending(),
            0,
            "idle declared with unshipped coalesced messages"
        );
        // Declare idle only if no thread of this rank has published a
        // `handled` count since the caller last looked at its deferred
        // work; otherwise let it look again.
        let activity = me.activity.load(SeqCst);
        if self.activity_seen.replace(activity) != activity {
            return false;
        }
        me.idle_at.store(activity, SeqCst);
        // Double scan: declarations, counters, declarations, counters —
        // all stable.
        let quiescent = self.shared.all_idle() && {
            let h1 = self.shared.total_handled();
            let s1 = self.shared.total_sent();
            h1 == s1 && self.shared.all_idle() && {
                let h2 = self.shared.total_handled();
                let s2 = self.shared.total_sent();
                h2 == s1 && s2 == s1
            }
        };
        if !quiescent {
            // Others are not done yet: wait for mail or for the deciding
            // rank's ring instead of returning straight into the caller's
            // loop — which would take the core its peers need, and under
            // the simulator's cooperative scheduling would hold the token
            // so no other rank could ever make the counters balance. The
            // next step's drain picks the packets up, and publishing their
            // `handled` count withdraws our idle declaration.
            self.idle_wait(|| self.shared.completed_epoch.load(SeqCst) >= my_gen);
            self.activity_seen.set(me.activity.load(SeqCst));
            return false;
        }
        self.shared.completed_epoch.fetch_max(my_gen, SeqCst);
        self.shared.wake_all();
        true
    }

    /// Block this idle rank until something may have changed for it: mail
    /// on any of its channels (each delivery rings its doorbell), a ring
    /// from the rank that decided termination or was poisoned, `decided()`
    /// already holding, or — when nobody rings — `RECV_TIMEOUT`, the
    /// liveness ceiling that keeps reliability pumps (retransmits, parked
    /// releases) running. Waits that end at the ceiling are counted in
    /// `idle_timeouts`. Under the simulator this is the cooperative park.
    fn idle_wait(&self, decided: impl FnOnce() -> bool) {
        let shared = &self.shared;
        if let Some(sim) = &shared.sim {
            return sim.idle_wait(shared, self.rank);
        }
        let me = &shared.ranks[self.rank];
        let rung = me.bell.wait(crate::config::RECV_TIMEOUT, || {
            me.has_mail() || shared.poisoned.load(SeqCst) || decided()
        });
        if !rung {
            MachineStats::bump(&shared.stats.idle_timeouts, 1);
        }
    }

    /// Handle all queued messages and ship all buffered ones. Returns whether
    /// any progress was made. Also advances the reliability layer
    /// (retransmissions, parked releases) — every idle and termination
    /// loop runs through here, which is what keeps fault recovery live.
    fn drain_and_flush(&self) -> bool {
        let handled = self.drain_inbox(None) > 0;
        self.pump_transport();
        let shipped = self.flush_own_buffers() > 0;
        handled || shipped
    }

    /// Pump the reliability layer on behalf of this thread's rank (no-op
    /// on the perfect transport). Callers pump after a drain: acks popped
    /// by it are retired before the pump's retransmit scan.
    pub(super) fn pump_transport(&self) {
        if let Some(t) = &self.shared.reliability {
            t.pump(self);
        }
    }

    /// Fail the machine with [`MachineError::EpochDeadline`] when the
    /// armed watchdog has expired for the epoch entered at `entered`.
    fn check_deadline(&self, entered: Instant, my_gen: u64) {
        let Some(deadline) = self.shared.cfg.epoch_deadline else {
            return;
        };
        let waited = entered.elapsed();
        if waited <= deadline {
            return;
        }
        let stuck_ranks: Vec<RankId> = self
            .shared
            .ranks
            .iter()
            .enumerate()
            .filter(|(_, r)| !r.is_idle())
            .map(|(i, _)| i)
            .collect();
        self.shared.fail(
            MachineError::EpochDeadline {
                epoch: my_gen,
                waited,
                stuck_ranks,
                sent: self.shared.total_sent(),
                handled: self.shared.total_handled(),
            },
            None,
        );
        std::panic::resume_unwind(Box::new(Abort));
    }
}
