//! Epochs and their termination: `epoch`, `epoch_flush`, `try_finish`,
//! the drain/flush loop every idle path runs through, the epoch-deadline
//! watchdog, and the two termination detectors (see
//! [`crate::termination`]).

use std::sync::atomic::Ordering::SeqCst;
use std::time::Instant;

use super::{AmCtx, RankId};
use crate::config::TerminationMode;
use crate::error::{Abort, MachineError};
use crate::obs::{SpanGuard, SpanKind};
use crate::stats::MachineStats;
use crate::termination::{ring_next, Token};
use crate::trace::FlightKind;

impl AmCtx {
    // ------------------------------------------------------------------
    // Epochs
    // ------------------------------------------------------------------

    /// Run `f` inside an epoch. Collective: every rank must call `epoch`
    /// the same number of times. Returns only when every message sent by
    /// any rank inside this epoch (transitively, including handler sends)
    /// has been handled.
    pub fn epoch<R>(&self, f: impl FnOnce(&AmCtx) -> R) -> R {
        assert_eq!(self.thread, 0, "epochs are entered by rank main threads");
        assert!(!self.in_epoch.get(), "epochs do not nest");
        // The idle flag must drop *before* the entry barrier: termination
        // detection treats `idle == true` as "this rank's epoch body has
        // returned and it is only serving handlers". A stale `true` left
        // over from the previous epoch would let a fast rank declare
        // quiescence while this rank has not started sending yet — and
        // this rank would then exit with its own messages still in flight.
        self.shared.ranks[self.rank].idle.store(false, SeqCst);
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
        self.flight_push(FlightKind::EpochEnter, my_gen, 0);
        let epoch_span = self.shared.obs.as_ref().map(|rec| {
            SpanGuard::begin(
                rec,
                SpanKind::Epoch,
                "epoch",
                self.rank,
                self.thread,
                my_gen,
            )
            .args(my_gen, 0)
        });

        let result = f(self);

        let entered = self.epoch_entered_at.get().unwrap_or_else(Instant::now);
        match self.shared.cfg.termination {
            TerminationMode::SharedCounters => self.finish_epoch_counters(my_gen, entered),
            TerminationMode::FourCounterWave => self.finish_epoch_wave(my_gen, entered),
        }

        // Sim mode: epoch-triggered plan transitions (partitions forming
        // or healing "after epoch N") and the epoch-cadence invariant
        // check run here, exactly once per generation, while the machine
        // is provably quiescent (termination detected, exit barrier not
        // yet passed).
        if let Some(sim) = &self.shared.sim {
            sim.on_epoch_end(&self.shared, my_gen);
        }
        self.flight_push(FlightKind::EpochExit, my_gen, 0);
        self.shared.epoch_active.fetch_sub(1, SeqCst);
        self.in_epoch.set(false);
        self.epoch_entered_at.set(None);
        MachineStats::bump(&self.shared.stats.epochs, 1);
        // No rank proceeds (e.g. reads results, starts the next epoch)
        // until all have observed termination.
        self.barrier();
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
        result
    }

    /// The paper's `epoch_flush`: perform as much pending work as is
    /// available right now — ship this thread's buffers, flush held layers,
    /// and handle every message currently queued — then return control.
    /// Only meaningful inside an epoch. Returns the number of envelopes
    /// handled.
    pub fn epoch_flush(&self) -> usize {
        debug_assert!(self.in_epoch.get(), "epoch_flush is used inside an epoch");
        let mut handled = 0;
        loop {
            self.flush_flushables();
            self.flush_own_buffers();
            self.shared.pump_transport(self.rank);
            let rx = &self.shared.ranks[self.rank].rx;
            let mut any = false;
            while let Ok(pkt) = rx.try_recv() {
                self.handle_packet(pkt);
                handled += 1;
                any = true;
            }
            if !any {
                break;
            }
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
        self.shared.check_poison();
        let my_gen = self.epochs_entered.get();
        if let Some(entered) = self.epoch_entered_at.get() {
            self.check_deadline(entered, my_gen);
        }
        if self.shared.completed_epoch.load(SeqCst) >= my_gen {
            return true;
        }
        if self.drain_and_flush() {
            return false; // made progress; may have produced local work
        }
        // No-op unless something dirtied the deltas since the flush above;
        // the counter reads below must only see published state.
        self.publish_deltas();
        debug_assert_eq!(
            self.buffered_pending(),
            0,
            "idle declared with unshipped coalesced messages"
        );
        let me = &self.shared.ranks[self.rank];
        me.idle.store(true, SeqCst);
        // Double scan: flags, counters, flags, counters — all stable.
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
            // `while !try_finish() { epoch_flush() }` spin — which would
            // take the core its peers need, and under the simulator's
            // cooperative scheduling would hold the token so no other
            // rank could ever make the counters balance.
            self.idle_wait(|| self.shared.completed_epoch.load(SeqCst) >= my_gen);
            return false;
        }
        self.decide(my_gen, 0);
        true
    }

    /// Record this rank's termination vote for epoch `my_gen`, publish the
    /// decision and wake every rank waiting on it.
    fn decide(&self, my_gen: u64, arg: u64) {
        self.flight_push(FlightKind::TermVote, my_gen, arg);
        self.shared.completed_epoch.fetch_max(my_gen, SeqCst);
        self.shared.wake_all();
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

    /// Handle all queued messages and ship all held ones. Returns whether
    /// any progress was made. Also advances the reliability layer (acks,
    /// retransmissions, parked releases) — every idle and termination loop
    /// runs through here, which is what keeps fault recovery live.
    fn drain_and_flush(&self) -> bool {
        self.shared.pump_transport(self.rank);
        let mut progress = false;
        let rx = &self.shared.ranks[self.rank].rx;
        while let Ok(pkt) = rx.try_recv() {
            self.handle_packet(pkt);
            progress = true;
        }
        if self.flush_flushables() > 0 {
            progress = true;
        }
        if self.flush_own_buffers() > 0 {
            progress = true;
        }
        progress
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
            .filter(|(_, r)| !r.idle.load(SeqCst))
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

    /// Shared-counter termination detection (see [`crate::termination`]).
    fn finish_epoch_counters(&self, my_gen: u64, entered: Instant) {
        let shared = &self.shared;
        let me = &shared.ranks[self.rank];
        let mut span = shared.obs.as_ref().map(|rec| {
            SpanGuard::begin(
                rec,
                SpanKind::Termination,
                "termination.counters",
                self.rank,
                self.thread,
                my_gen,
            )
            .args(my_gen, 0)
        });
        let mut rounds: u64 = 0;
        loop {
            shared.check_poison();
            self.check_deadline(entered, my_gen);
            rounds += 1;
            if self.drain_and_flush() {
                continue;
            }
            // Counter reads below must only see published state (no-op
            // unless something dirtied the deltas since the flush above).
            self.publish_deltas();
            debug_assert_eq!(
                self.buffered_pending(),
                0,
                "idle declared with unshipped coalesced messages"
            );
            me.idle.store(true, SeqCst);
            if shared.completed_epoch.load(SeqCst) >= my_gen {
                break;
            }
            if shared.all_idle() {
                let h = shared.total_handled();
                let s = shared.total_sent();
                if h == s {
                    self.decide(my_gen, rounds);
                    break;
                }
            }
            // Wait for mail or for the deciding rank's ring; the next
            // drain_and_flush picks the packets up, and their handlers
            // lower our idle flag.
            self.idle_wait(|| shared.completed_epoch.load(SeqCst) >= my_gen);
        }
        if let Some(s) = span.as_mut() {
            s.set_arg1(rounds);
        }
    }

    /// Four-counter wave termination detection (see [`crate::termination`]).
    fn finish_epoch_wave(&self, my_gen: u64, entered: Instant) {
        let shared = &self.shared;
        let n = shared.cfg.ranks;
        if n == 1 {
            // A ring of one: the wave degenerates to the local counter check.
            return self.finish_epoch_counters(my_gen, entered);
        }
        let me = &shared.ranks[self.rank];
        let mut span = shared.obs.as_ref().map(|rec| {
            SpanGuard::begin(
                rec,
                SpanKind::Termination,
                "termination.wave",
                self.rank,
                self.thread,
                my_gen,
            )
            .args(my_gen, 0)
        });
        let mut tokens_seen: u64 = 0;
        let mut held: Option<Token> = None;
        let mut prev_wave: Option<(u64, u64)> = None;
        let mut wave_no: u64 = 0;
        let mut wave_in_flight = false;
        loop {
            shared.check_poison();
            self.check_deadline(entered, my_gen);
            if self.drain_and_flush() {
                me.idle.store(false, SeqCst);
                continue;
            }
            // The wave tokens below read this rank's own counters; they
            // must only see published state.
            self.publish_deltas();
            debug_assert_eq!(
                self.buffered_pending(),
                0,
                "wave participation with unshipped coalesced messages"
            );
            // Idle as far as the data plane is concerned (diagnostic only
            // in this mode — detection itself reads no shared flags).
            me.idle.store(true, SeqCst);
            // We are idle: participate in the control protocol.
            let mut terminated = false;
            while let Ok(tok) = me.ctl_rx.try_recv() {
                match tok {
                    Token::Terminate => terminated = true,
                    wave @ Token::Wave { .. } => {
                        debug_assert!(held.is_none(), "waves are sequential");
                        held = Some(wave);
                    }
                }
            }
            if terminated {
                shared.completed_epoch.fetch_max(my_gen, SeqCst);
                break;
            }
            if let Some(Token::Wave {
                wave,
                sent,
                handled,
            }) = held.take()
            {
                MachineStats::bump(&shared.stats.control_tokens, 1);
                tokens_seen += 1;
                if self.rank == 0 {
                    // Wave returned with machine totals.
                    let cur = (sent, handled);
                    if sent == handled && prev_wave == Some(cur) {
                        self.flight_push(FlightKind::TermVote, my_gen, tokens_seen);
                        for r in 1..n {
                            shared.push_token(self.rank, r, Token::Terminate);
                        }
                        shared.completed_epoch.fetch_max(my_gen, SeqCst);
                        break;
                    }
                    prev_wave = Some(cur);
                    wave_in_flight = false;
                } else {
                    self.flight_push(FlightKind::TermVote, my_gen, tokens_seen);
                    let tok = Token::Wave {
                        wave,
                        sent: sent + me.sent.load(SeqCst),
                        handled: handled + me.handled.load(SeqCst),
                    };
                    shared.push_token(self.rank, ring_next(self.rank, n), tok);
                }
            }
            if self.rank == 0 && !wave_in_flight {
                wave_no += 1;
                let tok = Token::Wave {
                    wave: wave_no,
                    sent: me.sent.load(SeqCst),
                    handled: me.handled.load(SeqCst),
                };
                shared.push_token(self.rank, ring_next(0, n), tok);
                wave_in_flight = true;
            }
            // Wait for data or a control token (each rings our doorbell;
            // in sim mode push_token marks us runnable). Only a Terminate
            // token ends this loop, so `completed_epoch` — which
            // `try_finish` may already have raised — is not a reason to
            // wake.
            self.idle_wait(|| false);
        }
        me.idle.store(true, SeqCst);
        // Drain any stale control traffic for this epoch.
        while me.ctl_rx.try_recv().is_ok() {}
        if let Some(s) = span.as_mut() {
            s.set_arg1(tokens_seen);
        }
    }
}
