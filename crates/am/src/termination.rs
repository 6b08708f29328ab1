//! Termination detection for epochs.
//!
//! The defining feature of an AM++ epoch — and the reason the paper can
//! offer `epoch` as the coarse-grained synchronization construct for its
//! fine-grained patterns — is *termination detection*: an epoch ends only
//! once every message sent inside it, transitively including messages sent
//! by handlers, has been handled on every rank.
//!
//! Two algorithms are provided (selected by
//! [`crate::config::TerminationMode`], compared in experiment E6):
//!
//! ## Shared counters (fast path)
//!
//! Every rank keeps monotone counters of messages *sent* (incremented when a
//! message enters a coalescing buffer) and *handled* (incremented after the
//! handler returns). A rank that has drained its inbox and flushed its
//! buffers marks itself idle. Termination holds when **all ranks are idle
//! and the global totals satisfy `handled == sent`**, with `handled` summed
//! *before* `sent`:
//!
//! * `handled ≤ sent` is invariant (a message is counted sent before it can
//!   be received), and both are monotone;
//! * reading `handled` first gives `h ≤ handled(t) ≤ sent(t) ≤ s` for the
//!   instant `t` between the two sums, so `h == s` forces
//!   `handled(t) == sent(t)`: nothing queued, buffered, or running at `t`;
//! * idle flags are only raised from inside the detection loop, so all-idle
//!   means every rank's epoch body has returned — no source of new messages
//!   remains, making the condition stable.
//!
//! ## Four-counter waves (faithful distributed algorithm)
//!
//! Epoch exit reads no cross-rank memory (`try_finish`, below, reads the
//! shared counters in this mode too); rank 0 circulates a token along the
//! ring of control channels. Each idle rank adds its local `(sent, handled)` to the
//! token and forwards it. When a wave returns, rank 0 compares it with the
//! previous wave and terminates when **two consecutive waves report the same
//! totals with `sent == handled`** (Mattern's four-counter condition): wave
//! *w−1* finishes before wave *w* starts, so per-rank equality of the two
//! waves means every rank was quiet over an interval containing the instant
//! between the waves — global quiescence at that instant. Rank 0 then sends
//! a `Terminate` token to every rank.
//!
//! ## Liveness: who rings, and why no wakeup is lost
//!
//! An idle rank's main thread does not poll. Both detectors and
//! `try_finish`'s "others not done yet" exit block on the rank's
//! *doorbell* (`Doorbell` in `machine/shared.rs`: a `waiting` flag plus
//! park/unpark), and the doorbell is rung by
//!
//! * every delivery into the rank's inbox (`deliver_direct`,
//!   `wire_deliver`), control channel (`token_direct`: wave tokens and
//!   rank 0's `Terminate`) and ack channel (`ack_direct`, `wire_ack`);
//! * the rank that decides termination in counters mode (`try_finish` or
//!   the counters finisher), once per rank, right after its
//!   `completed_epoch.fetch_max`;
//! * a handler worker thread after each batch it drains (the handlers
//!   lowered the rank's idle flag, and only the main thread re-raises it);
//! * `Shared::poison`, so a failure elsewhere unwinds waiters at once.
//!
//! **No lost wakeup.** The waiter raises `waiting` (SeqCst store), *then*
//! re-checks its three channels, the poison flag and — where it is a
//! reason to wake — `completed_epoch`, and parks only if all are quiet.
//! A waker first makes its fact visible (the channel push, under the
//! channel's mutex, or the SeqCst `fetch_max`) and *then* loads
//! `waiting` (SeqCst). If the waiter's re-check missed the push, the
//! waiter's mutex release preceded the waker's acquire, so its flag store
//! happens-before the waker's load, which therefore sees the flag raised;
//! for `completed_epoch` the four SeqCst accesses form the classic
//! store-load pair, in which at least one side sees the other's write.
//! Either the waiter sees the fact and does not park, or the waker sees
//! the flag and unparks — and an unpark that lands before the park is
//! kept as the thread's token, so the park returns at once.
//!
//! **At most one wake syscall per park.** The waker clears the flag with
//! a `swap` and unparks only if the swap saw it raised; every other
//! delivery during the same wait is a plain load. A ring to a rank that
//! is not waiting is that load and nothing else.
//!
//! **Why rings suffice.** In counters mode the last rank to change state
//! (handle a message, raise its flag) always evaluates the termination
//! condition afterwards, seeing everything before it; if the condition
//! holds it decides and rings everyone, and if it fails, some other rank
//! still holds work — mail in its inbox (which rang it) or a running
//! thread (which will evaluate the condition in turn). In wave mode every
//! hop is a control-channel delivery. What nobody rings for is the
//! reliability layer's clock: retransmissions and parked fault releases
//! advance only when a rank pumps. `RECV_TIMEOUT` is therefore kept as
//! the *liveness ceiling* of every wait; a wait that ends there is counted
//! in `MachineStats::idle_timeouts`. Without a reliability layer that
//! count stays near zero (a peer descheduled for longer than the ceiling
//! on a loaded box), so a rising count means the floor is the timeout
//! again. The simulator replaces all of this with its cooperative
//! `SimNet::idle_wait`.
//!
//! ## Deferred local work and `try_finish`
//!
//! Work hooks may defer work into strategy-local structures (Δ-stepping
//! buckets). Such work is invisible to message counters *by design*: a
//! plain `epoch` ends when messages quiesce, and the strategy re-tests its
//! bucket afterwards (exactly the paper's description of the `delta`
//! strategy). For strategies that instead want to end an epoch from within
//! ([`crate::AmCtx::try_finish`]), the contract is: call only when the
//! calling rank has no deferred local work. `try_finish` then performs a
//! *double scan* of the shared idle flags and counters — flags, counters,
//! flags, counters must all be stable — in both termination modes (only
//! epoch exit has a wave variant). Every handler lowers its rank's idle
//! flag when it starts, so a handler that deposited local work after a
//! rank last declared itself idle is always caught by one of the two scans.
//!
//! ## Interaction with batched counters
//!
//! Since the hot-path rework (INTERNALS.md §9) threads do not bump the
//! shared `sent`/`handled` counters per message; they accumulate deltas in
//! thread-local cells and publish them in batches. Both detectors above
//! stay correct because publication is placed so that the two invariants
//! they rely on still hold for the *shared* counters they read:
//!
//! * **`handled ≤ sent` is preserved.** A `sent` delta is published
//!   *before* the envelope carrying those messages ships
//!   (`TypedBuffers::push` invokes the publish hook before `flush_dest`,
//!   and `flush_own_buffers` publishes before flushing), so a message is
//!   visible in shared `sent` before any rank can receive it — exactly the
//!   per-message discipline, just batched. A `handled` delta may lag until
//!   the handling thread's next publish point, which only *understates*
//!   `handled`: the detectors can miss a true quiescent instant (they
//!   retry) but can never observe `handled == sent` while work is in
//!   flight.
//! * **Idle implies published.** Every path that raises an idle flag,
//!   answers a wave, or evaluates the termination condition publishes its
//!   own deltas first (`try_finish`, the counters-mode and wave-mode epoch
//!   finishers, and the worker loops before blocking). So "all ranks idle"
//!   still implies the shared counters include everything those ranks did,
//!   and the wave token's `(sent, handled)` reads are exact for the
//!   answering rank. Liveness needs no timer: a thread with unpublished
//!   deltas is by definition not blocked in detection, and it publishes on
//!   the way in.
//!
//! Within one publication, per-type and layer statistics are flushed
//! (Relaxed) before the rank's `sent` and finally `handled` (both SeqCst
//! RMWs, `handled` last): any thread that observes balanced counters
//! therefore also observes every statistic published alongside them, which
//! keeps end-of-epoch profiler seals and [`crate::StatsSnapshot`] exact at
//! the detection instant.
//!
//! ## Interaction with fault injection
//!
//! Both detectors remain correct under an unreliable transport
//! ([`crate::FaultPlan`]) because no fault ever removes a message from the
//! `sent` side of the ledger: a dropped, delayed, reordered or
//! retransmission-pending envelope was counted at `sent` time and bumps
//! `handled` only on actual (first) delivery, while duplicates and
//! retransmits are suppressed by per-lane dedup *before* `handled` is
//! incremented. Neither detector can therefore observe `handled == sent`
//! while anything is parked in the fault layer; liveness comes from
//! `Transport::pump` being called on every pass of every blocking loop —
//! after each ring, and at the latest at the `RECV_TIMEOUT` ceiling — so
//! retransmissions progress while ranks sit in detection. See
//! `docs/INTERNALS.md` §7.

use crate::machine::RankId;

/// Control tokens exchanged on the per-rank control channels in
/// [`crate::config::TerminationMode::FourCounterWave`] mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Token {
    /// A counting wave: accumulates `(sent, handled)` around the ring.
    Wave { wave: u64, sent: u64, handled: u64 },
    /// Rank 0 observed two stable balanced waves: the epoch is over.
    Terminate,
}

/// Ring successor of `rank`.
pub(crate) fn ring_next(rank: RankId, ranks: usize) -> RankId {
    (rank + 1) % ranks
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_wraps() {
        assert_eq!(ring_next(0, 4), 1);
        assert_eq!(ring_next(3, 4), 0);
        assert_eq!(ring_next(0, 1), 0);
    }
}
