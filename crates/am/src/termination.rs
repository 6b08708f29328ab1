//! Termination detection for epochs.
//!
//! The defining feature of an AM++ epoch — and the reason the paper can
//! offer `epoch` as the coarse-grained synchronization construct for its
//! fine-grained patterns — is *termination detection*: an epoch ends only
//! once every message sent inside it, transitively including messages sent
//! by handlers, has been handled on every rank.
//!
//! One detector is provided, and one detection step runs it: epoch exit
//! repeats the step until it reports termination, and
//! [`crate::AmCtx::try_finish`] runs it once.
//!
//! ## Shared counters
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
//! * ranks declare themselves idle only from inside the detection step, so
//!   all-idle means every rank's epoch body has returned (or has called
//!   `try_finish`, below) — no source of new messages remains, making the
//!   condition stable.
//!
//! A declaration is not a flag but the value of the rank's `activity`
//! counter at the time it was made (`RankShared::idle_at`); every thread
//! of the rank bumps `activity` before it publishes a `handled` count, and
//! the declaration holds only while the two are equal. The condition is
//! checked by a *double scan* — declarations, counters, declarations,
//! counters must all be stable — on every path; the stricter form is what
//! `try_finish` needs (below), and costs epoch exit nothing measurable.
//!
//! Ranks share a process, so one read of the shared flags and counters
//! decides. A message-only detector (four-counter token waves around a
//! ring) needs at least two full ring circulations per epoch — 2·n
//! cross-rank wake-ups — and measured slower on the epoch-heavy
//! benchmark workload, so it is not provided; a multi-process backend
//! would be the reason to bring one back.
//!
//! ## Liveness: who rings, and why no wakeup is lost
//!
//! An idle rank's main thread does not poll. A detection step that finds
//! others not done yet blocks on the rank's *doorbell* (`Doorbell` in
//! `machine/shared.rs`: a `waiting` flag plus park/unpark), and the
//! doorbell is rung by
//!
//! * every delivery into the rank's inbox (`Shared::deliver`, which
//!   packets and acks alike go through);
//! * the rank that decides termination, once per rank, right after its
//!   `completed_epoch.fetch_max`;
//! * a handler worker thread after each batch it drains (publishing the
//!   batch's `handled` count withdrew the rank's declaration, and only
//!   the main thread declares it again);
//! * `Shared::poison`, so a failure elsewhere unwinds waiters at once.
//!
//! **No lost wakeup.** The waiter raises `waiting` (SeqCst store), *then*
//! re-checks its inbox, the poison flag and `completed_epoch`,
//! and parks only if all are quiet.
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
//! **Why rings suffice.** The last rank to change state (handle a
//! message, raise its flag) always evaluates the termination condition
//! afterwards, seeing everything before it; if the condition holds it
//! decides and rings everyone, and if it fails, some other rank still
//! holds work — mail in its inbox (which rang it) or a running thread
//! (which will evaluate the condition in turn). What nobody rings for is the
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
//! calling rank has no deferred local work. The caller can only promise
//! that about the work it has seen, and a handler on a worker thread may
//! deposit at any moment. What the runtime guarantees is that no epoch
//! ends while a rank holds deposits its caller has not looked at:
//!
//! * a handler's deposit happens before its thread bumps the rank's
//!   `activity`, which happens before it publishes the `handled` count
//!   that includes the handler;
//! * each time the main thread's detection step returns `false` it
//!   records the `activity` it read (`AmCtx::activity_seen`), and the
//!   caller looks at its work after that read, so the look sees every
//!   deposit counted in it;
//! * the step declares the rank idle only if `activity` still equals the
//!   recorded value, and stores that value as the declaration; a later
//!   bump withdraws it.
//!
//! So while a declaration holds, no handler of the rank has published
//! since the caller last looked. A handler still running, or finished but
//! not yet published, keeps its message unhandled and the counters
//! unbalanced; once it publishes, the declaration is gone. Either way one
//! of the double scan's two scans fails, until the main thread returns
//! `false`, its caller looks again, and it declares afresh. (A flag that
//! each handler lowered on entry was not enough: a handler that started
//! before the main thread raised the flag could deposit after it, and a
//! peer then decided over the stale flag.) The contract is the caller's
//! promise about its own algorithm; epoch exit runs the same step without
//! it, because a plain epoch that ends with work left in its buckets is
//! the intended semantics. A caller may also scope its promise: the Δ-stepping driver
//! with a window of k > 1 buckets calls `try_finish` when no deferred
//! work is left *in the window*; work above the window stays for a later
//! epoch, exactly as a plain epoch leaves it.
//!
//! ## Reading state after termination: the exit's vote
//!
//! [`crate::AmCtx::epoch_reduce`] runs the strategy's `vote` on each
//! rank's main thread after the detection step has reported termination
//! and before the exit collective, and the exit *is* the all-reduce of the
//! votes. A vote typically reads what this epoch's handlers wrote on its
//! rank — Δ-buckets filled by work hooks, engine counters — possibly from
//! a worker thread. That read is exact:
//!
//! * a handler's writes happen before its thread publishes the `handled`
//!   delta that counts it (a SeqCst RMW, made after the handler returns);
//! * the deciding rank read that `handled` count in its balanced double
//!   scan, and that read happens before its `completed_epoch.fetch_max`;
//! * this rank's step returned `true` either because it decided itself
//!   (it read the counts) or because its SeqCst load saw `completed_epoch`
//!   at this generation, which reads from that `fetch_max`.
//!
//! So every handler of the epoch happens-before the vote, and no handler
//! runs after it: termination means nothing is in flight, and nothing of
//! the next epoch can be sent before every rank — this one included —
//! has passed that epoch's entry barrier.
//!
//! ## Why the entry barrier stays
//!
//! Deleting the entry barrier would make the exit the only rendezvous
//! per epoch, but three things lean on it:
//!
//! * **Worker threads against resets between epochs.** A rank's handler
//!   worker threads handle packets whenever they arrive, between epochs
//!   too. Drivers reset owned state between epochs (k-core's `acc`,
//!   PageRank's fold into `rank`, the per-round flags of MIS and
//!   coloring), with no barrier of their own before the next epoch: the
//!   entry barrier guarantees that no peer sends a message of the next
//!   epoch until this rank's main thread has finished its reset. Without
//!   it a worker would run a peer's next-epoch handler against
//!   half-reset state.
//! * **`share`'s clear** relies on the same shape: its slot is cleared
//!   after its second barrier, and the next `share`'s first barrier keeps
//!   any rank from constructing into the slot before every rank has
//!   cleared it.
//! * **The stale idle declaration** (INTERNALS §1, case study): a rank
//!   withdraws its declaration before the entry barrier, so no peer can
//!   read one left over from the previous epoch. An epoch generation on
//!   the declaration would fix this one, not the other two.
//!
//! ## Interaction with batched counters
//!
//! Since the hot-path rework (INTERNALS.md §9) threads do not bump the
//! shared `sent`/`handled` counters per message; they accumulate deltas in
//! thread-local cells and publish them in batches. The detector above
//! stays correct because publication is placed so that the two invariants
//! it relies on still hold for the *shared* counters it reads:
//!
//! * **`handled ≤ sent` is preserved.** A `sent` delta is published
//!   *before* the envelope carrying those messages ships
//!   (`TypedBuffers::push` invokes the publish hook before `flush_dest`,
//!   and `flush_own_buffers` publishes before flushing), so a message is
//!   visible in shared `sent` before any rank can receive it — exactly the
//!   per-message discipline, just batched. A `handled` delta may lag until
//!   the handling thread's next publish point, which only *understates*
//!   `handled`: the detector can miss a true quiescent instant (it
//!   retries) but can never observe `handled == sent` while work is in
//!   flight.
//! * **Idle implies published.** Every path that declares a rank idle or
//!   evaluates the termination condition publishes its own deltas first
//!   (the detection step, and the worker loops before blocking). So "all
//!   ranks idle" still implies the shared counters include everything
//!   those ranks did. Liveness needs no timer: a thread with unpublished
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
//! ## Where a message can wait
//!
//! Between `send` and its handler a message is in exactly one of: a
//! coalescing buffer of the sending thread, the reliability layer (a
//! retransmit buffer or a fault-delayed packet), a rank inbox, or a
//! running handler batch. Every one of those places is behind the `sent`
//! count — the message is tallied before it enters the buffer — so no
//! message ever waits uncounted, and no layer has to be flushed before
//! the counters may be read. The one way a message leaves without being
//! handled is a dominance drop, which happens *instead of* the send and
//! is never counted (below).
//!
//! ## Interaction with dominance caching
//!
//! [`crate::MessageType::send_min`] drops a message whose value is
//! dominated by one the same thread already sent under the same key in
//! the same epoch. The detector cannot be fooled by this:
//!
//! * **A dropped message is never counted sent.** The drop returns before
//!   `note_sent`, so it never enters a coalescing buffer or the `sent`
//!   ledger — there is nothing for `handled` to wait for. It bumps only
//!   `cache_hits`, a statistic the detector does not read.
//! * **The dominating message is already counted.** It went through the
//!   ordinary send path earlier in this epoch, so it sits in `sent` (or in
//!   this thread's pending delta, published before the thread can look
//!   idle) until it is handled. The epoch therefore cannot end before the
//!   work that made the drop redundant has run, and `handled == sent`
//!   stays exact — the chaos and simulator suites assert exactly that.
//!
//! The table is stamped with the machine-wide epoch generation
//! (`completed_epoch + 1`), which every thread of every rank reads alike
//! and which only advances once the epoch has terminated, so an entry can
//! never outlive the epoch whose delivery guarantee it relies on.
//!
//! ## Interaction with fault injection
//!
//! The detector remains correct under an unreliable transport
//! ([`crate::FaultPlan`]) because no fault ever removes a message from the
//! `sent` side of the ledger: a dropped, delayed, reordered or
//! retransmission-pending envelope was counted at `sent` time and bumps
//! `handled` only on actual (first) delivery, while duplicates and
//! retransmits are suppressed by per-lane dedup *before* `handled` is
//! incremented. The detector can therefore never observe `handled == sent`
//! while anything is parked in the fault layer; liveness comes from
//! `Transport::pump` being called on every pass of every blocking loop —
//! after each ring, and at the latest at the `RECV_TIMEOUT` ceiling — so
//! retransmissions progress while ranks sit in detection. See
//! `docs/INTERNALS.md` §7.
