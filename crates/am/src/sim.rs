//! Deterministic discrete-event simulation of the machine's network.
//!
//! The threaded [`Machine`](crate::Machine) exercises whatever interleaving
//! the OS scheduler happens to produce. This module replaces *time itself*:
//! [`Machine::run_sim`](crate::Machine::run_sim) runs the same SPMD program,
//! the same handlers, coalescing, reliability layer, termination detection,
//! statistics and flight recorder — but every cross-rank delivery goes
//! through one seeded, logical-time event queue, and only **one rank runs
//! at a time**. Rank bodies still live on OS threads (they keep their
//! stacks), but the threads are used purely as coroutines: a token is
//! handed from rank to rank by `SimNet`, so the whole run is effectively
//! single-threaded and every run with the same seed is bit-identical —
//! results, statistics, and every recorded event and span (the machine's
//! one clock, the recorder's, reads *virtual* time in sim mode).
//!
//! Every network event the scheduler applies — a delivery, an ack, a
//! partition dropping, holding or releasing a packet, a partition forming
//! or healing, a stall starting or ending — is one instant
//! [`SpanKind::Transport`] record in the recorder's side ring (INTERNALS
//! §10.2), so a simulated post-mortem shows the schedule beside the
//! handlers it drove.
//!
//! ## The delivery seam
//!
//! The threaded machine already has exactly one chokepoint where envelopes
//! become receivable: `Shared::push_packet`, which is also where the
//! reliability layer of [`crate::fault`] hands packets back after
//! sequencing them, and where its acks — packets too — start their
//! reverse trip. The simulator intercepts at that same seam: instead of
//! landing in the destination inbox immediately, a packet becomes a
//! `Delivery` event scheduled at
//! `now + latency(from, to) + count · per_msg + jitter`, subject to the
//! plan's partitions, stragglers and stalls (an ack carries no messages
//! and is partition-exempt). Everything *above* the seam —
//! coalescing, seq/ack/retransmit, dedup, termination detection — is the
//! production code, unchanged; under modeled partitions the retransmit
//! machinery becomes load-bearing rather than decorative.
//!
//! ## Blocking points
//!
//! Cooperative scheduling requires that a rank never blocks the OS thread
//! while holding the token. The places the threaded machine blocks —
//! collectives (condvar), and the termination step's "others not done
//! yet" pause (parked on the rank's doorbell until a delivery, a deciding
//! rank's ring, or a deadline the wait owes; see [`crate::termination`])
//! — all route through `SimNet` in sim mode: collectives are a serialized
//! arrive/publish state machine, and idle waits park the rank until a
//! delivery (or a machine-wide wake when the event queue runs dry, which
//! is what drives transport pumps and termination rechecks). The clock
//! those deadlines read is the virtual one: the reliability layer's ticks
//! and the epoch watchdog both measure simulated time, as the recorder
//! does. A seeded watchdog converts true stalls (a
//! partition that never heals, a livelocked schedule) into
//! [`MachineError::SimStalled`] instead of hanging.
//!
//! ## Invariant hooks
//!
//! [`AmCtx::sim_invariant`](crate::AmCtx::sim_invariant) installs a
//! callback invoked at configurable logical-time points (before every
//! delivery, and/or at every epoch end) while the machine is *provably
//! quiescent* — token scheduling means no handler is mid-flight. A
//! violation fails the machine with
//! [`MachineError::InvariantViolated`], freezing the flight recorder at
//! the exact virtual time of the offense.

use std::collections::BTreeMap;
use std::sync::atomic::{
    AtomicBool, AtomicU64, AtomicUsize,
    Ordering::{Acquire, Relaxed, Release, SeqCst},
};
use std::sync::Arc;
use std::thread::Thread;

use parking_lot::Mutex;

use crate::error::{Abort, MachineError};
use crate::machine::{Packet, RankId, Shared};
use crate::obs::{SpanKind, SpanRecord};
use crate::trace::mix64;

/// When, in simulated time, a plan element takes effect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimAt {
    /// An absolute virtual time in nanoseconds.
    Time(u64),
    /// When epoch generation `n` (1-indexed) completes machine-wide. The
    /// element takes effect the moment the first rank observes that
    /// epoch's termination — i.e. it perturbs everything *after* epoch
    /// `n`.
    Epoch(u64),
}

/// What happens to packets crossing an active partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PartitionMode {
    /// Packets crossing the cut are parked and delivered (in order) when
    /// the partition heals — a link that is down but lossless. Works with
    /// or without the reliability layer.
    #[default]
    Hold,
    /// Packets crossing the cut are destroyed. Requires the reliability
    /// layer ([`MachineConfig::faults`](crate::MachineConfig::faults),
    /// e.g. an inert [`FaultPlan::new`](crate::FaultPlan::new)): without
    /// retransmission a dropped packet would leave `sent > handled`
    /// forever and the epoch could never terminate.
    Drop,
}

/// A network partition separating `cut` from every other rank, active
/// between `from` and `until` (either bound may be time- or
/// epoch-triggered). Both directions of every crossing link are affected.
///
/// A partition forms at most once and heals for good: when `until` comes
/// before `from` (say `from: Epoch(2), until: Time(1)`), the window is
/// empty and the partition never forms.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionSpec {
    /// The ranks on one side of the cut.
    pub cut: Vec<RankId>,
    /// When the partition forms.
    pub from: SimAt,
    /// When it heals.
    pub until: SimAt,
    /// Drop or hold crossing packets.
    pub mode: PartitionMode,
}

/// A rank whose links are uniformly slow: every packet it sends or
/// receives has its latency multiplied by `factor`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StragglerSpec {
    /// The slow rank.
    pub rank: RankId,
    /// Latency multiplier (≥ 1).
    pub factor: u64,
}

/// A crash-recover window modeled as fail-stutter: the rank is not
/// scheduled between `at_ns` and `at_ns + duration_ns` (virtual time).
/// State survives — this models a process that froze and came back, not
/// one that lost memory; packets addressed to it queue (or, with the
/// reliability layer, are retransmitted) until it resumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StallSpec {
    /// The rank that stalls.
    pub rank: RankId,
    /// Virtual time the stall begins.
    pub at_ns: u64,
    /// How long it lasts.
    pub duration_ns: u64,
}

/// An asymmetric per-link latency override (exact `(from, to)` pair; the
/// reverse direction keeps the default unless overridden separately).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkSpec {
    /// Sending rank.
    pub from: RankId,
    /// Receiving rank.
    pub to: RankId,
    /// Base latency for this directed link, replacing
    /// [`SimPlan::latency_ns`].
    pub latency_ns: u64,
}

/// How often the installed invariant hook
/// ([`AmCtx::sim_invariant`](crate::AmCtx::sim_invariant)) runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InvariantCadence {
    /// At every epoch completion only (cheap).
    #[default]
    EveryEpoch,
    /// Before every packet delivery *and* at every epoch completion.
    EveryDelivery,
}

/// Where in simulated time an invariant check fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InvariantPoint {
    /// Immediately before a packet delivery (the machine is quiescent:
    /// no handler is executing anywhere).
    Delivery,
    /// The moment an epoch's termination was detected machine-wide.
    EpochEnd,
}

/// Context passed to an installed invariant hook.
#[derive(Debug, Clone)]
pub struct InvariantCtx {
    /// Virtual time of the check, nanoseconds.
    pub time_ns: u64,
    /// 1-indexed epoch generation in flight (best effort).
    pub epoch: u64,
    /// Packet deliveries applied so far.
    pub deliveries: u64,
    /// Which kind of point triggered the check.
    pub point: InvariantPoint,
}

/// The full description of one simulated schedule: the link model and the
/// adversarial elements, all derived deterministically from `seed`.
/// Identical plans (and identical programs) produce bit-identical runs.
#[derive(Debug, Clone, PartialEq)]
pub struct SimPlan {
    /// Seed for the deterministic jitter. Two plans differing only in
    /// seed explore different (but each exactly reproducible) schedules.
    pub seed: u64,
    /// Default per-packet link latency in virtual nanoseconds.
    pub latency_ns: u64,
    /// Serialization cost per coalesced message: a packet carrying `n`
    /// messages takes `n · per_msg_ns` longer — modeled bandwidth.
    pub per_msg_ns: u64,
    /// Extra latency drawn deterministically (per packet) from
    /// `[0, jitter_ns]`. Larger than `latency_ns` ⇒ reorder-heavy
    /// schedules: packets on one lane routinely overtake each other.
    pub jitter_ns: u64,
    /// Per-link latency overrides (asymmetric links).
    pub links: Vec<LinkSpec>,
    /// Partitions that form and heal.
    pub partitions: Vec<PartitionSpec>,
    /// Uniformly slow ranks.
    pub stragglers: Vec<StragglerSpec>,
    /// Crash-recover (fail-stutter) windows.
    pub stalls: Vec<StallSpec>,
    /// How often the installed invariant hook runs.
    pub cadence: InvariantCadence,
}

/// Stack size for the simulated rank threads. Rank bodies run real
/// algorithm code, so this must fit the deepest call chain; 512 KiB is
/// far above what the in-tree algorithms need while keeping 4096-rank
/// machines cheap (pages are committed on touch).
pub(crate) const STACK_SIZE: usize = 512 * 1024;
/// Virtual nanoseconds the clock advances when the event queue runs dry
/// and idle ranks are woken to pump transports / recheck termination.
const IDLE_QUANTUM_NS: u64 = 1_000;
/// Consecutive dry-queue wake rounds without any observable progress
/// (deliveries, counters, epochs, retransmissions) before the machine
/// fails with [`MachineError::SimStalled`] instead of spinning.
const STALL_ROUNDS_LIMIT: u64 = 1024;

impl SimPlan {
    /// A plan with uniform links, no perturbations, and default tuning.
    pub fn new(seed: u64) -> Self {
        SimPlan {
            seed,
            latency_ns: 1_000,
            per_msg_ns: 10,
            jitter_ns: 0,
            links: Vec::new(),
            partitions: Vec::new(),
            stragglers: Vec::new(),
            stalls: Vec::new(),
            cadence: InvariantCadence::default(),
        }
    }

    /// Set the default link latency.
    pub fn latency(mut self, ns: u64) -> Self {
        self.latency_ns = ns;
        self
    }

    /// Set the per-message serialization cost (bandwidth model).
    pub fn per_msg(mut self, ns: u64) -> Self {
        self.per_msg_ns = ns;
        self
    }

    /// Set the deterministic jitter bound.
    pub fn jitter(mut self, ns: u64) -> Self {
        self.jitter_ns = ns;
        self
    }

    /// Override one directed link's latency.
    pub fn link(mut self, from: RankId, to: RankId, latency_ns: u64) -> Self {
        self.links.push(LinkSpec {
            from,
            to,
            latency_ns,
        });
        self
    }

    /// Add a partition separating `cut` from everyone else.
    pub fn partition(
        mut self,
        cut: &[RankId],
        from: SimAt,
        until: SimAt,
        mode: PartitionMode,
    ) -> Self {
        self.partitions.push(PartitionSpec {
            cut: cut.to_vec(),
            from,
            until,
            mode,
        });
        self
    }

    /// Mark `rank` a straggler with the given latency multiplier.
    pub fn straggler(mut self, rank: RankId, factor: u64) -> Self {
        self.stragglers.push(StragglerSpec { rank, factor });
        self
    }

    /// Add a crash-recover stall window for `rank`.
    pub fn stall(mut self, rank: RankId, at_ns: u64, duration_ns: u64) -> Self {
        self.stalls.push(StallSpec {
            rank,
            at_ns,
            duration_ns,
        });
        self
    }

    /// Set the invariant cadence.
    pub fn invariant_cadence(mut self, c: InvariantCadence) -> Self {
        self.cadence = c;
        self
    }

    pub(crate) fn validate(&self, nranks: usize, reliability: bool) {
        for l in &self.links {
            assert!(
                l.from < nranks && l.to < nranks,
                "link override names rank out of range"
            );
        }
        for p in &self.partitions {
            assert!(
                !p.cut.is_empty(),
                "partition cut must name at least one rank"
            );
            for &r in &p.cut {
                assert!(r < nranks, "partition cut names rank {r} out of range");
            }
            if p.mode == PartitionMode::Drop {
                assert!(
                    reliability,
                    "Drop-mode partitions destroy packets and need the reliability \
                     layer to recover: install MachineConfig::faults (an inert \
                     FaultPlan::new(seed) suffices) or use PartitionMode::Hold"
                );
            }
        }
        for s in &self.stragglers {
            assert!(s.rank < nranks, "straggler rank out of range");
            assert!(s.factor >= 1, "straggler factor must be ≥ 1");
        }
        for s in &self.stalls {
            assert!(s.rank < nranks, "stall rank out of range");
            assert!(s.duration_ns > 0, "stall duration must be positive");
        }
    }
}

/// Summary of one simulated run: virtual-time totals, event counts, and a
/// digest of the recorder's timeline, network events included (two runs
/// with the same plan produce equal digests — the determinism tests
/// assert exactly this).
#[derive(Debug, Clone, Default)]
pub struct SimReport {
    /// Final virtual clock, nanoseconds: when the last rank finished, or
    /// the last packet still in flight then arrived. Plan events queued
    /// for later (a heal, a stall's end) are not applied.
    pub virtual_time_ns: u64,
    /// Packet deliveries applied.
    pub deliveries: u64,
    /// Acknowledgement deliveries applied.
    pub acks: u64,
    /// Total events processed (deliveries, acks, plan transitions).
    pub events: u64,
    /// Dry-queue wake rounds (each pumps transports and rechecks
    /// termination on every idle rank).
    pub wake_rounds: u64,
    /// Packets destroyed by Drop-mode partitions.
    pub partition_drops: u64,
    /// Packets parked (and later released) by Hold-mode partitions.
    pub partition_held: u64,
    /// FNV digest over every record the event recorder retains (virtual
    /// timestamps and the side ring's network events included). Equal
    /// digests ⇒ identical timelines.
    pub flight_digest: u64,
}

/// Hook type installed by [`AmCtx::sim_invariant`](crate::AmCtx::sim_invariant).
pub type InvariantHook = dyn Fn(&InvariantCtx) -> Result<(), String> + Send + Sync;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RankState {
    /// Holds the token.
    Running,
    /// Wants the token.
    Ready,
    /// Parked in an idle wait; a delivery or a dry-queue wake readies it.
    Idle,
    /// Parked in a collective; the round's last arrival readies it.
    Blocked,
    /// Rank body returned.
    Done,
}

/// Where a partition is in its one window. `Healed` is final: a heal
/// that comes before the start leaves the window empty.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Pending,
    Active,
    Healed,
}

enum SimEvent {
    Delivery { dest: RankId, pkt: Packet },
    PartitionStart(usize),
    PartitionEnd(usize),
    StallStart(RankId),
    StallEnd(RankId),
}

struct HeldPacket {
    uid: u64,
    dest: RankId,
    pkt: Packet,
}

struct SimState {
    now_ns: u64,
    next_uid: u64,
    registered: usize,
    threads: Vec<Option<Thread>>,
    rank_state: Vec<RankState>,
    stalled: Vec<bool>,
    queue: BTreeMap<(u64, u64), SimEvent>,
    phase: Vec<Phase>,
    held: Vec<HeldPacket>,
    // Collective arrive/publish state machine (rounds are serialized by
    // the token discipline; see `SimNet::all_reduce`).
    coll_arrived: usize,
    coll_acc: Option<u64>,
    coll_result: u64,
    coll_rounds: u64,
    // Epoch-end dedup + epoch-triggered plan transitions.
    last_epoch_seen: u64,
    // Watchdog.
    last_progress: Option<(u64, u64, u64, u64)>,
    no_progress_rounds: u64,
    // Counters for the report.
    deliveries: u64,
    acks: u64,
    events: u64,
    wake_rounds: u64,
    partition_drops: u64,
    partition_held: u64,
}

/// What the scheduler decided after a yield (computed under the state
/// lock, acted on outside it).
enum Outcome {
    /// Hand the token to this rank (possibly the yielder itself).
    Run(RankId),
    /// Every rank is done; nobody runs.
    AllDone,
    /// The scheduler detected a failure (stall, deadlock, invariant);
    /// fail the machine and unwind.
    Fail(MachineError),
    /// The machine is poisoned; scheduling is abandoned (all threads are
    /// awake and unwinding).
    Poisoned,
}

/// The simulated network + cooperative scheduler, installed in
/// [`Shared`](crate::machine::Shared) by
/// [`Machine::run_sim`](crate::Machine::run_sim).
pub(crate) struct SimNet {
    plan: SimPlan,
    nranks: usize,
    state: Mutex<SimState>,
    /// The rank currently holding the token (`usize::MAX` before start).
    current: AtomicUsize,
    poisoned: AtomicBool,
    /// Mirror of the virtual clock for the event recorder's timestamps.
    pub(crate) clock: Arc<AtomicU64>,
    invariant: Mutex<Option<Arc<InvariantHook>>>,
}

impl SimNet {
    pub(crate) fn new(plan: SimPlan, nranks: usize) -> Self {
        let mut queue = BTreeMap::new();
        let mut next_uid = 0u64;
        let mut uid = |q: &mut BTreeMap<(u64, u64), SimEvent>, t: u64, ev: SimEvent| {
            let u = next_uid;
            next_uid += 1;
            q.insert((t, u), ev);
        };
        for (i, p) in plan.partitions.iter().enumerate() {
            if let SimAt::Time(t) = p.from {
                uid(&mut queue, t, SimEvent::PartitionStart(i));
            }
            // `Time(u64::MAX)` means the partition never heals — seeding
            // an end event would let the clock jump to the end of time.
            if let SimAt::Time(t) = p.until {
                if t != u64::MAX {
                    uid(&mut queue, t, SimEvent::PartitionEnd(i));
                }
            }
        }
        for s in &plan.stalls {
            uid(&mut queue, s.at_ns, SimEvent::StallStart(s.rank));
            uid(
                &mut queue,
                s.at_ns.saturating_add(s.duration_ns),
                SimEvent::StallEnd(s.rank),
            );
        }
        let phase = vec![Phase::Pending; plan.partitions.len()];
        SimNet {
            nranks,
            plan,
            state: Mutex::new(SimState {
                now_ns: 0,
                next_uid,
                registered: 0,
                threads: (0..nranks).map(|_| None).collect(),
                rank_state: vec![RankState::Ready; nranks],
                stalled: vec![false; nranks],
                queue,
                phase,
                held: Vec::new(),
                coll_arrived: 0,
                coll_acc: None,
                coll_result: 0,
                coll_rounds: 0,
                last_epoch_seen: 0,
                last_progress: None,
                no_progress_rounds: 0,
                deliveries: 0,
                acks: 0,
                events: 0,
                wake_rounds: 0,
                partition_drops: 0,
                partition_held: 0,
            }),
            current: AtomicUsize::new(usize::MAX),
            poisoned: AtomicBool::new(false),
            clock: Arc::new(AtomicU64::new(0)),
            invariant: Mutex::new(None),
        }
    }

    /// Install the invariant hook (first installer wins — ranks race
    /// benignly when each installs the same check).
    pub(crate) fn set_invariant(&self, hook: Arc<InvariantHook>) {
        let mut slot = self.invariant.lock();
        if slot.is_none() {
            *slot = Some(hook);
        }
    }

    /// Abandon deterministic scheduling and wake every parked thread so
    /// they can observe the machine's poison and unwind.
    pub(crate) fn poison(&self) {
        self.poisoned.store(true, SeqCst);
        let st = self.state.lock();
        for t in st.threads.iter().flatten() {
            t.unpark();
        }
    }

    // ------------------------------------------------------------------
    // Token discipline
    // ------------------------------------------------------------------

    /// Called by each rank thread at startup: register the thread handle
    /// and park until the scheduler hands over the token. The last
    /// registrant triggers the first dispatch (lowest rank first).
    pub(crate) fn attach(&self, shared: &Shared, rank: RankId) {
        let outcome = {
            let mut st = self.state.lock();
            st.threads[rank] = Some(std::thread::current());
            st.registered += 1;
            if st.registered == self.nranks {
                Some(self.schedule_locked(&mut st, shared))
            } else {
                None
            }
        };
        if let Some(o) = outcome {
            self.dispatch(o, rank, shared);
        }
        self.wait_token(rank);
    }

    /// Yield the token with the given parked state, let the scheduler run,
    /// and (unless `Done`) park until the token comes back.
    fn yield_token(&self, shared: &Shared, rank: RankId, parked: RankState) {
        if self.poisoned.load(SeqCst) {
            return;
        }
        let outcome = {
            let mut st = self.state.lock();
            st.rank_state[rank] = parked;
            self.schedule_locked(&mut st, shared)
        };
        self.dispatch(outcome, rank, shared);
        if parked != RankState::Done {
            self.wait_token(rank);
        }
    }

    /// Act on a scheduling decision: store the token owner and unpark it,
    /// or fail the machine.
    fn dispatch(&self, outcome: Outcome, me: RankId, shared: &Shared) {
        match outcome {
            Outcome::Run(next) => {
                self.current.store(next, Release);
                if next != me {
                    let st = self.state.lock();
                    if let Some(t) = &st.threads[next] {
                        t.unpark();
                    }
                }
            }
            Outcome::AllDone => {}
            Outcome::Poisoned => {}
            // fail() poisons the machine, which poisons the sim and wakes
            // everyone.
            Outcome::Fail(err) => shared.fail(err, None),
        }
    }

    /// The machine-wide *useful*-progress fingerprint the scheduler's
    /// watchdog and idle-poll policy compare across wake rounds: any
    /// change means some rank still has work to discover when polled.
    /// Deliberately excludes retransmission and raw event counts — a
    /// permanently partitioned lane retransmits (and re-drops) forever,
    /// and counting that as progress would turn a stall into a livelock
    /// the watchdog can never catch.
    fn progress_of(st: &SimState, shared: &Shared) -> (u64, u64, u64, u64) {
        (
            st.deliveries,
            shared.total_sent(),
            shared.total_handled(),
            shared.completed_epoch.load(SeqCst),
        )
    }

    fn wait_token(&self, rank: RankId) {
        loop {
            if self.poisoned.load(SeqCst) {
                return;
            }
            if self.current.load(Acquire) == rank {
                return;
            }
            std::thread::park();
        }
    }

    /// The scheduler: pick the next runnable rank, applying queued events
    /// (advancing virtual time) and dry-queue wakes as needed. Runs under
    /// the state lock on whichever thread is yielding.
    fn schedule_locked(&self, st: &mut SimState, shared: &Shared) -> Outcome {
        loop {
            if self.poisoned.load(SeqCst) {
                return Outcome::Poisoned;
            }
            // 1. Lowest-id runnable rank wins (deterministic).
            if let Some(r) =
                (0..self.nranks).find(|&r| st.rank_state[r] == RankState::Ready && !st.stalled[r])
            {
                st.rank_state[r] = RankState::Running;
                return Outcome::Run(r);
            }
            // 2. No runnable rank. Decide between applying the next queued
            //    event and polling idle ranks. An idle rank may be waiting
            //    on machine state that already changed (epoch completion,
            //    a retransmit timer), and jumping the clock to a far-future
            //    plan event first would let that event (e.g. a heal)
            //    overtake work that logically precedes it — so before any
            //    time jump past the idle-poll horizon, idle ranks get one
            //    poll; once a poll proves unproductive, the jump happens.
            let any_idle =
                (0..self.nranks).any(|r| st.rank_state[r] == RankState::Idle && !st.stalled[r]);
            let progress = Self::progress_of(st, shared);
            let poll_due = any_idle
                && st.last_progress != Some(progress)
                && st
                    .queue
                    .first_key_value()
                    .map(|(&(t, _), _)| t > st.now_ns.saturating_add(IDLE_QUANTUM_NS))
                    .unwrap_or(true);
            if !poll_due {
                // Once every rank is done, only traffic still in flight
                // moves the clock: a plan event left in the queue (a heal,
                // a stall end) would date the run's end after it.
                if Self::all_done(st) && !Self::in_flight(st) {
                    return Outcome::AllDone;
                }
                if let Some(((t, _), ev)) = st.queue.pop_first() {
                    if t > st.now_ns {
                        st.now_ns = t;
                        self.clock.store(t, Relaxed);
                    }
                    st.events += 1;
                    if let Err(err) = self.apply_event(st, shared, ev) {
                        return Outcome::Fail(err);
                    }
                    continue;
                }
            }
            // 3. Queue dry (or an idle poll is due). All done?
            if Self::all_done(st) {
                return Outcome::AllDone;
            }
            // 4. Idle ranks exist: wake them all so transports pump and
            //    termination is rechecked — with a no-progress watchdog so
            //    a truly stalled machine fails instead of spinning.
            if any_idle {
                let (_, sent, handled, _) = progress;
                if st.last_progress == Some(progress) {
                    st.no_progress_rounds += 1;
                    if st.no_progress_rounds >= STALL_ROUNDS_LIMIT {
                        return Outcome::Fail(MachineError::SimStalled {
                            rounds: st.no_progress_rounds,
                            time_ns: st.now_ns,
                            sent,
                            handled,
                        });
                    }
                } else {
                    st.last_progress = Some(progress);
                    st.no_progress_rounds = 0;
                }
                st.wake_rounds += 1;
                st.now_ns = st.now_ns.saturating_add(IDLE_QUANTUM_NS);
                self.clock.store(st.now_ns, Relaxed);
                for r in 0..self.nranks {
                    if st.rank_state[r] == RankState::Idle && !st.stalled[r] {
                        st.rank_state[r] = RankState::Ready;
                    }
                }
                continue;
            }
            // 5. Only Blocked / Done / stalled-idle ranks remain and the
            //    queue is dry: a collective that can never complete (some
            //    rank is already done or permanently stalled).
            return Outcome::Fail(MachineError::Poisoned {
                message: format!(
                    "simulated collective deadlock at t={}ns: ranks blocked with \
                     no pending events",
                    st.now_ns
                ),
            });
        }
    }

    fn all_done(st: &SimState) -> bool {
        st.rank_state.iter().all(|&s| s == RankState::Done)
    }

    /// Whether a packet (an ack included) is still on its way: queued
    /// for delivery, or parked by a partition.
    fn in_flight(st: &SimState) -> bool {
        !st.held.is_empty()
            || st
                .queue
                .values()
                .any(|ev| matches!(ev, SimEvent::Delivery { .. }))
    }

    /// Whether the (from → to) link currently crosses an active
    /// partition; returns the mode of the first covering one.
    fn link_down(&self, st: &SimState, from: RankId, to: RankId) -> Option<PartitionMode> {
        self.plan
            .partitions
            .iter()
            .zip(&st.phase)
            .find(|&(p, &ph)| ph == Phase::Active && p.cut.contains(&from) != p.cut.contains(&to))
            .map(|(p, _)| p.mode)
    }

    fn apply_event(
        &self,
        st: &mut SimState,
        shared: &Shared,
        ev: SimEvent,
    ) -> Result<(), MachineError> {
        match ev {
            // Acks are partition-exempt (no retransmit layer covers acks
            // themselves), and they are not deliveries.
            SimEvent::Delivery {
                dest,
                pkt: Packet::Ack(ack),
            } => {
                st.acks += 1;
                note(shared, "sim.ack", ack.to, 0, dest as u64);
                shared.deliver(dest, Packet::Ack(ack));
                self.wake_rank(st, dest);
            }
            SimEvent::Delivery { dest, pkt } => {
                match self.link_down(st, pkt.origin(), dest) {
                    Some(PartitionMode::Drop) => {
                        st.partition_drops += 1;
                        note_packet(shared, "sim.partition_drop", dest, &pkt);
                        return Ok(());
                    }
                    Some(PartitionMode::Hold) => {
                        st.partition_held += 1;
                        note_packet(shared, "sim.partition_hold", dest, &pkt);
                        let uid = st.next_uid;
                        st.next_uid += 1;
                        st.held.push(HeldPacket { uid, dest, pkt });
                        return Ok(());
                    }
                    None => {}
                }
                if self.plan.cadence == InvariantCadence::EveryDelivery {
                    self.check_invariant(st, shared, InvariantPoint::Delivery)?;
                }
                st.deliveries += 1;
                note_packet(shared, "sim.deliver", dest, &pkt);
                shared.deliver(dest, pkt);
                self.wake_rank(st, dest);
            }
            SimEvent::PartitionStart(i) => self.start_partition(st, shared, i),
            SimEvent::PartitionEnd(i) => {
                if self.heal_partition(st, shared, i) {
                    self.release_held(st, shared);
                }
            }
            SimEvent::StallStart(r) => {
                st.stalled[r] = true;
                note(shared, "sim.stall_start", r, 0, 0);
            }
            SimEvent::StallEnd(r) => {
                st.stalled[r] = false;
                note(shared, "sim.stall_end", r, 0, 0);
                // A stalled rank may have accumulated deliveries; a
                // spurious wake is harmless.
                self.wake_rank(st, r);
            }
        }
        Ok(())
    }

    /// Form partition `i`, unless it has already healed.
    fn start_partition(&self, st: &mut SimState, shared: &Shared, i: usize) {
        if st.phase[i] == Phase::Pending {
            st.phase[i] = Phase::Active;
            note(
                shared,
                "sim.partition_up",
                self.plan.partitions[i].cut[0],
                i as u64,
                0,
            );
        }
    }

    /// Heal partition `i` for good; true when it was active, so packets
    /// it held may flow again.
    fn heal_partition(&self, st: &mut SimState, shared: &Shared, i: usize) -> bool {
        let was = std::mem::replace(&mut st.phase[i], Phase::Healed);
        note(
            shared,
            "sim.partition_down",
            self.plan.partitions[i].cut[0],
            i as u64,
            0,
        );
        was == Phase::Active
    }

    /// Re-enqueue held packets whose links are clear again, preserving
    /// their original relative order.
    fn release_held(&self, st: &mut SimState, shared: &Shared) {
        let held = std::mem::take(&mut st.held);
        let (mut released, keep): (Vec<_>, Vec<_>) = held
            .into_iter()
            .partition(|h| self.link_down(st, h.pkt.origin(), h.dest).is_none());
        released.sort_by_key(|h| h.uid);
        for h in released {
            let uid = st.next_uid;
            st.next_uid += 1;
            note_packet(shared, "sim.release", h.dest, &h.pkt);
            st.queue.insert(
                (st.now_ns, uid),
                SimEvent::Delivery {
                    dest: h.dest,
                    pkt: h.pkt,
                },
            );
        }
        st.held = keep;
    }

    fn wake_rank(&self, st: &mut SimState, r: RankId) {
        if st.rank_state[r] == RankState::Idle && !st.stalled[r] {
            st.rank_state[r] = RankState::Ready;
        }
    }

    fn check_invariant(
        &self,
        st: &mut SimState,
        shared: &Shared,
        point: InvariantPoint,
    ) -> Result<(), MachineError> {
        let hook = self.invariant.lock().clone();
        let Some(hook) = hook else {
            return Ok(());
        };
        let epoch = shared.current_epoch_hint();
        let ctx = InvariantCtx {
            time_ns: st.now_ns,
            epoch,
            deliveries: st.deliveries,
            point,
        };
        match hook(&ctx) {
            Ok(()) => Ok(()),
            Err(detail) => Err(MachineError::InvariantViolated {
                epoch,
                time_ns: st.now_ns,
                point: format!("{point:?}"),
                detail,
            }),
        }
    }

    // ------------------------------------------------------------------
    // Seams called from the machine
    // ------------------------------------------------------------------

    /// Deterministic modeled latency for one packet.
    fn latency(&self, from: RankId, to: RankId, count: u32, uid: u64) -> u64 {
        let t = self.unjittered_latency(from, to, count);
        if self.plan.jitter_ns == 0 {
            return t;
        }
        let h = mix64(
            self.plan.seed
                ^ ((from as u64) << 40)
                ^ ((to as u64) << 20)
                ^ uid.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        t.saturating_add(h % (self.plan.jitter_ns + 1))
    }

    /// The longest round trip the plan models for a packet of `count`
    /// messages from `from` to `to` and its ack back: both legs with
    /// their link, straggler and per-message costs, each at full jitter.
    /// The reliability layer floors its timeouts here.
    pub(crate) fn round_trip_ns(&self, from: RankId, to: RankId, count: u32) -> u64 {
        self.unjittered_latency(from, to, count)
            .saturating_add(self.unjittered_latency(to, from, 0))
            .saturating_add(self.plan.jitter_ns.saturating_mul(2))
    }

    /// [`latency`](Self::latency) before its jitter.
    fn unjittered_latency(&self, from: RankId, to: RankId, count: u32) -> u64 {
        let mut base = self.plan.latency_ns;
        for l in &self.plan.links {
            if l.from == from && l.to == to {
                base = l.latency_ns;
                break;
            }
        }
        for s in &self.plan.stragglers {
            if s.rank == from || s.rank == to {
                base = base.saturating_mul(s.factor);
            }
        }
        base.saturating_add(self.plan.per_msg_ns.saturating_mul(count as u64))
    }

    /// Seam for [`Shared::push_packet`]: schedule the packet's arrival.
    /// An ack travels the reverse link (`ack.to` → `ack.from`) and
    /// carries no messages.
    pub(crate) fn enqueue_packet(&self, dest: RankId, pkt: Packet) {
        let mut st = self.state.lock();
        let uid = st.next_uid;
        st.next_uid += 1;
        let arrival = st
            .now_ns
            .saturating_add(self.latency(pkt.origin(), dest, pkt.count(), uid));
        st.queue
            .insert((arrival, uid), SimEvent::Delivery { dest, pkt });
    }

    /// Sim-mode idle wait, replacing the termination waits' doorbell
    /// park: park until a delivery (or a dry-queue wake) makes running
    /// this rank useful again.
    pub(crate) fn idle_wait(&self, shared: &Shared, rank: RankId) {
        self.yield_token(shared, rank, RankState::Idle);
    }

    /// Sim-mode collective (all-reduce), replacing the condvar
    /// [`Collective`](crate::collectives::Collective): arrive, combine,
    /// publish on last arrival, park otherwise. The token discipline
    /// serializes rounds — between this thread's arrival and its park no
    /// other rank can run, so the single result slot is race-free.
    pub(crate) fn all_reduce(
        &self,
        shared: &Shared,
        rank: RankId,
        mine: u64,
        op: impl Fn(u64, u64) -> u64,
    ) -> u64 {
        if self.poisoned.load(SeqCst) {
            std::panic::resume_unwind(Box::new(Abort));
        }
        let must_wait = {
            let mut st = self.state.lock();
            let combined = match st.coll_acc.take() {
                None => mine,
                Some(a) => op(a, mine),
            };
            let live = st
                .rank_state
                .iter()
                .filter(|&&s| s != RankState::Done)
                .count();
            st.coll_arrived += 1;
            if st.coll_arrived >= live {
                st.coll_result = combined;
                st.coll_arrived = 0;
                st.coll_rounds += 1;
                st.coll_acc = None;
                for r in 0..self.nranks {
                    if st.rank_state[r] == RankState::Blocked {
                        st.rank_state[r] = RankState::Ready;
                    }
                }
                false
            } else {
                st.coll_acc = Some(combined);
                true
            }
        };
        if must_wait {
            self.yield_token(shared, rank, RankState::Blocked);
            if self.poisoned.load(SeqCst) {
                std::panic::resume_unwind(Box::new(Abort));
            }
        }
        self.state.lock().coll_result
    }

    /// Collective rounds completed so far (advanced by each round's last
    /// arrival, before anyone is released).
    pub(crate) fn collective_rounds(&self) -> u64 {
        self.state.lock().coll_rounds
    }

    /// Called by every rank as it exits an epoch: runs epoch-triggered
    /// plan transitions and the epoch-cadence invariant check, exactly
    /// once per generation (first arrival wins; termination has already
    /// been detected machine-wide, so the machine is quiescent).
    pub(crate) fn on_epoch_end(&self, shared: &Shared, gen: u64) {
        let failed = {
            let mut st = self.state.lock();
            if gen <= st.last_epoch_seen {
                return;
            }
            st.last_epoch_seen = gen;
            let mut healed = false;
            for (i, p) in self.plan.partitions.iter().enumerate() {
                if p.from == SimAt::Epoch(gen) {
                    self.start_partition(&mut st, shared, i);
                }
                if p.until == SimAt::Epoch(gen) {
                    healed |= self.heal_partition(&mut st, shared, i);
                }
            }
            if healed {
                self.release_held(&mut st, shared);
            }
            self.check_invariant(&mut st, shared, InvariantPoint::EpochEnd)
                .err()
        };
        if let Some(err) = failed {
            shared.fail(err, None);
            std::panic::resume_unwind(Box::new(Abort));
        }
    }

    /// Called by a rank thread when its body (and teardown) finished.
    pub(crate) fn finish(&self, shared: &Shared, rank: RankId) {
        self.yield_token(shared, rank, RankState::Done);
    }

    /// Assemble the run report. Call after every rank thread has been
    /// joined (the event rings are quiescent by then).
    pub(crate) fn report(&self, shared: &Shared) -> SimReport {
        let st = self.state.lock();
        let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
        let mut fold = |x: u64| {
            digest ^= x;
            digest = digest.wrapping_mul(0x1000_0000_01b3);
        };
        // Rings in (rank, thread) order, each oldest first.
        for ev in shared.recorder.all_spans() {
            for b in ev.name.bytes() {
                fold(b as u64);
            }
            for x in [
                ev.rank as u64,
                ev.thread as u64,
                ev.kind as u64,
                ev.start_ns,
                ev.dur_ns,
                ev.arg0,
                ev.arg1,
                ev.flow_in,
                ev.flow_out,
            ] {
                fold(x);
            }
        }
        SimReport {
            virtual_time_ns: st.now_ns,
            deliveries: st.deliveries,
            acks: st.acks,
            events: st.events,
            wake_rounds: st.wake_rounds,
            partition_drops: st.partition_drops,
            partition_held: st.partition_held,
            flight_digest: digest,
        }
    }
}

/// Record one applied network event: an instant
/// [`SpanKind::Transport`] record on the virtual clock, in the recorder's
/// side ring. The scheduler runs on whichever rank thread yields; writing
/// that rank's ring would evict the rank's own records.
fn note(shared: &Shared, name: &'static str, rank: RankId, arg0: u64, arg1: u64) {
    let rec = &shared.recorder;
    if let Some(now) = rec.clock() {
        rec.push_side(&SpanRecord {
            kind: SpanKind::Transport,
            name,
            rank,
            thread: 0,
            start_ns: now,
            dur_ns: 0,
            epoch: shared.current_epoch_hint(),
            arg0,
            arg1,
            flow_in: 0,
            flow_out: 0,
        });
    }
}

/// [`note`] for a data packet's event, with the arguments laid out as on
/// [`SpanKind::Ship`]: `rank` = sender, `arg0` = `(type_id << 32) |
/// count`, `arg1` = destination. (An ack is noted as `sim.ack` instead.)
fn note_packet(shared: &Shared, name: &'static str, dest: RankId, pkt: &Packet) {
    if let Packet::Data { from, env, .. } = pkt {
        let ship = ((env.type_id as u64) << 32) | env.count as u64;
        note(shared, name, *from, ship, dest as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_builders_chain() {
        let p = SimPlan::new(7)
            .latency(500)
            .per_msg(2)
            .jitter(100)
            .link(0, 1, 9_000)
            .partition(&[0], SimAt::Epoch(1), SimAt::Epoch(2), PartitionMode::Hold)
            .straggler(2, 8)
            .stall(1, 1_000, 5_000)
            .invariant_cadence(InvariantCadence::EveryDelivery);
        assert_eq!(p.latency_ns, 500);
        assert_eq!(p.links.len(), 1);
        assert_eq!(p.partitions.len(), 1);
        assert_eq!(p.stragglers.len(), 1);
        assert_eq!(p.stalls.len(), 1);
        p.validate(4, false);
    }

    #[test]
    #[should_panic(expected = "Drop-mode partitions")]
    fn drop_partition_requires_reliability() {
        SimPlan::new(1)
            .partition(&[0], SimAt::Time(0), SimAt::Time(1), PartitionMode::Drop)
            .validate(2, false);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn partition_rank_bounds_checked() {
        SimPlan::new(1)
            .partition(&[9], SimAt::Time(0), SimAt::Time(1), PartitionMode::Hold)
            .validate(2, false);
    }

    #[test]
    fn latency_model_is_deterministic_and_asymmetric() {
        let net = SimNet::new(SimPlan::new(3).latency(100).per_msg(1).link(0, 1, 900), 4);
        assert_eq!(net.latency(0, 1, 10, 5), 910);
        assert_eq!(net.latency(1, 0, 10, 5), 110, "reverse link keeps default");
        assert_eq!(net.latency(2, 3, 0, 0), 100);
    }

    #[test]
    fn straggler_scales_both_directions() {
        let net = SimNet::new(SimPlan::new(0).latency(10).per_msg(0).straggler(2, 5), 4);
        assert_eq!(net.latency(2, 0, 0, 0), 50);
        assert_eq!(net.latency(0, 2, 0, 0), 50);
        assert_eq!(net.latency(0, 1, 0, 0), 10);
    }

    #[test]
    fn jitter_is_seed_stable() {
        let a = SimNet::new(SimPlan::new(42).latency(0).per_msg(0).jitter(1000), 2);
        let b = SimNet::new(SimPlan::new(42).latency(0).per_msg(0).jitter(1000), 2);
        let c = SimNet::new(SimPlan::new(43).latency(0).per_msg(0).jitter(1000), 2);
        assert_eq!(a.latency(0, 1, 0, 7), b.latency(0, 1, 0, 7));
        // Different seeds almost surely differ somewhere in a small scan.
        let differs = (0..16).any(|u| a.latency(0, 1, 0, u) != c.latency(0, 1, 0, u));
        assert!(differs, "seed must perturb jitter");
    }
}
