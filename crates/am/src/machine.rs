//! The simulated distributed machine: ranks, typed messages, handlers,
//! epochs.
//!
//! See the crate docs for the model. The important invariants maintained
//! here:
//!
//! * every logical message increments its sender rank's `sent` counter
//!   *before* it becomes receivable (it enters a coalescing buffer first,
//!   and the thread-local counter delta it was tallied into is published
//!   before the buffer ships), and the handling rank's `handled` counter
//!   after its handler returns — the basis of termination detection (see
//!   [`crate::termination`] and INTERNALS.md §9);
//! * user code only ever holds an [`AmCtx`] for its own rank/thread, and all
//!   cross-rank effects go through messages;
//! * handlers may send arbitrary messages, including to their own rank.

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{
    AtomicBool, AtomicU64, AtomicUsize,
    Ordering::{Relaxed, SeqCst},
};
use std::sync::Arc;
use std::time::Instant;

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::RwLock;

use crate::addressing::AddressMap;
use crate::coalescing::{ErasedBuffers, TypedBuffers};
use crate::collectives::Collective;
use crate::config::{MachineConfig, TerminationMode};
use crate::error::{panic_message, Abort, MachineError};
use crate::fault::{FaultPlan, Reliability};
use crate::obs::{
    self, EpochProfile, EpochProfiler, MetricsReport, Recorder, SpanGuard, SpanKind, SpanRecord,
};
use crate::sim::{InvariantCtx, SimNet, SimPlan, SimReport};
use crate::stats::{MachineStats, StatsSnapshot, TypeStat, TypeStatSnapshot};
use crate::termination::{ring_next, Token};
use crate::trace::{
    mix64, FailCause, FlightCollector, FlightEvent, FlightKind, FlightRing, PostMortem, TraceCtx,
};

/// Index of a rank (simulated node) within a machine.
pub type RankId = usize;

/// A batch of coalesced messages of one type, in flight to one rank.
pub(crate) struct Envelope {
    pub(crate) type_id: u32,
    pub(crate) count: u32,
    /// Causal context ([`TraceCtx::NONE`] for the untraced common case).
    /// An envelope is attributed to the first traced message coalesced
    /// into it; its `event` id is assigned when it ships.
    pub(crate) trace: TraceCtx,
    pub(crate) payload: Box<dyn Any + Send>,
    /// Monomorphized payload replicator (see [`crate::coalescing`]): lets
    /// the type-erased reliability layer copy the payload for retransmit
    /// and duplicate injection.
    pub(crate) clone_payload: fn(&(dyn Any + Send)) -> Box<dyn Any + Send>,
}

impl Envelope {
    /// A deep copy of this envelope (payload included). The trace context
    /// is copied verbatim: a retransmitted or duplicated envelope is the
    /// *same* causal event, not a new one.
    pub(crate) fn duplicate(&self) -> Envelope {
        Envelope {
            type_id: self.type_id,
            count: self.count,
            trace: self.trace,
            payload: (self.clone_payload)(self.payload.as_ref()),
            clone_payload: self.clone_payload,
        }
    }
}

/// What actually travels through a rank inbox: an envelope stamped with
/// its sender and (when the reliability layer is installed) a per-lane
/// sequence number. `seq == 0` means "unsequenced" — the perfect
/// transport, no ack expected.
pub(crate) struct Packet {
    pub(crate) from: RankId,
    pub(crate) seq: u64,
    pub(crate) env: Envelope,
}

/// Receiver-to-sender acknowledgement of one sequenced packet.
pub(crate) struct Ack {
    /// The rank that sent the acknowledged packet (the ack's destination).
    pub(crate) from: RankId,
    /// The rank that received the packet (the ack's origin).
    pub(crate) to: RankId,
    pub(crate) seq: u64,
}

type ErasedHandler = dyn Fn(&AmCtx, Box<dyn Any + Send>, u32) + Send + Sync;

/// Layers that hold messages back (e.g. reduction tables) register
/// themselves so the runtime can flush them while detecting termination.
pub trait Flushable: Send + Sync {
    /// Forward all held messages. Returns how many were forwarded.
    fn flush(&self, ctx: &AmCtx) -> usize;
    /// Messages currently held.
    fn pending(&self) -> usize;
}

pub(crate) struct RankShared {
    tx: Sender<Packet>,
    rx: Receiver<Packet>,
    ctl_tx: Sender<Token>,
    ctl_rx: Receiver<Token>,
    /// Acknowledgements addressed to this rank (only used when the
    /// reliability layer is installed).
    ack_tx: Sender<Ack>,
    ack_rx: Receiver<Ack>,
    handlers: RwLock<Vec<Arc<ErasedHandler>>>,
    flushables: RwLock<Vec<Arc<dyn Flushable>>>,
    /// Length of `flushables`, readable without the lock: threads compare
    /// it against their frozen snapshot to detect staleness (registration
    /// is append-only, so length is a version number).
    flushables_len: AtomicUsize,
    sent: AtomicU64,
    handled: AtomicU64,
    idle: AtomicBool,
}

/// Per-thread counter deltas accumulated on the send/dispatch hot path
/// and published to the shared atomics at envelope boundaries (see
/// [`AmCtx::publish_deltas`] for the flush points and the ordering
/// discipline). Cell-based and unsynchronized: an [`AmCtx`] is `!Sync`,
/// so each instance is only ever touched by its own thread.
#[derive(Default)]
struct PendingDeltas {
    /// Fast-path guard: set whenever any delta below is nonzero.
    dirty: Cell<bool>,
    /// Messages accepted for sending, not yet in the rank's `sent`.
    sent: Cell<u64>,
    /// Messages handled, not yet in the rank's `handled`.
    handled: Cell<u64>,
    cache_hits: Cell<u64>,
    cache_misses: Cell<u64>,
    reduction_combines: Cell<u64>,
    reduction_forwards: Cell<u64>,
    /// Per message type `(sent, handled)`, indexed by type id.
    per_type: RefCell<Vec<(u64, u64)>>,
}

impl PendingDeltas {
    #[inline]
    fn add(cell: &Cell<u64>, n: u64) {
        cell.set(cell.get() + n);
    }

    #[inline]
    fn note_sent(&self, type_id: u32) {
        Self::add(&self.sent, 1);
        self.note_type(type_id, 1, 0);
    }

    #[inline]
    fn note_handled(&self, type_id: u32, n: u64) {
        Self::add(&self.handled, n);
        self.note_type(type_id, 0, n);
    }

    #[inline]
    fn note_type(&self, type_id: u32, sent: u64, handled: u64) {
        let mut pt = self.per_type.borrow_mut();
        let idx = type_id as usize;
        if pt.len() <= idx {
            pt.resize(idx + 1, (0, 0));
        }
        pt[idx].0 += sent;
        pt[idx].1 += handled;
        self.dirty.set(true);
    }
}

/// Immutable snapshots of the registration tables, refreshed from the
/// `RwLock`-guarded originals at epoch entry (rank main threads) or on a
/// miss (worker threads) — never on the per-message path. Registration is
/// append-only with dense ids, so "my snapshot covers this id" is exactly
/// "my snapshot entry is current".
#[derive(Default)]
struct LocalTables {
    handlers: Arc<[Arc<ErasedHandler>]>,
    type_stats: Arc<[Arc<TypeStat>]>,
    flushables: Arc<[Arc<dyn Flushable>]>,
}

pub(crate) struct Shared {
    pub(crate) cfg: MachineConfig,
    pub(crate) ranks: Vec<RankShared>,
    /// Number of ranks currently between epoch entry and exit (for asserts).
    epoch_active: AtomicUsize,
    /// Highest epoch generation whose termination has been observed.
    pub(crate) completed_epoch: AtomicU64,
    shutdown: AtomicBool,
    /// Set when any thread panics, so blocked peers fail fast.
    poisoned: AtomicBool,
    coll: Collective,
    /// Scratch slot for the collective `share` primitive.
    share_slot: parking_lot::Mutex<Option<Box<dyn Any + Send>>>,
    /// Per-message-type counters, indexed by type id (registration is
    /// collective, so ids agree across ranks).
    type_stats: RwLock<Vec<Arc<TypeStat>>>,
    /// Optional span/histogram recorder ([`MachineConfig::profile`]); the
    /// disabled path everywhere is one branch on this `Option`.
    pub(crate) obs: Option<Recorder>,
    /// Always-on per-epoch counter snapshotting (see [`crate::obs`]).
    epoch_prof: EpochProfiler,
    /// Reliability + fault-injection layer; installed when
    /// [`MachineConfig::faults`] is set or when a lossy wire backend is
    /// selected (then with an inject-nothing plan — see
    /// [`FaultPlan::wire_default`]); `None` keeps the perfect in-process
    /// transport.
    reliability: Option<Reliability>,
    /// Wire transport backend ([`MachineConfig::transport`]); `None` is
    /// the inproc default — packets go straight into inbox channels —
    /// and sim mode always runs with `None` (the event queue *is* its
    /// transport).
    wire: Option<Arc<dyn crate::transport::Transport>>,
    /// The first failure recorded on this machine (first-wins; see
    /// [`Shared::fail`]).
    failure: parking_lot::Mutex<Option<MachineError>>,
    /// The original panic payload behind `failure`, when there is one —
    /// [`Machine::run`] re-raises it so panic messages survive verbatim.
    failure_payload: parking_lot::Mutex<Option<Box<dyn Any + Send>>>,
    /// Always-on flight recorder: per-thread rings deposit here at thread
    /// exit; frozen by the first recorded failure (see [`crate::trace`]).
    pub(crate) flight: FlightCollector,
    /// Allocator for causal event ids (traced envelopes only — untraced
    /// ships never touch it).
    trace_eid: AtomicU64,
    /// Causal-trace sampler seed (see
    /// [`MachineConfig::trace_sampling`]).
    trace_seed: u64,
    /// Causal context of the envelope whose handler recorded the machine's
    /// failure (first-wins, alongside `failure`).
    fail_cause: parking_lot::Mutex<Option<FailCause>>,
    /// Discrete-event network + cooperative scheduler, installed by
    /// [`Machine::run_sim`]; `None` for threaded runs (see [`crate::sim`]).
    pub(crate) sim: Option<SimNet>,
    pub(crate) stats: MachineStats,
}

impl Shared {
    fn new(
        cfg: MachineConfig,
        sim: Option<SimNet>,
        wire: Option<Arc<dyn crate::transport::Transport>>,
    ) -> Self {
        let ranks = (0..cfg.ranks)
            .map(|_| {
                let (tx, rx) = unbounded();
                let (ctl_tx, ctl_rx) = unbounded();
                let (ack_tx, ack_rx) = unbounded();
                RankShared {
                    tx,
                    rx,
                    ctl_tx,
                    ctl_rx,
                    ack_tx,
                    ack_rx,
                    handlers: RwLock::new(Vec::new()),
                    flushables: RwLock::new(Vec::new()),
                    flushables_len: AtomicUsize::new(0),
                    sent: AtomicU64::new(0),
                    handled: AtomicU64::new(0),
                    idle: AtomicBool::new(false),
                }
            })
            .collect();
        let participants = cfg.ranks;
        let obs = cfg
            .profile
            .then(|| Recorder::new(cfg.ranks, cfg.profile_spans));
        // A lossy wire backend (TCP) makes the reliability layer
        // load-bearing: install it with an inject-nothing plan when the
        // user did not configure faults of their own, and — wire or
        // faults either way — retime it to the wall clock, because pump
        // counts race far ahead of real network round trips.
        let fault_plan = cfg.faults.clone().or_else(|| {
            wire.as_ref()
                .is_some_and(|w| w.lossy())
                .then(FaultPlan::wire_default)
        });
        let reliability = fault_plan.map(|plan| {
            let mut r = Reliability::new(plan, cfg.ranks, sim.as_ref().map(|s| s.clock.clone()));
            if sim.is_none() && wire.is_some() {
                r.set_wall_clock();
            }
            r
        });
        // Chaos runs trace reproducibly with no extra wiring: the fault
        // plan's seed when one is installed, otherwise a fixed constant.
        let trace_seed = cfg
            .faults
            .as_ref()
            .map_or(0x9E37_79B9_7F4A_7C15, |plan| plan.seed);
        // In sim mode the flight recorder's timestamps read the *virtual*
        // clock, making the recorded timeline deterministic (and
        // digest-comparable across runs).
        let flight = match &sim {
            Some(net) => FlightCollector::with_clock(cfg.flight_events, net.clock.clone()),
            None => FlightCollector::new(cfg.flight_events),
        };
        Shared {
            sim,
            reliability,
            wire,
            flight,
            trace_eid: AtomicU64::new(0),
            trace_seed,
            fail_cause: parking_lot::Mutex::new(None),
            cfg,
            ranks,
            epoch_active: AtomicUsize::new(0),
            completed_epoch: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            poisoned: AtomicBool::new(false),
            coll: Collective::new(participants),
            share_slot: parking_lot::Mutex::new(None),
            type_stats: RwLock::new(Vec::new()),
            obs,
            epoch_prof: EpochProfiler::default(),
            failure: parking_lot::Mutex::new(None),
            failure_payload: parking_lot::Mutex::new(None),
            stats: MachineStats::default(),
        }
    }

    /// Machine-wide cumulative snapshot with the per-rank send/handle
    /// counters folded in (exact when quiescent, e.g. between epochs).
    fn full_snapshot(&self) -> StatsSnapshot {
        let mut s = self.stats.snapshot();
        s.messages_sent = self.total_sent();
        s.messages_handled = self.total_handled();
        s
    }

    pub(crate) fn total_handled(&self) -> u64 {
        self.ranks.iter().map(|r| r.handled.load(SeqCst)).sum()
    }

    pub(crate) fn total_sent(&self) -> u64 {
        self.ranks.iter().map(|r| r.sent.load(SeqCst)).sum()
    }

    fn poison(&self) {
        self.poisoned.store(true, SeqCst);
        self.shutdown.store(true, SeqCst);
        self.coll.poison();
        if let Some(sim) = &self.sim {
            // Abandon deterministic scheduling: wake every parked rank so
            // it can observe the poison and unwind.
            sim.poison();
        }
    }

    /// Record `err` as the machine's failure (first caller wins — later
    /// failures are almost always consequences of the first) and poison
    /// everything so blocked peers fail fast. `payload` carries the
    /// original panic payload, when the failure was a panic, so
    /// [`Machine::run`] can re-raise it verbatim.
    pub(crate) fn fail(&self, err: MachineError, payload: Option<Box<dyn Any + Send>>) {
        {
            let mut slot = self.failure.lock();
            if slot.is_none() {
                *slot = Some(err);
                *self.failure_payload.lock() = payload;
            }
        }
        // Freeze the flight recorder so the rings keep the events leading
        // *into* the failure rather than the teardown noise after it.
        self.flight.freeze();
        self.poison();
    }

    /// Record the causal context of the failure (first caller wins, same
    /// discipline as [`Shared::fail`] — call *before* `fail`, which
    /// freezes the rings).
    pub(crate) fn record_fail_cause(&self, cause: FailCause) {
        let mut slot = self.fail_cause.lock();
        if slot.is_none() {
            *slot = Some(cause);
        }
    }

    /// Abort this thread (controlled unwind, swallowed by the rank
    /// supervisor) if the machine has been poisoned by a failure elsewhere.
    fn check_poison(&self) {
        if self.poisoned.load(SeqCst) {
            std::panic::resume_unwind(Box::new(Abort));
        }
    }

    fn all_idle(&self) -> bool {
        self.ranks.iter().all(|r| r.idle.load(SeqCst))
    }

    /// Put a packet in `dest`'s inbox. The inbox outlives every epoch, so
    /// a closed channel means teardown raced a straggler — reachable only
    /// on failure paths; record and abort rather than panic.
    ///
    /// This is the delivery seam: in sim mode the packet becomes a
    /// logical-time `Delivery` event instead of landing immediately, and
    /// the scheduler feeds it back through [`Shared::deliver_direct`] when
    /// its modeled arrival time comes. Retransmissions from the
    /// reliability layer funnel through here too, so they traverse the
    /// modeled links like any first transmission.
    pub(crate) fn push_packet(&self, dest: RankId, pkt: Packet) {
        if let Some(sim) = &self.sim {
            sim.enqueue_packet(dest, pkt);
            return;
        }
        // Wire backends carry only cross-rank traffic; self-sends keep
        // the direct channel path on every backend.
        if pkt.from != dest {
            if let Some(wire) = &self.wire {
                wire.send_packet(self, dest, pkt);
                return;
            }
        }
        self.deliver_direct(dest, pkt);
    }

    /// The threaded half of [`Shared::push_packet`]: put the packet in the
    /// inbox *now*. Also the sim scheduler's delivery primitive.
    pub(crate) fn deliver_direct(&self, dest: RankId, pkt: Packet) {
        if self.ranks[dest].tx.send(pkt).is_err() {
            self.fail(
                MachineError::Poisoned {
                    message: format!("rank {dest} inbox closed while messages were in flight"),
                },
                None,
            );
            std::panic::resume_unwind(Box::new(Abort));
        }
    }

    /// Deliver an acknowledgement to the original sender `dest`. Same
    /// seam as [`Shared::push_packet`]: sim mode models the ack's reverse
    /// trip, so retransmit timers react to modeled round-trip times.
    pub(crate) fn push_ack(&self, dest: RankId, ack: Ack) {
        if let Some(sim) = &self.sim {
            sim.enqueue_ack(dest, ack);
            return;
        }
        // `ack.to` is the rank acknowledging (the ack's origin); a
        // self-ack stays on the direct path.
        if ack.to != dest {
            if let Some(wire) = &self.wire {
                wire.send_ack(self, dest, ack);
                return;
            }
        }
        self.ack_direct(dest, ack);
    }

    /// The threaded half of [`Shared::push_ack`] / the sim scheduler's ack
    /// delivery primitive.
    pub(crate) fn ack_direct(&self, dest: RankId, ack: Ack) {
        if self.ranks[dest].ack_tx.send(ack).is_err() {
            self.fail(
                MachineError::Poisoned {
                    message: format!("rank {dest} ack channel closed while acks were in flight"),
                },
                None,
            );
            std::panic::resume_unwind(Box::new(Abort));
        }
    }

    /// Drain one pending acknowledgement addressed to `rank`.
    pub(crate) fn pop_ack(&self, rank: RankId) -> Option<Ack> {
        self.ranks[rank].ack_rx.try_recv().ok()
    }

    /// Wire-backend delivery into `dest`'s inbox: the *tolerant* variant
    /// of [`Shared::deliver_direct`]. Backend threads are not rank
    /// threads — a closed channel during teardown means the message is
    /// moot, so it is dropped instead of unwinding into the backend.
    pub(crate) fn wire_deliver(&self, dest: RankId, pkt: Packet) {
        let _ = self.ranks[dest].tx.send(pkt);
    }

    /// Tolerant wire-backend ack delivery (see [`Shared::wire_deliver`]).
    pub(crate) fn wire_ack(&self, dest: RankId, ack: Ack) {
        let _ = self.ranks[dest].ack_tx.send(ack);
    }

    /// Whether wire-backend threads should stop doing work: the machine
    /// is shutting down or has been poisoned by a failure.
    pub(crate) fn wire_should_exit(&self) -> bool {
        self.shutdown.load(SeqCst) || self.poisoned.load(SeqCst)
    }

    /// Send a termination-control token from `from` to `dest`
    /// (poison-aware). In sim mode tokens traverse the modeled link like
    /// any message (so wave circulation advances virtual time and
    /// interleaves with data deliveries in timestamp order) but are
    /// exempt from partitions: the control plane has no retransmit
    /// layer, so losing a token would wedge termination rather than
    /// model anything useful.
    fn push_token(&self, from: RankId, dest: RankId, tok: Token) {
        if let Some(sim) = &self.sim {
            sim.enqueue_token(from, dest, tok);
            return;
        }
        self.token_direct(dest, tok);
    }

    /// Deliver a control token onto `dest`'s control channel.
    pub(crate) fn token_direct(&self, dest: RankId, tok: Token) {
        if self.ranks[dest].ctl_tx.send(tok).is_err() {
            self.fail(
                MachineError::Poisoned {
                    message: format!("rank {dest} control channel closed during an epoch"),
                },
                None,
            );
            std::panic::resume_unwind(Box::new(Abort));
        }
    }

    /// The 1-indexed generation of the epoch currently in flight (best
    /// effort; used to stamp diagnostics from type-erased layers).
    pub(crate) fn current_epoch_hint(&self) -> u64 {
        self.completed_epoch.load(SeqCst) + 1
    }

    /// Pump the reliability layer on behalf of `rank` (no-op on the
    /// perfect transport).
    fn pump_transport(&self, rank: RankId) {
        if let Some(t) = &self.reliability {
            t.pump(self, rank);
        }
    }
}

/// Push an envelope into `dest`'s inbox (used by the coalescing layer).
pub(crate) fn deliver(shared: &Shared, from: RankId, dest: RankId, env: Envelope) {
    MachineStats::bump(&shared.stats.envelopes_sent, 1);
    if let Some(rec) = &shared.obs {
        rec.envelope_sizes.record(env.count as u64);
    }
    match &shared.reliability {
        // Reliability layer installed: sequence the envelope, stash a
        // retransmit copy, and put it through the fault plan.
        Some(t) => t.send(shared, from, dest, env),
        // Perfect transport: straight into the inbox, unsequenced.
        None => shared.push_packet(dest, Packet { from, seq: 0, env }),
    }
}

/// A handle to one registered message type. Cheap to copy; sending requires
/// the sender thread's [`AmCtx`].
pub struct MessageType<T> {
    id: u32,
    _marker: std::marker::PhantomData<fn(T)>,
}

impl<T> Clone for MessageType<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for MessageType<T> {}

impl<T: Clone + Send + 'static> MessageType<T> {
    /// Send `msg` to rank `dest` through `ctx`'s coalescing buffers.
    pub fn send(&self, ctx: &AmCtx, dest: RankId, msg: T) {
        ctx.send_typed(*self, dest, msg);
    }

    /// Send `msg`, computing the destination rank from the payload with an
    /// [`AddressMap`] (AM++'s object-based addressing).
    pub fn send_addressed<A: AddressMap<T> + ?Sized>(&self, ctx: &AmCtx, addr: &A, msg: T) {
        let dest = addr.rank_of(&msg);
        self.send(ctx, dest, msg);
    }

    /// The registration index of this type (diagnostic).
    pub fn id(&self) -> u32 {
        self.id
    }
}

/// The context a message handler runs in: the handling thread's [`AmCtx`]
/// plus the handled message's own type, so handlers can re-send their own
/// message type without tying the knot manually.
pub struct HandlerCtx<'a, T> {
    am: &'a AmCtx,
    mt: MessageType<T>,
}

impl<'a, T: Clone + Send + 'static> HandlerCtx<'a, T> {
    /// Send another message of the *handled* type.
    pub fn send(&self, dest: RankId, msg: T) {
        self.mt.send(self.am, dest, msg);
    }
}

impl<'a, T> std::ops::Deref for HandlerCtx<'a, T> {
    type Target = AmCtx;
    fn deref(&self) -> &AmCtx {
        self.am
    }
}

/// Per-thread handle to the machine: the only way user code interacts with
/// the runtime. Main threads (one per rank) run the SPMD program; worker
/// threads run handlers. `AmCtx` is deliberately `!Sync` — it owns the
/// thread's coalescing buffers.
pub struct AmCtx {
    shared: Arc<Shared>,
    rank: RankId,
    thread: usize,
    bufs: RefCell<Vec<Option<Box<dyn ErasedBuffers>>>>,
    /// Hot-path counter deltas, published at envelope boundaries.
    deltas: PendingDeltas,
    /// Frozen dispatch/statistic tables (no locks after the freeze).
    tables: RefCell<LocalTables>,
    in_epoch: Cell<bool>,
    epochs_entered: Cell<u64>,
    /// When the current epoch's entry barrier cleared on this rank; basis
    /// of the [`MachineConfig::epoch_deadline`] watchdog.
    epoch_entered_at: Cell<Option<Instant>>,
    /// This thread's flight-recorder ring (deposited into
    /// `shared.flight` when the context drops — normal exit or unwind).
    flight: RefCell<FlightRing>,
    /// Set while executing a traced envelope's handler batch: sends
    /// inherit `trace_cur` instead of consulting the sampler.
    trace_inherit: Cell<bool>,
    /// The causal context handler re-sends inherit while
    /// `trace_inherit` is set.
    trace_cur: Cell<TraceCtx>,
    /// Sends until the sampler starts the next traced cascade (1 = next
    /// send is a root; 0 = sampling off, pinned).
    trace_gap: Cell<u64>,
    /// Traced cascades this thread has started (feeds root-id derivation).
    trace_roots: Cell<u64>,
}

impl Drop for AmCtx {
    fn drop(&mut self) {
        // Deposit whatever the ring holds — drop runs on both normal
        // thread exit and unwinding, and `run_inner` only reads the
        // collector after every thread has been joined.
        let ring = std::mem::replace(
            self.flight.get_mut(),
            FlightRing::new(self.rank, self.thread, 0),
        );
        self.shared.flight.deposit(ring);
    }
}

/// Entry point: run an SPMD program on a simulated machine.
pub struct Machine;

/// A recorded failure plus, when the primary cause was a panic, the
/// original payload so [`Machine::run`] can re-raise it verbatim, plus
/// the automatic post-mortem assembled from the frozen flight rings and
/// (sim mode only) the simulation report.
type RunFailure = (
    MachineError,
    Option<Box<dyn Any + Send>>,
    Box<PostMortem>,
    // Boxed: the report embeds the recorded network-event trace, and an
    // unboxed copy would bloat every `Result` on the run path
    // (clippy::result_large_err).
    Option<Box<SimReport>>,
);

/// A successful simulated run: per-rank results plus the simulation
/// report (virtual time, event counts, network-event trace, and the
/// determinism digest over the flight-recorder timeline).
#[derive(Debug)]
pub struct SimRun<R> {
    /// Each rank's result, indexed by rank.
    pub results: Vec<R>,
    /// The run's [`SimReport`].
    pub report: SimReport,
}

/// A failed simulated run: the machine error, the automatic post-mortem
/// (frozen flight timeline, unacked lanes, causal chain), and the
/// simulation report up to the failure — together enough to replay and
/// shrink the offending schedule.
#[derive(Debug)]
pub struct SimError {
    /// The first recorded failure.
    pub error: MachineError,
    /// The automatic post-mortem assembled from the frozen flight rings.
    pub postmortem: Box<PostMortem>,
    /// Simulation state at the failure (virtual time, counters, trace).
    pub report: SimReport,
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} (at virtual t={}ns after {} deliveries)",
            self.error, self.report.virtual_time_ns, self.report.deliveries
        )
    }
}

impl std::error::Error for SimError {}

impl Machine {
    /// Spawn `cfg.ranks` main threads (plus workers) and run `f` on each;
    /// returns each rank's result, indexed by rank. Panics in `f` or in any
    /// handler propagate (with their original payload); prefer
    /// [`Machine::try_run`] to receive failures as values.
    pub fn run<F, R>(cfg: MachineConfig, f: F) -> Vec<R>
    where
        F: Fn(&AmCtx) -> R + Send + Sync,
        R: Send,
    {
        match Self::run_inner(cfg, None, f) {
            Ok((out, _)) => out,
            // Re-raise the original panic when there is one, so panic
            // messages (and #[should_panic] expectations) survive verbatim.
            Err((err, Some(payload), _, _)) => {
                let _ = err;
                std::panic::resume_unwind(payload)
            }
            Err((err, None, _, _)) => panic!("{err}"),
        }
    }

    /// [`Machine::run`] with structured failure propagation: a panic on
    /// any rank or in any handler — or a hung epoch, when
    /// [`MachineConfig::epoch_deadline`] is armed — poisons the machine,
    /// unwinds every surviving rank at its next collective, epoch exit, or
    /// termination check, and is returned here as the *first* recorded
    /// [`MachineError`]. No rank hangs and the process does not abort.
    pub fn try_run<F, R>(cfg: MachineConfig, f: F) -> Result<Vec<R>, MachineError>
    where
        F: Fn(&AmCtx) -> R + Send + Sync,
        R: Send,
    {
        Self::run_inner(cfg, None, f)
            .map(|(out, _)| out)
            .map_err(|(err, _, _, _)| err)
    }

    /// [`Machine::try_run`] plus the automatic [`PostMortem`]: the frozen
    /// flight-recorder rings merged into one timeline, the unacked
    /// reliability lanes, and the causal chain into the failing handler.
    /// The post-mortem is always assembled (with an empty timeline when
    /// the flight recorder was disabled via
    /// [`MachineConfig::flight`](crate::MachineConfig::flight)`(0)`).
    pub fn try_run_diagnosed<F, R>(
        cfg: MachineConfig,
        f: F,
    ) -> Result<Vec<R>, (MachineError, Box<PostMortem>)>
    where
        F: Fn(&AmCtx) -> R + Send + Sync,
        R: Send,
    {
        Self::run_inner(cfg, None, f)
            .map(|(out, _)| out)
            .map_err(|(err, _, pm, _)| (err, pm))
    }

    /// Run the SPMD program on the discrete-event simulator instead of
    /// free-running threads: cross-rank deliveries go through `plan`'s
    /// seeded logical-time event queue (modeled latencies, partitions,
    /// stragglers, stalls) and exactly one rank runs at a time, so the
    /// entire run — results, statistics, flight-recorder timeline — is a
    /// deterministic function of `(cfg, plan, program)`. See
    /// [`crate::sim`] for the model and [`AmCtx::sim_invariant`] for
    /// mid-run state checking.
    ///
    /// Requires `threads_per_rank == 1` (rank bodies already serve
    /// handlers when idle; worker threads would reintroduce real
    /// concurrency and destroy determinism).
    pub fn run_sim<F, R>(
        cfg: MachineConfig,
        plan: SimPlan,
        f: F,
    ) -> Result<SimRun<R>, Box<SimError>>
    where
        F: Fn(&AmCtx) -> R + Send + Sync,
        R: Send,
    {
        assert_eq!(
            cfg.threads_per_rank, 1,
            "the simulator requires threads_per_rank == 1 (deterministic \
             single-token scheduling)"
        );
        plan.validate(cfg.ranks, cfg.faults.is_some());
        match Self::run_inner(cfg, Some(plan), f) {
            Ok((results, report)) => Ok(SimRun {
                results,
                report: report.unwrap_or_default(),
            }),
            Err((error, _, postmortem, report)) => Err(Box::new(SimError {
                error,
                postmortem,
                report: report.map(|b| *b).unwrap_or_default(),
            })),
        }
    }

    fn run_inner<F, R>(
        cfg: MachineConfig,
        sim_plan: Option<SimPlan>,
        f: F,
    ) -> Result<(Vec<R>, Option<SimReport>), RunFailure>
    where
        F: Fn(&AmCtx) -> R + Send + Sync,
        R: Send,
    {
        cfg.validate();
        let net = sim_plan.map(|plan| SimNet::new(plan, cfg.ranks));
        // Simulated rank threads get small stacks: at 4096 ranks the
        // default 8 MiB would reserve 32 GiB of address space.
        let sim_stack = net.as_ref().map(|_| crate::sim::STACK_SIZE);
        // Wire backend: built (and, for TCP, bound) before the Shared
        // exists so every dial has a live acceptor; sim mode always runs
        // wireless — its event queue is the transport being modeled.
        let wire = if net.is_none() {
            match crate::transport::build(&cfg.transport, cfg.ranks) {
                Ok(w) => w,
                Err(e) => {
                    let err = e.into_machine_error();
                    let pm = Box::new(PostMortem::assemble(
                        err.to_string(),
                        None,
                        0,
                        0,
                        Vec::new(),
                        Vec::new(),
                    ));
                    return Err((err, None, pm, None));
                }
            }
        } else {
            None
        };
        let shared = Arc::new(Shared::new(cfg.clone(), net, wire));
        if let Some(wire) = shared.wire.clone() {
            if let Err(e) = wire.start(&shared) {
                wire.shutdown();
                let err = e.into_machine_error();
                let pm = assemble_postmortem(&shared, &err);
                write_postmortem(&shared, &pm);
                return Err((err, None, pm, None));
            }
        }
        let nranks = cfg.ranks;
        let workers_per_rank = cfg.threads_per_rank - 1;
        let mut results: Vec<Option<R>> = (0..nranks).map(|_| None).collect();

        std::thread::scope(|s| {
            // Handler worker threads.
            for rank in 0..nranks {
                for w in 0..workers_per_rank {
                    let shared = shared.clone();
                    s.spawn(move || worker_loop(shared, rank, 1 + w));
                }
            }
            // Main rank threads.
            let mut handles = Vec::with_capacity(nranks);
            for rank in 0..nranks {
                let shared = shared.clone();
                let f = &f;
                let body = move || {
                    let ctx = AmCtx::new(shared.clone(), rank, 0);
                    // Sim mode: enter the cooperative token discipline —
                    // park until the scheduler runs this rank.
                    if let Some(sim) = &shared.sim {
                        sim.attach(rank);
                    }
                    let out = match std::panic::catch_unwind(AssertUnwindSafe(|| f(&ctx))) {
                        Ok(r) => {
                            // All epochs done everywhere before tearing
                            // down. On a poisoned machine the barrier
                            // aborts; the catch below discards the result.
                            let teardown =
                                std::panic::catch_unwind(AssertUnwindSafe(|| ctx.barrier()));
                            if teardown.is_err() {
                                return None;
                            }
                            debug_assert!(
                                shared.reliability.is_some()
                                    || shared.wire.is_some()
                                    || shared.ranks[rank].rx.is_empty(),
                                "rank {rank} has unhandled messages after its last epoch \
                                 — termination detection fired early"
                            );
                            shared.shutdown.store(true, SeqCst);
                            Some(r)
                        }
                        Err(payload) => {
                            // Secondary aborts (Abort sentinel) carry no
                            // information of their own; the primary failure
                            // was recorded by whoever poisoned the machine.
                            if !payload.is::<Abort>() {
                                shared.fail(
                                    MachineError::RankPanicked {
                                        rank,
                                        message: panic_message(payload.as_ref()),
                                    },
                                    Some(payload),
                                );
                            } else {
                                // A lone Abort with no recorded failure can
                                // only mean a lost race; make sure teardown
                                // still proceeds.
                                shared.poison();
                            }
                            None
                        }
                    };
                    // Leave the token discipline (mark Done and hand the
                    // token on; immediate no-op on a poisoned machine).
                    if let Some(sim) = &shared.sim {
                        sim.finish(&shared, rank);
                    }
                    out
                };
                let handle = match sim_stack {
                    Some(size) => std::thread::Builder::new()
                        .stack_size(size)
                        .name(format!("sim-rank{rank}"))
                        .spawn_scoped(s, body)
                        .expect("failed to spawn simulated rank thread"),
                    None => s.spawn(body),
                };
                handles.push(handle);
            }
            for (rank, h) in handles.into_iter().enumerate() {
                if let Ok(r) = h.join() {
                    results[rank] = r;
                }
            }
            // Failure paths skip the per-rank shutdown stores; make sure
            // the workers wake up and exit before the scope joins them.
            shared.shutdown.store(true, SeqCst);
        });
        // Every rank thread has exited; stop and join the wire backend's
        // threads (they hold their own Arc<Shared> clones, so this also
        // breaks the only reference path that could outlive the run).
        if let Some(wire) = &shared.wire {
            wire.shutdown();
        }
        // Truncated span traces must not be silently misleading: one line,
        // once per run, only when it actually happened.
        if let Some(rec) = &shared.obs {
            let dropped = rec.dropped();
            if dropped > 0 {
                eprintln!(
                    "dgp-am: span recorder dropped {dropped} spans (trace is truncated; \
                     raise MachineConfig::profile_capacity to keep all of them)"
                );
            }
        }
        // Every thread has been joined: flight rings are deposited, so
        // the report (and its determinism digest) is complete and stable.
        let report = shared.sim.as_ref().map(|sim| sim.report(&shared));
        if let Some(err) = shared.failure.lock().take() {
            let payload = shared.failure_payload.lock().take();
            let pm = assemble_postmortem(&shared, &err);
            write_postmortem(&shared, &pm);
            return Err((err, payload, pm, report.map(Box::new)));
        }
        let mut out = Vec::with_capacity(nranks);
        for (rank, r) in results.into_iter().enumerate() {
            match r {
                Some(r) => out.push(r),
                None => {
                    let err = MachineError::Poisoned {
                        message: format!("rank {rank} produced no result and no error"),
                    };
                    let pm = assemble_postmortem(&shared, &err);
                    write_postmortem(&shared, &pm);
                    return Err((err, None, pm, report.map(Box::new)));
                }
            }
        }
        Ok((out, report))
    }
}

/// Build the automatic post-mortem for a failed run. Every thread has
/// been joined (and so has deposited its flight ring) by the time this
/// runs, which is what makes reading the collector race-free.
fn assemble_postmortem(shared: &Shared, err: &MachineError) -> Box<PostMortem> {
    let unacked = shared
        .reliability
        .as_ref()
        .map(|t| t.backlog())
        .unwrap_or_default();
    Box::new(PostMortem::assemble(
        err.to_string(),
        shared.fail_cause.lock().clone(),
        shared.total_sent(),
        shared.total_handled(),
        shared.flight.collect(),
        unacked,
    ))
}

/// Write the rendered post-mortem (and, when profiling was on, a Chrome
/// trace) into the configured dump directory — `MachineConfig::postmortem`
/// or the `DGP_POSTMORTEM_DIR` environment variable. Failures to write are
/// reported on stderr, never escalated: the dump must not mask the error
/// it documents.
fn write_postmortem(shared: &Shared, pm: &PostMortem) {
    let dir = match (
        &shared.cfg.postmortem_dir,
        std::env::var_os("DGP_POSTMORTEM_DIR"),
    ) {
        (Some(d), _) => d.clone(),
        (None, Some(d)) => std::path::PathBuf::from(d),
        (None, None) => return,
    };
    static DUMP_SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = DUMP_SEQ.fetch_add(1, Relaxed);
    let tag = format!("{}-{}", std::process::id(), seq);
    let write = |name: String, contents: String| {
        let path = dir.join(name);
        if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, contents))
        {
            eprintln!(
                "dgp-am: failed to write post-mortem {}: {e}",
                path.display()
            );
        } else {
            eprintln!("dgp-am: post-mortem written to {}", path.display());
        }
    };
    write(format!("postmortem-{tag}.txt"), pm.render());
    if let Some(rec) = &shared.obs {
        write(
            format!("trace-{tag}.json"),
            obs::chrome_trace_json(&rec.all_spans(), shared.cfg.ranks),
        );
    }
}

fn worker_loop(shared: Arc<Shared>, rank: RankId, thread: usize) {
    let ctx = AmCtx::new(shared.clone(), rank, thread);
    let rx = shared.ranks[rank].rx.clone();
    loop {
        if shared.poisoned.load(SeqCst) {
            break;
        }
        let step = std::panic::catch_unwind(AssertUnwindSafe(|| {
            match rx.recv_timeout(crate::config::RECV_TIMEOUT) {
                Ok(pkt) => {
                    ctx.handle_packet(pkt);
                    while let Ok(pkt) = rx.try_recv() {
                        ctx.handle_packet(pkt);
                    }
                    // Ship whatever the handlers produced before blocking
                    // again.
                    ctx.flush_own_buffers();
                    true
                }
                Err(_) => {
                    ctx.flush_own_buffers();
                    ctx.flush_flushables();
                    ctx.flush_own_buffers();
                    shared.pump_transport(rank);
                    !(shared.shutdown.load(SeqCst) && rx.is_empty())
                }
            }
        }));
        match step {
            Ok(true) => continue,
            Ok(false) => break,
            Err(payload) => {
                // handle_packet records handler panics itself and re-raises
                // the Abort sentinel; anything else failing here (a flush
                // path) is a worker failure in its own right.
                if !payload.is::<Abort>() {
                    shared.fail(
                        MachineError::RankPanicked {
                            rank,
                            message: panic_message(payload.as_ref()),
                        },
                        Some(payload),
                    );
                }
                break;
            }
        }
    }
}

/// Grow the per-type slot vector. Out of line: the send path only takes
/// this on worker cold starts and for types registered after the thread's
/// last epoch entry (rank main threads pre-size at epoch entry).
#[cold]
fn grow_slots(bufs: &mut Vec<Option<Box<dyn ErasedBuffers>>>, idx: usize) {
    bufs.resize_with(idx + 1, || None);
}

impl AmCtx {
    fn new(shared: Arc<Shared>, rank: RankId, thread: usize) -> Self {
        let flight = FlightRing::new(rank, thread, shared.flight.capacity());
        // Stagger each thread's first sampled root deterministically so
        // roots don't cluster at epoch starts across threads. Gaps are
        // uniform in [1, 2n-1] (mean n) — the upper bound is 2n-1, not
        // 2n, so that n == 1 pins the gap at 1 and traces every send, as
        // MachineConfig::trace_sampling promises.
        let gap = if shared.cfg.trace_sampling == 0 {
            0
        } else {
            let n = shared.cfg.trace_sampling;
            let h = mix64(shared.trace_seed ^ ((rank as u64) << 24) ^ (thread as u64));
            h % (2 * n - 1) + 1
        };
        AmCtx {
            shared,
            rank,
            thread,
            bufs: RefCell::new(Vec::new()),
            deltas: PendingDeltas::default(),
            tables: RefCell::new(LocalTables::default()),
            in_epoch: Cell::new(false),
            epochs_entered: Cell::new(0),
            epoch_entered_at: Cell::new(None),
            flight: RefCell::new(flight),
            trace_inherit: Cell::new(false),
            trace_cur: Cell::new(TraceCtx::NONE),
            trace_gap: Cell::new(gap),
            trace_roots: Cell::new(0),
        }
    }

    /// This thread's rank (simulated node id).
    pub fn rank(&self) -> RankId {
        self.rank
    }

    /// Number of ranks in the machine.
    pub fn num_ranks(&self) -> usize {
        self.shared.cfg.ranks
    }

    /// Thread index within the rank (0 = the main program thread).
    pub fn thread(&self) -> usize {
        self.thread
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.shared.cfg
    }

    /// The active transport backend's name: `"inproc"` (the channel
    /// default and sim mode), `"shm"`, or `"tcp"`.
    pub fn transport_name(&self) -> &'static str {
        match &self.shared.wire {
            Some(w) => w.name(),
            None => "inproc",
        }
    }

    /// The wire backend's listening socket addresses, indexed by rank
    /// (empty for backends without sockets). Lets harnesses aim
    /// adversarial connections at a live machine's acceptors.
    pub fn transport_endpoints(&self) -> Vec<std::net::SocketAddr> {
        self.shared
            .wire
            .as_ref()
            .map(|w| w.endpoints())
            .unwrap_or_default()
    }

    /// Whether an epoch is currently active anywhere on the machine.
    pub fn epoch_active(&self) -> bool {
        self.shared.epoch_active.load(SeqCst) > 0
    }

    /// Per-message-type counters (diagnostics; exact when quiescent).
    pub fn type_stats(&self) -> Vec<TypeStatSnapshot> {
        self.publish_deltas();
        self.shared
            .type_stats
            .read()
            .iter()
            .map(|t| t.snapshot())
            .collect()
    }

    /// Point-in-time statistics (exact when read outside an epoch).
    pub fn stats(&self) -> StatsSnapshot {
        self.publish_deltas();
        self.shared.full_snapshot()
    }

    /// Messages sitting in this thread's coalescing buffers, not yet
    /// shipped as envelopes. Always already counted in `sent` (the delta
    /// publish precedes every ship), which is why termination cannot be
    /// declared while this is nonzero — the counters cannot balance.
    pub fn buffered_pending(&self) -> usize {
        self.bufs
            .borrow()
            .iter()
            .flatten()
            .map(|b| b.pending())
            .sum()
    }

    // ------------------------------------------------------------------
    // Observability (see `crate::obs`)
    // ------------------------------------------------------------------

    /// Whether the span/histogram recorder is on
    /// ([`MachineConfig::profile`]).
    pub fn profiling_enabled(&self) -> bool {
        self.shared.obs.is_some()
    }

    /// The machine's span recorder, when profiling is enabled.
    pub fn recorder(&self) -> Option<&Recorder> {
        self.shared.obs.as_ref()
    }

    /// Begin a span that records itself when dropped. Returns `None` (one
    /// branch, no allocation) when profiling is disabled — bind it to a
    /// `let _guard` and the instrumentation disappears from the cold
    /// build's hot path.
    pub fn span(&self, kind: SpanKind, name: &'static str) -> Option<SpanGuard<'_>> {
        let rec = self.shared.obs.as_ref()?;
        let epoch = self.shared.completed_epoch.load(SeqCst) + 1;
        Some(SpanGuard::begin(
            rec,
            kind,
            name,
            self.rank,
            self.thread,
            epoch,
        ))
    }

    /// Machine-wide per-epoch counter profiles, one per completed epoch
    /// (always collected; see [`crate::obs::EpochProfile`]). The Figs.
    /// 5–6 evidence — messages per phase — reads directly off these.
    pub fn epoch_profiles(&self) -> Vec<EpochProfile> {
        self.shared.epoch_prof.profiles()
    }

    /// Assemble the machine-readable metrics document: cumulative
    /// counters, per-type counters, and per-epoch profiles.
    pub fn metrics_report(&self) -> MetricsReport {
        MetricsReport {
            ranks: self.num_ranks(),
            cumulative: self.stats(),
            per_type: self.type_stats(),
            epoch_profiles: self.epoch_profiles(),
            spans_dropped: match &self.shared.obs {
                Some(rec) => (0..self.num_ranks()).map(|r| rec.dropped_of(r)).collect(),
                None => Vec::new(),
            },
        }
    }

    /// Publish a convergence gauge into the current epoch's profile
    /// (summed by name across ranks, drained into the next sealed
    /// [`crate::obs::EpochProfile`]). Always on — the cost is one mutex
    /// acquisition per call, so publish per epoch, not per message.
    pub fn gauge(&self, name: &'static str, value: f64) {
        self.shared.epoch_prof.gauge(name, value);
    }

    /// Export every recorded span as Chrome trace-event JSON (one track
    /// per rank; load in `chrome://tracing` or Perfetto). `None` when
    /// profiling is disabled.
    pub fn chrome_trace_json(&self) -> Option<String> {
        self.shared
            .obs
            .as_ref()
            .map(|rec| obs::chrome_trace_json(&rec.all_spans(), self.num_ranks()))
    }

    // ------------------------------------------------------------------
    // Registration
    // ------------------------------------------------------------------

    /// Collectively register a message type with this rank's handler for it.
    ///
    /// Every rank must register the same sequence of message types in the
    /// same order (the SPMD discipline AM++ also requires); the handler
    /// closure itself is rank-local and typically captures rank-local state.
    /// Must not be called inside an epoch.
    pub fn register<T, F>(&self, f: F) -> MessageType<T>
    where
        T: Clone + Send + 'static,
        F: Fn(&HandlerCtx<'_, T>, T) + Send + Sync + 'static,
    {
        self.register_named(std::any::type_name::<T>(), f)
    }

    /// [`register`](Self::register) with an explicit diagnostic name for
    /// per-type statistics ([`AmCtx::type_stats`]).
    pub fn register_named<T, F>(&self, name: &str, f: F) -> MessageType<T>
    where
        T: Clone + Send + 'static,
        F: Fn(&HandlerCtx<'_, T>, T) + Send + Sync + 'static,
    {
        assert!(
            !self.in_epoch.get(),
            "message types must be registered outside epochs"
        );
        assert_eq!(self.thread, 0, "only rank main threads register handlers");
        let mut handlers = self.shared.ranks[self.rank].handlers.write();
        let id = handlers.len() as u32;
        // Machine-wide per-type counters: the first rank to register this
        // id creates them; the rest attach.
        {
            let mut ts = self.shared.type_stats.write();
            if (id as usize) >= ts.len() {
                debug_assert_eq!(ts.len(), id as usize, "collective registration order");
                ts.push(Arc::new(TypeStat::new(name.to_string())));
            }
        }
        let mt = MessageType {
            id,
            _marker: std::marker::PhantomData,
        };
        let erased: Arc<ErasedHandler> = Arc::new(
            move |ctx: &AmCtx, payload: Box<dyn Any + Send>, count: u32| {
                let mut batch = payload
                    .downcast::<Vec<T>>()
                    .expect("message type registration order must match across ranks");
                debug_assert_eq!(batch.len() as u32, count);
                let hctx = HandlerCtx { am: ctx, mt };
                // Once per envelope, not per message: handlers may deposit
                // deferred local work, and the idle flag must be down
                // before any of it exists (see crate::termination).
                // Mid-envelope protection is counter-based — every message
                // in this batch is already published in `sent`, and the
                // matching `handled` delta is not published until after
                // the loop, so the machine totals cannot balance while the
                // batch is in progress.
                ctx.shared.ranks[ctx.rank].idle.store(false, SeqCst);
                for msg in batch.drain(..) {
                    f(&hctx, msg);
                }
                ctx.deltas.note_handled(mt.id, count as u64);
                ctx.recycle_batch(mt.id, batch);
            },
        );
        handlers.push(erased);
        drop(handlers);
        // Keep the registering thread's frozen tables current so its next
        // epoch (or publish) needs no staleness round-trip.
        self.refresh_tables();
        mt
    }

    /// Register a message-holding layer (e.g. a reduction table) to be
    /// flushed by the runtime during idle periods and termination detection.
    pub fn register_flushable(&self, fl: Arc<dyn Flushable>) {
        let me = &self.shared.ranks[self.rank];
        let mut fls = me.flushables.write();
        fls.push(fl);
        me.flushables_len.store(fls.len(), Relaxed);
        drop(fls);
        self.refresh_tables();
    }

    // ------------------------------------------------------------------
    // Sending
    // ------------------------------------------------------------------

    pub(crate) fn send_typed<T: Clone + Send + 'static>(
        &self,
        mt: MessageType<T>,
        dest: RankId,
        msg: T,
    ) {
        debug_assert!(
            self.epoch_active(),
            "messages may only be sent inside an epoch"
        );
        assert!(dest < self.num_ranks(), "destination rank out of range");
        // Hot path: thread-local delta counters only. The shared `sent`
        // atomic is updated by `publish_deltas` *before* any envelope
        // ships (the `pre_ship` hook below and `flush_own_buffers`), so
        // every receivable message is counted before it is receivable.
        self.deltas.note_sent(mt.id);
        let mut bufs = self.bufs.borrow_mut();
        let idx = mt.id as usize;
        if bufs.len() <= idx {
            // Cold: worker threads and types registered after this
            // thread's last epoch entry. Rank main threads pre-size at
            // epoch entry and never come through here.
            grow_slots(&mut bufs, idx);
        }
        let cap = self.shared.cfg.coalescing_capacity;
        let nranks = self.shared.cfg.ranks;
        let slot =
            bufs[idx].get_or_insert_with(|| Box::new(TypedBuffers::<T>::new(mt.id, cap, nranks)));
        let tb = slot
            .as_any_mut()
            .downcast_mut::<TypedBuffers<T>>()
            .expect("message type ids are unique per machine");
        let trace = self.trace_for_send();
        if trace.is_traced() {
            // Per-message flight events exist only for traced sends —
            // sampling bounds them, keeping the recorder off the untraced
            // hot path.
            self.flight_push(FlightKind::Send, trace.root, dest as u64);
        }
        tb.push(self, dest, msg, trace);
    }

    // ------------------------------------------------------------------
    // Causal tracing + flight recorder (see `crate::trace`)
    // ------------------------------------------------------------------

    /// Record one event in this thread's flight-recorder ring: a relaxed
    /// flag load, a clock read, and a store into thread-owned memory — no
    /// locks, no shared cachelines (INTERNALS §10).
    #[inline]
    pub(crate) fn flight_push(&self, kind: FlightKind, a: u64, b: u64) {
        let fl = &self.shared.flight;
        if !fl.enabled() || fl.is_frozen() {
            return;
        }
        self.flight.borrow_mut().push(FlightEvent {
            ts_ns: fl.now_ns(),
            kind,
            a,
            b,
        });
    }

    /// The causal context for a message this thread is about to send:
    /// inside a traced handler batch every send joins the cascade;
    /// otherwise the deterministic sampler decides whether this send
    /// starts a new one. Untraced fast path: two `Cell` reads and one
    /// store.
    #[inline]
    fn trace_for_send(&self) -> TraceCtx {
        if self.trace_inherit.get() {
            return self.trace_cur.get();
        }
        let gap = self.trace_gap.get();
        if gap > 1 {
            self.trace_gap.set(gap - 1);
            return TraceCtx::NONE;
        }
        if gap == 0 {
            return TraceCtx::NONE; // sampling off (gap pinned at 0)
        }
        self.trace_new_root()
    }

    /// Start a traced cascade at this send. Cold: runs once per
    /// `trace_sampling` sends on average.
    #[cold]
    fn trace_new_root(&self) -> TraceCtx {
        let i = self.trace_roots.get() + 1;
        self.trace_roots.set(i);
        let h = mix64(
            self.shared.trace_seed ^ ((self.rank as u64) << 40) ^ ((self.thread as u64) << 32) ^ i,
        );
        // Next root after a seeded gap uniform in [1, 2n-1] — mean n,
        // and pinned at 1 when n == 1 so full sampling traces every send.
        let n = self.shared.cfg.trace_sampling;
        self.trace_gap.set(mix64(h) % (2 * n - 1) + 1);
        MachineStats::bump(&self.shared.stats.trace_roots, 1);
        TraceCtx {
            root: h.max(1),
            event: 0,
            parent: 0,
            depth: 0,
        }
    }

    /// Ship one envelope from this thread: assign its causal event id when
    /// traced, record the flight/flow events, and hand it to the transport
    /// boundary. All envelope ships go through here (the coalescing layer
    /// calls back into it), so the flight recorder sees every one.
    pub(crate) fn ship_envelope(&self, dest: RankId, mut env: Envelope) {
        if env.trace.is_traced() {
            let eid = self.shared.trace_eid.fetch_add(1, Relaxed) + 1;
            env.trace.event = eid;
            self.flight_push(FlightKind::TraceShip, eid, env.trace.parent);
            if let Some(rec) = &self.shared.obs {
                // Zero-duration ship marker carrying the outgoing flow id:
                // the Chrome exporter draws the cross-rank arrow from here
                // into the receiving handler span.
                rec.record(SpanRecord {
                    kind: SpanKind::Transport,
                    name: "env.ship",
                    rank: self.rank,
                    thread: self.thread,
                    start_ns: rec.now_ns(),
                    dur_ns: 0,
                    epoch: self.shared.completed_epoch.load(SeqCst) + 1,
                    arg0: env.type_id as u64,
                    arg1: env.count as u64,
                    flow_in: 0,
                    flow_out: eid,
                });
            }
        }
        self.flight_push(
            FlightKind::EnvShip,
            ((env.type_id as u64) << 32) | env.count as u64,
            dest as u64,
        );
        deliver(&self.shared, self.rank, dest, env);
    }

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
        // The sim pauses on the waiting-on-others exits are what keep
        // busy-wait callers (`while !try_finish() { epoch_flush() }`)
        // live under cooperative scheduling: without them the caller
        // would spin holding the token and no other rank could ever
        // make the counters balance.
        if !self.shared.all_idle() {
            self.sim_idle_pause();
            return false;
        }
        let h1 = self.shared.total_handled();
        let s1 = self.shared.total_sent();
        if h1 != s1 {
            self.sim_idle_pause();
            return false;
        }
        if !self.shared.all_idle() {
            self.sim_idle_pause();
            return false;
        }
        let h2 = self.shared.total_handled();
        let s2 = self.shared.total_sent();
        if h2 != s1 || s2 != s1 {
            self.sim_idle_pause();
            return false;
        }
        self.flight_push(FlightKind::TermVote, my_gen, 0);
        self.shared.completed_epoch.fetch_max(my_gen, SeqCst);
        true
    }

    // ------------------------------------------------------------------
    // Simulation (see `crate::sim`)
    // ------------------------------------------------------------------

    /// Whether this machine runs under the discrete-event simulator
    /// ([`Machine::run_sim`]).
    pub fn in_sim(&self) -> bool {
        self.shared.sim.is_some()
    }

    /// Install a mid-run invariant check, validated by the simulator at
    /// the logical-time points selected by
    /// [`SimPlan::invariant_cadence`](crate::sim::SimPlan) — before packet
    /// deliveries and/or at epoch ends — while the machine is quiescent
    /// (no handler mid-flight anywhere). The hook runs on the scheduling
    /// thread: it must only perform atomic reads of algorithm state (e.g.
    /// property-map snapshots), never send messages or block. Returning
    /// `Err(detail)` fails the machine with
    /// [`MachineError::InvariantViolated`], freezing the flight recorder
    /// at the exact virtual time of the offense.
    ///
    /// Installed from inside the SPMD program (state to check usually
    /// lives behind [`AmCtx::share`]); the first installer wins, so every
    /// rank installing the same check is the natural, benign pattern.
    /// No-op outside sim mode, so algorithm code can install checks
    /// unconditionally.
    pub fn sim_invariant<F>(&self, f: F)
    where
        F: Fn(&InvariantCtx) -> Result<(), String> + Send + Sync + 'static,
    {
        if let Some(sim) = &self.shared.sim {
            sim.set_invariant(Arc::new(f));
        }
    }

    /// Cooperatively release the scheduling token while this rank waits
    /// on others (no-op outside sim mode).
    #[inline]
    fn sim_idle_pause(&self) {
        if let Some(sim) = &self.shared.sim {
            sim.idle_wait(&self.shared, self.rank);
        }
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    /// Receive one packet off the wire: acknowledge and dedup sequenced
    /// packets (reliability layer on), then hand the envelope to its
    /// handler.
    pub(crate) fn handle_packet(&self, pkt: Packet) {
        if pkt.seq != 0 {
            if let Some(t) = &self.shared.reliability {
                // Ack *every* receipt, including duplicates: the original
                // ack may have been the thing that was lost.
                t.ack(&self.shared, pkt.from, self.rank, pkt.env.type_id, pkt.seq);
                if !t.accept(pkt.from, self.rank, pkt.seq) {
                    MachineStats::bump(&self.shared.stats.dups_suppressed, 1);
                    return;
                }
            }
        }
        self.handle_envelope(pkt.env);
    }

    pub(crate) fn handle_envelope(&self, env: Envelope) {
        let (type_id, count) = (env.type_id, env.count);
        let trace = env.trace;
        let payload = env.payload;
        let packed = ((type_id as u64) << 32) | count as u64;
        self.flight_push(FlightKind::HandlerEnter, packed, trace.event);
        // While a traced envelope's batch executes, every send this thread
        // makes joins the cascade: root carried through, the envelope's
        // event id as parent, depth + 1. Saved/restored (not just cleared)
        // because epoch_flush can nest handler execution under a traced
        // handler already on this thread's stack.
        let (prev_inherit, prev_cur) = (self.trace_inherit.get(), self.trace_cur.get());
        if trace.is_traced() {
            self.trace_inherit.set(true);
            self.trace_cur.set(TraceCtx {
                root: trace.root,
                event: 0,
                parent: trace.event,
                depth: trace.depth + 1,
            });
        }
        let run = || {
            // Frozen-table dispatch: no lock unless this thread's snapshot
            // predates the type's registration (worker cold start).
            let handler = self.local_handler(type_id);
            match &self.shared.obs {
                None => handler(self, payload, count),
                Some(rec) => {
                    let start_ns = rec.now_ns();
                    let t0 = std::time::Instant::now();
                    handler(self, payload, count);
                    let dur_ns = t0.elapsed().as_nanos() as u64;
                    rec.handler_ns.record(dur_ns);
                    rec.record(SpanRecord {
                        kind: SpanKind::Handler,
                        name: "handler",
                        rank: self.rank,
                        thread: self.thread,
                        start_ns,
                        dur_ns,
                        epoch: self.shared.completed_epoch.load(SeqCst) + 1,
                        arg0: type_id as u64,
                        arg1: count as u64,
                        flow_in: trace.event,
                        flow_out: 0,
                    });
                }
            }
        };
        let result = std::panic::catch_unwind(AssertUnwindSafe(run));
        if trace.is_traced() {
            self.trace_inherit.set(prev_inherit);
            self.trace_cur.set(prev_cur);
        }
        if let Err(payload) = result {
            if !payload.is::<Abort>() {
                let type_name = self
                    .shared
                    .type_stats
                    .read()
                    .get(type_id as usize)
                    .map(|t| t.name.clone())
                    .unwrap_or_default();
                // Cause before fail: fail() freezes the flight rings, and
                // the cause is what the post-mortem's causal chain hangs
                // off.
                self.shared.record_fail_cause(FailCause {
                    rank: self.rank,
                    epoch: self.shared.current_epoch_hint(),
                    type_id,
                    type_name: type_name.clone(),
                    trace,
                });
                self.shared.fail(
                    MachineError::HandlerPanicked {
                        rank: self.rank,
                        type_id,
                        type_name,
                        message: panic_message(payload.as_ref()),
                    },
                    Some(payload),
                );
            }
            // Unwind out of whatever loop was dispatching packets; the
            // rank supervisor recognizes the sentinel.
            std::panic::resume_unwind(Box::new(Abort));
        }
        self.flight_push(FlightKind::HandlerExit, packed, trace.event);
    }

    /// Ship all of this thread's non-empty coalescing buffers. Returns the
    /// number of envelopes shipped.
    pub(crate) fn flush_own_buffers(&self) -> usize {
        // Publish before shipping: every message in these buffers must be
        // in the shared `sent` before it can be received — and this is
        // also the routine liveness flush point (worker loops and all
        // idle/termination paths come through here before blocking).
        self.publish_deltas();
        // Note: handlers invoked later may refill buffers; callers loop.
        let mut shipped = 0;
        let mut bufs = self.bufs.borrow_mut();
        for slot in bufs.iter_mut().flatten() {
            shipped += slot.flush_all(self);
        }
        shipped
    }

    fn flush_flushables(&self) -> usize {
        let me = &self.shared.ranks[self.rank];
        let flushables = {
            let want = me.flushables_len.load(Relaxed);
            let t = self.tables.borrow();
            if t.flushables.len() == want {
                t.flushables.clone()
            } else {
                drop(t);
                self.refresh_tables();
                self.tables.borrow().flushables.clone()
            }
        };
        let mut forwarded = 0;
        for fl in flushables.iter() {
            forwarded += fl.flush(self);
        }
        forwarded
    }

    // ------------------------------------------------------------------
    // Hot-path support: frozen tables, delta publication, batch recycling
    // (see INTERNALS.md §9 for the full design + safety argument)
    // ------------------------------------------------------------------

    /// Refresh this thread's frozen table snapshots from the shared
    /// registries. Called at epoch entry on rank main threads, after
    /// registration on the registering thread, and lazily on snapshot
    /// misses (worker threads) — never per message.
    fn refresh_tables(&self) {
        let me = &self.shared.ranks[self.rank];
        let mut t = self.tables.borrow_mut();
        t.handlers = me.handlers.read().iter().cloned().collect();
        t.type_stats = self.shared.type_stats.read().iter().cloned().collect();
        t.flushables = me.flushables.read().iter().cloned().collect();
    }

    /// Pre-size the per-type hot-path vectors (coalescing slots, per-type
    /// deltas) to the frozen type count, so the send path's length checks
    /// never grow anything mid-epoch on this thread.
    fn presize_locals(&self) {
        let ntypes = self.tables.borrow().type_stats.len();
        {
            let mut bufs = self.bufs.borrow_mut();
            if bufs.len() < ntypes {
                bufs.resize_with(ntypes, || None);
            }
        }
        let mut pt = self.deltas.per_type.borrow_mut();
        if pt.len() < ntypes {
            pt.resize(ntypes, (0, 0));
        }
    }

    /// The handler for `type_id` from the frozen table; on a miss (a
    /// worker whose snapshot predates the registration) refresh once and
    /// retry. The hit path takes no lock.
    fn local_handler(&self, type_id: u32) -> Arc<ErasedHandler> {
        let idx = type_id as usize;
        {
            let t = self.tables.borrow();
            if let Some(h) = t.handlers.get(idx) {
                return h.clone();
            }
        }
        self.refresh_tables();
        let t = self.tables.borrow();
        t.handlers.get(idx).cloned().unwrap_or_else(|| {
            panic!(
                "message of unregistered type {} arrived at rank {}",
                type_id, self.rank
            )
        })
    }

    /// Publish this thread's accumulated counter deltas to the shared
    /// atomics. Flush points: before a full coalescing buffer ships
    /// (`send_typed`'s `pre_ship` hook), at every `flush_own_buffers`
    /// (which every idle loop and termination path runs through before
    /// blocking or reading counters), and on the public stats accessors.
    ///
    /// Ordering: the Relaxed statistics and this rank's `sent` are
    /// published first and `handled` last (both `SeqCst` RMWs), so any
    /// thread that observes machine-wide `sent == handled` also observes
    /// every statistic published alongside — the epoch profiler's sealed
    /// snapshots stay exact. Safety of batching itself is argued in
    /// `crate::termination` (delayed `sent` is never visible to a
    /// receiver; delayed `handled` only understates progress).
    pub(crate) fn publish_deltas(&self) {
        if !self.deltas.dirty.replace(false) {
            return;
        }
        let d = &self.deltas;
        let stats = &self.shared.stats;
        {
            let mut pt = d.per_type.borrow_mut();
            if pt.iter().any(|&(s, h)| s | h != 0) {
                {
                    let t = self.tables.borrow();
                    if t.type_stats.len() < pt.len() {
                        drop(t);
                        self.refresh_tables();
                    }
                }
                let t = self.tables.borrow();
                for (idx, e) in pt.iter_mut().enumerate() {
                    if e.0 | e.1 != 0 {
                        let ts = &t.type_stats[idx];
                        if e.0 > 0 {
                            MachineStats::bump(&ts.sent, e.0);
                        }
                        if e.1 > 0 {
                            MachineStats::bump(&ts.handled, e.1);
                        }
                        *e = (0, 0);
                    }
                }
            }
        }
        for (cell, counter) in [
            (&d.cache_hits, &stats.cache_hits),
            (&d.cache_misses, &stats.cache_misses),
            (&d.reduction_combines, &stats.reduction_combines),
            (&d.reduction_forwards, &stats.reduction_forwards),
        ] {
            let n = cell.take();
            if n > 0 {
                MachineStats::bump(counter, n);
            }
        }
        let me = &self.shared.ranks[self.rank];
        let s = d.sent.take();
        if s > 0 {
            MachineStats::bump(&stats.messages_sent, s);
            me.sent.fetch_add(s, SeqCst);
        }
        let h = d.handled.take();
        if h > 0 {
            MachineStats::bump(&stats.messages_handled, h);
            me.handled.fetch_add(h, SeqCst);
        }
    }

    /// Return a drained batch box from the handler loop to this thread's
    /// per-type free list, so the next flush of that type ships without
    /// allocating (see `crate::coalescing`). The box (what the envelope
    /// payload downcasts to) is pooled whole — node and storage.
    #[allow(clippy::box_collection)]
    fn recycle_batch<T: Clone + Send + 'static>(&self, type_id: u32, batch: Box<Vec<T>>) {
        debug_assert!(batch.is_empty());
        let mut bufs = self.bufs.borrow_mut();
        let idx = type_id as usize;
        if bufs.len() <= idx {
            grow_slots(&mut bufs, idx);
        }
        let cap = self.shared.cfg.coalescing_capacity;
        let nranks = self.shared.cfg.ranks;
        let slot =
            bufs[idx].get_or_insert_with(|| Box::new(TypedBuffers::<T>::new(type_id, cap, nranks)));
        let tb = slot
            .as_any_mut()
            .downcast_mut::<TypedBuffers<T>>()
            .expect("message type ids are unique per machine");
        tb.recycle(batch);
    }

    /// Batched statistic notes for the optional message layers (caching,
    /// reduction): same delta discipline as `sent`/`handled`.
    pub(crate) fn note_cache_hit(&self) {
        PendingDeltas::add(&self.deltas.cache_hits, 1);
        self.deltas.dirty.set(true);
    }

    pub(crate) fn note_cache_miss(&self) {
        PendingDeltas::add(&self.deltas.cache_misses, 1);
        self.deltas.dirty.set(true);
    }

    pub(crate) fn note_reduction_combine(&self) {
        PendingDeltas::add(&self.deltas.reduction_combines, 1);
        self.deltas.dirty.set(true);
    }

    pub(crate) fn note_reduction_forwards(&self, n: u64) {
        PendingDeltas::add(&self.deltas.reduction_forwards, n);
        self.deltas.dirty.set(true);
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
                    self.flight_push(FlightKind::TermVote, my_gen, rounds);
                    shared.completed_epoch.fetch_max(my_gen, SeqCst);
                    break;
                }
            }
            // Block briefly; new work lowers our idle flag. In sim mode
            // blocking the OS thread would stall the whole machine (we
            // hold the scheduling token) — park cooperatively instead;
            // deliveries and dry-queue wakes resume us, and the next
            // drain_and_flush picks the packets up.
            match &shared.sim {
                Some(sim) => sim.idle_wait(shared, self.rank),
                None => {
                    if let Ok(pkt) = me.rx.recv_timeout(crate::config::RECV_TIMEOUT) {
                        me.idle.store(false, SeqCst);
                        self.handle_packet(pkt);
                    }
                }
            }
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
            // Block briefly on the data channel (cooperatively in sim
            // mode; control tokens mark us runnable via push_token).
            match &shared.sim {
                Some(sim) => sim.idle_wait(shared, self.rank),
                None => {
                    if let Ok(pkt) = me.rx.recv_timeout(crate::config::RECV_TIMEOUT) {
                        me.idle.store(false, SeqCst);
                        self.handle_packet(pkt);
                    }
                }
            }
        }
        me.idle.store(true, SeqCst);
        // Drain any stale control traffic for this epoch.
        while me.ctl_rx.try_recv().is_ok() {}
        if let Some(s) = span.as_mut() {
            s.set_arg1(tokens_seen);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    fn cfg(ranks: usize) -> MachineConfig {
        MachineConfig::new(ranks)
    }

    #[test]
    fn empty_epoch_terminates() {
        let out = Machine::run(cfg(4), |ctx| {
            ctx.epoch(|_| {});
            ctx.rank()
        });
        assert_eq!(out, vec![0, 1, 2, 3]);
    }

    #[test]
    fn single_message_is_handled_before_epoch_ends() {
        let hits = Arc::new(AtomicU64::new(0));
        let h2 = hits.clone();
        Machine::run(cfg(2), move |ctx| {
            let hits = h2.clone();
            let mt = ctx.register(move |_ctx, x: u64| {
                hits.fetch_add(x, SeqCst);
            });
            ctx.epoch(|ctx| {
                if ctx.rank() == 0 {
                    mt.send(ctx, 1, 41);
                }
            });
            // Termination guarantees visibility.
            assert_eq!(h2.load(SeqCst), 41);
        });
        assert_eq!(hits.load(SeqCst), 41);
    }

    #[test]
    fn handlers_can_send_chains() {
        // Each rank starts a chain that hops around the ring 100 times.
        let hops = Arc::new(AtomicU64::new(0));
        let h2 = hops.clone();
        Machine::run(cfg(4), move |ctx| {
            let hops = h2.clone();
            let mt = ctx.register(move |ctx, left: u64| {
                hops.fetch_add(1, SeqCst);
                if left > 0 {
                    let next = (ctx.rank() + 1) % ctx.num_ranks();
                    ctx.send(next, left - 1);
                }
            });
            ctx.epoch(|ctx| {
                mt.send(ctx, (ctx.rank() + 1) % ctx.num_ranks(), 99u64);
            });
        });
        assert_eq!(hops.load(SeqCst), 4 * 100);
    }

    #[test]
    fn multiple_epochs_reuse_the_machine() {
        let total = Arc::new(AtomicU64::new(0));
        let t2 = total.clone();
        Machine::run(cfg(3), move |ctx| {
            let total = t2.clone();
            let mt = ctx.register(move |_ctx, x: u64| {
                total.fetch_add(x, SeqCst);
            });
            for round in 0..10u64 {
                ctx.epoch(|ctx| {
                    for dest in 0..ctx.num_ranks() {
                        mt.send(ctx, dest, round);
                    }
                });
            }
        });
        // 3 ranks * 3 dests * sum(0..10)
        assert_eq!(total.load(SeqCst), 9 * 45);
    }

    #[test]
    fn four_counter_wave_terminates() {
        let hops = Arc::new(AtomicU64::new(0));
        let h2 = hops.clone();
        Machine::run(
            cfg(4).termination(TerminationMode::FourCounterWave),
            move |ctx| {
                let hops = h2.clone();
                let mt = ctx.register(move |ctx, left: u64| {
                    hops.fetch_add(1, SeqCst);
                    if left > 0 {
                        let next = (ctx.rank() + 7) % ctx.num_ranks();
                        ctx.send(next, left - 1);
                    }
                });
                ctx.epoch(|ctx| {
                    mt.send(ctx, (ctx.rank() + 1) % ctx.num_ranks(), 50u64);
                });
            },
        );
        assert_eq!(hops.load(SeqCst), 4 * 51);
    }

    #[test]
    fn multithreaded_ranks_handle_messages() {
        let hits = Arc::new(AtomicU64::new(0));
        let h2 = hits.clone();
        Machine::run(cfg(2).threads_per_rank(4), move |ctx| {
            let hits = h2.clone();
            let mt = ctx.register(move |_ctx, _: u32| {
                hits.fetch_add(1, SeqCst);
            });
            ctx.epoch(|ctx| {
                for i in 0..1000u32 {
                    mt.send(ctx, (i as usize) % ctx.num_ranks(), i);
                }
            });
        });
        assert_eq!(hits.load(SeqCst), 2000);
    }

    #[test]
    fn coalescing_reduces_envelopes() {
        let run = |cap: usize| {
            let out = Machine::run(cfg(2).coalescing(cap), |ctx| {
                let mt = ctx.register(|_ctx, _: u32| {});
                ctx.epoch(|ctx| {
                    if ctx.rank() == 0 {
                        for i in 0..256u32 {
                            mt.send(ctx, 1, i);
                        }
                    }
                });
                ctx.stats().envelopes_sent
            });
            out[0]
        };
        let coarse = run(64);
        let fine = run(1);
        assert!(coarse <= 256 / 64 + 2, "coarse={coarse}");
        assert!(fine >= 256, "fine={fine}");
    }

    #[test]
    fn epoch_flush_performs_available_work() {
        let seen = Arc::new(AtomicU64::new(0));
        let s2 = seen.clone();
        Machine::run(cfg(1), move |ctx| {
            let seen = s2.clone();
            let mt = ctx.register(move |_ctx, x: u64| {
                seen.fetch_add(x, SeqCst);
            });
            ctx.epoch(|ctx| {
                mt.send(ctx, 0, 5);
                ctx.epoch_flush();
                // Single rank: after the flush the handler must have run.
                assert_eq!(s2.load(SeqCst), 5);
            });
        });
        assert_eq!(seen.load(SeqCst), 5);
    }

    #[test]
    fn try_finish_ends_quiet_epoch() {
        let out = Machine::run(cfg(4), |ctx| {
            let mt = ctx.register(|_ctx, _: u8| {});
            ctx.epoch(|ctx| {
                if ctx.rank() == 0 {
                    for d in 0..ctx.num_ranks() {
                        mt.send(ctx, d, 1);
                    }
                }
                let mut spins = 0u64;
                while !ctx.try_finish() {
                    spins += 1;
                }
                spins
            })
        });
        assert_eq!(out.len(), 4);
    }

    #[test]
    fn messages_to_self_work() {
        let hits = Arc::new(AtomicU64::new(0));
        let h2 = hits.clone();
        Machine::run(cfg(1), move |ctx| {
            let hits = h2.clone();
            let mt = ctx.register(move |_ctx, _: u8| {
                hits.fetch_add(1, SeqCst);
            });
            ctx.epoch(|ctx| {
                for _ in 0..100 {
                    mt.send(ctx, 0, 0);
                }
            });
        });
        assert_eq!(hits.load(SeqCst), 100);
    }

    #[test]
    fn results_returned_in_rank_order() {
        let out = Machine::run(cfg(6), |ctx| ctx.rank() * 10);
        assert_eq!(out, vec![0, 10, 20, 30, 40, 50]);
    }

    #[test]
    #[should_panic(expected = "do not nest")]
    fn nested_epochs_panic() {
        Machine::run(cfg(1), |ctx| {
            ctx.epoch(|ctx| {
                ctx.epoch(|_| {});
            });
        });
    }

    #[test]
    fn stats_count_messages() {
        let out = Machine::run(cfg(2), |ctx| {
            let mt = ctx.register(|_ctx, _: u32| {});
            ctx.epoch(|ctx| {
                if ctx.rank() == 0 {
                    for i in 0..10u32 {
                        mt.send(ctx, 1, i);
                    }
                }
            });
            ctx.stats()
        });
        assert_eq!(out[0].messages_sent, 10);
        assert_eq!(out[0].messages_handled, 10);
        assert_eq!(out[0].epochs, 2);
    }

    #[test]
    fn two_message_types_dispatch_correctly() {
        let a = Arc::new(AtomicU64::new(0));
        let b = Arc::new(AtomicU64::new(0));
        let (a2, b2) = (a.clone(), b.clone());
        Machine::run(cfg(2), move |ctx| {
            let a = a2.clone();
            let b = b2.clone();
            let ta = ctx.register(move |_ctx, x: u64| {
                a.fetch_add(x, SeqCst);
            });
            let tb = ctx.register(move |_ctx, x: u32| {
                b.fetch_add(x as u64, SeqCst);
            });
            ctx.epoch(|ctx| {
                if ctx.rank() == 0 {
                    ta.send(ctx, 1, 100u64);
                    tb.send(ctx, 1, 1u32);
                }
            });
        });
        assert_eq!(a.load(SeqCst), 100);
        assert_eq!(b.load(SeqCst), 1);
    }
}

#[cfg(test)]
mod type_stats_tests {
    use super::*;
    use crate::config::MachineConfig;

    #[test]
    fn per_type_counters_track_both_sides() {
        let out = Machine::run(MachineConfig::new(2), |ctx| {
            let ping = ctx.register_named("ping", |_ctx, _x: u32| {});
            let pong = ctx.register_named("pong", |_ctx, _x: u64| {});
            ctx.epoch(|ctx| {
                if ctx.rank() == 0 {
                    for i in 0..7u32 {
                        ping.send(ctx, 1, i);
                    }
                    pong.send(ctx, 1, 1u64);
                }
            });
            ctx.type_stats()
        });
        let stats = &out[0];
        assert_eq!(stats.len(), 2);
        assert_eq!(
            (stats[0].name.as_str(), stats[0].sent, stats[0].handled),
            ("ping", 7, 7)
        );
        assert_eq!(
            (stats[1].name.as_str(), stats[1].sent, stats[1].handled),
            ("pong", 1, 1)
        );
    }

    #[test]
    fn default_names_use_type_name() {
        let out = Machine::run(MachineConfig::new(1), |ctx| {
            let mt = ctx.register(|_ctx, _x: (u64, f64)| {});
            ctx.epoch(|ctx| mt.send(ctx, 0, (1, 2.0)));
            ctx.type_stats()
        });
        assert!(out[0][0].name.contains("u64"), "{:?}", out[0][0].name);
    }
}
