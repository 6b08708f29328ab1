//! State shared by every thread of a machine, and the delivery seam
//! (`push_packet` / `push_ack` / `push_token`) that threads, wire
//! backends and the simulator all funnel through.

use std::any::Any;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::SeqCst};
use std::sync::{Arc, OnceLock};
use std::thread::Thread;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::RwLock;

use super::envelope::{ErasedHandler, Flushable};
use super::{Ack, Envelope, Packet, RankId};
use crate::collectives::Collective;
use crate::config::MachineConfig;
use crate::error::{Abort, MachineError};
use crate::fault::{FaultPlan, Reliability};
use crate::obs::{EpochProfiler, Recorder};
use crate::sim::SimNet;
use crate::stats::{MachineStats, StatsSnapshot, TypeStat};
use crate::termination::Token;
use crate::trace::{FailCause, FlightCollector};

pub(crate) struct RankShared {
    tx: Sender<Packet>,
    pub(super) rx: Receiver<Packet>,
    ctl_tx: Sender<Token>,
    pub(super) ctl_rx: Receiver<Token>,
    /// Acknowledgements addressed to this rank (only used when the
    /// reliability layer is installed).
    ack_tx: Sender<Ack>,
    ack_rx: Receiver<Ack>,
    pub(super) handlers: RwLock<Vec<Arc<ErasedHandler>>>,
    pub(super) flushables: RwLock<Vec<Arc<dyn Flushable>>>,
    /// Length of `flushables`, readable without the lock: threads compare
    /// it against their frozen snapshot to detect staleness (registration
    /// is append-only, so length is a version number).
    pub(super) flushables_len: AtomicUsize,
    pub(super) sent: AtomicU64,
    pub(super) handled: AtomicU64,
    pub(super) idle: AtomicBool,
    /// Wakes this rank's main thread out of a termination wait: rung by
    /// every delivery into its three channels and by the rank that
    /// decides termination (see [`crate::termination`], liveness).
    pub(super) bell: Doorbell,
}

impl RankShared {
    /// Whether anything is queued on this rank's inbox, control or ack
    /// channel — the waits' re-check after raising the doorbell flag.
    pub(super) fn has_mail(&self) -> bool {
        !self.rx.is_empty() || !self.ctl_rx.is_empty() || !self.ack_rx.is_empty()
    }
}

/// One waiter's wake primitive: a flag the waiter raises before it parks
/// and a waker clears with a `swap`, unparking only when the swap saw it
/// raised — so one park costs at most one wake syscall, and ringing a
/// thread that is not waiting is a load and nothing else.
#[derive(Default)]
pub(crate) struct Doorbell {
    waiting: AtomicBool,
    waiter: OnceLock<Thread>,
}

impl Doorbell {
    /// Wake the waiter if it is waiting; a no-op otherwise. Callers make
    /// whatever the waiter should see visible *before* ringing.
    #[inline]
    pub(crate) fn ring(&self) {
        if self.waiting.load(SeqCst) && self.waiting.swap(false, SeqCst) {
            if let Some(t) = self.waiter.get() {
                t.unpark();
            }
        }
    }

    /// Park the calling thread until [`Doorbell::ring`] or until `ceiling`
    /// has passed, unless `ready` — evaluated once the flag is up — says
    /// there is already something to do. Returns `false` only when the
    /// wait ended at the ceiling. Only one thread may ever wait on a bell.
    pub(crate) fn wait(&self, ceiling: Duration, ready: impl FnOnce() -> bool) -> bool {
        let me = self.waiter.get_or_init(std::thread::current);
        debug_assert_eq!(me.id(), std::thread::current().id(), "one waiter per bell");
        self.waiting.store(true, SeqCst);
        if ready() {
            self.waiting.store(false, SeqCst);
            return true;
        }
        let deadline = Instant::now() + ceiling;
        loop {
            // Only a cleared flag means "rung": a stale unpark left by an
            // earlier wait, or a spurious wake, just parks again.
            if !self.waiting.load(SeqCst) {
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                return !self.waiting.swap(false, SeqCst);
            }
            std::thread::park_timeout(deadline - now);
        }
    }
}

pub(crate) struct Shared {
    pub(crate) cfg: MachineConfig,
    pub(crate) ranks: Vec<RankShared>,
    /// Number of ranks currently between epoch entry and exit (for asserts).
    pub(super) epoch_active: AtomicUsize,
    /// Highest epoch generation whose termination has been observed.
    pub(crate) completed_epoch: AtomicU64,
    pub(super) shutdown: AtomicBool,
    /// Set when any thread panics, so blocked peers fail fast.
    pub(super) poisoned: AtomicBool,
    pub(super) coll: Collective,
    /// Scratch slot for the collective `share` primitive.
    pub(super) share_slot: parking_lot::Mutex<Option<Box<dyn Any + Send>>>,
    /// Per-message-type counters, indexed by type id (registration is
    /// collective, so ids agree across ranks).
    pub(super) type_stats: RwLock<Vec<Arc<TypeStat>>>,
    /// Optional span/histogram recorder ([`MachineConfig::profile`]); the
    /// disabled path everywhere is one branch on this `Option`.
    pub(crate) obs: Option<Recorder>,
    /// Always-on per-epoch counter snapshotting (see [`crate::obs`]).
    pub(super) epoch_prof: EpochProfiler,
    /// Reliability + fault-injection layer; installed when
    /// [`MachineConfig::faults`] is set or when a lossy wire backend is
    /// selected (then with an inject-nothing plan — see
    /// [`FaultPlan::wire_default`]); `None` keeps the perfect in-process
    /// transport.
    pub(super) reliability: Option<Reliability>,
    /// Wire transport backend ([`MachineConfig::transport`]); `None` is
    /// the inproc default — packets go straight into inbox channels —
    /// and sim mode always runs with `None` (the event queue *is* its
    /// transport).
    pub(super) wire: Option<Arc<dyn crate::transport::Transport>>,
    /// The first failure recorded on this machine (first-wins; see
    /// [`Shared::fail`]).
    pub(super) failure: parking_lot::Mutex<Option<MachineError>>,
    /// The original panic payload behind `failure`, when there is one —
    /// [`Machine::run`] re-raises it so panic messages survive verbatim.
    pub(super) failure_payload: parking_lot::Mutex<Option<Box<dyn Any + Send>>>,
    /// Always-on flight recorder: per-thread rings deposit here at thread
    /// exit; frozen by the first recorded failure (see [`crate::trace`]).
    pub(crate) flight: FlightCollector,
    /// Allocator for causal event ids (traced envelopes only — untraced
    /// ships never touch it).
    pub(super) trace_eid: AtomicU64,
    /// Causal-trace sampler seed (see
    /// [`MachineConfig::trace_sampling`]).
    pub(super) trace_seed: u64,
    /// Causal context of the envelope whose handler recorded the machine's
    /// failure (first-wins, alongside `failure`).
    pub(super) fail_cause: parking_lot::Mutex<Option<FailCause>>,
    /// Discrete-event network + cooperative scheduler, installed by
    /// [`Machine::run_sim`]; `None` for threaded runs (see [`crate::sim`]).
    pub(crate) sim: Option<SimNet>,
    pub(crate) stats: MachineStats,
}

impl Shared {
    pub(super) fn new(
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
                    bell: Doorbell::default(),
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
    pub(super) fn full_snapshot(&self) -> StatsSnapshot {
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

    pub(super) fn poison(&self) {
        self.poisoned.store(true, SeqCst);
        self.shutdown.store(true, SeqCst);
        self.coll.poison();
        if let Some(sim) = &self.sim {
            // Abandon deterministic scheduling: wake every parked rank so
            // it can observe the poison and unwind.
            sim.poison();
        }
        self.wake_all();
    }

    /// Ring every rank's doorbell: termination was decided, or the
    /// machine was poisoned (the caller's own bell is down — a no-op).
    pub(super) fn wake_all(&self) {
        for r in &self.ranks {
            r.bell.ring();
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
    pub(super) fn check_poison(&self) {
        if self.poisoned.load(SeqCst) {
            std::panic::resume_unwind(Box::new(Abort));
        }
    }

    pub(super) fn all_idle(&self) -> bool {
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
        let rank = &self.ranks[dest];
        if rank.tx.send(pkt).is_ok() {
            rank.bell.ring();
        } else {
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
        let rank = &self.ranks[dest];
        if rank.ack_tx.send(ack).is_ok() {
            rank.bell.ring();
        } else {
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
        let rank = &self.ranks[dest];
        if rank.tx.send(pkt).is_ok() {
            rank.bell.ring();
        }
    }

    /// Tolerant wire-backend ack delivery (see [`Shared::wire_deliver`]).
    pub(crate) fn wire_ack(&self, dest: RankId, ack: Ack) {
        let rank = &self.ranks[dest];
        if rank.ack_tx.send(ack).is_ok() {
            rank.bell.ring();
        }
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
    pub(super) fn push_token(&self, from: RankId, dest: RankId, tok: Token) {
        if let Some(sim) = &self.sim {
            sim.enqueue_token(from, dest, tok);
            return;
        }
        self.token_direct(dest, tok);
    }

    /// Deliver a control token onto `dest`'s control channel.
    pub(crate) fn token_direct(&self, dest: RankId, tok: Token) {
        let rank = &self.ranks[dest];
        if rank.ctl_tx.send(tok).is_ok() {
            rank.bell.ring();
        } else {
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
    pub(super) fn pump_transport(&self, rank: RankId) {
        if let Some(t) = &self.reliability {
            t.pump(self, rank);
        }
    }
}

/// Push an envelope into `dest`'s inbox (used by the coalescing layer).
pub(super) fn deliver(shared: &Shared, from: RankId, dest: RankId, env: Envelope) {
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

#[cfg(test)]
mod tests {
    use super::*;

    const LONG: Duration = Duration::from_secs(10);

    #[test]
    fn a_ring_before_the_wait_is_not_lost() {
        let bell = Doorbell::default();
        // Push-then-ring before the waiter raised its flag: the ring is a
        // no-op, and the waiter's re-check sees the pushed fact instead.
        let mail = AtomicBool::new(true);
        bell.ring();
        let t0 = Instant::now();
        assert!(bell.wait(LONG, || mail.load(SeqCst)));
        // A ring landing between the flag and the park leaves an unpark
        // token: the park returns at once.
        assert!(bell.wait(LONG, || {
            bell.ring();
            false
        }));
        assert!(t0.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn a_ring_from_another_thread_wakes_the_waiter() {
        let bell = Arc::new(Doorbell::default());
        let ringer = {
            let bell = bell.clone();
            std::thread::spawn(move || {
                while !bell.waiting.load(SeqCst) {
                    std::thread::yield_now();
                }
                bell.ring();
            })
        };
        let t0 = Instant::now();
        assert!(
            bell.wait(LONG, || false),
            "woken by the ring, not the ceiling"
        );
        assert!(t0.elapsed() < Duration::from_secs(1));
        ringer.join().unwrap();
    }

    #[test]
    fn a_ring_to_a_bell_nobody_waits_on_is_a_no_op() {
        let bell = Doorbell::default();
        bell.ring();
        assert!(!bell.waiting.load(SeqCst));
        assert!(bell.waiter.get().is_none(), "nothing to unpark");
        // ...and it leaves no wake behind for a later wait.
        assert!(!bell.wait(Duration::from_millis(5), || false));
    }
}
