//! State shared by every thread of a machine, and the delivery seam
//! (`push_packet`) that threads, wire backends and the simulator all
//! funnel through.

use std::any::Any;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::SeqCst};
use std::sync::{Arc, OnceLock};
use std::thread::Thread;
use std::time::{Duration, Instant};

use parking_lot::RwLock;

use super::envelope::ErasedHandler;
use super::inbox::{Inbox, LANES};
use super::{Packet, RankId};
use crate::collectives::Collective;
use crate::config::MachineConfig;
use crate::error::{Abort, MachineError};
use crate::fault::{FaultPlan, Reliability};
use crate::obs::{EpochProfiler, Recorder};
use crate::sim::SimNet;
use crate::stats::{MachineStats, StatsSnapshot, TypeStat};
use crate::trace::FailCause;

/// `RankShared::idle_at` when the rank has not declared itself idle.
pub(super) const NOT_IDLE: u64 = u64::MAX;

/// One rank's slot of the machine. Aligned to 128 bytes (a line and its
/// prefetch partner), so the counters and idle declaration this rank's threads
/// write never share a line with a peer's inbox, doorbell or counters; the
/// inbox's lanes are aligned the same way, one per source.
#[repr(align(128))]
pub(crate) struct RankShared {
    /// Where every packet for this rank lands: one lane per source rank.
    pub(super) inbox: Inbox,
    pub(super) handlers: RwLock<Vec<Arc<ErasedHandler>>>,
    /// This rank's per-message-type counters, indexed by type id
    /// (registration is collective, so ids agree across ranks);
    /// [`AmCtx::type_stats`](super::AmCtx::type_stats) sums the ranks.
    pub(super) type_stats: RwLock<Vec<Arc<TypeStat>>>,
    pub(super) sent: AtomicU64,
    pub(super) handled: AtomicU64,
    /// Envelopes this rank's threads shipped (a statistic: relaxed).
    pub(super) envelopes_sent: AtomicU64,
    /// Bumped by every thread of this rank before it publishes a
    /// `handled` delta, so after the work its handlers deposited exists.
    pub(super) activity: AtomicU64,
    /// The `activity` at which the main thread last declared the rank
    /// idle, or [`NOT_IDLE`]. The declaration holds while the two are
    /// equal: any later `handled` publication withdraws it.
    pub(super) idle_at: AtomicU64,
    /// Wakes this rank's main thread out of a termination wait: rung by
    /// every delivery into its inbox and by the rank that
    /// decides termination (see [`crate::termination`], liveness).
    pub(super) bell: Doorbell,
}

impl RankShared {
    /// Whether the rank's idle declaration still holds: no thread of the
    /// rank has published a `handled` count since it was made.
    pub(super) fn is_idle(&self) -> bool {
        let at = self.idle_at.load(SeqCst);
        at == self.activity.load(SeqCst)
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

    /// Park the calling thread until [`Doorbell::ring`] or its `timeout`,
    /// unless `ready` — evaluated once the flag is up — says there is
    /// already something to do. Returns `false` only when the wait ended
    /// at its timeout. Only one thread may ever wait on a bell.
    pub(crate) fn wait(&self, timeout: Option<Duration>, ready: impl FnOnce() -> bool) -> bool {
        let me = self.waiter.get_or_init(std::thread::current);
        debug_assert_eq!(me.id(), std::thread::current().id(), "one waiter per bell");
        self.waiting.store(true, SeqCst);
        if ready() {
            self.waiting.store(false, SeqCst);
            return true;
        }
        let deadline = timeout.map(|t| Instant::now() + t);
        loop {
            // Only a cleared flag means "rung": a stale unpark left by an
            // earlier wait, or a spurious wake, just parks again.
            if !self.waiting.load(SeqCst) {
                return true;
            }
            match deadline.map(|d| d.saturating_duration_since(Instant::now())) {
                None => std::thread::park(),
                Some(left) if left.is_zero() => return !self.waiting.swap(false, SeqCst),
                Some(left) => std::thread::park_timeout(left),
            }
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
    /// The event recorder: one ring per runtime thread, always on;
    /// frozen by the first recorded failure (see [`crate::obs`]).
    pub(crate) recorder: Recorder,
    /// Always-on per-epoch counter snapshotting (see [`crate::obs`]).
    pub(super) epoch_prof: EpochProfiler,
    /// Reliability + fault-injection layer; installed when
    /// [`MachineConfig::faults`] is set or when a lossy wire backend is
    /// selected (then with an inject-nothing plan — see
    /// [`FaultPlan::wire_default`]); `None` keeps the perfect in-process
    /// transport.
    pub(super) reliability: Option<Reliability>,
    /// Wire transport backend ([`MachineConfig::transport`]); `None` is
    /// the inproc default — packets go straight into inbox lanes —
    /// and sim mode always runs with `None` (the event queue *is* its
    /// transport).
    pub(super) wire: Option<Arc<dyn crate::transport::Transport>>,
    /// The first failure recorded on this machine (first-wins; see
    /// [`Shared::fail`]).
    pub(super) failure: parking_lot::Mutex<Option<MachineError>>,
    /// The original panic payload behind `failure`, when there is one —
    /// [`Machine::run`] re-raises it so panic messages survive verbatim.
    pub(super) failure_payload: parking_lot::Mutex<Option<Box<dyn Any + Send>>>,
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
        let lanes = if sim.is_some() {
            1
        } else {
            cfg.ranks.min(LANES)
        };
        let ranks = (0..cfg.ranks)
            .map(|_| RankShared {
                inbox: Inbox::new(lanes),
                handlers: RwLock::new(Vec::new()),
                type_stats: RwLock::new(Vec::new()),
                sent: AtomicU64::new(0),
                handled: AtomicU64::new(0),
                envelopes_sent: AtomicU64::new(0),
                activity: AtomicU64::new(0),
                idle_at: AtomicU64::new(NOT_IDLE),
                bell: Doorbell::default(),
            })
            .collect();
        let participants = cfg.ranks;
        // A lossy wire backend (TCP) makes the reliability layer
        // load-bearing: install it with an inject-nothing plan when the
        // user did not configure faults of their own.
        let fault_plan = cfg.faults.clone().or_else(|| {
            wire.as_ref()
                .is_some_and(|w| w.lossy())
                .then(FaultPlan::wire_default)
        });
        let reliability = fault_plan.map(|plan| Reliability::new(plan, cfg.ranks, sim.is_some()));
        // Chaos runs trace reproducibly with no extra wiring: the fault
        // plan's seed when one is installed, otherwise a fixed constant.
        let trace_seed = cfg
            .faults
            .as_ref()
            .map_or(0x9E37_79B9_7F4A_7C15, |plan| plan.seed);
        // The recorder owns the machine's one clock (the reliability layer
        // and the epoch watchdog read it): virtual under the simulator,
        // making the timeline deterministic and digest-comparable.
        let recorder = Recorder::new(&cfg, sim.as_ref().map(|net| net.clock.clone()));
        Shared {
            sim,
            reliability,
            wire,
            recorder,
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
            epoch_prof: EpochProfiler::default(),
            failure: parking_lot::Mutex::new(None),
            failure_payload: parking_lot::Mutex::new(None),
            stats: MachineStats::default(),
        }
    }

    /// Machine-wide cumulative snapshot with the per-rank message and
    /// envelope counters summed in (exact when quiescent, e.g. between
    /// epochs).
    pub(super) fn full_snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            messages_sent: self.total_sent(),
            messages_handled: self.total_handled(),
            envelopes_sent: self
                .ranks
                .iter()
                .map(|r| r.envelopes_sent.load(SeqCst))
                .sum(),
            collectives: match &self.sim {
                Some(sim) => sim.collective_rounds(),
                None => self.coll.rounds(),
            },
            ..self.stats.snapshot()
        }
    }

    pub(crate) fn total_handled(&self) -> u64 {
        self.ranks.iter().map(|r| r.handled.load(SeqCst)).sum()
    }

    pub(crate) fn total_sent(&self) -> u64 {
        self.ranks.iter().map(|r| r.sent.load(SeqCst)).sum()
    }

    pub(super) fn poison(&self) {
        self.poisoned.store(true, SeqCst);
        self.shut_down();
        self.coll.poison();
        if let Some(sim) = &self.sim {
            // Abandon deterministic scheduling: wake every parked rank so
            // it can observe the poison and unwind.
            sim.poison();
        }
        self.wake_all();
    }

    /// Tell handler workers to exit once their inbox is empty, waking the
    /// ones asleep on it.
    pub(super) fn shut_down(&self) {
        self.shutdown.store(true, SeqCst);
        for r in &self.ranks {
            r.inbox.wake_workers();
        }
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
        self.recorder.freeze();
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
        self.ranks.iter().all(RankShared::is_idle)
    }

    /// Send `pkt` — an envelope or an ack — towards `dest`'s inbox.
    ///
    /// This is the delivery seam: in sim mode the packet becomes a
    /// logical-time `Delivery` event instead of landing immediately, and
    /// the scheduler feeds it back through [`Shared::deliver`] when its
    /// modeled arrival time comes. Retransmissions and acks from the
    /// reliability layer funnel through here too, so they traverse the
    /// modeled links like any first transmission.
    pub(crate) fn push_packet(&self, dest: RankId, pkt: Packet) {
        if let Some(sim) = &self.sim {
            sim.enqueue_packet(dest, pkt);
            return;
        }
        // Wire backends carry only cross-rank traffic; self-sends and
        // self-acks keep the direct inbox path on every backend.
        if pkt.origin() != dest {
            if let Some(wire) = &self.wire {
                wire.send(self, dest, pkt);
                return;
            }
        }
        self.deliver(dest, pkt);
    }

    /// Put `pkt` in `dest`'s inbox *now* and ring its doorbell: the inproc
    /// half of [`Shared::push_packet`], the sim scheduler's delivery
    /// primitive, and where wire backends' receiving threads land packets.
    /// When nobody sleeps on the rank it costs the origin's lane lock
    /// (a word no other source writes) plus two loads (blocked workers,
    /// doorbell) — no system call.
    pub(crate) fn deliver(&self, dest: RankId, pkt: Packet) {
        let rank = &self.ranks[dest];
        rank.inbox.push(pkt);
        rank.bell.ring();
    }

    /// Whether wire-backend threads should stop doing work: the machine
    /// is shutting down or has been poisoned by a failure.
    pub(crate) fn wire_should_exit(&self) -> bool {
        self.shutdown.load(SeqCst) || self.poisoned.load(SeqCst)
    }

    /// The 1-indexed generation of the epoch currently in flight (best
    /// effort; used to stamp diagnostics from type-erased layers).
    pub(crate) fn current_epoch_hint(&self) -> u64 {
        self.completed_epoch.load(SeqCst) + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LONG: Option<Duration> = Some(Duration::from_secs(10));

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
        // No timeout: only the ring can end this wait.
        assert!(bell.wait(None, || false));
        ringer.join().unwrap();
    }

    #[test]
    fn ranks_share_no_cache_line() {
        // Rank r's slot — its counters and idle declaration beside its inbox
        // and doorbell — covers 128-byte blocks (a line and its prefetch
        // partner) that hold nothing of rank r + 1.
        assert_eq!(align_of::<RankShared>(), 128);
        let shared = Shared::new(MachineConfig::new(3), None, None);
        let blocks = |r: &RankShared| {
            let lo = r as *const RankShared as usize;
            (lo / 128, (lo + size_of::<RankShared>() - 1) / 128)
        };
        for pair in shared.ranks.windows(2) {
            assert!(blocks(&pair[0]).1 < blocks(&pair[1]).0);
        }
    }

    #[test]
    fn lanes_share_no_cache_line() {
        // Each inbox lane — the lock word and flag one source writes —
        // fills 128-byte blocks of its own: no other lane's, and none
        // holding the counters, idle declaration or doorbell the rank's
        // own threads write.
        let shared = Shared::new(MachineConfig::new(3), None, None);
        let blocks = |lo: usize, size: usize| (lo / 128, (lo + size - 1) / 128);
        let of = |r: &RankShared| {
            r.inbox
                .lanes()
                .iter()
                .map(|l| blocks(l as *const _ as usize, size_of_val(l)))
                .collect::<Vec<_>>()
        };
        for r in &shared.ranks {
            let lanes = of(r);
            assert_eq!(lanes.len(), 3, "one lane per source rank");
            for pair in lanes.windows(2) {
                assert!(pair[0].1 < pair[1].0);
            }
            let own = [
                blocks(&r.sent as *const _ as usize, 8),
                blocks(&r.handled as *const _ as usize, 8),
                blocks(&r.activity as *const _ as usize, 8),
                blocks(&r.idle_at as *const _ as usize, 8),
                blocks(&r.bell as *const _ as usize, size_of::<Doorbell>()),
            ];
            for (lo, hi) in own {
                assert!(lanes.iter().all(|&(a, b)| hi < a || lo > b));
            }
        }
    }

    #[test]
    fn a_ring_to_a_bell_nobody_waits_on_is_a_no_op() {
        let bell = Doorbell::default();
        bell.ring();
        assert!(!bell.waiting.load(SeqCst));
        assert!(bell.waiter.get().is_none(), "nothing to unpark");
        // ...and it leaves no wake behind for a later wait.
        assert!(!bell.wait(Some(Duration::from_millis(5)), || false));
    }
}
