//! [`AmCtx`] — the per-thread handle — with its message-type handles,
//! accessors, observability exports and handler registration.

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::sync::atomic::Ordering::SeqCst;
use std::sync::Arc;

use super::envelope::{ErasedHandler, LocalTables, PendingDeltas};
use super::{Packet, RankId, Shared};
use crate::caching::DominanceTable;
use crate::coalescing::ErasedBuffers;
use crate::config::MachineConfig;
use crate::obs::{self, EpochProfile, MetricsReport, Recorder, SpanGuard, SpanKind};
use crate::sim::InvariantCtx;
use crate::stats::{StatsSnapshot, TypeStat, TypeStatSnapshot};
use crate::trace::{mix64, TraceCtx, EVENT_SEQ_BITS};
// Named only by intra-doc links below.
#[cfg(doc)]
use {super::Machine, crate::error::MachineError};

/// A handle to one registered message type. Cheap to copy; sending requires
/// the sender thread's [`AmCtx`].
pub struct MessageType<T> {
    pub(super) id: u32,
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

    /// Send `msg` unless this thread already sent a message of this type
    /// under the same `key`, in the current epoch, whose `value` was no
    /// larger (the dominance cache, [`crate::caching`]). Returns whether
    /// `msg` was sent.
    ///
    /// `value` must be an order-preserving image of what the handler
    /// lowers its state to, and the handler's only effect must be that
    /// guarded lowering — `if s[key] > v { s[key] = v }`, with nothing
    /// raising `s[key]` inside an epoch. Then the message already sent has
    /// lowered `s[key]` to at most `value` before the epoch ends, and the
    /// dropped one would have found its guard false. A drop counts one
    /// `cache_hits` and is never counted `sent`; a send counts one
    /// `cache_misses`.
    pub fn send_min(&self, ctx: &AmCtx, dest: RankId, key: u64, value: u64, msg: T) -> bool {
        ctx.send_min_typed(*self, dest, key, value, msg)
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

    /// Send another message of the handled type through the dominance
    /// cache: [`MessageType::send_min`] on this handler's thread.
    pub fn send_min(&self, dest: RankId, key: u64, value: u64, msg: T) -> bool {
        self.mt.send_min(self.am, dest, key, value, msg)
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
    pub(crate) shared: Arc<Shared>,
    pub(super) rank: RankId,
    pub(super) thread: usize,
    pub(super) bufs: RefCell<Vec<Option<Box<dyn ErasedBuffers>>>>,
    /// Per-type dominance tables for [`MessageType::send_min`], indexed
    /// like `bufs` and allocated on a type's first such send.
    pub(super) dominance: RefCell<Vec<Option<Box<DominanceTable>>>>,
    /// Hot-path counter deltas, published at envelope boundaries.
    pub(super) deltas: PendingDeltas,
    /// Frozen dispatch/statistic tables (no locks after the freeze).
    pub(super) tables: RefCell<LocalTables>,
    pub(super) in_epoch: Cell<bool>,
    pub(super) epochs_entered: Cell<u64>,
    /// The rank's `activity` when this (main) thread last returned from
    /// a termination step without terminating: what the caller's next
    /// look at its deferred work is sure to include.
    pub(super) activity_seen: Cell<u64>,
    /// When the current epoch's entry barrier cleared on this rank (ns on
    /// the machine's clock): the [`MachineConfig::epoch_deadline`] basis.
    pub(super) epoch_entered_ns: Cell<Option<u64>>,
    /// Set while executing a traced envelope's handler batch: sends
    /// inherit `trace_cur` instead of consulting the sampler.
    pub(super) trace_inherit: Cell<bool>,
    /// The causal context handler re-sends inherit while
    /// `trace_inherit` is set.
    pub(super) trace_cur: Cell<TraceCtx>,
    /// Sends until the sampler starts the next traced cascade (1 = next
    /// send is a root; 0 = sampling off, pinned).
    pub(super) trace_gap: Cell<u64>,
    /// Traced cascades this thread has started (feeds root-id derivation).
    pub(super) trace_roots: Cell<u64>,
    /// The last causal event id this thread assigned; starts at the
    /// thread's base (see [`crate::trace::EVENT_SEQ_BITS`]).
    pub(super) trace_eid: Cell<u64>,
    /// The empty queue this thread swaps into the next inbox lane it
    /// drains (`drain_inbox`): lane storage circulates, never freed.
    pub(super) inbox_spare: Cell<Vec<Packet>>,
}

impl AmCtx {
    pub(super) fn new(shared: Arc<Shared>, rank: RankId, thread: usize) -> Self {
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
        let eid_base = ((rank * shared.cfg.threads_per_rank + thread) as u64) << EVENT_SEQ_BITS;
        AmCtx {
            shared,
            rank,
            thread,
            bufs: RefCell::new(Vec::new()),
            dominance: RefCell::new(Vec::new()),
            deltas: PendingDeltas::default(),
            tables: RefCell::new(LocalTables::default()),
            in_epoch: Cell::new(false),
            epochs_entered: Cell::new(0),
            activity_seen: Cell::new(0),
            epoch_entered_ns: Cell::new(None),
            trace_inherit: Cell::new(false),
            trace_cur: Cell::new(TraceCtx::NONE),
            trace_gap: Cell::new(gap),
            trace_roots: Cell::new(0),
            trace_eid: Cell::new(eid_base),
            inbox_spare: Cell::new(Vec::new()),
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

    /// Per-message-type counters, summed over the ranks (diagnostics;
    /// exact when quiescent). Each type is named as its lowest-numbered
    /// registering rank named it.
    pub fn type_stats(&self) -> Vec<TypeStatSnapshot> {
        self.publish_deltas();
        let mut out: Vec<TypeStatSnapshot> = Vec::new();
        for rank in &self.shared.ranks {
            for (idx, t) in rank.type_stats.read().iter().enumerate() {
                let s = t.snapshot();
                match out.get_mut(idx) {
                    Some(sum) => {
                        sum.sent += s.sent;
                        sum.handled += s.handled;
                    }
                    None => out.push(s),
                }
            }
        }
        out
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

    /// Whether profiling is on ([`MachineConfig::profile`]).
    pub fn profiling_enabled(&self) -> bool {
        self.shared.cfg.profile
    }

    /// The machine's event recorder, when profiling is enabled. Its rings
    /// are read in place: exact once the threads that write them are
    /// quiescent, e.g. after a [`barrier`](Self::barrier) that follows
    /// every rank's last epoch.
    pub fn recorder(&self) -> Option<&Recorder> {
        self.profiling_enabled().then_some(&self.shared.recorder)
    }

    /// Begin a span that records itself into this thread's ring when
    /// dropped. Returns `None` (one branch, no allocation) when profiling
    /// is disabled — bind it to a `let _guard` and the instrumentation
    /// disappears from the cold build's hot path.
    pub fn span(&self, kind: SpanKind, name: &'static str) -> Option<SpanGuard<'_>> {
        self.profiling_enabled()
            .then(|| SpanGuard::begin(self, kind, name, self.shared.current_epoch_hint()))
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
            spans_dropped: match self.recorder() {
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
        self.recorder()
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
        let me = &self.shared.ranks[self.rank];
        let mut handlers = me.handlers.write();
        let id = handlers.len() as u32;
        // This rank's counters for the type: no rank writes another's.
        me.type_stats
            .write()
            .push(Arc::new(TypeStat::new(name.to_string())));
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
                // Handlers may deposit deferred local work. Until the
                // batch's `handled` delta is published the machine totals
                // cannot balance (every message in it is already in
                // `sent`), and the publication first withdraws the rank's
                // idle declaration (see crate::termination).
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
}
