//! The send path: coalescing-buffer push, causal-trace sampling, the
//! flight recorder, and shipping an envelope to the delivery seam.

use std::sync::atomic::Ordering::{Relaxed, SeqCst};

use super::shared::deliver;
use super::{AmCtx, Envelope, MessageType, RankId};
use crate::coalescing::{ErasedBuffers, TypedBuffers};
use crate::obs::{SpanKind, SpanRecord};
use crate::stats::MachineStats;
use crate::trace::{mix64, FlightEvent, FlightKind, TraceCtx};

/// Grow the per-type slot vector. Out of line: the send path only takes
/// this on worker cold starts and for types registered after the thread's
/// last epoch entry (rank main threads pre-size at epoch entry).
#[cold]
pub(super) fn grow_slots(bufs: &mut Vec<Option<Box<dyn ErasedBuffers>>>, idx: usize) {
    bufs.resize_with(idx + 1, || None);
}

impl AmCtx {
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
}
