//! The send path: coalescing-buffer push, causal-trace sampling, the
//! thread's event ring, and shipping an envelope to the delivery seam.

use std::sync::atomic::Ordering::Relaxed;

use super::{AmCtx, Envelope, MessageType, Packet, RankId};
use crate::caching::DominanceTable;
use crate::coalescing::{ErasedBuffers, TypedBuffers};
use crate::obs::{SpanKind, SpanRecord};
use crate::stats::MachineStats;
use crate::trace::{mix64, TraceCtx};

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
        tb.push(self, dest, msg, trace);
    }

    /// [`MessageType::send_min`]: consult this thread's dominance table
    /// for the type, stamped with the generation of the epoch in flight
    /// (`completed_epoch` is machine-wide, so worker threads read the same
    /// generation as their rank's main thread; it only advances once the
    /// epoch has terminated, when no thread sends in it any more).
    pub(crate) fn send_min_typed<T: Clone + Send + 'static>(
        &self,
        mt: MessageType<T>,
        dest: RankId,
        key: u64,
        value: u64,
        msg: T,
    ) -> bool {
        let epoch = self.shared.completed_epoch.load(Relaxed) + 1;
        let dominated = {
            let mut tables = self.dominance.borrow_mut();
            let idx = mt.id as usize;
            if tables.len() <= idx {
                tables.resize_with(idx + 1, || None);
            }
            tables[idx]
                .get_or_insert_with(|| Box::new(DominanceTable::new()))
                .dominated(epoch, key, value)
        };
        if dominated {
            self.note_cache_hit();
            return false;
        }
        self.note_cache_miss();
        self.send_typed(mt, dest, msg);
        true
    }

    // ------------------------------------------------------------------
    // Causal tracing + the event ring (see `crate::trace`, `crate::obs`)
    // ------------------------------------------------------------------

    /// The time to stamp a record with, or `None` when the recorder wants
    /// none (ring off or frozen, profiling off).
    #[inline]
    pub(crate) fn clock(&self) -> Option<u64> {
        self.shared.recorder.clock()
    }

    /// A record of `kind` by this thread starting at `start_ns`; the
    /// caller fills in what else it knows.
    #[inline]
    pub(crate) fn stamp(&self, kind: SpanKind, name: &'static str, start_ns: u64) -> SpanRecord {
        SpanRecord {
            kind,
            name,
            rank: self.rank,
            thread: self.thread,
            start_ns,
            dur_ns: 0,
            epoch: self.shared.current_epoch_hint(),
            arg0: 0,
            arg1: 0,
            flow_in: 0,
            flow_out: 0,
        }
    }

    /// Push `rec` (a record by this thread) into this thread's ring:
    /// relaxed stores into memory no other thread writes — no lock, no
    /// read-modify-write (INTERNALS §10.2). Returns its ordinal for
    /// [`complete`](Self::complete), 0 when nothing was recorded.
    #[inline]
    pub(crate) fn record(&self, rec: &SpanRecord) -> u64 {
        debug_assert_eq!((rec.rank, rec.thread), (self.rank, self.thread));
        self.shared.recorder.push(rec)
    }

    /// Rewrite this thread's record `ordinal` (nonzero, from
    /// [`record`](Self::record)) in place with `rec`'s kind, name and
    /// duration.
    #[inline]
    pub(crate) fn complete(&self, ordinal: u64, rec: &SpanRecord) {
        debug_assert_eq!((rec.rank, rec.thread), (self.rank, self.thread));
        self.shared.recorder.complete(ordinal, rec);
    }

    /// Record an instant of `kind` by this thread, stamped now.
    #[inline]
    pub(crate) fn mark(&self, kind: SpanKind, name: &'static str, arg0: u64, arg1: u64) {
        if let Some(now) = self.clock() {
            self.record(&SpanRecord {
                arg0,
                arg1,
                ..self.stamp(kind, name, now)
            });
        }
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

    /// Ship one envelope from this thread: when traced, assign its causal
    /// event id and record the ship; then hand it to the transport
    /// boundary — the reliability layer when installed, else straight
    /// into `dest`'s inbox. All envelope ships go through here (the
    /// coalescing layer calls back into it).
    pub(crate) fn ship_envelope(&self, dest: RankId, mut env: Envelope) {
        if env.trace.is_traced() {
            let event = self.trace_eid.get() + 1;
            self.trace_eid.set(event);
            env.trace.event = event;
            // The ship carries its event id out and its parent's in: the
            // Chrome exporter draws the cross-rank arrow from here into the
            // receiving handler span, and the post-mortem walks the parent
            // links. Nothing reads an untraced envelope's ship, so it
            // costs no clock read and no record.
            if let Some(now) = self.clock() {
                self.record(&SpanRecord {
                    arg0: ((env.type_id as u64) << 32) | env.count as u64,
                    arg1: dest as u64,
                    flow_in: env.trace.parent,
                    flow_out: env.trace.event,
                    ..self.stamp(SpanKind::Ship, "env.ship", now)
                });
            }
        }
        let shared = &self.shared;
        shared.ranks[self.rank].envelopes_sent.fetch_add(1, Relaxed);
        if self.profiling_enabled() {
            shared.recorder.envelope_sizes.record(env.count as u64);
        }
        match &shared.reliability {
            // Sequence the envelope, stash a retransmit copy, and put it
            // through the fault plan.
            Some(t) => t.send(self, dest, env),
            None => shared.push_packet(
                dest,
                Packet::Data {
                    from: self.rank,
                    seq: 0,
                    env,
                },
            ),
        }
    }
}
