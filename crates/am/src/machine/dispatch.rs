//! The receive path and the hot-path support behind it: packet and
//! envelope dispatch, buffer flushes, the frozen dispatch tables, delta
//! publication and batch recycling.

use std::panic::AssertUnwindSafe;
use std::sync::atomic::Ordering::SeqCst;
use std::sync::Arc;

use super::envelope::{ErasedHandler, PendingDeltas};
use super::send::grow_slots;
use super::{AmCtx, Envelope, Packet, RankId};
use crate::coalescing::TypedBuffers;
use crate::error::{panic_message, Abort, MachineError};
use crate::obs::{SpanKind, SpanRecord};
use crate::stats::MachineStats;
use crate::trace::{FailCause, TraceCtx};

impl AmCtx {
    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    /// The one pop-and-dispatch loop, shared by `epoch_flush`,
    /// `drain_and_flush` and the worker loop: take `first` (a packet the
    /// caller already popped), then everything queued on this rank's
    /// inbox, handing each envelope to its handler and each ack to the
    /// reliability layer. One drain pass: the handlers share clock
    /// readings (see [`handle_envelope`](Self::handle_envelope)). Returns
    /// the data packets popped, suppressed duplicates included — an ack
    /// is not a message, so retiring one is not progress.
    pub(super) fn drain_inbox(&self, first: Option<Packet>) -> usize {
        let rx = &self.shared.ranks[self.rank].rx;
        let (mut next, mut popped, mut at) = (first, 0, None);
        while let Some(pkt) = next.take().or_else(|| rx.try_recv().ok()) {
            match pkt {
                Packet::Data { from, seq, env } => {
                    at = self.handle_packet(from, seq, env, at);
                    popped += 1;
                }
                Packet::Ack(ack) => {
                    if let Some(t) = &self.shared.reliability {
                        t.retire(&self.shared, ack);
                    }
                }
            }
        }
        popped
    }

    /// Receive one data packet: acknowledge and dedup sequenced packets
    /// (reliability layer on), then hand the envelope to its handler.
    /// `entered` and the return value are
    /// [`handle_envelope`](Self::handle_envelope)'s; a suppressed
    /// duplicate returns `None`.
    fn handle_packet(
        &self,
        from: RankId,
        seq: u64,
        env: Envelope,
        entered: Option<u64>,
    ) -> Option<u64> {
        if seq != 0 {
            if let Some(t) = &self.shared.reliability {
                // Ack *every* receipt, including duplicates: the original
                // ack may have been the thing that was lost.
                t.ack(self, from, env.type_id, seq);
                if !t.accept(from, self.rank, seq) {
                    MachineStats::bump(&self.shared.stats.dups_suppressed, 1);
                    return None;
                }
            }
        }
        self.handle_envelope(env, entered)
    }

    /// Run one envelope's handler batch. `entered` is the clock reading
    /// the previous handler of the same drain pass returned at its exit
    /// (`None` for a pass's first envelope): it serves as this handler's
    /// entry time, so back-to-back handlers share one clock read and the
    /// inbox pop between them is folded into this span. Returns the exit
    /// reading, `None` when the recorder wanted no time.
    fn handle_envelope(&self, env: Envelope, entered: Option<u64>) -> Option<u64> {
        let (type_id, count) = (env.type_id, env.count);
        let trace = env.trace;
        let payload = env.payload;
        // One slot per envelope: pushed open at entry, completed in place
        // as the handler span at exit. If the handler panics, the open
        // record is the post-mortem's last word on this envelope.
        let open = entered.or_else(|| self.clock()).map(|now| {
            let enter = SpanRecord {
                arg0: type_id as u64,
                arg1: count as u64,
                flow_in: trace.event,
                ..self.stamp(SpanKind::HandlerEnter, "handler.enter", now)
            };
            (self.record(&enter), enter)
        });
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
        // Frozen-table dispatch: no lock unless this thread's snapshot
        // predates the type's registration (worker cold start).
        let run = || self.local_handler(type_id)(self, payload, count);
        let result = std::panic::catch_unwind(AssertUnwindSafe(run));
        if trace.is_traced() {
            self.trace_inherit.set(prev_inherit);
            self.trace_cur.set(prev_cur);
        }
        if let Err(payload) = result {
            if !payload.is::<Abort>() {
                let type_name = self.shared.ranks[self.rank]
                    .type_stats
                    .read()
                    .get(type_id as usize)
                    .map(|t| t.name.clone())
                    .unwrap_or_default();
                // Cause before fail: fail() freezes the rings, and
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
        let (ordinal, enter) = open?;
        let rec = &self.shared.recorder;
        let now = rec.now_ns();
        let dur_ns = now.saturating_sub(enter.start_ns);
        if self.profiling_enabled() {
            rec.handler_ns.record(dur_ns);
        }
        if ordinal != 0 {
            self.complete(
                ordinal,
                &SpanRecord {
                    kind: SpanKind::Handler,
                    name: "handler",
                    dur_ns,
                    ..enter
                },
            );
        }
        Some(now)
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

    // ------------------------------------------------------------------
    // Hot-path support: frozen tables, delta publication, batch recycling
    // (see INTERNALS.md §9 for the full design + safety argument)
    // ------------------------------------------------------------------

    /// Refresh this thread's frozen table snapshots from the shared
    /// registries. Called at epoch entry on rank main threads, after
    /// registration on the registering thread, and lazily on snapshot
    /// misses (worker threads) — never per message.
    pub(super) fn refresh_tables(&self) {
        let me = &self.shared.ranks[self.rank];
        let mut t = self.tables.borrow_mut();
        t.handlers = me.handlers.read().iter().cloned().collect();
        t.type_stats = me.type_stats.read().iter().cloned().collect();
    }

    /// Pre-size the per-type hot-path vectors (coalescing slots, per-type
    /// deltas) to the frozen type count, so the send path's length checks
    /// never grow anything mid-epoch on this thread.
    pub(super) fn presize_locals(&self) {
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
        ] {
            let n = cell.take();
            if n > 0 {
                MachineStats::bump(counter, n);
            }
        }
        let me = &self.shared.ranks[self.rank];
        let s = d.sent.take();
        if s > 0 {
            me.sent.fetch_add(s, SeqCst);
        }
        let h = d.handled.take();
        if h > 0 {
            // Withdraw the rank's idle declaration before the count that
            // could balance the machine: the handlers' deferred work now
            // exists, and the main thread has not looked at it.
            me.activity.fetch_add(1, SeqCst);
            me.handled.fetch_add(h, SeqCst);
        }
    }

    /// Return a drained batch box from the handler loop to this thread's
    /// per-type free list, so the next flush of that type ships without
    /// allocating (see `crate::coalescing`). The box (what the envelope
    /// payload downcasts to) is pooled whole — node and storage.
    #[allow(clippy::box_collection)]
    pub(super) fn recycle_batch<T: Clone + Send + 'static>(
        &self,
        type_id: u32,
        batch: Box<Vec<T>>,
    ) {
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

    /// Batched dominance-cache statistic notes (`MessageType::send_min`):
    /// same delta discipline as `sent`/`handled`.
    pub(crate) fn note_cache_hit(&self) {
        PendingDeltas::add(&self.deltas.cache_hits, 1);
        self.deltas.dirty.set(true);
    }

    pub(crate) fn note_cache_miss(&self) {
        PendingDeltas::add(&self.deltas.cache_misses, 1);
        self.deltas.dirty.set(true);
    }
}
