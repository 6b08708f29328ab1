//! The receive path and the hot-path support behind it: packet and
//! envelope dispatch, buffer and flushable flushes, the frozen dispatch
//! tables, delta publication and batch recycling.

use std::panic::AssertUnwindSafe;
use std::sync::atomic::Ordering::{Relaxed, SeqCst};
use std::sync::Arc;

use super::envelope::{ErasedHandler, PendingDeltas};
use super::send::grow_slots;
use super::{AmCtx, Envelope, Packet};
use crate::coalescing::TypedBuffers;
use crate::error::{panic_message, Abort, MachineError};
use crate::obs::{SpanKind, SpanRecord};
use crate::stats::MachineStats;
use crate::trace::{FailCause, FlightKind, TraceCtx};

impl AmCtx {
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

    pub(super) fn flush_flushables(&self) -> usize {
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
    pub(super) fn refresh_tables(&self) {
        let me = &self.shared.ranks[self.rank];
        let mut t = self.tables.borrow_mut();
        t.handlers = me.handlers.read().iter().cloned().collect();
        t.type_stats = self.shared.type_stats.read().iter().cloned().collect();
        t.flushables = me.flushables.read().iter().cloned().collect();
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
}
