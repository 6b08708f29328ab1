//! Message coalescing.
//!
//! AM++ ships messages in batches: each sending thread keeps, for every
//! (message type, destination rank) pair, a buffer of pending messages; a
//! full buffer is shipped as one *envelope*. The paper lists coalescing as
//! one of the AM++ layers that make fine-grained vertex messaging viable
//! ("coalescing greatly improves performance when large amounts of messages
//! are sent"). Experiment E1 sweeps the buffer capacity.
//!
//! Buffers are thread-local (each [`crate::AmCtx`] owns its own), so the
//! send fast path takes no locks. Threads flush their own buffers whenever
//! they go idle, and epoch termination cannot be declared while any buffer
//! holds messages (buffered messages are already counted in `sent` — the
//! sender's counter deltas are published before any envelope ships — but
//! not yet in `handled`).
//!
//! Batch allocations are pooled: the handler loop returns each drained
//! `Box<Vec<T>>` to the receiving thread's `TypedBuffers` free list, and
//! `TypedBuffers::flush_dest` reuses a spare instead of allocating, so a
//! steady message flow ships envelopes with zero allocation on the hot
//! path (self-sends recycle perfectly; one-directional flows fall back to
//! allocating on the sender and dropping on the receiver once the
//! receiver's free list is full).

use std::any::Any;
use std::collections::BTreeMap;

use crate::machine::{AmCtx, Envelope, RankId};
use crate::trace::TraceCtx;

/// Most spare batch boxes a [`TypedBuffers`] retains; beyond this,
/// recycled boxes are dropped (bounds memory on asymmetric flows).
const MAX_SPARES: usize = 16;

/// Rank count at and above which [`TypedBuffers`] switches from a dense
/// one-slot-per-destination vector to a sparse map of touched
/// destinations. Dense slots cost every thread `ranks` vector headers
/// *per message type* — at thousands of simulated ranks that is
/// quadratic in machine size and dominates memory; graph workloads touch
/// only each rank's neighbors, so the sparse map stays small. Below the
/// threshold the dense path is untouched (same layout, same code path).
const SPARSE_THRESHOLD: usize = 1024;

/// Per-destination pending buffers: one `(batch, causal-context)` slot
/// per destination, dense or sparse by machine size. Iteration order is
/// ascending destination rank in both representations, so flush order —
/// and therefore every downstream sequence number and simulator event —
/// is identical across the two.
enum DestStore<T> {
    Dense(Vec<(Vec<T>, TraceCtx)>),
    Sparse(BTreeMap<RankId, (Vec<T>, TraceCtx)>),
}

impl<T> DestStore<T> {
    fn slot_mut(&mut self, dest: RankId) -> &mut (Vec<T>, TraceCtx) {
        match self {
            DestStore::Dense(v) => &mut v[dest],
            DestStore::Sparse(m) => m
                .entry(dest)
                .or_insert_with(|| (Vec::new(), TraceCtx::NONE)),
        }
    }
}

/// Type-erased per-type coalescing buffers, one slot per destination rank.
pub(crate) trait ErasedBuffers: Any {
    /// Ship every non-empty destination buffer through the owning
    /// thread's context. Returns envelopes shipped.
    fn flush_all(&mut self, ctx: &AmCtx) -> usize;
    /// Total pending messages across destinations. The idle/termination
    /// paths assert this is zero before a thread declares itself idle
    /// (see `AmCtx::buffered_pending`).
    fn pending(&self) -> usize;
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// Monomorphized payload replicator stored in every [`Envelope`]: lets the
/// type-erased reliability layer clone a payload for retransmission and
/// duplicate injection without knowing `T` (see [`crate::fault`]).
fn clone_payload<T: Clone + Send + 'static>(p: &(dyn Any + Send)) -> Box<dyn Any + Send> {
    Box::new(
        p.downcast_ref::<Vec<T>>()
            .expect("envelope payloads are Vec<T> batches")
            .clone(),
    )
}

/// Buffers for one concrete message type `T`.
pub(crate) struct TypedBuffers<T: Clone + Send + 'static> {
    type_id: u32,
    capacity: usize,
    /// Pending batch + causal context per destination. The context is
    /// that of the *first traced* message coalesced into the batch
    /// ([`TraceCtx::NONE`] when no pending message is traced). Coalescing
    /// merges causality — one envelope, one attribution — which is the
    /// granularity the transport actually ships at.
    store: DestStore<T>,
    /// Drained batch boxes recycled by the handler loop, reused by the
    /// next flush so steady state ships envelopes without allocating.
    /// The box is not gratuitous: envelope payloads cross a
    /// `Box<dyn Any + Send>` boundary, so pooling the box node itself
    /// (not just the `Vec` storage) is what makes a flush allocation-free.
    #[allow(clippy::vec_box)]
    spares: Vec<Box<Vec<T>>>,
}

impl<T: Clone + Send + 'static> TypedBuffers<T> {
    pub(crate) fn new(type_id: u32, capacity: usize, ranks: usize) -> Self {
        let store = if ranks >= SPARSE_THRESHOLD {
            DestStore::Sparse(BTreeMap::new())
        } else {
            DestStore::Dense((0..ranks).map(|_| (Vec::new(), TraceCtx::NONE)).collect())
        };
        TypedBuffers {
            type_id,
            capacity,
            store,
            spares: Vec::new(),
        }
    }

    /// Buffer one message; ship the destination's batch if it reached
    /// capacity. The runtime's pending counter deltas are published before
    /// the ship, so every message in the envelope is counted in `sent`
    /// before it becomes receivable. Returns whether an envelope was
    /// shipped.
    pub(crate) fn push(&mut self, ctx: &AmCtx, dest: RankId, msg: T, trace: TraceCtx) -> bool {
        let cap = self.capacity;
        let slot = self.store.slot_mut(dest);
        if slot.0.capacity() == 0 {
            slot.0.reserve_exact(cap);
        }
        slot.0.push(msg);
        if trace.is_traced() && !slot.1.is_traced() {
            slot.1 = trace;
        }
        if slot.0.len() >= cap {
            ctx.publish_deltas();
            self.flush_dest(ctx, dest)
        } else {
            false
        }
    }

    /// Accept a drained batch box back from the handler loop. Keeps at
    /// most [`MAX_SPARES`]; beyond that the box is dropped. Takes the
    /// box, not the `Vec`, because that is exactly what the envelope's
    /// `Box<dyn Any + Send>` payload downcasts to.
    #[allow(clippy::box_collection)]
    pub(crate) fn recycle(&mut self, batch: Box<Vec<T>>) {
        debug_assert!(batch.is_empty());
        if self.spares.len() < MAX_SPARES && batch.capacity() > 0 {
            self.spares.push(batch);
        }
    }

    /// Ship `dest`'s batch if it holds any; returns whether it did.
    fn flush_dest(&mut self, ctx: &AmCtx, dest: RankId) -> bool {
        // Take the full batch out of the slot. Dense keeps the (empty)
        // slot in place so its reserved capacity survives for the next
        // push; sparse removes the entry outright so an idle destination
        // costs nothing — graph workloads at thousands of ranks touch a
        // sliver of the rank space and never re-touch most of it.
        let (taken, trace) = match &mut self.store {
            DestStore::Dense(v) => {
                let slot = &mut v[dest];
                if slot.0.is_empty() {
                    return false;
                }
                (
                    std::mem::take(&mut slot.0),
                    std::mem::replace(&mut slot.1, TraceCtx::NONE),
                )
            }
            DestStore::Sparse(m) => match m.remove(&dest) {
                Some((buf, trace)) if !buf.is_empty() => (buf, trace),
                _ => return false,
            },
        };
        self.ship(ctx, dest, taken, trace);
        true
    }

    /// Ship `taken`, the batch just taken out of `dest`'s slot.
    fn ship(&mut self, ctx: &AmCtx, dest: RankId, mut taken: Vec<T>, trace: TraceCtx) {
        // Reuse a recycled batch box when one is available: the swap hands
        // the full buffer to the envelope; in dense mode the spare's
        // reserved capacity is handed back to the slot for the next push —
        // no allocation either way round once the pool is primed.
        let batch: Box<Vec<T>> = match self.spares.pop() {
            Some(mut spare) => {
                std::mem::swap(&mut *spare, &mut taken);
                if let DestStore::Dense(v) = &mut self.store {
                    v[dest].0 = taken;
                }
                spare
            }
            None => Box::new(taken),
        };
        let count = batch.len() as u32;
        ctx.ship_envelope(
            dest,
            Envelope {
                type_id: self.type_id,
                count,
                trace,
                payload: batch,
                clone_payload: clone_payload::<T>,
            },
        );
    }
}

impl<T: Clone + Send + 'static> ErasedBuffers for TypedBuffers<T> {
    fn flush_all(&mut self, ctx: &AmCtx) -> usize {
        // In place, in ascending destination order: dense by index, sparse
        // by taking the whole map.
        match &mut self.store {
            DestStore::Dense(v) => {
                let n = v.len();
                (0..n).filter(|&dest| self.flush_dest(ctx, dest)).count()
            }
            DestStore::Sparse(m) => {
                let mut shipped = 0;
                for (dest, (batch, trace)) in std::mem::take(m) {
                    if !batch.is_empty() {
                        self.ship(ctx, dest, batch, trace);
                        shipped += 1;
                    }
                }
                shipped
            }
        }
    }

    fn pending(&self) -> usize {
        match &self.store {
            DestStore::Dense(v) => v.iter().map(|(b, _)| b.len()).sum(),
            DestStore::Sparse(m) => m.values().map(|(b, _)| b.len()).sum(),
        }
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}
