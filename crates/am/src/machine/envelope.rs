//! What travels between ranks ([`Envelope`], [`Packet`], [`Ack`]) and the
//! per-thread tables an [`AmCtx`] keeps off the shared path
//! (`PendingDeltas`, `LocalTables`).

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::sync::Arc;

use super::AmCtx;
use crate::stats::TypeStat;
use crate::trace::TraceCtx;

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

pub(super) type ErasedHandler = dyn Fn(&AmCtx, Box<dyn Any + Send>, u32) + Send + Sync;

/// Layers that hold messages back (e.g. reduction tables) register
/// themselves so the runtime can flush them while detecting termination.
pub trait Flushable: Send + Sync {
    /// Forward all held messages. Returns how many were forwarded.
    fn flush(&self, ctx: &AmCtx) -> usize;
    /// Messages currently held.
    fn pending(&self) -> usize;
}

/// Per-thread counter deltas accumulated on the send/dispatch hot path
/// and published to the shared atomics at envelope boundaries (see
/// [`AmCtx::publish_deltas`] for the flush points and the ordering
/// discipline). Cell-based and unsynchronized: an [`AmCtx`] is `!Sync`,
/// so each instance is only ever touched by its own thread.
#[derive(Default)]
pub(super) struct PendingDeltas {
    /// Fast-path guard: set whenever any delta below is nonzero.
    pub(super) dirty: Cell<bool>,
    /// Messages accepted for sending, not yet in the rank's `sent`.
    pub(super) sent: Cell<u64>,
    /// Messages handled, not yet in the rank's `handled`.
    pub(super) handled: Cell<u64>,
    pub(super) cache_hits: Cell<u64>,
    pub(super) cache_misses: Cell<u64>,
    pub(super) reduction_combines: Cell<u64>,
    pub(super) reduction_forwards: Cell<u64>,
    /// Per message type `(sent, handled)`, indexed by type id.
    pub(super) per_type: RefCell<Vec<(u64, u64)>>,
}

impl PendingDeltas {
    #[inline]
    pub(super) fn add(cell: &Cell<u64>, n: u64) {
        cell.set(cell.get() + n);
    }

    #[inline]
    pub(super) fn note_sent(&self, type_id: u32) {
        Self::add(&self.sent, 1);
        self.note_type(type_id, 1, 0);
    }

    #[inline]
    pub(super) fn note_handled(&self, type_id: u32, n: u64) {
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
pub(super) struct LocalTables {
    pub(super) handlers: Arc<[Arc<ErasedHandler>]>,
    pub(super) type_stats: Arc<[Arc<TypeStat>]>,
    pub(super) flushables: Arc<[Arc<dyn Flushable>]>,
}
