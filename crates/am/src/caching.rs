//! Message caching (one of the AM++ layers): duplicate elimination, and
//! the dominance cache the pattern engine sends through.
//!
//! "Caching allows to avoid unnecessary message sends and the corresponding
//! handler calls in algorithms that produce potentially large amounts of
//! repetitive work" — e.g. a BFS/CC frontier that discovers the same vertex
//! through many edges. A [`CachingSender`] keeps, per destination rank, a
//! direct-mapped cache of recently sent messages and silently drops an
//! outgoing message that is identical to the cached entry in its slot.
//!
//! Dropping duplicates is only sound for *idempotent* handlers (handling a
//! message twice must be equivalent to handling it once — true for all
//! pattern-generated messages, whose effect is a guarded property-map
//! modification). Caches must be [cleared](CachingSender::clear) whenever
//! the property values that make re-sends redundant change meaning, e.g.
//! between algorithm phases; experiment E2 measures the hit rate.
//!
//! The *dominance* cache ([`MessageType::send_min`](crate::MessageType::send_min))
//! is the stronger form for handlers that only ever lower a value: a
//! message whose value is no smaller than one this thread already sent
//! under the same key in the current epoch would fail its guard on
//! arrival, so it is dropped. Each thread owns one `DominanceTable`
//! per message type beside its coalescing buffers — no lock, no atomics —
//! and entries stamped with an older epoch count as absent, so nothing
//! has to be cleared. The pattern engine uses it on every hop its plan
//! proves combinable (INTERNALS §14.5).

use std::hash::{Hash, Hasher};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::machine::{AmCtx, MessageType, RankId};

struct DestCache<T> {
    slots: Vec<Option<T>>,
    mask: usize,
}

impl<T: Hash + Eq> DestCache<T> {
    fn new(capacity_pow2: usize) -> Self {
        DestCache {
            slots: (0..capacity_pow2).map(|_| None).collect(),
            mask: capacity_pow2 - 1,
        }
    }

    /// Returns `true` when `msg` is a duplicate of the cached entry (drop
    /// it); otherwise installs `msg` in its slot.
    fn check_and_insert(&mut self, msg: &T) -> bool
    where
        T: Clone,
    {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        msg.hash(&mut h);
        let slot = (h.finish() as usize) & self.mask;
        match &self.slots[slot] {
            Some(cached) if cached == msg => true,
            _ => {
                self.slots[slot] = Some(msg.clone());
                false
            }
        }
    }

    fn clear(&mut self) {
        for s in &mut self.slots {
            *s = None;
        }
    }
}

/// Slots of a [`DominanceTable`]. Fixed: the table is reached per send,
/// so a capacity knob would be one more thing to tune per workload, and
/// 2¹⁶ entries (1.5 MiB, allocated on first use and zero pages until
/// touched) already hold a Δ-stepping epoch's working set of targets
/// (INTERNALS §14.5).
pub(crate) const DOMINANCE_SLOTS: usize = 1 << 16;

/// A thread's direct-mapped `key → least value sent` table for one
/// message type, scoped to an epoch by stamping each entry with the
/// machine's epoch generation (always ≥ 1, so a zeroed entry is stale).
pub(crate) struct DominanceTable {
    /// `[key, least value, epoch]` per slot.
    slots: Box<[[u64; 3]]>,
}

impl DominanceTable {
    pub(crate) fn new() -> Self {
        DominanceTable {
            slots: vec![[0u64; 3]; DOMINANCE_SLOTS].into_boxed_slice(),
        }
    }

    /// Whether `value` for `key` is dominated by a value this thread sent
    /// under `key` in `epoch` (drop it); otherwise record it as the least.
    /// A colliding key evicts the slot, which only costs a later send.
    /// Slots are indexed by the key's low bits with its high half folded
    /// in: densely numbered keys (vertex ids) then never collide below
    /// 2¹⁶ of them, and keys close in value share cache lines.
    #[inline]
    pub(crate) fn dominated(&mut self, epoch: u64, key: u64, value: u64) -> bool {
        let i = ((key ^ (key >> 32)) as usize) & (DOMINANCE_SLOTS - 1);
        let e = &mut self.slots[i];
        if e[2] == epoch && e[0] == key {
            if value >= e[1] {
                return true;
            }
            e[1] = value;
        } else {
            *e = [key, value, epoch];
        }
        false
    }
}

/// A duplicate-eliminating wrapper around a [`MessageType`].
///
/// Shared across the threads of a rank (handlers may send through it); each
/// destination's cache sits behind its own mutex, so contention is spread
/// across destinations.
pub struct CachingSender<T: Hash + Eq + Clone + Send + 'static> {
    inner: MessageType<T>,
    caches: Vec<Mutex<DestCache<T>>>,
}

impl<T: Hash + Eq + Clone + Send + 'static> CachingSender<T> {
    /// Wrap `inner` with per-destination caches of `capacity` slots
    /// (rounded up to a power of two).
    pub fn new(inner: MessageType<T>, ranks: usize, capacity: usize) -> Arc<Self> {
        let cap = capacity.next_power_of_two().max(1);
        Arc::new(CachingSender {
            inner,
            caches: (0..ranks)
                .map(|_| Mutex::new(DestCache::new(cap)))
                .collect(),
        })
    }

    /// Send `msg` to `dest` unless an identical message to `dest` is cached.
    /// Returns `true` if the message was actually sent.
    pub fn send(&self, ctx: &AmCtx, dest: RankId, msg: T) -> bool {
        let dup = self.caches[dest].lock().check_and_insert(&msg);
        if dup {
            ctx.note_cache_hit();
            false
        } else {
            ctx.note_cache_miss();
            self.inner.send(ctx, dest, msg);
            true
        }
    }

    /// Invalidate all cached entries (e.g. between phases).
    pub fn clear(&self) {
        for c in &self.caches {
            c.lock().clear();
        }
    }

    /// The wrapped message type.
    pub fn inner(&self) -> MessageType<T> {
        self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Machine, MachineConfig};
    use std::sync::atomic::{AtomicU64, Ordering::SeqCst};

    #[test]
    fn duplicates_are_dropped() {
        let handled = Arc::new(AtomicU64::new(0));
        let h2 = handled.clone();
        let stats = Machine::run(MachineConfig::new(2), move |ctx| {
            let handled = h2.clone();
            let mt = ctx.register(move |_ctx, _v: u64| {
                handled.fetch_add(1, SeqCst);
            });
            let cache = CachingSender::new(mt, ctx.num_ranks(), 256);
            ctx.epoch(|ctx| {
                if ctx.rank() == 0 {
                    for _ in 0..10 {
                        for v in 0..8u64 {
                            cache.send(ctx, 1, v);
                        }
                    }
                }
            });
            ctx.stats()
        });
        // 80 attempted sends, only 8 distinct: 72 hits.
        assert_eq!(handled.load(SeqCst), 8);
        assert_eq!(stats[0].cache_hits, 72);
        assert_eq!(stats[0].cache_misses, 8);
    }

    #[test]
    fn clear_forgets_entries() {
        let handled = Arc::new(AtomicU64::new(0));
        let h2 = handled.clone();
        Machine::run(MachineConfig::new(1), move |ctx| {
            let handled = h2.clone();
            let mt = ctx.register(move |_ctx, _v: u64| {
                handled.fetch_add(1, SeqCst);
            });
            let cache = CachingSender::new(mt, 1, 16);
            ctx.epoch(|ctx| {
                assert!(cache.send(ctx, 0, 7));
                assert!(!cache.send(ctx, 0, 7));
            });
            cache.clear();
            ctx.epoch(|ctx| {
                assert!(cache.send(ctx, 0, 7));
            });
        });
        assert_eq!(handled.load(SeqCst), 2);
    }

    #[test]
    fn dominance_is_per_key_and_per_epoch() {
        let mut t = DominanceTable::new();
        assert!(!t.dominated(1, 7, 10), "first value goes");
        assert!(t.dominated(1, 7, 10), "equal is dominated");
        assert!(t.dominated(1, 7, 12));
        assert!(!t.dominated(1, 7, 4), "smaller goes and becomes the bound");
        assert!(t.dominated(1, 7, 5));
        assert!(!t.dominated(1, 8, 50), "other keys are independent");
        assert!(!t.dominated(2, 7, 50), "a new epoch forgets");
    }

    #[test]
    fn send_min_drops_dominated_values_within_an_epoch() {
        let handled = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let h2 = handled.clone();
        let stats = Machine::run(MachineConfig::new(2), move |ctx| {
            let handled = h2.clone();
            let mt = ctx.register(move |_ctx, v: u64| handled.lock().push(v));
            for _ in 0..2 {
                ctx.epoch(|ctx| {
                    if ctx.rank() == 0 {
                        for v in [9u64, 5, 7, 5, 3, 8] {
                            mt.send_min(ctx, 1, 42, v, v);
                        }
                    }
                });
            }
            ctx.stats()
        });
        // Per epoch 9, 5, 3 go; 7, 5, 8 are dominated.
        assert_eq!(*handled.lock(), vec![9, 5, 3, 9, 5, 3]);
        assert_eq!(stats[0].cache_hits, 6);
        assert_eq!(stats[0].cache_misses, 6);
        assert_eq!(stats[0].messages_sent, 6, "drops are never counted sent");
        assert_eq!(stats[0].messages_handled, 6);
    }

    #[test]
    fn collisions_evict_and_still_send() {
        // Capacity 1: every distinct message maps to the same slot.
        let handled = Arc::new(AtomicU64::new(0));
        let h2 = handled.clone();
        Machine::run(MachineConfig::new(1), move |ctx| {
            let handled = h2.clone();
            let mt = ctx.register(move |_ctx, _v: u64| {
                handled.fetch_add(1, SeqCst);
            });
            let cache = CachingSender::new(mt, 1, 1);
            ctx.epoch(|ctx| {
                for v in 0..10u64 {
                    assert!(cache.send(ctx, 0, v), "distinct messages always go");
                }
            });
        });
        assert_eq!(handled.load(SeqCst), 10);
    }
}
