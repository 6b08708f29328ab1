//! Message caching (one of the AM++ layers): the dominance cache behind
//! [`MessageType::send_min`](crate::MessageType::send_min).
//!
//! "Caching allows to avoid unnecessary message sends and the corresponding
//! handler calls in algorithms that produce potentially large amounts of
//! repetitive work" — e.g. a BFS/CC frontier that discovers the same vertex
//! through many edges. For handlers that only ever lower a value, one rule
//! covers both duplicate elimination and min-combining: a message whose
//! value is no smaller than one this thread already sent under the same
//! key in the current epoch would fail its guard on arrival, so it is
//! dropped. Each thread owns one `DominanceTable` per message type beside
//! its coalescing buffers — no lock, no atomics — and entries stamped with
//! an older epoch count as absent, so nothing has to be cleared. The
//! pattern engine uses it on every hop its plan proves combinable
//! (INTERNALS §14.5); the hand-written E2/E3 baselines send through it
//! from their handlers ([`HandlerCtx::send_min`](crate::machine::HandlerCtx::send_min)).

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Machine, MachineConfig};
    use std::sync::Arc;

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
    fn colliding_keys_evict_and_still_send() {
        let mut t = DominanceTable::new();
        let (k, alias) = (5u64, 5u64 + DOMINANCE_SLOTS as u64);
        assert!(!t.dominated(1, k, 10));
        assert!(!t.dominated(1, alias, 20), "same slot, other key");
        assert!(!t.dominated(1, k, 30), "evicted bound forgotten");
        assert!(t.dominated(1, k, 30));
    }
}
