//! Machine-wide message statistics.
//!
//! The paper's evaluation unit is the *message* (its Figs. 5–6 count
//! messages, and the AM++ layers — coalescing, caching, reductions — are all
//! message-count optimizations), so the runtime keeps precise counters that
//! the experiment harness reads.
//!
//! Hot-path counters (`messages_sent`, `messages_handled`, the cache and
//! reduction statistics, and the per-type [`TypeStat`]s) are *not* bumped
//! per message: threads accumulate deltas locally and publish them at
//! envelope boundaries and before every idle/termination check (see
//! INTERNALS.md §9). Mid-epoch snapshots may therefore lag by up to one
//! coalescing buffer per thread; at every termination-detection instant —
//! in particular whenever an epoch ends or [`crate::AmCtx::stats`] /
//! [`crate::AmCtx::type_stats`] is called — the counters are exact.

use std::sync::atomic::{AtomicU64, Ordering};

/// Live counters, updated by the runtime and the optional message layers.
#[derive(Debug, Default)]
pub struct MachineStats {
    /// Logical messages accepted for sending (after caching/reduction
    /// layers, i.e. messages that actually entered a coalescing buffer).
    pub messages_sent: AtomicU64,
    /// Envelopes (coalesced batches) pushed to destination inboxes.
    pub envelopes_sent: AtomicU64,
    /// Logical messages whose handler ran to completion.
    pub messages_handled: AtomicU64,
    /// Messages dropped by a [`crate::caching::CachingSender`] because an
    /// identical message to the same destination was recently sent.
    pub cache_hits: AtomicU64,
    /// Messages that passed through a caching layer without being dropped.
    pub cache_misses: AtomicU64,
    /// Messages absorbed by a [`crate::reduction::ReducingSender`] combine.
    pub reduction_combines: AtomicU64,
    /// Messages forwarded out of a reduction layer.
    pub reduction_forwards: AtomicU64,
    /// Completed epochs.
    pub epochs: AtomicU64,
    /// Termination-detection control tokens circulated (four-counter mode).
    pub control_tokens: AtomicU64,
    /// Termination waits (epoch exit, `try_finish`) that ended at the
    /// liveness ceiling rather than by a ring: the reliability layer's
    /// periodic pumps, or a wake-up nobody delivered.
    pub idle_timeouts: AtomicU64,
    /// Causal-trace cascades started by the deterministic sampler (see
    /// [`crate::MachineConfig::trace_sampling`]). Each root seeds one
    /// traced message cascade whose envelopes carry trace ids.
    pub trace_roots: AtomicU64,
    /// Envelope transmissions suppressed by the fault layer (the packet
    /// was "lost on the wire" and sits in the sender's retransmit buffer).
    pub injected_drops: AtomicU64,
    /// Duplicate envelope transmissions injected by the fault layer.
    pub injected_dups: AtomicU64,
    /// Envelope transmissions the fault layer held back for a few ticks.
    pub injected_delays: AtomicU64,
    /// Envelope transmissions the fault layer let later traffic overtake.
    pub injected_reorders: AtomicU64,
    /// Envelope retransmissions performed by the reliability layer after
    /// an ack timeout.
    pub retransmits: AtomicU64,
    /// Acknowledgements processed by senders (pending entries retired).
    pub acks: AtomicU64,
    /// Envelopes discarded by receiver-side sequence dedup (exactly-once
    /// delivery under duplicate/retransmit faults).
    pub dups_suppressed: AtomicU64,
    /// Payload bytes written to a wire transport (TCP frames; zero for
    /// the in-process and shared-memory backends, which move envelopes
    /// without serializing).
    pub transport_bytes_sent: AtomicU64,
    /// Payload bytes read off a wire transport.
    pub transport_bytes_received: AtomicU64,
    /// Frames (packets + acks) handed to a wire transport backend.
    pub transport_frames_sent: AtomicU64,
    /// Frames delivered by a wire transport backend into rank inboxes.
    pub transport_frames_received: AtomicU64,
    /// Connection (re)establishment attempts after the initial dial of a
    /// lane — each one also records a `SpanKind::Transport` "reconnect"
    /// span when profiling is on.
    pub transport_reconnects: AtomicU64,
    /// Handshakes rejected (bad magic, version mismatch, wrong lane) on
    /// either side of a wire connection.
    pub transport_handshake_failures: AtomicU64,
    /// Malformed frames observed by a wire receiver (oversized length
    /// prefix, truncated body, unknown kind); each one costs the
    /// connection, and the reliability layer recovers the contents.
    pub transport_frame_errors: AtomicU64,
    /// Times a sender blocked because a peer's bounded outbound queue or
    /// ring was full (backpressure).
    pub transport_backpressure_stalls: AtomicU64,
}

impl MachineStats {
    pub(crate) fn bump(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Take a consistent-enough point-in-time copy (exact when quiescent,
    /// e.g. outside epochs).
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            messages_sent: self.messages_sent.load(Ordering::SeqCst),
            envelopes_sent: self.envelopes_sent.load(Ordering::SeqCst),
            messages_handled: self.messages_handled.load(Ordering::SeqCst),
            cache_hits: self.cache_hits.load(Ordering::SeqCst),
            cache_misses: self.cache_misses.load(Ordering::SeqCst),
            reduction_combines: self.reduction_combines.load(Ordering::SeqCst),
            reduction_forwards: self.reduction_forwards.load(Ordering::SeqCst),
            epochs: self.epochs.load(Ordering::SeqCst),
            control_tokens: self.control_tokens.load(Ordering::SeqCst),
            idle_timeouts: self.idle_timeouts.load(Ordering::SeqCst),
            trace_roots: self.trace_roots.load(Ordering::SeqCst),
            injected_drops: self.injected_drops.load(Ordering::SeqCst),
            injected_dups: self.injected_dups.load(Ordering::SeqCst),
            injected_delays: self.injected_delays.load(Ordering::SeqCst),
            injected_reorders: self.injected_reorders.load(Ordering::SeqCst),
            retransmits: self.retransmits.load(Ordering::SeqCst),
            acks: self.acks.load(Ordering::SeqCst),
            dups_suppressed: self.dups_suppressed.load(Ordering::SeqCst),
            transport_bytes_sent: self.transport_bytes_sent.load(Ordering::SeqCst),
            transport_bytes_received: self.transport_bytes_received.load(Ordering::SeqCst),
            transport_frames_sent: self.transport_frames_sent.load(Ordering::SeqCst),
            transport_frames_received: self.transport_frames_received.load(Ordering::SeqCst),
            transport_reconnects: self.transport_reconnects.load(Ordering::SeqCst),
            transport_handshake_failures: self.transport_handshake_failures.load(Ordering::SeqCst),
            transport_frame_errors: self.transport_frame_errors.load(Ordering::SeqCst),
            transport_backpressure_stalls: self
                .transport_backpressure_stalls
                .load(Ordering::SeqCst),
        }
    }
}

/// Machine-wide counters for one registered message type (shared by the
/// sending and handling sides across all ranks).
#[derive(Debug)]
pub struct TypeStat {
    /// Diagnostic name given at registration.
    pub name: String,
    /// Messages of this type accepted for sending.
    pub sent: AtomicU64,
    /// Messages of this type whose handler completed.
    pub handled: AtomicU64,
}

impl TypeStat {
    pub(crate) fn new(name: String) -> Self {
        TypeStat {
            name,
            sent: AtomicU64::new(0),
            handled: AtomicU64::new(0),
        }
    }

    /// Point-in-time copy.
    pub fn snapshot(&self) -> TypeStatSnapshot {
        TypeStatSnapshot {
            name: self.name.clone(),
            sent: self.sent.load(Ordering::SeqCst),
            handled: self.handled.load(Ordering::SeqCst),
        }
    }
}

/// A point-in-time copy of [`TypeStat`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TypeStatSnapshot {
    /// Diagnostic name given at registration.
    pub name: String,
    /// Messages of this type accepted for sending.
    pub sent: u64,
    /// Messages of this type whose handler completed.
    pub handled: u64,
}

/// A point-in-time copy of [`MachineStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    /// Logical messages accepted for sending.
    pub messages_sent: u64,
    /// Envelopes (coalesced batches) delivered to inboxes.
    pub envelopes_sent: u64,
    /// Logical messages whose handler ran to completion.
    pub messages_handled: u64,
    /// Messages dropped by caching layers as duplicates.
    pub cache_hits: u64,
    /// Messages that passed caching layers unharmed.
    pub cache_misses: u64,
    /// Messages absorbed by reduction-layer combines.
    pub reduction_combines: u64,
    /// Messages forwarded out of reduction layers.
    pub reduction_forwards: u64,
    /// Completed epochs.
    pub epochs: u64,
    /// Termination-detection control tokens circulated.
    pub control_tokens: u64,
    /// Termination waits that ended at the liveness ceiling, not a ring.
    pub idle_timeouts: u64,
    /// Causal-trace cascades started by the deterministic sampler.
    pub trace_roots: u64,
    /// Envelope transmissions dropped by the fault layer.
    pub injected_drops: u64,
    /// Duplicate envelope transmissions injected by the fault layer.
    pub injected_dups: u64,
    /// Envelope transmissions delayed by the fault layer.
    pub injected_delays: u64,
    /// Envelope transmissions reordered by the fault layer.
    pub injected_reorders: u64,
    /// Envelope retransmissions after ack timeouts.
    pub retransmits: u64,
    /// Acknowledgements processed by senders.
    pub acks: u64,
    /// Envelopes suppressed by receiver-side sequence dedup.
    pub dups_suppressed: u64,
    /// Payload bytes written to a wire transport.
    pub transport_bytes_sent: u64,
    /// Payload bytes read off a wire transport.
    pub transport_bytes_received: u64,
    /// Frames (packets + acks) handed to a wire transport backend.
    pub transport_frames_sent: u64,
    /// Frames delivered by a wire transport backend.
    pub transport_frames_received: u64,
    /// Connection re-establishment attempts after the initial dial.
    pub transport_reconnects: u64,
    /// Handshakes rejected on either side of a wire connection.
    pub transport_handshake_failures: u64,
    /// Malformed frames observed by a wire receiver.
    pub transport_frame_errors: u64,
    /// Times a sender blocked on a full peer queue or ring.
    pub transport_backpressure_stalls: u64,
}

impl StatsSnapshot {
    /// Messages per envelope actually achieved by coalescing (0 if nothing
    /// was sent).
    pub fn coalescing_factor(&self) -> f64 {
        if self.envelopes_sent == 0 {
            0.0
        } else {
            self.messages_sent as f64 / self.envelopes_sent as f64
        }
    }

    /// Total perturbations injected by the fault layer (drops, duplicates,
    /// delays, reorders). Zero when faults are disabled; chaos tests assert
    /// this is nonzero to prove their faults actually fired.
    pub fn faults_injected(&self) -> u64 {
        self.injected_drops + self.injected_dups + self.injected_delays + self.injected_reorders
    }

    /// Counter-wise difference (`self - earlier`), for measuring one phase.
    ///
    /// Saturating: snapshots taken mid-epoch are only "consistent enough" —
    /// individual counters can race ahead of each other between the two
    /// loads, so a plain subtraction could underflow (and panic in debug
    /// builds). A clamped-to-zero component is the honest reading of such a
    /// racy pair.
    pub fn since(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            messages_sent: self.messages_sent.saturating_sub(earlier.messages_sent),
            envelopes_sent: self.envelopes_sent.saturating_sub(earlier.envelopes_sent),
            messages_handled: self
                .messages_handled
                .saturating_sub(earlier.messages_handled),
            cache_hits: self.cache_hits.saturating_sub(earlier.cache_hits),
            cache_misses: self.cache_misses.saturating_sub(earlier.cache_misses),
            reduction_combines: self
                .reduction_combines
                .saturating_sub(earlier.reduction_combines),
            reduction_forwards: self
                .reduction_forwards
                .saturating_sub(earlier.reduction_forwards),
            epochs: self.epochs.saturating_sub(earlier.epochs),
            control_tokens: self.control_tokens.saturating_sub(earlier.control_tokens),
            idle_timeouts: self.idle_timeouts.saturating_sub(earlier.idle_timeouts),
            trace_roots: self.trace_roots.saturating_sub(earlier.trace_roots),
            injected_drops: self.injected_drops.saturating_sub(earlier.injected_drops),
            injected_dups: self.injected_dups.saturating_sub(earlier.injected_dups),
            injected_delays: self.injected_delays.saturating_sub(earlier.injected_delays),
            injected_reorders: self
                .injected_reorders
                .saturating_sub(earlier.injected_reorders),
            retransmits: self.retransmits.saturating_sub(earlier.retransmits),
            acks: self.acks.saturating_sub(earlier.acks),
            dups_suppressed: self.dups_suppressed.saturating_sub(earlier.dups_suppressed),
            transport_bytes_sent: self
                .transport_bytes_sent
                .saturating_sub(earlier.transport_bytes_sent),
            transport_bytes_received: self
                .transport_bytes_received
                .saturating_sub(earlier.transport_bytes_received),
            transport_frames_sent: self
                .transport_frames_sent
                .saturating_sub(earlier.transport_frames_sent),
            transport_frames_received: self
                .transport_frames_received
                .saturating_sub(earlier.transport_frames_received),
            transport_reconnects: self
                .transport_reconnects
                .saturating_sub(earlier.transport_reconnects),
            transport_handshake_failures: self
                .transport_handshake_failures
                .saturating_sub(earlier.transport_handshake_failures),
            transport_frame_errors: self
                .transport_frame_errors
                .saturating_sub(earlier.transport_frame_errors),
            transport_backpressure_stalls: self
                .transport_backpressure_stalls
                .saturating_sub(earlier.transport_backpressure_stalls),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_and_since() {
        let s = MachineStats::default();
        MachineStats::bump(&s.messages_sent, 10);
        MachineStats::bump(&s.envelopes_sent, 2);
        let a = s.snapshot();
        MachineStats::bump(&s.messages_sent, 5);
        let b = s.snapshot();
        let d = b.since(&a);
        assert_eq!(d.messages_sent, 5);
        assert_eq!(d.envelopes_sent, 0);
        assert_eq!(a.coalescing_factor(), 5.0);
    }

    #[test]
    fn empty_coalescing_factor_is_zero() {
        assert_eq!(StatsSnapshot::default().coalescing_factor(), 0.0);
    }

    #[test]
    fn since_saturates_on_racy_snapshots() {
        // A mid-epoch pair where `earlier` observed a counter *after*
        // `later` did (loads are not a consistent cut).
        let earlier = StatsSnapshot {
            messages_sent: 10,
            messages_handled: 8,
            ..Default::default()
        };
        let later = StatsSnapshot {
            messages_sent: 12,
            messages_handled: 5, // raced behind
            ..Default::default()
        };
        let d = later.since(&earlier);
        assert_eq!(d.messages_sent, 2);
        assert_eq!(d.messages_handled, 0, "clamped, not panicking");
    }
}
