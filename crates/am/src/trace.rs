//! `dgp-am::trace` — causal message tracing, the always-on flight
//! recorder, and automatic post-mortems.
//!
//! The runtime's execution model — declarative patterns compiled into
//! cascades of fine-grained active messages — makes two questions hard to
//! answer after the fact: *why did this vertex get updated?* (a causality
//! question) and *why did this run fail or hang?* (a black-box question).
//! This module answers both:
//!
//! * **Causal tracing.** A compact [`TraceCtx`] (root id, event id, parent
//!   event id, depth) rides on envelope headers and is propagated through
//!   handler re-sends: a handler executing a traced envelope stamps every
//!   message it sends with the envelope's event id as parent, so a sampled
//!   activation (source relax → coalesced ship → remote handler → re-send
//!   …) forms a tree of envelopes linked by `(event, parent)` pairs.
//!   Sampling is *per root* and deterministic: whether a causally-new send
//!   starts a traced cascade is a seeded, reproducible function of the
//!   thread's root counter (see [`MachineConfig::trace_sampling`](crate::MachineConfig::trace_sampling)), so the
//!   same run config traces the same cascades. When profiling is on, the
//!   exporter stitches the traced spans across ranks with Chrome-trace
//!   *flow events* — the cascade renders as one connected arrow chain in
//!   `chrome://tracing`/Perfetto.
//!
//!   Coalescing merges causality: one envelope carries many messages, so
//!   an envelope is attributed to the *first traced message* batched into
//!   it, and every message a handler sends while executing a traced
//!   envelope joins that cascade. The trace is therefore the envelope-level
//!   causal cone of the sampled root — exactly the granularity at which
//!   the transport ships, faults, and retransmits.
//!
//! * **Flight recorder.** The always-on half of the machine's one event
//!   store ([`crate::obs::Recorder`]): each runtime thread keeps its
//!   newest [`SpanRecord`]s in a ring it alone writes
//!   ([`MachineConfig::events_per_thread`](crate::MachineConfig::events_per_thread),
//!   1 024 by default) — traced envelope ships, handler spans (open
//!   while the handler runs), epoch entries and spans, termination
//!   spans, retransmissions and injected faults. Pushes take no lock and do no
//!   read-modify-write (INTERNALS §10.2). The first recorded failure
//!   freezes the rings.
//!
//! * **Post-mortems.** When [`Machine::try_run`](crate::Machine::try_run)
//!   surfaces any [`MachineError`](crate::MachineError), the runtime
//!   assembles a [`PostMortem`]: the frozen rings merged into one
//!   timeline, the unacknowledged reliability lanes, in-flight message
//!   counts, and the causal chain of the envelope whose handler failed.
//!   [`Machine::try_run_diagnosed`](crate::Machine::try_run_diagnosed)
//!   returns it as a value;
//!   [`MachineConfig::postmortem`](crate::MachineConfig::postmortem) (or
//!   the `DGP_POSTMORTEM_DIR` environment variable) writes the rendered
//!   report to a directory, which is what CI uploads when a chaos job
//!   fails.

use crate::machine::RankId;
use crate::obs::{SpanKind, SpanRecord};

/// Causal event ids are drawn per thread, with no shared counter: the
/// thread's (rank, thread) index sits above the low `EVENT_SEQ_BITS`,
/// which count the thread's traced ships from 1. Ids are nonzero, unique
/// within a run and deterministic under the simulator; 16 + 37 bits keep
/// them below 2^53, exact as JSON numbers in a Chrome trace.
pub(crate) const EVENT_SEQ_BITS: u32 = 37;
/// The most runtime threads (`ranks × threads_per_rank`) whose event ids
/// the packing keeps apart; [`crate::MachineConfig`] rejects more.
pub(crate) const MAX_TRACED_THREADS: usize = 1 << 16;

/// Causal trace context carried on an envelope header. `root == 0` means
/// the envelope is untraced (the overwhelmingly common case at default
/// sampling); all fields are meaningful only when `root != 0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceCtx {
    /// Id of the sampled root activation this envelope descends from
    /// (0 = untraced).
    pub root: u64,
    /// This envelope's own event id, assigned when it ships. Children
    /// cite it as their `parent`.
    pub event: u64,
    /// Event id of the envelope whose handler caused this one (0 for an
    /// envelope sent outside any traced handler — the cascade root).
    pub parent: u64,
    /// Causal depth below the root (0 for the root's own envelopes).
    pub depth: u32,
}

impl TraceCtx {
    /// The untraced context.
    pub const NONE: TraceCtx = TraceCtx {
        root: 0,
        event: 0,
        parent: 0,
        depth: 0,
    };

    /// Whether this context belongs to a sampled cascade.
    #[inline]
    pub fn is_traced(&self) -> bool {
        self.root != 0
    }
}

/// splitmix64 — the same stateless mixer the fault layer uses, so trace
/// sampling is reproducible from `(seed, rank, thread, counter)` alone.
pub(crate) fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Context of the failure that froze the rings, captured at the failing
/// handler (first-wins, like the failure itself).
#[derive(Debug, Clone)]
pub struct FailCause {
    /// Rank whose handler failed.
    pub rank: RankId,
    /// 1-indexed epoch generation in flight when it failed (best effort).
    pub epoch: u64,
    /// Message type id of the failing envelope.
    pub type_id: u32,
    /// Diagnostic name of the message type.
    pub type_name: String,
    /// Causal context of the failing envelope ([`TraceCtx::NONE`] when the
    /// envelope was not part of a sampled cascade).
    pub trace: TraceCtx,
}

/// Backlog of one unacknowledged reliability lane at freeze time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneBacklog {
    /// Sending rank of the lane.
    pub from: RankId,
    /// Receiving rank of the lane.
    pub to: RankId,
    /// Unacknowledged packets pending retransmission.
    pub pending: usize,
    /// Oldest unacknowledged sequence number.
    pub oldest_seq: u64,
    /// Retransmission attempts already made for the oldest packet.
    pub attempts: u32,
}

/// A structured post-mortem of a failed run: what the flight recorder,
/// the reliability layer, and the causal tracer knew when the machine
/// recorded its first failure. Built automatically by
/// [`Machine::try_run_diagnosed`](crate::Machine::try_run_diagnosed) and
/// written to disk by [`MachineConfig::postmortem`](crate::MachineConfig::postmortem).
#[derive(Debug, Clone)]
pub struct PostMortem {
    /// Rendered [`MachineError`](crate::MachineError) that failed the run.
    pub error: String,
    /// Context of the failing handler, when the failure was a handler
    /// panic (None for rank panics, deadlines, and poisonings).
    pub cause: Option<FailCause>,
    /// Machine-wide messages counted as sent when the rings froze.
    pub sent: u64,
    /// Machine-wide messages counted as handled when the rings froze.
    pub handled: u64,
    /// Every thread's frozen ring merged into one time-ordered timeline.
    pub timeline: Vec<SpanRecord>,
    /// The causal chain of ship records leading into the failing
    /// envelope, root first (empty when the failing envelope was untraced
    /// or its ancestry was overwritten in the rings).
    pub causal_chain: Vec<SpanRecord>,
    /// Unacknowledged reliability lanes at freeze time (empty on the
    /// perfect transport).
    pub unacked: Vec<LaneBacklog>,
}

impl PostMortem {
    pub(crate) fn assemble(
        error: String,
        cause: Option<FailCause>,
        sent: u64,
        handled: u64,
        mut timeline: Vec<SpanRecord>,
        unacked: Vec<LaneBacklog>,
    ) -> PostMortem {
        // Stable: records of one thread at one instant keep ring order.
        timeline.sort_by_key(|e| (e.start_ns, e.rank, e.thread));
        let causal_chain = match &cause {
            Some(c) if c.trace.is_traced() => causal_chain(&timeline, c.trace),
            _ => Vec::new(),
        };
        PostMortem {
            error,
            cause,
            sent,
            handled,
            timeline,
            causal_chain,
            unacked,
        }
    }

    /// Messages in flight (sent but not handled) when the rings froze.
    pub fn in_flight(&self) -> u64 {
        self.sent.saturating_sub(self.handled)
    }

    /// Event id of the envelope whose handler caused the failing one
    /// (None when the failure was untraced or not a handler panic).
    pub fn causal_parent(&self) -> Option<u64> {
        let c = self.cause.as_ref()?;
        (c.trace.is_traced() && c.trace.parent != 0).then_some(c.trace.parent)
    }

    /// Render the report as human-readable text (what
    /// [`MachineConfig::postmortem`](crate::MachineConfig::postmortem)
    /// writes to disk).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(1024 + self.timeline.len() * 64);
        let _ = writeln!(out, "== dgp-am post-mortem ==");
        let _ = writeln!(out, "error: {}", self.error);
        if let Some(c) = &self.cause {
            let _ = writeln!(
                out,
                "failing rank: {} (epoch {}, message type {} \"{}\")",
                c.rank, c.epoch, c.type_id, c.type_name
            );
            if c.trace.is_traced() {
                let _ = writeln!(
                    out,
                    "failing envelope: event {:#x} root {:#x} depth {} parent event {:#x}",
                    c.trace.event, c.trace.root, c.trace.depth, c.trace.parent
                );
            } else {
                let _ = writeln!(out, "failing envelope: untraced (not a sampled cascade)");
            }
        }
        let _ = writeln!(
            out,
            "counters at freeze: sent={} handled={} in-flight={}",
            self.sent,
            self.handled,
            self.in_flight()
        );
        if !self.causal_chain.is_empty() {
            let _ = writeln!(out, "causal chain (root first):");
            for e in &self.causal_chain {
                let _ = writeln!(
                    out,
                    "  [{:>12}ns] rank {} thread {}: {} event {:#x} parent {:#x}",
                    e.start_ns, e.rank, e.thread, e.name, e.flow_out, e.flow_in
                );
            }
        }
        if !self.unacked.is_empty() {
            let _ = writeln!(out, "unacked reliability lanes:");
            for l in &self.unacked {
                let _ = writeln!(
                    out,
                    "  lane {} -> {}: {} pending, oldest seq {} ({} attempts)",
                    l.from, l.to, l.pending, l.oldest_seq, l.attempts
                );
            }
        }
        let _ = writeln!(out, "merged timeline ({} events):", self.timeline.len());
        for e in &self.timeline {
            let _ = writeln!(
                out,
                "  [{:>12}ns] rank {} thread {}: {} +{}ns a={:#x} b={:#x}",
                e.start_ns, e.rank, e.thread, e.name, e.dur_ns, e.arg0, e.arg1
            );
        }
        out
    }
}

/// Walk `(flow_out, flow_in)` = `(event, parent)` links in the merged
/// timeline's [`SpanKind::Ship`] records from the failing envelope up to
/// the root; returns the chain oldest-ancestor-first, ending with the
/// failing envelope's own ship when the rings still hold it.
fn causal_chain(timeline: &[SpanRecord], trace: TraceCtx) -> Vec<SpanRecord> {
    let find = |event: u64| {
        timeline
            .iter()
            .find(|e| e.kind == SpanKind::Ship && e.flow_out == event)
            .copied()
    };
    let mut chain = Vec::new();
    let mut cursor = trace.event;
    // Bounded: depth can't exceed the recorded depth + 1, and a cycle is
    // impossible (event ids are unique), but cap defensively anyway.
    for _ in 0..=(trace.depth as usize + 1) {
        let Some(ev) = find(cursor) else { break };
        chain.push(ev);
        if ev.flow_in == 0 {
            break;
        }
        cursor = ev.flow_in;
    }
    chain.reverse();
    chain
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ship(ts: u64, event: u64, parent: u64, rank: RankId) -> SpanRecord {
        SpanRecord {
            kind: SpanKind::Ship,
            name: "env.ship",
            rank,
            thread: 0,
            start_ns: ts,
            dur_ns: 0,
            epoch: 1,
            arg0: 0,
            arg1: 0,
            flow_in: parent,
            flow_out: event,
        }
    }

    #[test]
    fn causal_chain_walks_to_root() {
        // root ship (event 10, parent 0) -> event 11 -> event 12 (failing).
        let timeline = vec![ship(1, 10, 0, 0), ship(2, 11, 10, 1), ship(3, 12, 11, 2)];
        let trace = TraceCtx {
            root: 99,
            event: 12,
            parent: 11,
            depth: 2,
        };
        let chain = causal_chain(&timeline, trace);
        let events: Vec<u64> = chain.iter().map(|e| e.flow_out).collect();
        assert_eq!(events, vec![10, 11, 12], "root first, failing last");
    }

    #[test]
    fn postmortem_render_names_the_essentials() {
        let cause = FailCause {
            rank: 2,
            epoch: 3,
            type_id: 0,
            type_name: "relax".into(),
            trace: TraceCtx {
                root: 0xAB,
                event: 0x30,
                parent: 0x20,
                depth: 1,
            },
        };
        let pm = PostMortem::assemble(
            "handler panicked".into(),
            Some(cause),
            100,
            90,
            vec![],
            vec![LaneBacklog {
                from: 0,
                to: 2,
                pending: 3,
                oldest_seq: 17,
                attempts: 4,
            }],
        );
        assert_eq!(pm.in_flight(), 10);
        assert_eq!(pm.causal_parent(), Some(0x20));
        let text = pm.render();
        assert!(text.contains("failing rank: 2 (epoch 3"), "{text}");
        assert!(text.contains("parent event 0x20"), "{text}");
        assert!(text.contains("lane 0 -> 2: 3 pending"), "{text}");
    }
}
