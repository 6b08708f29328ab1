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
//! * **Flight recorder.** Each runtime thread keeps a fixed-size ring of
//!   compact [`FlightEvent`]s ([`MachineConfig::flight_events`](crate::MachineConfig::flight_events), on by
//!   default): envelope ship/deliver, handler entry/exit, epoch
//!   transitions, termination votes, traced sends, and (from the fault
//!   layer, via a shared side ring) retransmissions and injected faults.
//!   Pushes are thread-local — an index bump and a 32-byte store into a
//!   pre-allocated buffer, no locks, no shared cachelines — preserving the
//!   zero-contention hot path of INTERNALS §9 (the memory-ordering
//!   argument is in §10). When the machine records a failure the rings are
//!   frozen, and each thread deposits its ring on the way out.
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

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use crate::machine::RankId;

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

/// What a [`FlightEvent`] records. Kept deliberately coarse: per-envelope
/// and per-epoch transitions, not per-message activity (except for traced
/// sends, which sampling already bounds), so the always-on recorder stays
/// off the per-message hot path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FlightKind {
    /// A traced logical message entered a coalescing buffer
    /// (`a` = root id, `b` = destination rank).
    Send,
    /// An envelope shipped toward a destination inbox
    /// (`a` = `(type_id << 32) | count`, `b` = destination rank); for a
    /// traced envelope a [`FlightKind::TraceShip`] event follows with the
    /// causal ids.
    EnvShip,
    /// A traced envelope shipped (`a` = event id, `b` = parent event id).
    TraceShip,
    /// A handler batch began executing (`a` = `(type_id << 32) | count`,
    /// `b` = the envelope's event id, 0 if untraced).
    HandlerEnter,
    /// The handler batch of the preceding [`FlightKind::HandlerEnter`]
    /// returned (`a` = `(type_id << 32) | count`, `b` = event id).
    HandlerExit,
    /// The reliability layer retransmitted an unacked packet
    /// (`a` = `(from << 32) | to`, `b` = sequence number).
    Retransmit,
    /// The fault layer injected a perturbation (`a` = `(from << 32) | to`,
    /// `b` = fault class: 0 drop, 1 dup, 2 delay, 3 reorder, 4 ack-drop).
    FaultInjected,
    /// A rank passed an epoch entry barrier (`a` = epoch generation).
    EpochEnter,
    /// A rank observed epoch termination (`a` = epoch generation).
    EpochExit,
    /// A termination vote: this rank declared itself idle to the detector
    /// (`a` = epoch generation, `b` = votes so far this epoch).
    TermVote,
}

impl FlightKind {
    /// Short display name used by the post-mortem renderer.
    pub fn label(self) -> &'static str {
        match self {
            FlightKind::Send => "send",
            FlightKind::EnvShip => "env-ship",
            FlightKind::TraceShip => "trace-ship",
            FlightKind::HandlerEnter => "handler-enter",
            FlightKind::HandlerExit => "handler-exit",
            FlightKind::Retransmit => "retransmit",
            FlightKind::FaultInjected => "fault-injected",
            FlightKind::EpochEnter => "epoch-enter",
            FlightKind::EpochExit => "epoch-exit",
            FlightKind::TermVote => "term-vote",
        }
    }
}

/// One compact flight-recorder event. Fixed-size, no heap, pushed into a
/// thread-owned ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightEvent {
    /// Nanoseconds since the machine's shared time base (all threads share
    /// it, so merged cross-thread ordering is meaningful).
    pub ts_ns: u64,
    /// What happened.
    pub kind: FlightKind,
    /// First kind-specific payload word (see [`FlightKind`]).
    pub a: u64,
    /// Second kind-specific payload word.
    pub b: u64,
}

/// A fixed-capacity, thread-owned ring of [`FlightEvent`]s. Newest events
/// overwrite the oldest; `recorded` counts every push so truncation is
/// detectable (`recorded > len`).
#[derive(Debug, Clone)]
pub struct FlightRing {
    /// Rank the owning thread belongs to (`usize::MAX` for the transport's
    /// shared side ring).
    pub rank: RankId,
    /// Thread index within the rank (0 = main).
    pub thread: usize,
    buf: Vec<FlightEvent>,
    capacity: usize,
    head: usize,
    recorded: u64,
}

impl FlightRing {
    pub(crate) fn new(rank: RankId, thread: usize, capacity: usize) -> Self {
        FlightRing {
            rank,
            thread,
            buf: Vec::new(), // allocated lazily on first push
            capacity,
            head: 0,
            recorded: 0,
        }
    }

    /// Record one event (overwrites the oldest once full).
    #[inline]
    pub(crate) fn push(&mut self, ev: FlightEvent) {
        if self.capacity == 0 {
            return;
        }
        if self.buf.len() < self.capacity {
            if self.buf.capacity() == 0 {
                self.buf.reserve_exact(self.capacity);
            }
            self.buf.push(ev);
        } else {
            self.buf[self.head] = ev;
        }
        self.head = (self.head + 1) % self.capacity;
        self.recorded += 1;
    }

    /// Total events ever pushed (≥ `events().len()`; the difference is
    /// what the ring overwrote).
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> Vec<FlightEvent> {
        if self.buf.len() < self.capacity {
            self.buf.clone()
        } else {
            let mut out = Vec::with_capacity(self.buf.len());
            out.extend_from_slice(&self.buf[self.head..]);
            out.extend_from_slice(&self.buf[..self.head]);
            out
        }
    }

    fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// Machine-owned collector the per-thread rings deposit into at thread
/// exit (normal return or unwind — the deposit rides a drop guard).
/// Holds the shared time base and the freeze flag; the only thing threads
/// touch on the push path is one relaxed load of `frozen`.
pub(crate) struct FlightCollector {
    base: Instant,
    capacity: usize,
    frozen: AtomicBool,
    /// Simulation mode: timestamps read this virtual clock (nanoseconds
    /// of logical time, mirrored by the scheduler) instead of the wall
    /// clock, making recorded timelines bit-reproducible across runs.
    virtual_clock: Option<Arc<AtomicU64>>,
    rings: Mutex<Vec<FlightRing>>,
    /// Side ring for layers without a thread-owned ring (the transport's
    /// retransmit/fault events). Mutex-guarded but only touched on fault
    /// paths, which are off the hot path by construction.
    aux: Mutex<FlightRing>,
}

impl FlightCollector {
    pub(crate) fn new(capacity: usize) -> Self {
        FlightCollector {
            base: Instant::now(),
            capacity,
            frozen: AtomicBool::new(false),
            virtual_clock: None,
            rings: Mutex::new(Vec::new()),
            aux: Mutex::new(FlightRing::new(usize::MAX, 0, capacity)),
        }
    }

    /// A collector whose timestamps read a virtual clock (sim mode).
    pub(crate) fn with_clock(capacity: usize, clock: Arc<AtomicU64>) -> Self {
        let mut c = Self::new(capacity);
        c.virtual_clock = Some(clock);
        c
    }

    #[inline]
    pub(crate) fn enabled(&self) -> bool {
        self.capacity > 0
    }

    #[inline]
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Whether the rings are frozen (a failure has been recorded); pushes
    /// after the freeze are discarded so the interesting tail survives.
    #[inline]
    pub(crate) fn is_frozen(&self) -> bool {
        self.frozen.load(Relaxed)
    }

    /// Freeze every ring (called by the first failure recorder).
    pub(crate) fn freeze(&self) {
        self.frozen.store(true, Relaxed);
    }

    #[inline]
    pub(crate) fn now_ns(&self) -> u64 {
        match &self.virtual_clock {
            Some(clock) => clock.load(Relaxed),
            None => self.base.elapsed().as_nanos() as u64,
        }
    }

    /// Accept a thread's ring at thread exit.
    pub(crate) fn deposit(&self, ring: FlightRing) {
        if !ring.is_empty() {
            self.rings.lock().push(ring);
        }
    }

    /// Record an event into the shared side ring (transport/fault layers).
    pub(crate) fn aux_push(&self, kind: FlightKind, a: u64, b: u64) {
        if !self.enabled() || self.is_frozen() {
            return;
        }
        let ev = FlightEvent {
            ts_ns: self.now_ns(),
            kind,
            a,
            b,
        };
        self.aux.lock().push(ev);
    }

    /// All deposited rings plus the side ring (post-mortem assembly; call
    /// after every thread has exited).
    pub(crate) fn collect(&self) -> Vec<FlightRing> {
        let mut rings = self.rings.lock().clone();
        let aux = self.aux.lock();
        if !aux.is_empty() {
            rings.push(aux.clone());
        }
        rings
    }
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

/// One event in a [`PostMortem`]'s merged timeline: a [`FlightEvent`]
/// stamped with the rank/thread whose ring it came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MergedEvent {
    /// Nanoseconds since the machine time base.
    pub ts_ns: u64,
    /// Originating rank (`usize::MAX` = the transport side ring).
    pub rank: RankId,
    /// Originating thread within the rank.
    pub thread: usize,
    /// What happened.
    pub kind: FlightKind,
    /// First payload word.
    pub a: u64,
    /// Second payload word.
    pub b: u64,
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
    pub timeline: Vec<MergedEvent>,
    /// The causal chain of ship events leading into the failing envelope,
    /// root first (empty when the failing envelope was untraced or its
    /// ancestry was overwritten in the rings).
    pub causal_chain: Vec<MergedEvent>,
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
        rings: Vec<FlightRing>,
        unacked: Vec<LaneBacklog>,
    ) -> PostMortem {
        let mut timeline: Vec<MergedEvent> = rings
            .iter()
            .flat_map(|r| {
                let (rank, thread) = (r.rank, r.thread);
                r.events().into_iter().map(move |e| MergedEvent {
                    ts_ns: e.ts_ns,
                    rank,
                    thread,
                    kind: e.kind,
                    a: e.a,
                    b: e.b,
                })
            })
            .collect();
        timeline.sort_by_key(|e| (e.ts_ns, e.rank, e.thread));
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
                    e.ts_ns,
                    e.rank,
                    e.thread,
                    e.kind.label(),
                    e.a,
                    e.b
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
            let who = if e.rank == usize::MAX {
                "transport".to_string()
            } else {
                format!("rank {} thread {}", e.rank, e.thread)
            };
            let _ = writeln!(
                out,
                "  [{:>12}ns] {}: {} a={:#x} b={:#x}",
                e.ts_ns,
                who,
                e.kind.label(),
                e.a,
                e.b
            );
        }
        out
    }
}

/// Walk `(event, parent)` links in the merged timeline's
/// [`FlightKind::TraceShip`] events from the failing envelope's parent up
/// to the root; returns the chain oldest-ancestor-first, ending with the
/// failing envelope's own ship event when the rings still hold it.
fn causal_chain(timeline: &[MergedEvent], trace: TraceCtx) -> Vec<MergedEvent> {
    let find = |event: u64| {
        timeline
            .iter()
            .find(|e| e.kind == FlightKind::TraceShip && e.a == event)
            .copied()
    };
    let mut chain = Vec::new();
    let mut cursor = trace.event;
    // Bounded: depth can't exceed the recorded depth + 1, and a cycle is
    // impossible (event ids are unique), but cap defensively anyway.
    for _ in 0..=(trace.depth as usize + 1) {
        let Some(ev) = find(cursor) else { break };
        chain.push(ev);
        if ev.b == 0 {
            break;
        }
        cursor = ev.b;
    }
    chain.reverse();
    chain
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ts: u64, kind: FlightKind, a: u64, b: u64) -> FlightEvent {
        FlightEvent {
            ts_ns: ts,
            kind,
            a,
            b,
        }
    }

    #[test]
    fn ring_keeps_newest_and_counts_all() {
        let mut r = FlightRing::new(0, 0, 3);
        for i in 0..7u64 {
            r.push(ev(i, FlightKind::EnvShip, i, 0));
        }
        assert_eq!(r.recorded(), 7);
        let kept: Vec<u64> = r.events().iter().map(|e| e.ts_ns).collect();
        assert_eq!(kept, vec![4, 5, 6], "newest three, oldest first");
    }

    #[test]
    fn ring_capacity_zero_records_nothing() {
        let mut r = FlightRing::new(0, 0, 0);
        r.push(ev(1, FlightKind::EnvShip, 0, 0));
        assert_eq!(r.recorded(), 0);
        assert!(r.events().is_empty());
    }

    #[test]
    fn ring_below_capacity_is_in_order() {
        let mut r = FlightRing::new(0, 0, 8);
        for i in 0..3u64 {
            r.push(ev(i, FlightKind::TermVote, i, 0));
        }
        let kept: Vec<u64> = r.events().iter().map(|e| e.ts_ns).collect();
        assert_eq!(kept, vec![0, 1, 2]);
    }

    #[test]
    fn collector_freeze_discards_aux_pushes() {
        let c = FlightCollector::new(8);
        c.aux_push(FlightKind::Retransmit, 1, 2);
        c.freeze();
        c.aux_push(FlightKind::Retransmit, 3, 4);
        let rings = c.collect();
        assert_eq!(rings.len(), 1);
        assert_eq!(rings[0].events().len(), 1, "post-freeze push discarded");
    }

    #[test]
    fn causal_chain_walks_to_root() {
        // root ship (event 10, parent 0) -> event 11 -> event 12 (failing).
        let timeline = vec![
            MergedEvent {
                ts_ns: 1,
                rank: 0,
                thread: 0,
                kind: FlightKind::TraceShip,
                a: 10,
                b: 0,
            },
            MergedEvent {
                ts_ns: 2,
                rank: 1,
                thread: 0,
                kind: FlightKind::TraceShip,
                a: 11,
                b: 10,
            },
            MergedEvent {
                ts_ns: 3,
                rank: 2,
                thread: 0,
                kind: FlightKind::TraceShip,
                a: 12,
                b: 11,
            },
        ];
        let trace = TraceCtx {
            root: 99,
            event: 12,
            parent: 11,
            depth: 2,
        };
        let chain = causal_chain(&timeline, trace);
        let events: Vec<u64> = chain.iter().map(|e| e.a).collect();
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
