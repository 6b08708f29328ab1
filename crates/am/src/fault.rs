//! Deterministic fault injection and reliable delivery.
//!
//! The runtime's guarantees — exactly-once handler execution and epochs
//! that end only at true quiescence — are trivial over the in-process
//! channel transport, which never loses or reorders anything. Real
//! networks do. This module makes the simulated transport *adversarial*
//! (seeded drops, duplicates, delays, reordering at the envelope
//! boundary, where coalesced buffers flush into channels) and layers the
//! classic reliability machinery on top (per-lane sequence numbers,
//! receiver-side dedup, acknowledgements, retransmission with bounded
//! exponential backoff) so that the guarantees *survive* the faults. The
//! self-stabilizing SSSP line of work (Kanewala, Zalewski, Lumsdaine)
//! expects algorithm families to tolerate exactly this perturbation set;
//! chaos tests in `dgp-algorithms` prove ours does by asserting
//! bit-identical results against fault-free runs.
//!
//! ## Fault model
//!
//! Faults apply to **data envelopes** (and, via [`FaultPlan::ack_drop`],
//! to acknowledgements). The termination-detection control channel is
//! deliberately *not* faulted: it models a separate reliable control
//! plane, and the four-counter-wave detector's correctness argument
//! assumes FIFO token delivery. What keeps detection honest under data
//! faults is accounting, not the control plane: a dropped, delayed,
//! reordered, or retransmit-pending envelope's messages are already in
//! the `sent` counters and not yet in `handled`, so neither detector can
//! observe `handled == sent` while anything is parked in the fault layer.
//!
//! ## Determinism
//!
//! Every fault decision is a pure hash of
//! `(seed, sender, receiver, type id, sequence number, attempt)` — no
//! shared RNG state, no wall clock. Given the same per-lane envelope
//! sequence, the same seed perturbs the same envelopes the same way
//! regardless of thread interleaving. Including the attempt number keeps
//! retransmissions independently faulted (and therefore eventually
//! successful whenever `drop < 1.0`); [`FaultPlan::max_attempts`] bounds
//! the backoff and forces delivery past it, so delivery is guaranteed for
//! every plan that does not drop with probability 1.
//!
//! Timing (ticks, see below) *does* depend on scheduling, so the set of
//! injected faults varies run to run — but results cannot: the receiver
//! dedups by sequence number, making handler execution exactly-once for
//! every delivery schedule.
//!
//! ## Ticks
//!
//! The fault layer keeps a logical clock that advances every time any
//! rank pumps the transport (which all idle/termination loops do). Delay
//! and backoff are measured in these ticks, so "delay by N steps" means
//! "N transport pump steps", independent of wall time.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering::SeqCst};

use parking_lot::Mutex;

use crate::machine::{Ack, Envelope, Packet, RankId, Shared};
use crate::obs::{SpanKind, SpanRecord};
use crate::stats::MachineStats;
use crate::trace::{FlightKind, LaneBacklog};

/// Pack a directed lane into one flight-event payload word.
fn lane_word(from: RankId, to: RankId) -> u64 {
    ((from as u64) << 32) | to as u64
}

/// A seeded, deterministic plan of transport perturbations.
///
/// All probabilities are per *envelope transmission* (a coalesced batch,
/// not a logical message) and independent. The plan is inert until handed
/// to [`MachineConfig::faults`](crate::MachineConfig::faults).
///
/// ```
/// use dgp_am::{FaultPlan, MachineConfig};
///
/// let cfg = MachineConfig::new(4).faults(FaultPlan::chaos(0xC0FFEE));
/// # let _ = cfg;
/// ```
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Seed for all fault decisions.
    pub seed: u64,
    /// Probability a transmission is dropped on the wire (recovered by
    /// retransmission).
    pub drop: f64,
    /// Probability a transmission is delivered twice (suppressed by
    /// receiver dedup).
    pub duplicate: f64,
    /// Probability a transmission is parked for a few ticks.
    pub delay: f64,
    /// Tick range a delayed transmission is parked for (half-open).
    pub delay_ticks: std::ops::Range<u64>,
    /// Probability a transmission is held until later traffic on its lane
    /// overtakes it.
    pub reorder: f64,
    /// Maximum ticks a reordered transmission may be held when no later
    /// traffic arrives to overtake it.
    pub reorder_window: u64,
    /// Probability an acknowledgement is dropped (forces a retransmission
    /// of an already-delivered envelope, exercising dedup).
    pub ack_drop: f64,
    /// Retransmission attempts after which the fault layer stops faulting
    /// a packet and delivers it unconditionally (liveness backstop).
    pub max_attempts: u32,
    /// Initial retransmission timeout in ticks.
    pub backoff_base: u64,
    /// Upper bound on the (exponentially growing) retransmission timeout.
    pub backoff_cap: u64,
    /// Fraction of each retransmission timeout randomized away (`0.0` =
    /// fully deterministic ticks, the default; `0.5` = timeouts uniform in
    /// `[rto/2, rto]`). Jitter decorrelates the retransmit timers of
    /// packets stranded together by one event — a reconnecting TCP peer,
    /// a healed partition — so recovery does not arrive as a synchronized
    /// burst. The perturbation is a pure hash of the packet coordinates
    /// (same determinism discipline as the fault decisions), so sim-mode
    /// runs stay bit-identical for a fixed plan.
    pub backoff_jitter: f64,
}

impl FaultPlan {
    /// A plan that injects nothing (all probabilities zero) — the
    /// reliability layer still runs, which is useful for measuring its
    /// overhead in isolation.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            drop: 0.0,
            duplicate: 0.0,
            delay: 0.0,
            delay_ticks: 1..8,
            reorder: 0.0,
            reorder_window: 8,
            ack_drop: 0.0,
            max_attempts: 12,
            backoff_base: 2,
            backoff_cap: 64,
            backoff_jitter: 0.0,
        }
    }

    /// The plan installed automatically when a lossy wire backend (TCP)
    /// is selected and no explicit plan is configured: injects nothing —
    /// real sockets supply the faults — with retransmission timing tuned
    /// for wall-clock ticks (`Reliability::set_wall_clock`, 1 tick =
    /// 100µs): first retransmit after ~20ms, capped at 200ms, 25% jitter
    /// so a reconnect window's worth of stranded packets does not
    /// retransmit as one synchronized burst. The base sits well above
    /// loopback RTT because a rank mid-send-burst acks nothing until its
    /// next pump — a shorter base turns every large epoch body into a
    /// spurious retransmit storm.
    pub fn wire_default() -> Self {
        FaultPlan::new(0xD1A7_ED00)
            .backoff_base(200)
            .backoff_cap(2000)
            .backoff_jitter(0.25)
    }

    /// The standard chaos preset: every fault class enabled at moderate
    /// probability. What the chaos property tests and experiment E13 run.
    pub fn chaos(seed: u64) -> Self {
        FaultPlan::new(seed)
            .drop(0.15)
            .duplicate(0.10)
            .delay(0.10, 1..8)
            .reorder(0.10)
            .ack_drop(0.05)
    }

    /// Set the drop probability.
    pub fn drop(mut self, p: f64) -> Self {
        self.drop = p;
        self
    }

    /// Set the duplication probability.
    pub fn duplicate(mut self, p: f64) -> Self {
        self.duplicate = p;
        self
    }

    /// Set the delay probability and the tick range to park for.
    pub fn delay(mut self, p: f64, ticks: std::ops::Range<u64>) -> Self {
        self.delay = p;
        self.delay_ticks = ticks;
        self
    }

    /// Set the reorder probability.
    pub fn reorder(mut self, p: f64) -> Self {
        self.reorder = p;
        self
    }

    /// Set the ack-drop probability.
    pub fn ack_drop(mut self, p: f64) -> Self {
        self.ack_drop = p;
        self
    }

    /// Bound the retransmission attempts after which delivery is forced.
    pub fn max_attempts(mut self, n: u32) -> Self {
        self.max_attempts = n;
        self
    }

    /// Set the initial retransmission timeout, in ticks.
    pub fn backoff_base(mut self, ticks: u64) -> Self {
        self.backoff_base = ticks;
        self
    }

    /// Cap the exponentially growing retransmission timeout, in ticks.
    pub fn backoff_cap(mut self, ticks: u64) -> Self {
        self.backoff_cap = ticks;
        self
    }

    /// Set the retransmission-timeout jitter fraction (see
    /// [`FaultPlan::backoff_jitter`]); `0.0` keeps the deterministic
    /// default.
    pub fn backoff_jitter(mut self, fraction: f64) -> Self {
        self.backoff_jitter = fraction;
        self
    }

    pub(crate) fn validate(&self) {
        for (name, p) in [
            ("drop", self.drop),
            ("duplicate", self.duplicate),
            ("delay", self.delay),
            ("reorder", self.reorder),
            ("ack_drop", self.ack_drop),
        ] {
            assert!(
                (0.0..=1.0).contains(&p),
                "fault probability {name} out of [0, 1]: {p}"
            );
        }
        assert!(
            self.delay_ticks.start < self.delay_ticks.end,
            "delay tick range must be non-empty"
        );
        assert!(self.max_attempts >= 1, "max_attempts must be at least 1");
        assert!(self.backoff_base >= 1, "backoff_base must be at least 1");
        assert!(
            self.backoff_cap >= self.backoff_base,
            "backoff_cap must be at least backoff_base"
        );
        assert!(
            (0.0..1.0).contains(&self.backoff_jitter),
            "backoff_jitter must be in [0, 1): {}",
            self.backoff_jitter
        );
    }

    /// Stateless decision hash: splitmix64 over the packet coordinates.
    fn mix(
        &self,
        salt: u64,
        from: RankId,
        to: RankId,
        type_id: u32,
        seq: u64,
        attempt: u32,
    ) -> u64 {
        let mut z = self
            .seed
            .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add((from as u64) << 48)
            .wrapping_add((to as u64) << 32)
            .wrapping_add((type_id as u64) << 16)
            .wrapping_add(seq.wrapping_mul(0xD134_2543_DE82_EF95))
            .wrapping_add(attempt as u64);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn chance(h: u64, p: f64) -> bool {
        ((h >> 11) as f64) * (1.0 / (1u64 << 53) as f64) < p
    }

    /// What to do with transmission `attempt` of packet `seq`.
    fn action(
        &self,
        from: RankId,
        to: RankId,
        type_id: u32,
        seq: u64,
        attempt: u32,
    ) -> FaultAction {
        let draw =
            |salt: u64, p: f64| Self::chance(self.mix(salt, from, to, type_id, seq, attempt), p);
        if draw(1, self.drop) {
            return FaultAction::Drop;
        }
        // Retransmissions only re-roll the drop: re-delaying or
        // re-duplicating a recovery packet adds nothing the first attempt
        // did not already exercise, and keeps recovery prompt.
        if attempt > 0 {
            return FaultAction::Deliver;
        }
        if draw(2, self.delay) {
            let span = self.delay_ticks.end - self.delay_ticks.start;
            let d = self.delay_ticks.start + self.mix(3, from, to, type_id, seq, attempt) % span;
            return FaultAction::Delay(d.max(1));
        }
        if draw(4, self.reorder) {
            return FaultAction::Reorder;
        }
        if draw(5, self.duplicate) {
            return FaultAction::Duplicate;
        }
        FaultAction::Deliver
    }

    fn drops_ack(&self, from: RankId, to: RankId, type_id: u32, seq: u64) -> bool {
        Self::chance(self.mix(6, from, to, type_id, seq, 0), self.ack_drop)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FaultAction {
    Deliver,
    Drop,
    Delay(u64),
    Reorder,
    Duplicate,
}

/// A packet the fault layer is holding or about to (re)transmit.
struct Flight {
    from: RankId,
    to: RankId,
    type_id: u32,
    seq: u64,
    env: Envelope,
}

/// Sender-side copy of an unacknowledged packet.
struct PendingPkt {
    env: Envelope,
    type_id: u32,
    attempts: u32,
    retransmit_at: u64,
}

/// Receiver-side per-lane dedup state: `seq <= contiguous` all seen, plus
/// an out-of-order overflow set.
#[derive(Default)]
struct LaneDedup {
    contiguous: u64,
    seen: BTreeSet<u64>,
}

impl LaneDedup {
    /// Mark `seq` seen; returns `false` when it already was (a duplicate).
    fn accept(&mut self, seq: u64) -> bool {
        if seq <= self.contiguous || !self.seen.insert(seq) {
            return false;
        }
        while self.seen.remove(&(self.contiguous + 1)) {
            self.contiguous += 1;
        }
        true
    }
}

/// The reliability layer: installed in [`Shared`] when
/// [`MachineConfig::faults`](crate::MachineConfig::faults) is set, or
/// automatically (with an inject-nothing plan) when a lossy wire
/// transport is selected (see [`crate::transport`]). Sits between
/// [`crate::machine::deliver`] and the per-rank inbox channels.
/// One fault-layer tick in virtual nanoseconds when the machine runs
/// under the discrete-event simulator. The pump-count clock is wrong
/// there: the cooperative scheduler pumps every rank once per wake round
/// and once per drain, so ticks race far ahead of the modeled ack
/// round-trip (itself 2×latency of virtual time) and every envelope's
/// timeout expires long before its ack can possibly arrive —
/// retransmission storms on a perfectly healthy network. Deriving ticks
/// from the virtual clock keeps every tick-denominated knob (backoff,
/// delay windows, reorder deadlines) proportional to the modeled link
/// timescale instead. 1 tick = 1µs ≈ the default link latency and the
/// scheduler's idle quantum.
const SIM_TICK_NS: u64 = 1_000;

/// One fault-layer tick in wall-clock nanoseconds when the machine runs
/// over a wire transport (TCP or shared-memory rings; see
/// [`Reliability::set_wall_clock`]). The pump-count clock is wrong there
/// for the same reason it is wrong in sim mode, in the other direction:
/// idle loops pump on every wake — each delivery or ack rings them, and
/// `RECV_TIMEOUT` (100µs) is only the ceiling — while a TCP ack round
/// trip takes real time, so pump counts race far ahead of the physical
/// RTT and every in-flight envelope times out before its ack can arrive
/// — a retransmit storm on a healthy loopback connection. 1 tick = 100µs
/// = the idle-wait ceiling, so tick-denominated knobs keep roughly their
/// threaded meaning.
const WALL_TICK_NS: u64 = 100_000;

pub(crate) struct Reliability {
    plan: FaultPlan,
    nranks: usize,
    /// Logical clock: advanced by every pump, from any rank. Unused in
    /// sim mode (see `sim_clock`).
    tick: AtomicU64,
    /// Virtual clock mirror when running under the simulator; ticks are
    /// then `clock / SIM_TICK_NS` rather than pump counts.
    sim_clock: Option<std::sync::Arc<AtomicU64>>,
    /// Wall-clock epoch when a wire transport is installed; ticks are
    /// then `elapsed / WALL_TICK_NS` so retransmission timers measure
    /// real time against real network round trips.
    wall_base: Option<std::time::Instant>,
    /// Tie-breaker for the parked-flight queue.
    uid: AtomicU64,
    /// Next sequence number per directed lane (`from * nranks + to`).
    next_seq: Vec<AtomicU64>,
    /// Unacknowledged packets per lane, keyed by sequence number.
    pending: Vec<Mutex<BTreeMap<u64, PendingPkt>>>,
    /// Receiver-side dedup per lane.
    dedup: Vec<Mutex<LaneDedup>>,
    /// Parked transmissions (delays and injected duplicates), keyed by
    /// release tick.
    parked: Mutex<BTreeMap<(u64, u64), Flight>>,
    /// Per-lane reordered packets: released behind the lane's next
    /// transmission, or at the deadline tick, whichever comes first.
    held: Vec<Mutex<Vec<(u64, Flight)>>>,
}

impl Reliability {
    pub(crate) fn new(
        plan: FaultPlan,
        nranks: usize,
        sim_clock: Option<std::sync::Arc<AtomicU64>>,
    ) -> Self {
        let lanes = nranks * nranks;
        Reliability {
            plan,
            nranks,
            tick: AtomicU64::new(0),
            sim_clock,
            wall_base: None,
            uid: AtomicU64::new(0),
            next_seq: (0..lanes).map(|_| AtomicU64::new(0)).collect(),
            pending: (0..lanes).map(|_| Mutex::new(BTreeMap::new())).collect(),
            dedup: (0..lanes)
                .map(|_| Mutex::new(LaneDedup::default()))
                .collect(),
            parked: Mutex::new(BTreeMap::new()),
            held: (0..lanes).map(|_| Mutex::new(Vec::new())).collect(),
        }
    }

    /// Switch the layer's logical clock from pump counts to wall time
    /// (called once, before the machine starts, when a wire transport is
    /// installed — see [`WALL_TICK_NS`]).
    pub(crate) fn set_wall_clock(&mut self) {
        self.wall_base = Some(std::time::Instant::now());
    }

    fn lane(&self, from: RankId, to: RankId) -> usize {
        from * self.nranks + to
    }

    fn now(&self) -> u64 {
        match (&self.sim_clock, &self.wall_base) {
            (Some(clock), _) => clock.load(SeqCst) / SIM_TICK_NS,
            (None, Some(base)) => base.elapsed().as_nanos() as u64 / WALL_TICK_NS,
            (None, None) => self.tick.load(SeqCst),
        }
    }

    /// Retransmission timeout for transmission `attempts` of a packet:
    /// capped exponential backoff, optionally shortened by a deterministic
    /// per-(lane, seq, attempt) jitter (see [`FaultPlan::backoff_jitter`]).
    fn rto(&self, from: RankId, to: RankId, type_id: u32, seq: u64, attempts: u32) -> u64 {
        let base = (self.plan.backoff_base << attempts.min(16)).min(self.plan.backoff_cap);
        if self.plan.backoff_jitter == 0.0 {
            return base;
        }
        let h = self.plan.mix(7, from, to, type_id, seq, attempts);
        let u = ((h >> 11) as f64) * (1.0 / (1u64 << 53) as f64);
        let cut = (base as f64 * self.plan.backoff_jitter * u) as u64;
        (base - cut).max(1)
    }

    /// Accept an outgoing envelope from the coalescing layer: sequence it,
    /// stash a retransmit copy, and put transmission attempt 0 through the
    /// fault plan.
    pub(crate) fn send(&self, shared: &Shared, from: RankId, to: RankId, env: Envelope) {
        let lane = self.lane(from, to);
        let seq = self.next_seq[lane].fetch_add(1, SeqCst) + 1;
        let type_id = env.type_id;
        self.pending[lane].lock().insert(
            seq,
            PendingPkt {
                env: env.duplicate(),
                type_id,
                attempts: 0,
                retransmit_at: self.now() + self.rto(from, to, type_id, seq, 0),
            },
        );
        let flight = Flight {
            from,
            to,
            type_id,
            seq,
            env,
        };
        match self.plan.action(from, to, type_id, seq, 0) {
            FaultAction::Deliver => self.transmit(shared, flight),
            FaultAction::Drop => {
                // Lost on the wire; the pending copy will be retransmitted
                // once its timeout expires.
                MachineStats::bump(&shared.stats.injected_drops, 1);
                shared
                    .flight
                    .aux_push(FlightKind::FaultInjected, lane_word(from, to), 0);
            }
            FaultAction::Delay(ticks) => {
                MachineStats::bump(&shared.stats.injected_delays, 1);
                shared
                    .flight
                    .aux_push(FlightKind::FaultInjected, lane_word(from, to), 2);
                self.park(self.now() + ticks, flight);
            }
            FaultAction::Reorder => {
                MachineStats::bump(&shared.stats.injected_reorders, 1);
                shared
                    .flight
                    .aux_push(FlightKind::FaultInjected, lane_word(from, to), 3);
                self.held[lane]
                    .lock()
                    .push((self.now() + self.plan.reorder_window, flight));
            }
            FaultAction::Duplicate => {
                MachineStats::bump(&shared.stats.injected_dups, 1);
                shared
                    .flight
                    .aux_push(FlightKind::FaultInjected, lane_word(from, to), 1);
                let dup = Flight {
                    from,
                    to,
                    type_id,
                    seq,
                    env: flight.env.duplicate(),
                };
                self.park(self.now() + 1, dup);
                self.transmit(shared, flight);
            }
        }
    }

    /// Snapshot of every unacknowledged lane (post-mortem input): how many
    /// packets await acknowledgement and how old the oldest one is. The
    /// locks make this exact only when the machine is quiescent or frozen,
    /// which is the only time it is read.
    pub(crate) fn backlog(&self) -> Vec<LaneBacklog> {
        let mut out = Vec::new();
        for (lane, pending) in self.pending.iter().enumerate() {
            let p = pending.lock();
            let Some((&oldest_seq, pkt)) = p.iter().next() else {
                continue;
            };
            out.push(LaneBacklog {
                from: lane / self.nranks,
                to: lane % self.nranks,
                pending: p.len(),
                oldest_seq,
                attempts: pkt.attempts,
            });
        }
        out
    }

    fn park(&self, release_at: u64, flight: Flight) {
        let uid = self.uid.fetch_add(1, SeqCst);
        self.parked.lock().insert((release_at, uid), flight);
    }

    /// Put a packet on the wire, releasing any reordered packets it
    /// overtakes on its lane.
    fn transmit(&self, shared: &Shared, flight: Flight) {
        let lane = self.lane(flight.from, flight.to);
        self.transmit_raw(shared, flight);
        let overtaken = std::mem::take(&mut *self.held[lane].lock());
        for (_, held) in overtaken {
            self.transmit_raw(shared, held);
        }
    }

    fn transmit_raw(&self, shared: &Shared, flight: Flight) {
        shared.push_packet(
            flight.to,
            Packet {
                from: flight.from,
                seq: flight.seq,
                env: flight.env,
            },
        );
    }

    /// Receiver side: mark `(from → to, seq)` delivered. Returns `false`
    /// for a duplicate, which the caller must suppress.
    pub(crate) fn accept(&self, from: RankId, to: RankId, seq: u64) -> bool {
        self.dedup[self.lane(from, to)].lock().accept(seq)
    }

    /// Receiver side: acknowledge `(from → to, seq)` back to the sender
    /// (subject to the plan's ack-drop probability).
    pub(crate) fn ack(&self, shared: &Shared, from: RankId, to: RankId, type_id: u32, seq: u64) {
        if self.plan.drops_ack(from, to, type_id, seq) {
            MachineStats::bump(&shared.stats.injected_drops, 1);
            shared
                .flight
                .aux_push(FlightKind::FaultInjected, lane_word(from, to), 4);
            return;
        }
        shared.push_ack(from, Ack { from, to, seq });
    }

    /// Advance the fault layer on behalf of `rank`: process incoming acks,
    /// release parked and expired-held packets, and retransmit timed-out
    /// pending packets on this rank's outgoing lanes. Called from every
    /// idle/termination loop; liveness of recovery depends on it.
    pub(crate) fn pump(&self, shared: &Shared, rank: RankId) {
        let now = match (&self.sim_clock, &self.wall_base) {
            (Some(clock), _) => clock.load(SeqCst) / SIM_TICK_NS,
            (None, Some(base)) => base.elapsed().as_nanos() as u64 / WALL_TICK_NS,
            (None, None) => self.tick.fetch_add(1, SeqCst) + 1,
        };
        // 1. Acks addressed to this rank retire pending copies.
        while let Some(ack) = shared.pop_ack(rank) {
            let lane = self.lane(ack.from, ack.to);
            if self.pending[lane].lock().remove(&ack.seq).is_some() {
                MachineStats::bump(&shared.stats.acks, 1);
            }
        }
        // 2. Release parked packets that have come due (any rank's —
        //    the parked queue is global so one live rank suffices).
        loop {
            let flight = {
                let mut parked = self.parked.lock();
                match parked.first_key_value() {
                    Some(((t, _), _)) if *t <= now => parked.pop_first().map(|(_, f)| f),
                    _ => None,
                }
            };
            match flight {
                Some(f) => self.transmit(shared, f),
                None => break,
            }
        }
        // 3. Reordered packets nothing overtook within the window.
        for to in 0..self.nranks {
            let lane = self.lane(rank, to);
            let due: Vec<(u64, Flight)> = {
                let mut held = self.held[lane].lock();
                let (due, keep) = std::mem::take(&mut *held)
                    .into_iter()
                    .partition(|(deadline, _)| *deadline <= now);
                *held = keep;
                due
            };
            for (_, f) in due {
                self.transmit_raw(shared, f);
            }
        }
        // 4. Retransmit timed-out pending packets on this rank's lanes.
        for to in 0..self.nranks {
            let lane = self.lane(rank, to);
            let due: Vec<(u64, Flight, u32)> = {
                let mut pending = self.pending[lane].lock();
                pending
                    .iter_mut()
                    .filter(|(_, p)| p.retransmit_at <= now)
                    .map(|(seq, p)| {
                        p.attempts += 1;
                        p.retransmit_at = now + self.rto(rank, to, p.type_id, *seq, p.attempts);
                        (
                            *seq,
                            Flight {
                                from: rank,
                                to,
                                type_id: p.type_id,
                                seq: *seq,
                                env: p.env.duplicate(),
                            },
                            p.attempts,
                        )
                    })
                    .collect()
            };
            for (seq, flight, attempts) in due {
                let forced = attempts >= self.plan.max_attempts;
                let action = if forced {
                    FaultAction::Deliver
                } else {
                    self.plan.action(rank, to, flight.type_id, seq, attempts)
                };
                match action {
                    FaultAction::Drop => {
                        MachineStats::bump(&shared.stats.injected_drops, 1);
                    }
                    // Retransmissions are never delayed/reordered/duplicated
                    // (see FaultPlan::action); anything else is a delivery.
                    _ => {
                        MachineStats::bump(&shared.stats.retransmits, 1);
                        shared
                            .flight
                            .aux_push(FlightKind::Retransmit, lane_word(rank, to), seq);
                        if let Some(rec) = &shared.obs {
                            rec.record(SpanRecord {
                                kind: SpanKind::Transport,
                                name: "retransmit",
                                rank,
                                thread: 0,
                                start_ns: rec.now_ns(),
                                dur_ns: 0,
                                epoch: shared.current_epoch_hint(),
                                arg0: lane as u64,
                                arg1: seq,
                                flow_in: 0,
                                flow_out: 0,
                            });
                        }
                        self.transmit_raw(shared, flight);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic() {
        let plan = FaultPlan::chaos(7);
        for seq in 0..200u64 {
            let a = plan.action(0, 1, 2, seq, 0);
            let b = plan.action(0, 1, 2, seq, 0);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn seeds_change_decisions() {
        let a = FaultPlan::chaos(1);
        let b = FaultPlan::chaos(2);
        let differs = (0..500u64).any(|seq| a.action(0, 1, 0, seq, 0) != b.action(0, 1, 0, seq, 0));
        assert!(differs, "different seeds should perturb differently");
    }

    #[test]
    fn zero_plan_always_delivers() {
        let plan = FaultPlan::new(3);
        for seq in 0..500u64 {
            assert_eq!(plan.action(0, 1, 0, seq, 0), FaultAction::Deliver);
            assert!(!plan.drops_ack(0, 1, 0, seq));
        }
    }

    #[test]
    fn probabilities_roughly_respected() {
        let plan = FaultPlan::new(11).drop(0.5);
        let drops = (0..10_000u64)
            .filter(|&seq| plan.action(0, 1, 0, seq, 0) == FaultAction::Drop)
            .count();
        assert!((4000..6000).contains(&drops), "drops={drops}");
    }

    #[test]
    fn retransmits_only_reroll_drop() {
        let plan = FaultPlan::new(13)
            .delay(1.0, 2..3)
            .duplicate(1.0)
            .reorder(1.0);
        // Attempt 0 takes a non-drop fault; attempt 1+ must deliver.
        assert_ne!(plan.action(0, 1, 0, 1, 0), FaultAction::Deliver);
        assert_eq!(plan.action(0, 1, 0, 1, 1), FaultAction::Deliver);
    }

    #[test]
    fn dedup_accepts_once_in_any_order() {
        let mut d = LaneDedup::default();
        assert!(d.accept(2));
        assert!(d.accept(1));
        assert!(!d.accept(1), "duplicate");
        assert!(!d.accept(2), "duplicate after compaction");
        assert_eq!(d.contiguous, 2);
        assert!(d.seen.is_empty(), "compacted");
        assert!(d.accept(5));
        assert!(d.accept(3));
        assert!(d.accept(4));
        assert_eq!(d.contiguous, 5);
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn invalid_probability_rejected() {
        FaultPlan::new(0).drop(1.5).validate();
    }

    #[test]
    #[should_panic(expected = "backoff_jitter")]
    fn invalid_jitter_rejected() {
        FaultPlan::new(0).backoff_jitter(1.0).validate();
    }

    #[test]
    fn zero_jitter_keeps_rto_exact() {
        // The default plan must reproduce the historical deterministic
        // backoff bit-for-bit (sim-mode replay digests depend on it).
        let t = Reliability::new(FaultPlan::new(9), 2, None);
        for attempts in 0..20u32 {
            let expected = (2u64 << attempts.min(16)).min(64);
            for seq in 1..4u64 {
                assert_eq!(t.rto(0, 1, 0, seq, attempts), expected);
            }
        }
    }

    #[test]
    fn jitter_spreads_rtos_within_bounds() {
        let t = Reliability::new(
            FaultPlan::new(9).backoff_jitter(0.5).backoff_cap(1 << 20),
            2,
            None,
        );
        let attempts = 8u32;
        let base = 2u64 << attempts;
        let rtos: Vec<u64> = (1..200u64)
            .map(|seq| t.rto(0, 1, 0, seq, attempts))
            .collect();
        assert!(rtos.iter().all(|&r| r >= base / 2 && r <= base), "{rtos:?}");
        let distinct: std::collections::BTreeSet<u64> = rtos.iter().copied().collect();
        assert!(distinct.len() > 20, "jitter should decorrelate timers");
        // Deterministic: same coordinates, same timeout.
        assert_eq!(t.rto(0, 1, 0, 7, attempts), t.rto(0, 1, 0, 7, attempts));
    }

    #[test]
    fn jittered_rto_never_zero() {
        let t = Reliability::new(
            FaultPlan::new(1).backoff_base(1).backoff_jitter(0.99),
            2,
            None,
        );
        for seq in 1..500u64 {
            assert!(t.rto(0, 1, 0, seq, 0) >= 1);
        }
    }

    #[test]
    fn chaos_preset_validates() {
        FaultPlan::chaos(0).validate();
    }
}
