//! `dgp-am::obs` — structured observability for the active-message runtime.
//!
//! The paper's entire evaluation (Figs. 5–6) is phrased in *messages per
//! phase*: coalescing and the dominance cache are judged by how they bend
//! per-epoch message counts. This module provides the machinery to
//! extract exactly that evidence from a run:
//!
//! * **[`Recorder`]** — the machine's one event store. Every runtime
//!   thread owns a fixed-capacity ring of [`SpanRecord`]s (static names,
//!   no heap allocation per record) that it alone writes, lock-free; one
//!   [`SpanKind`] vocabulary covers epoch, handler and termination spans,
//!   envelope ships, handler and epoch entries, traced sends,
//!   retransmissions and injected faults. These are always on
//!   ([`MachineConfig::events_per_thread`](crate::MachineConfig::events_per_thread)
//!   events per thread, newest kept) and feed post-mortems
//!   ([`crate::trace`]) and the simulator's flight digest.
//!   [`MachineConfig::profile`](crate::MachineConfig::profile) adds the
//!   per-message engine and strategy spans, user spans, and two
//!   log-bucketed [`LogHistogram`]s (handler latency, envelope sizes).
//! * **[`EpochProfile`]** — the runtime automatically snapshots
//!   machine-wide [`StatsSnapshot`] deltas at every epoch boundary
//!   (duration, messages sent/handled, coalescing factor, cache-hit
//!   rate). Always on: the cost is one
//!   snapshot per *epoch*, not per message. Read them back with
//!   [`AmCtx::epoch_profiles`](crate::AmCtx::epoch_profiles). Epoch
//!   boundaries are termination-detection instants, at which every
//!   thread's batched counter deltas have been published (INTERNALS.md
//!   §9), so the sealed deltas are exact despite the batching.
//! * **Exporters** — [`chrome_trace_json`] renders the recorded spans as
//!   Chrome trace-event JSON (loadable in `chrome://tracing` / Perfetto,
//!   one track per rank), and [`MetricsReport::to_json`] emits a
//!   machine-readable metrics document the experiment harness consumes to
//!   regenerate the Fig. 5–6 message-count tables.
//!
//! ## Overhead discipline
//!
//! A push is a clock read and a dozen relaxed stores into memory only
//! the pushing thread writes; the per-message profiling spans cost one
//! branch when `profile` is off (`AmCtx::span` returns `None`). Span
//! names are `&'static str`; numeric payloads ride in two untyped `u64`
//! argument slots. Epoch profiling, which is per-epoch rather than
//! per-message, stays on unconditionally.

use std::alloc::Layout;
use std::sync::atomic::{
    fence, AtomicBool, AtomicPtr, AtomicU64, AtomicUsize,
    Ordering::{Acquire, Relaxed, Release},
};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::config::MachineConfig;
use crate::machine::{AmCtx, RankId};
use crate::stats::{StatsSnapshot, TypeStatSnapshot};

/// Number of buckets in a [`LogHistogram`] (one per possible bit length of
/// a `u64` value, plus a zero bucket).
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A log2-bucketed histogram of `u64` samples (latencies in nanoseconds,
/// envelope batch sizes). Bucket `i > 0` holds samples whose bit length is
/// `i`, i.e. values in `[2^(i-1), 2^i)`; bucket 0 holds zeros. Updates are
/// relaxed atomics — safe to bump from any thread, exact when quiescent.
#[derive(Debug)]
pub struct LogHistogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram {
            buckets: [0u64; HISTOGRAM_BUCKETS].map(AtomicU64::new),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

impl LogHistogram {
    /// Record one sample.
    pub fn record(&self, value: u64) {
        let b = (64 - value.leading_zeros()) as usize;
        self.buckets[b].fetch_add(1, Relaxed);
        self.count.fetch_add(1, Relaxed);
        self.sum.fetch_add(value, Relaxed);
    }

    /// Point-in-time copy (exact when quiescent).
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Relaxed)),
            count: self.count.load(Relaxed),
            sum: self.sum.load(Relaxed),
        }
    }
}

/// A point-in-time copy of a [`LogHistogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts; bucket `i > 0` covers `[2^(i-1), 2^i)`.
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Total samples recorded.
    pub count: u64,
    /// Sum of all samples (for exact means).
    pub sum: u64,
}

impl HistogramSnapshot {
    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound of the bucket containing quantile `q` in `[0, 1]`
    /// (0 when empty; `NaN` is treated as 0). A log-bucketed
    /// approximation: correct to within 2x. `q = 0.0` returns the
    /// smallest occupied bucket's bound, `q = 1.0` the largest's — the
    /// sample extremes at bucket resolution, never a bound no sample
    /// reached.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = if q.is_nan() { 0.0 } else { q.clamp(0.0, 1.0) };
        // Rank of the sample we want, 1-based. Clamp keeps q=0.0 at the
        // first sample and rounds q=1.0 down from any float overshoot.
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= target {
                // Bucket 64 holds values with bit length 64, whose upper
                // bound saturates at u64::MAX (1 << 64 would overflow).
                return match i {
                    0 => 0,
                    64 => u64::MAX,
                    _ => 1u64 << i,
                };
            }
        }
        u64::MAX
    }
}

/// What a [`SpanRecord`] records. The first nine kinds are durations;
/// the rest are instants (`dur_ns == 0`). The runtime's own kinds —
/// epoch, handler and termination spans and every instant kind — are
/// always on; `Gather`, `Eval`, `Expand`, `Strategy` and `Custom` spans
/// are recorded only under [`MachineConfig::profile`](crate::MachineConfig::profile).
/// Maps to the Chrome trace-event `cat` field through
/// [`category`](Self::category).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum SpanKind {
    /// One full epoch on one rank, entry barrier to exit barrier
    /// (`arg0` = epoch generation).
    Epoch,
    /// One envelope's worth of handler executions (`arg0` = type id,
    /// `arg1` = messages in the envelope, `flow_in` = the envelope's
    /// causal event id, 0 if untraced).
    Handler,
    /// The termination-detection tail of an epoch (`arg0` = epoch
    /// generation, `arg1` = detection rounds this rank ran).
    Termination,
    /// A `Gather` plan step executed by the pattern engine (`arg0` =
    /// action id).
    Gather,
    /// An `Evaluate`/`EvalModify`/`ModifyGroup` plan step (`arg0` =
    /// action id).
    Eval,
    /// Generator expansion of one action instance (`arg0` = action id,
    /// `arg1` = items generated).
    Expand,
    /// A strategy-level phase (per-bucket drain, per-round sweep; `arg0`
    /// is strategy-defined, e.g. the bucket index).
    Strategy,
    /// Transport-backend activity from a thread that owns no ring: a TCP
    /// lane reconnect (`arg0` = peer rank, `arg1` = attempt).
    Transport,
    /// User-defined span recorded through
    /// [`AmCtx::span`](crate::AmCtx::span).
    Custom,
    /// A traced logical message entered a coalescing buffer (`arg0` =
    /// root id, `arg1` = destination rank). Untraced sends record nothing.
    Send,
    /// An envelope shipped toward a destination inbox (`arg0` =
    /// `(type_id << 32) | count`, `arg1` = destination rank; traced
    /// envelopes carry their event id in `flow_out` and their causal
    /// parent's in `flow_in`).
    Ship,
    /// A handler batch began executing (the fields of the
    /// [`Handler`](Self::Handler) span it opens). A post-mortem of a
    /// handler panic ends with one of these and no matching span.
    HandlerEnter,
    /// A rank passed an epoch entry barrier (`arg0` = epoch generation).
    EpochEnter,
    /// The reliability layer retransmitted an unacked packet (`arg0` =
    /// `(from << 32) | to`, `arg1` = sequence number).
    Retransmit,
    /// The fault layer injected a perturbation (`arg0` = `(from << 32) |
    /// to`, `arg1` = fault class: 0 drop, 1 dup, 2 delay, 3 reorder, 4
    /// ack-drop).
    Fault,
}

/// Every [`SpanKind`], indexed by its discriminant.
const KINDS: [SpanKind; 15] = [
    SpanKind::Epoch,
    SpanKind::Handler,
    SpanKind::Termination,
    SpanKind::Gather,
    SpanKind::Eval,
    SpanKind::Expand,
    SpanKind::Strategy,
    SpanKind::Transport,
    SpanKind::Custom,
    SpanKind::Send,
    SpanKind::Ship,
    SpanKind::HandlerEnter,
    SpanKind::EpochEnter,
    SpanKind::Retransmit,
    SpanKind::Fault,
];

impl SpanKind {
    /// The Chrome trace-event category string.
    pub fn category(self) -> &'static str {
        match self {
            SpanKind::Epoch | SpanKind::EpochEnter => "epoch",
            SpanKind::Handler | SpanKind::HandlerEnter => "handler",
            SpanKind::Termination => "termination",
            SpanKind::Gather | SpanKind::Eval | SpanKind::Expand => "engine",
            SpanKind::Strategy => "strategy",
            SpanKind::Send | SpanKind::Ship => "send",
            SpanKind::Transport | SpanKind::Retransmit | SpanKind::Fault => "transport",
            SpanKind::Custom => "custom",
        }
    }
}

/// One recorded event: fixed-size, allocation-free. The one record of
/// the runtime — post-mortem timelines, the simulator's flight digest,
/// Chrome export and [`Recorder::all_spans`] all read it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// What happened (see [`SpanKind`] for the argument layout).
    pub kind: SpanKind,
    /// Static display name.
    pub name: &'static str,
    /// Rank the event happened on.
    pub rank: RankId,
    /// Thread within the rank (0 = main).
    pub thread: usize,
    /// Start time in nanoseconds on the machine's clock: wall time since
    /// the machine started, or virtual time under
    /// [`Machine::run_sim`](crate::Machine::run_sim).
    pub start_ns: u64,
    /// Duration in nanoseconds (0 for instants).
    pub dur_ns: u64,
    /// Machine epoch generation the event belongs to (1-indexed;
    /// diagnostic, not exact at epoch boundaries).
    pub epoch: u64,
    /// First untyped argument (kind-specific; see [`SpanKind`]).
    pub arg0: u64,
    /// Second untyped argument (kind-specific).
    pub arg1: u64,
    /// Causal-trace event id this event descends from (0 = none): for a
    /// handler, the traced envelope it ran; for a ship, the envelope
    /// whose handler shipped it. A handler's `flow_in` is the terminus of
    /// a Chrome flow arrow (see [`crate::trace`]).
    pub flow_in: u64,
    /// Causal-trace event id this event produces (0 = none): the traced
    /// envelope a ship sent. The origin of a Chrome flow arrow.
    pub flow_out: u64,
}

/// One ring slot: a [`SpanRecord`] in relaxed atomics, guarded by a
/// stamp so a reader can tell a slot the writer is overwriting.
#[derive(Default)]
struct Slot {
    /// Push ordinal (1-based) of the record held here; 0 while the owner
    /// writes it.
    stamp: AtomicU64,
    /// `(rank << 32) | thread`.
    at: AtomicU64,
    name: AtomicPtr<u8>,
    /// `(name.len() << 8) | kind`.
    len_kind: AtomicU64,
    start_ns: AtomicU64,
    dur_ns: AtomicU64,
    epoch: AtomicU64,
    arg0: AtomicU64,
    arg1: AtomicU64,
    flow_in: AtomicU64,
    flow_out: AtomicU64,
}

impl Slot {
    fn write(&self, ordinal: u64, r: &SpanRecord) {
        self.stamp.store(0, Relaxed);
        // Orders the cleared stamp before every field store below: a
        // reader that sees any of them sees the stamp move off its
        // ordinal (INTERNALS §10.2).
        fence(Release);
        self.at
            .store(((r.rank as u64) << 32) | r.thread as u64, Relaxed);
        self.name.store(r.name.as_ptr().cast_mut(), Relaxed);
        self.len_kind
            .store(((r.name.len() as u64) << 8) | r.kind as u64, Relaxed);
        self.start_ns.store(r.start_ns, Relaxed);
        self.dur_ns.store(r.dur_ns, Relaxed);
        self.epoch.store(r.epoch, Relaxed);
        self.arg0.store(r.arg0, Relaxed);
        self.arg1.store(r.arg1, Relaxed);
        self.flow_in.store(r.flow_in, Relaxed);
        self.flow_out.store(r.flow_out, Relaxed);
        self.stamp.store(ordinal, Release);
    }

    /// The record of push `ordinal`, or `None` when the slot no longer
    /// (or not yet) holds it whole.
    fn read(&self, ordinal: u64) -> Option<SpanRecord> {
        if self.stamp.load(Acquire) != ordinal {
            return None;
        }
        let at = self.at.load(Relaxed);
        let name = self.name.load(Relaxed);
        let len_kind = self.len_kind.load(Relaxed);
        let rec = SpanRecord {
            kind: SpanKind::Custom,
            name: "",
            rank: (at >> 32) as RankId,
            thread: (at & 0xffff_ffff) as usize,
            start_ns: self.start_ns.load(Relaxed),
            dur_ns: self.dur_ns.load(Relaxed),
            epoch: self.epoch.load(Relaxed),
            arg0: self.arg0.load(Relaxed),
            arg1: self.arg1.load(Relaxed),
            flow_in: self.flow_in.load(Relaxed),
            flow_out: self.flow_out.load(Relaxed),
        };
        fence(Acquire);
        if self.stamp.load(Relaxed) != ordinal {
            return None;
        }
        let kind = *KINDS.get((len_kind & 0xff) as usize)?;
        // SAFETY: the stamp read `ordinal` before the loads above and
        // again after them, so every load returned what push `ordinal`
        // stored (`write` clears the stamp, behind a release fence,
        // before it overwrites any field). `name` and the length are thus
        // the two halves of the one `&'static str` that push stored.
        let name = unsafe {
            std::str::from_utf8_unchecked(std::slice::from_raw_parts(
                name,
                (len_kind >> 8) as usize,
            ))
        };
        Some(SpanRecord { kind, name, ..rec })
    }
}

/// `n` slots of zeroed memory. Zeroed allocation leaves untouched pages
/// unmapped, so a large ring costs memory and time only as far as it
/// fills: initialised slot by slot, the 2^21-slot rings of a profiled
/// benchmark run made its `am-storm` repetition about 5x slower.
fn zeroed_slots(n: usize) -> Box<[Slot]> {
    if n == 0 {
        return Box::new([]);
    }
    let layout = Layout::array::<Slot>(n).expect("ring capacity overflows the address space");
    // SAFETY: every field of `Slot` is an atomic integer or pointer, for
    // which all-zero bytes are a valid value (0 or null), so zeroed
    // memory of `layout` is `n` initialised slots; `Box<[Slot]>` frees it
    // with the same layout.
    unsafe {
        let p = std::alloc::alloc_zeroed(layout).cast::<Slot>();
        if p.is_null() {
            std::alloc::handle_alloc_error(layout);
        }
        Box::from_raw(std::ptr::slice_from_raw_parts_mut(p, n))
    }
}

/// A fixed-capacity ring with one writer. Newest records overwrite the
/// oldest; `count` counts every push so truncation is visible.
#[derive(Default)]
#[repr(align(64))]
struct Ring {
    /// Records ever pushed, published with a `Release` store after the
    /// slot is written.
    count: AtomicU64,
    /// Slot the next push writes (read and written by the writer only).
    head: AtomicUsize,
    /// Allocated on the first push.
    slots: OnceLock<Box<[Slot]>>,
}

impl Ring {
    /// Append `r`. Callers guarantee one writer at a time.
    #[inline]
    fn push(&self, capacity: usize, r: &SpanRecord) {
        let slots = self.slots.get_or_init(|| zeroed_slots(capacity));
        let head = self.head.load(Relaxed);
        let ordinal = self.count.load(Relaxed) + 1;
        slots[head].write(ordinal, r);
        self.head
            .store(if head + 1 == capacity { 0 } else { head + 1 }, Relaxed);
        self.count.store(ordinal, Release);
    }

    /// Append the retained records, oldest first, skipping any slot the
    /// writer is overwriting.
    fn read_into(&self, capacity: usize, out: &mut Vec<SpanRecord>) {
        let Some(slots) = self.slots.get() else {
            return;
        };
        let count = self.count.load(Acquire);
        let first = count.saturating_sub(capacity as u64) + 1;
        out.extend(
            (first..=count)
                .filter_map(|ord| slots[((ord - 1) % capacity as u64) as usize].read(ord)),
        );
    }

    fn dropped(&self, capacity: usize) -> u64 {
        self.count.load(Acquire).saturating_sub(capacity as u64)
    }
}

/// The machine's one event store: a ring per runtime thread, a side
/// ring for threads that own none, one clock, and (under
/// [`MachineConfig::profile`](crate::MachineConfig::profile)) two
/// log-bucketed histograms.
///
/// Each rank or worker thread is the only writer of its ring and pushes
/// with relaxed stores and a `Release` count — no lock, no
/// read-modify-write. Readers copy rings in place from any thread: exact
/// once the writers are quiescent (between epochs, after the run); a slot
/// overwritten mid-read is skipped (INTERNALS §10.2). Transport-backend
/// threads (TCP writers) own no ring and push into the side ring under a
/// lock.
pub struct Recorder {
    /// Wall-clock base of [`now_ns`](Self::now_ns).
    base: Instant,
    /// Simulation mode: timestamps read this virtual clock (nanoseconds
    /// of logical time, mirrored by the scheduler) instead, making
    /// recorded timelines bit-reproducible across runs.
    virtual_clock: Option<Arc<AtomicU64>>,
    capacity: usize,
    threads_per_rank: usize,
    profile: bool,
    frozen: AtomicBool,
    /// `rank * threads_per_rank + thread`.
    rings: Box<[Ring]>,
    side: Mutex<Ring>,
    /// Per-envelope handler-execution latency, nanoseconds (profiling
    /// only).
    pub handler_ns: LogHistogram,
    /// Messages per delivered envelope (the realized coalescing factor
    /// distribution, not just its mean; profiling only).
    pub envelope_sizes: LogHistogram,
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("capacity", &self.capacity)
            .field("recorded", &self.recorded())
            .field("dropped", &self.dropped())
            .finish_non_exhaustive()
    }
}

impl Recorder {
    pub(crate) fn new(cfg: &MachineConfig, virtual_clock: Option<Arc<AtomicU64>>) -> Recorder {
        Recorder {
            base: Instant::now(),
            virtual_clock,
            capacity: cfg.events_per_thread(),
            threads_per_rank: cfg.threads_per_rank,
            profile: cfg.profile,
            frozen: AtomicBool::new(false),
            rings: (0..cfg.ranks * cfg.threads_per_rank)
                .map(|_| Ring::default())
                .collect(),
            side: Mutex::new(Ring::default()),
            handler_ns: LogHistogram::default(),
            envelope_sizes: LogHistogram::default(),
        }
    }

    /// Nanoseconds on the machine's clock: since the recorder was created,
    /// or virtual time under the simulator. Every record shares it, so
    /// cross-thread ordering is meaningful.
    pub fn now_ns(&self) -> u64 {
        match &self.virtual_clock {
            Some(clock) => clock.load(Relaxed),
            None => self.base.elapsed().as_nanos() as u64,
        }
    }

    /// The time to stamp a record with, or `None` when nothing wants one:
    /// no ring capacity, or the rings frozen, and profiling off.
    #[inline]
    pub(crate) fn clock(&self) -> Option<u64> {
        let recording = self.capacity > 0 && !self.frozen.load(Relaxed);
        (recording || self.profile).then(|| self.now_ns())
    }

    /// Append `r` to the ring of thread (`r.rank`, `r.thread`). Only that
    /// thread may call this: it is the ring's one writer.
    #[inline]
    pub(crate) fn push(&self, r: &SpanRecord) {
        if self.capacity == 0 || self.frozen.load(Relaxed) {
            return;
        }
        self.rings[r.rank * self.threads_per_rank + r.thread].push(self.capacity, r);
    }

    /// Append `r` to the side ring, for threads that own no ring.
    pub(crate) fn push_side(&self, r: &SpanRecord) {
        if self.capacity == 0 || self.frozen.load(Relaxed) {
            return;
        }
        self.side.lock().push(self.capacity, r);
    }

    /// Stop recording (called by the first failure, so the rings keep the
    /// events leading up to it rather than the teardown).
    pub(crate) fn freeze(&self) {
        self.frozen.store(true, Relaxed);
    }

    /// Records ever pushed, across every ring.
    pub fn recorded(&self) -> u64 {
        let side = self.side.lock().count.load(Acquire);
        self.rings
            .iter()
            .map(|r| r.count.load(Acquire))
            .sum::<u64>()
            + side
    }

    /// Records overwritten across every ring: [`recorded`](Self::recorded)
    /// minus what the rings retain.
    pub fn dropped(&self) -> u64 {
        let side = self.side.lock().dropped(self.capacity);
        self.rings
            .iter()
            .map(|r| r.dropped(self.capacity))
            .sum::<u64>()
            + side
    }

    /// Records overwritten in one rank's rings.
    pub fn dropped_of(&self, rank: RankId) -> u64 {
        self.rank_rings(rank)
            .iter()
            .map(|r| r.dropped(self.capacity))
            .sum()
    }

    fn rank_rings(&self, rank: RankId) -> &[Ring] {
        let t = self.threads_per_rank;
        &self.rings[rank * t..(rank + 1) * t]
    }

    /// Copy of one rank's retained records: each of its threads' rings in
    /// thread order, oldest first.
    pub fn spans_of(&self, rank: RankId) -> Vec<SpanRecord> {
        let mut out = Vec::new();
        for ring in self.rank_rings(rank) {
            ring.read_into(self.capacity, &mut out);
        }
        out
    }

    /// Copy of every retained record: every rank's rings in rank order
    /// (as [`spans_of`](Self::spans_of)), then the side ring.
    pub fn all_spans(&self) -> Vec<SpanRecord> {
        let mut out = Vec::new();
        for ring in self.rings.iter() {
            ring.read_into(self.capacity, &mut out);
        }
        self.side.lock().read_into(self.capacity, &mut out);
        out
    }
}

/// RAII guard for an in-flight span: records itself into its thread's
/// ring on drop. Obtained from [`AmCtx::span`] (`None` unless profiling);
/// the runtime's own epoch and termination spans use one too. Borrows the
/// thread's [`AmCtx`], so it cannot leave the thread that owns the ring.
pub struct SpanGuard<'a> {
    ctx: &'a AmCtx,
    /// `None` when the recorder wanted no timestamp at the start.
    rec: Option<SpanRecord>,
}

impl<'a> SpanGuard<'a> {
    /// Start a span of epoch generation `epoch`.
    pub(crate) fn begin(
        ctx: &'a AmCtx,
        kind: SpanKind,
        name: &'static str,
        epoch: u64,
    ) -> SpanGuard<'a> {
        let rec = ctx.clock().map(|now| SpanRecord {
            epoch,
            ..ctx.stamp(kind, name, now)
        });
        SpanGuard { ctx, rec }
    }

    /// Attach the two untyped argument slots (builder style).
    pub fn args(mut self, arg0: u64, arg1: u64) -> Self {
        if let Some(r) = &mut self.rec {
            r.arg0 = arg0;
            r.arg1 = arg1;
        }
        self
    }

    /// Set the second argument slot after construction (e.g. an item
    /// count known only at the end of the span).
    pub fn set_arg1(&mut self, arg1: u64) {
        if let Some(r) = &mut self.rec {
            r.arg1 = arg1;
        }
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let (Some(r), Some(now)) = (self.rec.as_mut(), self.ctx.clock()) {
            r.dur_ns = now.saturating_sub(r.start_ns);
            self.ctx.record(r);
        }
    }
}

// ---------------------------------------------------------------------
// Epoch profiles
// ---------------------------------------------------------------------

/// Machine-wide counter deltas and wall time for one completed epoch —
/// the per-phase unit the paper's Figs. 5–6 argue from.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochProfile {
    /// 1-indexed epoch generation.
    pub epoch: u64,
    /// Wall-clock time from the first rank entering the epoch to the
    /// profile being sealed after the exit barrier.
    pub duration: Duration,
    /// Counter-wise difference of the machine-wide [`StatsSnapshot`]
    /// over this epoch (its `epochs` field counts per-rank completions,
    /// i.e. equals the rank count for a normal epoch).
    pub delta: StatsSnapshot,
    /// Algorithm-level convergence gauges published during the epoch via
    /// [`AmCtx::gauge`](crate::AmCtx::gauge) (frontier sizes, relaxation
    /// counts, bucket indices — whatever the strategy layer observes).
    /// Values published under the same name by any rank are summed; the
    /// list is sorted by name so it is identical on every rank.
    pub gauges: Vec<(&'static str, f64)>,
}

impl EpochProfile {
    /// Messages per envelope achieved within this epoch.
    pub fn coalescing_factor(&self) -> f64 {
        self.delta.coalescing_factor()
    }

    /// Fraction of dominance-cache lookups that eliminated a send
    /// (0 when nothing sent through the cache this epoch).
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.delta.cache_hits + self.delta.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.delta.cache_hits as f64 / total as f64
        }
    }

    /// Value of the named convergence gauge, if any rank published it
    /// during this epoch.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }
}

/// Always-on per-epoch snapshotting state, owned by the machine. The
/// runtime calls [`enter`](Self::enter) once the epoch's entry barrier has
/// released and [`seal`](Self::seal) after the exit barrier; the first
/// rank through each callsite does the actual work, so exactly one profile
/// is produced per machine epoch.
#[derive(Debug, Default)]
pub(crate) struct EpochProfiler {
    state: Mutex<ProfilerState>,
}

#[derive(Debug, Default)]
struct ProfilerState {
    last: StatsSnapshot,
    start: Option<Instant>,
    /// Gauges published since the last seal, summed by name and drained
    /// into the next sealed profile. Kept sorted by name (insertion via
    /// binary search) so sealed gauge lists are deterministic.
    pending_gauges: Vec<(&'static str, f64)>,
    profiles: Vec<EpochProfile>,
}

impl EpochProfiler {
    /// Mark epoch entry; the first rank to arrive stamps the start time.
    pub(crate) fn enter(&self) {
        let mut st = self.state.lock();
        if st.start.is_none() {
            st.start = Some(Instant::now());
        }
    }

    /// Publish a convergence gauge into the epoch currently being
    /// profiled. Values under the same name are summed (each rank
    /// contributes its share of e.g. the frontier); the sum is drained
    /// into the next sealed [`EpochProfile`].
    pub(crate) fn gauge(&self, name: &'static str, value: f64) {
        let mut st = self.state.lock();
        match st.pending_gauges.binary_search_by(|(n, _)| n.cmp(&name)) {
            Ok(i) => st.pending_gauges[i].1 += value,
            Err(i) => st.pending_gauges.insert(i, (name, value)),
        }
    }

    /// Seal the profile for generation `gen` (1-indexed). Called by every
    /// rank after the exit barrier; the first caller records the delta
    /// against the previous boundary snapshot, the rest observe the
    /// profile already present and return. `current` is the machine-wide
    /// cumulative snapshot taken under quiescence.
    pub(crate) fn seal(&self, gen: u64, current: StatsSnapshot) {
        let mut st = self.state.lock();
        if st.profiles.len() as u64 >= gen {
            return;
        }
        let duration = st.start.take().map(|t| t.elapsed()).unwrap_or_default();
        let delta = current.since(&st.last);
        st.last = current;
        let gauges = std::mem::take(&mut st.pending_gauges);
        st.profiles.push(EpochProfile {
            epoch: gen,
            duration,
            delta,
            gauges,
        });
    }

    pub(crate) fn profiles(&self) -> Vec<EpochProfile> {
        self.state.lock().profiles.clone()
    }
}

// ---------------------------------------------------------------------
// Exporters
// ---------------------------------------------------------------------

fn json_escape(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

fn fmt_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.6}")
    } else {
        // JSON has no Infinity/NaN; null is the conventional stand-in.
        "null".to_string()
    }
}

/// Render recorded spans as Chrome trace-event JSON (the
/// `{"traceEvents": [...]}` object form). Loadable in `chrome://tracing`
/// and Perfetto. Each rank becomes one process (`pid` = rank, labelled
/// `"rank N"`), each thread within the rank one timeline row, so a run
/// reads as one track per rank. Every record is a complete (`"X"`) event
/// with microsecond timestamps (instants have zero duration); span
/// arguments land in `args`.
///
/// Traced envelopes additionally emit *flow events*: a ship with
/// [`flow_out`](SpanRecord::flow_out) starts a flow (`ph:"s"`) and the
/// handler span with that id as [`flow_in`](SpanRecord::flow_in)
/// terminates it (`ph:"f"`, `bp:"e"`) — so a sampled cascade renders as
/// arrows stitching handler spans across ranks into one connected causal
/// chain. A flow is emitted only when both of its ends are present: a
/// ring that kept a handler but overwrote its ship yields no dangling
/// terminus.
pub fn chrome_trace_json(spans: &[SpanRecord], ranks: usize) -> String {
    use std::collections::HashSet;
    let shipped: HashSet<u64> = spans
        .iter()
        .filter(|s| s.flow_out != 0)
        .map(|s| s.flow_out)
        .collect();
    let handled: HashSet<u64> = spans
        .iter()
        .filter(|s| s.kind == SpanKind::Handler && s.flow_in != 0)
        .map(|s| s.flow_in)
        .collect();
    let mut out = String::with_capacity(128 + spans.len() * 160);
    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    let push_event = |out: &mut String, first: &mut bool, body: String| {
        if !*first {
            out.push(',');
        }
        *first = false;
        out.push_str(&body);
    };
    for rank in 0..ranks {
        push_event(
            &mut out,
            &mut first,
            format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{rank},\"tid\":0,\
                 \"args\":{{\"name\":\"rank {rank}\"}}}}"
            ),
        );
    }
    for s in spans {
        let mut name = String::new();
        json_escape(s.name, &mut name);
        let mut cat = String::new();
        json_escape(s.kind.category(), &mut cat);
        push_event(
            &mut out,
            &mut first,
            format!(
                "{{\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"X\",\
                 \"ts\":{ts:.3},\"dur\":{dur:.3},\"pid\":{pid},\"tid\":{tid},\
                 \"args\":{{\"epoch\":{epoch},\"arg0\":{a0},\"arg1\":{a1}}}}}",
                ts = s.start_ns as f64 / 1e3,
                dur = s.dur_ns as f64 / 1e3,
                pid = s.rank,
                tid = s.thread,
                epoch = s.epoch,
                a0 = s.arg0,
                a1 = s.arg1,
            ),
        );
        // Flow events bind to the enclosing slice by timestamp: the start
        // ("s") sits at the ship, the terminus ("f" with bp:"e" = bind to
        // enclosing slice) at the consuming handler span's start.
        let flow = if s.flow_out != 0 && handled.contains(&s.flow_out) {
            Some(("s", "", s.flow_out))
        } else if s.kind == SpanKind::Handler && s.flow_in != 0 && shipped.contains(&s.flow_in) {
            Some(("f", ",\"bp\":\"e\"", s.flow_in))
        } else {
            None
        };
        if let Some((ph, bp, id)) = flow {
            push_event(
                &mut out,
                &mut first,
                format!(
                    "{{\"name\":\"causal\",\"cat\":\"trace\",\"ph\":\"{ph}\"{bp},\
                     \"id\":{id},\"ts\":{ts:.3},\"pid\":{pid},\"tid\":{tid}}}",
                    ts = s.start_ns as f64 / 1e3,
                    pid = s.rank,
                    tid = s.thread,
                ),
            );
        }
    }
    out.push_str("]}");
    out
}

fn stats_json(s: &StatsSnapshot, out: &mut String) {
    out.push_str(&format!(
        "{{\"messages_sent\":{},\"envelopes_sent\":{},\"messages_handled\":{},\
         \"cache_hits\":{},\"cache_misses\":{},\"epochs\":{},\
         \"idle_timeouts\":{},\"trace_roots\":{},\"injected_drops\":{},\
         \"injected_dups\":{},\"injected_delays\":{},\"injected_reorders\":{},\
         \"retransmits\":{},\"acks\":{},\"dups_suppressed\":{},\
         \"transport_bytes_sent\":{},\"transport_bytes_received\":{},\
         \"transport_frames_sent\":{},\"transport_frames_received\":{},\
         \"transport_reconnects\":{},\"transport_handshake_failures\":{},\
         \"transport_frame_errors\":{},\"transport_backpressure_stalls\":{}}}",
        s.messages_sent,
        s.envelopes_sent,
        s.messages_handled,
        s.cache_hits,
        s.cache_misses,
        s.epochs,
        s.idle_timeouts,
        s.trace_roots,
        s.injected_drops,
        s.injected_dups,
        s.injected_delays,
        s.injected_reorders,
        s.retransmits,
        s.acks,
        s.dups_suppressed,
        s.transport_bytes_sent,
        s.transport_bytes_received,
        s.transport_frames_sent,
        s.transport_frames_received,
        s.transport_reconnects,
        s.transport_handshake_failures,
        s.transport_frame_errors,
        s.transport_backpressure_stalls,
    ));
}

/// A machine-readable metrics document: cumulative counters, per-type
/// counters, and the per-epoch profiles. Built with
/// [`AmCtx::metrics_report`](crate::AmCtx::metrics_report); serialized
/// with [`to_json`](Self::to_json) for the experiment harness (the Fig.
/// 5–6 message-count tables are derived from `epoch_profiles`).
#[derive(Debug, Clone)]
pub struct MetricsReport {
    /// Number of ranks in the machine.
    pub ranks: usize,
    /// Machine-wide cumulative counters at report time.
    pub cumulative: StatsSnapshot,
    /// Per-message-type counters, in registration order (identical on
    /// every rank by the collective-registration discipline).
    pub per_type: Vec<TypeStatSnapshot>,
    /// One profile per completed epoch, in order.
    pub epoch_profiles: Vec<EpochProfile>,
    /// Records each rank's rings overwrote ([`Recorder::dropped_of`]);
    /// empty when profiling is off. A nonzero entry means that rank's
    /// trace is truncated to its newest events.
    pub spans_dropped: Vec<u64>,
}

impl MetricsReport {
    /// Serialize as a stable, dependency-free JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(512 + self.epoch_profiles.len() * 256);
        out.push_str(&format!("{{\"ranks\":{},\"cumulative\":", self.ranks));
        stats_json(&self.cumulative, &mut out);
        out.push_str(",\"per_type\":[");
        for (i, t) in self.per_type.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let mut name = String::new();
            json_escape(&t.name, &mut name);
            out.push_str(&format!(
                "{{\"name\":\"{name}\",\"sent\":{},\"handled\":{}}}",
                t.sent, t.handled
            ));
        }
        out.push_str("],\"spans_dropped\":[");
        for (i, d) in self.spans_dropped.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&d.to_string());
        }
        out.push_str("],\"epochs\":[");
        for (i, p) in self.epoch_profiles.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"epoch\":{},\"duration_us\":{:.3},\"coalescing_factor\":{},\
                 \"cache_hit_rate\":{},\"gauges\":{{",
                p.epoch,
                p.duration.as_secs_f64() * 1e6,
                fmt_f64(p.coalescing_factor()),
                fmt_f64(p.cache_hit_rate()),
            ));
            for (j, (name, value)) in p.gauges.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let mut n = String::new();
                json_escape(name, &mut n);
                out.push_str(&format!("\"{n}\":{}", fmt_f64(*value)));
            }
            out.push_str("},\"delta\":");
            stats_json(&p.delta, &mut out);
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_bit_length() {
        let h = LogHistogram::default();
        h.record(0);
        h.record(1);
        h.record(2);
        h.record(3);
        h.record(1024);
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 1030);
        assert_eq!(s.buckets[0], 1); // zero
        assert_eq!(s.buckets[1], 1); // [1,2)
        assert_eq!(s.buckets[2], 2); // [2,4)
        assert_eq!(s.buckets[11], 1); // [1024,2048)
        assert_eq!(s.quantile(0.0), 0);
        assert!(s.quantile(1.0) >= 1024);
        assert!((s.mean() - 206.0).abs() < 1e-9);
    }

    #[test]
    fn empty_histogram_is_zero() {
        let s = LogHistogram::default().snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.quantile(0.5), 0);
        assert_eq!(s.quantile(0.0), 0);
        assert_eq!(s.quantile(1.0), 0);
    }

    #[test]
    fn quantile_edges_stay_within_occupied_buckets() {
        let h = LogHistogram::default();
        h.record(5); // bucket 3: [4, 8)
        h.record(100); // bucket 7: [64, 128)
        let s = h.snapshot();
        // q=0.0 is the smallest sample's bucket bound, not 0.
        assert_eq!(s.quantile(0.0), 8);
        // q=1.0 is the largest sample's bucket bound, not u64::MAX.
        assert_eq!(s.quantile(1.0), 128);
        // Out-of-range and NaN inputs clamp instead of panicking.
        assert_eq!(s.quantile(-3.0), 8);
        assert_eq!(s.quantile(7.0), 128);
        assert_eq!(s.quantile(f64::NAN), 8);
    }

    #[test]
    fn quantile_handles_top_bucket_without_overflow() {
        let h = LogHistogram::default();
        h.record(u64::MAX); // bit length 64: the 1u64 << 64 overflow trap
        let s = h.snapshot();
        assert_eq!(s.quantile(0.5), u64::MAX);
        assert_eq!(s.quantile(1.0), u64::MAX);
    }

    fn rec(start_ns: u64) -> SpanRecord {
        SpanRecord {
            kind: SpanKind::Custom,
            name: "x",
            rank: 0,
            thread: 0,
            start_ns,
            dur_ns: 1,
            epoch: 0,
            arg0: 0,
            arg1: 0,
            flow_in: 0,
            flow_out: 0,
        }
    }

    fn recorder(cfg: MachineConfig) -> Recorder {
        Recorder::new(&cfg, None)
    }

    #[test]
    fn ring_keeps_newest_and_counts_drops() {
        let r = recorder(MachineConfig::new(1).flight(3));
        for i in 0..7 {
            r.push(&rec(i));
        }
        assert_eq!(r.recorded(), 7);
        assert_eq!(r.dropped(), 4);
        assert_eq!(r.dropped_of(0), 4);
        let kept: Vec<u64> = r.spans_of(0).iter().map(|s| s.start_ns).collect();
        assert_eq!(kept, vec![4, 5, 6], "newest three, oldest first");
    }

    #[test]
    fn ring_below_capacity_is_in_order_and_round_trips() {
        let r = recorder(MachineConfig::new(2).threads_per_rank(2).flight(8));
        let mut sent = rec(0);
        sent.kind = SpanKind::Ship;
        sent.name = "env.ship";
        sent.rank = 1;
        sent.thread = 1;
        sent.flow_in = 7;
        sent.flow_out = 9;
        r.push(&sent);
        for i in 1..3 {
            r.push(&SpanRecord {
                start_ns: i,
                ..sent
            });
        }
        assert!(r.spans_of(0).is_empty());
        let kept = r.spans_of(1);
        assert_eq!(kept.len(), 3);
        assert_eq!(kept[0], sent, "every field survives the ring");
        let ts: Vec<u64> = kept.iter().map(|s| s.start_ns).collect();
        assert_eq!(ts, vec![0, 1, 2]);
        assert_eq!(r.dropped(), 0);
    }

    #[test]
    fn ring_capacity_zero_records_nothing() {
        let r = recorder(MachineConfig::new(1).flight(0));
        r.push(&rec(1));
        r.push_side(&rec(2));
        assert_eq!(r.recorded(), 0);
        assert!(r.all_spans().is_empty());
        assert_eq!(r.clock(), None, "no ring and no profile: no clock read");
    }

    #[test]
    fn default_capacity_follows_profile() {
        assert_eq!(MachineConfig::new(1).events_per_thread(), 1024);
        assert_eq!(
            MachineConfig::new(1).profile(true).events_per_thread(),
            1 << 16
        );
        let c = MachineConfig::new(1).profile(true).flight(5);
        assert_eq!(c.events_per_thread(), 5);
        assert_eq!(c.profile_capacity(6).events_per_thread(), 6);
    }

    #[test]
    fn freeze_discards_later_pushes() {
        let r = recorder(MachineConfig::new(1).flight(8));
        r.push(&rec(1));
        r.push_side(&rec(2));
        r.freeze();
        r.push(&rec(3));
        r.push_side(&rec(4));
        let kept: Vec<u64> = r.all_spans().iter().map(|s| s.start_ns).collect();
        assert_eq!(kept, vec![1, 2], "rings first, then the side ring");
    }

    #[test]
    fn epoch_profiler_seals_once_per_generation() {
        let p = EpochProfiler::default();
        p.enter();
        let mut s = StatsSnapshot {
            messages_sent: 10,
            ..Default::default()
        };
        p.seal(1, s);
        p.seal(1, s); // second rank through: no duplicate
        p.enter();
        s.messages_sent = 25;
        p.seal(2, s);
        let profiles = p.profiles();
        assert_eq!(profiles.len(), 2);
        assert_eq!(profiles[0].delta.messages_sent, 10);
        assert_eq!(profiles[1].delta.messages_sent, 15);
    }

    #[test]
    fn chrome_trace_shape() {
        let spans = [SpanRecord {
            kind: SpanKind::Epoch,
            name: "epoch",
            rank: 1,
            thread: 0,
            start_ns: 2_500,
            dur_ns: 1_000,
            epoch: 1,
            arg0: 7,
            arg1: 0,
            flow_in: 0,
            flow_out: 0,
        }];
        let json = chrome_trace_json(&spans, 2);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"name\":\"rank 0\""));
        assert!(json.contains("\"name\":\"rank 1\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ts\":2.500"));
        assert!(json.contains("\"cat\":\"epoch\""));
    }

    #[test]
    fn chrome_trace_emits_flow_events_for_traced_spans() {
        let mut ship = SpanRecord {
            kind: SpanKind::Ship,
            name: "env.ship",
            rank: 0,
            thread: 0,
            start_ns: 1_000,
            dur_ns: 0,
            epoch: 1,
            arg0: 0,
            arg1: 0,
            flow_in: 0,
            flow_out: 42,
        };
        let handler = SpanRecord {
            kind: SpanKind::Handler,
            name: "handler",
            rank: 1,
            thread: 0,
            start_ns: 2_000,
            dur_ns: 500,
            epoch: 1,
            arg0: 0,
            arg1: 0,
            flow_in: 42,
            flow_out: 0,
        };
        let json = chrome_trace_json(&[ship, handler], 2);
        assert!(
            json.contains("\"ph\":\"s\",\"id\":42"),
            "flow start missing: {json}"
        );
        assert!(
            json.contains("\"ph\":\"f\",\"bp\":\"e\",\"id\":42"),
            "flow terminus missing: {json}"
        );
        // Untraced spans emit no flow events.
        ship.flow_out = 0;
        let plain = chrome_trace_json(&[ship], 1);
        assert!(!plain.contains("\"ph\":\"s\""), "{plain}");
        assert!(!plain.contains("\"ph\":\"f\""), "{plain}");
        // A flow with one end overwritten is not emitted at all.
        let orphan = chrome_trace_json(&[handler], 2);
        assert!(!orphan.contains("\"ph\":\"f\""), "{orphan}");
        ship.flow_out = 42;
        let unconsumed = chrome_trace_json(&[ship], 2);
        assert!(!unconsumed.contains("\"ph\":\"s\""), "{unconsumed}");
    }

    #[test]
    fn epoch_gauges_sum_by_name_and_drain_at_seal() {
        let p = EpochProfiler::default();
        p.enter();
        p.gauge("frontier", 10.0);
        p.gauge("frontier", 7.0);
        p.gauge("bucket", 3.0);
        p.seal(1, StatsSnapshot::default());
        p.enter();
        p.seal(2, StatsSnapshot::default());
        let profiles = p.profiles();
        assert_eq!(profiles[0].gauge("frontier"), Some(17.0));
        assert_eq!(profiles[0].gauge("bucket"), Some(3.0));
        assert_eq!(profiles[0].gauge("missing"), None);
        // Drained: the second epoch starts clean.
        assert!(profiles[1].gauges.is_empty());
        // Sorted by name for cross-rank determinism.
        assert_eq!(profiles[0].gauges[0].0, "bucket");
        assert_eq!(profiles[0].gauges[1].0, "frontier");
    }

    #[test]
    fn metrics_json_is_wellformed_enough() {
        let report = MetricsReport {
            ranks: 2,
            cumulative: StatsSnapshot {
                messages_sent: 4,
                envelopes_sent: 2,
                ..Default::default()
            },
            per_type: vec![TypeStatSnapshot {
                name: "a\"b".into(),
                sent: 4,
                handled: 4,
            }],
            epoch_profiles: vec![EpochProfile {
                epoch: 1,
                duration: Duration::from_micros(5),
                delta: StatsSnapshot {
                    messages_sent: 4,
                    envelopes_sent: 2,
                    ..Default::default()
                },
                gauges: vec![("frontier", 17.0)],
            }],
            spans_dropped: vec![0, 3],
        };
        let json = report.to_json();
        assert!(json.contains("\"ranks\":2"));
        assert!(json.contains("a\\\"b"), "{json}");
        assert!(json.contains("\"coalescing_factor\":2.000000"));
        assert!(json.contains("\"spans_dropped\":[0,3]"), "{json}");
        assert!(json.contains("\"frontier\":17.000000"), "{json}");
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "balanced braces: {json}"
        );
    }
}
