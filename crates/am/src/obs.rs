//! `dgp-am::obs` — structured observability for the active-message runtime.
//!
//! The paper's entire evaluation (Figs. 5–6) is phrased in *messages per
//! phase*: coalescing and the dominance cache are judged by how they bend
//! per-epoch message counts. This module provides the machinery to
//! extract exactly that evidence from a run:
//!
//! * **[`Recorder`]** — a per-rank, allocation-light span/event recorder.
//!   Spans are fixed-size [`SpanRecord`] values (static names, no heap
//!   allocation per record) pushed into per-rank vectors behind one mutex
//!   per rank; latency and batch-size distributions go into log-bucketed
//!   [`LogHistogram`]s updated with relaxed atomics. The recorder only
//!   exists when profiling is enabled via
//!   [`MachineConfig::profile`](crate::MachineConfig::profile) — the
//!   disabled hot path is a single branch on an `Option`.
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
//! Every instrumentation site follows the same rule: the disabled path may
//! cost at most one well-predicted branch (`Option::is_none` on the
//! recorder) and the enabled path may not allocate per event. Span names
//! are `&'static str`; numeric span payloads ride in two untyped `u64`
//! argument slots. Epoch profiling, which is per-epoch rather than
//! per-message, stays on unconditionally.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::machine::RankId;
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

/// The category of a recorded span (maps to the Chrome trace-event `cat`
/// field, so tracks can be filtered by layer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// One full epoch on one rank (entry barrier to exit barrier).
    Epoch,
    /// One envelope's worth of handler executions (`arg0` = type id,
    /// `arg1` = messages in the envelope).
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
    /// Reliability-layer activity under fault injection (`arg0` = lane
    /// index, `arg1` = sequence number; see [`crate::fault`]).
    Transport,
    /// User-defined span recorded through
    /// [`AmCtx::span`](crate::AmCtx::span).
    Custom,
}

impl SpanKind {
    /// The Chrome trace-event category string.
    pub fn category(self) -> &'static str {
        match self {
            SpanKind::Epoch => "epoch",
            SpanKind::Handler => "handler",
            SpanKind::Termination => "termination",
            SpanKind::Gather => "engine",
            SpanKind::Eval => "engine",
            SpanKind::Expand => "engine",
            SpanKind::Strategy => "strategy",
            SpanKind::Transport => "transport",
            SpanKind::Custom => "custom",
        }
    }
}

/// One recorded span: fixed-size, allocation-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// Layer/category of the span.
    pub kind: SpanKind,
    /// Static display name.
    pub name: &'static str,
    /// Rank the span ran on.
    pub rank: RankId,
    /// Thread within the rank (0 = main).
    pub thread: usize,
    /// Start time in nanoseconds since the machine's recorder was created.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Machine epoch generation the span belongs to (0 before the first
    /// epoch completes; diagnostic, not exact at epoch boundaries).
    pub epoch: u64,
    /// First untyped argument (kind-specific; see [`SpanKind`]).
    pub arg0: u64,
    /// Second untyped argument (kind-specific).
    pub arg1: u64,
    /// Causal-trace event id this span *consumes* (0 = none): the traced
    /// envelope whose delivery started this span. Exported as a Chrome
    /// flow-event terminus so cross-rank cascades render as connected
    /// arrows (see [`crate::trace`]).
    pub flow_in: u64,
    /// Causal-trace event id this span *produces* (0 = none): the traced
    /// envelope this span shipped. Exported as a Chrome flow-event origin.
    pub flow_out: u64,
}

/// The span/event recorder: one bounded span buffer per rank plus
/// machine-wide log-bucketed histograms. Created by the machine when
/// [`MachineConfig::profile`](crate::MachineConfig::profile) is enabled.
#[derive(Debug)]
pub struct Recorder {
    base: Instant,
    max_spans_per_rank: usize,
    spans: Vec<Mutex<Vec<SpanRecord>>>,
    dropped: Vec<AtomicU64>,
    /// Per-envelope handler-execution latency, nanoseconds.
    pub handler_ns: LogHistogram,
    /// Messages per delivered envelope (the realized coalescing factor
    /// distribution, not just its mean).
    pub envelope_sizes: LogHistogram,
}

impl Recorder {
    pub(crate) fn new(ranks: usize, max_spans_per_rank: usize) -> Recorder {
        Recorder {
            base: Instant::now(),
            max_spans_per_rank,
            spans: (0..ranks).map(|_| Mutex::new(Vec::new())).collect(),
            dropped: (0..ranks).map(|_| AtomicU64::new(0)).collect(),
            handler_ns: LogHistogram::default(),
            envelope_sizes: LogHistogram::default(),
        }
    }

    /// Nanoseconds since the recorder was created (the machine's time
    /// base; all spans share it, so cross-rank ordering is meaningful).
    pub fn now_ns(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    /// Append a finished span to its rank's buffer. Drops (and counts)
    /// the span when the rank's buffer is at capacity.
    pub fn record(&self, span: SpanRecord) {
        let mut buf = self.spans[span.rank].lock();
        if buf.len() >= self.max_spans_per_rank {
            self.dropped[span.rank].fetch_add(1, Relaxed);
            return;
        }
        buf.push(span);
    }

    /// Spans dropped across all ranks because a buffer was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.iter().map(|d| d.load(Relaxed)).sum()
    }

    /// Spans dropped on one rank because its buffer was full.
    pub fn dropped_of(&self, rank: RankId) -> u64 {
        self.dropped[rank].load(Relaxed)
    }

    /// Copy of one rank's spans, in recording order.
    pub fn spans_of(&self, rank: RankId) -> Vec<SpanRecord> {
        self.spans[rank].lock().clone()
    }

    /// Copy of every rank's spans, concatenated in rank order.
    pub fn all_spans(&self) -> Vec<SpanRecord> {
        let mut out = Vec::new();
        for s in &self.spans {
            out.extend_from_slice(&s.lock());
        }
        out
    }
}

/// RAII guard for an in-flight span: records itself into the [`Recorder`]
/// on drop. Obtained from [`AmCtx::span`](crate::AmCtx::span); `None` when
/// profiling is disabled, so the hot path pays one branch.
pub struct SpanGuard<'a> {
    rec: &'a Recorder,
    kind: SpanKind,
    name: &'static str,
    rank: RankId,
    thread: usize,
    epoch: u64,
    arg0: u64,
    arg1: u64,
    flow_in: u64,
    t0: Instant,
    start_ns: u64,
}

impl<'a> SpanGuard<'a> {
    pub(crate) fn begin(
        rec: &'a Recorder,
        kind: SpanKind,
        name: &'static str,
        rank: RankId,
        thread: usize,
        epoch: u64,
    ) -> SpanGuard<'a> {
        SpanGuard {
            rec,
            kind,
            name,
            rank,
            thread,
            epoch,
            arg0: 0,
            arg1: 0,
            flow_in: 0,
            t0: Instant::now(),
            start_ns: rec.now_ns(),
        }
    }

    /// Attach the two untyped argument slots (builder style).
    pub fn args(mut self, arg0: u64, arg1: u64) -> Self {
        self.arg0 = arg0;
        self.arg1 = arg1;
        self
    }

    /// Set the second argument slot after construction (e.g. an item
    /// count known only at the end of the span).
    pub fn set_arg1(&mut self, arg1: u64) {
        self.arg1 = arg1;
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        self.rec.record(SpanRecord {
            kind: self.kind,
            name: self.name,
            rank: self.rank,
            thread: self.thread,
            start_ns: self.start_ns,
            dur_ns: self.t0.elapsed().as_nanos() as u64,
            epoch: self.epoch,
            arg0: self.arg0,
            arg1: self.arg1,
            flow_in: self.flow_in,
            flow_out: 0,
        });
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
/// reads as one track per rank. Durations use complete (`"X"`) events with
/// microsecond timestamps; span arguments land in `args`.
///
/// Spans carrying causal-trace ids additionally emit *flow events*: a
/// span with [`flow_out`](SpanRecord::flow_out) starts a flow (`ph:"s"`)
/// and a span with [`flow_in`](SpanRecord::flow_in) terminates one
/// (`ph:"f"`, `bp:"e"`), both keyed by the envelope's trace event id —
/// so a sampled cascade renders as arrows stitching handler spans across
/// ranks into one connected causal chain.
pub fn chrome_trace_json(spans: &[SpanRecord], ranks: usize) -> String {
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
        // ("s") sits at the producing span's start, the terminus ("f" with
        // bp:"e" = bind to enclosing slice) at the consuming span's start.
        if s.flow_out != 0 {
            push_event(
                &mut out,
                &mut first,
                format!(
                    "{{\"name\":\"causal\",\"cat\":\"trace\",\"ph\":\"s\",\
                     \"id\":{id},\"ts\":{ts:.3},\"pid\":{pid},\"tid\":{tid}}}",
                    id = s.flow_out,
                    ts = s.start_ns as f64 / 1e3,
                    pid = s.rank,
                    tid = s.thread,
                ),
            );
        }
        if s.flow_in != 0 {
            push_event(
                &mut out,
                &mut first,
                format!(
                    "{{\"name\":\"causal\",\"cat\":\"trace\",\"ph\":\"f\",\"bp\":\"e\",\
                     \"id\":{id},\"ts\":{ts:.3},\"pid\":{pid},\"tid\":{tid}}}",
                    id = s.flow_in,
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
    /// Spans dropped per rank by the span recorder (buffer at capacity);
    /// empty when profiling is off. A nonzero entry means that rank's
    /// trace is truncated.
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

    #[test]
    fn recorder_caps_spans_and_counts_drops() {
        let rec = Recorder::new(1, 2);
        for i in 0..5 {
            rec.record(SpanRecord {
                kind: SpanKind::Custom,
                name: "x",
                rank: 0,
                thread: 0,
                start_ns: i,
                dur_ns: 1,
                epoch: 0,
                arg0: 0,
                arg1: 0,
                flow_in: 0,
                flow_out: 0,
            });
        }
        assert_eq!(rec.spans_of(0).len(), 2);
        assert_eq!(rec.dropped(), 3);
        assert_eq!(rec.dropped_of(0), 3);
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
            kind: SpanKind::Transport,
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
