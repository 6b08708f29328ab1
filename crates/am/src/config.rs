//! Machine configuration.

use std::path::PathBuf;
use std::time::Duration;

use crate::fault::FaultPlan;
use crate::transport::TransportKind;

/// The liveness ceiling on every idle wait: termination waits are woken
/// by a ring (see [`crate::termination`], liveness) and worker threads by
/// their inbox, and this bounds the wait when nobody rings — which is
/// what drives the reliability layer's retransmits and parked releases
/// and the workers' shutdown check.
pub(crate) const RECV_TIMEOUT: Duration = Duration::from_micros(100);

/// Which termination-detection algorithm an epoch uses to decide that all
/// activity has quiesced (see `termination` module docs for the algorithms).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TerminationMode {
    /// Quiescence is detected by comparing the machine-wide totals of
    /// messages sent and messages handled (read via shared atomics). This is
    /// the fast path available because ranks share a process.
    #[default]
    SharedCounters,
    /// A faithful distributed algorithm: rank 0 circulates count-collecting
    /// token waves around a ring of control channels and declares
    /// termination after two consecutive stable waves with `sent ==
    /// handled` (a four-counter / Safra-style scheme). Epoch *exit* reads
    /// no cross-rank shared state, only messages. [`crate::AmCtx::try_finish`]
    /// is not covered by the mode: it runs the shared-counter double scan
    /// under either setting.
    FourCounterWave,
}

/// Configuration for a simulated distributed machine.
///
/// A machine consists of `ranks` nodes; each node runs the user's SPMD
/// program on a main thread plus `threads_per_rank - 1` handler worker
/// threads (AM++'s multi-threaded nodes). Messages of one type to one
/// destination are coalesced into batches of up to `coalescing_capacity`.
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// Number of simulated nodes. Must be at least 1.
    pub ranks: usize,
    /// Threads that process handlers on each rank, *including* the rank's
    /// main thread (which processes handlers whenever it is inside an epoch
    /// and idle). Must be at least 1.
    pub threads_per_rank: usize,
    /// Number of messages of one type buffered per destination before an
    /// envelope is shipped. 1 disables coalescing.
    pub coalescing_capacity: usize,
    /// Termination-detection algorithm used by epochs.
    pub termination: TerminationMode,
    /// Enable the structured observability recorder (`dgp-am::obs`):
    /// epoch/handler/termination spans, handler-latency and envelope-size
    /// histograms, Chrome-trace export. Off by default; when off, the
    /// instrumentation sites cost a single branch on an `Option`.
    /// Per-epoch profiles (`AmCtx::epoch_profiles`) are always collected —
    /// they cost one snapshot per epoch, not per message.
    pub profile: bool,
    /// Per-rank capacity of the span recorder used when
    /// [`profile`](Self::profile) is on; further spans are dropped (and counted) so
    /// profiling memory stays bounded.
    pub profile_spans: usize,
    /// Optional transport fault injection (see [`crate::fault`]). When
    /// set, the reliability layer (sequence numbers, acks, retransmission,
    /// receiver dedup) is installed at the transport boundary and the
    /// plan's seeded perturbations are applied to every envelope
    /// transmission. `None` (the default) keeps the perfect in-process
    /// transport with zero added overhead.
    pub faults: Option<FaultPlan>,
    /// Optional watchdog: when an epoch fails to quiesce within this
    /// duration, the machine is poisoned and
    /// [`Machine::try_run`](crate::Machine::try_run) returns
    /// [`MachineError::EpochDeadline`](crate::MachineError::EpochDeadline)
    /// naming the non-quiescent ranks, instead of hanging forever.
    pub epoch_deadline: Option<Duration>,
    /// Per-thread capacity of the always-on flight recorder (0 disables
    /// it). Each runtime thread keeps this many recent
    /// [`FlightEvent`](crate::FlightEvent)s in a thread-local ring —
    /// envelope ships, handler entries/exits, epoch transitions,
    /// termination votes, retransmissions — frozen on the first recorded
    /// failure and merged into the [`PostMortem`](crate::PostMortem)
    /// timeline. Pushes are lock-free and thread-local (INTERNALS §10),
    /// which is why the recorder can stay on by default.
    pub flight_events: usize,
    /// Causal-trace sampling rate: on average one in `trace_sampling`
    /// causally-new sends starts a traced cascade (0 disables tracing;
    /// 1 traces everything). Handler re-sends inside a traced cascade are
    /// always traced — sampling decides only where cascades *start*. The
    /// decision is a deterministic function of (seed, rank, thread, send
    /// index), so identical configs trace identical cascades; the seed is
    /// the fault plan's when one is installed — chaos runs trace
    /// reproducibly with no extra wiring — and a fixed constant otherwise.
    pub trace_sampling: u64,
    /// Directory automatic post-mortems are written into. When set (or
    /// when the `DGP_POSTMORTEM_DIR` environment variable is, which takes
    /// effect without a config change), any failed run writes its
    /// rendered [`PostMortem`](crate::PostMortem) — and, when profiling
    /// is on, a Chrome trace — into this directory before the error is
    /// returned.
    pub postmortem_dir: Option<PathBuf>,
    /// Which backend moves envelopes between ranks (see
    /// [`crate::transport`]). [`TransportKind::Inproc`] — the default —
    /// is the original in-process channel path with zero added overhead;
    /// `Shm` routes cross-rank envelopes through bounded shared-memory
    /// rings; `Tcp` serializes framed packets over per-lane loopback/
    /// network sockets with handshake, backpressure, and reconnection.
    /// [`MachineConfig::new`] seeds this from the `DGP_TRANSPORT`
    /// environment variable (`inproc`/`shm`/`tcp`) when it is set, so
    /// whole test suites can be re-pointed at a backend without code
    /// changes. Ignored by [`Machine::run_sim`](crate::Machine::run_sim),
    /// which always uses the simulated event queue.
    pub transport: TransportKind,
}

impl MachineConfig {
    /// A config with `ranks` single-threaded ranks and default tuning.
    pub fn new(ranks: usize) -> Self {
        MachineConfig {
            ranks,
            threads_per_rank: 1,
            coalescing_capacity: 64,
            termination: TerminationMode::SharedCounters,
            profile: false,
            profile_spans: 1 << 16,
            faults: None,
            epoch_deadline: None,
            flight_events: 1024,
            trace_sampling: 64,
            postmortem_dir: None,
            transport: TransportKind::from_env(),
        }
    }

    /// Set the number of handler threads per rank (including the main
    /// thread).
    pub fn threads_per_rank(mut self, t: usize) -> Self {
        self.threads_per_rank = t;
        self
    }

    /// Set the coalescing buffer capacity (1 disables coalescing).
    pub fn coalescing(mut self, cap: usize) -> Self {
        self.coalescing_capacity = cap;
        self
    }

    /// Select the termination-detection algorithm.
    pub fn termination(mut self, mode: TerminationMode) -> Self {
        self.termination = mode;
        self
    }

    /// Enable (or disable) the observability recorder — spans, latency
    /// histograms, Chrome-trace export (see [`crate::obs`]).
    pub fn profile(mut self, on: bool) -> Self {
        self.profile = on;
        self
    }

    /// Set the per-rank span-buffer capacity used when profiling is on.
    pub fn profile_capacity(mut self, spans_per_rank: usize) -> Self {
        self.profile_spans = spans_per_rank;
        self
    }

    /// Install a fault-injection plan (and with it the reliability layer)
    /// at the transport boundary. See [`crate::fault::FaultPlan`].
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Arm the epoch watchdog: a non-quiescent epoch older than `d` fails
    /// the machine with a diagnostic instead of hanging.
    pub fn epoch_deadline(mut self, d: Duration) -> Self {
        self.epoch_deadline = Some(d);
        self
    }

    /// Set the per-thread flight-recorder ring capacity (0 disables the
    /// recorder; see [`MachineConfig::flight_events`]).
    pub fn flight(mut self, events_per_thread: usize) -> Self {
        self.flight_events = events_per_thread;
        self
    }

    /// Set the causal-trace sampling rate: one traced cascade per `n`
    /// causally-new sends on average (0 disables tracing, 1 traces every
    /// send; see [`MachineConfig::trace_sampling`]).
    pub fn trace_sampling(mut self, n: u64) -> Self {
        self.trace_sampling = n;
        self
    }

    /// Write automatic post-mortems (and Chrome traces, when profiling)
    /// for failed runs into `dir` (see
    /// [`MachineConfig::postmortem_dir`]).
    pub fn postmortem(mut self, dir: impl Into<PathBuf>) -> Self {
        self.postmortem_dir = Some(dir.into());
        self
    }

    /// Select the transport backend explicitly (overriding any
    /// `DGP_TRANSPORT` environment default; see
    /// [`MachineConfig::transport`]).
    pub fn transport(mut self, kind: TransportKind) -> Self {
        self.transport = kind;
        self
    }

    pub(crate) fn validate(&self) {
        assert!(self.ranks >= 1, "a machine needs at least one rank");
        assert!(
            self.threads_per_rank >= 1,
            "each rank needs at least its main thread"
        );
        assert!(
            self.coalescing_capacity >= 1,
            "coalescing capacity must be at least 1"
        );
        if let Some(plan) = &self.faults {
            plan.validate();
        }
        if let Some(d) = self.epoch_deadline {
            assert!(!d.is_zero(), "epoch deadline must be positive");
        }
        self.transport.validate();
    }
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig::new(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chains() {
        let c = MachineConfig::new(4)
            .threads_per_rank(2)
            .coalescing(16)
            .termination(TerminationMode::FourCounterWave);
        assert_eq!(c.ranks, 4);
        assert_eq!(c.threads_per_rank, 2);
        assert_eq!(c.coalescing_capacity, 16);
        assert_eq!(c.termination, TerminationMode::FourCounterWave);
        c.validate();
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_ranks_rejected() {
        MachineConfig::new(0).validate();
    }

    #[test]
    #[should_panic(expected = "coalescing capacity")]
    fn zero_coalescing_rejected() {
        MachineConfig::new(1).coalescing(0).validate();
    }

    #[test]
    fn default_is_single_rank() {
        let c = MachineConfig::default();
        assert_eq!(c.ranks, 1);
        assert_eq!(c.termination, TerminationMode::SharedCounters);
    }

    #[test]
    fn flight_and_tracing_default_on() {
        let c = MachineConfig::default();
        assert!(c.flight_events > 0, "flight recorder is always-on");
        assert!(c.trace_sampling > 0, "causal tracing samples by default");
        assert!(c.postmortem_dir.is_none());
    }

    #[test]
    fn transport_defaults_to_inproc_and_chains() {
        // (Ambient DGP_TRANSPORT would change the default; the test suite
        // itself is what that knob re-points, so only assert the explicit
        // builder here.)
        let c = MachineConfig::new(2).transport(TransportKind::Inproc);
        assert_eq!(c.transport, TransportKind::Inproc);
        c.validate();
        let c = MachineConfig::new(2).transport(TransportKind::Shm(crate::ShmConfig::default()));
        assert!(matches!(c.transport, TransportKind::Shm(_)));
        c.validate();
    }

    #[test]
    fn observability_builders_chain() {
        let c = MachineConfig::new(2)
            .flight(0)
            .trace_sampling(1)
            .postmortem("/tmp/pm");
        assert_eq!(c.flight_events, 0);
        assert_eq!(c.trace_sampling, 1);
        assert_eq!(
            c.postmortem_dir.as_deref(),
            Some(std::path::Path::new("/tmp/pm"))
        );
        c.validate();
    }
}
