//! Machine configuration.

use std::path::PathBuf;
use std::time::Duration;

use crate::fault::FaultPlan;
use crate::transport::TransportKind;

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
    /// Enable profiling (`dgp-am::obs`): the per-message engine and
    /// strategy spans, user spans, the handler-latency and envelope-size
    /// histograms, and Chrome-trace export. Off by default; when off, the
    /// per-message span sites cost a single branch. The runtime's own
    /// events are recorded either way (see
    /// [`event_capacity`](Self::event_capacity)), and per-epoch profiles
    /// (`AmCtx::epoch_profiles`) are always collected — they cost one
    /// snapshot per epoch, not per message.
    pub profile: bool,
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
    /// naming the non-quiescent ranks, instead of hanging forever. Measured
    /// on the machine's clock (virtual under
    /// [`Machine::run_sim`](crate::Machine::run_sim)); a termination wait,
    /// which otherwise only a ring ends, wakes for it.
    pub epoch_deadline: Option<Duration>,
    /// Per-thread capacity of the event recorder
    /// ([`Recorder`](crate::Recorder)); `None` picks the default, read
    /// through [`events_per_thread`](Self::events_per_thread). Each
    /// runtime thread keeps its newest this many
    /// [`SpanRecord`](crate::SpanRecord)s in a ring only it writes —
    /// traced envelope ships, epoch entries, handler spans (open while
    /// the handler runs), epoch and termination spans, retransmissions,
    /// injected faults,
    /// and under [`profile`](Self::profile) the engine, strategy and user
    /// spans. The side ring, for threads that own none, keeps as many:
    /// TCP reconnects, and under the simulator every network event
    /// (deliveries, partitions, stalls). The rings freeze on the first
    /// recorded failure and become the [`PostMortem`](crate::PostMortem)
    /// timeline. Pushes take no lock
    /// (INTERNALS §10.2), which is why the recorder stays on by default.
    /// Set by both [`flight`](Self::flight) and
    /// [`profile_capacity`](Self::profile_capacity); `Some(0)` records
    /// nothing.
    pub event_capacity: Option<usize>,
    /// Causal-trace sampling rate: on average one in `trace_sampling`
    /// causally-new sends starts a traced cascade (0 disables tracing;
    /// 1 traces everything). Handler re-sends inside a traced cascade are
    /// always traced — sampling decides only where cascades *start*. The
    /// decision is a deterministic function of (seed, rank, thread, send
    /// index), so identical configs trace identical cascades; the seed is
    /// the fault plan's when one is installed — chaos runs trace
    /// reproducibly with no extra wiring — and a fixed constant otherwise.
    /// Must be below 2^63: gaps are drawn from `[1, 2n-1]`.
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
            profile: false,
            faults: None,
            epoch_deadline: None,
            event_capacity: None,
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

    /// Enable (or disable) profiling — per-message spans, latency
    /// histograms, Chrome-trace export (see [`crate::obs`]).
    pub fn profile(mut self, on: bool) -> Self {
        self.profile = on;
        self
    }

    /// Set the per-thread event capacity (the same setting as
    /// [`flight`](Self::flight); see [`MachineConfig::event_capacity`]).
    /// A profiled run that must not lose a record sizes it to the most
    /// events one thread records.
    pub fn profile_capacity(mut self, events_per_thread: usize) -> Self {
        self.event_capacity = Some(events_per_thread);
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

    /// Set the per-thread event capacity, which also bounds the side ring
    /// of the simulator's network events (0 disables the recorder; see
    /// [`MachineConfig::event_capacity`]).
    pub fn flight(mut self, events_per_thread: usize) -> Self {
        self.event_capacity = Some(events_per_thread);
        self
    }

    /// The per-thread event capacity in effect:
    /// [`event_capacity`](Self::event_capacity) when set, otherwise 1 024
    /// events, or 65 536 with [`profile`](Self::profile) on.
    pub fn events_per_thread(&self) -> usize {
        self.event_capacity
            .unwrap_or(if self.profile { 1 << 16 } else { 1 << 10 })
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
        assert!(
            self.ranks
                .checked_mul(self.threads_per_rank)
                .is_some_and(|n| n <= crate::trace::MAX_TRACED_THREADS),
            "a machine has at most {} threads (ranks × threads_per_rank): \
             causal event ids carry the thread's index",
            crate::trace::MAX_TRACED_THREADS
        );
        assert!(
            self.trace_sampling < 1 << 63,
            "trace_sampling must be below 2^63 (the sampler draws gaps in [1, 2n-1])"
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
        let c = MachineConfig::new(4).threads_per_rank(2).coalescing(16);
        assert_eq!(c.ranks, 4);
        assert_eq!(c.threads_per_rank, 2);
        assert_eq!(c.coalescing_capacity, 16);
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
    #[should_panic(expected = "trace_sampling must be below 2^63")]
    fn huge_trace_sampling_rejected() {
        MachineConfig::new(1).trace_sampling(1 << 63).validate();
    }

    #[test]
    #[should_panic(expected = "causal event ids carry the thread's index")]
    fn more_threads_than_event_ids_can_tell_apart_rejected() {
        // Validation only: no thread is spawned.
        let n = crate::trace::MAX_TRACED_THREADS;
        MachineConfig::new(n).validate();
        MachineConfig::new(n / 2 + 1).threads_per_rank(2).validate();
    }

    #[test]
    fn default_is_single_rank() {
        let c = MachineConfig::default();
        assert_eq!(c.ranks, 1);
    }

    #[test]
    fn flight_and_tracing_default_on() {
        let c = MachineConfig::default();
        assert!(c.events_per_thread() > 0, "flight recorder is always-on");
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
        assert_eq!(c.events_per_thread(), 0);
        assert_eq!(c.trace_sampling, 1);
        assert_eq!(
            c.postmortem_dir.as_deref(),
            Some(std::path::Path::new("/tmp/pm"))
        );
        c.validate();
    }
}
