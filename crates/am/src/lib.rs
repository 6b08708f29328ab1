#![warn(missing_docs)]

//! # dgp-am — an AM++-style active-message runtime
//!
//! This crate reproduces the communication substrate that *Declarative
//! Patterns for Imperative Distributed Graph Algorithms* (Zalewski, Edmonds,
//! Lumsdaine; IPDPS Workshops 2015) builds on: **AM++**, an implementation of
//! the Active Pebbles model. The paper relies on the following AM++
//! capabilities, all of which are provided here:
//!
//! * **Typed active messages** with arbitrary statically-typed handlers
//!   ([`MessageType`], [`AmCtx::register`]). Handlers are unrestricted: they
//!   may perform arbitrary computation and send any number of further
//!   messages (a capability the paper calls out as unusual among AM systems).
//!   Sends name their destination rank; AM++'s object-based addressing
//!   (rank computed from the payload's vertex) is the graph's distribution
//!   (`dgp_graph::Distribution`, `DistGraph::owner`), which callers apply.
//! * **Message coalescing** ([`coalescing`]): messages of one type to one
//!   destination are buffered and shipped in batches.
//! * **Message caching and reductions** ([`caching`]): one dominance rule,
//!   [`MessageType::send_min`] / [`machine::HandlerCtx::send_min`], drops
//!   a message whose value is no smaller than one the same thread already
//!   sent under the same key in the current epoch — duplicate elimination
//!   and min-combining (e.g. SSSP relaxations) in one per-thread table.
//! * **Epochs with termination detection** ([`AmCtx::epoch`]): an epoch ends
//!   only when every message sent inside it — including messages sent by
//!   handlers, transitively — has been handled, on every rank. The paper's
//!   `epoch_flush` and `try_finish` primitives ([`AmCtx::epoch_flush`],
//!   [`AmCtx::try_finish`]) are provided; both end through one
//!   shared-counter detection step ([`termination`]).
//! * **Structured observability** ([`obs`]): per-epoch counter profiles
//!   (always on), one event recorder — a lock-free ring per thread,
//!   always on for the runtime's own events, with per-message spans and
//!   histograms under [`MachineConfig::profile`] — and Chrome-trace /
//!   metrics-JSON exporters: the per-phase message evidence the paper's
//!   Figs. 5–6 argue from.
//! * **Deterministic fault injection and reliable delivery** ([`fault`]):
//!   a seeded [`FaultPlan`] drops, duplicates, delays and reorders
//!   envelopes at the transport boundary, and a per-lane
//!   sequence/ack/retransmit layer restores exactly-once delivery, so
//!   algorithm results stay bit-identical under chaos
//!   ([`MachineConfig::faults`]).
//! * **Structured failure propagation** ([`error`]): panics in handlers or
//!   rank bodies poison the machine's collectives and surface as a
//!   [`MachineError`] from [`Machine::try_run`] on every rank instead of
//!   deadlocking; an optional [`MachineConfig::epoch_deadline`] watchdog
//!   converts hung epochs into attributed errors.
//! * **Causal tracing and flight recording** ([`trace`]): a deterministic
//!   sampler stamps envelopes with compact causal contexts that handler
//!   re-sends inherit, exported as Chrome flow events stitching cascades
//!   across ranks; the recorder's rings keep the last moments of every
//!   thread, and any failed run assembles an automatic
//!   [`PostMortem`] — merged timeline, unacked reliability lanes, and the
//!   causal chain into the failing handler
//!   ([`Machine::try_run_diagnosed`]).
//! * **Pluggable transports** ([`transport`]): the rank-to-rank byte
//!   path behind the delivery seam is a trait with three backends —
//!   in-process channels (default, zero overhead), same-host bounded
//!   shared-memory rings, and length-prefixed TCP over loopback with a
//!   versioned handshake, per-lane bounded outbound queues, read/write
//!   timeouts and capped-exponential reconnection. Over the lossy TCP
//!   backend the reliability layer is auto-installed and masks real
//!   disconnect/reconnect windows ([`TransportKind`],
//!   [`MachineConfig::transport`], `DGP_TRANSPORT`).
//! * **Deterministic discrete-event simulation** ([`sim`]): the same
//!   machine over modeled links — per-link latency/jitter, partitions
//!   that form and heal, stragglers, crash-recover stalls — driven by
//!   one seeded logical-time event queue ([`Machine::run_sim`]). Runs
//!   are bit-identical at thousands of simulated ranks, and
//!   [`AmCtx::sim_invariant`] checks algorithm state mid-run at
//!   quiescent points; the `dgp-sim` crate layers schedule exploration,
//!   shrinking and `[replay]` blocks on top.
//!
//! ## Simulated distribution
//!
//! The original system runs over MPI on a cluster. Here, *ranks are OS
//! threads inside one process* and the transport is a lock-free channel, but
//! the programming model is kept strictly message-passing: user code gets a
//! per-rank [`AmCtx`] and may only touch rank-local state; all cross-rank
//! interaction goes through messages. Each rank may additionally run a pool
//! of handler threads ([`config::MachineConfig::threads_per_rank`]),
//! modelling AM++'s multi-threaded nodes. This substitution is documented in
//! the repository's `DESIGN.md`.
//!
//! ## Quick example
//!
//! ```
//! use dgp_am::{Machine, MachineConfig};
//! use std::sync::Arc;
//! use std::sync::atomic::{AtomicU64, Ordering};
//!
//! let counters: Arc<Vec<AtomicU64>> =
//!     Arc::new((0..4).map(|_| AtomicU64::new(0)).collect());
//! let c2 = counters.clone();
//! Machine::run(MachineConfig::new(4), move |ctx| {
//!     let counters = c2.clone();
//!     let here = ctx.rank();
//!     // Collectively register a handler: bump a counter, forward once.
//!     let ping = ctx.register(move |ctx, hops: u32| {
//!         counters[ctx.rank()].fetch_add(1, Ordering::Relaxed);
//!         if hops > 0 {
//!             let next = (ctx.rank() + 1) % ctx.num_ranks();
//!             ctx.send(next, hops - 1); // handlers may send!
//!         }
//!     });
//!     ctx.epoch(|ctx| {
//!         // Every rank starts an 8-hop chain at its right neighbour.
//!         ping.send(ctx, (here + 1) % ctx.num_ranks(), 7u32);
//!     });
//!     // The epoch has quiesced: all 8 * 4 handler invocations finished.
//! });
//! assert_eq!(counters.iter().map(|c| c.load(Ordering::Relaxed)).sum::<u64>(), 32);
//! ```

pub mod caching;
pub mod coalescing;
pub mod collectives;
pub mod config;
pub mod error;
pub mod fault;
pub mod machine;
pub mod obs;
pub mod sim;
pub mod stats;
pub mod termination;
pub mod trace;
pub mod transport;

pub use config::MachineConfig;
pub use error::MachineError;
pub use fault::FaultPlan;
pub use machine::{AmCtx, Machine, MessageType, RankId, SimError, SimRun};
pub use obs::{
    EpochProfile, LogHistogram, MetricsReport, Recorder, SpanGuard, SpanKind, SpanRecord,
};
pub use sim::{
    InvariantCadence, InvariantCtx, InvariantPoint, LinkSpec, PartitionMode, PartitionSpec, SimAt,
    SimEventKind, SimEventRecord, SimPlan, SimReport, StallSpec, StragglerSpec,
};
pub use stats::StatsSnapshot;
pub use trace::{FailCause, LaneBacklog, PostMortem, TraceCtx};
pub use transport::{ShmConfig, TcpConfig, TransportError, TransportKind};
