#![warn(missing_docs)]

//! # dgp-sim — schedule exploration over the deterministic simulator
//!
//! The runtime's simulator ([`dgp_am::Machine::run_sim`]) executes the
//! unmodified handler/engine stack over modeled links under one seeded
//! event queue, so every run — thousands of ranks included — is exactly
//! reproducible. This crate turns that determinism into a testing tool:
//!
//! * **Scenarios** ([`scenario`]): one serializable description of a
//!   complete simulated run — workload, graph, machine shape, and the
//!   [`dgp_am::SimPlan`] it runs under (latency, jitter, links,
//!   partitions, stragglers, stalls). [`run_scenario`] executes it with the workload's mid-run
//!   invariant checker installed and reports a pass/fail outcome plus
//!   the run's [`dgp_am::SimReport`].
//! * **Exploration** ([`explore()`]): sweep seeds × adversarial policies
//!   (delay-one-rank, partition-at-epoch, asymmetric links,
//!   reorder-heavy, crash-recover) over a base scenario, collecting
//!   every failure.
//! * **Shrinking** ([`shrink()`]): greedily reduce a failing scenario —
//!   dropping plan elements, zeroing jitter, shrinking the machine —
//!   to a minimal spec that still fails.
//! * **Replay** ([`dump`]): serialize any scenario (shrunk or not) to a
//!   flat `[replay]` key=value block and parse it back, so one failing
//!   schedule travels as a few lines of text and replays with one
//!   command (`experiments --sim-replay <file>`).

pub mod dump;
pub mod explore;
pub mod scenario;
pub mod shrink;

pub use dump::{from_replay, to_replay};
pub use explore::{explore, CaseOutcome, ExploreReport, Policy, ALL_POLICIES};
pub use scenario::{run_scenario, GraphKind, Outcome, ScenarioSpec, Workload};
pub use shrink::shrink;
