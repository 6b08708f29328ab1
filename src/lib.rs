#![warn(missing_docs)]

//! # dgp — Declarative Patterns for Imperative Distributed Graph Algorithms
//!
//! A from-scratch Rust reproduction of *Declarative Patterns for Imperative
//! Distributed Graph Algorithms* (Zalewski, Edmonds, Lumsdaine; IPDPS
//! Workshops 2015): graph operations written as declarative **patterns**
//! over property maps, compiled automatically into active-message
//! communication plans, and driven by imperative **strategies**
//! (`fixed_point`, `once`, Δ-stepping) inside **epochs** with distributed
//! termination detection.
//!
//! The workspace layers:
//!
//! * [`am`] (`dgp-am`) — the AM++-style active-message runtime: typed
//!   handlers that may send, coalescing, one dominance cache for caching
//!   and min-reductions, epochs, `epoch_flush`/`try_finish`, shared-counter
//!   termination detection;
//! * [`graph`] (`dgp-graph`) — the distributed graph substrate: CSR shards,
//!   block/cyclic distributions (AM++'s object-based addressing: the
//!   vertex → rank map messages are sent by), RMAT/Erdős–Rényi/structured
//!   generators,
//!   atomic and locked property maps, the lock-map abstraction;
//! * [`core`] (`dgp-core`) — the paper's contribution: pattern IR, locality
//!   analysis (Def. 1), value dependency graphs (Def. 2), the gather/
//!   evaluate planner with condition↔modification merging (§IV-A), the
//!   execution engine with work hooks (§III-C), and the strategies (§II);
//! * [`algorithms`] (`dgp-algorithms`) — nine families as patterns (SSSP,
//!   CC, BFS, PageRank, MIS, k-core, coloring, betweenness, shortest-path
//!   trees), one `Run` driver for all of them, the registry table that
//!   lists each with its sequential oracle, and hand-written-AM baselines;
//! * `dgp-sim` — the deterministic discrete-event simulator's scenario
//!   layer: seeded schedule exploration, failing-schedule shrinking and
//!   `[replay]` blocks over `Machine::run_sim` (a dev-dependency here).
//!
//! ## Quickstart
//!
//! ```
//! use dgp::prelude::*;
//!
//! // A weighted digraph: 0 --1--> 1 --1--> 2, plus a 3.0 shortcut 0 -> 2.
//! let el = EdgeList::from_weighted(3, &[(0, 1, 1.0), (1, 2, 1.0), (0, 2, 3.0)]);
//! // Run Δ-stepping SSSP over 2 ranks.
//! let out = Run::new(2).sssp(&el, 0, SsspStrategy::Delta(1.0)).unwrap();
//! assert_eq!(out.result, vec![0.0, 1.0, 2.0]);
//! ```

pub use dgp_algorithms as algorithms;
pub use dgp_am as am;
pub use dgp_core as core;
pub use dgp_graph as graph;

/// The commonly-needed surface in one import.
pub mod prelude {
    pub use dgp_algorithms::{Outcome, Run, RunError, SsspStrategy};
    pub use dgp_am::{
        AmCtx, FaultPlan, Machine, MachineConfig, MachineError, ShmConfig, TcpConfig, TransportKind,
    };
    pub use dgp_core::builder::ActionBuilder;
    pub use dgp_core::engine::{EngineConfig, Exec, PatternEngine, SyncMode, Val};
    pub use dgp_core::ir::{GeneratorIr, Place};
    pub use dgp_core::plan::PlanMode;
    pub use dgp_core::strategies::{delta_stepping, fixed_point, once};
    pub use dgp_graph::properties::{AtomicVertexMap, EdgeMap, LockedVertexMap};
    pub use dgp_graph::{generators, DistGraph, Distribution, EdgeList, VertexId};
}
