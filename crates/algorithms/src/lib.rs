#![warn(missing_docs)]

//! # dgp-algorithms — graph algorithms as declarative patterns
//!
//! The paper's two running examples, implemented exactly as described —
//! **SSSP** (§II-A: one `relax` pattern shared by the `fixed_point` and
//! Δ-stepping strategies) and **connected components** (§II-B: parallel
//! search + pointer jumping over the conflict graph + final rewrite) —
//! plus the extensions its future-work section calls for (BFS, PageRank)
//! and the baselines the evaluation harness compares against:
//!
//! * [`seq`] — sequential references (Dijkstra, Bellman–Ford, union-find
//!   CC, PageRank) used for validation and as the single-node baseline;
//! * [`handwritten`] — the "maximum control" extreme of §I: the same
//!   algorithms hand-coded directly against the `dgp-am` runtime, used to
//!   measure the abstraction overhead of the pattern engine (E7).
//!
//! [`api`] offers one-call entry points that build the machine, distribute
//! the graph, run, and return plain vectors — what the examples use; its
//! [`Run`] is the one driver: the one place a caller picks the machine,
//! the engine configuration and threads-or-simulator, with a method for
//! each of the nine families.

pub mod api;
pub mod betweenness;
pub mod bfs;
pub mod cc;
pub mod coloring;
pub mod handwritten;
pub mod kcore;
pub mod mis;
pub mod pagerank;
pub mod paths;
pub mod patterns;
pub mod registry;
pub mod seq;
pub mod sssp;
pub mod util;

pub use api::{
    run_bfs, run_cc, run_coloring, run_kcore, run_pagerank, run_sssp, Outcome, Run, RunError,
    RunResult,
};
pub use registry::builtin_patterns;
pub use sssp::SsspStrategy;
