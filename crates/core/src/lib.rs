#![warn(missing_docs)]

//! # dgp-core — declarative patterns for imperative distributed graph
//! algorithms
//!
//! The primary contribution of the reproduced paper (Zalewski, Edmonds,
//! Lumsdaine; IPDPS Workshops 2015): graph operations are written as
//! **patterns** — declarative actions over property maps with implicit,
//! automatically-synthesized communication — and driven by imperative
//! **strategies** (`fixed_point`, `once`, Δ-stepping) that apply them in
//! **epochs**.
//!
//! Pipeline:
//!
//! 1. [`builder::ActionBuilder`] — write an action (generator, reads,
//!    condition chain, modifications); produces an analyzed [`ir::ActionIr`]
//!    plus the host-language closures for tests and right-hand sides;
//! 2. [`plan::compile`] — locality analysis (Def. 1 via
//!    [`ir::Place::known_at`]), the value dependency graph (Def. 2,
//!    [`depgraph::DepTree`]), and the gather/evaluate message program of
//!    §IV-A, with condition↔modification merging and gather elision;
//! 3. [`engine::PatternEngine`] — executes the program over the `dgp-am`
//!    runtime: one registered message type, object-addressed by the
//!    locality each step runs at; synchronization per §IV-B (lock map or
//!    atomic read-modify-write); dependency detection fires per-action
//!    **work hooks** (§III-C);
//! 4. [`strategies`] — the paper's strategies, parameterized over any
//!    action through the work-hook customization point.

pub mod builder;
pub mod depgraph;
pub mod engine;
pub mod ir;
pub mod obs;
pub mod pattern;
pub mod plan;
pub mod strategies;
pub mod verify;
pub mod viz;

pub use builder::{ActionBuilder, BuildError};
pub use engine::{ActionId, EngineConfig, Exec, PatternEngine, SyncMode, Val};
pub use ir::{GenItem, GeneratorIr, MapId, ModKind, Place, PropertyKind, Slot};
pub use pattern::{Pattern, PatternBuilder};
pub use plan::{CommPlan, ExecPlan, PlanError, PlanMode, VerifiedFacts};
pub use verify::{DiagCode, Diagnostic, Report, Severity};
