//! The pattern execution engine: interprets compiled plans
//! ([`crate::plan::ExecPlan`]) as active messages over the `dgp-am`
//! runtime.
//!
//! Each rank constructs one [`PatternEngine`] (collectively — it registers
//! one AM message type). Property maps and actions are then registered in
//! the same order on every rank; strategies drive actions with
//! [`PatternEngine::invoke`] / [`PatternEngine::run_at`] inside epochs and
//! customize dependency handling through **work hooks**
//! ([`PatternEngine::set_work_hook`], the paper's `a.work(Vertex v) = ...`).

mod compiled;
mod exec;
mod maps;
mod value;

pub use compiled::{gate as jit_gate, JitFallback, MapAccess};
pub use exec::{ActionId, ActionMsg, ModExec, ModOp, PatternEngine, WorkHook};
pub use maps::{AtomicMapHandle, EdgeMapHandle, ErasedMap, SetMapHandle, ValCodec};
pub use value::{EnvArr, EnvView, Val, MAX_SLOTS};

use std::sync::atomic::{AtomicU64, Ordering};

use dgp_graph::LockGranularity;

use crate::plan::PlanMode;

/// How a merged condition+modification is synchronized at the modified
/// vertex (§IV-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncMode {
    /// Always acquire the vertex's lock from the rank's lock map.
    LockMap,
    /// Use an atomic read-modify-write when the step's shape allows it
    /// (single modification whose target is the only fresh-read value —
    /// the SSSP relax shape); fall back to the lock map otherwise. This is
    /// the paper's "atomic instructions where supported... we revert to
    /// locking when they are not".
    Atomic,
}

/// Engine configuration.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Gather-traversal flavor used when compiling actions.
    pub plan_mode: PlanMode,
    /// Synchronization at modified vertices.
    pub sync: SyncMode,
    /// Locking scheme of the per-rank lock map.
    pub lock_granularity: LockGranularity,
    /// Whether a hop to a different vertex on the *same* rank still goes
    /// through the message layer (faithful to the pure message-passing
    /// model) or executes inline (a shared-memory shortcut).
    pub self_send: bool,
    /// Which executor runs this engine's actions.
    pub exec: Exec,
}

/// The executor an engine runs its actions on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Exec {
    /// Compile each proof-carrying plan ([`crate::plan::ExecPlan::facts`])
    /// once, at [`PatternEngine::add_action`] time, into a chain of typed
    /// native closures (INTERNALS §14) — slot offsets resolved to direct
    /// frame indices, property-map accessors devirtualized through their
    /// [`ValCodec`] types, generator constants pre-evaluated. An action
    /// the compiler cannot take (no proof, a map handle it does not
    /// recognize) runs on the guarded step interpreter instead, with the
    /// reason recorded in [`PatternEngine::compile_fallback`]; a locality
    /// violation there is a hard assert in debug builds.
    #[default]
    Compiled,
    /// Run every action on the guarded step interpreter — the semantics
    /// oracle the differential suites compare compiled code against, and
    /// the dynamic cross-validator for the static verifier
    /// ([`crate::verify`]): each owner-only access re-resolves its place
    /// and checks it against the executing locality, and violations are
    /// counted in [`PatternEngine::locality_violations`] instead of
    /// asserted on.
    Reference,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            plan_mode: PlanMode::Optimized,
            sync: SyncMode::Atomic,
            lock_granularity: LockGranularity::PerVertex,
            self_send: true,
            exec: Exec::Compiled,
        }
    }
}

/// Per-rank engine counters (summed across ranks by the harness).
#[derive(Debug, Default)]
pub struct EngineStats {
    /// Action instances begun (initial invocations plus work-hook reruns).
    pub actions_started: AtomicU64,
    /// Generator items expanded (edges/vertices examined).
    pub items_generated: AtomicU64,
    /// Condition evaluations that fired.
    pub conditions_true: AtomicU64,
    /// Condition evaluations that did not fire.
    pub conditions_false: AtomicU64,
    /// Modifications that changed their target value.
    pub modifications_changed: AtomicU64,
    /// Modifications that left their target unchanged.
    pub modifications_unchanged: AtomicU64,
    /// Work items created by the §III-C dependency rule.
    pub dependencies_fired: AtomicU64,
}

/// A point-in-time copy of [`EngineStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStatsSnapshot {
    /// Action instances begun.
    pub actions_started: u64,
    /// Generator items expanded.
    pub items_generated: u64,
    /// Conditions that fired.
    pub conditions_true: u64,
    /// Conditions that did not fire.
    pub conditions_false: u64,
    /// Modifications that changed their target.
    pub modifications_changed: u64,
    /// Modifications that left their target unchanged.
    pub modifications_unchanged: u64,
    /// Dependency work items created.
    pub dependencies_fired: u64,
}

impl EngineStats {
    pub(crate) fn bump(c: &AtomicU64) {
        c.fetch_add(1, Ordering::Relaxed);
    }

    /// Point-in-time copy (exact when quiescent).
    pub fn snapshot(&self) -> EngineStatsSnapshot {
        EngineStatsSnapshot {
            actions_started: self.actions_started.load(Ordering::SeqCst),
            items_generated: self.items_generated.load(Ordering::SeqCst),
            conditions_true: self.conditions_true.load(Ordering::SeqCst),
            conditions_false: self.conditions_false.load(Ordering::SeqCst),
            modifications_changed: self.modifications_changed.load(Ordering::SeqCst),
            modifications_unchanged: self.modifications_unchanged.load(Ordering::SeqCst),
            dependencies_fired: self.dependencies_fired.load(Ordering::SeqCst),
        }
    }
}

impl EngineStatsSnapshot {
    /// Counter-wise difference for measuring one phase. Saturating, like
    /// `dgp_am::StatsSnapshot::since`: a snapshot taken mid-epoch is not a
    /// consistent cut (another thread may have bumped one counter between
    /// the two loads), so a racy pair clamps to zero instead of
    /// underflowing.
    pub fn since(&self, earlier: &EngineStatsSnapshot) -> EngineStatsSnapshot {
        let d = |now: u64, then: u64| now.saturating_sub(then);
        EngineStatsSnapshot {
            actions_started: d(self.actions_started, earlier.actions_started),
            items_generated: d(self.items_generated, earlier.items_generated),
            conditions_true: d(self.conditions_true, earlier.conditions_true),
            conditions_false: d(self.conditions_false, earlier.conditions_false),
            modifications_changed: d(self.modifications_changed, earlier.modifications_changed),
            modifications_unchanged: d(
                self.modifications_unchanged,
                earlier.modifications_unchanged,
            ),
            dependencies_fired: d(self.dependencies_fired, earlier.dependencies_fired),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn since_saturates_on_racy_snapshots() {
        // `earlier` observed conditions_false *after* `later` did.
        let earlier = EngineStatsSnapshot {
            conditions_true: 10,
            conditions_false: 8,
            ..Default::default()
        };
        let later = EngineStatsSnapshot {
            conditions_true: 12,
            conditions_false: 5,
            ..Default::default()
        };
        let d = later.since(&earlier);
        assert_eq!(d.conditions_true, 2);
        assert_eq!(d.conditions_false, 0, "clamped, not panicking");
    }
}
