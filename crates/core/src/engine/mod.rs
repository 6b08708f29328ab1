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
mod table;
mod value;

pub use compiled::{gate as jit_gate, JitFallback, MapAccess};
pub use exec::{ActionId, ActionMsg, ModExec, ModOp, PatternEngine, WorkHook};
pub use maps::{AtomicMapHandle, EdgeMapHandle, ErasedMap, SetMapHandle, ValCodec};
pub use value::{EnvArr, EnvView, Val, MAX_SLOTS};

use std::sync::atomic::{AtomicU64, Ordering};

use dgp_am::AmCtx;
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

/// Per-rank engine counters (summed across ranks by the harness): one
/// cache-line-aligned block of seven counters per thread of the rank, so
/// a message handler bumps a counter with a relaxed load and store
/// instead of a locked read-modify-write on a line every thread shares.
///
/// Only the thread with [`AmCtx::thread`] `t` writes block `t`; the
/// single writer makes load-plus-store exact. [`Self::snapshot`] sums the
/// blocks and is exact at quiescence: epoch-exit termination detection
/// orders every handler's stores before the epoch returns, and so before
/// any snapshot taken after it (INTERNALS §14.6). A snapshot taken
/// mid-epoch is not a consistent cut.
#[derive(Debug)]
pub struct EngineStats {
    blocks: Box<[StatBlock]>,
}

/// One thread's engine counters, alone on its cache line(s).
#[derive(Debug, Default)]
#[repr(align(64))]
pub(crate) struct StatBlock {
    /// Action instances begun (initial invocations plus work-hook reruns).
    pub(crate) actions_started: AtomicU64,
    /// Generator items expanded (edges/vertices examined).
    pub(crate) items_generated: AtomicU64,
    /// Condition evaluations that fired.
    pub(crate) conditions_true: AtomicU64,
    /// Condition evaluations that did not fire.
    pub(crate) conditions_false: AtomicU64,
    /// Modifications that changed their target value.
    pub(crate) modifications_changed: AtomicU64,
    /// Modifications that left their target unchanged.
    pub(crate) modifications_unchanged: AtomicU64,
    /// Work items created by the §III-C dependency rule.
    pub(crate) dependencies_fired: AtomicU64,
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
    /// One zeroed block per thread of a rank running `threads` threads.
    pub(crate) fn new(threads: usize) -> EngineStats {
        EngineStats {
            blocks: (0..threads).map(|_| StatBlock::default()).collect(),
        }
    }

    /// The calling thread's block: the only one it may bump.
    #[inline]
    pub(crate) fn of(&self, ctx: &AmCtx) -> &StatBlock {
        &self.blocks[ctx.thread()]
    }

    /// Add one to a counter of the caller's own block ([`Self::of`]). Not
    /// a read-modify-write: correct only because no other thread writes
    /// that block.
    #[inline]
    pub(crate) fn bump(c: &AtomicU64) {
        c.store(c.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
    }

    /// Point-in-time sum over the rank's threads (exact when quiescent).
    pub fn snapshot(&self) -> EngineStatsSnapshot {
        let sum = |f: fn(&StatBlock) -> &AtomicU64| {
            self.blocks
                .iter()
                .map(|b| f(b).load(Ordering::SeqCst))
                .sum()
        };
        EngineStatsSnapshot {
            actions_started: sum(|b| &b.actions_started),
            items_generated: sum(|b| &b.items_generated),
            conditions_true: sum(|b| &b.conditions_true),
            conditions_false: sum(|b| &b.conditions_false),
            modifications_changed: sum(|b| &b.modifications_changed),
            modifications_unchanged: sum(|b| &b.modifications_unchanged),
            dependencies_fired: sum(|b| &b.dependencies_fired),
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
