//! The `fixed_point` and `once` strategies (§II).

use dgp_am::{AmCtx, SpanKind};
use dgp_graph::VertexId;
use std::sync::Arc;

use crate::engine::{ActionId, PatternEngine};
use crate::obs::Observer;

/// The paper's `fixed_point` strategy:
///
/// ```text
/// strategy fixed_point(action a, container vertices) {
///   a.work(Vertex v) = { a(v) };
///   epoch { for (v in vertices) a(v); }
/// }
/// ```
///
/// The work hook re-runs the action at every dependent vertex, and the
/// epoch guarantees "all work started directly in the action and
/// indirectly in the work hook is finished before the strategy exits".
///
/// Collective; `seeds` is this rank's portion of the start set.
pub fn fixed_point(ctx: &AmCtx, engine: &PatternEngine, action: ActionId, seeds: &[VertexId]) {
    let _span = ctx
        .span(SpanKind::Strategy, "strategy.fixed_point")
        .map(|s| s.args(action as u64, seeds.len() as u64));
    let rerun = engine.clone();
    engine.set_work_hook(
        action,
        Arc::new(move |hctx, v| {
            // "The action a is immediately run on the vertex."
            rerun.run_at(hctx, action, v);
        }),
    );
    let obs = Observer::new(engine);
    ctx.epoch(|ctx| {
        for &v in seeds {
            engine.invoke(ctx, action, v);
        }
        obs.publish(ctx, seeds.len());
    });
    engine.clear_work_hook(action);
}

/// The paper's `once` strategy: "performs an action at every vertex in the
/// input set, recording if any assignments to property maps were
/// performed". Returns that global flag (dependencies are ignored — the
/// §III-C default), voted through the epoch's exit: two collective
/// rounds in all.
///
/// Collective; `vertices` is this rank's portion of the input set.
pub fn once(ctx: &AmCtx, engine: &PatternEngine, action: ActionId, vertices: &[VertexId]) -> bool {
    let _span = ctx
        .span(SpanKind::Strategy, "strategy.once")
        .map(|s| s.args(action as u64, vertices.len() as u64));
    let before = engine.stats().modifications_changed;
    let obs = Observer::new(engine);
    let body = |ctx: &AmCtx| {
        for &v in vertices {
            engine.invoke(ctx, action, v);
        }
        obs.publish(ctx, vertices.len());
    };
    let changed_here = || (engine.stats().modifications_changed > before) as u64;
    ctx.epoch_reduce(body, changed_here, |a, b| a | b).1 != 0
}

/// Drive [`once`] to a fixed point: re-apply until a round performs no
/// assignment anywhere (the shape of the CC pointer-jumping loop, §II-B).
/// Returns the number of rounds that performed work.
pub fn once_until_fixed(
    ctx: &AmCtx,
    engine: &PatternEngine,
    action: ActionId,
    vertices: &[VertexId],
) -> usize {
    let mut rounds = 0;
    while once(ctx, engine, action, vertices) {
        rounds += 1;
    }
    rounds
}
