//! The Δ-stepping strategy (§II-A), in both of the paper's forms: the
//! epoch-per-bucket version and the asynchronous `try_finish` version
//! ("we have implemented a distributed version of Δ-stepping where every
//! thread on every node has its own local buckets", §III-D).

use std::sync::Arc;

use dgp_am::{AmCtx, SpanKind};
use dgp_graph::properties::AtomicVertexMap;
use dgp_graph::VertexId;

use crate::engine::{ActionId, PatternEngine};
use crate::obs::Observer;
use crate::strategies::Buckets;

/// The paper's `delta` strategy:
///
/// ```text
/// strategy delta(action a, container vertices, property-map m, delta Δ) {
///   buckets B; i = 0;
///   for (v in vertices) B.insert(v, m[v], Δ);
///   a.work(Vertex v) = { B.insert(v, m[v], Δ); }
///   while (!B.empty()) { while (!B[i].empty()) { v = B[i].pop(); a(v); } i++; }
/// }
/// ```
///
/// Each bucket is emptied inside an epoch "because the work resulting from
/// ongoing actions may insert vertices into the bucket after it tests
/// empty. Therefore, epoch must be used to finish ongoing actions, and the
/// bucket has to be tested again."
///
/// `m` is the bucketing property map (tentative distances for SSSP);
/// `seeds` is this rank's portion of the start set (their `m` values must
/// be current). Collective. Returns the number of epochs run.
pub fn delta_stepping(
    ctx: &AmCtx,
    engine: &PatternEngine,
    action: ActionId,
    seeds: &[VertexId],
    m: &AtomicVertexMap<f64>,
    delta: f64,
) -> usize {
    let buckets = Arc::new(Buckets::new(delta));
    let rank = ctx.rank();
    for &v in seeds {
        debug_assert_eq!(engine.graph().owner(v), rank, "seeds are rank-local");
        buckets.insert(v, m.get(rank, v));
    }
    // a.work(v) = B.insert(v, m[v], Δ) — runs at v's owner, so m[v] is a
    // local read.
    let hook_buckets = buckets.clone();
    let hook_m = m.clone();
    engine.set_work_hook(
        action,
        Arc::new(move |hctx, v| {
            hook_buckets.insert(v, hook_m.get(hctx.rank(), v));
        }),
    );

    // One collective per round decides what comes next: 0 means some
    // rank's bucket `i` refilled (drain it again), otherwise the result
    // is the globally lowest non-empty bucket + 1 (`u64::MAX`: all empty).
    // Improvements of an already-bucketed vertex can re-insert it *below*
    // the index being processed, so the scan restarts from 0 every round
    // rather than advancing monotonically (relaxation is idempotent, so
    // reprocessing is always safe; skipping would strand work).
    let lowest = || {
        buckets
            .first_nonempty_from(0)
            .map_or(u64::MAX, |b| b as u64 + 1)
    };
    let mut epochs = 0;
    let mut next = ctx.all_reduce(lowest(), u64::min);
    while next != u64::MAX {
        let i = (next - 1) as usize;
        // arg1 = drain rounds this bucket needed before it stayed empty.
        let mut bucket_span = ctx
            .span(SpanKind::Strategy, "delta.bucket")
            .map(|s| s.args(i as u64, 0));
        let mut rounds = 0u64;
        let obs = Observer::new(engine);
        // Empty bucket i; handlers may refill it while we drain, so retest
        // collectively after every epoch.
        loop {
            ctx.epoch(|ctx| {
                let mut popped = 0usize;
                while let Some(v) = buckets.pop(i) {
                    popped += 1;
                    engine.run_at(ctx, action, v);
                }
                obs.publish_bucket(ctx, i, popped);
            });
            epochs += 1;
            rounds += 1;
            let mine = if buckets.is_empty_at(i) { lowest() } else { 0 };
            next = ctx.all_reduce(mine, u64::min);
            if next != 0 {
                break;
            }
        }
        if let Some(s) = bucket_span.as_mut() {
            s.set_arg1(rounds);
        }
    }
    engine.clear_work_hook(action);
    epochs
}

/// Δ-stepping with the paper's light/heavy edge split (§II-A: "relaxing
/// heavy edges, which cannot insert more work into the current bucket,
/// separately from light edges, which may add work to the current
/// bucket"): the current bucket is settled using only the `light` action
/// (weight ≤ Δ, may refill the bucket), then the `heavy` action (weight >
/// Δ, lands strictly in later buckets) runs once per vertex settled in
/// this bucket.
///
/// Both actions share the `dist` invariant; they differ only in their
/// declarative weight guard — two patterns, one schedule. Collective;
/// returns the number of epochs run.
pub fn delta_stepping_split(
    ctx: &AmCtx,
    engine: &PatternEngine,
    light: ActionId,
    heavy: ActionId,
    seeds: &[VertexId],
    m: &AtomicVertexMap<f64>,
    delta: f64,
) -> usize {
    let buckets = Arc::new(Buckets::new(delta));
    let rank = ctx.rank();
    for &v in seeds {
        debug_assert_eq!(engine.graph().owner(v), rank, "seeds are rank-local");
        buckets.insert(v, m.get(rank, v));
    }
    let hook = {
        let b = buckets.clone();
        let m = m.clone();
        Arc::new(move |hctx: &AmCtx, v: VertexId| {
            b.insert(v, m.get(hctx.rank(), v));
        }) as Arc<dyn Fn(&AmCtx, VertexId) + Send + Sync>
    };
    engine.set_work_hook(light, hook.clone());
    engine.set_work_hook(heavy, hook);

    let mut epochs = 0;
    loop {
        let local = buckets
            .first_nonempty_from(0)
            .map(|b| b as u64)
            .unwrap_or(u64::MAX);
        let global = ctx.all_reduce(local, |a, b| a.min(b));
        if global == u64::MAX {
            break;
        }
        let i = global as usize;
        // Phase 1: settle bucket i with light edges only, remembering who
        // was settled.
        let mut settled: Vec<VertexId> = Vec::new();
        let obs = Observer::new(engine);
        {
            let mut light_span = ctx
                .span(SpanKind::Strategy, "delta.light")
                .map(|s| s.args(i as u64, 0));
            loop {
                ctx.epoch(|ctx| {
                    let before = settled.len();
                    while let Some(v) = buckets.pop(i) {
                        settled.push(v);
                        engine.run_at(ctx, light, v);
                    }
                    obs.publish_bucket(ctx, i, settled.len() - before);
                });
                epochs += 1;
                let refilled = ctx.any_rank(!buckets.is_empty_at(i));
                if !refilled {
                    break;
                }
            }
            if let Some(s) = light_span.as_mut() {
                s.set_arg1(settled.len() as u64);
            }
        }
        // Phase 2: heavy edges of everything settled in this bucket, once.
        settled.sort_unstable();
        settled.dedup();
        let _heavy_span = ctx
            .span(SpanKind::Strategy, "delta.heavy")
            .map(|s| s.args(i as u64, settled.len() as u64));
        ctx.epoch(|ctx| {
            for &v in &settled {
                engine.run_at(ctx, heavy, v);
            }
            obs.publish_bucket(ctx, i, settled.len());
        });
        epochs += 1;
    }
    engine.clear_work_hook(light);
    engine.clear_work_hook(heavy);
    epochs
}

/// The asynchronous Δ-stepping of §III-D: one epoch for the whole run;
/// each rank drains its lowest non-empty bucket and, "when a thread runs
/// out of work locally, it tries to terminate the epoch, which succeeds if
/// all other threads everywhere also run out of work... If ending the
/// epoch is unsuccessful, however, the thread goes back to its local
/// bucket structure and tries to perform more work (its buckets can be
/// filled while it tries to end the epoch)."
///
/// Returns the number of `try_finish` attempts this rank made.
pub fn delta_stepping_async(
    ctx: &AmCtx,
    engine: &PatternEngine,
    action: ActionId,
    seeds: &[VertexId],
    m: &AtomicVertexMap<f64>,
    delta: f64,
) -> usize {
    let buckets = Arc::new(Buckets::new(delta));
    let rank = ctx.rank();
    for &v in seeds {
        debug_assert_eq!(engine.graph().owner(v), rank, "seeds are rank-local");
        buckets.insert(v, m.get(rank, v));
    }
    let hook_buckets = buckets.clone();
    let hook_m = m.clone();
    engine.set_work_hook(
        action,
        Arc::new(move |hctx, v| {
            hook_buckets.insert(v, hook_m.get(hctx.rank(), v));
        }),
    );

    let mut attempts = 0;
    let mut async_span = ctx.span(SpanKind::Strategy, "delta.async");
    let obs = Observer::new(engine);
    ctx.epoch(|ctx| loop {
        // Drain lowest buckets first (the label-correcting order heuristic;
        // any order converges).
        let mut popped = 0usize;
        while let Some(i) = buckets.first_nonempty_from(0) {
            while let Some(v) = buckets.pop(i) {
                popped += 1;
                engine.run_at(ctx, action, v);
            }
        }
        // The whole run is one epoch, so successive publishes accumulate
        // into that epoch's single profile.
        obs.publish(ctx, popped);
        // Out of local work: try to end the epoch (contract: only called
        // with empty local buckets).
        attempts += 1;
        if ctx.try_finish() {
            break;
        }
        // Rejected — perform whatever work arrived meanwhile.
        ctx.epoch_flush();
    });
    if let Some(s) = async_span.as_mut() {
        s.set_arg1(attempts as u64);
    }
    engine.clear_work_hook(action);
    attempts
}
