//! The Δ-stepping strategy (§II-A) as one ordered driver: the paper's
//! epoch-per-bucket version and its asynchronous `try_finish` version
//! ("we have implemented a distributed version of Δ-stepping where every
//! thread on every node has its own local buckets", §III-D) are the two
//! ends of one parameter `k`, the number of buckets an epoch may cover
//! (the self-stabilizing kernel of Kanewala, Zalewski et al., which
//! synchronizes every *k* buckets).

use std::sync::Arc;

use dgp_am::{AmCtx, SpanKind};
use dgp_graph::properties::AtomicVertexMap;
use dgp_graph::VertexId;

use crate::engine::{ActionId, PatternEngine, WorkHook};
use crate::obs::Observer;
use crate::strategies::Buckets;

/// Fresh Δ-buckets holding this rank's `seeds`, with the paper's
/// `a.work(v) = B.insert(v, m[v], Δ)` installed for every action in
/// `actions`. The hook runs at v's owner, so `m[v]` is a local read.
fn seed_buckets(
    ctx: &AmCtx,
    engine: &PatternEngine,
    actions: &[ActionId],
    seeds: &[VertexId],
    m: &AtomicVertexMap<f64>,
    delta: f64,
) -> Arc<Buckets> {
    let buckets = Arc::new(Buckets::new(delta));
    let rank = ctx.rank();
    for &v in seeds {
        debug_assert_eq!(engine.graph().owner(v), rank, "seeds are rank-local");
        buckets.insert(v, m.get(rank, v));
    }
    let hook: WorkHook = {
        let b = buckets.clone();
        let m = m.clone();
        Arc::new(move |hctx, v| b.insert(v, m.get(hctx.rank(), v)))
    };
    for &a in actions {
        engine.set_work_hook(a, hook.clone());
    }
    buckets
}

/// The paper's `delta` strategy, synchronizing every `k` buckets:
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
/// Each epoch covers the bucket window `[lo, lo + k)`, where `lo` is the
/// lowest non-empty bucket on any rank.
///
/// * `k = 1` is §II-A's epoch per bucket: the body drains bucket `lo`
///   once and the epoch's exit finishes the ongoing actions, "because the
///   work resulting from ongoing actions may insert vertices into the
///   bucket after it tests empty. Therefore, epoch must be used to finish
///   ongoing actions, and the bucket has to be tested again."
/// * `k > 1` drains the lowest non-empty bucket of the window and hears
///   the network (`epoch_flush`) before the next. With the window empty
///   it tries to end the epoch; "if ending the epoch is unsuccessful,
///   however, the thread goes back to its local bucket structure and
///   tries to perform more work" (§III-D). `k = usize::MAX` is that
///   asynchronous form: one window over every bucket.
///
/// Each epoch's exit decides what comes next, through its vote
/// ([`AmCtx::epoch_reduce`]): 0 means some rank's window refilled (run
/// the epoch again), otherwise the result is the globally lowest
/// non-empty bucket + 1 (`u64::MAX`: all empty). So a round costs the
/// epoch's two collectives and nothing else, and a solve costs
/// 2 · epochs + 1 (the opening all-reduce finds the first bucket).
/// Improvements of an already-bucketed vertex can re-insert it *below*
/// the window, so the scan restarts from bucket 0 every round
/// (relaxation is idempotent, so reprocessing is always safe; skipping
/// would strand work).
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
    k: usize,
) -> usize {
    assert!(k >= 1, "a window holds at least one bucket");
    let buckets = seed_buckets(ctx, engine, &[action], seeds, m, delta);
    let obs = Observer::new(engine);
    let drain = |ctx: &AmCtx, i: usize| {
        let mut popped = 0;
        while let Some(v) = buckets.pop(i) {
            popped += 1;
            engine.run_at(ctx, action, v);
        }
        popped
    };
    let window = |lo: usize| buckets.first_nonempty(lo..lo.saturating_add(k));
    let lowest = || {
        buckets
            .first_nonempty(0..usize::MAX)
            .map_or(u64::MAX, |b| b as u64 + 1)
    };
    let mut epochs = 0;
    let mut next = ctx.all_reduce(lowest(), u64::min);
    while next != u64::MAX {
        let lo = (next - 1) as usize;
        // arg1 = epochs this window needed before it stayed empty.
        let mut window_span = ctx
            .span(SpanKind::Strategy, "delta.bucket")
            .map(|s| s.args(lo as u64, 0));
        let mut rounds = 0u64;
        loop {
            let body = |ctx: &AmCtx| {
                let popped = if k == 1 {
                    drain(ctx, lo)
                } else {
                    // `try_finish`'s contract holds: nothing is left in the
                    // window. Work above it waits for a later epoch.
                    let mut popped = 0;
                    loop {
                        while let Some(i) = window(lo) {
                            popped += drain(ctx, i);
                            ctx.epoch_flush();
                        }
                        if ctx.try_finish() {
                            break popped;
                        }
                        ctx.epoch_flush();
                    }
                };
                obs.publish_bucket(ctx, lo, popped);
            };
            let vote = || if window(lo).is_none() { lowest() } else { 0 };
            next = ctx.epoch_reduce(body, vote, u64::min).1;
            epochs += 1;
            rounds += 1;
            if next != 0 {
                break;
            }
        }
        if let Some(s) = window_span.as_mut() {
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
/// declarative weight guard — two patterns, one schedule. Each epoch
/// votes through its exit (light: "did the bucket refill"; heavy: the
/// next bucket), so a solve costs 2 · epochs + 1 collectives. Collective;
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
    let buckets = seed_buckets(ctx, engine, &[light, heavy], seeds, m, delta);
    let obs = Observer::new(engine);
    let lowest = || {
        buckets
            .first_nonempty(0..usize::MAX)
            .map_or(u64::MAX, |b| b as u64)
    };
    let mut epochs = 0;
    let mut next = ctx.all_reduce(lowest(), u64::min);
    while next != u64::MAX {
        let i = next as usize;
        // Phase 1: settle bucket i with light edges only, remembering who
        // was settled; each exit votes whether any rank's bucket refilled.
        let mut settled: Vec<VertexId> = Vec::new();
        {
            let mut light_span = ctx
                .span(SpanKind::Strategy, "delta.light")
                .map(|s| s.args(i as u64, 0));
            loop {
                let body = |ctx: &AmCtx| {
                    let before = settled.len();
                    while let Some(v) = buckets.pop(i) {
                        settled.push(v);
                        engine.run_at(ctx, light, v);
                    }
                    obs.publish_bucket(ctx, i, settled.len() - before);
                };
                let vote = || buckets.first_nonempty(i..i + 1).is_some() as u64;
                let (_, refilled) = ctx.epoch_reduce(body, vote, |a, b| a | b);
                epochs += 1;
                if refilled == 0 {
                    break;
                }
            }
            if let Some(s) = light_span.as_mut() {
                s.set_arg1(settled.len() as u64);
            }
        }
        // Phase 2: heavy edges of everything settled in this bucket, once;
        // its exit votes the next bucket.
        settled.sort_unstable();
        settled.dedup();
        let _heavy_span = ctx
            .span(SpanKind::Strategy, "delta.heavy")
            .map(|s| s.args(i as u64, settled.len() as u64));
        let body = |ctx: &AmCtx| {
            for &v in &settled {
                engine.run_at(ctx, heavy, v);
            }
            obs.publish_bucket(ctx, i, settled.len());
        };
        next = ctx.epoch_reduce(body, lowest, u64::min).1;
        epochs += 1;
    }
    engine.clear_work_hook(light);
    engine.clear_work_hook(heavy);
    epochs
}
