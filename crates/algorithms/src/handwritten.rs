//! Hand-written active-message implementations: the "maximum performance /
//! maximum control" extreme the paper positions patterns against (§I —
//! "the algorithm can strive for maximum control over low-level details").
//!
//! These implement the same algorithms directly on `dgp-am`, with the
//! communication written by hand: one message type per algorithm whose
//! handler relaxes and immediately fans out. Experiment E7 measures the
//! abstraction overhead of the pattern engine against these. Note what the
//! paper observes: the hand-written versions fuse the relaxation with a
//! specific traversal — there is no way to swap the strategy without
//! rewriting the communication.
//!
//! `sssp`, `bfs` and `cc_label_propagation` send unfiltered (the benchmark's
//! like-for-like baselines). `bfs_cached` and `sssp_reduced` re-send through
//! the dominance cache the engine's compiled relax hops use
//! ([`dgp_am::MessageType::send_min`], INTERNALS §14.5).

use dgp_am::AmCtx;
use dgp_graph::properties::{AtomicVertexMap, EdgeMap};
use dgp_graph::{DistGraph, VertexId};

/// Hand-coded chaotic-relaxation SSSP: a `(vertex, candidate)` message
/// whose handler performs `fetch_min` and, on improvement, sends new
/// candidates along all out-edges. Collective; registers one message type.
pub fn sssp(
    ctx: &AmCtx,
    graph: &DistGraph,
    weights: &EdgeMap<f64>,
    source: VertexId,
) -> AtomicVertexMap<f64> {
    let rank = ctx.rank();
    let dist = ctx.share(|| AtomicVertexMap::new(graph.distribution(), f64::INFINITY));
    let (g, w, d) = (graph.clone(), weights.clone(), dist.clone());
    let mt = ctx.register_named(
        "hand-sssp-relax",
        move |hctx, (v, cand): (VertexId, f64)| {
            let me = hctx.rank();
            if d.fetch_min(me, v, cand).changed {
                let sh = g.shard(me);
                let li = sh.local_of(v);
                for (e, trg) in sh.out_edges(li) {
                    hctx.send(g.owner(trg), (trg, cand + w.get_out(me, e)));
                }
            }
        },
    );
    ctx.epoch(|ctx| {
        if graph.owner(source) == rank {
            mt.send(ctx, rank, (source, 0.0));
        }
    });
    dist
}

/// Hand-coded BFS: level-setting via `(vertex, level)` messages.
pub fn bfs(ctx: &AmCtx, graph: &DistGraph, source: VertexId) -> AtomicVertexMap<u64> {
    let rank = ctx.rank();
    let level = ctx.share(|| AtomicVertexMap::new(graph.distribution(), u64::MAX));
    let (g, l) = (graph.clone(), level.clone());
    let mt = ctx.register(move |hctx, (v, lvl): (VertexId, u64)| {
        let me = hctx.rank();
        if l.fetch_min(me, v, lvl).changed {
            let sh = g.shard(me);
            let li = sh.local_of(v);
            for (_, trg) in sh.out_edges(li) {
                hctx.send(g.owner(trg), (trg, lvl + 1));
            }
        }
    });
    ctx.epoch(|ctx| {
        if graph.owner(source) == rank {
            mt.send(ctx, rank, (source, 0));
        }
    });
    level
}

/// BFS whose handler re-sends through the dominance cache (experiment
/// E2): a `(vertex, level)` message is dropped when this thread already
/// sent that vertex a level no larger in this epoch — the exact duplicates
/// a frontier vertex reachable through many same-level edges produces, and
/// every worse level besides. The paper's "algorithms that produce
/// potentially large amounts of repetitive work".
pub fn bfs_cached(ctx: &AmCtx, graph: &DistGraph, source: VertexId) -> AtomicVertexMap<u64> {
    let rank = ctx.rank();
    let level = ctx.share(|| AtomicVertexMap::new(graph.distribution(), u64::MAX));
    let (g, l) = (graph.clone(), level.clone());
    let mt = ctx.register(move |hctx, (v, lvl): (VertexId, u64)| {
        let me = hctx.rank();
        if l.fetch_min(me, v, lvl).changed {
            let sh = g.shard(me);
            let li = sh.local_of(v);
            for (_, trg) in sh.out_edges(li) {
                hctx.send_min(g.owner(trg), trg, lvl + 1, (trg, lvl + 1));
            }
        }
    });
    ctx.epoch(|ctx| {
        if graph.owner(source) == rank {
            mt.send(ctx, rank, (source, 0));
        }
    });
    level
}

/// SSSP whose handler re-sends through the dominance cache (experiment
/// E3): a relaxation is dropped when this thread already sent its target
/// a candidate no larger in this epoch — min-combining per target, done
/// on the sender before the message exists. The paper's §II-B note that
/// "our implementation based on AM++ allows reductions of unnecessary
/// communication". Candidates are non-negative, so their IEEE bit
/// patterns order like their values.
pub fn sssp_reduced(
    ctx: &AmCtx,
    graph: &DistGraph,
    weights: &EdgeMap<f64>,
    source: VertexId,
) -> AtomicVertexMap<f64> {
    let rank = ctx.rank();
    let dist = ctx.share(|| AtomicVertexMap::new(graph.distribution(), f64::INFINITY));
    let (g, w, d) = (graph.clone(), weights.clone(), dist.clone());
    let mt = ctx.register(move |hctx, (v, cand): (VertexId, f64)| {
        let me = hctx.rank();
        if d.fetch_min(me, v, cand).changed {
            let sh = g.shard(me);
            let li = sh.local_of(v);
            for (e, trg) in sh.out_edges(li) {
                let next = cand + w.get_out(me, e);
                hctx.send_min(g.owner(trg), trg, next.to_bits(), (trg, next));
            }
        }
    });
    ctx.epoch(|ctx| {
        if graph.owner(source) == rank {
            mt.send(ctx, rank, (source, 0.0));
        }
    });
    dist
}

/// Hand-coded CC by min-label propagation: every vertex floods its label;
/// handlers keep the minimum and re-flood on improvement. Simpler than
/// (and a baseline for) the paper's parallel-search algorithm — this is
/// the "many different algorithms for CC" comparison point.
pub fn cc_label_propagation(ctx: &AmCtx, graph: &DistGraph) -> AtomicVertexMap<u64> {
    let rank = ctx.rank();
    let dist0 = graph.distribution();
    let labels = ctx.share(|| AtomicVertexMap::new(dist0, u64::MAX));
    for v in dist0.owned(rank) {
        labels.set(rank, v, v);
    }
    let (g, l) = (graph.clone(), labels.clone());
    let mt = ctx.register(move |hctx, (v, lbl): (VertexId, u64)| {
        let me = hctx.rank();
        if l.fetch_min(me, v, lbl).changed {
            let sh = g.shard(me);
            let li = sh.local_of(v);
            for trg in sh.adj(li) {
                hctx.send(g.owner(trg), (trg, lbl));
            }
        }
    });
    ctx.barrier(); // all labels initialized
    ctx.epoch(|ctx| {
        let sh = graph.shard(rank);
        for (li, v) in dist0.owned(rank).enumerate() {
            for trg in sh.adj(li) {
                mt.send(ctx, graph.owner(trg), (trg, v));
            }
        }
    });
    labels
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq;
    use dgp_am::{Machine, MachineConfig};
    use dgp_graph::{generators, Distribution, EdgeList};

    fn build(el: &EdgeList, ranks: usize) -> DistGraph {
        DistGraph::build(el, Distribution::block(el.num_vertices(), ranks), false)
    }

    #[test]
    fn cached_bfs_matches_and_saves_messages() {
        let el = generators::rmat(8, 8, generators::RmatParams::GRAPH500, 3);
        let want = dgp_graph::analysis::bfs_levels(&el, 0);
        let graph = build(&el, 2);
        let mut out = Machine::run(MachineConfig::new(2), move |ctx| {
            let plain = bfs(ctx, &graph, 0);
            let before = ctx.stats();
            let cached = bfs_cached(ctx, &graph, 0);
            let after = ctx.stats();
            (ctx.rank() == 0).then(|| (plain.snapshot(), cached.snapshot(), after.since(&before)))
        });
        let (plain, cached, stats) = out[0].take().unwrap();
        assert_eq!(plain, want);
        assert_eq!(cached, want);
        assert!(
            stats.cache_hits > 0,
            "dominated re-sends dropped: {stats:?}"
        );
    }

    #[test]
    fn reduced_sssp_matches_and_drops_dominated_relaxations() {
        let mut el = generators::rmat(8, 8, generators::RmatParams::GRAPH500, 5);
        el.randomize_weights(0.1, 1.0, 6);
        let want = seq::dijkstra(&el, 0);
        let graph = build(&el, 3);
        let weights = dgp_graph::properties::EdgeMap::from_weights(&graph, &el);
        let mut out = Machine::run(MachineConfig::new(3), move |ctx| {
            let d = sssp_reduced(ctx, &graph, &weights, 0);
            (ctx.rank() == 0).then(|| (d.snapshot(), ctx.stats()))
        });
        let (got, stats) = out[0].take().unwrap();
        for (i, (a, b)) in got.iter().zip(&want).enumerate() {
            assert!(
                (a - b).abs() < 1e-9 || (a.is_infinite() && b.is_infinite()),
                "vertex {i}: {a} vs {b}"
            );
        }
        assert!(stats.cache_hits > 0, "{stats:?}");
    }
}
