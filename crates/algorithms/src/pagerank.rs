//! Distributed PageRank as a pattern (extension algorithm).
//!
//! Each iteration is one `once` application of the `pr_contribute`
//! pattern (out-edges push `rank[v]/deg[v]` into the accumulator at their
//! target) followed by a purely local update — the kind of imperative
//! "support program" the paper expects around patterns. Dangling mass is
//! redistributed uniformly via a collective sum.

use dgp_am::AmCtx;
use dgp_core::engine::{EngineConfig, PatternEngine};
use dgp_core::strategies::once;
use dgp_graph::properties::AtomicVertexMap;
use dgp_graph::{DistGraph, VertexId};

use crate::patterns;
use crate::util::{all_reduce_f64_sum, local_vertices};

/// An installed PageRank pattern.
pub struct PageRank {
    /// The engine the pattern is registered with.
    pub engine: PatternEngine,
    /// Current PageRank value per vertex.
    pub rank: AtomicVertexMap<f64>,
    acc: AtomicVertexMap<f64>,
    deg: AtomicVertexMap<u64>,
    contribute: dgp_core::engine::ActionId,
    damping: f64,
}

impl PageRank {
    /// Collectively install PageRank on a fresh engine.
    pub fn install(ctx: &AmCtx, graph: &DistGraph, damping: f64, cfg: EngineConfig) -> PageRank {
        assert!((0.0..1.0).contains(&damping));
        let engine = PatternEngine::new(ctx, graph.clone(), cfg);
        let dist = graph.distribution();
        let rank = ctx.share(|| AtomicVertexMap::new(dist, 0.0f64));
        let acc = ctx.share(|| AtomicVertexMap::new(dist, 0.0f64));
        let deg = ctx.share(|| AtomicVertexMap::new(dist, 0u64));
        let rank_id = engine.register_vertex_map(&rank);
        let deg_id = engine.register_vertex_map(&deg);
        let acc_id = engine.register_vertex_map(&acc);
        let contribute = engine
            .add_action(patterns::pr_contribute(rank_id, deg_id, acc_id))
            .expect("pr_contribute compiles");
        PageRank {
            engine,
            rank,
            acc,
            deg,
            contribute,
            damping,
        }
    }

    /// Install the simulator's mid-run check: every tentative rank value
    /// stays finite and non-negative at every checkpoint (no oracle
    /// needed; a no-op on threads).
    pub fn sim_invariant(&self, ctx: &AmCtx) {
        if ctx.rank() != 0 {
            return;
        }
        let map = self.rank.clone();
        ctx.sim_invariant(move |_| {
            for (v, x) in map.snapshot().into_iter().enumerate() {
                if !x.is_finite() || x < -1e-12 {
                    return Err(format!("rank[{v}] = {x} is not a probability mass"));
                }
            }
            Ok(())
        });
    }

    /// Run `iterations` power iterations. Collective.
    pub fn run(&self, ctx: &AmCtx, iterations: usize) {
        let rank_id = ctx.rank();
        let graph = self.engine.graph();
        let n = graph.num_vertices() as f64;
        let shard = graph.shard(rank_id);

        // Initialize: uniform rank, out-degrees.
        for (li, v) in graph.distribution().owned(rank_id).enumerate() {
            self.rank.set(rank_id, v, 1.0 / n);
            self.deg.set(rank_id, v, shard.out_degree(li) as u64);
            self.acc.set(rank_id, v, 0.0);
        }
        ctx.barrier();

        let locals = local_vertices(ctx, graph);
        for _ in 0..iterations {
            // Dangling vertices spread their mass uniformly.
            let dangling_local: f64 = locals
                .iter()
                .filter(|&&v| self.deg.get(rank_id, v) == 0)
                .map(|&v| self.rank.get(rank_id, v))
                .sum();
            let dangling = all_reduce_f64_sum(ctx, dangling_local);

            once(ctx, &self.engine, self.contribute, &locals);

            // Local support program: fold the accumulator into the ranks.
            for &v in &locals {
                let sum = self.acc.get(rank_id, v) + dangling / n;
                self.rank
                    .set(rank_id, v, (1.0 - self.damping) / n + self.damping * sum);
                self.acc.set(rank_id, v, 0.0);
            }
            ctx.barrier();
        }
    }
}

/// Convenience: install + run (inside a machine).
pub fn pagerank(
    ctx: &AmCtx,
    graph: &DistGraph,
    damping: f64,
    iterations: usize,
) -> AtomicVertexMap<f64> {
    let p = PageRank::install(ctx, graph, damping, EngineConfig::default());
    p.run(ctx, iterations);
    p.rank
}

/// Suppress unused-field lint: `deg` is engine-registered state.
impl PageRank {
    /// Out-degree map (diagnostics).
    pub fn degrees(&self) -> &AtomicVertexMap<u64> {
        &self.deg
    }

    /// Per-vertex id convenience for tests.
    pub fn rank_of(&self, rank: usize, v: VertexId) -> f64 {
        self.rank.get(rank, v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::patterns;
    use crate::util::local_vertices;
    use dgp_am::{Machine, MachineConfig};
    use dgp_core::strategies::once;
    use dgp_graph::{generators, Distribution, EdgeList};

    /// Push ([`patterns::pr_contribute`]) and pull ([`patterns::pr_pull`])
    /// accumulate identical sums, while pull pays ~2x the messages — the
    /// communication asymmetry the planner predicts statically.
    #[test]
    fn push_and_pull_accumulate_identically() {
        let el: EdgeList = generators::rmat(7, 6, generators::RmatParams::GRAPH500, 9);
        let n = el.num_vertices();
        let graph = DistGraph::build(&el, Distribution::block(n, 3), true);
        let mut out = Machine::run(MachineConfig::new(3), move |ctx| {
            let engine = dgp_core::engine::PatternEngine::new(
                ctx,
                graph.clone(),
                dgp_core::engine::EngineConfig::default(),
            );
            let dist = graph.distribution();
            let rank_m = ctx.share(|| AtomicVertexMap::new(dist, 0.0f64));
            let deg = ctx.share(|| AtomicVertexMap::new(dist, 0u64));
            let acc_push = ctx.share(|| AtomicVertexMap::new(dist, 0.0f64));
            let acc_pull = ctx.share(|| AtomicVertexMap::new(dist, 0.0f64));
            let rank_id = engine.register_vertex_map(&rank_m);
            let deg_id = engine.register_vertex_map(&deg);
            let push_id = engine.register_vertex_map(&acc_push);
            let pull_id = engine.register_vertex_map(&acc_pull);
            let push = engine
                .add_action(patterns::pr_contribute(rank_id, deg_id, push_id))
                .unwrap();
            let pull = engine
                .add_action(patterns::pr_pull(rank_id, deg_id, pull_id))
                .unwrap();

            let r = ctx.rank();
            let sh = graph.shard(r);
            for (li, v) in dist.owned(r).enumerate() {
                rank_m.set(r, v, 1.0 / n as f64);
                deg.set(r, v, sh.out_degree(li) as u64);
            }
            ctx.barrier();

            let locals = local_vertices(ctx, &graph);
            let before_push = ctx.stats();
            once(ctx, &engine, push, &locals);
            let after_push = ctx.stats();
            once(ctx, &engine, pull, &locals);
            let after_pull = ctx.stats();
            (ctx.rank() == 0).then(|| {
                (
                    acc_push.snapshot(),
                    acc_pull.snapshot(),
                    after_push.since(&before_push).messages_sent,
                    after_pull.since(&after_push).messages_sent,
                )
            })
        });
        let (push_acc, pull_acc, push_msgs, pull_msgs) = out[0].take().unwrap();
        for (i, (a, b)) in push_acc.iter().zip(&pull_acc).enumerate() {
            assert!((a - b).abs() < 1e-12, "vertex {i}: push {a} vs pull {b}");
        }
        assert!(
            pull_msgs > push_msgs,
            "pull ({pull_msgs}) costs more messages than push ({push_msgs})"
        );
    }
}
