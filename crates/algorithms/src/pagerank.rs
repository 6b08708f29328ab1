//! Distributed PageRank as a pattern (extension algorithm).
//!
//! Each iteration is one `once` application of the `pr_contribute`
//! pattern (out-edges push `rank[v]/deg[v]` into the accumulator at their
//! target) followed by a purely local update — the kind of imperative
//! "support program" the paper expects around patterns. Dangling mass is
//! redistributed uniformly via a collective sum.

use dgp_am::AmCtx;
use dgp_core::engine::{ActionId, EngineConfig, PatternEngine};
use dgp_core::pattern::{PatternBuilder, Prop};
use dgp_core::strategies::once;
use dgp_graph::properties::AtomicVertexMap;
use dgp_graph::DistGraph;

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
    contribute: ActionId,
    damping: f64,
}

/// The declaration plus the handles [`PageRank::install`] reads it back
/// by.
struct Decl {
    pattern: PatternBuilder,
    rank: Prop<AtomicVertexMap<f64>>,
    deg: Prop<AtomicVertexMap<u64>>,
    acc: Prop<AtomicVertexMap<f64>>,
    contribute: ActionId,
}

fn declare() -> Decl {
    let mut p = PatternBuilder::new("pagerank");
    let rank = p.vertex_property("rank", 0.0f64);
    let deg = p.vertex_property("deg", 0u64);
    let acc = p.vertex_property("acc", 0.0f64);
    let contribute = p.action(patterns::pr_contribute(rank.id(), deg.id(), acc.id()));
    Decl {
        pattern: p,
        rank,
        deg,
        acc,
        contribute,
    }
}

/// `pattern PageRank { rank; deg; acc; pr_contribute }`.
pub fn pattern() -> PatternBuilder {
    declare().pattern
}

impl PageRank {
    /// Collectively install PageRank on a fresh engine.
    pub fn install(ctx: &AmCtx, graph: &DistGraph, damping: f64, cfg: EngineConfig) -> PageRank {
        assert!((0.0..1.0).contains(&damping));
        let d = declare();
        let installed = d
            .pattern
            .install(ctx, graph, cfg)
            .expect("pagerank pattern installs");
        PageRank {
            rank: installed.map(d.rank),
            acc: installed.map(d.acc),
            deg: installed.map(d.deg),
            engine: installed.engine,
            contribute: d.contribute,
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
        }
        ctx.barrier(); // every rank's last fold lands before anyone reads rank
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

/// One accumulation sweep in both directions over the same `rank`/`deg`:
/// push ([`patterns::pr_contribute`], one message per edge) into
/// `acc_push`, pull ([`patterns::pr_pull`], gather at `src(e)` and return:
/// two) into `acc_pull`. The communication asymmetry the planner predicts
/// statically, installed — E11 measures it, the test below asserts it.
/// Needs a bidirectional graph.
pub struct PushPull {
    /// The engine the pattern is registered with.
    pub engine: PatternEngine,
    /// Accumulator the push sweep fills.
    pub acc_push: AtomicVertexMap<f64>,
    /// Accumulator the pull sweep fills.
    pub acc_pull: AtomicVertexMap<f64>,
    /// The push action (`pr_contribute`).
    pub push: ActionId,
    /// The pull action (`pr_pull`).
    pub pull: ActionId,
}

/// The pull-mode declaration plus the handles [`PushPull::install`] reads
/// it back by.
struct PullDecl {
    pattern: PatternBuilder,
    rank: Prop<AtomicVertexMap<f64>>,
    deg: Prop<AtomicVertexMap<u64>>,
    acc_push: Prop<AtomicVertexMap<f64>>,
    acc_pull: Prop<AtomicVertexMap<f64>>,
    push: ActionId,
    pull: ActionId,
}

fn declare_pull() -> PullDecl {
    let mut p = PatternBuilder::new("pagerank-pull");
    let rank = p.vertex_property("rank", 0.0f64);
    let deg = p.vertex_property("deg", 0u64);
    let acc_push = p.vertex_property("acc_push", 0.0f64);
    let acc_pull = p.vertex_property("acc_pull", 0.0f64);
    let push = p.action(patterns::pr_contribute(rank.id(), deg.id(), acc_push.id()));
    let pull = p.action(patterns::pr_pull(rank.id(), deg.id(), acc_pull.id()));
    PullDecl {
        pattern: p,
        rank,
        deg,
        acc_push,
        acc_pull,
        push,
        pull,
    }
}

/// `pattern PageRankPull { rank; deg; acc_push; acc_pull; pr_contribute;
/// pr_pull }`.
pub fn pull_pattern() -> PatternBuilder {
    declare_pull().pattern
}

impl PushPull {
    /// Collectively install on a fresh engine, with `rank[v] = rank0` and
    /// `deg[v]` the out-degree everywhere.
    pub fn install(ctx: &AmCtx, graph: &DistGraph, rank0: f64, cfg: EngineConfig) -> PushPull {
        let d = declare_pull();
        let installed = d
            .pattern
            .install(ctx, graph, cfg)
            .expect("pagerank-pull pattern installs");
        let r = ctx.rank();
        let shard = graph.shard(r);
        installed.map(d.rank).fill_local(r, rank0);
        let deg = installed.map(d.deg);
        for (li, v) in graph.distribution().owned(r).enumerate() {
            deg.set(r, v, shard.out_degree(li) as u64);
        }
        ctx.barrier();
        PushPull {
            acc_push: installed.map(d.acc_push),
            acc_pull: installed.map(d.acc_pull),
            engine: installed.engine,
            push: d.push,
            pull: d.pull,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgp_am::{Machine, MachineConfig};
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
            let pp = PushPull::install(ctx, &graph, 1.0 / n as f64, EngineConfig::default());
            let locals = local_vertices(ctx, &graph);
            let before_push = ctx.stats();
            once(ctx, &pp.engine, pp.push, &locals);
            let after_push = ctx.stats();
            once(ctx, &pp.engine, pp.pull, &locals);
            let after_pull = ctx.stats();
            (ctx.rank() == 0).then(|| {
                (
                    pp.acc_push.snapshot(),
                    pp.acc_pull.snapshot(),
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
