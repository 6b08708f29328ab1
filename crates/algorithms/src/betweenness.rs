//! Betweenness centrality (Brandes' algorithm, unweighted) as patterns —
//! the most structured of the extension algorithms: three phases of
//! level-synchronized pattern rounds driven by an imperative schedule,
//! showing that even multi-phase, direction-reversing computations fit
//! the paper's pattern + support-program split.
//!
//! Per source `s`:
//! 1. **levels** — BFS (the existing expand pattern);
//! 2. **path counts** — descending the DAG level by level,
//!    `sigma[trg] += sigma[v]` over tree edges (`level[trg] == level[v]+1`);
//! 3. **dependencies** — ascending back up,
//!    `delta[v] += sigma[v]/sigma[trg] * (1 + delta[trg])` over the same
//!    edges, gathered at `trg(e)` and accumulated at `v`.
//!
//! Level synchronization makes each round's sums order-independent, so
//! the distributed result matches the sequential oracle to floating-point
//! tolerance.

use dgp_am::AmCtx;
use dgp_core::builder::ActionBuilder;
use dgp_core::engine::{ActionId, EngineConfig, Val};
use dgp_core::ir::{GeneratorIr, MapId, Place};
use dgp_core::pattern::{PatternBuilder, Prop};
use dgp_core::strategies::{fixed_point, once};
use dgp_graph::properties::AtomicVertexMap;
use dgp_graph::{DistGraph, EdgeList, VertexId};

use crate::patterns;
use crate::util::{local_vertices, owned_seeds};

/// `sigma[trg] += sigma[v]` over BFS-tree edges.
fn sigma_push(level: MapId, sigma: MapId) -> dgp_core::builder::BuiltAction {
    let mut b = ActionBuilder::new("bc_sigma_push", GeneratorIr::OutEdges);
    let l_t = b.read_vertex(level, Place::GenTrg);
    let l_v = b.read_vertex(level, Place::Input);
    let s_v = b.read_vertex(sigma, Place::Input);
    b.cond(&[l_t, l_v, s_v], move |e| {
        e.u64(l_v) != u64::MAX && e.u64(l_t) == e.u64(l_v) + 1
    })
    .assign(sigma, Place::GenTrg, &[s_v], move |e, old| {
        Val::F(old.as_f64() + e.f64(s_v))
    });
    b.build().expect("bc_sigma_push is a valid action")
}

/// `delta[v] += sigma[v]/sigma[trg] * (1 + delta[trg])` over tree edges
/// (gather at `trg(e)`, accumulate at `v` — a pull-shaped plan).
fn delta_pull(level: MapId, sigma: MapId, delta: MapId) -> dgp_core::builder::BuiltAction {
    let mut b = ActionBuilder::new("bc_delta_pull", GeneratorIr::OutEdges);
    let l_t = b.read_vertex(level, Place::GenTrg);
    let l_v = b.read_vertex(level, Place::Input);
    let s_t = b.read_vertex(sigma, Place::GenTrg);
    let s_v = b.read_vertex(sigma, Place::Input);
    let d_t = b.read_vertex(delta, Place::GenTrg);
    b.cond(&[l_t, l_v, s_t, s_v, d_t], move |e| {
        e.u64(l_v) != u64::MAX && e.u64(l_t) == e.u64(l_v) + 1
    })
    .assign(delta, Place::Input, &[s_t, s_v, d_t], move |e, old| {
        Val::F(old.as_f64() + e.f64(s_v) / e.f64(s_t) * (1.0 + e.f64(d_t)))
    });
    b.build().expect("bc_delta_pull is a valid action")
}

/// The declaration plus the handles [`betweenness`] reads it back by.
struct Decl {
    pattern: PatternBuilder,
    level: Prop<AtomicVertexMap<u64>>,
    sigma: Prop<AtomicVertexMap<f64>>,
    delta: Prop<AtomicVertexMap<f64>>,
    expand: ActionId,
    push: ActionId,
    pull: ActionId,
}

fn declare() -> Decl {
    let mut p = PatternBuilder::new("betweenness");
    let level = p.vertex_property("level", u64::MAX);
    let sigma = p.vertex_property("sigma", 0.0f64);
    let delta = p.vertex_property("delta", 0.0f64);
    let expand = p.action(patterns::bfs_expand(level.id()));
    let push = p.action(sigma_push(level.id(), sigma.id()));
    let pull = p.action(delta_pull(level.id(), sigma.id(), delta.id()));
    Decl {
        pattern: p,
        level,
        sigma,
        delta,
        expand,
        push,
        pull,
    }
}

/// `pattern Betweenness { level; sigma; delta; bfs_expand; bc_sigma_push;
/// bc_delta_pull }`.
pub fn pattern() -> PatternBuilder {
    declare().pattern
}

/// Betweenness centrality accumulated over the given sources (pass all
/// vertices for exact BC; a sample for approximate BC). Unweighted,
/// directed; endpoints excluded, as in Brandes. Collective.
pub fn betweenness(
    ctx: &AmCtx,
    graph: &DistGraph,
    sources: &[VertexId],
    cfg: EngineConfig,
) -> AtomicVertexMap<f64> {
    let rank = ctx.rank();
    let d = declare();
    let installed = d
        .pattern
        .install(ctx, graph, cfg)
        .expect("betweenness pattern installs");
    let (level, sigma) = (installed.map(d.level), installed.map(d.sigma));
    let delta = installed.map(d.delta);
    let (engine, expand, push, pull) = (installed.engine, d.expand, d.push, d.pull);
    // The result accumulates across sources outside the pattern.
    let bc = ctx.share(|| AtomicVertexMap::new(graph.distribution(), 0.0f64));

    let locals = local_vertices(ctx, graph);
    for &s in sources {
        // Phase 1: BFS levels from s.
        level.fill_local(rank, u64::MAX);
        sigma.fill_local(rank, 0.0);
        delta.fill_local(rank, 0.0);
        if graph.owner(s) == rank {
            level.set(rank, s, 0);
            sigma.set(rank, s, 1.0);
        }
        let seeds = owned_seeds(ctx, graph, &[s]);
        fixed_point(ctx, &engine, expand, &seeds);

        let max_level = {
            let local_max = locals
                .iter()
                .map(|&v| level.get(rank, v))
                .filter(|&l| l != u64::MAX)
                .max()
                .unwrap_or(0);
            ctx.all_reduce(local_max, |a, b| a.max(b))
        };

        // Phase 2: path counts, level by level downward.
        for l in 0..max_level {
            let frontier: Vec<VertexId> = locals
                .iter()
                .copied()
                .filter(|&v| level.get(rank, v) == l)
                .collect();
            once(ctx, &engine, push, &frontier);
        }

        // Phase 3: dependencies, level by level upward.
        for l in (0..max_level).rev() {
            let frontier: Vec<VertexId> = locals
                .iter()
                .copied()
                .filter(|&v| level.get(rank, v) == l)
                .collect();
            once(ctx, &engine, pull, &frontier);
        }

        // Accumulate (endpoints excluded).
        for &v in &locals {
            if v != s && level.get(rank, v) != u64::MAX {
                let cur = bc.get(rank, v);
                bc.set(rank, v, cur + delta.get(rank, v));
            }
        }
    }
    ctx.barrier(); // every rank's last accumulation lands before anyone reads bc
    bc
}

/// Sequential Brandes reference (unweighted, directed, endpoints
/// excluded).
pub fn betweenness_seq(el: &EdgeList, sources: &[VertexId]) -> Vec<f64> {
    let n = el.num_vertices() as usize;
    let adj = dgp_graph::analysis::adjacency(el);
    let mut bc = vec![0.0f64; n];
    for &s in sources {
        let mut order = Vec::new();
        let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut sigma = vec![0.0f64; n];
        let mut dist = vec![i64::MAX; n];
        sigma[s as usize] = 1.0;
        dist[s as usize] = 0;
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(s as usize);
        while let Some(v) = queue.pop_front() {
            order.push(v);
            for &w in &adj[v] {
                let w = w as usize;
                if dist[w] == i64::MAX {
                    dist[w] = dist[v] + 1;
                    queue.push_back(w);
                }
                if dist[w] == dist[v] + 1 {
                    sigma[w] += sigma[v];
                    preds[w].push(v);
                }
            }
        }
        let mut delta = vec![0.0f64; n];
        for &w in order.iter().rev() {
            for &v in &preds[w] {
                delta[v] += sigma[v] / sigma[w] * (1.0 + delta[w]);
            }
            if w != s as usize {
                bc[w] += delta[w];
            }
        }
    }
    bc
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgp_am::{Machine, MachineConfig};
    use dgp_graph::{generators, Distribution};

    fn run(el: &EdgeList, ranks: usize, sources: Vec<VertexId>) -> Vec<f64> {
        let graph = DistGraph::build(el, Distribution::block(el.num_vertices(), ranks), false);
        let mut out = Machine::run(MachineConfig::new(ranks), move |ctx| {
            let bc = betweenness(ctx, &graph, &sources, EngineConfig::default());
            (ctx.rank() == 0).then(|| bc.snapshot())
        });
        out[0].take().unwrap()
    }

    fn assert_close(got: &[f64], want: &[f64]) {
        for (i, (a, b)) in got.iter().zip(want).enumerate() {
            assert!(
                (a - b).abs() < 1e-9 * (1.0 + b.abs()),
                "vertex {i}: {a} vs {b}"
            );
        }
    }

    #[test]
    fn path_graph_middle_dominates() {
        // 0 -> 1 -> 2 -> 3 -> 4: exact BC from all sources.
        let el = generators::path(5);
        let sources: Vec<u64> = (0..5).collect();
        let got = run(&el, 2, sources.clone());
        let want = betweenness_seq(&el, &sources);
        assert_close(&got, &want);
        // Middle vertex lies on the most shortest paths.
        assert!(got[2] > got[1] && got[2] > got[3]);
        assert_eq!(got[0], 0.0);
    }

    #[test]
    fn matches_brandes_on_random_dags_and_graphs() {
        for seed in [3, 7] {
            let mut el = generators::erdos_renyi(60, 300, seed);
            el.simplify();
            let sources: Vec<u64> = (0..el.num_vertices()).step_by(7).collect();
            let want = betweenness_seq(&el, &sources);
            for ranks in [1, 3] {
                let got = run(&el, ranks, sources.clone());
                assert_close(&got, &want);
            }
        }
    }

    #[test]
    fn star_hub_carries_everything() {
        // Symmetric star: all paths between leaves pass the hub.
        let mut el = generators::star(6);
        el.symmetrize();
        let sources: Vec<u64> = (0..6).collect();
        let got = run(&el, 2, sources.clone());
        let want = betweenness_seq(&el, &sources);
        assert_close(&got, &want);
        assert!(got[0] > 0.0);
        assert!(got[1..].iter().all(|&b| b == 0.0));
    }
}
