//! k-core decomposition as patterns — another "more algorithms" extension
//! (paper §VI). The k-core of an undirected graph is the maximal subgraph
//! where every vertex has degree ≥ k; we compute it by iterative peeling
//! *without mutating the graph* (the paper's framework is explicitly
//! non-morphing): an `active` flag plays the role of deletion.
//!
//! Each round: a counting pattern accumulates every vertex's number of
//! active neighbours; a local peel pass deactivates under-k vertices; the
//! driver loops via a global OR until stable — the same
//! pattern-plus-imperative-support-program shape as the paper's CC.

use dgp_am::AmCtx;
use dgp_core::builder::ActionBuilder;
use dgp_core::engine::{ActionId, EngineConfig, Val};
use dgp_core::ir::{GeneratorIr, MapId, Place};
use dgp_core::pattern::{PatternBuilder, Prop};
use dgp_core::strategies::once;
use dgp_graph::properties::AtomicVertexMap;
use dgp_graph::{DistGraph, VertexId};

use crate::util::local_vertices;

/// The per-round counting pattern: every active vertex adds 1 to each
/// neighbour's live-degree accumulator.
fn count_active(active: MapId, acc: MapId) -> dgp_core::builder::BuiltAction {
    let mut b = ActionBuilder::new("count_active", GeneratorIr::OutEdges);
    let a_v = b.read_vertex(active, Place::Input);
    b.cond(&[a_v], move |e| e.bool(a_v))
        .assign(acc, Place::GenTrg, &[], move |_, old| {
            Val::U(old.as_u64() + 1)
        });
    b.build().expect("count_active is a valid action")
}

/// The declaration plus the handles [`kcore`] reads it back by.
struct Decl {
    pattern: PatternBuilder,
    active: Prop<AtomicVertexMap<bool>>,
    acc: Prop<AtomicVertexMap<u64>>,
    count: ActionId,
}

fn declare() -> Decl {
    let mut p = PatternBuilder::new("kcore");
    let active = p.vertex_property("active", true);
    let acc = p.vertex_property("acc", 0u64);
    let count = p.action(count_active(active.id(), acc.id()));
    Decl {
        pattern: p,
        active,
        acc,
        count,
    }
}

/// `pattern KCore { active; acc; count_active }`.
pub fn pattern() -> PatternBuilder {
    declare().pattern
}

/// Compute the k-core membership mask (`true` = in the k-core). The graph
/// must be a symmetric representation. Collective; returns the number of
/// peeling rounds.
pub fn kcore(
    ctx: &AmCtx,
    graph: &DistGraph,
    k: u64,
    cfg: EngineConfig,
) -> (AtomicVertexMap<bool>, usize) {
    let rank = ctx.rank();
    let d = declare();
    let installed = d
        .pattern
        .install(ctx, graph, cfg)
        .expect("kcore pattern installs");
    let (active, acc) = (installed.map(d.active), installed.map(d.acc));
    let (engine, count) = (installed.engine, d.count);

    let locals = local_vertices(ctx, graph);
    let mut rounds = 0;
    loop {
        rounds += 1;
        // Count live degrees (only active vertices contribute).
        let seeds: Vec<VertexId> = locals
            .iter()
            .copied()
            .filter(|&v| active.get(rank, v))
            .collect();
        once(ctx, &engine, count, &seeds);
        // Peel: the imperative support pass.
        let mut peeled = false;
        for &v in &locals {
            if active.get(rank, v) && acc.get(rank, v) < k {
                active.set(rank, v, false);
                peeled = true;
            }
            acc.set(rank, v, 0);
        }
        if !ctx.any_rank(peeled) {
            break;
        }
    }
    (active, rounds)
}

/// Sequential reference peeling.
pub fn kcore_seq(el: &dgp_graph::EdgeList, k: u64) -> Vec<bool> {
    let n = el.num_vertices() as usize;
    let adj = dgp_graph::analysis::adjacency(el);
    let mut active = vec![true; n];
    loop {
        let mut peeled = false;
        let mut deg = vec![0u64; n];
        for (u, nbrs) in adj.iter().enumerate() {
            if active[u] {
                for &v in nbrs {
                    deg[v as usize] += 1;
                }
            }
        }
        for v in 0..n {
            if active[v] && deg[v] < k {
                active[v] = false;
                peeled = true;
            }
        }
        if !peeled {
            break;
        }
    }
    active
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgp_am::{Machine, MachineConfig};
    use dgp_graph::{generators, Distribution, EdgeList};

    fn run_kcore(el: &EdgeList, ranks: usize, k: u64) -> (Vec<bool>, usize) {
        let graph = DistGraph::build(el, Distribution::block(el.num_vertices(), ranks), false);
        let mut out = Machine::run(MachineConfig::new(ranks), move |ctx| {
            let (mask, rounds) = kcore(ctx, &graph, k, EngineConfig::default());
            (ctx.rank() == 0).then(|| (mask.snapshot(), rounds))
        });
        out[0].take().unwrap()
    }

    #[test]
    fn clique_plus_tail_peels_the_tail() {
        // 4-clique (ids 0..4) with a path 3-4-5 hanging off.
        let mut el = generators::disjoint_cliques(1, 4);
        let mut full = EdgeList::new(6);
        for &(u, v) in &el.edges {
            full.push(u, v);
        }
        full.push(3, 4);
        full.push(4, 3);
        full.push(4, 5);
        full.push(5, 4);
        el = full;
        let (mask, _) = run_kcore(&el, 2, 3);
        assert_eq!(mask, vec![true, true, true, true, false, false]);
        assert_eq!(mask, kcore_seq(&el, 3));
    }

    #[test]
    fn matches_sequential_on_random_graphs() {
        for seed in [1, 2, 3] {
            let mut el = generators::erdos_renyi(120, 500, seed);
            el.simplify();
            el.symmetrize();
            for k in [2u64, 3, 5] {
                let want = kcore_seq(&el, k);
                let (got, _) = run_kcore(&el, 3, k);
                assert_eq!(got, want, "seed={seed} k={k}");
            }
        }
    }

    #[test]
    fn k_zero_keeps_everything_k_huge_removes_everything() {
        let el = generators::grid2d(4, 4);
        let (all, rounds0) = run_kcore(&el, 2, 0);
        assert!(all.iter().all(|&b| b));
        assert_eq!(rounds0, 1);
        let (none, _) = run_kcore(&el, 2, 100);
        assert!(none.iter().all(|&b| !b));
    }
}
