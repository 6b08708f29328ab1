//! Maximal independent set (Luby's algorithm) as patterns — extension
//! algorithm family three: randomized symmetry breaking.
//!
//! Each round, every undecided vertex joins the set iff it holds the
//! highest random priority among its undecided neighbours; vertices
//! adjacent to a new member drop out. Two aggregation patterns per round
//! (same shape as the coloring example) plus a local decision pass.
//! Expected O(log n) rounds.

use dgp_am::AmCtx;
use dgp_core::builder::ActionBuilder;
use dgp_core::engine::{ActionId, EngineConfig, Val};
use dgp_core::ir::{GeneratorIr, MapId, Place};
use dgp_core::pattern::{PatternBuilder, Prop};
use dgp_core::strategies::once;
use dgp_graph::properties::AtomicVertexMap;
use dgp_graph::{DistGraph, EdgeList};

use crate::util::local_vertices;

const UNDECIDED: u64 = 0;
const IN: u64 = 1;
const OUT: u64 = 2;

/// blocked[v] = true if some undecided neighbour has higher (priority, id).
fn flag_blocked(state: MapId, prio: MapId, blocked: MapId) -> dgp_core::builder::BuiltAction {
    let mut b = ActionBuilder::new("mis_flag_blocked", GeneratorIr::Adj);
    let s_u = b.read_vertex(state, Place::GenVertex);
    let p_u = b.read_vertex(prio, Place::GenVertex);
    let p_v = b.read_vertex(prio, Place::Input);
    b.cond(&[s_u, p_u, p_v], move |e| {
        e.u64(s_u) == UNDECIDED && (e.u64(p_u), e.gen_vertex()) > (e.u64(p_v), e.input())
    })
    .assign(blocked, Place::Input, &[], move |_, _| Val::B(true));
    b.build().expect("mis_flag_blocked is a valid action")
}

/// excluded[v] = true if some neighbour is already in the set.
fn flag_excluded(state: MapId, excluded: MapId) -> dgp_core::builder::BuiltAction {
    let mut b = ActionBuilder::new("mis_flag_excluded", GeneratorIr::Adj);
    let s_u = b.read_vertex(state, Place::GenVertex);
    b.cond(&[s_u], move |e| e.u64(s_u) == IN)
        .assign(excluded, Place::Input, &[], move |_, _| Val::B(true));
    b.build().expect("mis_flag_excluded is a valid action")
}

/// The declaration plus the handles [`mis`] reads it back by.
struct Decl {
    pattern: PatternBuilder,
    state: Prop<AtomicVertexMap<u64>>,
    prio: Prop<AtomicVertexMap<u64>>,
    blocked: Prop<AtomicVertexMap<bool>>,
    excluded: Prop<AtomicVertexMap<bool>>,
    flag_blocked: ActionId,
    flag_excluded: ActionId,
}

fn declare() -> Decl {
    let mut p = PatternBuilder::new("mis");
    let state = p.vertex_property("state", UNDECIDED);
    let prio = p.vertex_property("prio", 0u64);
    let blocked = p.vertex_property("blocked", false);
    let excluded = p.vertex_property("excluded", false);
    let a_blocked = p.action(flag_blocked(state.id(), prio.id(), blocked.id()));
    let a_excluded = p.action(flag_excluded(state.id(), excluded.id()));
    Decl {
        pattern: p,
        state,
        prio,
        blocked,
        excluded,
        flag_blocked: a_blocked,
        flag_excluded: a_excluded,
    }
}

/// `pattern MIS { state; prio; blocked; excluded; mis_flag_blocked;
/// mis_flag_excluded }`.
pub fn pattern() -> PatternBuilder {
    declare().pattern
}

/// Compute a maximal independent set of the (symmetric) graph. Collective;
/// returns `(membership mask, rounds)`.
pub fn mis(
    ctx: &AmCtx,
    graph: &DistGraph,
    seed: u64,
    cfg: EngineConfig,
) -> (AtomicVertexMap<bool>, usize) {
    use rand::{Rng, SeedableRng};
    let rank = ctx.rank();
    let d = declare();
    let installed = d
        .pattern
        .install(ctx, graph, cfg)
        .expect("mis pattern installs");
    let (state, prio) = (installed.map(d.state), installed.map(d.prio));
    let (blocked, excluded) = (installed.map(d.blocked), installed.map(d.excluded));
    let (engine, a_blocked, a_excluded) = (installed.engine, d.flag_blocked, d.flag_excluded);

    // Per-vertex random priorities, seeded deterministically by vertex id
    // so every rank agrees without communication.
    for v in graph.distribution().owned(rank) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ v.wrapping_mul(0x9E3779B97F4A7C15));
        prio.set(rank, v, rng.gen());
    }

    let locals = local_vertices(ctx, graph);
    let mut rounds = 0;
    loop {
        rounds += 1;
        let undecided: Vec<_> = locals
            .iter()
            .copied()
            .filter(|&v| state.get(rank, v) == UNDECIDED)
            .collect();
        for &v in &undecided {
            blocked.set(rank, v, false);
            excluded.set(rank, v, false);
        }
        once(ctx, &engine, a_blocked, &undecided);
        once(ctx, &engine, a_excluded, &undecided);
        let mut changed = false;
        for &v in &undecided {
            if excluded.get(rank, v) {
                state.set(rank, v, OUT);
                changed = true;
            } else if !blocked.get(rank, v) {
                state.set(rank, v, IN);
                changed = true;
            }
        }
        if !ctx.any_rank(changed) {
            break;
        }
    }
    // Project the tri-state onto a membership mask.
    let mask = ctx.share(|| AtomicVertexMap::new(graph.distribution(), false));
    for &v in &locals {
        mask.set(rank, v, state.get(rank, v) == IN);
    }
    ctx.barrier();
    (mask, rounds)
}

/// Check independence (no two members adjacent) and maximality (every
/// non-member has a member neighbour). Self-loops are ignored.
pub fn validate_mis(el: &EdgeList, mask: &[bool]) -> Result<usize, String> {
    let adj = dgp_graph::analysis::adjacency(el);
    for &(u, v) in &el.edges {
        if u != v && mask[u as usize] && mask[v as usize] {
            return Err(format!("members {u} and {v} are adjacent"));
        }
    }
    for (v, nbrs) in adj.iter().enumerate() {
        if !mask[v] {
            let covered = nbrs.iter().any(|&u| mask[u as usize]);
            let isolated = nbrs.iter().all(|&u| u as usize == v);
            if !covered && !isolated {
                return Err(format!("non-member {v} has no member neighbour"));
            }
        }
    }
    Ok(mask.iter().filter(|&&b| b).count())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgp_am::{Machine, MachineConfig};
    use dgp_graph::{generators, Distribution};

    fn run(el: &EdgeList, ranks: usize, seed: u64) -> (Vec<bool>, usize) {
        let graph = DistGraph::build(el, Distribution::block(el.num_vertices(), ranks), false);
        let mut out = Machine::run(MachineConfig::new(ranks), move |ctx| {
            let (m, rounds) = mis(ctx, &graph, seed, EngineConfig::default());
            (ctx.rank() == 0).then(|| (m.snapshot(), rounds))
        });
        out[0].take().unwrap()
    }

    #[test]
    fn grid_mis_is_valid_and_fast() {
        let el = generators::grid2d(10, 10);
        let (mask, rounds) = run(&el, 3, 1);
        let size = validate_mis(&el, &mask).unwrap();
        assert!(
            size >= 25,
            "a 10x10 grid MIS has at least 25 vertices, got {size}"
        );
        assert!(rounds <= 20, "Luby converges quickly, took {rounds}");
    }

    #[test]
    fn clique_mis_is_singleton() {
        let el = generators::disjoint_cliques(3, 6);
        let (mask, _) = run(&el, 2, 5);
        assert_eq!(
            validate_mis(&el, &mask).unwrap(),
            3,
            "one member per clique"
        );
    }

    #[test]
    fn random_graphs_give_valid_mis_across_seeds() {
        let mut el = generators::erdos_renyi(150, 600, 4);
        el.simplify();
        el.symmetrize();
        for seed in [1, 2, 3] {
            let (mask, _) = run(&el, 4, seed);
            validate_mis(&el, &mask).unwrap();
        }
    }

    #[test]
    fn edgeless_graph_takes_everything() {
        let el = EdgeList::new(7);
        let (mask, _) = run(&el, 2, 9);
        assert!(mask.iter().all(|&b| b));
    }
}
