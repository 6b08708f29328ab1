//! Distributed greedy graph coloring (Jones–Plassmann style) as patterns —
//! a further "more algorithms" probe (§VI) with a different shape from the
//! relax family: two cooperating patterns gather *aggregate* neighbour
//! state into bitmask properties, and an imperative round loop colors the
//! local maxima of the uncolored subgraph.
//!
//! Per round:
//! 1. `collect_used` — every colored neighbour contributes its color to
//!    `used[v]` (a bitmask accumulated with a guarded OR);
//! 2. `flag_bigger` — any *uncolored* neighbour with a larger id raises
//!    `blocked[v]`;
//! 3. local pass — every unblocked uncolored vertex takes the smallest
//!    color absent from its mask.
//!
//! Every round colors at least the global maximum uncolored vertex, so at
//! most `n` rounds run; greedy choice bounds colors by max-degree + 1.
//! Colors are kept in a 64-bit mask, so the maximum degree must be < 63
//! (asserted) — a representation limit of this demo, not of the framework.

use dgp_am::AmCtx;
use dgp_core::builder::ActionBuilder;
use dgp_core::engine::{ActionId, EngineConfig, Val};
use dgp_core::ir::{GeneratorIr, MapId, Place};
use dgp_core::pattern::{PatternBuilder, Prop};
use dgp_core::strategies::once;
use dgp_graph::properties::AtomicVertexMap;
use dgp_graph::{DistGraph, EdgeList};

use crate::util::local_vertices;

const UNCOLORED: u64 = u64::MAX;

fn collect_used(color: MapId, used: MapId) -> dgp_core::builder::BuiltAction {
    let mut b = ActionBuilder::new("collect_used", GeneratorIr::Adj);
    let c_u = b.read_vertex(color, Place::GenVertex);
    b.cond(&[c_u], move |e| e.u64(c_u) != UNCOLORED).assign(
        used,
        Place::Input,
        &[c_u],
        move |e, old| Val::U(old.as_u64() | (1u64 << e.u64(c_u))),
    );
    b.build().expect("collect_used is a valid action")
}

fn flag_bigger(color: MapId, blocked: MapId) -> dgp_core::builder::BuiltAction {
    let mut b = ActionBuilder::new("flag_bigger", GeneratorIr::Adj);
    let c_u = b.read_vertex(color, Place::GenVertex);
    b.cond(&[c_u], move |e| {
        e.u64(c_u) == UNCOLORED && e.gen_vertex() > e.input()
    })
    .assign(blocked, Place::Input, &[], move |_, _| Val::B(true));
    b.build().expect("flag_bigger is a valid action")
}

/// The declaration plus the handles [`color_greedy`] reads it back by.
struct Decl {
    pattern: PatternBuilder,
    color: Prop<AtomicVertexMap<u64>>,
    used: Prop<AtomicVertexMap<u64>>,
    blocked: Prop<AtomicVertexMap<bool>>,
    collect: ActionId,
    flag: ActionId,
}

fn declare() -> Decl {
    let mut p = PatternBuilder::new("coloring");
    let color = p.vertex_property("color", UNCOLORED);
    let used = p.vertex_property("used", 0u64);
    let blocked = p.vertex_property("blocked", false);
    let collect = p.action(collect_used(color.id(), used.id()));
    let flag = p.action(flag_bigger(color.id(), blocked.id()));
    Decl {
        pattern: p,
        color,
        used,
        blocked,
        collect,
        flag,
    }
}

/// `pattern Coloring { color; used; blocked; collect_used; flag_bigger }`.
pub fn pattern() -> PatternBuilder {
    declare().pattern
}

/// Color the (symmetric) graph greedily. Collective; returns
/// `(color map, rounds)`. Max degree must be < 63.
pub fn color_greedy(
    ctx: &AmCtx,
    graph: &DistGraph,
    cfg: EngineConfig,
) -> (AtomicVertexMap<u64>, usize) {
    let rank = ctx.rank();
    let sh = graph.shard(rank);
    for li in 0..sh.num_local() {
        assert!(
            sh.out_degree(li) < 63,
            "bitmask coloring supports degree < 63"
        );
    }
    let d = declare();
    let installed = d
        .pattern
        .install(ctx, graph, cfg)
        .expect("coloring pattern installs");
    let (color, used) = (installed.map(d.color), installed.map(d.used));
    let blocked = installed.map(d.blocked);
    let (engine, collect, flag) = (installed.engine, d.collect, d.flag);

    let locals = local_vertices(ctx, graph);
    let mut rounds = 0;
    loop {
        rounds += 1;
        let uncolored: Vec<_> = locals
            .iter()
            .copied()
            .filter(|&v| color.get(rank, v) == UNCOLORED)
            .collect();
        // Reset per-round aggregates, then gather neighbour state.
        for &v in &uncolored {
            used.set(rank, v, 0);
            blocked.set(rank, v, false);
        }
        once(ctx, &engine, collect, &uncolored);
        once(ctx, &engine, flag, &uncolored);
        // Local maxima of the uncolored subgraph take the smallest free
        // color (the imperative support pass).
        let mut colored_any = false;
        for &v in &uncolored {
            if !blocked.get(rank, v) {
                let mask = used.get(rank, v);
                let c = (0..64).find(|&c| mask & (1 << c) == 0).expect("free color");
                color.set(rank, v, c);
                colored_any = true;
            }
        }
        if !ctx.any_rank(colored_any) {
            break;
        }
    }
    (color, rounds)
}

/// Check a coloring is proper (no monochromatic edge) and within the
/// greedy bound.
pub fn validate_coloring(el: &EdgeList, colors: &[u64]) -> Result<u64, String> {
    let deg = el.out_degrees();
    let max_deg = deg.iter().copied().max().unwrap_or(0) as u64;
    let mut max_color = 0;
    for &(u, v) in &el.edges {
        let (cu, cv) = (colors[u as usize], colors[v as usize]);
        if cu == UNCOLORED || cv == UNCOLORED {
            return Err(format!("uncolored endpoint on edge ({u},{v})"));
        }
        if u != v && cu == cv {
            return Err(format!("edge ({u},{v}) is monochromatic ({cu})"));
        }
        max_color = max_color.max(cu).max(cv);
    }
    if max_color > max_deg {
        return Err(format!(
            "used color {max_color} exceeds greedy bound {max_deg}"
        ));
    }
    Ok(max_color + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgp_am::{Machine, MachineConfig};
    use dgp_graph::{generators, Distribution};

    fn run(el: &EdgeList, ranks: usize) -> (Vec<u64>, usize) {
        let graph = DistGraph::build(el, Distribution::block(el.num_vertices(), ranks), false);
        let mut out = Machine::run(MachineConfig::new(ranks), move |ctx| {
            let (c, rounds) = color_greedy(ctx, &graph, EngineConfig::default());
            (ctx.rank() == 0).then(|| (c.snapshot(), rounds))
        });
        out[0].take().unwrap()
    }

    #[test]
    fn grid_colors_with_few_colors() {
        let el = generators::grid2d(8, 8);
        let (colors, rounds) = run(&el, 3);
        let used = validate_coloring(&el, &colors).unwrap();
        assert!(used <= 5, "grid degree 4 -> at most 5 colors, used {used}");
        assert!(rounds <= 65);
    }

    #[test]
    fn small_world_colors_properly() {
        let el = generators::small_world(200, 6, 0.1, 3);
        let (colors, _) = run(&el, 4);
        validate_coloring(&el, &colors).unwrap();
    }

    #[test]
    fn clique_needs_exactly_k_colors() {
        let el = generators::disjoint_cliques(2, 5);
        let (colors, _) = run(&el, 2);
        let used = validate_coloring(&el, &colors).unwrap();
        assert_eq!(used, 5, "a 5-clique needs exactly 5 colors");
    }

    #[test]
    fn edgeless_graph_is_one_round_one_color() {
        let el = EdgeList::new(10);
        let (colors, rounds) = run(&el, 2);
        assert!(colors.iter().all(|&c| c == 0));
        assert_eq!(rounds, 2); // one coloring round + one empty confirming round
    }

    #[test]
    fn validator_rejects_bad_colorings() {
        let el = generators::grid2d(2, 2);
        assert!(validate_coloring(&el, &[0, 0, 1, 1]).is_err());
        assert!(validate_coloring(&el, &[u64::MAX, 0, 1, 0]).is_err());
        assert!(validate_coloring(&el, &[0, 1, 1, 0]).is_ok());
    }
}
