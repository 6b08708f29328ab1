//! The paper's patterns, written in the embedded pattern language.

use dgp_core::builder::ActionBuilder;
use dgp_core::engine::Val;
use dgp_core::ir::{GeneratorIr, MapId, Place};

/// The SSSP pattern (paper Fig. 2/4):
///
/// ```text
/// pattern SSSP {
///   vertex-property<distance> dist;
///   edge-property<distance> weight;
///   relax(Vertex v) {
///     generator: e in out_edges;
///     if (dist[trg(e)] > dist[v] + weight[e])
///       dist[trg(e)] = dist[v] + weight[e];
///   }
/// }
/// ```
///
/// `dist` is both read and written, so the framework detects a dependency
/// at `trg(e)` whenever the condition fires (§III-C) — that is what the
/// strategies hook.
pub fn relax(dist: MapId, weight: MapId) -> dgp_core::builder::BuiltAction {
    let mut b = ActionBuilder::new("relax", GeneratorIr::OutEdges);
    let d_trg = b.read_vertex(dist, Place::GenTrg);
    let d_v = b.read_vertex(dist, Place::Input);
    let w_e = b.read_edge(weight);
    b.cond(&[d_trg, d_v, w_e], move |e| {
        e.f64(d_trg) > e.f64(d_v) + e.f64(w_e)
    })
    .assign(dist, Place::GenTrg, &[d_v, w_e], move |e, _old| {
        Val::F(e.f64(d_v) + e.f64(w_e))
    });
    b.build().expect("relax is a valid action")
}

/// BFS as a pattern (level-setting relax over unit weights) — one of the
/// "more algorithms" the paper's conclusions call for.
pub fn bfs_expand(level: MapId) -> dgp_core::builder::BuiltAction {
    let mut b = ActionBuilder::new("bfs_expand", GeneratorIr::OutEdges);
    let l_trg = b.read_vertex(level, Place::GenTrg);
    let l_v = b.read_vertex(level, Place::Input);
    b.cond(&[l_trg, l_v], move |e| {
        e.u64(l_v) != u64::MAX && e.u64(l_trg) > e.u64(l_v) + 1
    })
    .assign(level, Place::GenTrg, &[l_v], move |e, _old| {
        Val::U(e.u64(l_v) + 1)
    });
    b.build().expect("bfs_expand is a valid action")
}

/// The CC parallel-search pattern (§II-B).
///
/// `pnt[v]` is the root of the search that claimed `v` (`NULL` =
/// unclaimed). Claiming a neighbour is a merged, synchronized
/// condition+modification at `u` — two searches racing for `u` resolve
/// atomically, and the winner's dependency re-runs the search from `u`
/// ("recording a conflict if two searches collide"): when the claim fails
/// because `u` already belongs to a different root, the else-condition
/// records the conflict edge between the two roots, *at the roots*,
/// through pointer-indirected localities `adjs[pnt[u]]` / `adjs[pnt[v]]`
/// — the multi-vertex communication Pregel-style single-vertex views
/// cannot express (§V).
pub fn cc_search(pnt: MapId, adjs: MapId) -> dgp_core::builder::BuiltAction {
    let mut b = ActionBuilder::new("cc_search", GeneratorIr::Adj);
    let p_u = b.read_vertex(pnt, Place::GenVertex);
    let p_v = b.read_vertex(pnt, Place::Input);
    // if (pnt[u] == NULL) pnt[u] = pnt[v];
    b.cond(&[p_u, p_v], move |e| e.opt_vertex(p_u).is_none())
        .assign(pnt, Place::GenVertex, &[p_v], move |e, _old| {
            Val::OptV(Some(e.vertex(p_v)))
        });
    // else if (pnt[u] != pnt[v]) {   // collision between two searches
    //   adjs[pnt[u]].insert(pnt[v]); adjs[pnt[v]].insert(pnt[u]);
    // }
    let root_u = Place::map_at(pnt, Place::GenVertex);
    let root_v = Place::map_at(pnt, Place::Input);
    b.else_cond(&[p_u, p_v], move |e| {
        e.opt_vertex(p_u) != Some(e.vertex(p_v))
    })
    .insert(adjs, root_u, &[p_v], move |e, _| Val::U(e.vertex(p_v)))
    .insert(adjs, root_v, &[p_u], move |e, _| Val::U(e.vertex(p_u)));
    b.build().expect("cc_search is a valid action")
}

/// Canonical-label seeding for CC: every vertex lowers its root's working
/// label to its own id (`if (lbl[pnt[v]] > v) lbl[pnt[v]] = v`), so the
/// final component labels are minimum *vertex* ids — the "ordered labels"
/// the paper's rewrite phase relies on — not merely minimum root ids.
pub fn cc_claim_label(pnt: MapId, lbl: MapId) -> dgp_core::builder::BuiltAction {
    let mut b = ActionBuilder::new("cc_claim_label", GeneratorIr::None);
    let root = Place::map_at(pnt, Place::Input);
    let p_v = b.read_vertex(pnt, Place::Input);
    let l_root = b.read_vertex(lbl, root.clone());
    b.cond(&[p_v, l_root], move |e| e.u64(l_root) > e.input())
        .assign(lbl, root, &[], move |e, _old| Val::U(e.input()));
    b.build().expect("cc_claim_label is a valid action")
}

/// The CC pointer-jumping pattern (§II-B's `cc_jump`): over the conflict
/// graph recorded in `adjs` (a set-valued property map used as a
/// *generator* — the grammar's `pmap-access` set expression), propagate
/// the minimum label: "if the target vertex is being rewritten to a
/// 'better' vertex, then the rewrite target is changed to that better
/// vertex".
pub fn cc_jump(adjs: MapId, lbl: MapId) -> dgp_core::builder::BuiltAction {
    let mut b = ActionBuilder::new("cc_jump", GeneratorIr::MapSet(adjs));
    let l_r = b.read_vertex(lbl, Place::GenVertex);
    let l_v = b.read_vertex(lbl, Place::Input);
    b.cond(&[l_r, l_v], move |e| e.u64(l_r) > e.u64(l_v))
        .assign(lbl, Place::GenVertex, &[l_v], move |e, _old| {
            Val::U(e.u64(l_v))
        });
    b.build().expect("cc_jump is a valid action")
}

/// The final component rewrite (`rewrite_cc`): `comp[v] = lbl[pnt[v]]`.
/// The paper calls this "not a graph computation"; it still falls out of
/// the pattern language via one pointer-indirected read.
pub fn cc_rewrite(pnt: MapId, lbl: MapId, comp: MapId) -> dgp_core::builder::BuiltAction {
    let mut b = ActionBuilder::new("cc_rewrite", GeneratorIr::None);
    let p_v = b.read_vertex(pnt, Place::Input);
    let root_lbl = b.read_vertex(lbl, Place::map_at(pnt, Place::Input));
    let c_v = b.read_vertex(comp, Place::Input);
    b.cond(&[p_v, root_lbl, c_v], move |e| {
        e.u64(c_v) != e.u64(root_lbl)
    })
    .assign(comp, Place::Input, &[root_lbl], move |e, _old| {
        Val::U(e.u64(root_lbl))
    });
    b.build().expect("cc_rewrite is a valid action")
}

/// The light half of the split relax (§II-A: "relaxing heavy edges, which
/// cannot insert more work into the current bucket, separately from light
/// edges"): a weight-filtered generator yields only edges with weight ≤ Δ,
/// so the filter runs at the edge's storage site before any message exists
/// (the storage-split optimization the paper's C++ implementation applies
/// by partitioning the CSR).
pub fn relax_light(dist: MapId, weight: MapId, delta: f64) -> dgp_core::builder::BuiltAction {
    let mut b = ActionBuilder::new("relax_light", GeneratorIr::out_edges_light(weight, delta));
    let d_trg = b.read_vertex(dist, Place::GenTrg);
    let d_v = b.read_vertex(dist, Place::Input);
    let w_e = b.read_edge(weight);
    b.cond(&[d_trg, d_v, w_e], move |e| {
        e.f64(d_trg) > e.f64(d_v) + e.f64(w_e)
    })
    .assign(dist, Place::GenTrg, &[d_v, w_e], move |e, _old| {
        Val::F(e.f64(d_v) + e.f64(w_e))
    });
    b.build().expect("relax_light is a valid action")
}

/// The heavy half of the split relax: only edges with weight > Δ, applied
/// once per settled vertex (their targets always land in later buckets).
pub fn relax_heavy(dist: MapId, weight: MapId, delta: f64) -> dgp_core::builder::BuiltAction {
    let mut b = ActionBuilder::new("relax_heavy", GeneratorIr::out_edges_heavy(weight, delta));
    let d_trg = b.read_vertex(dist, Place::GenTrg);
    let d_v = b.read_vertex(dist, Place::Input);
    let w_e = b.read_edge(weight);
    b.cond(&[d_trg, d_v, w_e], move |e| {
        e.f64(d_trg) > e.f64(d_v) + e.f64(w_e)
    })
    .assign(dist, Place::GenTrg, &[d_v, w_e], move |e, _old| {
        Val::F(e.f64(d_v) + e.f64(w_e))
    });
    b.build().expect("relax_heavy is a valid action")
}

/// SSSP relax that also records the tree parent: one condition with TWO
/// modifications in one group at `trg(e)` — `dist` and `parent` are
/// updated together under the target's synchronization, so the tree stays
/// consistent with the distances ("each if-else statement body can
/// contain several modifications of property maps", §III-C).
pub fn relax_with_parent(
    dist: MapId,
    weight: MapId,
    parent: MapId,
) -> dgp_core::builder::BuiltAction {
    let mut b = ActionBuilder::new("relax_with_parent", GeneratorIr::OutEdges);
    let d_trg = b.read_vertex(dist, Place::GenTrg);
    let d_v = b.read_vertex(dist, Place::Input);
    let w_e = b.read_edge(weight);
    b.cond(&[d_trg, d_v, w_e], move |e| {
        e.f64(d_trg) > e.f64(d_v) + e.f64(w_e)
    })
    .assign(dist, Place::GenTrg, &[d_v, w_e], move |e, _| {
        Val::F(e.f64(d_v) + e.f64(w_e))
    })
    .assign(parent, Place::GenTrg, &[], move |e, _| {
        Val::OptV(Some(e.input()))
    });
    b.build().expect("relax_with_parent is a valid action")
}

/// The paper's §III-C modification-through-interface example, verbatim:
/// record *all* shortest-path predecessors after distances converge —
/// `if (dist[trg(e)] == dist[v] + weight[e]) preds[trg(e)].insert(v)`.
/// "The preds (predecessors) property map stores a set of vertices, and a
/// modification requires using the set interface... it is safe to call
/// the insert function on the set of vertices" (the insert is atomic).
pub fn record_preds(dist: MapId, weight: MapId, preds: MapId) -> dgp_core::builder::BuiltAction {
    let mut b = ActionBuilder::new("record_preds", GeneratorIr::OutEdges);
    let d_trg = b.read_vertex(dist, Place::GenTrg);
    let d_v = b.read_vertex(dist, Place::Input);
    let w_e = b.read_edge(weight);
    b.cond(&[d_trg, d_v, w_e], move |e| {
        e.f64(d_v).is_finite() && (e.f64(d_trg) - (e.f64(d_v) + e.f64(w_e))).abs() < 1e-12
    })
    .insert(preds, Place::GenTrg, &[], move |e, _| Val::U(e.input()));
    b.build().expect("record_preds is a valid action")
}

/// One PageRank iteration's contribution pattern: every out-edge pushes
/// `rank[v] / deg[v]` into the accumulator at its target.
pub fn pr_contribute(rank: MapId, deg: MapId, acc: MapId) -> dgp_core::builder::BuiltAction {
    let mut b = ActionBuilder::new("pr_contribute", GeneratorIr::OutEdges);
    let r_v = b.read_vertex(rank, Place::Input);
    let d_v = b.read_vertex(deg, Place::Input);
    b.cond(&[r_v, d_v], move |e| e.u64(d_v) > 0).assign(
        acc,
        Place::GenTrg,
        &[r_v, d_v],
        move |e, old| Val::F(old.as_f64() + e.f64(r_v) / e.u64(d_v) as f64),
    );
    b.build().expect("pr_contribute is a valid action")
}

/// Pull-mode PageRank contribution: each vertex *pulls* `rank/deg` from
/// the sources of its in-edges (requires bidirectional storage).
///
/// An instructive contrast with [`pr_contribute`] (push mode): pulling
/// must first gather `rank[src(e)]` and `deg[src(e)]` *at the source* and
/// then return to `v` — two messages per edge versus push's one. The
/// planner makes this communication asymmetry visible statically; see the
/// `pr_pull_costs_two_messages` test.
pub fn pr_pull(rank: MapId, deg: MapId, acc: MapId) -> dgp_core::builder::BuiltAction {
    let mut b = ActionBuilder::new("pr_pull", GeneratorIr::InEdges);
    let r_s = b.read_vertex(rank, Place::GenSrc);
    let d_s = b.read_vertex(deg, Place::GenSrc);
    b.cond(&[r_s, d_s], move |e| e.u64(d_s) > 0).assign(
        acc,
        Place::Input,
        &[r_s, d_s],
        move |e, old| Val::F(old.as_f64() + e.f64(r_s) / e.u64(d_s) as f64),
    );
    b.build().expect("pr_pull is a valid action")
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgp_core::plan::{compile, PlanMode};

    #[test]
    fn relax_plan_is_single_message() {
        let a = relax(0, 1);
        for mode in [PlanMode::Faithful, PlanMode::Optimized] {
            let p = compile(&a.ir, mode).unwrap();
            assert_eq!(p.comm_plan().messages, 1);
            assert_eq!(p.merged, vec![true]);
        }
    }

    #[test]
    fn relax_creates_dependencies_but_bfs_too() {
        assert_eq!(relax(0, 1).ir.dependency_matrix(), vec![vec![true]]);
        assert_eq!(bfs_expand(0).ir.dependency_matrix(), vec![vec![true]]);
    }

    #[test]
    fn cc_search_structure() {
        let a = cc_search(0, 1);
        assert_eq!(a.ir.conditions.len(), 2);
        assert!(a.ir.conditions[1].is_else);
        // Claim modifies+reads pnt -> dependency; conflict inserts into
        // adjs (never read as a slot) -> no dependency.
        assert_eq!(
            a.ir.dependency_matrix(),
            vec![vec![true], vec![false, false]]
        );
        let p = compile(&a.ir, PlanMode::Optimized).unwrap();
        // Claim is merged at u; conflict's first group merged at pnt[u].
        assert_eq!(p.merged, vec![true, true]);
    }

    #[test]
    fn cc_jump_is_min_label_relax() {
        let a = cc_jump(0, 1);
        assert_eq!(a.ir.dependency_matrix(), vec![vec![true]]);
        let p = compile(&a.ir, PlanMode::Optimized).unwrap();
        assert_eq!(p.comm_plan().messages, 1);
    }

    #[test]
    fn cc_rewrite_is_two_messages() {
        // Gather lbl at pnt[v], evaluate+assign back at v.
        let a = cc_rewrite(0, 1, 2);
        let p = compile(&a.ir, PlanMode::Optimized).unwrap();
        assert_eq!(p.comm_plan().messages, 2, "{p}");
    }

    #[test]
    fn split_relax_filters_at_the_generator() {
        let light = relax_light(0, 1, 0.5);
        let heavy = relax_heavy(0, 1, 0.5);
        assert!(matches!(
            light.ir.generator,
            GeneratorIr::OutEdgesFiltered {
                keep_light: true,
                ..
            }
        ));
        assert!(matches!(
            heavy.ir.generator,
            GeneratorIr::OutEdgesFiltered {
                keep_light: false,
                ..
            }
        ));
        // Still the one-message merged plan.
        for a in [&light, &heavy] {
            let p = compile(&a.ir, PlanMode::Optimized).unwrap();
            assert_eq!(p.comm_plan().messages, 1);
        }
        // The rendering mentions the filter.
        assert!(
            format!("{}", light.ir).contains("where p1[e] <= 0.5"),
            "{}",
            light.ir
        );
    }

    #[test]
    fn pr_pull_costs_two_messages() {
        // Push: 1 message per edge. Pull: gather at src(e), return to v.
        let push = pr_contribute(0, 1, 2);
        let pull = pr_pull(0, 1, 2);
        let push_plan = compile(&push.ir, PlanMode::Optimized).unwrap();
        let pull_plan = compile(&pull.ir, PlanMode::Optimized).unwrap();
        assert_eq!(push_plan.comm_plan().messages, 1);
        assert_eq!(pull_plan.comm_plan().messages, 2, "{pull_plan}");
    }

    #[test]
    fn new_patterns_validate_and_merge() {
        let a = relax_with_parent(0, 1, 2);
        assert_eq!(a.ir.conditions[0].mods.len(), 2);
        let p = compile(&a.ir, PlanMode::Optimized).unwrap();
        assert_eq!(p.merged, vec![true]); // both mods in the merged group
        assert_eq!(p.comm_plan().messages, 1);

        let r = record_preds(0, 1, 2);
        let p = compile(&r.ir, PlanMode::Optimized).unwrap();
        assert_eq!(p.comm_plan().messages, 1);
        // preds is written, never read -> no dependency storm.
        assert_eq!(r.ir.dependency_matrix(), vec![vec![false]]);
    }

    #[test]
    fn pr_contribute_merges_at_target() {
        let a = pr_contribute(0, 1, 2);
        let p = compile(&a.ir, PlanMode::Optimized).unwrap();
        assert_eq!(p.comm_plan().messages, 1);
        assert_eq!(p.merged, vec![true]);
        // acc is written but never read as a slot: no dependency storm.
        assert_eq!(a.ir.dependency_matrix(), vec![vec![false]]);
    }
}
