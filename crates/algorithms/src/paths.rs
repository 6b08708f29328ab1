//! Shortest-path *structure*: parent trees and predecessor sets on top of
//! SSSP, exercising multi-modification groups and the paper's §III-C
//! set-interface example.

use dgp_am::AmCtx;
use dgp_core::engine::{ActionId, EngineConfig, PatternEngine};
use dgp_core::pattern::{PatternBuilder, Prop};
use dgp_core::strategies::{fixed_point, once};
use dgp_graph::properties::{AtomicVertexMap, EdgeMap, LockedVertexMap};
use dgp_graph::{DistGraph, VertexId};

use crate::patterns;
use crate::util::{local_vertices, owned_seeds};

/// SSSP that also produces a shortest-path tree (`parent`) and, in a
/// second phase, the full predecessor sets (`preds`) of the shortest-path
/// DAG.
pub struct SsspPaths {
    /// The engine the patterns are registered with.
    pub engine: PatternEngine,
    /// Tentative/final distances.
    pub dist: AtomicVertexMap<f64>,
    /// Shortest-path-tree parent (`None` = unreached or source).
    pub parent: AtomicVertexMap<Option<VertexId>>,
    /// All tight predecessors (the shortest-path DAG).
    pub preds: LockedVertexMap<Vec<VertexId>>,
    relax: ActionId,
    record: ActionId,
}

/// The declaration plus the handles [`SsspPaths::install`] reads it back
/// by.
struct Decl {
    pattern: PatternBuilder,
    dist: Prop<AtomicVertexMap<f64>>,
    weight: Prop<EdgeMap<f64>>,
    parent: Prop<AtomicVertexMap<Option<VertexId>>>,
    preds: Prop<LockedVertexMap<Vec<VertexId>>>,
    relax: ActionId,
    record: ActionId,
}

fn declare() -> Decl {
    let mut p = PatternBuilder::new("paths");
    let dist = p.vertex_property("dist", f64::INFINITY);
    let weight = p.edge_property::<f64>("weight");
    let parent = p.vertex_property("parent", None);
    let preds = p.vertex_set("preds");
    let relax = p.action(patterns::relax_with_parent(
        dist.id(),
        weight.id(),
        parent.id(),
    ));
    let record = p.action(patterns::record_preds(dist.id(), weight.id(), preds.id()));
    Decl {
        pattern: p,
        dist,
        weight,
        parent,
        preds,
        relax,
        record,
    }
}

/// `pattern Paths { dist; weight; parent; preds; relax_with_parent;
/// record_preds }`.
pub fn pattern() -> PatternBuilder {
    declare().pattern
}

/// Rank 0's quiescent view of an [`SsspPaths`] run, in vertex order.
#[derive(Debug, Clone, PartialEq)]
pub struct PathTree {
    /// Shortest distances (`∞` = unreached).
    pub dist: Vec<f64>,
    /// Shortest-path-tree parent (`None` = unreached or source).
    pub parent: Vec<Option<VertexId>>,
    /// All tight predecessors, each list sorted (arrival order is
    /// schedule-dependent; the set is not).
    pub preds: Vec<Vec<VertexId>>,
}

impl SsspPaths {
    /// Copy the three result maps out (quiescent use).
    pub fn snapshot(&self) -> PathTree {
        let mut preds = self.preds.snapshot();
        for p in &mut preds {
            p.sort_unstable();
        }
        PathTree {
            dist: self.dist.snapshot(),
            parent: self.parent.snapshot(),
            preds,
        }
    }

    /// Collectively install on a fresh engine.
    pub fn install(
        ctx: &AmCtx,
        graph: &DistGraph,
        weights: &EdgeMap<f64>,
        cfg: EngineConfig,
    ) -> SsspPaths {
        let mut d = declare();
        d.pattern.bind(d.weight, weights);
        let installed = d
            .pattern
            .install(ctx, graph, cfg)
            .expect("paths pattern installs");
        SsspPaths {
            dist: installed.map(d.dist),
            parent: installed.map(d.parent),
            preds: installed.map(d.preds),
            engine: installed.engine,
            relax: d.relax,
            record: d.record,
        }
    }

    /// Run: fixed-point relaxation with parent recording, then one pass
    /// recording every shortest-path predecessor. Collective.
    pub fn run(&self, ctx: &AmCtx, source: VertexId) {
        let rank = ctx.rank();
        self.dist.fill_local(rank, f64::INFINITY);
        self.parent.fill_local(rank, None);
        if self.engine.graph().owner(source) == rank {
            self.dist.set(rank, source, 0.0);
        }
        ctx.barrier();
        let seeds = owned_seeds(ctx, self.engine.graph(), &[source]);
        fixed_point(ctx, &self.engine, self.relax, &seeds);
        // Distances are final: sweep once to record the shortest-path DAG.
        let all = local_vertices(ctx, self.engine.graph());
        once(ctx, &self.engine, self.record, &all);
    }
}

/// Walk the parent tree from `target` back to the source (quiescent use;
/// reads remote shards). Returns the path source..=target, or `None` if
/// `target` is unreached.
pub fn extract_path(
    parent: &AtomicVertexMap<Option<VertexId>>,
    dist: &AtomicVertexMap<f64>,
    target: VertexId,
) -> Option<Vec<VertexId>> {
    let d = parent.distribution();
    let dist_ok = dist.distribution() == d;
    assert!(dist_ok, "maps share a distribution");
    if !dist.get(d.owner(target), target).is_finite() {
        return None;
    }
    let mut path = vec![target];
    let mut cur = target;
    while let Some(p) = parent.get(d.owner(cur), cur) {
        path.push(p);
        cur = p;
        assert!(
            path.len() as u64 <= d.num_vertices(),
            "parent cycle — tree invariant violated"
        );
    }
    path.reverse();
    Some(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq;
    use dgp_am::{Machine, MachineConfig};
    use dgp_graph::{generators, Distribution};

    #[test]
    fn parents_form_a_consistent_tree_and_preds_cover_the_dag() {
        let mut el = generators::rmat(7, 8, generators::RmatParams::GRAPH500, 13);
        el.randomize_weights(0.25, 2.0, 14);
        let oracle = seq::dijkstra(&el, 0);
        let graph = DistGraph::build(&el, Distribution::block(el.num_vertices(), 3), false);
        let weights = EdgeMap::from_weights(&graph, &el);
        let el2 = el.clone();
        let oracle2 = oracle.clone();
        Machine::run(MachineConfig::new(3), move |ctx| {
            let sp = SsspPaths::install(ctx, &graph, &weights, EngineConfig::default());
            sp.run(ctx, 0);
            ctx.barrier();
            if ctx.rank() == 0 {
                let dist = sp.dist.snapshot();
                let parent = sp.parent.snapshot();
                let preds = sp.preds.snapshot();
                // Distances correct.
                for (i, (a, b)) in dist.iter().zip(&oracle2).enumerate() {
                    assert!(
                        (a - b).abs() < 1e-9 || (a.is_infinite() && b.is_infinite()),
                        "vertex {i}: {a} vs {b}"
                    );
                }
                // Tree invariant: dist[v] == dist[parent[v]] + w(parent, v)
                // for some edge (parent, v).
                for v in 0..dist.len() {
                    if v == 0 || dist[v].is_infinite() {
                        continue;
                    }
                    let p = parent[v].expect("reached vertices have parents") as usize;
                    let w = el2
                        .edges
                        .iter()
                        .zip(el2.weights.as_ref().unwrap())
                        .filter(|(&(s, t), _)| s as usize == p && t as usize == v)
                        .map(|(_, &w)| w)
                        .fold(f64::INFINITY, f64::min);
                    assert!(
                        (dist[v] - (dist[p] + w)).abs() < 1e-9,
                        "v={v}: dist {} != dist[p {p}] {} + w {w}",
                        dist[v],
                        dist[p]
                    );
                }
                // preds: every recorded predecessor is tight; the tree
                // parent is among them.
                for v in 1..dist.len() {
                    if dist[v].is_infinite() {
                        assert!(preds[v].is_empty());
                        continue;
                    }
                    assert!(
                        preds[v].contains(&parent[v].unwrap()),
                        "v={v}: tree parent recorded as predecessor"
                    );
                    for &u in &preds[v] {
                        let w = el2
                            .edges
                            .iter()
                            .zip(el2.weights.as_ref().unwrap())
                            .filter(|(&(s, t), _)| s == u && t as usize == v)
                            .map(|(_, &w)| w)
                            .fold(f64::INFINITY, f64::min);
                        assert!(
                            (dist[v] - (dist[u as usize] + w)).abs() < 1e-9,
                            "v={v}: pred {u} is tight"
                        );
                    }
                }
                // Path extraction terminates at the source.
                let reached = (1..dist.len() as u64).find(|&v| dist[v as usize].is_finite());
                if let Some(t) = reached {
                    let path = extract_path(&sp.parent, &sp.dist, t).unwrap();
                    assert_eq!(path[0], 0);
                    assert_eq!(*path.last().unwrap(), t);
                }
                assert!(extract_path(&sp.parent, &sp.dist, 0).is_some());
            }
            ctx.barrier();
        });
    }

    #[test]
    fn unreachable_targets_have_no_path() {
        let el = dgp_graph::EdgeList::from_weighted(3, &[(0, 1, 1.0)]);
        let graph = DistGraph::build(&el, Distribution::block(3, 1), false);
        let weights = EdgeMap::from_weights(&graph, &el);
        Machine::run(MachineConfig::new(1), move |ctx| {
            let sp = SsspPaths::install(ctx, &graph, &weights, EngineConfig::default());
            sp.run(ctx, 0);
            assert!(extract_path(&sp.parent, &sp.dist, 2).is_none());
            assert_eq!(extract_path(&sp.parent, &sp.dist, 1), Some(vec![0, 1]));
        });
    }
}
