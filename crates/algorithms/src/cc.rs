//! Distributed connected components by parallel search (§II-B).
//!
//! The driver is a verbatim transcription of the paper's Fig. 3 program:
//!
//! ```text
//! using pattern CC;
//! for (v in V) { pnt[v] = NULL; ... }
//! cc_search.work(Vertex v) = { cc_search(v); }
//! epoch {
//!   for (v in V)
//!     if (pnt[v] == NULL) { pnt[v] = v; cc_search(v); epoch_flush(); }
//! }
//! while (true) {
//!   vs = {v in V | chg[v] != NULL};
//!   if (!once(cc_jump, vs)) break;
//! }
//! rewrite_cc();
//! ```
//!
//! Searches flood `pnt` labels outward; colliding searches record
//! conflict edges between their roots; pointer jumping (`once` over
//! `cc_jump` until no assignment fires) collapses the conflict graph to
//! minimum labels; the rewrite maps every vertex through its root's final
//! label — "rewriting does not require traversing the graph".

use std::sync::Arc;

use dgp_am::AmCtx;
use dgp_core::engine::{ActionId, EngineConfig, PatternEngine};
use dgp_core::pattern::{PatternBuilder, Prop};
use dgp_core::strategies::{fixed_point, once, once_until_fixed};
use dgp_graph::properties::{AtomicVertexMap, LockedVertexMap};
use dgp_graph::{DistGraph, VertexId};

use crate::patterns;
use crate::util::{local_vertices, sim_invariant_descending};

/// An installed CC pattern.
pub struct Cc {
    /// The engine the patterns are registered with.
    pub engine: PatternEngine,
    /// Root of the search that claimed each vertex (`NULL` = unclaimed).
    pub pnt: AtomicVertexMap<Option<VertexId>>,
    /// Conflict-graph adjacency between roots.
    pub adjs: LockedVertexMap<Vec<VertexId>>,
    /// Working label per root (min over its conflict component).
    pub lbl: AtomicVertexMap<u64>,
    /// Final component label per vertex.
    pub comp: AtomicVertexMap<u64>,
    search: ActionId,
    claim_label: ActionId,
    jump: ActionId,
    rewrite: ActionId,
}

/// The declaration plus the handles [`Cc::install`] reads it back by.
struct Decl {
    pattern: PatternBuilder,
    pnt: Prop<AtomicVertexMap<Option<VertexId>>>,
    adjs: Prop<LockedVertexMap<Vec<VertexId>>>,
    lbl: Prop<AtomicVertexMap<u64>>,
    comp: Prop<AtomicVertexMap<u64>>,
    search: ActionId,
    claim_label: ActionId,
    jump: ActionId,
    rewrite: ActionId,
}

fn declare() -> Decl {
    let mut p = PatternBuilder::new("cc");
    let pnt = p.vertex_property("pnt", None);
    let adjs = p.vertex_set("adjs");
    let lbl = p.vertex_property("lbl", 0u64);
    let comp = p.vertex_property("comp", u64::MAX);
    let search = p.action(patterns::cc_search(pnt.id(), adjs.id()));
    let claim_label = p.action(patterns::cc_claim_label(pnt.id(), lbl.id()));
    let jump = p.action(patterns::cc_jump(adjs.id(), lbl.id()));
    let rewrite = p.action(patterns::cc_rewrite(pnt.id(), lbl.id(), comp.id()));
    Decl {
        pattern: p,
        pnt,
        adjs,
        lbl,
        comp,
        search,
        claim_label,
        jump,
        rewrite,
    }
}

/// `pattern CC { pnt; adjs; lbl; comp; cc_search; cc_claim_label;
/// cc_jump; cc_rewrite }`.
pub fn pattern() -> PatternBuilder {
    declare().pattern
}

impl Cc {
    /// Collectively install the CC pattern on a fresh engine. The graph
    /// must be a symmetric representation of an undirected graph.
    pub fn install(ctx: &AmCtx, graph: &DistGraph, cfg: EngineConfig) -> Cc {
        let d = declare();
        let installed = d
            .pattern
            .install(ctx, graph, cfg)
            .expect("cc pattern installs");
        Cc {
            pnt: installed.map(d.pnt),
            adjs: installed.map(d.adjs),
            lbl: installed.map(d.lbl),
            comp: installed.map(d.comp),
            engine: installed.engine,
            search: d.search,
            claim_label: d.claim_label,
            jump: d.jump,
            rewrite: d.rewrite,
        }
    }

    /// Install the simulator's mid-run check against `truth` (union-find
    /// minimum-vertex labels): component labels start unwritten
    /// (`u64::MAX`), never drop below the component minimum, and never
    /// increase.
    pub fn sim_invariant(&self, ctx: &AmCtx, truth: &[u64]) {
        sim_invariant_descending(ctx, &self.comp, "label", truth, u64::MAX, |a, b| a < b);
    }

    /// Run the algorithm. Collective. Returns the number of pointer-
    /// jumping rounds. `comp` holds the labels afterwards (the minimum
    /// vertex id of each component — the "ordered labels" the paper's
    /// rewrite relies on).
    pub fn run(&self, ctx: &AmCtx) -> usize {
        let rank = ctx.rank();
        let graph = self.engine.graph();

        // Initialization: pnt[v] = NULL; lbl[v] = v; comp[v] = MAX.
        self.pnt.fill_local(rank, None);
        self.comp.fill_local(rank, u64::MAX);
        for v in graph.distribution().owned(rank) {
            self.lbl.set(rank, v, v);
        }

        // cc_search.work(v) = { cc_search(v); } — continue the search from
        // every newly-claimed vertex.
        let search_action = self.search;
        let rerun = self.engine.clone();
        self.engine.set_work_hook(
            search_action,
            Arc::new(move |hctx, v| rerun.run_at(hctx, search_action, v)),
        );

        // Parallel search phase (paper Fig. 3 lines 6–13): claim-and-flood
        // from every still-unclaimed local vertex, flushing between starts
        // so ongoing searches claim as much as possible first.
        ctx.epoch(|ctx| {
            for v in graph.distribution().owned(rank) {
                // The claim must be atomic: a remote search's handler may
                // claim v concurrently (the paper's `pnt[v] == NULL` test
                // + assignment, under the vertex's synchronization).
                if self.pnt.compare_exchange(rank, v, None, Some(v)).is_ok() {
                    self.engine.run_at(ctx, search_action, v);
                    ctx.epoch_flush();
                }
            }
        });
        self.engine.clear_work_hook(search_action);

        // Seed canonical labels: every vertex lowers its root's label to
        // its own id, so components end up labelled by their minimum
        // vertex id (not merely their minimum root id).
        let all = local_vertices(ctx, graph);
        once(ctx, &self.engine, self.claim_label, &all);

        // Pointer jumping over the conflict graph: the paper loops
        // `once(cc_jump, vs)` until nothing changes; with the dependency
        // hook active this is fixed_point, and we keep the paper's
        // once-loop as the outer safety net (both are provided; see
        // strategies::once_until_fixed).
        let roots: Vec<VertexId> = graph
            .distribution()
            .owned(rank)
            .filter(|&v| self.pnt.get(rank, v) == Some(v))
            .collect();
        fixed_point(ctx, &self.engine, self.jump, &roots);
        let extra_rounds = once_until_fixed(ctx, &self.engine, self.jump, &roots);

        // Final rewrite: comp[v] = lbl[pnt[v]].
        once(ctx, &self.engine, self.rewrite, &all);
        extra_rounds
    }
}

/// Convenience: install + run (inside a machine).
pub fn cc(ctx: &AmCtx, graph: &DistGraph, cfg: EngineConfig) -> AtomicVertexMap<u64> {
    let c = Cc::install(ctx, graph, cfg);
    c.run(ctx);
    c.comp
}
