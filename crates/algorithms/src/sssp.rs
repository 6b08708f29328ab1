//! Distributed single-source shortest paths (§II-A): one `relax` pattern,
//! three strategies.

use dgp_am::AmCtx;
use dgp_core::engine::{ActionId, EngineConfig, PatternEngine};
use dgp_core::pattern::{PatternBuilder, Prop};
use dgp_core::strategies;
use dgp_graph::properties::{AtomicVertexMap, EdgeMap};
use dgp_graph::{DistGraph, VertexId};

use crate::patterns;
use crate::util::{owned_seeds, sim_invariant_descending};

/// Which strategy drives the `relax` action.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SsspStrategy {
    /// The paper's `fixed_point` strategy: re-run `relax` at every
    /// dependent vertex until quiescent — a chaotic-relaxation
    /// Bellman–Ford.
    FixedPoint,
    /// The paper's `delta` strategy: epoch-per-bucket Δ-stepping
    /// (`delta_stepping` with k = 1).
    Delta(f64),
    /// The §III-D asynchronous Δ-stepping: one bucket window over every
    /// bucket, so usually one epoch; each rank hears the network between
    /// buckets and ends the epoch with `try_finish` (`delta_stepping`
    /// with k = `usize::MAX`).
    DeltaAsync(f64),
    /// Δ-stepping with the §II-A light/heavy edge split: light edges
    /// settle the current bucket, heavy edges fire once per settled
    /// vertex. Installs two weight-guarded variants of the relax pattern.
    DeltaSplit(f64),
}

/// The declaration plus the handles [`Sssp::install`] reads it back by.
struct Decl {
    pattern: PatternBuilder,
    dist: Prop<AtomicVertexMap<f64>>,
    weight: Prop<EdgeMap<f64>>,
    relax: ActionId,
}

fn declare() -> Decl {
    let mut p = PatternBuilder::new("sssp");
    let dist = p.vertex_property("dist", f64::INFINITY);
    let weight = p.edge_property::<f64>("weight");
    let relax = p.action(patterns::relax(dist.id(), weight.id()));
    Decl {
        pattern: p,
        dist,
        weight,
        relax,
    }
}

/// `pattern SSSP { dist; weight; relax; relax_light; relax_heavy }`.
///
/// [`Sssp::install`] installs the properties and `relax`. The §II-A
/// light/heavy pair takes Δ, a run-time argument, so [`Sssp::run`] adds
/// the pair it drives on demand; here it is declared at Δ = 1 so lint and
/// the registry see both shapes.
pub fn pattern() -> PatternBuilder {
    let Decl {
        mut pattern,
        dist,
        weight,
        ..
    } = declare();
    pattern.action(patterns::relax_light(dist.id(), weight.id(), 1.0));
    pattern.action(patterns::relax_heavy(dist.id(), weight.id(), 1.0));
    pattern
}

/// An installed SSSP pattern: maps registered, action compiled.
pub struct Sssp {
    /// The engine the pattern is registered with.
    pub engine: PatternEngine,
    /// Tentative/final distances.
    pub dist: AtomicVertexMap<f64>,
    /// The relax action (drive it with any strategy).
    pub relax: ActionId,
    dist_id: dgp_core::ir::MapId,
    weight_id: dgp_core::ir::MapId,
}

impl Sssp {
    /// Collectively install the SSSP pattern on a fresh engine.
    pub fn install(
        ctx: &AmCtx,
        graph: &DistGraph,
        weights: &EdgeMap<f64>,
        cfg: EngineConfig,
    ) -> Sssp {
        let mut d = declare();
        d.pattern.bind(d.weight, weights);
        let installed = d
            .pattern
            .install(ctx, graph, cfg)
            .expect("sssp pattern installs");
        Sssp {
            dist: installed.map(d.dist),
            engine: installed.engine,
            relax: d.relax,
            dist_id: d.dist.id(),
            weight_id: d.weight.id(),
        }
    }

    /// Install the simulator's mid-run check against `truth` (sequential
    /// Dijkstra from the source about to be run): tentative distances never
    /// undercut the true shortest distance and never increase.
    pub fn sim_invariant(&self, ctx: &AmCtx, truth: &[f64]) {
        sim_invariant_descending(ctx, &self.dist, "dist", truth, f64::INFINITY, |a, b| {
            a < b - 1e-9
        });
    }

    /// Run from `source` with `strategy`. Collective. The `dist` map holds
    /// the result afterwards.
    ///
    /// ```text
    /// using pattern SSSP;
    /// for (v in V) dist[v] = ∞;
    /// dist[s] = 0;
    /// fixed_point(relax, {s});
    /// ```
    pub fn run(&self, ctx: &AmCtx, source: VertexId, strategy: SsspStrategy) {
        let rank = ctx.rank();
        self.dist.fill_local(rank, f64::INFINITY);
        if self.engine.graph().owner(source) == rank {
            self.dist.set(rank, source, 0.0);
        }
        let seeds = owned_seeds(ctx, self.engine.graph(), &[source]);
        match strategy {
            SsspStrategy::FixedPoint => {
                strategies::fixed_point(ctx, &self.engine, self.relax, &seeds);
            }
            SsspStrategy::Delta(d) => {
                strategies::delta_stepping(ctx, &self.engine, self.relax, &seeds, &self.dist, d, 1);
            }
            SsspStrategy::DeltaAsync(d) => {
                strategies::delta_stepping(
                    ctx,
                    &self.engine,
                    self.relax,
                    &seeds,
                    &self.dist,
                    d,
                    usize::MAX,
                );
            }
            SsspStrategy::DeltaSplit(d) => {
                // The split needs weight-guarded pattern variants; install
                // them on demand (collective: every rank takes this path).
                let light = self
                    .engine
                    .add_action(patterns::relax_light(self.dist_id, self.weight_id, d))
                    .expect("relax_light compiles");
                let heavy = self
                    .engine
                    .add_action(patterns::relax_heavy(self.dist_id, self.weight_id, d))
                    .expect("relax_heavy compiles");
                strategies::delta_stepping_split(
                    ctx,
                    &self.engine,
                    light,
                    heavy,
                    &seeds,
                    &self.dist,
                    d,
                );
            }
        }
    }
}

/// Convenience: install + run + snapshot (runs inside a machine).
pub fn sssp(
    ctx: &AmCtx,
    graph: &DistGraph,
    weights: &EdgeMap<f64>,
    source: VertexId,
    strategy: SsspStrategy,
) -> AtomicVertexMap<f64> {
    let s = Sssp::install(ctx, graph, weights, EngineConfig::default());
    s.run(ctx, source, strategy);
    s.dist
}
