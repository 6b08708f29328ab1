//! Distributed single-source shortest paths (§II-A): one `relax` pattern,
//! three strategies.

use dgp_am::AmCtx;
use dgp_core::engine::{EngineConfig, PatternEngine};
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
    /// The paper's `delta` strategy: epoch-per-bucket Δ-stepping.
    Delta(f64),
    /// The §III-D asynchronous Δ-stepping: per-rank buckets inside a
    /// single epoch, ended cooperatively with `try_finish`.
    DeltaAsync(f64),
    /// Δ-stepping with the §II-A light/heavy edge split: light edges
    /// settle the current bucket, heavy edges fire once per settled
    /// vertex. Installs two weight-guarded variants of the relax pattern.
    DeltaSplit(f64),
}

/// An installed SSSP pattern: maps registered, action compiled.
pub struct Sssp {
    /// The engine the pattern is registered with.
    pub engine: PatternEngine,
    /// Tentative/final distances.
    pub dist: AtomicVertexMap<f64>,
    /// The relax action (drive it with any strategy).
    pub relax: dgp_core::engine::ActionId,
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
        let engine = PatternEngine::new(ctx, graph.clone(), cfg);
        // One machine-wide map, cloned to every rank (each rank only ever
        // touches its own shard).
        let dist = ctx.share(|| AtomicVertexMap::new(graph.distribution(), f64::INFINITY));
        let dist_id = engine.register_vertex_map(&dist);
        let w_id = engine.register_edge_map(weights);
        let relax = engine
            .add_action(patterns::relax(dist_id, w_id))
            .expect("relax compiles");
        Sssp {
            engine,
            dist,
            relax,
            dist_id,
            weight_id: w_id,
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
        ctx.barrier(); // initialization complete everywhere
        let seeds = owned_seeds(ctx, self.engine.graph(), &[source]);
        match strategy {
            SsspStrategy::FixedPoint => {
                strategies::fixed_point(ctx, &self.engine, self.relax, &seeds);
            }
            SsspStrategy::Delta(d) => {
                strategies::delta_stepping(ctx, &self.engine, self.relax, &seeds, &self.dist, d);
            }
            SsspStrategy::DeltaAsync(d) => {
                strategies::delta_stepping_async(
                    ctx,
                    &self.engine,
                    self.relax,
                    &seeds,
                    &self.dist,
                    d,
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
