//! One-call entry points: build the machine, distribute the graph, run,
//! return plain vectors.
//!
//! There is one way to run a family on the threaded machine: a [`Run`]
//! names the machine ([`MachineConfig`]: ranks, transport, faults, ...)
//! and the engine ([`EngineConfig`]: plan mode, executor, ...), and has
//! one method per family returning an [`Outcome`] — the rank-0 result
//! vector plus the machine's statistics and per-epoch profiles. The plain
//! `run_{sssp,cc,bfs,pagerank,kcore,coloring}` functions are one-line
//! conveniences over `Run::new(ranks)` for callers that only want the
//! vector; the `run_*_sim` functions run under the deterministic
//! simulator with a mid-run invariant checker. For finer control
//! (strategies, engine counters) use the per-algorithm modules inside
//! your own [`dgp_am::Machine::run`].

use dgp_am::{AmCtx, EpochProfile, Machine, MachineConfig, SimPlan, SimReport, StatsSnapshot};
use dgp_core::EngineConfig;
use dgp_graph::properties::{AtomicValue, AtomicVertexMap, EdgeMap};
use dgp_graph::{DistGraph, Distribution, EdgeList, VertexId};
use parking_lot::Mutex;

use crate::sssp::SsspStrategy;

/// One threaded run: which machine, which engine. Rank count, transport,
/// fault plan and the rest come from `machine`; plan mode and executor
/// from `engine`.
#[derive(Debug, Clone)]
pub struct Run {
    /// The machine the family runs on (rank count is taken from here).
    pub machine: MachineConfig,
    /// The engine configuration every rank installs the family with.
    pub engine: EngineConfig,
}

/// What a [`Run`] returns.
#[derive(Debug, Clone)]
pub struct Outcome<T> {
    /// The family's result in vertex order (rank 0's snapshot).
    pub result: T,
    /// The machine's cumulative statistics as seen by rank 0 after the
    /// last epoch — e.g. to assert that fault injection actually happened
    /// (`injected_drops`, `retransmits`, ...).
    pub stats: StatsSnapshot,
    /// One [`EpochProfile`] per machine-wide epoch, in order, carrying
    /// the wall time and counter deltas of that epoch — where a strategy
    /// spends its messages.
    pub profiles: Vec<EpochProfile>,
}

impl Run {
    /// `ranks` default-configured ranks, default engine.
    pub fn new(ranks: usize) -> Run {
        Run::on(MachineConfig::new(ranks))
    }

    /// A caller-supplied machine (transport, faults, termination mode,
    /// ...), default engine.
    pub fn on(machine: MachineConfig) -> Run {
        Run {
            machine,
            engine: EngineConfig::default(),
        }
    }

    fn distribute(&self, el: &EdgeList) -> DistGraph {
        let dist = Distribution::block(el.num_vertices(), self.machine.ranks);
        DistGraph::build(el, dist, false)
    }

    /// Run `family` (install + run, returning its result map) on every
    /// rank and collect rank 0's view.
    fn drive<V: AtomicValue>(
        &self,
        family: impl Fn(&AmCtx, EngineConfig) -> AtomicVertexMap<V> + Send + Sync,
    ) -> Outcome<Vec<V>> {
        let engine = self.engine;
        let mut out = Machine::run(self.machine.clone(), |ctx| {
            let map = family(ctx, engine);
            (ctx.rank() == 0).then(|| Outcome {
                result: map.snapshot(),
                stats: ctx.stats(),
                profiles: ctx.epoch_profiles(),
            })
        });
        out[0].take().expect("rank 0 reports")
    }

    /// Distributed SSSP. The edge list must be weighted. Distances in
    /// vertex order.
    pub fn sssp(
        &self,
        el: &EdgeList,
        source: VertexId,
        strategy: SsspStrategy,
    ) -> Outcome<Vec<f64>> {
        let graph = self.distribute(el);
        let weights = EdgeMap::from_weights(&graph, el);
        self.drive(|ctx, cfg| {
            let s = crate::sssp::Sssp::install(ctx, &graph, &weights, cfg);
            s.run(ctx, source, strategy);
            s.dist
        })
    }

    /// Distributed connected components (parallel search). The edge list
    /// is symmetrized internally. Min-vertex-id component labels.
    pub fn cc(&self, el: &EdgeList) -> Outcome<Vec<u64>> {
        let graph = self.distribute(&symmetrized(el));
        self.drive(|ctx, cfg| crate::cc::cc_with_cfg(ctx, &graph, cfg))
    }

    /// Distributed BFS levels (`u64::MAX` = unreached).
    pub fn bfs(&self, el: &EdgeList, source: VertexId) -> Outcome<Vec<u64>> {
        let graph = self.distribute(el);
        self.drive(|ctx, cfg| {
            let b = crate::bfs::Bfs::install(ctx, &graph, cfg);
            b.run(ctx, source);
            b.level
        })
    }

    /// Distributed PageRank (`damping` typically 0.85).
    pub fn pagerank(&self, el: &EdgeList, damping: f64, iterations: usize) -> Outcome<Vec<f64>> {
        let graph = self.distribute(el);
        self.drive(|ctx, cfg| {
            let p = crate::pagerank::PageRank::install(ctx, &graph, damping, cfg);
            p.run(ctx, iterations);
            p.rank
        })
    }

    /// Distributed k-core membership mask (edge list symmetrized
    /// internally).
    pub fn kcore(&self, el: &EdgeList, k: u64) -> Outcome<Vec<bool>> {
        let graph = self.distribute(&symmetrized(el));
        self.drive(|ctx, cfg| crate::kcore::kcore_with_cfg(ctx, &graph, k, cfg).0)
    }

    /// Distributed greedy coloring (edge list symmetrized internally).
    /// Per-vertex colors; max degree must be < 63.
    pub fn coloring(&self, el: &EdgeList) -> Outcome<Vec<u64>> {
        let graph = self.distribute(&symmetrized(el));
        self.drive(|ctx, cfg| crate::coloring::color_greedy_with_cfg(ctx, &graph, cfg).0)
    }
}

/// The unweighted, symmetric version of `el` the undirected families run
/// on.
fn symmetrized(el: &EdgeList) -> EdgeList {
    let mut sym = el.clone();
    sym.weights = None;
    sym.symmetrize();
    sym
}

/// [`Run::sssp`] on `ranks` default ranks: just the distance vector.
pub fn run_sssp(el: &EdgeList, ranks: usize, source: VertexId, strategy: SsspStrategy) -> Vec<f64> {
    Run::new(ranks).sssp(el, source, strategy).result
}

/// [`Run::cc`] on `ranks` default ranks: just the labels.
pub fn run_cc(el: &EdgeList, ranks: usize) -> Vec<u64> {
    Run::new(ranks).cc(el).result
}

/// [`Run::bfs`] on `ranks` default ranks: just the levels.
pub fn run_bfs(el: &EdgeList, ranks: usize, source: VertexId) -> Vec<u64> {
    Run::new(ranks).bfs(el, source).result
}

/// [`Run::pagerank`] on `ranks` default ranks: just the rank vector.
pub fn run_pagerank(el: &EdgeList, ranks: usize, damping: f64, iterations: usize) -> Vec<f64> {
    Run::new(ranks).pagerank(el, damping, iterations).result
}

/// [`Run::kcore`] on `ranks` default ranks: just the mask.
pub fn run_kcore(el: &EdgeList, ranks: usize, k: u64) -> Vec<bool> {
    Run::new(ranks).kcore(el, k).result
}

/// [`Run::coloring`] on `ranks` default ranks: just the colors.
pub fn run_coloring(el: &EdgeList, ranks: usize) -> Vec<u64> {
    Run::new(ranks).coloring(el).result
}

/// [`Run::sssp`] under the deterministic discrete-event simulator
/// ([`dgp_am::Machine::run_sim`]): modeled links, seeded schedule, exact
/// reproducibility at thousands of ranks. Installs a mid-run
/// `InvariantChecker` that validates, at every checkpoint the plan's
/// cadence selects, that tentative distances (a) never drop below the
/// true shortest distance (precomputed with sequential Dijkstra) and
/// (b) are monotone non-increasing over virtual time. A violation fails
/// the run as [`dgp_am::MachineError::InvariantViolated`] with the
/// offending vertex in the detail string.
pub fn run_sssp_sim(
    el: &EdgeList,
    cfg: MachineConfig,
    plan: SimPlan,
    source: VertexId,
    strategy: SsspStrategy,
) -> Result<(Vec<f64>, SimReport), Box<dgp_am::SimError>> {
    let ranks = cfg.ranks;
    let truth = crate::seq::dijkstra(el, source);
    let dist = Distribution::block(el.num_vertices(), ranks);
    let graph = DistGraph::build(el, dist, false);
    let weights = EdgeMap::from_weights(&graph, el);
    let run = Machine::run_sim(cfg, plan, move |ctx| {
        let s = crate::sssp::Sssp::install(
            ctx,
            &graph,
            &weights,
            dgp_core::engine::EngineConfig::default(),
        );
        if ctx.rank() == 0 {
            let map = s.dist.clone();
            let truth = truth.clone();
            let prev = Mutex::new(vec![f64::INFINITY; truth.len()]);
            ctx.sim_invariant(move |_ic| {
                let snap = map.snapshot();
                let mut prev = prev.lock();
                for (v, (&d, &t)) in snap.iter().zip(&truth).enumerate() {
                    if d < t - 1e-9 {
                        return Err(format!(
                            "dist[{v}] = {d} undercuts true shortest distance {t}"
                        ));
                    }
                    if d > prev[v] + 1e-9 {
                        return Err(format!("dist[{v}] increased: {} -> {d}", prev[v]));
                    }
                }
                prev.copy_from_slice(&snap);
                Ok(())
            });
        }
        s.run(ctx, source, strategy);
        (ctx.rank() == 0).then(|| s.dist.snapshot())
    })?;
    let mut results = run.results;
    Ok((results[0].take().expect("rank 0 reports"), run.report))
}

/// [`Run::cc`] under the deterministic simulator, with a mid-run
/// invariant: component labels start unwritten (`u64::MAX`), only ever
/// decrease, and never drop below the true minimum vertex id of the
/// component (precomputed with union-find).
pub fn run_cc_sim(
    el: &EdgeList,
    cfg: MachineConfig,
    plan: SimPlan,
) -> Result<(Vec<u64>, SimReport), Box<dgp_am::SimError>> {
    let ranks = cfg.ranks;
    let sym = symmetrized(el);
    let truth = crate::seq::cc_labels(&sym);
    let dist = Distribution::block(sym.num_vertices(), ranks);
    let graph = DistGraph::build(&sym, dist, false);
    let run = Machine::run_sim(cfg, plan, move |ctx| {
        let c = crate::cc::Cc::install(ctx, &graph, dgp_core::engine::EngineConfig::default());
        if ctx.rank() == 0 {
            let map = c.comp.clone();
            let truth = truth.clone();
            let prev = Mutex::new(Vec::<u64>::new());
            ctx.sim_invariant(move |_ic| {
                let snap = map.snapshot();
                let mut prev = prev.lock();
                if prev.is_empty() {
                    *prev = vec![u64::MAX; snap.len()];
                }
                for (v, (&l, &t)) in snap.iter().zip(&truth).enumerate() {
                    if l < t {
                        return Err(format!(
                            "label[{v}] = {l} undercuts the component minimum {t}"
                        ));
                    }
                    if l > prev[v] {
                        return Err(format!("label[{v}] increased: {} -> {l}", prev[v]));
                    }
                }
                prev.copy_from_slice(&snap);
                Ok(())
            });
        }
        c.run(ctx);
        (ctx.rank() == 0).then(|| c.comp.snapshot())
    })?;
    let mut results = run.results;
    Ok((results[0].take().expect("rank 0 reports"), run.report))
}

/// [`Run::pagerank`] under the deterministic simulator, with a
/// mid-run invariant: every tentative rank value stays finite and
/// non-negative at every checkpoint.
pub fn run_pagerank_sim(
    el: &EdgeList,
    cfg: MachineConfig,
    plan: SimPlan,
    damping: f64,
    iterations: usize,
) -> Result<(Vec<f64>, SimReport), Box<dgp_am::SimError>> {
    let ranks = cfg.ranks;
    let dist = Distribution::block(el.num_vertices(), ranks);
    let graph = DistGraph::build(el, dist, false);
    let run = Machine::run_sim(cfg, plan, move |ctx| {
        let p = crate::pagerank::PageRank::install(
            ctx,
            &graph,
            damping,
            dgp_core::engine::EngineConfig::default(),
        );
        if ctx.rank() == 0 {
            let map = p.rank.clone();
            ctx.sim_invariant(move |_ic| {
                for (v, x) in map.snapshot().into_iter().enumerate() {
                    if !x.is_finite() || x < -1e-12 {
                        return Err(format!("rank[{v}] = {x} is not a probability mass"));
                    }
                }
                Ok(())
            });
        }
        p.run(ctx, iterations);
        (ctx.rank() == 0).then(|| p.rank.snapshot())
    })?;
    let mut results = run.results;
    Ok((results[0].take().expect("rank 0 reports"), run.report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq;
    use dgp_graph::generators;

    fn assert_dists_eq(a: &[f64], b: &[f64]) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            let ok = (x - y).abs() < 1e-9 || (x.is_infinite() && y.is_infinite());
            assert!(ok, "vertex {i}: {x} vs {y}");
        }
    }

    #[test]
    fn sssp_fixed_point_matches_dijkstra() {
        let mut el = generators::rmat(7, 8, generators::RmatParams::GRAPH500, 21);
        el.randomize_weights(0.5, 3.0, 4);
        let expect = seq::dijkstra(&el, 0);
        for ranks in [1, 3] {
            let got = run_sssp(&el, ranks, 0, SsspStrategy::FixedPoint);
            assert_dists_eq(&got, &expect);
        }
    }

    #[test]
    fn sssp_delta_matches_dijkstra() {
        let mut el = generators::erdos_renyi(200, 1200, 8);
        el.randomize_weights(0.5, 3.0, 9);
        let expect = seq::dijkstra(&el, 5);
        let got = run_sssp(&el, 4, 5, SsspStrategy::Delta(1.0));
        assert_dists_eq(&got, &expect);
    }

    #[test]
    fn sssp_delta_async_matches_dijkstra() {
        let mut el = generators::erdos_renyi(150, 900, 10);
        el.randomize_weights(0.5, 3.0, 11);
        let expect = seq::dijkstra(&el, 0);
        let got = run_sssp(&el, 3, 0, SsspStrategy::DeltaAsync(2.0));
        assert_dists_eq(&got, &expect);
    }

    #[test]
    fn cc_matches_union_find() {
        let el = generators::component_blobs(5, 40, 2, 17);
        let expect = seq::cc_labels(&el);
        for ranks in [1, 4] {
            let got = run_cc(&el, ranks);
            assert_eq!(got, expect, "ranks={ranks}");
        }
    }

    #[test]
    fn bfs_matches_reference() {
        let el = generators::rmat(7, 6, generators::RmatParams::GRAPH500, 30);
        let expect = dgp_graph::analysis::bfs_levels(&el, 0);
        let got = run_bfs(&el, 3, 0);
        assert_eq!(got, expect);
    }

    #[test]
    fn pagerank_matches_reference() {
        let el = generators::rmat(6, 6, generators::RmatParams::GRAPH500, 31);
        let expect = seq::pagerank(&el, 0.85, 20);
        let got = run_pagerank(&el, 3, 0.85, 20);
        for (i, (x, y)) in got.iter().zip(&expect).enumerate() {
            assert!((x - y).abs() < 1e-6, "vertex {i}: {x} vs {y}");
        }
    }
}
