//! The one entry point: build the machine, distribute the graph, run,
//! return the result with the machine's statistics.
//!
//! There is one way to run a family: a [`Run`] names the machine
//! ([`MachineConfig`]: ranks, transport, faults, ...), the engine
//! ([`EngineConfig`]: plan mode, executor, ...) and — optionally — a
//! [`SimPlan`], which swaps the free-running threads for the
//! deterministic discrete-event simulator ([`Machine::run_sim`]: modeled
//! links, seeded schedule, exact reproducibility at thousands of ranks).
//! It has one method per family, all nine of them, each returning
//! `Result<`[`Outcome`]`, `[`RunError`]`>`: the rank-0 result plus the
//! machine's statistics, per-epoch profiles and (simulated runs) the
//! [`SimReport`]; or the [`MachineError`] with its automatic post-mortem.
//! Neither machine hangs or panics on a failed run.
//!
//! Under a `SimPlan`, SSSP, CC and PageRank also install their mid-run
//! invariant (`Sssp::sim_invariant` and friends), checked at every
//! checkpoint the plan's cadence selects; a violation fails the run as
//! [`MachineError::InvariantViolated`].
//!
//! For finer control (strategies, engine counters) use the per-algorithm
//! modules inside your own [`Machine::run`].

use dgp_am::{
    AmCtx, EpochProfile, Machine, MachineConfig, MachineError, PostMortem, SimPlan, SimReport,
    StatsSnapshot,
};
use dgp_core::EngineConfig;
use dgp_graph::properties::EdgeMap;
use dgp_graph::{DistGraph, Distribution, EdgeList, VertexId};

use crate::paths::PathTree;
use crate::sssp::SsspStrategy;

/// One run: which machine, which engine, threads or simulator. Rank
/// count, transport, fault plan and the rest come from `machine`; plan
/// mode and executor from `engine`.
#[derive(Debug, Clone)]
pub struct Run {
    /// The machine the family runs on (rank count is taken from here).
    pub machine: MachineConfig,
    /// The engine configuration every rank installs the family with.
    pub engine: EngineConfig,
    /// `Some`: run under the deterministic simulator with this schedule
    /// (requires `machine.threads_per_rank == 1`). `None`: free-running
    /// threads.
    pub sim: Option<SimPlan>,
}

/// What a successful [`Run`] returns.
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
    /// The simulator's report (virtual time, event counts, flight digest);
    /// `None` on threads.
    pub report: Option<SimReport>,
}

impl<T> Outcome<T> {
    /// The same outcome with its result mapped by `f`.
    pub(crate) fn map<U>(self, f: impl FnOnce(T) -> U) -> Outcome<U> {
        Outcome {
            result: f(self.result),
            stats: self.stats,
            profiles: self.profiles,
            report: self.report,
        }
    }
}

/// Why a [`Run`] failed, on either machine.
#[derive(Debug)]
pub struct RunError {
    /// The first recorded failure.
    pub error: MachineError,
    /// The automatic post-mortem assembled from the frozen flight rings.
    pub postmortem: Box<PostMortem>,
    /// Simulation state at the failure (virtual time, counters, digest);
    /// `None` on threads.
    pub report: Option<SimReport>,
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.error)?;
        if let Some(r) = &self.report {
            write!(
                f,
                " (at virtual t={}ns after {} deliveries)",
                r.virtual_time_ns, r.deliveries
            )?;
        }
        Ok(())
    }
}

impl std::error::Error for RunError {}

/// A [`Run`]'s result. The error is boxed: it carries the machine
/// error, the post-mortem and, simulated, the [`SimReport`].
pub type RunResult<T> = Result<Outcome<T>, Box<RunError>>;

impl Run {
    /// `ranks` default-configured ranks, default engine, threads.
    pub fn new(ranks: usize) -> Run {
        Run::on(MachineConfig::new(ranks))
    }

    /// A caller-supplied machine (transport, faults, coalescing, ...),
    /// default engine, threads.
    pub fn on(machine: MachineConfig) -> Run {
        Run {
            machine,
            engine: EngineConfig::default(),
            sim: None,
        }
    }

    /// The same run under the deterministic simulator, scheduled by
    /// `plan`.
    pub fn sim(mut self, plan: SimPlan) -> Run {
        self.sim = Some(plan);
        self
    }

    fn distribute(&self, el: &EdgeList) -> DistGraph {
        let dist = Distribution::block(el.num_vertices(), self.machine.ranks);
        DistGraph::build(el, dist, false)
    }

    /// Run `family` (install + run, returning its state) on every rank of
    /// the threaded or simulated machine and `collect` rank 0's view.
    fn drive<S, T: Send>(
        &self,
        family: impl Fn(&AmCtx, EngineConfig) -> S + Send + Sync,
        collect: impl Fn(S) -> T + Send + Sync,
    ) -> RunResult<T> {
        let engine = self.engine;
        let body = |ctx: &AmCtx| {
            let state = family(ctx, engine);
            (ctx.rank() == 0).then(|| (collect(state), ctx.stats(), ctx.epoch_profiles()))
        };
        let (mut ranks, report) = match &self.sim {
            None => {
                let ranks = Machine::try_run_diagnosed(self.machine.clone(), body).map_err(
                    |(error, postmortem)| RunError {
                        error,
                        postmortem,
                        report: None,
                    },
                )?;
                (ranks, None)
            }
            Some(plan) => {
                let run =
                    Machine::run_sim(self.machine.clone(), plan.clone(), body).map_err(|e| {
                        RunError {
                            error: e.error,
                            postmortem: e.postmortem,
                            report: Some(e.report),
                        }
                    })?;
                (run.results, Some(run.report))
            }
        };
        let (result, stats, profiles) = ranks[0].take().expect("rank 0 reports");
        Ok(Outcome {
            result,
            stats,
            profiles,
            report,
        })
    }

    /// Distributed SSSP. The edge list must be weighted. Distances in
    /// vertex order. Simulated runs check tentative distances against
    /// sequential Dijkstra mid-run.
    pub fn sssp(
        &self,
        el: &EdgeList,
        source: VertexId,
        strategy: SsspStrategy,
    ) -> RunResult<Vec<f64>> {
        let graph = self.distribute(el);
        let weights = EdgeMap::from_weights(&graph, el);
        // The oracle is only worth computing when a simulator checks it.
        let truth = self.sim.is_some().then(|| crate::seq::dijkstra(el, source));
        self.drive(
            |ctx, cfg| {
                let s = crate::sssp::Sssp::install(ctx, &graph, &weights, cfg);
                if let Some(truth) = &truth {
                    s.sim_invariant(ctx, truth);
                }
                s.run(ctx, source, strategy);
                s.dist
            },
            |dist| dist.snapshot(),
        )
    }

    /// Distributed connected components (parallel search). The edge list
    /// is symmetrized internally. Min-vertex-id component labels.
    /// Simulated runs check labels against union-find mid-run.
    pub fn cc(&self, el: &EdgeList) -> RunResult<Vec<u64>> {
        let sym = symmetrized(el);
        let graph = self.distribute(&sym);
        let truth = self.sim.is_some().then(|| crate::seq::cc_labels(&sym));
        self.drive(
            |ctx, cfg| {
                let c = crate::cc::Cc::install(ctx, &graph, cfg);
                if let Some(truth) = &truth {
                    c.sim_invariant(ctx, truth);
                }
                c.run(ctx);
                c.comp
            },
            |comp| comp.snapshot(),
        )
    }

    /// Distributed BFS levels (`u64::MAX` = unreached).
    pub fn bfs(&self, el: &EdgeList, source: VertexId) -> RunResult<Vec<u64>> {
        let graph = self.distribute(el);
        self.drive(
            |ctx, cfg| {
                let b = crate::bfs::Bfs::install(ctx, &graph, cfg);
                b.run(ctx, source);
                b.level
            },
            |level| level.snapshot(),
        )
    }

    /// Distributed PageRank (`damping` typically 0.85). Simulated runs
    /// check every tentative rank stays finite and non-negative.
    pub fn pagerank(&self, el: &EdgeList, damping: f64, iterations: usize) -> RunResult<Vec<f64>> {
        let graph = self.distribute(el);
        self.drive(
            |ctx, cfg| {
                let p = crate::pagerank::PageRank::install(ctx, &graph, damping, cfg);
                p.sim_invariant(ctx);
                p.run(ctx, iterations);
                p.rank
            },
            |rank| rank.snapshot(),
        )
    }

    /// Distributed k-core (edge list symmetrized internally): the
    /// membership mask and the number of peeling rounds.
    pub fn kcore(&self, el: &EdgeList, k: u64) -> RunResult<(Vec<bool>, usize)> {
        let graph = self.distribute(&symmetrized(el));
        self.drive(
            |ctx, cfg| crate::kcore::kcore(ctx, &graph, k, cfg),
            |(mask, rounds)| (mask.snapshot(), rounds),
        )
    }

    /// Distributed greedy coloring (edge list symmetrized internally):
    /// per-vertex colors and the number of rounds. Max degree must be
    /// < 63.
    pub fn coloring(&self, el: &EdgeList) -> RunResult<(Vec<u64>, usize)> {
        let graph = self.distribute(&symmetrized(el));
        self.drive(
            |ctx, cfg| crate::coloring::color_greedy(ctx, &graph, cfg),
            |(colors, rounds)| (colors.snapshot(), rounds),
        )
    }

    /// Distributed maximal independent set (Luby; edge list symmetrized
    /// internally): the membership mask and the number of rounds. `seed`
    /// fixes the per-vertex priorities.
    pub fn mis(&self, el: &EdgeList, seed: u64) -> RunResult<(Vec<bool>, usize)> {
        let graph = self.distribute(&symmetrized(el));
        self.drive(
            |ctx, cfg| crate::mis::mis(ctx, &graph, seed, cfg),
            |(mask, rounds)| (mask.snapshot(), rounds),
        )
    }

    /// Distributed betweenness centrality (Brandes; unweighted, directed,
    /// endpoints excluded) accumulated over `sources`.
    pub fn betweenness(&self, el: &EdgeList, sources: &[VertexId]) -> RunResult<Vec<f64>> {
        let graph = self.distribute(el);
        self.drive(
            |ctx, cfg| crate::betweenness::betweenness(ctx, &graph, sources, cfg),
            |bc| bc.snapshot(),
        )
    }

    /// Distributed SSSP with its shortest-path structure: distances, the
    /// parent tree and the predecessor sets of the shortest-path DAG. The
    /// edge list must be weighted.
    pub fn paths(&self, el: &EdgeList, source: VertexId) -> RunResult<PathTree> {
        let graph = self.distribute(el);
        let weights = EdgeMap::from_weights(&graph, el);
        self.drive(
            |ctx, cfg| {
                let s = crate::paths::SsspPaths::install(ctx, &graph, &weights, cfg);
                s.run(ctx, source);
                s
            },
            |s| s.snapshot(),
        )
    }
}

/// The unweighted, symmetric version of `el` the undirected families run
/// on.
pub(crate) fn symmetrized(el: &EdgeList) -> EdgeList {
    let mut sym = el.clone();
    sym.weights = None;
    sym.symmetrize();
    sym
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
            let got = Run::new(ranks)
                .sssp(&el, 0, SsspStrategy::FixedPoint)
                .unwrap()
                .result;
            assert_dists_eq(&got, &expect);
        }
    }

    #[test]
    fn sssp_delta_matches_dijkstra() {
        let mut el = generators::erdos_renyi(200, 1200, 8);
        el.randomize_weights(0.5, 3.0, 9);
        let expect = seq::dijkstra(&el, 5);
        let got = Run::new(4)
            .sssp(&el, 5, SsspStrategy::Delta(1.0))
            .unwrap()
            .result;
        assert_dists_eq(&got, &expect);
    }

    #[test]
    fn sssp_delta_async_matches_dijkstra() {
        let mut el = generators::erdos_renyi(150, 900, 10);
        el.randomize_weights(0.5, 3.0, 11);
        let expect = seq::dijkstra(&el, 0);
        let got = Run::new(3)
            .sssp(&el, 0, SsspStrategy::DeltaAsync(2.0))
            .unwrap()
            .result;
        assert_dists_eq(&got, &expect);
    }

    #[test]
    fn cc_matches_union_find() {
        let el = generators::component_blobs(5, 40, 2, 17);
        let expect = seq::cc_labels(&el);
        for ranks in [1, 4] {
            let got = Run::new(ranks).cc(&el).unwrap().result;
            assert_eq!(got, expect, "ranks={ranks}");
        }
    }

    #[test]
    fn bfs_matches_reference() {
        let el = generators::rmat(7, 6, generators::RmatParams::GRAPH500, 30);
        let expect = dgp_graph::analysis::bfs_levels(&el, 0);
        let got = Run::new(3).bfs(&el, 0).unwrap().result;
        assert_eq!(got, expect);
    }

    #[test]
    fn pagerank_matches_reference() {
        let el = generators::rmat(6, 6, generators::RmatParams::GRAPH500, 31);
        let expect = seq::pagerank(&el, 0.85, 20);
        let got = Run::new(3).pagerank(&el, 0.85, 20).unwrap().result;
        for (i, (x, y)) in got.iter().zip(&expect).enumerate() {
            assert!((x - y).abs() < 1e-6, "vertex {i}: {x} vs {y}");
        }
    }
}
