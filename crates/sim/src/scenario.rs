//! Self-contained simulated-run descriptions and their executor.

use dgp_algorithms::{Run, RunResult, SsspStrategy};
use dgp_am::{FaultPlan, MachineConfig, PartitionSpec, SimAt, SimPlan, SimReport};
use dgp_graph::{generators, EdgeList};

/// Which algorithm the scenario runs (each installs its own mid-run
/// invariant checker; see [`dgp_algorithms::Run`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Workload {
    /// Fixed-point SSSP from `source`; checked against Dijkstra mid-run.
    Sssp {
        /// Source vertex.
        source: u64,
    },
    /// Connected components; labels checked against union-find mid-run.
    Cc,
    /// PageRank; values checked finite and non-negative mid-run.
    PageRank {
        /// Power-iteration count.
        iters: usize,
    },
}

/// Which graph the scenario runs on (generated, so a few integers fully
/// describe it).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GraphKind {
    /// Graph500 R-MAT: `2^scale` vertices, `scale << edge_factor` edges.
    Rmat {
        /// log2 of the vertex count.
        scale: u32,
        /// Edges per vertex.
        edge_factor: usize,
    },
    /// Uniform random graph with `n` vertices and `m` edges.
    ErdosRenyi {
        /// Vertex count.
        n: u64,
        /// Edge count.
        m: usize,
    },
    /// `k` dense blobs of `size` vertices each (known components).
    Blobs {
        /// Number of components.
        k: u64,
        /// Vertices per component.
        size: u64,
    },
}

/// One complete description of a simulated run: everything
/// [`run_scenario`] needs, and everything [`crate::to_replay`] writes.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// The algorithm under test.
    pub workload: Workload,
    /// The generated input graph.
    pub graph: GraphKind,
    /// Generator seed (graph structure and weights).
    pub graph_seed: u64,
    /// Simulated rank count.
    pub ranks: usize,
    /// Coalescing buffer capacity ([`MachineConfig::coalescing`]).
    pub coalescing: usize,
    /// Enable the seeded fault plan (reliability layer under test).
    pub faults: bool,
    /// The simulator plan: schedule seed, link model, invariant cadence
    /// and every adversarial element.
    pub plan: SimPlan,
}

impl ScenarioSpec {
    /// A small, healthy baseline: SSSP over an R-MAT graph, 4 ranks,
    /// plain links ([`SimPlan::new`]). Policies and tests perturb from
    /// here.
    pub fn baseline(seed: u64) -> ScenarioSpec {
        ScenarioSpec {
            workload: Workload::Sssp { source: 0 },
            graph: GraphKind::Rmat {
                scale: 6,
                edge_factor: 6,
            },
            graph_seed: 21,
            ranks: 4,
            coalescing: 4,
            faults: false,
            plan: SimPlan::new(seed),
        }
    }

    /// Build the generated edge list (weighted for SSSP).
    pub fn edge_list(&self) -> EdgeList {
        let mut el = match self.graph {
            GraphKind::Rmat { scale, edge_factor } => generators::rmat(
                scale,
                edge_factor,
                generators::RmatParams::GRAPH500,
                self.graph_seed,
            ),
            GraphKind::ErdosRenyi { n, m } => generators::erdos_renyi(n, m, self.graph_seed),
            GraphKind::Blobs { k, size } => {
                generators::component_blobs(k, size, 2, self.graph_seed)
            }
        };
        if matches!(self.workload, Workload::Sssp { .. }) {
            el.randomize_weights(0.5, 3.0, self.graph_seed ^ 0xA5A5);
        }
        el
    }

    /// The machine configuration this scenario describes.
    pub fn machine_config(&self) -> MachineConfig {
        let mut cfg = MachineConfig::new(self.ranks).coalescing(self.coalescing);
        if self.faults {
            cfg = cfg.faults(FaultPlan::new(self.plan.seed ^ 0xFA17));
        }
        cfg
    }
}

/// What happened when a scenario ran.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// `None` on success; the failure rendering otherwise (the
    /// [`dgp_am::MachineError`] Display, invariant details included).
    pub error: Option<String>,
    /// The simulator's run report (frozen at the failure point on error).
    pub report: SimReport,
    /// FNV digest of the result vector's bit patterns (0 on failure) —
    /// what differential assertions compare across schedules.
    pub result_digest: u64,
}

impl Outcome {
    /// Did the run complete with all invariants holding?
    pub fn ok(&self) -> bool {
        self.error.is_none()
    }
}

fn fnv<I: IntoIterator<Item = u64>>(xs: I) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for x in xs {
        h ^= x;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Execute a scenario: generate the graph, build machine + plan, run the
/// workload under the simulator with its invariant checker installed.
/// Infallible at this layer — failures are data ([`Outcome::error`]),
/// which is what exploration and shrinking consume.
pub fn run_scenario(spec: &ScenarioSpec) -> Outcome {
    let el = spec.edge_list();
    let run = Run::on(spec.machine_config()).sim(spec.plan.clone());
    match spec.workload {
        Workload::Sssp { source } => digest(run.sssp(&el, source, SsspStrategy::FixedPoint), |d| {
            d.to_bits()
        }),
        Workload::Cc => digest(run.cc(&el), |&l| l),
        Workload::PageRank { iters } => digest(run.pagerank(&el, 0.85, iters), |r| r.to_bits()),
    }
}

/// Fold one simulated [`Run`] into the scenario [`Outcome`]: the result
/// vector's digest (through `bits`) on success, the error's rendering on
/// failure, the simulator's report either way.
fn digest<V>(run: RunResult<Vec<V>>, bits: impl Fn(&V) -> u64) -> Outcome {
    match run {
        Ok(out) => Outcome {
            error: None,
            report: out.report.expect("simulated runs carry a report"),
            result_digest: fnv(out.result.iter().map(bits)),
        },
        Err(e) => Outcome {
            error: Some(e.error.to_string()),
            report: e.report.expect("simulated runs carry a report"),
            result_digest: 0,
        },
    }
}

/// Re-exported so scenario construction sites can name plan atoms without
/// importing `dgp_am` separately.
pub use dgp_am::PartitionMode;

/// Convenience constructor for a partition spec (the `dgp_am` type's
/// fields are public but verbose to spell).
pub fn partition(cut: &[usize], from: SimAt, until: SimAt, mode: PartitionMode) -> PartitionSpec {
    PartitionSpec {
        cut: cut.to_vec(),
        from,
        until,
        mode,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_runs_clean() {
        let out = run_scenario(&ScenarioSpec::baseline(1));
        assert!(out.ok(), "{:?}", out.error);
        assert!(out.report.deliveries > 0);
        assert_ne!(out.result_digest, 0);
    }

    #[test]
    fn same_spec_same_outcome() {
        let spec = ScenarioSpec::baseline(7);
        let a = run_scenario(&spec);
        let b = run_scenario(&spec);
        assert_eq!(a.result_digest, b.result_digest);
        assert_eq!(a.report.flight_digest, b.report.flight_digest);
        assert_eq!(a.report.virtual_time_ns, b.report.virtual_time_ns);
    }

    #[test]
    fn schedule_seed_changes_timeline_not_results() {
        let mut spec = ScenarioSpec::baseline(1);
        spec.plan.jitter_ns = 5_000;
        let a = run_scenario(&spec);
        spec.plan.seed = 2;
        let b = run_scenario(&spec);
        assert_eq!(
            a.result_digest, b.result_digest,
            "results are schedule-free"
        );
        assert_ne!(
            a.report.flight_digest, b.report.flight_digest,
            "schedules differ"
        );
    }

    /// The reliability layer over a healthy simulated network: an
    /// inject-nothing fault plan must cost acks and nothing else. The
    /// first timeout is floored at the round trip the plan models, so no
    /// packet is resent before its ack could have come back.
    #[test]
    fn healthy_network_never_retransmits() {
        for seed in [1, 2, 3, 17] {
            let spec = ScenarioSpec {
                faults: true,
                ..ScenarioSpec::baseline(seed)
            };
            let run = Run::on(spec.machine_config()).sim(spec.plan.clone());
            let out = run
                .sssp(&spec.edge_list(), 0, SsspStrategy::FixedPoint)
                .expect("healthy run completes");
            let s = out.stats;
            assert_eq!(s.faults_injected(), 0, "seed {seed}: plan injects nothing");
            assert!(s.acks > 0, "seed {seed}: the reliability layer ran");
            assert_eq!(s.retransmits, 0, "seed {seed}: {s:?}");
        }
    }
}
