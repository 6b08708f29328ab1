//! Differential validation of the discrete-event simulator: the same
//! algorithm, graph, and machine configuration must produce *bit-identical*
//! results under the simulator and the threaded machine — the same
//! [`Run`], with and without a [`SimPlan`] — across schedule seeds and
//! both termination modes. SSSP, CC, BFS and k-core converge to fixed
//! points that do not depend on delivery order, so their results are
//! schedule-independent down to the last bit — any divergence means the
//! simulator's delivery seam changed what the handlers computed, not just
//! when.

use dgp_algorithms::betweenness::betweenness_seq;
use dgp_algorithms::coloring::validate_coloring;
use dgp_algorithms::mis::validate_mis;
use dgp_algorithms::{kcore::kcore_seq, seq, Run, SsspStrategy};
use dgp_am::{MachineConfig, SimPlan, TerminationMode};
use dgp_graph::{analysis, generators};

fn cfg(ranks: usize, term: TerminationMode) -> MachineConfig {
    MachineConfig::new(ranks).termination(term)
}

const MODES: [TerminationMode; 2] = [
    TerminationMode::SharedCounters,
    TerminationMode::FourCounterWave,
];
const SEEDS: [u64; 3] = [1, 42, 0xD15C0];

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn sssp_sim_matches_threaded_bitwise() {
    let mut el = generators::rmat(7, 8, generators::RmatParams::GRAPH500, 21);
    el.randomize_weights(0.5, 3.0, 4);
    for term in MODES {
        let run = Run::on(cfg(4, term));
        let reference = run
            .sssp(&el, 0, SsspStrategy::FixedPoint)
            .expect("threaded run")
            .result;
        for seed in SEEDS {
            let plan = SimPlan::new(seed).latency(800).jitter(2_500);
            let got = run
                .clone()
                .sim(plan)
                .sssp(&el, 0, SsspStrategy::FixedPoint)
                .expect("sim run");
            let report = got.report.expect("simulated runs carry a report");
            assert!(report.deliveries > 0, "simulated links were exercised");
            assert!(
                bits(&reference) == bits(&got.result),
                "SSSP diverged under {term:?} seed {seed}"
            );
        }
    }
}

#[test]
fn sssp_delta_sim_matches_threaded_bitwise() {
    let mut el = generators::erdos_renyi(200, 1200, 8);
    el.randomize_weights(0.5, 3.0, 9);
    let run = Run::on(cfg(3, TerminationMode::SharedCounters));
    let reference = run
        .sssp(&el, 5, SsspStrategy::Delta(1.0))
        .expect("threaded run")
        .result;
    for seed in SEEDS {
        let plan = SimPlan::new(seed).latency(300).per_msg(25);
        let got = run
            .clone()
            .sim(plan)
            .sssp(&el, 5, SsspStrategy::Delta(1.0))
            .expect("sim run")
            .result;
        assert!(
            bits(&reference) == bits(&got),
            "delta-stepping diverged at seed {seed}"
        );
    }
}

#[test]
fn cc_sim_matches_threaded_bitwise() {
    let el = generators::component_blobs(5, 40, 2, 17);
    for term in MODES {
        let run = Run::on(cfg(4, term));
        let reference = run.cc(&el).expect("threaded run").result;
        for seed in SEEDS {
            let plan = SimPlan::new(seed).latency(1_200).jitter(900);
            let got = run.clone().sim(plan).cc(&el).expect("sim run").result;
            assert_eq!(got, reference, "CC diverged under {term:?} seed {seed}");
        }
    }
}

/// BFS levels are a min fixed point like SSSP: one jittered schedule per
/// termination mode, against the threaded run and the sequential BFS.
#[test]
fn bfs_sim_matches_threaded_and_sequential() {
    let el = generators::rmat(7, 6, generators::RmatParams::GRAPH500, 30);
    let oracle = analysis::bfs_levels(&el, 0);
    for term in MODES {
        let run = Run::on(cfg(4, term));
        let reference = run.bfs(&el, 0).expect("threaded run").result;
        assert_eq!(reference, oracle, "threaded BFS under {term:?}");
        let plan = SimPlan::new(42).latency(800).jitter(2_500);
        let got = run.sim(plan).bfs(&el, 0).expect("sim run");
        assert!(got.report.expect("sim report").deliveries > 0);
        assert_eq!(got.result, reference, "BFS diverged under {term:?}");
    }
}

/// k-core peeling is round-synchronized (`once` + a global OR per round):
/// mask *and* round count must survive the simulator's reordering.
#[test]
fn kcore_sim_matches_threaded_and_sequential() {
    let mut el = generators::erdos_renyi(120, 500, 2);
    el.simplify();
    let mut sym = el.clone();
    sym.symmetrize();
    let oracle = kcore_seq(&sym, 3);
    for term in MODES {
        let run = Run::on(cfg(3, term));
        let reference = run.kcore(&el, 3).expect("threaded run").result;
        assert_eq!(reference.0, oracle, "threaded k-core under {term:?}");
        let plan = SimPlan::new(42).latency(600).jitter(3_000);
        let got = run.sim(plan).kcore(&el, 3).expect("sim run");
        assert!(got.report.expect("sim report").deliveries > 0);
        assert_eq!(got.result, reference, "k-core diverged under {term:?}");
    }
}

/// The five families with no threaded-vs-sim bit-identity test above also
/// run to completion under the simulator — all nine do — each checked
/// against its validator or sequential reference.
#[test]
fn remaining_families_complete_under_the_simulator() {
    let run = Run::new(3).sim(SimPlan::new(11).latency(500).jitter(2_000));
    let close = |got: &[f64], want: &[f64], tol: f64, what: &str| {
        for (v, (a, b)) in got.iter().zip(want).enumerate() {
            let same =
                (a - b).abs() < tol * (1.0 + b.abs()) || (a.is_infinite() && b.is_infinite());
            assert!(same, "{what}: vertex {v}: {a} vs {b}");
        }
    };

    let mut und = generators::erdos_renyi(90, 300, 4);
    und.simplify();
    let mut sym = und.clone();
    sym.symmetrize();
    let (colors, _) = run.coloring(&und).expect("coloring under sim").result;
    validate_coloring(&sym, &colors).unwrap();
    let (mask, _) = run.mis(&und, 7).expect("mis under sim").result;
    validate_mis(&sym, &mask).unwrap();

    let sources: Vec<u64> = (0..und.num_vertices()).step_by(9).collect();
    let bc = run
        .betweenness(&und, &sources)
        .expect("betweenness under sim");
    close(
        &bc.result,
        &betweenness_seq(&und, &sources),
        1e-9,
        "betweenness",
    );

    let pr = run.pagerank(&und, 0.85, 10).expect("pagerank under sim");
    close(&pr.result, &seq::pagerank(&und, 0.85, 10), 1e-6, "pagerank");

    let mut weighted = und.clone();
    weighted.randomize_weights(0.5, 3.0, 8);
    let tree = run.paths(&weighted, 0).expect("paths under sim").result;
    close(&tree.dist, &seq::dijkstra(&weighted, 0), 1e-9, "paths");
    assert!(tree.parent[0].is_none(), "the source has no parent");
}

/// The schedule itself must be exactly reproducible: same plan, same
/// flight-recorder digest and event counts, twice in a row.
#[test]
fn sim_schedule_is_reproducible_end_to_end() {
    let mut el = generators::erdos_renyi(120, 700, 3);
    el.randomize_weights(0.5, 3.0, 7);
    let run = |seed: u64| {
        let plan = SimPlan::new(seed).latency(500).jitter(4_000);
        let out = Run::on(cfg(4, TerminationMode::SharedCounters))
            .sim(plan)
            .sssp(&el, 0, SsspStrategy::FixedPoint)
            .expect("sim run");
        let report = out.report.expect("simulated runs carry a report");
        (
            bits(&out.result),
            report.deliveries,
            report.events,
            report.virtual_time_ns,
            report.flight_digest,
        )
    };
    assert_eq!(run(7), run(7), "identical seeds must replay identically");
    let a = run(7);
    let b = run(8);
    assert_eq!(a.0, b.0, "results are schedule-independent");
    assert_ne!(a.4, b.4, "different seeds explore different schedules");
}

/// The sim runners used to hard-code `EngineConfig::default()`; the one
/// driver installs `Run::engine` on either machine, so the reference
/// interpreter runs under the simulator too — and agrees with Dijkstra.
#[test]
fn sim_honours_the_engine_configuration() {
    let mut el = generators::erdos_renyi(80, 400, 5);
    el.randomize_weights(0.5, 3.0, 6);
    let run = Run {
        engine: dgp_core::EngineConfig {
            exec: dgp_core::Exec::Reference,
            ..Default::default()
        },
        ..Run::new(3).sim(SimPlan::new(9).latency(400).jitter(1_000))
    };
    let got = run.sssp(&el, 0, SsspStrategy::FixedPoint).expect("sim run");
    for (v, (a, b)) in got.result.iter().zip(seq::dijkstra(&el, 0)).enumerate() {
        assert!(
            (a - b).abs() < 1e-9 || (a.is_infinite() && b.is_infinite()),
            "vertex {v}: {a} vs {b}"
        );
    }
}
