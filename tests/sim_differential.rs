//! Differential validation of the discrete-event simulator: the same
//! algorithm, graph, and machine configuration must produce *bit-identical*
//! results under the simulator ([`Machine::run_sim`]) and the threaded
//! machine ([`Machine::run`]), across schedule seeds and both termination
//! modes. SSSP and CC converge to min-fixed-points, so their results are
//! schedule-independent down to the last bit — any divergence means the
//! simulator's delivery seam changed what the handlers computed, not just
//! when.

use dgp_algorithms::api::{run_cc_sim, run_sssp_sim};
use dgp_algorithms::{Run, SsspStrategy};
use dgp_am::{MachineConfig, SimPlan, TerminationMode};
use dgp_graph::generators;

fn cfg(ranks: usize, term: TerminationMode) -> MachineConfig {
    MachineConfig::new(ranks).termination(term)
}

const MODES: [TerminationMode; 2] = [
    TerminationMode::SharedCounters,
    TerminationMode::FourCounterWave,
];
const SEEDS: [u64; 3] = [1, 42, 0xD15C0];

#[test]
fn sssp_sim_matches_threaded_bitwise() {
    let mut el = generators::rmat(7, 8, generators::RmatParams::GRAPH500, 21);
    el.randomize_weights(0.5, 3.0, 4);
    for term in MODES {
        let reference = Run::on(cfg(4, term))
            .sssp(&el, 0, SsspStrategy::FixedPoint)
            .result;
        for seed in SEEDS {
            let plan = SimPlan::new(seed).latency(800).jitter(2_500);
            let (got, report) = run_sssp_sim(&el, cfg(4, term), plan, 0, SsspStrategy::FixedPoint)
                .expect("sim run");
            assert!(report.deliveries > 0, "simulated links were exercised");
            let same = reference.len() == got.len()
                && reference
                    .iter()
                    .zip(&got)
                    .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "SSSP diverged under {term:?} seed {seed}");
        }
    }
}

#[test]
fn sssp_delta_sim_matches_threaded_bitwise() {
    let mut el = generators::erdos_renyi(200, 1200, 8);
    el.randomize_weights(0.5, 3.0, 9);
    let reference = Run::on(cfg(3, TerminationMode::SharedCounters))
        .sssp(&el, 5, SsspStrategy::Delta(1.0))
        .result;
    for seed in SEEDS {
        let plan = SimPlan::new(seed).latency(300).per_msg(25);
        let (got, _) = run_sssp_sim(
            &el,
            cfg(3, TerminationMode::SharedCounters),
            plan,
            5,
            SsspStrategy::Delta(1.0),
        )
        .expect("sim run");
        let same = reference
            .iter()
            .zip(&got)
            .all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(same, "delta-stepping diverged at seed {seed}");
    }
}

#[test]
fn cc_sim_matches_threaded_bitwise() {
    let el = generators::component_blobs(5, 40, 2, 17);
    for term in MODES {
        let reference = Run::on(cfg(4, term)).cc(&el).result;
        for seed in SEEDS {
            let plan = SimPlan::new(seed).latency(1_200).jitter(900);
            let (got, _) = run_cc_sim(&el, cfg(4, term), plan).expect("sim run");
            assert_eq!(got, reference, "CC diverged under {term:?} seed {seed}");
        }
    }
}

/// The schedule itself must be exactly reproducible: same plan, same
/// flight-recorder digest and event counts, twice in a row.
#[test]
fn sim_schedule_is_reproducible_end_to_end() {
    let mut el = generators::erdos_renyi(120, 700, 3);
    el.randomize_weights(0.5, 3.0, 7);
    let run = |seed: u64| {
        let plan = SimPlan::new(seed).latency(500).jitter(4_000);
        let (dist, report) = run_sssp_sim(
            &el,
            cfg(4, TerminationMode::SharedCounters),
            plan,
            0,
            SsspStrategy::FixedPoint,
        )
        .expect("sim run");
        (
            dist.iter().map(|d| d.to_bits()).collect::<Vec<_>>(),
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
