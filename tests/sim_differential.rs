//! The simulator against the threaded machine, one family at a time: each
//! test is a slice of the conformance matrix's simulator cells
//! (`common::sweep`) on its own rank count, schedule seeds and plan, so
//! every simulated run checks the row's oracle and agrees with the row's
//! threaded inproc answer (bit for bit for the fixed points, round counts
//! included).

mod common;

use common::{machine, row, sweep, timeline, Delivery, ENGINES};
use dgp::prelude::*;
use dgp_algorithms::registry::Answer;
use dgp_am::SimPlan;

const SEEDS: [u64; 3] = [1, 42, 0xD15C0];

/// The row `name` on `ranks` ranks under each plan, at `engines`.
fn sims(
    name: &str,
    ranks: usize,
    plans: impl IntoIterator<Item = SimPlan>,
    engines: &[(Exec, PlanMode)],
) -> Vec<Outcome<Answer>> {
    let deliveries: Vec<_> = (plans.into_iter().enumerate())
        .map(|(i, plan)| {
            let name = format!("sim plan {i} on {ranks} ranks");
            Delivery::new(name, machine(ranks, TransportKind::Inproc)).sim(plan)
        })
        .collect();
    sweep([row(name)], &deliveries, engines)
}

#[test]
fn sssp_sim_matches_threaded_bitwise() {
    let plans = SEEDS.map(|s| SimPlan::new(s).latency(800).jitter(2_500));
    sims("sssp/fixed-point", 4, plans, &ENGINES[..1]);
}

#[test]
fn sssp_delta_sim_matches_threaded_bitwise() {
    let plans = SEEDS.map(|s| SimPlan::new(s).latency(300).per_msg(25));
    sims("sssp/delta", 3, plans, &ENGINES[..1]);
}

#[test]
fn cc_sim_matches_threaded_bitwise() {
    let plans = SEEDS.map(|s| SimPlan::new(s).latency(1_200).jitter(900));
    sims("cc", 4, plans, &ENGINES[..1]);
}

#[test]
fn bfs_sim_matches_threaded_and_sequential() {
    sims(
        "bfs",
        4,
        [SimPlan::new(42).latency(800).jitter(2_500)],
        &ENGINES[..1],
    );
}

/// Mask *and* round count survive the simulator's reordering.
#[test]
fn kcore_sim_matches_threaded_and_sequential() {
    sims(
        "kcore",
        3,
        [SimPlan::new(42).latency(600).jitter(3_000)],
        &ENGINES[..1],
    );
}

#[test]
fn remaining_families_complete_under_the_simulator() {
    for name in ["coloring", "mis", "betweenness", "pagerank", "paths"] {
        sims(
            name,
            3,
            [SimPlan::new(11).latency(500).jitter(2_000)],
            &ENGINES[..1],
        );
    }
}

/// The same plan gives the same timeline twice, another seed another.
#[test]
fn sim_schedule_is_reproducible_end_to_end() {
    let plans = [7, 7, 8].map(|s| SimPlan::new(s).latency(500).jitter(4_000));
    let outs = sims("sssp/fixed-point", 4, plans, &ENGINES[..1]);
    assert_eq!(
        timeline(&outs[0]),
        timeline(&outs[1]),
        "one seed, two timelines"
    );
    assert_ne!(
        timeline(&outs[0]).3,
        timeline(&outs[2]).3,
        "two seeds, one schedule"
    );
}

/// The reference interpreter runs under the simulator when asked, and it
/// filters nothing through the dominance cache.
#[test]
fn sim_honours_the_engine_configuration() {
    let plan = SimPlan::new(9).latency(400).jitter(1_000);
    let outs = sims("sssp/fixed-point", 3, [plan], &ENGINES[2..]);
    assert!(
        outs.iter().all(|o| o.stats.cache_hits == 0),
        "the compiled executor ran"
    );
}

/// Compiled cells must drop dominated relaxes (`sweep` asserts it) and
/// agree bit for bit with the reference cells beside them.
#[test]
fn sssp_dominance_cache_is_exact_under_the_simulator() {
    let plans = SEEDS.map(|s| SimPlan::new(s).latency(600).jitter(3_000));
    sims("sssp/delta", 3, plans, &[ENGINES[0], ENGINES[2]]);
}
