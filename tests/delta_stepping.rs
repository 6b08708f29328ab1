//! The one ordered Δ driver, `strategies::delta_stepping(…, Δ, k)`:
//! `SsspStrategy::Delta` is its k = 1 end (an epoch per bucket),
//! `SsspStrategy::DeltaAsync` its k = ∞ end (one window over every
//! bucket, the network heard between buckets, the epoch ended by
//! `try_finish`), and any k in between is a valid schedule.

use dgp_algorithms::sssp::Sssp;
use dgp_algorithms::{seq, Run, SsspStrategy};
use dgp_am::{AmCtx, InvariantCadence, Machine, MachineConfig, SimPlan, SimReport};
use dgp_core::obs::GAUGE_RELAXATIONS;
use dgp_core::{strategies, EngineConfig};
use dgp_graph::properties::EdgeMap;
use dgp_graph::{generators, DistGraph, Distribution, EdgeList};

/// A `side × side` grid with the `sssp-grid` benchmark's weights.
fn grid(side: u64) -> EdgeList {
    let mut el = generators::grid2d(side, side);
    el.randomize_weights(0.2, 2.0, 1);
    el
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// Every change a strategy's relaxations make reaches the `relaxations`
/// gauge of some epoch profile — including the changes handled during
/// an epoch's exit, after the body's last publish.
#[test]
fn relaxations_gauge_counts_every_change() {
    let el = grid(64);
    let graph = DistGraph::build(&el, Distribution::block(el.num_vertices(), 2), false);
    let weights = EdgeMap::from_weights(&graph, &el);
    for strategy in [
        SsspStrategy::Delta(1.0),
        SsspStrategy::DeltaAsync(1.0),
        SsspStrategy::DeltaSplit(1.0),
    ] {
        let out = Machine::run(MachineConfig::new(2).threads_per_rank(1), |ctx| {
            let s = Sssp::install(ctx, &graph, &weights, EngineConfig::default());
            let before = s.engine.stats().modifications_changed;
            s.run(ctx, 0, strategy);
            let changed = ctx.sum_ranks(s.engine.stats().modifications_changed - before);
            let gauged: f64 = ctx
                .epoch_profiles()
                .iter()
                .flat_map(|p| &p.gauges)
                .filter(|(name, _)| *name == GAUGE_RELAXATIONS)
                .map(|(_, v)| v)
                .sum();
            (changed, gauged)
        });
        let (changed, gauged) = out[0];
        assert!(changed > 0, "{strategy:?} relaxed nothing");
        assert_eq!(
            gauged, changed as f64,
            "{strategy:?}: the relaxations gauge missed changes"
        );
    }
}

/// The asynchronous end handles what arrived between buckets, so it
/// drains on fresh distances: it sends fewer messages than an epoch per
/// bucket. A rank that only polls after `try_finish` empties all its
/// buckets on stale distances first and sends several times as many.
#[test]
fn async_delta_hears_the_network_between_buckets() {
    let el = grid(100);
    let messages = |strategy| {
        Run::new(2)
            .sssp(&el, 0, strategy)
            .expect("threaded run")
            .stats
            .messages_sent
    };
    let per_bucket = messages(SsspStrategy::Delta(1.0));
    let windowed = messages(SsspStrategy::DeltaAsync(1.0));
    assert!(
        windowed < per_bucket,
        "DeltaAsync sent {windowed} messages, Delta {per_bucket}"
    );
}

/// `Run::sssp`'s body with the driver called directly at window width
/// `k`, under the simulator, with `Sssp::sim_invariant` installed.
fn driver_under_sim(el: &EdgeList, plan: SimPlan, k: usize) -> (Vec<f64>, SimReport) {
    let graph = DistGraph::build(el, Distribution::block(el.num_vertices(), 2), false);
    let weights = EdgeMap::from_weights(&graph, el);
    let truth = seq::dijkstra(el, 0);
    let run = Machine::run_sim(MachineConfig::new(2), plan, |ctx: &AmCtx| {
        let s = Sssp::install(ctx, &graph, &weights, EngineConfig::default());
        s.sim_invariant(ctx, &truth);
        let rank = ctx.rank();
        s.dist.fill_local(rank, f64::INFINITY);
        let seeds: Vec<u64> = (graph.owner(0) == rank).then_some(0).into_iter().collect();
        if !seeds.is_empty() {
            s.dist.set(rank, 0, 0.0);
        }
        ctx.barrier();
        strategies::delta_stepping(ctx, &s.engine, s.relax, &seeds, &s.dist, 1.0, k);
        (rank == 0).then(|| s.dist.snapshot())
    })
    .unwrap_or_else(|e| panic!("k = {k}: {}", e.error));
    let mut results = run.results;
    (results[0].take().expect("rank 0 reports"), run.report)
}

/// k ∈ {1, 4, ∞} under three simulator schedules, one of them
/// reorder-heavy (jitter > latency): distances are bit-identical to
/// Dijkstra, the monotone invariant holds before every delivery, the
/// `SsspStrategy` ends are the driver at k = 1 and k = ∞ event for
/// event, and every schedule replays exactly.
#[test]
fn every_window_width_is_dijkstra_under_the_simulator() {
    let el = grid(20);
    let truth = bits(&seq::dijkstra(&el, 0));
    let plans = [
        SimPlan::new(1).latency(300).per_msg(25),
        SimPlan::new(42).latency(800).jitter(2_500),
        SimPlan::new(0xD15C0),
    ];
    for plan in plans {
        let plan = plan.invariant_cadence(InvariantCadence::EveryDelivery);
        for (k, strategy) in [
            (1, Some(SsspStrategy::Delta(1.0))),
            (4, None),
            (usize::MAX, Some(SsspStrategy::DeltaAsync(1.0))),
        ] {
            let (dist, report) = driver_under_sim(&el, plan.clone(), k);
            assert!(
                bits(&dist) == truth,
                "k = {k}: distances differ from Dijkstra"
            );
            match strategy {
                Some(strategy) => {
                    let via_run = Run::new(2)
                        .sim(plan.clone())
                        .sssp(&el, 0, strategy)
                        .unwrap_or_else(|e| panic!("{strategy:?}: {e}"));
                    assert!(bits(&via_run.result) == truth, "{strategy:?}");
                    let run_digest = via_run.report.expect("sim report").flight_digest;
                    assert_eq!(
                        run_digest, report.flight_digest,
                        "{strategy:?} is not k = {k}"
                    );
                }
                None => {
                    let (again, replay) = driver_under_sim(&el, plan.clone(), k);
                    assert!(bits(&again) == truth);
                    assert_eq!(replay.flight_digest, report.flight_digest, "k = {k} replay");
                }
            }
        }
    }
}
