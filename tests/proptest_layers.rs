//! Transparency properties of the AM++ message layers: the dominance cache
//! (caching and min-reduction in one rule) may drop messages but must never
//! change algorithm results; coalescing capacity and machine isolation
//! likewise.

use proptest::prelude::*;

use dgp::prelude::*;
use dgp_algorithms::{handwritten, seq};
use dgp_graph::properties::EdgeMap as EM;

fn dists_match(got: &[f64], want: &[f64]) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(a, b)| (a - b).abs() < 1e-9 || (a.is_infinite() && b.is_infinite()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The dominance cache is result-transparent for BFS. Its tables are
    /// per thread, so handler threads per rank are what vary the filter.
    #[test]
    fn caching_is_result_transparent(
        scale in 6u32..9,
        seed in 0u64..50,
        threads in 1usize..=3,
        ranks in 1usize..4,
    ) {
        let el = generators::rmat(scale, 8, generators::RmatParams::GRAPH500, seed);
        let want = dgp_graph::analysis::bfs_levels(&el, 0);
        let graph = DistGraph::build(&el, Distribution::block(el.num_vertices(), ranks), false);
        let mut out = Machine::run(MachineConfig::new(ranks).threads_per_rank(threads), move |ctx| {
            let lvl = handwritten::bfs_cached(ctx, &graph, 0);
            (ctx.rank() == 0).then(|| lvl.snapshot())
        });
        prop_assert_eq!(out[0].take().unwrap(), want);
    }

    /// Min-reduction through the dominance cache is result-transparent
    /// for SSSP, across handler threads per rank.
    #[test]
    fn reduction_is_result_transparent(
        scale in 6u32..9,
        seed in 0u64..50,
        threads in 1usize..=3,
        ranks in 1usize..4,
    ) {
        let mut el = generators::rmat(scale, 8, generators::RmatParams::GRAPH500, seed);
        el.randomize_weights(0.1, 1.0, seed + 1);
        let want = seq::dijkstra(&el, 0);
        let graph = DistGraph::build(&el, Distribution::block(el.num_vertices(), ranks), false);
        let weights = EM::from_weights(&graph, &el);
        let mut out = Machine::run(MachineConfig::new(ranks).threads_per_rank(threads), move |ctx| {
            let d = handwritten::sssp_reduced(ctx, &graph, &weights, 0);
            (ctx.rank() == 0).then(|| d.snapshot())
        });
        prop_assert!(dists_match(&out[0].take().unwrap(), &want));
    }

    /// Coalescing capacity never changes results, only envelope counts.
    #[test]
    fn coalescing_is_result_transparent(
        cap in prop::sample::select(vec![1usize, 3, 32, 4096]),
        seed in 0u64..30,
    ) {
        let mut el = generators::erdos_renyi(100, 500, seed);
        el.randomize_weights(0.1, 1.0, seed + 1);
        let want = seq::dijkstra(&el, 0);
        let graph = DistGraph::build(&el, Distribution::cyclic(el.num_vertices(), 3), false);
        let weights = EM::from_weights(&graph, &el);
        let mut out = Machine::run(MachineConfig::new(3).coalescing(cap), move |ctx| {
            let d = handwritten::sssp(ctx, &graph, &weights, 0);
            (ctx.rank() == 0).then(|| d.snapshot())
        });
        prop_assert!(dists_match(&out[0].take().unwrap(), &want));
    }
}

/// Two machines running concurrently in one process stay fully isolated
/// (no global state leaks between them).
#[test]
fn concurrent_machines_are_isolated() {
    let mut el_a = generators::rmat(8, 8, generators::RmatParams::GRAPH500, 1);
    el_a.randomize_weights(0.1, 1.0, 2);
    let mut el_b = generators::grid2d(20, 20);
    el_b.randomize_weights(0.5, 2.0, 3);
    let want_a = seq::dijkstra(&el_a, 0);
    let want_b = seq::dijkstra(&el_b, 5);

    let (got_a, got_b) = std::thread::scope(|s| {
        let ha = s.spawn(|| run_sssp(&el_a, 3, 0, SsspStrategy::Delta(0.4)));
        let hb = s.spawn(|| run_sssp(&el_b, 4, 5, SsspStrategy::FixedPoint));
        (ha.join().unwrap(), hb.join().unwrap())
    });
    assert!(dists_match(&got_a, &want_a));
    assert!(dists_match(&got_b, &want_b));
}

/// Repeated machines in sequence don't interfere either (fresh counters,
/// channels, registries each time).
#[test]
fn sequential_machines_are_independent() {
    let el = generators::path(50);
    for _ in 0..5 {
        let got = run_bfs(&el, 2, 0);
        assert_eq!(got, dgp_graph::analysis::bfs_levels(&el, 0));
    }
}
