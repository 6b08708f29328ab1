//! Cross-crate integration: whole algorithms over the full stack
//! (patterns → planner → engine → AM runtime → graph substrate), swept
//! across machine shapes and engine configurations.

use dgp::prelude::*;
use dgp_algorithms::{handwritten, seq};
use dgp_core::engine::EngineConfig;
use dgp_graph::properties::LockGranularity;

fn weighted_rmat(scale: u32, seed: u64) -> EdgeList {
    let mut el = generators::rmat(scale, 8, generators::RmatParams::GRAPH500, seed);
    el.randomize_weights(0.25, 2.0, seed + 1);
    el
}

fn assert_dists(got: &[f64], want: &[f64]) {
    assert_eq!(got.len(), want.len());
    for (i, (a, b)) in got.iter().zip(want).enumerate() {
        assert!(
            (a - b).abs() < 1e-9 || (a.is_infinite() && b.is_infinite()),
            "vertex {i}: {a} vs {b}"
        );
    }
}

/// SSSP correctness across every (ranks, termination, plan mode, sync
/// mode) combination — the full configuration matrix.
#[test]
fn sssp_configuration_matrix() {
    let el = weighted_rmat(7, 3);
    let want = seq::dijkstra(&el, 0);
    for ranks in [1, 2, 5] {
        for term in [
            TerminationMode::SharedCounters,
            TerminationMode::FourCounterWave,
        ] {
            for plan in [PlanMode::Faithful, PlanMode::Optimized] {
                for sync in [SyncMode::Atomic, SyncMode::LockMap] {
                    let graph =
                        DistGraph::build(&el, Distribution::block(el.num_vertices(), ranks), false);
                    let weights = EdgeMap::from_weights(&graph, &el);
                    let cfg = EngineConfig {
                        plan_mode: plan,
                        sync,
                        ..EngineConfig::default()
                    };
                    let mut out =
                        Machine::run(MachineConfig::new(ranks).termination(term), move |ctx| {
                            let s = dgp_algorithms::sssp::Sssp::install(ctx, &graph, &weights, cfg);
                            s.run(ctx, 0, SsspStrategy::FixedPoint);
                            (ctx.rank() == 0).then(|| s.dist.snapshot())
                        });
                    let got = out[0].take().unwrap();
                    assert_dists(&got, &want);
                }
            }
        }
    }
}

/// The three strategies agree with each other and the oracle, over both
/// distributions.
#[test]
fn sssp_strategies_agree() {
    let el = weighted_rmat(8, 9);
    let want = seq::dijkstra(&el, 1);
    for dist_kind in ["block", "cyclic"] {
        let d = match dist_kind {
            "block" => Distribution::block(el.num_vertices(), 3),
            _ => Distribution::cyclic(el.num_vertices(), 3),
        };
        let graph = DistGraph::build(&el, d, false);
        let weights = EdgeMap::from_weights(&graph, &el);
        for strategy in [
            SsspStrategy::FixedPoint,
            SsspStrategy::Delta(0.5),
            SsspStrategy::Delta(4.0),
            SsspStrategy::DeltaAsync(1.0),
            SsspStrategy::DeltaSplit(1.0),
        ] {
            let graph = graph.clone();
            let weights = weights.clone();
            let mut out = Machine::run(MachineConfig::new(3), move |ctx| {
                let dist = dgp_algorithms::sssp::sssp(ctx, &graph, &weights, 1, strategy);
                (ctx.rank() == 0).then(|| dist.snapshot())
            });
            let got = out[0].take().unwrap();
            assert_dists(&got, &want);
        }
    }
}

/// Pattern CC vs union-find vs hand-written label propagation.
#[test]
fn cc_three_ways() {
    let el = generators::component_blobs(7, 30, 2, 5);
    let want = seq::cc_labels(&el);
    for ranks in [1, 2, 4] {
        let graph = DistGraph::build(&el, Distribution::block(el.num_vertices(), ranks), false);
        let g2 = graph.clone();
        let mut out = Machine::run(MachineConfig::new(ranks), move |ctx| {
            let pattern_cc = dgp_algorithms::cc::cc(ctx, &g2, EngineConfig::default());
            let lp = handwritten::cc_label_propagation(ctx, &g2);
            (ctx.rank() == 0).then(|| (pattern_cc.snapshot(), lp.snapshot()))
        });
        let (pattern_labels, lp_labels) = out[0].take().unwrap();
        assert_eq!(pattern_labels, want, "pattern CC, ranks={ranks}");
        assert_eq!(lp_labels, want, "label propagation, ranks={ranks}");
    }
}

/// Hand-written AM SSSP/BFS produce the same answers as the pattern
/// versions (the E7 abstraction-overhead pair is semantically equal).
#[test]
fn handwritten_matches_patterns() {
    let el = weighted_rmat(7, 13);
    let want = seq::dijkstra(&el, 0);
    let want_bfs = dgp_graph::analysis::bfs_levels(&el, 0);
    let graph = DistGraph::build(&el, Distribution::cyclic(el.num_vertices(), 4), false);
    let weights = EdgeMap::from_weights(&graph, &el);
    let mut out = Machine::run(MachineConfig::new(4), move |ctx| {
        let hd = handwritten::sssp(ctx, &graph, &weights, 0);
        let hb = handwritten::bfs(ctx, &graph, 0);
        (ctx.rank() == 0).then(|| (hd.snapshot(), hb.snapshot()))
    });
    let (hd, hb) = out[0].take().unwrap();
    assert_dists(&hd, &want);
    assert_eq!(hb, want_bfs);
}

/// Multi-threaded ranks (worker handler threads) keep everything correct.
#[test]
fn multithreaded_ranks() {
    let el = weighted_rmat(8, 21);
    let want = seq::dijkstra(&el, 0);
    let graph = DistGraph::build(&el, Distribution::block(el.num_vertices(), 2), false);
    let weights = EdgeMap::from_weights(&graph, &el);
    let mut out = Machine::run(MachineConfig::new(2).threads_per_rank(4), move |ctx| {
        let dist = dgp_algorithms::sssp::sssp(ctx, &graph, &weights, 0, SsspStrategy::FixedPoint);
        (ctx.rank() == 0).then(|| dist.snapshot())
    });
    assert_dists(&out[0].take().unwrap(), &want);
}

/// Coalescing capacity changes envelope counts, never results.
#[test]
fn coalescing_is_result_transparent() {
    let el = weighted_rmat(7, 33);
    let want = seq::dijkstra(&el, 0);
    let mut envelope_counts = Vec::new();
    for cap in [1, 16, 256] {
        let graph = DistGraph::build(&el, Distribution::block(el.num_vertices(), 3), false);
        let weights = EdgeMap::from_weights(&graph, &el);
        let mut out = Machine::run(MachineConfig::new(3).coalescing(cap), move |ctx| {
            let dist =
                dgp_algorithms::sssp::sssp(ctx, &graph, &weights, 0, SsspStrategy::FixedPoint);
            (ctx.rank() == 0).then(|| (dist.snapshot(), ctx.stats()))
        });
        let (got, stats) = out[0].take().unwrap();
        assert_dists(&got, &want);
        envelope_counts.push(stats.envelopes_sent);
    }
    assert!(
        envelope_counts[0] > envelope_counts[2],
        "bigger buffers, fewer envelopes: {envelope_counts:?}"
    );
}

/// BFS and PageRank across rank counts.
#[test]
fn bfs_and_pagerank_across_ranks() {
    let el = generators::rmat(7, 6, generators::RmatParams::GRAPH500, 77);
    let want_bfs = dgp_graph::analysis::bfs_levels(&el, 0);
    let want_pr = seq::pagerank(&el, 0.85, 15);
    for ranks in [1, 4] {
        assert_eq!(run_bfs(&el, ranks, 0), want_bfs, "bfs ranks={ranks}");
        let pr = run_pagerank(&el, ranks, 0.85, 15);
        for (i, (a, b)) in pr.iter().zip(&want_pr).enumerate() {
            assert!(
                (a - b).abs() < 1e-6,
                "pr vertex {i}: {a} vs {b} ranks={ranks}"
            );
        }
    }
}

/// The lock-map granularities all produce correct results (E5's
/// correctness leg).
#[test]
fn lock_granularities_are_equivalent() {
    let el = weighted_rmat(7, 41);
    let want = seq::dijkstra(&el, 0);
    for granularity in [
        LockGranularity::PerVertex,
        LockGranularity::Block(8),
        LockGranularity::Striped(4),
    ] {
        let graph = DistGraph::build(&el, Distribution::block(el.num_vertices(), 2), false);
        let weights = EdgeMap::from_weights(&graph, &el);
        let cfg = EngineConfig {
            sync: SyncMode::LockMap,
            lock_granularity: granularity,
            ..EngineConfig::default()
        };
        let mut out = Machine::run(MachineConfig::new(2).threads_per_rank(3), move |ctx| {
            let s = dgp_algorithms::sssp::Sssp::install(ctx, &graph, &weights, cfg);
            s.run(ctx, 0, SsspStrategy::FixedPoint);
            (ctx.rank() == 0).then(|| s.dist.snapshot())
        });
        assert_dists(&out[0].take().unwrap(), &want);
    }
}

/// Repeated runs on one machine reuse registrations cleanly (multiple
/// engines, multiple epochs).
#[test]
fn repeated_runs_on_one_machine() {
    let el = weighted_rmat(6, 55);
    let want0 = seq::dijkstra(&el, 0);
    let want5 = seq::dijkstra(&el, 5);
    let graph = DistGraph::build(&el, Distribution::block(el.num_vertices(), 2), false);
    let weights = EdgeMap::from_weights(&graph, &el);
    let mut out = Machine::run(MachineConfig::new(2), move |ctx| {
        let s = dgp_algorithms::sssp::Sssp::install(ctx, &graph, &weights, EngineConfig::default());
        s.run(ctx, 0, SsspStrategy::FixedPoint);
        let first = s.dist.snapshot();
        // snapshot() reads remote shards, so all ranks must finish reading
        // before anyone re-initializes for the next run.
        ctx.barrier();
        s.run(ctx, 5, SsspStrategy::Delta(1.0)); // same engine, new source
        let second = s.dist.snapshot();
        ctx.barrier();
        (ctx.rank() == 0).then_some((first, second))
    });
    let (first, second) = out[0].take().unwrap();
    assert_dists(&first, &want0);
    assert_dists(&second, &want5);
}

/// Self-send shortcut (inline same-rank hops) is result-transparent.
/// (Counts are *not* compared: inlining changes the relaxation order from
/// FIFO-frontier to depth-first, which changes how much redundant work a
/// chaotic fixed point performs — an effect worth measuring, not
/// asserting; see experiment E7.)
#[test]
fn self_send_shortcut_transparent() {
    let el = weighted_rmat(7, 61);
    let want = seq::dijkstra(&el, 0);
    let mut msgs = Vec::new();
    for self_send in [true, false] {
        let graph = DistGraph::build(&el, Distribution::block(el.num_vertices(), 2), false);
        let weights = EdgeMap::from_weights(&graph, &el);
        let cfg = EngineConfig {
            self_send,
            ..EngineConfig::default()
        };
        let mut out = Machine::run(MachineConfig::new(2), move |ctx| {
            let s = dgp_algorithms::sssp::Sssp::install(ctx, &graph, &weights, cfg);
            s.run(ctx, 0, SsspStrategy::FixedPoint);
            (ctx.rank() == 0).then(|| (s.dist.snapshot(), ctx.stats()))
        });
        let (got, stats) = out[0].take().unwrap();
        assert_dists(&got, &want);
        msgs.push(stats.messages_sent);
    }
    assert!(
        msgs.iter().all(|&m| m > 0),
        "both modes actually sent messages: {msgs:?}"
    );
}

/// CC's racy claim phase stays correct with handler worker threads.
#[test]
fn cc_multithreaded_ranks() {
    let el = generators::component_blobs(6, 50, 2, 23);
    let want = seq::cc_labels(&el);
    let graph = DistGraph::build(&el, Distribution::block(el.num_vertices(), 2), false);
    let mut out = Machine::run(MachineConfig::new(2).threads_per_rank(4), move |ctx| {
        let labels = dgp_algorithms::cc::cc(ctx, &graph, EngineConfig::default());
        (ctx.rank() == 0).then(|| labels.snapshot())
    });
    assert_eq!(out[0].take().unwrap(), want);
}

/// The one-call API runners for the extension algorithms.
#[test]
fn kcore_and_coloring_runners() {
    let el = generators::component_blobs(3, 40, 3, 31);
    let mask = dgp_algorithms::run_kcore(&el, 3, 2);
    let mut sym = el.clone();
    sym.symmetrize();
    assert_eq!(mask, dgp_algorithms::kcore::kcore_seq(&sym, 2));

    let colors = dgp_algorithms::run_coloring(&el, 3);
    dgp_algorithms::coloring::validate_coloring(&sym, &colors).unwrap();
}

/// Paths (parent tree + predecessor sets) across rank counts.
#[test]
fn sssp_paths_across_ranks() {
    let el = weighted_rmat(6, 71);
    let oracle = seq::dijkstra(&el, 0);
    for ranks in [1, 4] {
        let graph = DistGraph::build(&el, Distribution::block(el.num_vertices(), ranks), false);
        let weights = EdgeMap::from_weights(&graph, &el);
        let oracle = oracle.clone();
        Machine::run(MachineConfig::new(ranks), move |ctx| {
            let sp = dgp_algorithms::paths::SsspPaths::install(
                ctx,
                &graph,
                &weights,
                EngineConfig::default(),
            );
            sp.run(ctx, 0);
            ctx.barrier();
            if ctx.rank() == 0 {
                let d = sp.dist.snapshot();
                assert_dists(&d, &oracle);
            }
            ctx.barrier();
        });
    }
}
