//! Cross-crate integration: whole algorithms over the full stack
//! (patterns → planner → engine → AM runtime → graph substrate), swept
//! across machine shapes and engine configurations.

mod common;

use common::{machine, row, sweep, Delivery, ENGINES};
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

/// SSSP correctness across every (ranks, plan mode, sync mode)
/// combination — the full configuration matrix.
#[test]
fn sssp_configuration_matrix() {
    let el = weighted_rmat(7, 3);
    let want = seq::dijkstra(&el, 0);
    for ranks in [1, 2, 5] {
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
                let mut out = Machine::run(MachineConfig::new(ranks), move |ctx| {
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

/// The registry row `name` as conformance cells (`common::sweep`) on
/// inproc machines of these shapes, at the default engine.
fn cells(name: &str, shapes: &[(usize, usize)]) {
    let deliveries: Vec<_> = (shapes.iter())
        .map(|&(ranks, threads)| {
            let m = machine(ranks, TransportKind::Inproc).threads_per_rank(threads);
            Delivery::new(format!("{ranks} ranks x {threads} threads"), m)
        })
        .collect();
    sweep([row(name)], &deliveries, &ENGINES[..1]);
}

/// Multi-threaded ranks (worker handler threads) keep everything correct.
#[test]
fn multithreaded_ranks() {
    cells("sssp/fixed-point", &[(2, 4)]);
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
    cells("bfs", &[(1, 1), (4, 1)]);
    cells("pagerank", &[(1, 1), (4, 1)]);
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

/// The engine's dominance cache is scoped to an epoch: one `Sssp`
/// install solves twice from different sources (`dist` reset between the
/// solves, outside any epoch), so entries from the first solve must never
/// drop a hop of the second. Worker threads keep their own tables and
/// stamp them with the same machine-wide epoch, and the asynchronous
/// Δ-stepping variant runs each solve as one long `try_finish` epoch.
#[test]
fn dominance_cache_is_scoped_to_the_epoch() {
    let el = weighted_rmat(7, 57);
    let want0 = seq::dijkstra(&el, 0);
    let want5 = seq::dijkstra(&el, 5);
    for threads in [1, 4] {
        for strategy in [SsspStrategy::Delta(1.0), SsspStrategy::DeltaAsync(1.0)] {
            let graph = DistGraph::build(&el, Distribution::block(el.num_vertices(), 2), false);
            let weights = EdgeMap::from_weights(&graph, &el);
            let cfg = MachineConfig::new(2).threads_per_rank(threads);
            let mut out = Machine::run(cfg, move |ctx| {
                let s = dgp_algorithms::sssp::Sssp::install(
                    ctx,
                    &graph,
                    &weights,
                    EngineConfig::default(),
                );
                s.run(ctx, 0, strategy);
                let first = s.dist.snapshot();
                ctx.barrier();
                s.run(ctx, 5, strategy);
                let second = s.dist.snapshot();
                ctx.barrier();
                (ctx.rank() == 0).then(|| (first, second, ctx.stats().cache_hits))
            });
            let (first, second, hits) = out[0].take().unwrap();
            assert_dists(&first, &want0);
            assert_dists(&second, &want5);
            assert!(
                hits > 0,
                "{threads} threads, {strategy:?}: nothing dominated"
            );
        }
    }
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

    // Work hooks rerun the action from inside a handler. Without the
    // shortcut's depth bound, each inline hop nested one more rerun per
    // vertex and large inputs overflowed the thread's stack.
    let blobs = generators::component_blobs(2, 60_000, 2, 5);
    let want = seq::cc_labels(&blobs);
    let deep = weighted_rmat(12, 67);
    let want_deep = seq::dijkstra(&deep, 0);
    let cfg = EngineConfig {
        self_send: false,
        ..EngineConfig::default()
    };
    let graph = DistGraph::build(&blobs, Distribution::block(blobs.num_vertices(), 2), false);
    let mut out = Machine::run(MachineConfig::new(2), move |ctx| {
        let labels = dgp_algorithms::cc::cc(ctx, &graph, cfg);
        (ctx.rank() == 0).then(|| labels.snapshot())
    });
    assert_eq!(out[0].take().unwrap(), want);
    let graph = DistGraph::build(&deep, Distribution::block(deep.num_vertices(), 2), false);
    let weights = EdgeMap::from_weights(&graph, &deep);
    let mut out = Machine::run(MachineConfig::new(2), move |ctx| {
        let s = dgp_algorithms::sssp::Sssp::install(ctx, &graph, &weights, cfg);
        s.run(ctx, 0, SsspStrategy::FixedPoint);
        (ctx.rank() == 0).then(|| s.dist.snapshot())
    });
    assert_dists(&out[0].take().unwrap(), &want_deep);
}

/// CC's racy claim phase stays correct with handler worker threads.
#[test]
fn cc_multithreaded_ranks() {
    cells("cc", &[(2, 4)]);
}

/// Paths (parent tree + predecessor sets) across rank counts.
#[test]
fn sssp_paths_across_ranks() {
    cells("paths", &[(1, 1), (4, 1)]);
}

/// Engine counters stay exact with worker threads. Every vertex starts
/// one out-edges action, so start messages land on all four handler
/// threads of each rank; each thread bumps only its own counter block
/// and the snapshot after the epoch sums them. A lost update anywhere
/// shows as a count short of `n` or `m`.
#[test]
fn engine_counters_exact_with_worker_threads() {
    let el = generators::rmat(12, 8, generators::RmatParams::GRAPH500, 5);
    let n = el.num_vertices();
    for exec in [Exec::Compiled, Exec::Reference] {
        for run in 0..3 {
            let graph = DistGraph::build(&el, Distribution::block(n, 2), false);
            let m = graph.num_edges();
            let cfg = MachineConfig::new(2).threads_per_rank(4);
            let mut out = Machine::run(cfg, move |ctx| {
                let flag = ctx.share(|| AtomicVertexMap::new(graph.distribution(), false));
                let acc = ctx.share(|| AtomicVertexMap::new(graph.distribution(), 0u64));
                let engine = PatternEngine::new(
                    ctx,
                    graph.clone(),
                    EngineConfig {
                        exec,
                        ..EngineConfig::default()
                    },
                );
                let flag_id = engine.register_vertex_map(&flag);
                let acc_id = engine.register_vertex_map(&acc);
                // Every test fails at the sender: one item and one false
                // condition per edge, no hop.
                let mut b = ActionBuilder::new("count_edges", GeneratorIr::OutEdges);
                let f_v = b.read_vertex(flag_id, Place::Input);
                b.cond(&[f_v], move |e| e.bool(f_v)).assign(
                    acc_id,
                    Place::GenTrg,
                    &[],
                    |_, old| Val::U(old.as_u64() + 1),
                );
                let action = engine.add_action(b.build().unwrap()).unwrap();
                let locals: Vec<VertexId> = graph.distribution().owned(ctx.rank()).collect();
                once(ctx, &engine, action, &locals);
                let s = engine.stats();
                let counts = (
                    ctx.sum_ranks(s.actions_started),
                    ctx.sum_ranks(s.items_generated),
                    ctx.sum_ranks(s.conditions_false),
                );
                (ctx.rank() == 0).then_some(counts)
            });
            assert_eq!(
                out[0].take().unwrap(),
                (n, m, m),
                "{exec:?}, run {run}: (actions_started, items_generated, conditions_false)"
            );
        }
    }
}

/// The collective rounds a [`Run`] pays: two per property map its
/// install shares (`share` is two barriers), two per epoch (the entry
/// barrier and an exit that carries the strategy's vote), and `own` that
/// the driver adds itself.
fn rounds(maps: u64, out: &Outcome<impl Sized>, own: u64) -> u64 {
    2 * maps + 2 * out.profiles.len() as u64 + own
}

/// Every family whose driver lost a barrier or a collective, on three
/// ranks of three threads each, against its sequential oracle and with
/// its exact collective count. Worker threads handle packets between
/// epochs, so a barrier deleted where a rank still needed it would show
/// here as a wrong result.
#[test]
fn families_on_worker_threads_pay_exact_collectives() {
    let run = Run::on(MachineConfig::new(3).threads_per_rank(3));
    let el = weighted_rmat(8, 41);
    let bits = |d: &[f64]| d.iter().map(|x| x.to_bits()).collect::<Vec<_>>();

    // SSSP (one map); the Δ drivers add their opening all-reduce.
    let want = seq::dijkstra(&el, 0);
    for (strategy, own) in [
        (SsspStrategy::FixedPoint, 0),
        (SsspStrategy::Delta(0.5), 1),
        (SsspStrategy::DeltaAsync(0.5), 1),
        (SsspStrategy::DeltaSplit(0.5), 1),
    ] {
        let out = run.sssp(&el, 0, strategy).unwrap();
        assert_eq!(bits(&out.result), bits(&want), "{strategy:?}");
        assert_eq!(out.stats.collectives, rounds(1, &out, own), "{strategy:?}");
    }

    // Paths (three maps): a fixed point and one `once`.
    let out = run.paths(&el, 0).unwrap();
    assert_eq!(bits(&out.result.dist), bits(&want));
    for (v, p) in out.result.parent.iter().enumerate() {
        if let Some(p) = p {
            assert!(
                out.result.preds[v].contains(p),
                "v={v}: parent is a tight pred"
            );
        }
    }
    assert_eq!(
        (out.profiles.len(), out.stats.collectives),
        (2, rounds(3, &out, 0))
    );

    // BFS (one map).
    let out = run.bfs(&el, 0).unwrap();
    assert_eq!(out.result, dgp_graph::analysis::bfs_levels(&el, 0));
    assert_eq!(out.stats.collectives, rounds(1, &out, 0));

    // CC (four maps): epochs only.
    let blobs = generators::component_blobs(5, 40, 2, 43);
    let mut sym = blobs.clone();
    sym.symmetrize();
    let out = run.cc(&blobs).unwrap();
    assert_eq!(out.result, seq::cc_labels(&sym));
    assert_eq!(out.stats.collectives, rounds(4, &out, 0));

    // k-core (two maps): one `any_rank(peeled)` per round.
    let out = run.kcore(&blobs, 3).unwrap();
    let (mask, peel_rounds) = out.result.clone();
    assert_eq!(mask, dgp_algorithms::kcore::kcore_seq(&sym, 3));
    assert_eq!(out.stats.collectives, rounds(2, &out, peel_rounds as u64));

    // Coloring (three maps): one `any_rank(colored)` per round.
    let out = run.coloring(&blobs).unwrap();
    let (colors, color_rounds) = out.result.clone();
    dgp_algorithms::coloring::validate_coloring(&sym, &colors).unwrap();
    assert_eq!(out.stats.collectives, rounds(3, &out, color_rounds as u64));

    // MIS (four maps): one `any_rank(changed)` per round, then the mask's
    // share and the barrier before rank 0 reads it.
    let out = run.mis(&blobs, 7).unwrap();
    let (mask, mis_rounds) = out.result.clone();
    dgp_algorithms::mis::validate_mis(&sym, &mask).unwrap();
    assert_eq!(
        out.stats.collectives,
        rounds(4, &out, mis_rounds as u64 + 3)
    );

    // PageRank (three maps): the dangling-mass all-reduce per iteration,
    // then one barrier before rank 0 reads the ranks.
    let out = run.pagerank(&el, 0.85, 6).unwrap();
    assert_dists(&out.result, &seq::pagerank(&el, 0.85, 6));
    assert_eq!(out.stats.collectives, rounds(3, &out, 6 + 1));

    // Betweenness (three maps and `bc`'s share): the max-level
    // all-reduce per source, then one barrier before rank 0 reads `bc`.
    let sources = [0, 3, 17];
    let out = run.betweenness(&el, &sources).unwrap();
    let want_bc = dgp_algorithms::betweenness::betweenness_seq(&el, &sources);
    assert_dists(&out.result, &want_bc);
    assert_eq!(out.stats.collectives, rounds(4, &out, 3 + 1));
}

/// The strategies' rendezvous, counted: `once` is one epoch whose exit
/// carries its "changed" vote (two rounds); the Δ driver pays two rounds
/// per epoch plus its opening all-reduce at every window width, and so
/// does the light/heavy split. On threads and under the simulator.
#[test]
fn strategies_pay_two_rounds_per_epoch() {
    let el = weighted_rmat(7, 5);
    let want = seq::dijkstra(&el, 0);
    let graph = DistGraph::build(&el, Distribution::block(el.num_vertices(), 3), false);
    let weights = EdgeMap::from_weights(&graph, &el);
    let body = |ctx: &AmCtx| {
        let s = dgp_algorithms::sssp::Sssp::install(ctx, &graph, &weights, EngineConfig::default());
        let seeds: Vec<VertexId> = (graph.owner(0) == ctx.rank())
            .then_some(0)
            .into_iter()
            .collect();
        let rounds = || ctx.stats().collectives;
        let mut costs = Vec::new();
        for k in [1, 4, usize::MAX] {
            s.dist.fill_local(ctx.rank(), f64::INFINITY);
            if graph.owner(0) == ctx.rank() {
                s.dist.set(ctx.rank(), 0, 0.0);
            }
            let before = rounds();
            let epochs = delta_stepping(ctx, &s.engine, s.relax, &seeds, &s.dist, 0.5, k) as u64;
            costs.push((epochs, rounds() - before));
        }
        let locals: Vec<VertexId> = graph.distribution().owned(ctx.rank()).collect();
        let before = rounds();
        let changed = once(ctx, &s.engine, s.relax, &locals);
        costs.push((changed as u64, rounds() - before));
        let (epochs_before, before) = (ctx.epoch_profiles().len(), rounds());
        s.run(ctx, 0, SsspStrategy::DeltaSplit(0.5));
        let epochs = (ctx.epoch_profiles().len() - epochs_before) as u64;
        costs.push((epochs, rounds() - before));
        (ctx.rank() == 0).then(|| (costs, s.dist.snapshot()))
    };
    let threads = Machine::run(MachineConfig::new(3), body);
    let sim = Machine::run_sim(MachineConfig::new(3), dgp_am::SimPlan::new(9), body).unwrap();
    for mut out in [threads, sim.results] {
        let (costs, dist) = out[0].take().unwrap();
        assert_dists(&dist, &want);
        assert!(costs[0].0 > 1, "k = 1 runs an epoch per bucket: {costs:?}");
        for &(epochs, paid) in &costs[..3] {
            assert_eq!(paid, 2 * epochs + 1, "Δ driver: {costs:?}");
        }
        assert_eq!(costs[3], (0, 2), "`once` over settled distances: {costs:?}");
        assert_eq!(costs[4].1, 2 * costs[4].0 + 1, "split: {costs:?}");
    }
}
