//! Writing your own strategy — the paper's point that strategies are
//! "user defined programs that apply patterns in a certain way", built
//! from the same primitives as the built-ins: epochs, `epoch_flush`,
//! work hooks, and collectives.
//!
//! This example declares the SSSP pattern with the grammar-level
//! [`PatternBuilder`], then drives it with a hand-rolled **two-queue
//! near/far strategy** (a cousin of Δ-stepping): improvements below a
//! threshold of the current frontier distance go to the *near* queue,
//! processed immediately; the rest wait in the *far* queue for the next
//! phase.
//!
//! Run with: `cargo run --release --example custom_strategy`

use std::sync::Arc;

use dgp::prelude::*;
use dgp_algorithms::seq;
use dgp_core::pattern::PatternBuilder;
use parking_lot::Mutex;

/// Rank-local two-queue scheduler state.
struct NearFar {
    near: Mutex<Vec<VertexId>>,
    far: Mutex<Vec<(VertexId, f64)>>,
    threshold: Mutex<f64>,
}

fn main() {
    let mut el = generators::rmat(12, 8, generators::RmatParams::GRAPH500, 77);
    el.randomize_weights(0.05, 1.0, 78);
    let oracle = seq::dijkstra(&el, 0);
    let graph = DistGraph::build(&el, Distribution::block(el.num_vertices(), 4), false);
    println!(
        "RMAT scale 12 ({} vertices), near/far custom strategy, 4 ranks",
        el.num_vertices()
    );

    let weights = EdgeMap::from_weights(&graph, &el);
    let mut out = Machine::run(MachineConfig::new(4), move |ctx| {
        // --- pattern SSSP { dist; weight; relax } -----------------------
        let mut p = PatternBuilder::new("SSSP");
        let dist_prop = p.vertex_property("dist", f64::INFINITY);
        let weight_prop = p.edge_property::<f64>("weight");
        let (dist, weight) = (dist_prop.id(), weight_prop.id());
        let mut b = ActionBuilder::new("relax", GeneratorIr::OutEdges);
        let d_t = b.read_vertex(dist, Place::GenTrg);
        let d_v = b.read_vertex(dist, Place::Input);
        let w_e = b.read_edge(weight);
        b.cond(&[d_t, d_v, w_e], move |e| {
            e.f64(d_t) > e.f64(d_v) + e.f64(w_e)
        })
        .assign(dist, Place::GenTrg, &[d_v, w_e], move |e, _| {
            Val::F(e.f64(d_v) + e.f64(w_e))
        });
        let relax = p.action(b.build().unwrap());
        p.bind(weight_prop, &weights);
        let sssp = p.install(ctx, &graph, EngineConfig::default()).unwrap();
        let dist_map = sssp.map(dist_prop);
        let engine = &sssp.engine;

        // --- the custom strategy ---------------------------------------
        // strategy near_far(action a, source s, delta Δ) {
        //   a.work(v) = { dist[v] <= threshold ? near.push(v)
        //                                      : far.push(v, dist[v]) }
        //   phase loop: epoch { drain near }; threshold += Δ;
        //               promote far entries below the new threshold.
        // }
        let delta = 0.25;
        let rank = ctx.rank();
        if graph.owner(0) == rank {
            dist_map.set(rank, 0, 0.0);
        }
        ctx.barrier();

        let state = Arc::new(NearFar {
            near: Mutex::new(if graph.owner(0) == rank {
                vec![0]
            } else {
                vec![]
            }),
            far: Mutex::new(Vec::new()),
            threshold: Mutex::new(delta),
        });
        let hook_state = state.clone();
        let hook_dist = dist_map.clone();
        engine.set_work_hook(
            relax,
            Arc::new(move |hctx, v| {
                let d = hook_dist.get(hctx.rank(), v);
                if d <= *hook_state.threshold.lock() {
                    hook_state.near.lock().push(v);
                } else {
                    hook_state.far.lock().push((v, d));
                }
            }),
        );

        let mut phases = 0u64;
        loop {
            // Drain the near queue to exhaustion inside one epoch.
            ctx.epoch(|ctx| loop {
                let batch: Vec<VertexId> = std::mem::take(&mut *state.near.lock());
                if batch.is_empty() {
                    // Handlers may still be filling it: flush and retest.
                    if ctx.epoch_flush() == 0 && state.near.lock().is_empty() {
                        break;
                    }
                    continue;
                }
                for v in batch {
                    engine.run_at(ctx, relax, v);
                }
            });
            phases += 1;
            // Advance the threshold and promote newly-near work.
            let new_threshold = *state.threshold.lock() + delta;
            *state.threshold.lock() = new_threshold;
            {
                let mut far = state.far.lock();
                let mut near = state.near.lock();
                far.retain(|&(v, d)| {
                    if d <= new_threshold {
                        near.push(v);
                        false
                    } else {
                        true
                    }
                });
            }
            let pending = state.near.lock().len() as u64 + state.far.lock().len() as u64;
            if ctx.sum_ranks(pending) == 0 {
                break;
            }
        }
        engine.clear_work_hook(relax);

        let stats = engine.stats();
        let relaxations = ctx.sum_ranks(stats.conditions_true);
        (ctx.rank() == 0).then(|| (dist_map.snapshot(), phases, relaxations))
    });
    let (got, phases, relaxations) = out[0].take().unwrap();

    for (i, (a, b)) in got.iter().zip(&oracle).enumerate() {
        assert!(
            (a - b).abs() < 1e-9 || (a.is_infinite() && b.is_infinite()),
            "vertex {i}: {a} vs {b}"
        );
    }
    println!("correct distances in {phases} near/far phases, {relaxations} relaxations");
    println!("strategy code: ~60 lines, zero changes to the relax pattern.");
}
