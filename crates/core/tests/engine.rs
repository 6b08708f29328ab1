//! Engine-level tests: drive the plan interpreter directly through small,
//! hand-analyzable patterns, covering every step kind and branch shape.

use dgp_am::{AmCtx, Machine, MachineConfig, MachineError};
use dgp_core::builder::{ActionBuilder, BuiltAction};
use dgp_core::engine::{ActionId, EngineConfig, Exec, PatternEngine, SyncMode, Val};
use dgp_core::ir::{GeneratorIr, MapId, Place};
use dgp_core::plan::{compile, PlanMode};
use dgp_core::strategies::{fixed_point, once};
use dgp_graph::properties::{AtomicVertexMap, EdgeMap, LockedVertexMap};
use dgp_graph::{DistGraph, Distribution, EdgeList, VertexId};

fn line_graph(n: u64, ranks: usize) -> DistGraph {
    let mut el = EdgeList::new(n);
    for v in 0..n - 1 {
        el.push(v, v + 1);
    }
    DistGraph::build(&el, Distribution::block(n, ranks), false)
}

fn with_machine<R: Send>(ranks: usize, f: impl Fn(&AmCtx) -> Option<R> + Send + Sync) -> R {
    let mut out = Machine::run(MachineConfig::new(ranks), f);
    out.remove(0).expect("rank 0 reports")
}

/// Else-chains: `if (x==1) {a=10} else if (x==2) {a=20} else if (true) {a=30}`
/// — exactly one branch fires per vertex.
#[test]
fn else_chain_takes_first_true_branch() {
    let result = with_machine(2, |ctx| {
        let graph = line_graph(6, 2);
        let x = ctx.share(|| AtomicVertexMap::new(graph.distribution(), 0u64));
        let a = ctx.share(|| AtomicVertexMap::new(graph.distribution(), 0u64));
        // x[v] = v % 3
        for v in graph.distribution().owned(ctx.rank()) {
            x.set(ctx.rank(), v, v % 3);
        }
        ctx.barrier();

        let engine = PatternEngine::new(ctx, graph.clone(), EngineConfig::default());
        let x_id = engine.register_vertex_map(&x);
        let a_id = engine.register_vertex_map(&a);

        let mut b = ActionBuilder::new("chain", GeneratorIr::None);
        let xs = b.read_vertex(x_id, Place::Input);
        b.cond(&[xs], move |e| e.u64(xs) == 1)
            .assign(a_id, Place::Input, &[], |_, _| Val::U(10));
        b.else_cond(&[xs], move |e| e.u64(xs) == 2)
            .assign(a_id, Place::Input, &[], |_, _| Val::U(20));
        b.else_cond(&[xs], move |_| true)
            .assign(a_id, Place::Input, &[], |_, _| Val::U(30));
        let action = engine.add_action(b.build().unwrap()).unwrap();

        let locals: Vec<VertexId> = graph.distribution().owned(ctx.rank()).collect();
        once(ctx, &engine, action, &locals);
        (ctx.rank() == 0).then(|| a.snapshot())
    });
    // x = [0,1,2,0,1,2] -> a = [30,10,20,30,10,20]
    assert_eq!(result, vec![30, 10, 20, 30, 10, 20]);
}

/// Non-else condition sequences: both `if`s run when the first fires (a
/// true condition chains to the next NON-else condition).
#[test]
fn independent_conditions_both_fire() {
    let result = with_machine(1, |ctx| {
        let graph = line_graph(3, 1);
        let x = ctx.share(|| AtomicVertexMap::new(graph.distribution(), 5u64));
        let a = ctx.share(|| AtomicVertexMap::new(graph.distribution(), 0u64));
        let b_map = ctx.share(|| AtomicVertexMap::new(graph.distribution(), 0u64));
        let engine = PatternEngine::new(ctx, graph.clone(), EngineConfig::default());
        let x_id = engine.register_vertex_map(&x);
        let a_id = engine.register_vertex_map(&a);
        let b_id = engine.register_vertex_map(&b_map);

        let mut bld = ActionBuilder::new("two_ifs", GeneratorIr::None);
        let xs = bld.read_vertex(x_id, Place::Input);
        bld.cond(&[xs], move |e| e.u64(xs) > 0)
            .assign(a_id, Place::Input, &[xs], move |e, _| Val::U(e.u64(xs)));
        bld.cond(&[xs], move |e| e.u64(xs) > 1)
            .assign(b_id, Place::Input, &[xs], move |e, _| Val::U(e.u64(xs) * 2));
        let action = engine.add_action(bld.build().unwrap()).unwrap();

        once(ctx, &engine, action, &[0]);
        Some((a.get(0, 0), b_map.get(0, 0)))
    });
    assert_eq!(result, (5, 10));
}

/// Unmerged conditions: a modification group whose reads live at a
/// locality *outside* the condition's localities cannot merge; the plan
/// must Eval first, then gather and ModifyGroup.
#[test]
fn unmerged_modification_group_executes() {
    let result = with_machine(2, |ctx| {
        // Edge 0 -> 1. Condition reads flag[v]; modification writes
        // out[trg(e)] = aux[trg(e)] + 1 where aux is NOT read by the test.
        let graph = line_graph(2, 2);
        let flag = ctx.share(|| AtomicVertexMap::new(graph.distribution(), true));
        let aux = ctx.share(|| AtomicVertexMap::new(graph.distribution(), 41u64));
        let out = ctx.share(|| AtomicVertexMap::new(graph.distribution(), 0u64));
        let engine = PatternEngine::new(ctx, graph.clone(), EngineConfig::default());
        let flag_id = engine.register_vertex_map(&flag);
        let aux_id = engine.register_vertex_map(&aux);
        let out_id = engine.register_vertex_map(&out);

        let mut b = ActionBuilder::new("unmerged", GeneratorIr::OutEdges);
        let f_v = b.read_vertex(flag_id, Place::Input);
        let aux_t = b.read_vertex(aux_id, Place::GenTrg);
        b.cond(&[f_v], move |e| e.bool(f_v)).assign(
            out_id,
            Place::GenTrg,
            &[aux_t],
            move |e, _| Val::U(e.u64(aux_t) + 1),
        );
        let built = b.build().unwrap();
        // The group reads aux[trg(e)] (locality GenTrg), which is not among
        // the condition's localities ({Input}) -> no merge.
        let engine_plan = dgp_core::plan::compile(&built.ir, PlanMode::Optimized).unwrap();
        assert_eq!(engine_plan.merged, vec![false]);
        let action = engine.add_action(built).unwrap();

        let seeds: Vec<_> = (graph.owner(0) == ctx.rank())
            .then_some(0)
            .into_iter()
            .collect();
        once(ctx, &engine, action, &seeds);
        (ctx.rank() == 0).then(|| out.snapshot())
    });
    assert_eq!(result, vec![0, 42]);
}

/// Two modification groups at different localities in one condition, plus
/// pointer-indirected targets (the CC conflict shape).
#[test]
fn multi_group_modifications_at_pointer_targets() {
    let result = with_machine(3, |ctx| {
        // Graph: 0 -> 1. ptr[0] = 2, ptr[1] = 3 (pointers to "roots").
        // Action at v over out-edges: if ptr[u] != ptr[v]:
        //   tag[ptr[u]].insert(ptr[v]); tag[ptr[v]].insert(ptr[u])
        let el = EdgeList::from_pairs(4, &[(0, 1)]);
        let graph = DistGraph::build(&el, Distribution::cyclic(4, 3), false);
        let ptr = ctx.share(|| AtomicVertexMap::new(graph.distribution(), 0u64));
        let tag = ctx.share(|| LockedVertexMap::new(graph.distribution(), Vec::new()));
        // ptr[0]=2, ptr[1]=3 (set by owners).
        let r = ctx.rank();
        if graph.owner(0) == r {
            ptr.set(r, 0, 2);
        }
        if graph.owner(1) == r {
            ptr.set(r, 1, 3);
        }
        ctx.barrier();

        let engine = PatternEngine::new(ctx, graph.clone(), EngineConfig::default());
        let ptr_id = engine.register_vertex_map(&ptr);
        let tag_id = engine.register_set_map(&tag);

        let mut b = ActionBuilder::new("conflict", GeneratorIr::OutEdges);
        let p_v = b.read_vertex(ptr_id, Place::Input);
        let p_u = b.read_vertex(ptr_id, Place::GenTrg);
        let root_u = Place::map_at(ptr_id, Place::GenTrg);
        let root_v = Place::map_at(ptr_id, Place::Input);
        b.cond(&[p_v, p_u], move |e| e.u64(p_u) != e.u64(p_v))
            .insert(tag_id, root_u, &[p_v], move |e, _| Val::U(e.u64(p_v)))
            .insert(tag_id, root_v, &[p_u], move |e, _| Val::U(e.u64(p_u)));
        let action = engine.add_action(b.build().unwrap()).unwrap();

        let seeds: Vec<_> = (graph.owner(0) == ctx.rank())
            .then_some(0)
            .into_iter()
            .collect();
        once(ctx, &engine, action, &seeds);
        (ctx.rank() == 0).then(|| tag.snapshot())
    });
    // Conflict recorded symmetrically at both roots (2 and 3).
    assert_eq!(result, vec![vec![], vec![], vec![3], vec![2]]);
}

/// The MapSet generator: fan out over vertices stored in a set-valued
/// property instead of graph edges.
#[test]
fn mapset_generator_fans_out() {
    let result = with_machine(2, |ctx| {
        let graph = line_graph(5, 2);
        let friends = ctx.share(|| LockedVertexMap::new(graph.distribution(), Vec::new()));
        let pinged = ctx.share(|| AtomicVertexMap::new(graph.distribution(), 0u64));
        let r = ctx.rank();
        if graph.owner(0) == r {
            friends.set(r, 0, vec![2, 3, 4]);
        }
        ctx.barrier();

        let engine = PatternEngine::new(ctx, graph.clone(), EngineConfig::default());
        let friends_id = engine.register_set_map(&friends);
        let pinged_id = engine.register_vertex_map(&pinged);

        let mut b = ActionBuilder::new("ping", GeneratorIr::MapSet(friends_id));
        let p_u = b.read_vertex(pinged_id, Place::GenVertex);
        b.cond(&[p_u], move |e| e.u64(p_u) == 0).assign(
            pinged_id,
            Place::GenVertex,
            &[],
            move |e, _| Val::U(e.input() + 100),
        );
        let action = engine.add_action(b.build().unwrap()).unwrap();

        let seeds: Vec<_> = (graph.owner(0) == r).then_some(0).into_iter().collect();
        once(ctx, &engine, action, &seeds);
        (ctx.rank() == 0).then(|| pinged.snapshot())
    });
    assert_eq!(result, vec![0, 0, 100, 100, 100]);
}

/// The in_edges generator on a bidirectional graph, with co-located edge
/// properties read from the in-aligned copy.
#[test]
fn in_edges_generator_with_edge_props() {
    let result = with_machine(2, |ctx| {
        // Edges into vertex 3: (0,3,w=5), (1,3,w=7).
        let el = EdgeList::from_weighted(4, &[(0, 3, 5.0), (1, 3, 7.0), (3, 2, 1.0)]);
        let graph = ctx.share(|| DistGraph::build(&el, Distribution::block(4, 2), true));
        let weights = ctx.share(|| EdgeMap::from_weights(&graph, &el));
        let acc = ctx.share(|| AtomicVertexMap::new(graph.distribution(), 0.0f64));
        let engine = PatternEngine::new(ctx, graph.clone(), EngineConfig::default());
        let w_id = engine.register_edge_map(&weights);
        let acc_id = engine.register_vertex_map(&acc);

        // pull(v): for e in in_edges: acc[src(e)] += weight[e]
        let mut b = ActionBuilder::new("pull", GeneratorIr::InEdges);
        let w_e = b.read_edge(w_id);
        b.cond(&[w_e], move |e| e.f64(w_e) > 0.0).assign(
            acc_id,
            Place::GenSrc,
            &[w_e],
            move |e, old| Val::F(old.as_f64() + e.f64(w_e)),
        );
        let action = engine.add_action(b.build().unwrap()).unwrap();

        let seeds: Vec<_> = (graph.owner(3) == ctx.rank())
            .then_some(3)
            .into_iter()
            .collect();
        once(ctx, &engine, action, &seeds);
        (ctx.rank() == 0).then(|| acc.snapshot())
    });
    assert_eq!(result, vec![5.0, 7.0, 0.0, 0.0]);
}

/// Work hooks: fire exactly once per changed dependent vertex, at its
/// owner, and not for unchanged modifications.
#[test]
fn work_hooks_fire_per_change_at_owner() {
    let fired = std::sync::Arc::new(parking_lot::Mutex::new(Vec::<(usize, VertexId)>::new()));
    let f2 = fired.clone();
    Machine::run(MachineConfig::new(2), move |ctx| {
        let fired = f2.clone();
        let graph = line_graph(4, 2);
        let lvl = ctx.share(|| AtomicVertexMap::new(graph.distribution(), u64::MAX));
        let engine = PatternEngine::new(ctx, graph.clone(), EngineConfig::default());
        let lvl_id = engine.register_vertex_map(&lvl);

        let mut b = ActionBuilder::new("expand", GeneratorIr::OutEdges);
        let l_t = b.read_vertex(lvl_id, Place::GenTrg);
        let l_v = b.read_vertex(lvl_id, Place::Input);
        b.cond(&[l_t, l_v], move |e| {
            e.u64(l_v) != u64::MAX && e.u64(l_t) > e.u64(l_v) + 1
        })
        .assign(lvl_id, Place::GenTrg, &[l_v], move |e, _| {
            Val::U(e.u64(l_v) + 1)
        });
        let action = engine.add_action(b.build().unwrap()).unwrap();

        let rank = ctx.rank();
        if graph.owner(0) == rank {
            lvl.set(rank, 0, 0);
        }
        ctx.barrier();
        let eng2 = engine.clone();
        let fired2 = fired.clone();
        engine.set_work_hook(
            action,
            std::sync::Arc::new(move |hctx, v| {
                fired2.lock().push((hctx.rank(), v));
                eng2.run_at(hctx, action, v);
            }),
        );
        ctx.epoch(|ctx| {
            if graph.owner(0) == ctx.rank() {
                engine.invoke(ctx, action, 0);
            }
        });
        // Re-running from quiescence changes nothing: no hook fires.
        let before = fired.lock().len();
        ctx.epoch(|ctx| {
            if graph.owner(0) == ctx.rank() {
                engine.invoke(ctx, action, 0);
            }
        });
        assert_eq!(fired.lock().len(), before, "no new dependencies");
    });
    let mut events = fired.lock().clone();
    events.sort_unstable();
    // Vertices 1,2,3 were each improved exactly once, at their owner
    // (block(4,2): rank0 owns 0-1, rank1 owns 2-3).
    assert_eq!(events, vec![(0, 1), (1, 2), (1, 3)]);
}

/// The atomic fast path and the lock-map path produce identical results
/// under handler concurrency (many racing improvements of one cell).
#[test]
fn atomic_and_lock_paths_agree_under_contention() {
    let mut snapshots = Vec::new();
    for sync in [SyncMode::Atomic, SyncMode::LockMap] {
        let result = with_machine(2, move |ctx| {
            // Star into vertex 9: edges (i, 9) weight i -> dist[9] should
            // become min over seeds.
            let mut el = EdgeList::new(10);
            for i in 0..9 {
                el.push_weighted(i, 9, (9 - i) as f64);
            }
            let graph = ctx.share(|| DistGraph::build(&el, Distribution::block(10, 2), false));
            let weights = ctx.share(|| EdgeMap::from_weights(&graph, &el));
            let dist = ctx.share(|| AtomicVertexMap::new(graph.distribution(), f64::INFINITY));
            let engine = PatternEngine::new(
                ctx,
                graph.clone(),
                EngineConfig {
                    sync,
                    ..EngineConfig::default()
                },
            );
            let d_id = engine.register_vertex_map(&dist);
            let w_id = engine.register_edge_map(&weights);
            let action = engine.add_action(dgp_algorithms_relax(d_id, w_id)).unwrap();
            let rank = ctx.rank();
            for v in graph.distribution().owned(rank) {
                if v < 9 {
                    dist.set(rank, v, 0.0);
                }
            }
            ctx.barrier();
            let seeds: Vec<_> = graph
                .distribution()
                .owned(rank)
                .filter(|&v| v < 9)
                .collect();
            fixed_point(ctx, &engine, action, &seeds);
            (ctx.rank() == 0).then(|| dist.snapshot())
        });
        snapshots.push(result);
    }
    assert_eq!(snapshots[0], snapshots[1]);
    assert_eq!(snapshots[0][9], 1.0); // min over (9 - i)
}

// A local copy of the SSSP relax builder (dgp-core tests cannot depend on
// dgp-algorithms without a cycle).
fn dgp_algorithms_relax(
    dist: dgp_core::ir::MapId,
    weight: dgp_core::ir::MapId,
) -> dgp_core::builder::BuiltAction {
    let mut b = ActionBuilder::new("relax", GeneratorIr::OutEdges);
    let d_trg = b.read_vertex(dist, Place::GenTrg);
    let d_v = b.read_vertex(dist, Place::Input);
    let w_e = b.read_edge(weight);
    b.cond(&[d_trg, d_v, w_e], move |e| {
        e.f64(d_trg) > e.f64(d_v) + e.f64(w_e)
    })
    .assign(dist, Place::GenTrg, &[d_v, w_e], move |e, _| {
        Val::F(e.f64(d_v) + e.f64(w_e))
    });
    b.build().unwrap()
}

/// Faithful and optimized plan modes execute to identical results (the
/// extra return hops are semantically inert).
#[test]
fn plan_modes_execute_identically() {
    let mut results = Vec::new();
    for mode in [PlanMode::Faithful, PlanMode::Optimized] {
        let result = with_machine(2, move |ctx| {
            // comp[v] = lbl[pnt[v]] — the two-hop CC rewrite shape.
            let graph = line_graph(4, 2);
            let pnt = ctx.share(|| AtomicVertexMap::new(graph.distribution(), 0u64));
            let lbl = ctx.share(|| AtomicVertexMap::new(graph.distribution(), 0u64));
            let comp = ctx.share(|| AtomicVertexMap::new(graph.distribution(), u64::MAX));
            let r = ctx.rank();
            for v in graph.distribution().owned(r) {
                pnt.set(r, v, (v + 1) % 4); // pointer ring
                lbl.set(r, v, v * 10);
            }
            ctx.barrier();
            let engine = PatternEngine::new(
                ctx,
                graph.clone(),
                EngineConfig {
                    plan_mode: mode,
                    ..EngineConfig::default()
                },
            );
            let pnt_id = engine.register_vertex_map(&pnt);
            let lbl_id = engine.register_vertex_map(&lbl);
            let comp_id = engine.register_vertex_map(&comp);
            let mut b = ActionBuilder::new("rewrite", GeneratorIr::None);
            let p_v = b.read_vertex(pnt_id, Place::Input);
            let l_p = b.read_vertex(lbl_id, Place::map_at(pnt_id, Place::Input));
            let c_v = b.read_vertex(comp_id, Place::Input);
            b.cond(&[p_v, l_p, c_v], move |e| e.u64(c_v) != e.u64(l_p))
                .assign(comp_id, Place::Input, &[l_p], move |e, _| {
                    Val::U(e.u64(l_p))
                });
            let action = engine.add_action(b.build().unwrap()).unwrap();
            let locals: Vec<_> = graph.distribution().owned(r).collect();
            once(ctx, &engine, action, &locals);
            (ctx.rank() == 0).then(|| comp.snapshot())
        });
        results.push(result);
    }
    assert_eq!(results[0], results[1]);
    assert_eq!(results[0], vec![10, 20, 30, 0]); // lbl[(v+1)%4]
}

/// Engine statistics count what actually happened.
#[test]
fn engine_stats_are_exact() {
    with_machine(1, |ctx| {
        let graph = line_graph(3, 1); // edges 0->1->2
        let lvl = ctx.share(|| AtomicVertexMap::new(graph.distribution(), u64::MAX));
        lvl.set(0, 0, 0);
        let engine = PatternEngine::new(ctx, graph.clone(), EngineConfig::default());
        let lvl_id = engine.register_vertex_map(&lvl);
        let action = engine
            .add_action({
                let mut b = ActionBuilder::new("expand", GeneratorIr::OutEdges);
                let l_t = b.read_vertex(lvl_id, Place::GenTrg);
                let l_v = b.read_vertex(lvl_id, Place::Input);
                b.cond(&[l_t, l_v], move |e| {
                    e.u64(l_v) != u64::MAX && e.u64(l_t) > e.u64(l_v) + 1
                })
                .assign(lvl_id, Place::GenTrg, &[l_v], move |e, _| {
                    Val::U(e.u64(l_v) + 1)
                });
                b.build().unwrap()
            })
            .unwrap();
        fixed_point(ctx, &engine, action, &[0]);
        let s = engine.stats();
        // Actions: start at 0, then hooks at 1 and 2 = 3 starts.
        assert_eq!(s.actions_started, 3);
        // Edges examined: out(0)=1, out(1)=1, out(2)=0 = 2 instances.
        assert_eq!(s.items_generated, 2);
        assert_eq!(s.conditions_true, 2);
        assert_eq!(s.conditions_false, 0);
        assert_eq!(s.modifications_changed, 2);
        assert_eq!(s.dependencies_fired, 2);
        Some(())
    });
}

/// The weight-filtered out-edge generator (§II-A light/heavy split) only
/// expands matching edges, and light/heavy partition the edge set.
#[test]
fn filtered_generator_partitions_edges() {
    let result = with_machine(2, |ctx| {
        let el = EdgeList::from_weighted(5, &[(0, 1, 0.2), (0, 2, 0.9), (0, 3, 0.5), (0, 4, 1.5)]);
        let graph = ctx.share(|| DistGraph::build(&el, Distribution::block(5, 2), false));
        let weights = ctx.share(|| EdgeMap::from_weights(&graph, &el));
        let touched = ctx.share(|| AtomicVertexMap::new(graph.distribution(), 0u64));
        let engine = PatternEngine::new(ctx, graph.clone(), EngineConfig::default());
        let w_id = engine.register_edge_map(&weights);
        let t_id = engine.register_vertex_map(&touched);

        let mk = |light: bool, tag: u64| {
            let gen = if light {
                dgp_core::ir::GeneratorIr::out_edges_light(w_id, 0.5)
            } else {
                dgp_core::ir::GeneratorIr::out_edges_heavy(w_id, 0.5)
            };
            let mut b = ActionBuilder::new(if light { "light" } else { "heavy" }, gen);
            let t_trg = b.read_vertex(t_id, Place::GenTrg);
            b.cond(&[t_trg], move |_| true)
                .assign(t_id, Place::GenTrg, &[], move |_, old| {
                    Val::U(old.as_u64() + tag)
                });
            b.build().unwrap()
        };
        let light = engine.add_action(mk(true, 1)).unwrap();
        let heavy = engine.add_action(mk(false, 100)).unwrap();

        let seeds: Vec<_> = (graph.owner(0) == ctx.rank())
            .then_some(0)
            .into_iter()
            .collect();
        once(ctx, &engine, light, &seeds);
        once(ctx, &engine, heavy, &seeds);
        (ctx.rank() == 0).then(|| touched.snapshot())
    });
    // Weights: 1<-0.2 (light), 2<-0.9 (heavy), 3<-0.5 (light, inclusive),
    // 4<-1.5 (heavy).
    assert_eq!(result, vec![0, 1, 100, 1, 100]);
}

/// A star into vertex 9 on two ranks: sources 0..9 at distance 0, unit
/// weights, so every relax hop carries 1.0 into the same cell and a
/// dominance-filtered hop sends it once per sending thread. `setup`
/// registers actions on the engine (maps `dist`, `weight`, `aux`) and
/// returns the one to drive; the result is that action's
/// `combinable_hops` after setup, `dist[9]`, and the machine's cache
/// hits and misses.
fn star_relax(
    exec: Exec,
    setup: impl Fn(&PatternEngine, MapId, MapId, MapId) -> ActionId + Send + Sync,
) -> (usize, f64, u64, u64) {
    with_machine(2, |ctx| {
        let mut el = EdgeList::new(10);
        for i in 0..9 {
            el.push_weighted(i, 9, 1.0);
        }
        let graph = ctx.share(|| DistGraph::build(&el, Distribution::block(10, 2), false));
        let weights = ctx.share(|| EdgeMap::from_weights(&graph, &el));
        let dist = ctx.share(|| AtomicVertexMap::new(graph.distribution(), 0.0f64));
        let aux = ctx.share(|| AtomicVertexMap::new(graph.distribution(), 1.0f64));
        let rank = ctx.rank();
        if graph.owner(9) == rank {
            dist.set(rank, 9, f64::INFINITY);
        }
        ctx.barrier();
        let cfg = EngineConfig {
            exec,
            ..EngineConfig::default()
        };
        let engine = PatternEngine::new(ctx, graph.clone(), cfg);
        let d_id = engine.register_vertex_map(&dist);
        let w_id = engine.register_edge_map(&weights);
        let a_id = engine.register_vertex_map(&aux);
        let action = setup(&engine, d_id, w_id, a_id);
        let hops = engine.combinable_hops(action);
        let sources: Vec<_> = graph
            .distribution()
            .owned(rank)
            .filter(|&v| v < 9)
            .collect();
        once(ctx, &engine, action, &sources);
        let stats = ctx.stats();
        let d9 = dist.snapshot()[9];
        ctx.barrier();
        (rank == 0).then_some((hops, d9, stats.cache_hits, stats.cache_misses))
    })
}

fn min_relax(dist: MapId, weight: MapId) -> BuiltAction {
    let mut b = ActionBuilder::new("relax", GeneratorIr::OutEdges);
    let d_v = b.read_vertex(dist, Place::Input);
    let w_e = b.read_edge(weight);
    b.min(dist, Place::GenTrg, &[d_v, w_e], move |e| {
        Val::F(e.f64(d_v) + e.f64(w_e))
    });
    b.build().unwrap()
}

/// `dist[v] = dist[v]` behind a false test: a second, non-`Min` writer
/// of `dist` that never changes anything.
fn inert_assign(dist: MapId) -> BuiltAction {
    let mut b = ActionBuilder::new("inert", GeneratorIr::None);
    let d_v = b.read_vertex(dist, Place::Input);
    b.cond(&[d_v], |_| false)
        .assign(dist, Place::Input, &[d_v], move |e, _| e.val(d_v));
    b.build().unwrap()
}

fn combinable_fact(built: &BuiltAction) -> Vec<usize> {
    compile(&built.ir, PlanMode::Optimized)
        .unwrap()
        .facts
        .expect("clean plans carry facts")
        .combinable
}

/// The positive control: a `Min` relax hop is combinable, dominated
/// sends are dropped, and the answer is the one the drops cannot change.
#[test]
fn min_relax_drops_dominated_sends() {
    assert_eq!(combinable_fact(&min_relax(0, 1)).len(), 1);
    let (hops, d9, hits, misses) = star_relax(Exec::Compiled, |e, d, w, _| {
        e.add_action(min_relax(d, w)).unwrap()
    });
    assert_eq!(hops, 1);
    assert_eq!(d9, 1.0);
    assert!(hits > 0, "nine equal candidates, two sending threads");
    assert_eq!(hits + misses, 9, "every relax hop consulted the cache once");
}

/// A `Min` whose right-hand side reads a slot gathered at the target: the
/// sender does not hold the value, so the hop is not combinable.
#[test]
fn min_reading_a_target_slot_is_not_combinable() {
    let build = |dist: MapId, aux: MapId| {
        let mut b = ActionBuilder::new("from_target", GeneratorIr::OutEdges);
        let a_t = b.read_vertex(aux, Place::GenTrg);
        b.min(dist, Place::GenTrg, &[a_t], move |e| Val::F(e.f64(a_t)));
        b.build().unwrap()
    };
    assert!(combinable_fact(&build(0, 2)).is_empty());
    let (hops, d9, hits, misses) = star_relax(Exec::Compiled, move |e, d, _, a| {
        e.add_action(build(d, a)).unwrap()
    });
    assert_eq!((hops, d9, hits, misses), (0, 1.0, 0, 0));
}

/// A `Min` hop followed by a further step: the instance does not end at
/// the modification, so dropping the hop would drop that step too.
#[test]
fn min_followed_by_a_step_is_not_combinable() {
    let build = |dist: MapId, weight: MapId, aux: MapId| {
        let mut b = ActionBuilder::new("then_more", GeneratorIr::OutEdges);
        let d_v = b.read_vertex(dist, Place::Input);
        let w_e = b.read_edge(weight);
        b.min(dist, Place::GenTrg, &[d_v, w_e], move |e| {
            Val::F(e.f64(d_v) + e.f64(w_e))
        });
        let x_v = b.read_vertex(aux, Place::Input);
        b.cond(&[x_v], |_| true)
            .assign(aux, Place::Input, &[], |_, _| Val::F(2.0));
        b.build().unwrap()
    };
    assert!(combinable_fact(&build(0, 1, 2)).is_empty());
    let (hops, d9, hits, misses) = star_relax(Exec::Compiled, move |e, d, w, a| {
        e.add_action(build(d, w, a)).unwrap()
    });
    assert_eq!((hops, d9, hits, misses), (0, 1.0, 0, 0));
}

/// A map with a non-`Min` writer is never filtered — whether that writer
/// was registered before the `Min` action or by a later `add_action`
/// (the plan fact stands; the engine-wide rule switches it off).
#[test]
fn a_non_min_writer_switches_filtering_off() {
    assert_eq!(combinable_fact(&min_relax(0, 1)).len(), 1);
    let (hops, d9, hits, misses) = star_relax(Exec::Compiled, |e, d, w, _| {
        e.add_action(inert_assign(d)).unwrap();
        e.add_action(min_relax(d, w)).unwrap()
    });
    assert_eq!((hops, d9, hits, misses), (0, 1.0, 0, 0), "writer first");
    let (hops, d9, hits, misses) = star_relax(Exec::Compiled, |e, d, w, _| {
        let relax = e.add_action(min_relax(d, w)).unwrap();
        assert_eq!(e.combinable_hops(relax), 1);
        e.add_action(inert_assign(d)).unwrap();
        relax
    });
    assert_eq!((hops, d9, hits, misses), (0, 1.0, 0, 0), "writer later");
}

/// `Exec::Reference` is the unfiltered oracle: it never consults the
/// cache, whatever the plan proves.
#[test]
fn reference_executor_never_filters() {
    let (hops, d9, hits, misses) = star_relax(Exec::Reference, |e, d, w, _| {
        e.add_action(min_relax(d, w)).unwrap()
    });
    assert_eq!((hops, d9, hits, misses), (0, 1.0, 0, 0));
}

/// Test before the hop: `if (flag[v]) acc[trg(e)] += 1` with every flag
/// false reads only the payload, so it is tested at `v` and no relax hop
/// is ever sent — the only messages are the start messages, under both
/// executors. The paper-literal plan still ships every test.
#[test]
fn failing_payload_test_sends_no_hop() {
    for (plan_mode, exec, hops) in [
        (PlanMode::Optimized, Exec::Compiled, 0),
        (PlanMode::Optimized, Exec::Reference, 0),
        (PlanMode::Faithful, Exec::Compiled, 7),
    ] {
        let (sent, tested, acc) = with_machine(2, move |ctx| {
            let graph = line_graph(8, 2);
            let flag = ctx.share(|| AtomicVertexMap::new(graph.distribution(), false));
            let acc = ctx.share(|| AtomicVertexMap::new(graph.distribution(), 0u64));
            let cfg = EngineConfig {
                plan_mode,
                exec,
                ..EngineConfig::default()
            };
            let engine = PatternEngine::new(ctx, graph.clone(), cfg);
            let flag_id = engine.register_vertex_map(&flag);
            let acc_id = engine.register_vertex_map(&acc);
            let mut b = ActionBuilder::new("flagged", GeneratorIr::OutEdges);
            let f_v = b.read_vertex(flag_id, Place::Input);
            b.cond(&[f_v], move |e| e.bool(f_v))
                .assign(acc_id, Place::GenTrg, &[], |_, old| {
                    Val::U(old.as_u64() + 1)
                });
            let action = engine.add_action(b.build().unwrap()).unwrap();
            let locals: Vec<VertexId> = graph.distribution().owned(ctx.rank()).collect();
            let before = ctx.stats().messages_sent;
            ctx.barrier();
            once(ctx, &engine, action, &locals);
            let sent = ctx.stats().messages_sent - before;
            let tested = ctx.sum_ranks(engine.stats().conditions_false);
            (ctx.rank() == 0).then(|| (sent, tested, acc.snapshot()))
        });
        let label = format!("{plan_mode:?}, {exec:?}");
        assert_eq!(sent, 8 + hops, "8 start messages, {hops} hops ({label})");
        assert_eq!(tested, 7, "every edge tested once ({label})");
        assert_eq!(acc, vec![0; 8], "{label}");
    }
}

/// An assign of 2^32 into a `u32` map is a pattern type error, not a
/// silent wrap: the decode panics in the handler and the run returns
/// `HandlerPanicked`, under both executors, through both the lock path
/// (a test reading nothing) and the fused atomic step (a test reading the
/// target). No wrapped value is ever stored.
#[test]
fn out_of_range_assign_fails_the_run() {
    for exec in [Exec::Compiled, Exec::Reference] {
        for reads_target in [false, true] {
            let graph = line_graph(4, 2);
            let wide = AtomicVertexMap::new(graph.distribution(), 7u32);
            let map = wide.clone();
            let err = Machine::try_run(MachineConfig::new(2), move |ctx| {
                let cfg = EngineConfig {
                    exec,
                    ..EngineConfig::default()
                };
                let engine = PatternEngine::new(ctx, graph.clone(), cfg);
                let w_id = engine.register_vertex_map(&map);
                let mut b = ActionBuilder::new("widen", GeneratorIr::None);
                let reads: Vec<_> = if reads_target {
                    vec![b.read_vertex(w_id, Place::Input)]
                } else {
                    Vec::new()
                };
                b.cond(&reads, |_| true)
                    .assign(w_id, Place::Input, &[], |_, _| Val::U(1 << 32));
                let action = engine.add_action(b.build().unwrap()).unwrap();
                let locals: Vec<VertexId> = graph.distribution().owned(ctx.rank()).collect();
                once(ctx, &engine, action, &locals);
            })
            .expect_err("an out-of-range assign must fail the run");
            let label = format!("{exec:?}, reads target: {reads_target}");
            match err {
                MachineError::HandlerPanicked { message, .. } => {
                    assert!(
                        message.contains("out of range for u32"),
                        "{label}: {message}"
                    )
                }
                other => panic!("{label}: expected HandlerPanicked, got {other}"),
            }
            assert_eq!(wide.snapshot(), vec![7; 4], "{label}: nothing stored");
        }
    }
}
