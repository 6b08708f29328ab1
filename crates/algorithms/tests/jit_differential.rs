//! Compiled plans vs. the reference interpreter (INTERNALS §13–§14): the
//! two ends of the contract the differential rests on.
//!
//! The plan JIT monomorphizes every proof-carrying plan into a chain of
//! typed closures; the guarded interpreter is the semantics oracle. The
//! differential itself — every registry row on both executors, both plan
//! modes and every delivery, bit-identical wherever the computation is
//! deterministic — is the conformance matrix (`tests/conformance.rs`).
//! This suite pins what it rests on: every shipped plan *earns* the proof
//! the compiler demands, the executor selector is honoured, and an action
//! the compiler cannot take (a map handle it does not recognize) runs on
//! the same guarded interpreter with the reason recorded.

use std::sync::Arc;

use dgp_algorithms::sssp::{Sssp, SsspStrategy};
use dgp_algorithms::util::owned_seeds;
use dgp_algorithms::{patterns, Run};
use dgp_am::{Machine, MachineConfig};
use dgp_core::engine::{AtomicMapHandle, ErasedMap, JitFallback, MapAccess, PatternEngine, Val};
use dgp_core::ir::PropertyKind;
use dgp_core::plan::{compile, PlanMode};
use dgp_core::{strategies, EngineConfig, Exec};
use dgp_graph::generators::{self, RmatParams};
use dgp_graph::properties::AtomicVertexMap;
use dgp_graph::properties::EdgeMap;
use dgp_graph::{DistGraph, Distribution, EdgeList, VertexId};

fn engine(mode: PlanMode, exec: Exec) -> EngineConfig {
    EngineConfig {
        plan_mode: mode,
        exec,
        ..Default::default()
    }
}

fn rmat_weighted(scale: u32, seed: u64) -> EdgeList {
    let mut el = generators::rmat(scale, 8, RmatParams::GRAPH500, seed);
    el.randomize_weights(1.0, 10.0, seed ^ 0x9e37);
    el
}

fn assert_bits_eq(fast: &[f64], slow: &[f64], what: &str) {
    assert_eq!(fast.len(), slow.len(), "{what}: length mismatch");
    for (v, (a, b)) in fast.iter().zip(slow).enumerate() {
        assert!(
            a.to_bits() == b.to_bits(),
            "{what}: vertex {v} differs: compiled {a} vs interpreted {b}"
        );
    }
}

/// Every shipped pattern family earns a proof, in both plan modes — so
/// compiled code is what production runs.
#[test]
fn every_builtin_plan_carries_a_proof_in_both_modes() {
    for family in dgp_algorithms::builtin_patterns() {
        for action in family.actions() {
            for mode in [PlanMode::Faithful, PlanMode::Optimized] {
                let plan = compile(&action.ir, mode).unwrap_or_else(|e| {
                    panic!(
                        "{}/{} ({mode:?}) fails to compile: {e}",
                        family.name(),
                        action.ir.name
                    )
                });
                let facts = plan.facts.unwrap_or_else(|| {
                    panic!(
                        "{}/{} ({mode:?}) compiled without a proof",
                        family.name(),
                        action.ir.name
                    )
                });
                // A plan that still needs its runtime guards would make
                // guard-free compiled code unsound; every shipped plan
                // must discharge at least its own sites.
                assert_eq!(
                    u64::from(facts.locality_sites + facts.consumed_sites),
                    facts.runtime_checks_elided(),
                    "{}/{} ({mode:?})",
                    family.name(),
                    action.ir.name
                );
            }
        }
    }
}

/// The gate itself: a shipped plan compiles under `Exec::Compiled`, stays
/// on the interpreter under `Exec::Reference`, and the reason is
/// observable.
#[test]
fn sssp_compiles_by_default_and_falls_back_on_request() {
    let el = rmat_weighted(6, 3);
    let dist = Distribution::block(el.num_vertices(), 2);
    let graph = DistGraph::build(&el, dist, false);
    let cases = [
        (EngineConfig::default(), None),
        (
            engine(PlanMode::Optimized, Exec::Reference),
            Some(JitFallback::Reference),
        ),
    ];
    for (cfg, expect) in cases {
        let g = graph.clone();
        let el = el.clone();
        let got = Machine::run(MachineConfig::new(2), move |ctx| {
            let weights = EdgeMap::from_weights(&g, &el);
            let s = Sssp::install(ctx, &g, &weights, cfg);
            (
                s.engine.compiles(s.relax),
                s.engine.compile_fallback(s.relax),
            )
        });
        for (compiles, fallback) in got {
            assert_eq!(compiles, expect.is_none(), "under {cfg:?}");
            assert_eq!(fallback, expect, "under {cfg:?}");
        }
    }
}

/// A vertex map behind a handle type the compiler's downcasts do not
/// know: same storage as an [`AtomicMapHandle`], opaque to the JIT.
struct OpaqueMap(AtomicMapHandle<f64>);

impl ErasedMap for OpaqueMap {
    fn kind(&self) -> PropertyKind {
        self.0.kind()
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn read_vertex(&self, rank: usize, v: VertexId) -> Val {
        self.0.read_vertex(rank, v)
    }
    fn write_vertex(&self, rank: usize, v: VertexId, val: Val) -> Val {
        self.0.write_vertex(rank, v, val)
    }
    fn update_vertex(&self, rank: usize, v: VertexId, f: &dyn Fn(Val) -> Val) -> (Val, Val, bool) {
        self.0.update_vertex(rank, v, f)
    }
}

/// The fallback under the default executor: an action over a map the
/// compiler cannot downcast reports `UnsupportedMap`, runs on the guarded
/// interpreter, computes what the typed (compiled) run computes, and —
/// being a verifier-clean plan — trips no guard.
#[test]
fn undowncastable_map_falls_back_to_the_guarded_interpreter() {
    let el = rmat_weighted(6, 3);
    let graph = DistGraph::build(&el, Distribution::block(el.num_vertices(), 3), false);
    let typed = Run::new(3)
        .sssp(&el, 0, SsspStrategy::FixedPoint)
        .expect("typed run")
        .result;
    let mut out = Machine::run(MachineConfig::new(3), |ctx| {
        let engine = PatternEngine::new(ctx, graph.clone(), EngineConfig::default());
        let dist = ctx.share(|| AtomicVertexMap::new(graph.distribution(), f64::INFINITY));
        let dist_id =
            engine.register_map(Arc::new(OpaqueMap(AtomicMapHandle { map: dist.clone() })));
        let weights = EdgeMap::from_weights(&graph, &el);
        let w_id = engine.register_edge_map(&weights);
        let relax = engine
            .add_action(patterns::relax(dist_id, w_id))
            .expect("relax installs");
        assert!(!engine.compiles(relax));
        assert!(
            matches!(
                engine.compile_fallback(relax),
                Some(JitFallback::UnsupportedMap {
                    map,
                    access: MapAccess::VertexRead | MapAccess::Assign,
                }) if map == dist_id as usize
            ),
            "fallback: {:?}",
            engine.compile_fallback(relax)
        );
        let seeds = owned_seeds(ctx, &graph, &[0]);
        for &v in &seeds {
            dist.set(ctx.rank(), v, 0.0);
        }
        ctx.barrier();
        strategies::fixed_point(ctx, &engine, relax, &seeds);
        let violations = ctx.sum_ranks(engine.locality_violations());
        (ctx.rank() == 0).then(|| (dist.snapshot(), violations))
    });
    let (opaque, violations) = out[0].take().unwrap();
    assert_bits_eq(&typed, &opaque, "sssp over an opaque map");
    assert_eq!(violations, 0);
}
