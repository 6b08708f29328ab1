//! Differential validation of the static verifier against the engine's
//! dynamic locality cross-validator.
//!
//! The property (the verifier's soundness contract): any pattern the
//! static verifier accepts executes without ever touching a property
//! value away from the locality the plan assigned it — checked by
//! running on [`Exec::Reference`], the guarded interpreter, which counts
//! owner-only violations instead of asserting, and demanding zero.
//!
//! The converse direction: seeded-broken variants of the same specs
//! (a mod retargeted to an undeclared pointer locality; a tampered
//! gather) are flagged *statically*, before any engine exists.

use proptest::prelude::*;

use dgp_am::{Machine, MachineConfig};
use dgp_core::engine::{EngineConfig, Exec, PatternEngine};
use dgp_core::ir::Place;
use dgp_core::plan::{compile, PlanMode};
use dgp_core::strategies::once;
use dgp_core::verify::{verify_ir, DiagCode};
use dgp_graph::properties::AtomicVertexMap;
use dgp_graph::{DistGraph, Distribution, EdgeList};

mod common;
use common::{arb_runtime_spec, build_spec, RUNTIME_VALUE_MAPS};

/// A small graph every runtime generator works on: a ring with chords,
/// stored bidirectionally (for `InEdges`/`Adj`).
fn test_graph(n: u64) -> (EdgeList, Distribution) {
    let mut el = EdgeList::new(n);
    for v in 0..n {
        el.push(v, (v + 1) % n);
        if v % 3 == 0 {
            el.push(v, (v + 2) % n);
        }
    }
    (el, Distribution::block(n, 2))
}

proptest! {
    // Each case spins up a full two-rank machine; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Statically-clean random patterns never trip the dynamic
    /// owner-only check, in either plan mode.
    #[test]
    fn verifier_clean_specs_run_without_locality_violations(
        spec in arb_runtime_spec(),
        faithful in any::<bool>(),
    ) {
        // The verifier may legitimately reject random specs (stale
        // guards, races); the property quantifies over the accepted ones.
        prop_assume!(build_spec(&spec).is_ok());

        let spec2 = spec.clone();
        let violations = Machine::run(MachineConfig::new(2), move |ctx| {
            let n = 8u64;
            let (el, dist) = test_graph(n);
            let graph = DistGraph::build(&el, dist, true);
            let cfg = EngineConfig {
                exec: Exec::Reference,
                plan_mode: if faithful { PlanMode::Faithful } else { PlanMode::Optimized },
                ..Default::default()
            };
            let engine = PatternEngine::new(ctx, graph.clone(), cfg);
            for _ in 0..RUNTIME_VALUE_MAPS {
                let m = ctx.share(|| AtomicVertexMap::new(graph.distribution(), 0u64));
                engine.register_vertex_map(&m);
            }
            // The pointer map: every vertex points at its ring successor.
            let pnt = ctx.share(|| AtomicVertexMap::new(graph.distribution(), 0u64));
            engine.register_vertex_map(&pnt);
            for v in 0..n {
                if graph.owner(v) == ctx.rank() {
                    pnt.set(ctx.rank(), v, (v + 1) % n);
                }
            }
            ctx.barrier();

            let built = build_spec(&spec2).expect("spec built on the driver");
            let action = engine.add_action(built).expect("clean spec installs");
            let seeds: Vec<u64> = (0..n).filter(|&v| graph.owner(v) == ctx.rank()).collect();
            once(ctx, &engine, action, &seeds);
            engine.locality_violations()
        });
        for (rank, v) in violations.iter().enumerate() {
            prop_assert_eq!(
                *v, 0,
                "rank {} saw {} locality violations for {:?} (faithful={})",
                rank, v, spec, faithful
            );
        }
    }

    /// Seeded-broken variants are flagged statically: retargeting any
    /// modification to an undeclared pointer locality is a P006 error.
    #[test]
    fn broken_mod_target_is_flagged_statically(spec in arb_runtime_spec()) {
        prop_assume!(build_spec(&spec).is_ok());
        let built = build_spec(&spec).unwrap();
        let mut ir = built.ir.clone();
        ir.conditions[0].mods[0].at = Place::map_at(9, Place::Input);
        let report = verify_ir(&ir);
        prop_assert!(report.has_errors(), "mutated {:?} not flagged:\n{}", spec, report);
        prop_assert!(
            !report.with_code(DiagCode::P006).is_empty(),
            "expected P006 for {:?}:\n{}", spec, report
        );
    }

    /// Seeded-broken plans are flagged statically: stripping every
    /// gather (and every fresh local read) from a compiled plan starves
    /// each condition's reads, and the plan checker reports D002.
    #[test]
    fn broken_plan_is_flagged_statically(spec in arb_runtime_spec()) {
        prop_assume!(build_spec(&spec).is_ok());
        let built = build_spec(&spec).unwrap();
        let plan = compile(&built.ir, PlanMode::Optimized).expect("clean spec compiles");
        let mut tampered = plan.clone();
        for step in &mut tampered.steps {
            match step {
                dgp_core::plan::ExecStep::Gather { slots, .. } => slots.clear(),
                dgp_core::plan::ExecStep::Eval { local_slots, .. }
                | dgp_core::plan::ExecStep::EvalModify { local_slots, .. }
                | dgp_core::plan::ExecStep::ModifyGroup { local_slots, .. } => {
                    local_slots.clear()
                }
                _ => {}
            }
        }
        let diags = dgp_core::verify::verify_action(&built.ir, &tampered);
        prop_assert!(
            diags.iter().any(|d| d.code == DiagCode::D002),
            "tampered plan for {:?} not flagged: {:?}", spec, diags
        );
    }
}
