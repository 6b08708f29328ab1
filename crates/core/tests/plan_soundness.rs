//! Planner soundness: for randomized valid actions, the compiled message
//! program never reads a payload slot before some step on the same path
//! has gathered it — checked by abstractly interpreting every path of the
//! plan (both branches of every condition).

use proptest::prelude::*;

use dgp_core::plan::soundness::analyze;
use dgp_core::plan::{compile, test_before_hop, ExecPlan, ExecStep, PlanMode};

mod common;
use common::arb_action;

fn gotos(plan: &ExecPlan) -> usize {
    plan.steps
        .iter()
        .filter(|s| matches!(s, ExecStep::Goto { .. }))
        .count()
}

/// Steps `g` whose `Goto` leads straight to a test reading nothing fresh.
fn payload_tests_after_hops(plan: &ExecPlan) -> Vec<usize> {
    (0..plan.steps.len())
        .filter(|&g| {
            let ExecStep::Goto { next, .. } = plan.steps[g] else {
                return false;
            };
            matches!(
                &plan.steps[next],
                ExecStep::Eval { local_slots, .. } | ExecStep::EvalModify { local_slots, .. }
                    if local_slots.is_empty()
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Test before the hop moves tests, never hops: run on the
    /// paper-literal plan (which `compile` leaves alone) it adds no `Goto`,
    /// leaves no payload-only test behind a hop, keeps the plan sound,
    /// and keeps the firing path's hops. No `Optimized` plan is left with
    /// a payload-only test right after a hop.
    #[test]
    fn tests_run_before_their_hops(ir in arb_action()) {
        if let Ok(faithful) = compile(&ir, PlanMode::Faithful) {
            let mut rewritten = faithful.clone();
            test_before_hop(&mut rewritten);
            prop_assert_eq!(gotos(&rewritten), gotos(&faithful), "{}", rewritten);
            prop_assert!(payload_tests_after_hops(&rewritten).is_empty(), "{}", rewritten);
            prop_assert_eq!(
                rewritten.comm_plan().hops,
                faithful.comm_plan().hops,
                "{}",
                rewritten
            );
            let analysis = analyze(&ir, &rewritten);
            prop_assert!(
                !analysis.has_errors(),
                "{:?}\n{}",
                analysis.diagnostics,
                rewritten
            );
        }
        if let Ok(optimized) = compile(&ir, PlanMode::Optimized) {
            prop_assert!(payload_tests_after_hops(&optimized).is_empty(), "{}", optimized);
            let mut again = optimized.clone();
            test_before_hop(&mut again);
            prop_assert_eq!(again.to_string(), optimized.to_string());
        }
    }

    #[test]
    fn compiled_plans_never_read_unset_slots(
        ir in arb_action(),
        mode in prop::sample::select(vec![PlanMode::Faithful, PlanMode::Optimized]),
    ) {
        // Some random actions exceed slot limits or miss resolution reads
        // after truncation; those must *fail cleanly*, not miscompile.
        if let Ok(plan) = compile(&ir, mode) {
            // compile() ends with this very pass (and would have failed);
            // re-running it on the returned plan pins that contract.
            let analysis = analyze(&ir, &plan);
            prop_assert!(
                !analysis.has_errors(),
                "{ir:?}\n{:?}\n{plan}",
                analysis.diagnostics
            );
        }
    }

    /// Message counts: optimized never exceeds faithful.
    #[test]
    fn optimized_never_costs_more(ir in arb_action()) {
        let f = compile(&ir, PlanMode::Faithful);
        let o = compile(&ir, PlanMode::Optimized);
        if let (Ok(f), Ok(o)) = (f, o) {
            prop_assert!(
                o.comm_plan().messages <= f.comm_plan().messages,
                "optimized {} > faithful {}\n{o}\n{f}",
                o.comm_plan().messages,
                f.comm_plan().messages
            );
        }
    }
}
