//! Planner soundness: for randomized valid actions, the compiled message
//! program never reads a payload slot before some step on the same path
//! has gathered it — checked by abstractly interpreting every path of the
//! plan (both branches of every condition).

use proptest::prelude::*;

use dgp_core::plan::soundness::analyze;
use dgp_core::plan::{compile, PlanMode};

mod common;
use common::arb_action;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

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
