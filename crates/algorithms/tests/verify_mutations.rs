//! Mutation tests for the static verifier: break each shipped pattern in
//! exactly one way per diagnostic code and assert the *exact* code fires.
//! This is the verifier's regression net — if an analysis is weakened,
//! the corresponding mutation stops being caught and the test fails.

use dgp_algorithms::builtin_patterns;
use dgp_core::ir::{ModKind, Place, Slot};
use dgp_core::plan::soundness::analyze;
use dgp_core::plan::{compile, ExecStep, PlanMode};
use dgp_core::verify::{verify_action, verify_ir, DiagCode, Severity};

/// Fetch one shipped action's IR by pattern family and action name.
fn shipped(pattern: &str, action: &str) -> dgp_core::ir::ActionIr {
    builtin_patterns()
        .iter()
        .find(|p| p.name() == pattern)
        .unwrap_or_else(|| panic!("no shipped pattern {pattern:?}"))
        .actions()
        .iter()
        .map(|a| &a.ir)
        .find(|ir| ir.name == action)
        .unwrap_or_else(|| panic!("no action {action:?} in {pattern:?}"))
        .clone()
}

/// L001 NonLocalRead: tamper SSSP relax's compiled plan so a gather step
/// picks up a slot whose Def. 1 locality is a *different* vertex.
#[test]
fn l001_fires_on_nonlocal_gather() {
    let ir = shipped("sssp", "relax");
    let mut plan = compile(&ir, PlanMode::Optimized).expect("relax compiles");
    // Slot of dist[v] (Input-local).
    let input_slot = ir
        .slots
        .iter()
        .position(|r| r.locality() == Place::Input)
        .expect("relax reads dist[v]");
    let mut tampered = false;
    for step in &mut plan.steps {
        match step {
            ExecStep::Gather { slots, .. } if !slots.contains(&input_slot) => {
                slots.push(input_slot);
                tampered = true;
                break;
            }
            ExecStep::EvalModify { local_slots, .. } if !local_slots.contains(&input_slot) => {
                local_slots.push(input_slot);
                tampered = true;
                break;
            }
            _ => {}
        }
    }
    assert!(tampered, "relax plan offered nowhere to tamper:\n{plan}");
    let diags = verify_action(&ir, &plan);
    assert!(
        diags
            .iter()
            .any(|d| d.code == DiagCode::L001 && d.severity == Severity::Error),
        "expected L001, got {diags:?}"
    );
    assert!(analyze(&ir, &plan).has_errors());
}

/// D002 UseBeforeGather: strip every gather and fresh local read from the
/// relax plan; the condition then tests slots no path ever filled.
#[test]
fn d002_fires_on_dropped_gather() {
    let ir = shipped("sssp", "relax");
    let mut plan = compile(&ir, PlanMode::Optimized).expect("relax compiles");
    for step in &mut plan.steps {
        match step {
            ExecStep::Gather { slots, .. } => slots.clear(),
            ExecStep::Eval { local_slots, .. }
            | ExecStep::EvalModify { local_slots, .. }
            | ExecStep::ModifyGroup { local_slots, .. } => local_slots.clear(),
            _ => {}
        }
    }
    let diags = verify_action(&ir, &plan);
    assert!(
        diags
            .iter()
            .any(|d| d.code == DiagCode::D002 && d.severity == Severity::Error),
        "expected D002, got {diags:?}"
    );
}

/// R003 EpochWriteRace: widen relax's modification reads with a slot at a
/// third locality. The merge precondition fails, the write of
/// `dist[trg(e)]` detaches from its guarding test of `dist[trg(e)]`, and
/// the stale-guard race of §III-C is reported.
#[test]
fn r003_fires_on_unmerged_guarded_write() {
    let mut ir = shipped("sssp", "relax");
    let dist = ir.conditions[0].mods[0].map;
    ir.slots.push(dgp_core::ir::ReadRef::VertexProp {
        map: dist,
        at: Place::GenSrc,
    });
    let extra = Slot(ir.slots.len() - 1);
    ir.conditions[0].mods[0].reads.push(extra);
    let report = verify_ir(&ir);
    assert!(
        !report.with_code(DiagCode::R003).is_empty(),
        "expected R003:\n{report}"
    );
    assert!(report.has_errors(), "{report}");
}

/// T004 UnguardedSelfTrigger: drop `level[trg(e)]` from BFS's condition
/// reads. The action still writes a map it reads (the dependency rule
/// re-triggers it), but no merged test guards the written cell any more.
#[test]
fn t004_fires_on_unguarded_self_trigger() {
    let mut ir = shipped("bfs", "bfs_expand");
    let level = ir.conditions[0].mods[0].map;
    let guarded = ir
        .slots
        .iter()
        .position(|r| {
            matches!(r, dgp_core::ir::ReadRef::VertexProp { map, at }
                if *map == level && *at == Place::GenTrg)
        })
        .expect("bfs reads level[trg(e)]");
    ir.conditions[0].reads.retain(|&Slot(s)| s != guarded);
    let report = verify_ir(&ir);
    assert!(
        report
            .with_code(DiagCode::T004)
            .iter()
            .any(|d| d.severity == Severity::Warning),
        "expected a T004 warning:\n{report}"
    );
}

/// S005 MalformedAction: an action whose condition references a slot
/// that was never declared.
#[test]
fn s005_fires_on_undeclared_slot() {
    let mut ir = shipped("sssp", "relax");
    ir.conditions[0].reads.push(Slot(99));
    let report = verify_ir(&ir);
    assert!(
        report
            .with_code(DiagCode::S005)
            .iter()
            .any(|d| d.severity == Severity::Error),
        "expected S005:\n{report}"
    );
}

/// P006 UnresolvedPlace: retarget CC's label claim through a pointer map
/// whose value is never declared as a read.
#[test]
fn p006_fires_on_undeclared_resolution_read() {
    let mut ir = shipped("cc", "cc_claim_label");
    ir.conditions[0].mods[0].at = Place::map_at(7, Place::Input);
    let report = verify_ir(&ir);
    assert!(
        report
            .with_code(DiagCode::P006)
            .iter()
            .any(|d| d.severity == Severity::Error),
        "expected P006:\n{report}"
    );
}

/// Reordered resolve: hoist the pointer-following `goto` in CC's rewrite
/// plan above the gather that fills its resolution slot. The abstract
/// interpreter must see the resolution read of `pnt[v]` happen while the
/// slot is still ⊥ on every path.
#[test]
fn d002_fires_on_reordered_resolve() {
    let ir = shipped("cc", "cc_rewrite");
    let mut plan = compile(&ir, PlanMode::Optimized).expect("cc_rewrite compiles");
    // Find an adjacent gather → pointer-goto pair and swap their order,
    // preserving the chain's entry and exit links.
    let mut swapped = false;
    for pc in 0..plan.steps.len().saturating_sub(1) {
        let (ExecStep::Gather { slots, next }, ExecStep::Goto { to, next: gnext }) =
            (plan.steps[pc].clone(), plan.steps[pc + 1].clone())
        else {
            continue;
        };
        if next != pc + 1 {
            continue;
        }
        plan.steps[pc] = ExecStep::Goto { to, next: pc + 1 };
        plan.steps[pc + 1] = ExecStep::Gather { slots, next: gnext };
        swapped = true;
        break;
    }
    assert!(swapped, "no gather→goto pair to reorder:\n{plan}");
    plan.facts = None;
    let diags = verify_action(&ir, &plan);
    assert!(
        diags.iter().any(|d| d.code == DiagCode::D002
            && d.severity == Severity::Error
            && d.message.contains("resolves")),
        "expected a D002 on the premature resolution, got {diags:?}"
    );
    assert!(analyze(&ir, &plan).has_errors());
}

/// Swapped slot index: exchange the slot lists of cc_rewrite's two
/// gathers, so `lbl[pnt[v]]` is gathered at `v` and `pnt[v]` at the
/// pointer target — each gather now reads a slot away from its Def. 1
/// locality.
#[test]
fn l001_fires_on_swapped_gather_slots() {
    let ir = shipped("cc", "cc_rewrite");
    let mut plan = compile(&ir, PlanMode::Optimized).expect("cc_rewrite compiles");
    let gathers: Vec<usize> = plan
        .steps
        .iter()
        .enumerate()
        .filter_map(|(pc, s)| matches!(s, ExecStep::Gather { .. }).then_some(pc))
        .collect();
    let [a, b] = gathers[..] else {
        panic!("cc_rewrite should have exactly two gathers:\n{plan}");
    };
    let (left, right) = plan.steps.split_at_mut(b);
    let (ExecStep::Gather { slots: sa, .. }, ExecStep::Gather { slots: sb, .. }) =
        (&mut left[a], &mut right[0])
    else {
        unreachable!()
    };
    std::mem::swap(sa, sb);
    plan.facts = None;
    let diags = verify_action(&ir, &plan);
    assert!(
        diags
            .iter()
            .any(|d| d.code == DiagCode::L001 && d.severity == Severity::Error),
        "expected L001 on the misplaced gathers, got {diags:?}"
    );
    assert!(analyze(&ir, &plan).has_errors());
}

/// A corrupted plan never keeps the compiler's proof: re-verification of
/// any of the mutations above must refuse to mint fresh facts.
#[test]
fn corrupted_plans_earn_no_facts() {
    let ir = shipped("sssp", "relax");
    let mut plan = compile(&ir, PlanMode::Optimized).expect("relax compiles");
    assert!(plan.facts.is_some(), "clean relax plan must carry a proof");
    for step in &mut plan.steps {
        if let ExecStep::Gather { slots, .. } = step {
            slots.clear();
        }
    }
    let analysis = analyze(&ir, &plan);
    assert!(analysis.has_errors());
    assert!(analysis.facts.is_none(), "errors and facts are exclusive");
}

/// The un-mutated originals stay clean — the mutations above, not the
/// baseline, are what trip each code.
#[test]
fn unmutated_baselines_are_clean() {
    for (pattern, action) in [
        ("sssp", "relax"),
        ("bfs", "bfs_expand"),
        ("cc", "cc_claim_label"),
    ] {
        let ir = shipped(pattern, action);
        let report = verify_ir(&ir);
        assert_eq!(report.error_count(), 0, "{pattern}/{action}:\n{report}");
    }
}

/// Every shipped family builds and verifies under both plan modes with
/// zero error-severity findings (the issue's acceptance bar), and every
/// compiled plan passes the plan checker.
#[test]
fn all_shipped_patterns_clean_in_both_modes() {
    for p in builtin_patterns() {
        let report = p.verify();
        assert_eq!(report.error_count(), 0, "{}:\n{report}", p.name());
        for a in p.actions() {
            for mode in [PlanMode::Faithful, PlanMode::Optimized] {
                let plan = compile(&a.ir, mode)
                    .unwrap_or_else(|e| panic!("{}/{} ({mode:?}): {e}", p.name(), a.ir.name));
                assert!(
                    !analyze(&a.ir, &plan).has_errors(),
                    "{}/{} ({mode:?}) plan fails its own checker",
                    p.name(),
                    a.ir.name
                );
            }
        }
    }
}

/// A plan stripped of its proof never reaches the JIT: the gate
/// `add_action` runs reports `NoFacts` before it ever inspects maps or
/// steps. The proof is the compile licence — a corrupted or
/// re-verified-dirty plan stays interpreted.
#[test]
fn factless_plans_never_reach_the_jit() {
    use dgp_core::engine::{jit_gate, EngineConfig, JitFallback};
    let cfg = EngineConfig::default();
    for p in builtin_patterns() {
        for a in p.actions() {
            let mut plan = compile(&a.ir, cfg.plan_mode).expect("shipped action compiles");
            assert_eq!(jit_gate(&cfg, &plan), Ok(()));
            plan.facts = None;
            assert_eq!(
                jit_gate(&cfg, &plan),
                Err(JitFallback::NoFacts),
                "{}/{} without a proof must stay interpreted",
                p.name(),
                a.ir.name
            );
        }
        let (name, actions) = (p.name().to_string(), p.actions().len());
        assert_eq!(
            p.jit_report(cfg),
            Ok(vec![None; actions]),
            "{name} must compile with its proofs intact"
        );
    }
}

/// Same gate, mutated plan: a corrupted plan loses its proof under
/// re-analysis (see `corrupted_plans_earn_no_facts`), and the factless
/// result is rejected by the JIT gate — corruption can never be
/// *compiled into* native handlers.
#[test]
fn corrupted_plans_are_rejected_by_the_jit_gate() {
    use dgp_core::engine::{jit_gate, EngineConfig, JitFallback};
    let ir = shipped("sssp", "relax");
    let mut plan = compile(&ir, PlanMode::Optimized).expect("relax compiles");
    for step in &mut plan.steps {
        if let ExecStep::Gather { slots, .. } = step {
            slots.clear();
        }
    }
    let analysis = analyze(&ir, &plan);
    assert!(analysis.facts.is_none());
    plan.facts = analysis.facts;
    assert_eq!(
        jit_gate(&EngineConfig::default(), &plan),
        Err(JitFallback::NoFacts)
    );
}

/// `Insert` modifications stay exempt from write-race pairing: CC's
/// conflict recording inserts into `adjs` at two aliasing pointer
/// localities without an R003.
#[test]
fn insert_mods_stay_race_exempt() {
    let ir = shipped("cc", "cc_search");
    assert!(ir
        .conditions
        .iter()
        .flat_map(|c| &c.mods)
        .any(|m| m.kind == ModKind::Insert));
    let report = verify_ir(&ir);
    assert!(
        report.with_code(DiagCode::R003).is_empty(),
        "cc_search's inserts must not race:\n{report}"
    );
}
