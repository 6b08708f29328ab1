//! Always-on plan soundness: a path-sensitive abstract interpreter over
//! [`ExecPlan`] (INTERNALS §13).
//!
//! The planner's output is a small branching message program; this module
//! proves, *before any message is sent*, that the program is safe to run
//! without per-message guards:
//!
//! * **Slot-state lattice.** Every payload slot is tracked through
//!   `Unset → Gathered → Resolved → Written`. `Gathered` and `Resolved`
//!   are *must* facts (a join across control-flow paths keeps them only
//!   when every incoming path established them); `Written` (payload copy
//!   may be stale relative to the store) is a *may* fact (a join keeps it
//!   when any path wrote through an aliasing target).
//! * **Alias tracking for pointer indirection.** A hop to `p[x]` is routed
//!   by reading the resolution slot holding `p[x]`'s value from the
//!   payload: the hop demands that slot `Gathered` on every path
//!   (otherwise `D002`) and promotes it to `Resolved`. Writes mark every
//!   slot whose `(map, locality class)` may alias the modified cell as
//!   `Written` — [`Place::may_alias`], the race analysis's notion of
//!   aliasing (`p[x]` vs `p[y]` through the same outermost map), applied
//!   to payload staleness instead of store races.
//! * **Fixpoint over looping shapes.** States are keyed on
//!   `(pc, current place)` and joined monotonically, so plans whose
//!   control flow re-enters earlier steps (hand-built or future planner
//!   output — today's planner emits DAGs) terminate in a finite number of
//!   passes instead of enumerating paths.
//!
//! The checks themselves are the stable diagnostic codes of
//! [`crate::verify`]: `L001` (a gather/fresh read/modification away from
//! its Def. 1 locality), `D002` (a payload slot consumed, or a hop
//! resolved, before every path gathered it), `S005` (structurally
//! malformed plan), `P006` (a pointer place with no declared resolving
//! read). A plan with no error-severity findings earns a
//! [`VerifiedFacts`] — the sealed capability [`super::compile`] attaches
//! to the plan, which the engine accepts as licence to elide its
//! per-message locality and def-use guards (the proof-carrying-plan
//! contract of INTERNALS §13).

use std::collections::HashMap;

use crate::ir::{ActionIr, Place, ReadRef, Slot};
use crate::plan::{ExecPlan, ExecStep};
use crate::verify::{DiagCode, Diagnostic, Severity};

/// Abstract state of one payload slot at one program point.
///
/// The lattice is the product of two *must* bits and one *may* bit;
/// `Unset` is all-false, `Gathered` sets `gathered`, `Resolved` adds
/// `resolved` (the slot's value was consumed to route a hop), `Written`
/// sets `may_stale` (an aliasing store write may have invalidated the
/// payload copy).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SlotState {
    /// Every path to this point gathered the slot (must).
    pub gathered: bool,
    /// Every path to this point also used the slot to resolve a hop (must).
    pub resolved: bool,
    /// Some path wrote through a target that may alias the slot's cell
    /// after it was gathered, so the payload copy may be stale (may).
    pub may_stale: bool,
}

impl SlotState {
    /// Control-flow join: must-facts AND, may-facts OR.
    fn join(&mut self, other: &SlotState) -> bool {
        let next = SlotState {
            gathered: self.gathered && other.gathered,
            resolved: self.resolved && other.resolved,
            may_stale: self.may_stale || other.may_stale,
        };
        let changed = next != *self;
        *self = next;
        changed
    }
}

/// One abstract machine state: the per-slot lattice at a program point.
type AbsState = Vec<SlotState>;

fn join_state(into: &mut AbsState, from: &AbsState) -> bool {
    let mut changed = false;
    for (a, b) in into.iter_mut().zip(from) {
        changed |= a.join(b);
    }
    changed
}

/// The proof a plan earns when the abstract interpreter finds no errors.
///
/// This is a *sealed capability*: the private field keeps construction
/// inside this module, so a `VerifiedFacts` on an [`ExecPlan`] is evidence
/// that [`analyze`] ran over exactly that plan and proved every fact
/// below. The engine relies on this to drop its per-message runtime
/// guards (see `engine/exec.rs`): a hand-mutated plan cannot carry one.
// Not `#[non_exhaustive]`: that only seals across crates, and the point
// is to keep sibling modules (the planner, the engine) from minting a
// proof they did not earn.
#[allow(clippy::manual_non_exhaustive)]
#[derive(Debug, Clone)]
pub struct VerifiedFacts {
    /// Static sites (gathers, fresh reads, modification targets) proven to
    /// execute at their Def. 1 locality — the per-message `check_locality`
    /// calls the interpreter may elide.
    pub locality_sites: u32,
    /// Pointer-indirected hops whose resolution slot is proven gathered on
    /// every path — the def-use half of the proof.
    pub resolution_hops: u32,
    /// Payload-slot consumptions (condition tests, modification operands)
    /// proven gathered-first on every path.
    pub consumed_sites: u32,
    /// No consumption ever reads a may-stale payload copy: every value a
    /// test or right-hand side uses is re-read fresh after any aliasing
    /// write on the same path.
    pub stale_free: bool,
    /// `(pc, place)` states explored before the fixpoint converged.
    pub states_explored: u32,
    _sealed: (),
}

impl VerifiedFacts {
    /// Per-message runtime checks the engine may skip on this plan: one
    /// locality comparison per proven site plus one resolve-and-compare
    /// per proven consumption (slot reads resolve their locality before
    /// the guard today).
    pub fn runtime_checks_elided(&self) -> u64 {
        self.locality_sites as u64 + self.consumed_sites as u64
    }

    /// Short human summary for tables: the facts proved.
    pub fn summary(&self) -> String {
        format!(
            "locality×{} def-use×{} resolve×{}{}",
            self.locality_sites,
            self.consumed_sites,
            self.resolution_hops,
            if self.stale_free { " stale-free" } else { "" }
        )
    }
}

/// The analysis result: diagnostics (errors and, in the future, warnings)
/// plus the proof when no error was found.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// Findings, in deterministic (pc-sorted) order.
    pub diagnostics: Vec<Diagnostic>,
    /// The proof, present exactly when no error-severity finding exists.
    pub facts: Option<VerifiedFacts>,
}

impl Analysis {
    /// Whether any finding is error-severity.
    pub fn has_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error)
    }
}

/// Run the abstract interpreter over one compiled plan.
///
/// Phase 1 is a worklist fixpoint: propagate [`SlotState`]s through every
/// step, keyed on `(pc, current place)`, joining at merge points. Phase 2
/// replays the (now stable) states in program order and emits
/// diagnostics + facts, so findings are deterministic regardless of
/// worklist order.
pub fn analyze(ir: &ActionIr, plan: &ExecPlan) -> Analysis {
    let nslots = ir.slots.len();
    let bottom: AbsState = vec![SlotState::default(); nslots];

    // ----- Phase 1: fixpoint ---------------------------------------
    let mut states: HashMap<(usize, Place), AbsState> = HashMap::new();
    let mut worklist: Vec<(usize, Place)> = Vec::new();
    states.insert((0, Place::Input), bottom.clone());
    worklist.push((0, Place::Input));

    // Bounded by |keys| × |lattice heights|; each pop either converges or
    // strictly advances some key's state toward its fixpoint.
    while let Some((pc, here)) = worklist.pop() {
        let state = states[&(pc, here.clone())].clone();
        let Some(step) = plan.steps.get(pc) else {
            continue; // reported as S005 in phase 2
        };
        let mut flow = |succ: usize, place: Place, st: &AbsState| {
            let key = (succ, place);
            match states.get_mut(&key) {
                Some(existing) => {
                    if join_state(existing, st) {
                        worklist.push(key);
                    }
                }
                None => {
                    states.insert(key.clone(), st.clone());
                    worklist.push(key);
                }
            }
        };
        match step {
            ExecStep::Goto { to, next } => {
                if let Some(p) = plan.places.get(*to) {
                    let mut st = state;
                    if let Some(rs) = ir.resolving_slot(p) {
                        if let Some(s) = st.get_mut(rs) {
                            s.resolved = s.gathered;
                        }
                    }
                    flow(*next, p.clone(), &st);
                }
            }
            ExecStep::Gather { slots, next } => {
                let mut st = state;
                for &s in slots {
                    if let Some(slot) = st.get_mut(s) {
                        slot.gathered = true;
                        slot.may_stale = false;
                    }
                }
                flow(*next, here.clone(), &st);
            }
            ExecStep::Eval {
                local_slots,
                on_true,
                on_false,
                ..
            } => {
                let mut st = state;
                for &s in local_slots {
                    if let Some(slot) = st.get_mut(s) {
                        slot.gathered = true;
                        slot.may_stale = false;
                    }
                }
                flow(*on_true, here.clone(), &st);
                flow(*on_false, here.clone(), &st);
            }
            ExecStep::EvalModify {
                cond,
                local_slots,
                mods,
                on_true,
                on_false,
            } => {
                let mut st = state;
                for &s in local_slots {
                    if let Some(slot) = st.get_mut(s) {
                        slot.gathered = true;
                        slot.may_stale = false;
                    }
                }
                // The write happens only when the test fires: staleness
                // propagates to the true branch alone (path sensitivity —
                // an `else` chain never observes its guard's own write).
                flow(*on_false, here.clone(), &st);
                mark_written(ir, &mut st, *cond, mods);
                flow(*on_true, here.clone(), &st);
            }
            ExecStep::ModifyGroup {
                cond,
                local_slots,
                mods,
                next,
            } => {
                let mut st = state;
                for &s in local_slots {
                    if let Some(slot) = st.get_mut(s) {
                        slot.gathered = true;
                        slot.may_stale = false;
                    }
                }
                mark_written(ir, &mut st, *cond, mods);
                flow(*next, here.clone(), &st);
            }
            ExecStep::End => {}
        }
    }

    // ----- Phase 2: deterministic checking over the stable states --
    let mut keys: Vec<(usize, Place)> = states.keys().cloned().collect();
    keys.sort_by(|a, b| {
        a.0.cmp(&b.0)
            .then_with(|| a.1.to_string().cmp(&b.1.to_string()))
    });

    let mut diagnostics: Vec<Diagnostic> = Vec::new();
    let mut emit = |d: Diagnostic| {
        if !diagnostics.contains(&d) {
            diagnostics.push(d);
        }
    };
    let mut stale_consumptions = 0u32;

    for (pc, here) in &keys {
        let state = &states[&(*pc, here.clone())];
        let Some(step) = plan.steps.get(*pc) else {
            emit(diag(
                DiagCode::S005,
                ir,
                None,
                *pc,
                format!("plan jumps to step {pc}, past the end of the program"),
            ));
            continue;
        };
        // A slot read at the current vertex must live here per Def. 1.
        let check_local = |emit: &mut dyn FnMut(Diagnostic), what: &str, slots: &[usize]| {
            for &s in slots {
                let Some(r) = ir.slots.get(s) else {
                    emit(diag(
                        DiagCode::S005,
                        ir,
                        None,
                        *pc,
                        format!("{what} references undeclared slot {s}"),
                    ));
                    continue;
                };
                if r.locality() != *here {
                    emit(diag(
                        DiagCode::L001,
                        ir,
                        Some(here.clone()),
                        *pc,
                        format!(
                            "{what} reads {r} at {here}, but its Def. 1 locality is {}",
                            r.locality()
                        ),
                    ));
                }
            }
        };
        // A consumed slot must be gathered on every path; count may-stale
        // consumptions for the stale-free fact.
        let demand = |emit: &mut dyn FnMut(Diagnostic),
                      stale: &mut u32,
                      st: &AbsState,
                      fresh: &[usize],
                      what: &str,
                      slots: &[Slot]| {
            for &Slot(s) in slots {
                let ok = st.get(s).is_some_and(|x| x.gathered) || fresh.contains(&s);
                if !ok {
                    emit(diag(
                        DiagCode::D002,
                        ir,
                        Some(here.clone()),
                        *pc,
                        format!("{what} reads slot {s} before any path gathered it"),
                    ));
                }
                if st.get(s).is_some_and(|x| x.may_stale) && !fresh.contains(&s) {
                    *stale += 1;
                }
            }
        };
        let check_mod_site = |emit: &mut dyn FnMut(Diagnostic), mods: &[usize], cond: usize| {
            for &mi in mods {
                let Some(m) = ir.conditions.get(cond).and_then(|c| c.mods.get(mi)) else {
                    emit(diag(
                        DiagCode::S005,
                        ir,
                        None,
                        *pc,
                        format!("plan references undeclared modification {mi} of condition {cond}"),
                    ));
                    continue;
                };
                if m.at != *here {
                    emit(diag(
                        DiagCode::L001,
                        ir,
                        Some(here.clone()),
                        *pc,
                        format!(
                            "modification of p{}[{}] applied at {here}, away from its locality",
                            m.map, m.at
                        ),
                    ));
                }
            }
        };
        match step {
            ExecStep::Goto { to, .. } => match plan.places.get(*to) {
                Some(p) => {
                    if let Place::MapAt(m, inner) = p {
                        match ir.resolving_slot(p) {
                            Some(rs) => {
                                if !state.get(rs).is_some_and(|x| x.gathered) {
                                    emit(diag(
                                        DiagCode::D002,
                                        ir,
                                        Some(here.clone()),
                                        *pc,
                                        format!(
                                            "goto {p} resolves p{m}[{inner}] from slot {rs} \
                                             before any path gathered it"
                                        ),
                                    ));
                                }
                            }
                            None => emit(diag(
                                DiagCode::P006,
                                ir,
                                Some(p.clone()),
                                *pc,
                                format!(
                                    "goto {p} needs the read resolving p{m}[{inner}] declared \
                                     as a slot"
                                ),
                            )),
                        }
                    }
                }
                None => emit(diag(
                    DiagCode::S005,
                    ir,
                    None,
                    *pc,
                    format!("plan goto references undeclared place {to}"),
                )),
            },
            ExecStep::Gather { slots, .. } => {
                check_local(&mut emit, "gather", slots);
            }
            ExecStep::Eval {
                cond, local_slots, ..
            } => {
                check_local(&mut emit, "evaluate", local_slots);
                if let Some(c) = ir.conditions.get(*cond) {
                    demand(
                        &mut emit,
                        &mut stale_consumptions,
                        state,
                        local_slots,
                        "condition test",
                        &c.reads,
                    );
                }
            }
            ExecStep::EvalModify {
                cond,
                local_slots,
                mods,
                ..
            } => {
                check_local(&mut emit, "evaluate-and-modify", local_slots);
                if let Some(c) = ir.conditions.get(*cond) {
                    demand(
                        &mut emit,
                        &mut stale_consumptions,
                        state,
                        local_slots,
                        "condition test",
                        &c.reads,
                    );
                    for &mi in mods {
                        if let Some(m) = c.mods.get(mi) {
                            demand(
                                &mut emit,
                                &mut stale_consumptions,
                                state,
                                local_slots,
                                "merged modification",
                                &m.reads,
                            );
                        }
                    }
                }
                check_mod_site(&mut emit, mods, *cond);
            }
            ExecStep::ModifyGroup {
                cond,
                local_slots,
                mods,
                ..
            } => {
                check_local(&mut emit, "modification group", local_slots);
                if let Some(c) = ir.conditions.get(*cond) {
                    for &mi in mods {
                        if let Some(m) = c.mods.get(mi) {
                            demand(
                                &mut emit,
                                &mut stale_consumptions,
                                state,
                                local_slots,
                                "modification group",
                                &m.reads,
                            );
                        }
                    }
                }
                check_mod_site(&mut emit, mods, *cond);
            }
            ExecStep::End => {}
        }
    }

    let has_errors = diagnostics.iter().any(|d| d.severity == Severity::Error);
    let facts = if has_errors {
        None
    } else {
        let (mut locality_sites, mut resolution_hops, mut consumed_sites) = (0u32, 0u32, 0u32);
        for step in &plan.steps {
            match step {
                ExecStep::Goto { to, .. } => {
                    if plan
                        .places
                        .get(*to)
                        .is_some_and(|p| matches!(p, Place::MapAt(..)))
                    {
                        resolution_hops += 1;
                    }
                }
                ExecStep::Gather { slots, .. } => locality_sites += slots.len() as u32,
                ExecStep::Eval {
                    cond, local_slots, ..
                } => {
                    locality_sites += local_slots.len() as u32;
                    consumed_sites += ir.conditions.get(*cond).map_or(0, |c| c.reads.len() as u32);
                }
                ExecStep::EvalModify {
                    cond,
                    local_slots,
                    mods,
                    ..
                } => {
                    locality_sites += (local_slots.len() + mods.len()) as u32;
                    if let Some(c) = ir.conditions.get(*cond) {
                        consumed_sites += c.reads.len() as u32;
                        for &mi in mods {
                            consumed_sites += c.mods.get(mi).map_or(0, |m| m.reads.len() as u32);
                        }
                    }
                }
                ExecStep::ModifyGroup {
                    cond,
                    local_slots,
                    mods,
                    ..
                } => {
                    locality_sites += (local_slots.len() + mods.len()) as u32;
                    if let Some(c) = ir.conditions.get(*cond) {
                        for &mi in mods {
                            consumed_sites += c.mods.get(mi).map_or(0, |m| m.reads.len() as u32);
                        }
                    }
                }
                ExecStep::End => {}
            }
        }
        Some(VerifiedFacts {
            locality_sites,
            resolution_hops,
            consumed_sites,
            stale_free: stale_consumptions == 0,
            states_explored: keys.len() as u32,
            _sealed: (),
        })
    };
    Analysis { diagnostics, facts }
}

/// Mark every payload slot whose cell may alias a written target as
/// possibly stale (the `Written` lattice point). A slot freshly re-read
/// *after* the write would clear the bit again; the engine's merged step
/// also writes the new value back into the payload for the atomic shape,
/// which this conservatively ignores.
fn mark_written(ir: &ActionIr, st: &mut AbsState, cond: usize, mods: &[usize]) {
    let Some(c) = ir.conditions.get(cond) else {
        return;
    };
    for &mi in mods {
        let Some(m) = c.mods.get(mi) else { continue };
        for (s, r) in ir.slots.iter().enumerate() {
            if let ReadRef::VertexProp { map, at } = r {
                if *map == m.map && at.may_alias(&m.at) {
                    if let Some(slot) = st.get_mut(s) {
                        if slot.gathered {
                            slot.may_stale = true;
                        }
                    }
                }
            }
        }
    }
}

fn diag(
    code: DiagCode,
    ir: &ActionIr,
    place: Option<Place>,
    step: usize,
    message: String,
) -> Diagnostic {
    Diagnostic {
        code,
        severity: Severity::Error,
        action: ir.name.clone(),
        place,
        step: Some(step),
        message,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{ConditionIr, GeneratorIr, ModKind, ModificationIr};
    use crate::plan::{compile, PlanMode};

    fn relax_ir() -> ActionIr {
        ActionIr {
            name: "relax".into(),
            generator: GeneratorIr::OutEdges,
            slots: vec![
                ReadRef::VertexProp {
                    map: 0,
                    at: Place::GenTrg,
                },
                ReadRef::VertexProp {
                    map: 0,
                    at: Place::Input,
                },
                ReadRef::EdgeProp { map: 1 },
            ],
            conditions: vec![ConditionIr {
                reads: vec![Slot(0), Slot(1), Slot(2)],
                mods: vec![ModificationIr {
                    map: 0,
                    at: Place::GenTrg,
                    reads: vec![Slot(1), Slot(2)],
                    kind: ModKind::Assign,
                }],
                is_else: false,
            }],
        }
    }

    /// CC-style pointer chase: reads `lbl[pnt[v]]`, needs `pnt[v]` first.
    fn chase_ir() -> ActionIr {
        let pnt = Place::map_at(1, Place::Input);
        ActionIr {
            name: "chase".into(),
            generator: GeneratorIr::None,
            slots: vec![
                ReadRef::VertexProp {
                    map: 1,
                    at: Place::Input,
                },
                ReadRef::VertexProp {
                    map: 0,
                    at: pnt.clone(),
                },
            ],
            conditions: vec![ConditionIr {
                reads: vec![Slot(0), Slot(1)],
                mods: vec![ModificationIr {
                    map: 1,
                    at: Place::Input,
                    reads: vec![Slot(1)],
                    kind: ModKind::Assign,
                }],
                is_else: false,
            }],
        }
    }

    #[test]
    fn clean_plans_earn_facts() {
        for ir in [relax_ir(), chase_ir()] {
            for mode in [PlanMode::Faithful, PlanMode::Optimized] {
                let plan = compile(&ir, mode).unwrap();
                let a = analyze(&ir, &plan);
                assert!(
                    !a.has_errors(),
                    "{:?} {mode:?}: {:?}",
                    ir.name,
                    a.diagnostics
                );
                let facts = a.facts.expect("clean plan carries facts");
                assert!(facts.locality_sites > 0);
                assert!(facts.runtime_checks_elided() > 0);
            }
        }
    }

    #[test]
    fn compile_attaches_the_proof() {
        let plan = compile(&relax_ir(), PlanMode::Optimized).unwrap();
        assert!(plan.facts.is_some(), "{plan}");
    }

    #[test]
    fn dropped_resolution_gather_is_d002() {
        let ir = chase_ir();
        let mut plan = compile(&ir, PlanMode::Optimized).unwrap();
        plan.facts = None;
        for step in &mut plan.steps {
            if let ExecStep::Gather { slots, .. } = step {
                slots.retain(|&s| s != 0); // drop the pnt[v] gather
            }
        }
        let a = analyze(&ir, &plan);
        assert!(
            a.diagnostics
                .iter()
                .any(|d| d.code == DiagCode::D002 && d.message.contains("resolves")),
            "{:?}",
            a.diagnostics
        );
        assert!(a.facts.is_none());
    }

    #[test]
    fn must_join_demands_every_path() {
        // A hand-built diamond: one branch gathers slot 0, the other does
        // not; the join point consumes it. Path-insensitive ("any path")
        // analyses miss this; the must-join catches it.
        let ir = ActionIr {
            name: "diamond".into(),
            generator: GeneratorIr::None,
            slots: vec![
                ReadRef::VertexProp {
                    map: 0,
                    at: Place::Input,
                },
                ReadRef::VertexProp {
                    map: 1,
                    at: Place::Input,
                },
            ],
            conditions: vec![
                ConditionIr {
                    reads: vec![Slot(1)],
                    mods: vec![],
                    is_else: false,
                },
                ConditionIr {
                    reads: vec![Slot(0)],
                    mods: vec![],
                    is_else: false,
                },
            ],
        };
        let plan = ExecPlan {
            mode: PlanMode::Optimized,
            places: vec![Place::Input],
            steps: vec![
                // 0: eval c0 (fresh slot 1) ? 1 : 2
                ExecStep::Eval {
                    cond: 0,
                    local_slots: vec![1],
                    on_true: 1,
                    on_false: 2,
                },
                // 1: gather slot 0 (true branch only)
                ExecStep::Gather {
                    slots: vec![0],
                    next: 2,
                },
                // 2: eval c1 — consumes slot 0, ungathered on the false path
                ExecStep::Eval {
                    cond: 1,
                    local_slots: vec![],
                    on_true: 3,
                    on_false: 3,
                },
                ExecStep::End,
            ],
            cond_entries: vec![0, 2],
            merged: vec![false, false],
            facts: None,
        };
        let a = analyze(&ir, &plan);
        assert!(
            a.diagnostics
                .iter()
                .any(|d| d.code == DiagCode::D002 && d.step == Some(2)),
            "{:?}",
            a.diagnostics
        );
    }

    #[test]
    fn looping_plan_reaches_a_fixpoint() {
        // A cycle: gather → eval → back to the gather. The fixpoint must
        // terminate and prove the consumption (the loop body gathers
        // before every eval).
        let ir = ActionIr {
            name: "looper".into(),
            generator: GeneratorIr::None,
            slots: vec![ReadRef::VertexProp {
                map: 0,
                at: Place::Input,
            }],
            conditions: vec![ConditionIr {
                reads: vec![Slot(0)],
                mods: vec![],
                is_else: false,
            }],
        };
        let plan = ExecPlan {
            mode: PlanMode::Optimized,
            places: vec![Place::Input],
            steps: vec![
                ExecStep::Gather {
                    slots: vec![0],
                    next: 1,
                },
                ExecStep::Eval {
                    cond: 0,
                    local_slots: vec![],
                    on_true: 0, // loop back
                    on_false: 2,
                },
                ExecStep::End,
            ],
            cond_entries: vec![0],
            merged: vec![false],
            facts: None,
        };
        let a = analyze(&ir, &plan);
        assert!(!a.has_errors(), "{:?}", a.diagnostics);
    }

    #[test]
    fn stale_consumption_clears_the_stale_free_fact() {
        // c0 writes p0[v] (merged, fresh-read) then c1 consumes the stale
        // payload copy of p0[v] without re-reading: legal (the paper's
        // elision semantics) but not stale-free.
        let ir = ActionIr {
            name: "stale".into(),
            generator: GeneratorIr::None,
            slots: vec![ReadRef::VertexProp {
                map: 0,
                at: Place::Input,
            }],
            conditions: vec![
                ConditionIr {
                    reads: vec![Slot(0)],
                    mods: vec![ModificationIr {
                        map: 0,
                        at: Place::Input,
                        reads: vec![Slot(0)],
                        kind: ModKind::Assign,
                    }],
                    is_else: false,
                },
                ConditionIr {
                    reads: vec![Slot(0)],
                    mods: vec![],
                    is_else: false,
                },
            ],
        };
        let plan = ExecPlan {
            mode: PlanMode::Optimized,
            places: vec![Place::Input],
            steps: vec![
                ExecStep::EvalModify {
                    cond: 0,
                    local_slots: vec![0],
                    mods: vec![0],
                    on_true: 1,
                    on_false: 1,
                },
                // consumes slot 0 after the write, without a fresh read
                ExecStep::Eval {
                    cond: 1,
                    local_slots: vec![],
                    on_true: 2,
                    on_false: 2,
                },
                ExecStep::End,
            ],
            cond_entries: vec![0, 1],
            merged: vec![true, false],
            facts: None,
        };
        let a = analyze(&ir, &plan);
        assert!(!a.has_errors(), "{:?}", a.diagnostics);
        assert!(!a.facts.unwrap().stale_free);

        // The planner's real output re-reads fresh: the shipped relax plan
        // stays stale-free.
        let relax = relax_ir();
        let plan = compile(&relax, PlanMode::Optimized).unwrap();
        assert!(analyze(&relax, &plan).facts.unwrap().stale_free, "{plan}");
    }

    #[test]
    fn structural_garbage_is_s005_not_a_panic() {
        let ir = relax_ir();
        let mut plan = compile(&ir, PlanMode::Optimized).unwrap();
        plan.facts = None;
        let n = plan.steps.len();
        if let Some(ExecStep::Goto { next, .. }) = plan.steps.first_mut() {
            *next = n + 7;
        }
        let a = analyze(&ir, &plan);
        assert!(
            a.diagnostics.iter().any(|d| d.code == DiagCode::S005),
            "{:?}",
            a.diagnostics
        );
    }
}
