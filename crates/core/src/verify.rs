//! Static verification of patterns and their synthesized message plans.
//!
//! The paper's claim is that declarative patterns make communication
//! *analyzable*: localities are computed (Def. 1), the value dependency
//! graph is computed (Def. 2), and read/write synchronization is an
//! argued property of the synthesized plan (§III-C, §IV-A). This module
//! turns those computed artifacts into *checked* invariants. Four
//! analyses run over an [`ActionIr`] and its compiled [`ExecPlan`]:
//!
//! 1. **Locality soundness** (`L001`) — an abstract interpretation of the
//!    message program, independent of the planner: every gather, fresh
//!    local read, and modification must execute at the Def. 1 locality of
//!    the value it touches. The owner-only discipline holds by
//!    construction of the planner; this re-derives it from the plan text.
//! 2. **Def-use over message programs** (`D002`) — along *every*
//!    control-flow path, a payload slot consumed by a condition test or a
//!    modification right-hand side must have been gathered earlier on
//!    that path, including under gather elision and merging (§IV-A steps
//!    5–6).
//! 3. **Epoch write races** (`R003`) — a conservative may-read/may-write
//!    conflict check per `(map, locality class)`. An assignment whose
//!    guard reads the same map at an aliasing place, evaluated *outside*
//!    the merged evaluate-and-modify step, is a stale-guard
//!    (check-then-act) race and an error — the merged step "is not a mere
//!    optimization" precisely because its placement is the
//!    synchronization mechanism (§III-C). Distinct unprotected write
//!    sites aliasing on the same map are reported as write/write warnings.
//!    Insertions are commutative reductions and exempt.
//! 4. **Self-trigger lint** (`T004`, warning) — a modification that
//!    re-enables its own action (the §III-C dependency rule fires) with
//!    no merged guard on the written value can loop forever under
//!    `fixed_point` driving; such actions need a strictly-decreasing
//!    guard or level-synchronized `once` driving.
//!
//! Structural failures surface as `S005` (malformed action or plan) and
//! `P006` (a place used as a locality whose resolving read is not
//! declared). [`crate::builder::ActionBuilder::build`] runs
//! [`verify_ir`] over both plan modes and rejects actions with
//! error-severity diagnostics; warnings ride along on the built action.
//!
//! Analyses 1 and 2 are plan-level and live in one place:
//! [`crate::plan::soundness::analyze`], the path-sensitive fixpoint every
//! [`compile`] ends with — the only way to re-check a plan. This module
//! owns the diagnostic vocabulary and the IR-level analyses (3, 4, `P006`)
//! and combines both in [`verify_action`].

use crate::ir::{ActionIr, ModKind, Place, ReadRef, Slot};
use crate::plan::{compile, ExecPlan, PlanMode};

/// How serious a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Suspicious but legal; the action still builds.
    Warning,
    /// A verified invariant is broken; the action is rejected at build.
    Error,
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// Stable diagnostic codes (the catalogue of `docs/INTERNALS.md` §8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DiagCode {
    /// A value is read or written away from its Def. 1 locality.
    L001,
    /// A payload slot is consumed before any path gathered it.
    D002,
    /// A same-epoch write race on a `(map, locality class)`.
    R003,
    /// A modification re-enables its own action with no merged guard.
    T004,
    /// The action or its plan is structurally malformed.
    S005,
    /// A place is used as a locality without its resolving read declared.
    P006,
}

impl DiagCode {
    /// The stable code string, e.g. `"L001"`.
    pub fn as_str(&self) -> &'static str {
        match self {
            DiagCode::L001 => "L001",
            DiagCode::D002 => "D002",
            DiagCode::R003 => "R003",
            DiagCode::T004 => "T004",
            DiagCode::S005 => "S005",
            DiagCode::P006 => "P006",
        }
    }

    /// Short human name of the condition the code flags.
    pub fn title(&self) -> &'static str {
        match self {
            DiagCode::L001 => "NonLocalRead",
            DiagCode::D002 => "UseBeforeGather",
            DiagCode::R003 => "EpochWriteRace",
            DiagCode::T004 => "UnguardedSelfTrigger",
            DiagCode::S005 => "MalformedAction",
            DiagCode::P006 => "UnresolvedPlace",
        }
    }
}

impl std::fmt::Display for DiagCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.as_str())
    }
}

/// One verifier finding.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Stable code (`L001`, `D002`, ...).
    pub code: DiagCode,
    /// Error (rejected at build) or warning (reported, allowed).
    pub severity: Severity,
    /// Name of the action the finding is about.
    pub action: String,
    /// The locality the finding anchors to, when one exists.
    pub place: Option<Place>,
    /// The plan step (index into [`ExecPlan::steps`]) the finding anchors
    /// to, for plan-level findings.
    pub step: Option<usize>,
    /// Human-readable explanation.
    pub message: String,
}

impl Diagnostic {
    fn new(
        code: DiagCode,
        severity: Severity,
        action: &str,
        place: Option<Place>,
        step: Option<usize>,
        message: String,
    ) -> Diagnostic {
        Diagnostic {
            code,
            severity,
            action: action.to_string(),
            place,
            step,
            message,
        }
    }
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}[{} {}] {}: {}",
            self.severity,
            self.code,
            self.code.title(),
            self.action,
            self.message
        )?;
        if let Some(p) = &self.place {
            write!(f, " (at {p})")?;
        }
        if let Some(s) = self.step {
            write!(f, " (step {s})")?;
        }
        Ok(())
    }
}

/// The verifier's findings for an action or a whole pattern.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// All findings, errors first.
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// Whether any finding is error-severity.
    pub fn has_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error)
    }

    /// Number of error-severity findings.
    pub fn error_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Whether the verifier found nothing at all.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Findings carrying the given code.
    pub fn with_code(&self, code: DiagCode) -> Vec<&Diagnostic> {
        self.diagnostics.iter().filter(|d| d.code == code).collect()
    }

    fn push_dedup(&mut self, d: Diagnostic) {
        if !self.diagnostics.contains(&d) {
            self.diagnostics.push(d);
        }
    }

    fn sort(&mut self) {
        self.diagnostics
            .sort_by(|a, b| b.severity.cmp(&a.severity).then(a.action.cmp(&b.action)));
    }
}

impl std::fmt::Display for Report {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.diagnostics.is_empty() {
            return write!(f, "verification clean");
        }
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{d}")?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------

/// Verify one action against one compiled plan: the plan walk (L001 +
/// D002) plus the IR-level race and self-trigger analyses (R003, T004).
pub fn verify_action(ir: &ActionIr, plan: &ExecPlan) -> Vec<Diagnostic> {
    let mut out = crate::plan::soundness::analyze(ir, plan).diagnostics;
    out.extend(races_in_action(ir, plan));
    out.extend(self_trigger(ir, plan));
    out
}

/// Verify an action from its IR alone: validates the structure (`S005`),
/// compiles *both* plan modes (`P006` on failure), and runs
/// [`verify_action`] on each, deduplicating mode-independent findings.
/// This is what [`crate::builder::ActionBuilder::build`] runs.
pub fn verify_ir(ir: &ActionIr) -> Report {
    let mut report = Report::default();
    if let Err(e) = ir.validate() {
        report.push_dedup(Diagnostic::new(
            DiagCode::S005,
            Severity::Error,
            &ir.name,
            None,
            None,
            e,
        ));
        return report;
    }
    for d in unresolved_places(ir) {
        report.push_dedup(d);
    }
    if ir.slots.len() > crate::engine::MAX_SLOTS {
        report.push_dedup(Diagnostic::new(
            DiagCode::S005,
            Severity::Error,
            &ir.name,
            None,
            None,
            format!(
                "declares {} reads; the engine supports at most {}",
                ir.slots.len(),
                crate::engine::MAX_SLOTS
            ),
        ));
    }
    for mode in [PlanMode::Faithful, PlanMode::Optimized] {
        match compile(ir, mode) {
            Ok(plan) => {
                for d in verify_action(ir, &plan) {
                    report.push_dedup(d);
                }
            }
            Err(e) if e.diagnostics.is_empty() => report.push_dedup(Diagnostic::new(
                DiagCode::P006,
                Severity::Error,
                &ir.name,
                None,
                None,
                format!("plan synthesis ({mode:?}) failed: {e}"),
            )),
            // The planner now fails with the structured findings of the
            // always-on soundness pass: surface them directly.
            Err(e) => {
                for d in e.diagnostics {
                    report.push_dedup(d);
                }
            }
        }
    }
    report.sort();
    report
}

/// Verify a whole pattern: every action individually, plus the
/// cross-action write/write conflict check of §III-C (two actions of one
/// pattern share the epoch and the property maps).
pub fn verify_pattern(actions: &[&ActionIr]) -> Report {
    let mut report = Report::default();
    let mut sites: Vec<WriteSite> = Vec::new();
    for ir in actions {
        for d in verify_ir(ir).diagnostics {
            report.push_dedup(d);
        }
        if ir.validate().is_ok() {
            if let Ok(plan) = compile(ir, PlanMode::Optimized) {
                sites.extend(write_sites(ir, &plan));
            }
        }
    }
    for d in cross_site_races(&sites, true) {
        report.push_dedup(d);
    }
    report.sort();
    report
}

/// Every `p[x]` used as a locality — in a read's place or a modification
/// target — needs the read of `p` at `x` declared as a slot, or neither
/// the planner nor the engine can resolve the vertex it names (`P006`).
fn unresolved_places(ir: &ActionIr) -> Vec<Diagnostic> {
    fn check(ir: &ActionIr, p: &Place, what: &str, out: &mut Vec<Diagnostic>) {
        let mut cur = p;
        while let Place::MapAt(m, inner) = cur {
            if ir.resolving_slot(cur).is_none() {
                let d = Diagnostic::new(
                    DiagCode::P006,
                    Severity::Error,
                    &ir.name,
                    Some(p.clone()),
                    None,
                    format!(
                        "{what} uses p{m}[{inner}] as a locality, but the read resolving \
                         it is not declared as a slot"
                    ),
                );
                if !out.contains(&d) {
                    out.push(d);
                }
            }
            cur = inner;
        }
    }
    let mut out = Vec::new();
    for r in &ir.slots {
        if let ReadRef::VertexProp { at, .. } = r {
            check(ir, at, "a declared read", &mut out);
        }
    }
    for c in &ir.conditions {
        for m in &c.mods {
            check(ir, &m.at, "a modification", &mut out);
        }
    }
    out
}

// ---------------------------------------------------------------------
// Analyses 1 + 2 (locality soundness, def-use) are the path-sensitive
// fixpoint of `plan::soundness::analyze`. Analysis 3: epoch write races
// (§III-C).
// ---------------------------------------------------------------------

/// One static assignment site, with whether the merged-modification
/// guarantee protects it (the CAS shape: applied inside the merged
/// evaluate-and-modify step whose test reads the written value at the
/// written place).
#[derive(Debug, Clone)]
struct WriteSite {
    action: String,
    cond: usize,
    group: usize,
    map: u32,
    at: Place,
    protected: bool,
}

/// The modification-group index of each modification of `cond` (the
/// planner groups consecutive mods by target locality; group 0 is the one
/// merging candidates come from).
fn group_of(ir: &ActionIr, ci: usize) -> Vec<usize> {
    let mods = &ir.conditions[ci].mods;
    let mut groups = Vec::with_capacity(mods.len());
    let mut g = 0usize;
    for (mi, m) in mods.iter().enumerate() {
        if mi > 0 && m.at != mods[mi - 1].at {
            g += 1;
        }
        groups.push(g);
    }
    groups
}

fn test_reads_exactly(ir: &ActionIr, ci: usize, map: u32, at: &Place) -> bool {
    ir.conditions[ci].reads.iter().any(|&Slot(s)| {
        matches!(&ir.slots[s], ReadRef::VertexProp { map: m, at: a } if *m == map && a == at)
    })
}

/// All `Assign`/`Min` sites of the action with their protection status.
fn write_sites(ir: &ActionIr, plan: &ExecPlan) -> Vec<WriteSite> {
    let mut out = Vec::new();
    for (ci, c) in ir.conditions.iter().enumerate() {
        let groups = group_of(ir, ci);
        for (mi, m) in c.mods.iter().enumerate() {
            if m.kind == ModKind::Insert {
                continue;
            }
            let merged = plan.merged.get(ci).copied().unwrap_or(false) && groups[mi] == 0;
            out.push(WriteSite {
                action: ir.name.clone(),
                cond: ci,
                group: groups[mi],
                map: m.map,
                at: m.at.clone(),
                protected: merged && test_reads_exactly(ir, ci, m.map, &m.at),
            });
        }
    }
    out
}

/// Stale-guard (check-then-act) races within one action: the condition
/// test reads the map an assignment writes, at an aliasing place, and the
/// assignment is not applied inside the merged evaluate-and-modify step —
/// so by the time the write lands, the guard's value may be stale.
fn races_in_action(ir: &ActionIr, plan: &ExecPlan) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (ci, c) in ir.conditions.iter().enumerate() {
        let groups = group_of(ir, ci);
        for (mi, m) in c.mods.iter().enumerate() {
            if m.kind == ModKind::Insert {
                continue; // insertions are commutative reductions
            }
            let in_merged = plan.merged.get(ci).copied().unwrap_or(false) && groups[mi] == 0;
            for &Slot(s) in &c.reads {
                let ReadRef::VertexProp { map, at } = &ir.slots[s] else {
                    continue;
                };
                if *map != m.map || !at.may_alias(&m.at) {
                    continue;
                }
                // The merged step synchronizes test and write only for the
                // value it re-reads fresh at the modified vertex itself.
                let protected = in_merged && *at == m.at;
                if !protected {
                    out.push(Diagnostic::new(
                        DiagCode::R003,
                        Severity::Error,
                        &ir.name,
                        Some(m.at.clone()),
                        None,
                        format!(
                            "condition {ci} tests p{map}[{at}] but assigns p{}[{}] outside \
                             the merged evaluate-and-modify step; the guard may be stale \
                             when the write lands (§III-C)",
                            m.map, m.at
                        ),
                    ));
                }
            }
        }
    }
    // Write/write conflicts between this action's own sites (two firing
    // instances of different conditions, or of different groups of one
    // condition, may interleave).
    out.extend(cross_site_races(&write_sites(ir, plan), false));
    out
}

/// Write/write conflict warnings between distinct static assignment
/// sites aliasing on the same map. With `cross_actions_only`, only pairs
/// from different actions are reported (the per-action pass already
/// covered the rest).
fn cross_site_races(sites: &[WriteSite], cross_actions_only: bool) -> Vec<Diagnostic> {
    let mut out: Vec<Diagnostic> = Vec::new();
    for (i, a) in sites.iter().enumerate() {
        for b in &sites[i + 1..] {
            let same_action = a.action == b.action;
            if cross_actions_only && same_action {
                continue;
            }
            if !cross_actions_only && !same_action {
                continue;
            }
            // Mods of one group apply in order under one lock: not a race.
            if same_action && a.cond == b.cond && a.group == b.group {
                continue;
            }
            if a.map != b.map || !a.at.may_alias(&b.at) {
                continue;
            }
            if a.protected && b.protected {
                continue; // both are guarded read-modify-writes
            }
            let d = Diagnostic::new(
                DiagCode::R003,
                Severity::Warning,
                &a.action,
                Some(a.at.clone()),
                None,
                if same_action {
                    format!(
                        "conditions {} and {} both assign p{} in the same locality class \
                         and at least one is not a guarded read-modify-write; concurrent \
                         instances race last-writer-wins",
                        a.cond, b.cond, a.map
                    )
                } else {
                    format!(
                        "assigns p{} at {} while action {:?} assigns it at {} in the same \
                         epoch and at least one is not a guarded read-modify-write",
                        a.map, a.at, b.action, b.at
                    )
                },
            );
            if !out.contains(&d) {
                out.push(d);
            }
        }
    }
    out
}

// ---------------------------------------------------------------------
// Analysis 4: self-trigger lint.
// ---------------------------------------------------------------------

/// A modification whose map the action also reads re-enables the action
/// (§III-C's dependency rule creates a work item). Without the merged
/// guard reading the written value at the written place, nothing makes
/// the value strictly decrease, so `fixed_point` driving may never
/// terminate; warn. (The betweenness phase patterns trip this truthfully:
/// they accumulate and must be driven level-by-level with `once`.)
fn self_trigger(ir: &ActionIr, plan: &ExecPlan) -> Vec<Diagnostic> {
    let dep = ir.dependency_matrix();
    let mut out = Vec::new();
    for (ci, c) in ir.conditions.iter().enumerate() {
        let groups = group_of(ir, ci);
        for (mi, m) in c.mods.iter().enumerate() {
            if !dep[ci][mi] || m.kind == ModKind::Insert {
                continue; // no work item, or a saturating reduction
            }
            let in_merged = plan.merged.get(ci).copied().unwrap_or(false) && groups[mi] == 0;
            let guarded = in_merged && test_reads_exactly(ir, ci, m.map, &m.at);
            if !guarded {
                out.push(Diagnostic::new(
                    DiagCode::T004,
                    Severity::Warning,
                    &ir.name,
                    Some(m.at.clone()),
                    None,
                    format!(
                        "condition {ci} assigns p{} which the action also reads: the \
                         dependency rule re-triggers the action, and no merged guard \
                         reads p{}[{}] — ensure a strictly-decreasing guard or drive \
                         with level-synchronized `once`",
                        m.map, m.map, m.at
                    ),
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{ConditionIr, GeneratorIr, ModificationIr};
    use crate::plan::ExecStep;

    fn relax_ir() -> ActionIr {
        let (dist, weight) = (0, 1);
        ActionIr {
            name: "relax".into(),
            generator: GeneratorIr::OutEdges,
            slots: vec![
                ReadRef::VertexProp {
                    map: dist,
                    at: Place::GenTrg,
                },
                ReadRef::VertexProp {
                    map: dist,
                    at: Place::Input,
                },
                ReadRef::EdgeProp { map: weight },
            ],
            conditions: vec![ConditionIr {
                reads: vec![Slot(0), Slot(1), Slot(2)],
                mods: vec![ModificationIr {
                    map: dist,
                    at: Place::GenTrg,
                    reads: vec![Slot(1), Slot(2)],
                    kind: ModKind::Assign,
                }],
                is_else: false,
            }],
        }
    }

    #[test]
    fn relax_is_clean() {
        let report = verify_ir(&relax_ir());
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn codes_render_stably() {
        assert_eq!(DiagCode::L001.as_str(), "L001");
        assert_eq!(DiagCode::L001.title(), "NonLocalRead");
        assert_eq!(DiagCode::R003.to_string(), "R003");
        let d = Diagnostic::new(
            DiagCode::D002,
            Severity::Error,
            "a",
            Some(Place::Input),
            Some(3),
            "m".into(),
        );
        let text = d.to_string();
        assert!(
            text.starts_with("error[D002 UseBeforeGather] a: m"),
            "{text}"
        );
        assert!(text.contains("(step 3)"), "{text}");
    }

    #[test]
    fn tampered_gather_place_is_l001() {
        let ir = relax_ir();
        let mut plan = compile(&ir, PlanMode::Optimized).unwrap();
        // Gather the GenTrg-local slot 0 at the Input stop (where slots 1
        // and 2 are picked up): an owner-only violation.
        for step in &mut plan.steps {
            if let ExecStep::Gather { slots, .. } = step {
                if slots.contains(&1) && !slots.contains(&0) {
                    slots.push(0);
                }
            }
        }
        let diags = verify_action(&ir, &plan);
        assert!(diags.iter().any(|d| d.code == DiagCode::L001), "{diags:?}");
    }

    #[test]
    fn dropped_gather_is_d002() {
        let ir = relax_ir();
        let mut plan = compile(&ir, PlanMode::Optimized).unwrap();
        for step in &mut plan.steps {
            if let ExecStep::Gather { slots, .. } = step {
                slots.retain(|&s| s != 1);
            }
        }
        let diags = verify_action(&ir, &plan);
        assert!(diags.iter().any(|d| d.code == DiagCode::D002), "{diags:?}");
    }

    #[test]
    fn unmerged_guarded_write_is_r003() {
        // Force the modification out of the merged group by making its
        // right-hand side read a locality the test does not access: the
        // write then lands after the guard was evaluated — check-then-act.
        let mut ir = relax_ir();
        ir.slots.push(ReadRef::VertexProp {
            map: 0,
            at: Place::GenSrc,
        });
        ir.conditions[0].mods[0].reads.push(Slot(3));
        let report = verify_ir(&ir);
        assert!(
            report
                .diagnostics
                .iter()
                .any(|d| d.code == DiagCode::R003 && d.severity == Severity::Error),
            "{report}"
        );
    }

    #[test]
    fn unguarded_self_trigger_is_t004() {
        // Drop the guard's read of the written value: still merged (the
        // remaining reads are a subset of the test localities), but
        // nothing makes dist[trg] strictly decrease.
        let mut ir = relax_ir();
        ir.conditions[0].reads = vec![Slot(1), Slot(2)];
        let report = verify_ir(&ir);
        assert!(
            report.diagnostics.iter().any(|d| d.code == DiagCode::T004),
            "{report}"
        );
        assert!(!report.has_errors(), "{report}");
    }

    #[test]
    fn malformed_action_is_s005() {
        let mut ir = relax_ir();
        ir.conditions.clear();
        let report = verify_ir(&ir);
        assert!(
            report.diagnostics.iter().any(|d| d.code == DiagCode::S005),
            "{report}"
        );
    }

    #[test]
    fn unresolved_place_is_p006() {
        // A pointer locality whose resolving read is not declared.
        let mut ir = relax_ir();
        ir.conditions[0].mods[0].at = Place::map_at(7, Place::Input);
        let report = verify_ir(&ir);
        assert!(
            report.diagnostics.iter().any(|d| d.code == DiagCode::P006),
            "{report}"
        );
    }

    #[test]
    fn insert_reductions_are_exempt_from_races() {
        let mut ir = relax_ir();
        ir.conditions[0].mods[0].kind = ModKind::Insert;
        let plan = compile(&ir, PlanMode::Optimized).unwrap();
        assert!(races_in_action(&ir, &plan).is_empty());
    }

    #[test]
    fn cross_action_write_write_is_reported() {
        let a = relax_ir();
        let mut b = relax_ir();
        b.name = "relax2".into();
        // Break b's CAS shape so the pair is not both-protected.
        b.conditions[0].reads = vec![Slot(1), Slot(2)];
        let report = verify_pattern(&[&a, &b]);
        assert!(
            report
                .diagnostics
                .iter()
                .any(|d| d.code == DiagCode::R003 && d.severity == Severity::Warning),
            "{report}"
        );
    }

    #[test]
    fn alias_classes_follow_pointer_maps() {
        assert!(Place::Input.may_alias(&Place::Input));
        assert!(!Place::Input.may_alias(&Place::GenTrg));
        let p = Place::map_at(3, Place::Input);
        let q = Place::map_at(3, Place::GenTrg);
        let r = Place::map_at(4, Place::Input);
        assert!(p.may_alias(&q));
        assert!(!p.may_alias(&r));
    }
}
