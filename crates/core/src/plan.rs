//! The communication planner (§IV-A): from an analyzed action to the
//! message program that executes it.
//!
//! For every condition the paper's procedure is followed:
//!
//! 1. the required localities are found from the property-map accesses;
//! 2. the depth-first communication tree is pruned of edges not on a path
//!    to a required locality ([`crate::depgraph::DepTree`]);
//! 3. gather messages are constructed by traversing the pruned tree,
//!    each message's payload extending the previous one;
//! 4. the final evaluate message is constructed;
//! 5. **merging**: modification statements are grouped by the locality of
//!    the modified values (without reordering); when the first group only
//!    accesses values at a subset of the condition's localities, the group
//!    is merged into the condition — the final message both evaluates the
//!    condition and performs the modifications at the modified value's
//!    locality, which "is not a mere optimization" but what enables the
//!    read/write synchronization guarantee of §III-C;
//! 6. **elision**: values already carried in the payload are not
//!    re-gathered for later conditions and modification groups;
//! 7. **test before the hop** ([`PlanMode::Optimized`] only): a condition
//!    whose test reads nothing fresh at its site runs before the hop
//!    there, so a failing test sends nothing ([`test_before_hop`]).
//!
//! Subexpression precomputation (Fig. 6's `dist[v] + weight[e]` computed at
//! `v`) falls out of the closure embedding: gathered slot values *are* the
//! operands carried in the payload, and the condition/modification closures
//! combine them at the evaluation site.
//!
//! The output is an [`ExecPlan`] — a small branching program over
//! [`ExecStep`]s interpreted by the engine, where every [`ExecStep::Goto`]
//! between distinct vertices is one message — plus a [`CommPlan`] summary
//! used by the figure-reproduction experiments.

pub mod soundness;

use std::collections::HashSet;

use crate::depgraph::DepTree;
use crate::ir::{ActionIr, Place, Slot};
use crate::verify::{DiagCode, Diagnostic, Severity};

pub use soundness::VerifiedFacts;

/// Structured failure of [`compile`] (or of the always-on soundness pass
/// it ends with): the stable diagnostics of [`crate::verify`], not a
/// string. Converts into `String` for callers that still thread stringly
/// errors (`impl From<PlanError> for String`).
#[derive(Debug, Clone)]
pub struct PlanError {
    /// Name of the action that failed to compile.
    pub action: String,
    /// The findings, in deterministic order.
    pub diagnostics: Vec<Diagnostic>,
    /// The rendered plan when a *synthesized* plan failed verification
    /// (an internal planner bug); `None` for synthesis-stage rejections.
    pub plan: Option<String>,
}

impl PlanError {
    fn synthesis(action: &str, code: DiagCode, message: String) -> PlanError {
        PlanError {
            action: action.to_string(),
            diagnostics: vec![Diagnostic {
                code,
                severity: Severity::Error,
                action: action.to_string(),
                place: None,
                step: None,
                message,
            }],
            plan: None,
        }
    }

    /// Whether any finding carries the given code.
    pub fn has_code(&self, code: DiagCode) -> bool {
        self.diagnostics.iter().any(|d| d.code == code)
    }
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{d}")?;
        }
        if let Some(p) = &self.plan {
            write!(f, "\n{p}")?;
        }
        Ok(())
    }
}

impl std::error::Error for PlanError {}

impl From<PlanError> for String {
    fn from(e: PlanError) -> String {
        e.to_string()
    }
}

/// Gather-traversal flavor (§IV-A's presentation vs. noted optimization).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlanMode {
    /// Depth-first traversal with explicit returns to the parent between
    /// sibling subtrees — the algorithm as presented in the paper.
    Faithful,
    /// Jump straight to the next required locality (the paper's dashed
    /// line in Fig. 5: "this is indeed what we would do in practice").
    #[default]
    Optimized,
}

/// One step of the compiled message program.
#[derive(Debug, Clone)]
pub enum ExecStep {
    /// Move to the vertex named by `places[to]`; one message when it is a
    /// different vertex than the current one.
    Goto {
        /// Index into [`ExecPlan::places`].
        to: usize,
        /// Step to execute on arrival.
        next: usize,
    },
    /// Read the given slots here (their localities all resolve to the
    /// current vertex).
    Gather {
        /// Payload slots to fill.
        slots: Vec<usize>,
        /// Next step.
        next: usize,
    },
    /// Evaluate condition `cond` here after freshly reading `local_slots`.
    Eval {
        /// Condition index.
        cond: usize,
        /// Slots re-read at this vertex before testing.
        local_slots: Vec<usize>,
        /// Step when the test fires.
        on_true: usize,
        /// Step when it does not.
        on_false: usize,
    },
    /// Merged evaluate-and-modify (§IV-A): under the vertex's
    /// synchronization, freshly read `local_slots`, evaluate condition
    /// `cond`, and if true apply modifications `mods` (indices into the
    /// condition's modification list) — all at the current vertex.
    EvalModify {
        /// Condition index.
        cond: usize,
        /// Slots re-read fresh under the synchronization.
        local_slots: Vec<usize>,
        /// Indices into the condition's modification list.
        mods: Vec<usize>,
        /// Step when the test fires (after the modifications).
        on_true: usize,
        /// Step when it does not.
        on_false: usize,
    },
    /// Apply a (non-first or unmerged) modification group here, freshly
    /// reading `local_slots` (reads co-located with the modified values)
    /// under the group's synchronization.
    ModifyGroup {
        /// Condition index.
        cond: usize,
        /// Slots re-read fresh under the group's lock.
        local_slots: Vec<usize>,
        /// Indices into the condition's modification list.
        mods: Vec<usize>,
        /// Next step.
        next: usize,
    },
    /// Action instance complete.
    End,
}

/// The compiled message program of one action.
#[derive(Debug, Clone)]
pub struct ExecPlan {
    /// The traversal flavor this plan was compiled with.
    pub mode: PlanMode,
    /// Interned places; `Goto::to` indexes this.
    pub places: Vec<Place>,
    /// The step program; execution starts at step 0.
    pub steps: Vec<ExecStep>,
    /// Entry step of each condition.
    pub cond_entries: Vec<usize>,
    /// Whether each condition was merged with its first modification group.
    pub merged: Vec<bool>,
    /// The proof attached by the always-on soundness pass: present on
    /// every plan [`compile`] returns. `VerifiedFacts` is a sealed
    /// capability (only [`soundness::analyze`] constructs it), so a
    /// hand-mutated plan cannot carry one — the engine checks this field
    /// before eliding its per-message runtime guards.
    pub facts: Option<soundness::VerifiedFacts>,
}

/// Static communication summary of a plan (the unit of the paper's Figs.
/// 5–6).
#[derive(Debug, Clone)]
pub struct CommPlan {
    /// The traversal flavor of the underlying plan.
    pub mode: PlanMode,
    /// Structural messages, assuming all distinct places are distinct
    /// vertices (the paper's counting model).
    pub messages: usize,
    /// The hops, as (from, to) places.
    pub hops: Vec<(Place, Place)>,
}

// ---------------------------------------------------------------------
// Compilation
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
enum Target {
    Step(usize),
    CondEntry(usize),
    End,
}

struct Compiler<'a> {
    ir: &'a ActionIr,
    mode: PlanMode,
    places: Vec<Place>,
    steps: Vec<RawStep>,
    /// Slots available at the condition currently being compiled (set by
    /// the driver from `have_always`/`have_chain` below).
    have: HashSet<usize>,
}

#[derive(Debug, Clone)]
enum RawStep {
    Goto {
        to: usize,
        next: Target,
    },
    Gather {
        slots: Vec<usize>,
        next: Target,
    },
    Eval {
        cond: usize,
        local_slots: Vec<usize>,
        on_true: Target,
        on_false: Target,
    },
    EvalModify {
        cond: usize,
        local_slots: Vec<usize>,
        mods: Vec<usize>,
        on_true: Target,
        on_false: Target,
    },
    ModifyGroup {
        cond: usize,
        local_slots: Vec<usize>,
        mods: Vec<usize>,
        next: Target,
    },
    End,
}

/// Compile an action to its message program.
///
/// Every returned plan has passed the path-sensitive soundness pass
/// ([`soundness::analyze`]) — in release builds too — and carries its
/// [`VerifiedFacts`] proof in [`ExecPlan::facts`].
pub fn compile(ir: &ActionIr, mode: PlanMode) -> Result<ExecPlan, PlanError> {
    ir.validate()
        .map_err(|e| PlanError::synthesis(&ir.name, DiagCode::S005, e))?;
    let mut c = Compiler {
        ir,
        mode,
        places: vec![Place::Input],
        steps: Vec::new(),
        have: HashSet::new(),
    };
    let ncond = ir.conditions.len();
    let mut entries = Vec::with_capacity(ncond);
    let mut merged_flags = Vec::with_capacity(ncond);
    // Gather elision must respect control flow: a non-`else` condition is
    // reached on *every* path (both branches of each predecessor converge
    // on it), so its gathers are available to everything after it. An
    // `else` condition is skipped whenever its chain head fired, so its
    // gathers may only be credited to later conditions of the same chain.
    let mut have_always: HashSet<usize> = HashSet::new();
    let mut have_chain: HashSet<usize> = HashSet::new();
    for ci in 0..ncond {
        entries.push(c.steps.len());
        c.have = if ir.conditions[ci].is_else {
            have_chain.clone()
        } else {
            have_always.clone()
        };
        let (merged, need) = c
            .compile_condition(ci)
            .map_err(|e| PlanError::synthesis(&ir.name, DiagCode::P006, e))?;
        merged_flags.push(merged);
        if ir.conditions[ci].is_else {
            have_chain.extend(need);
        } else {
            have_always.extend(need);
            have_chain = have_always.clone();
        }
    }
    let end_pc = c.steps.len();
    c.steps.push(RawStep::End);

    // Resolve symbolic targets.
    let resolve = |t: Target| -> usize {
        match t {
            Target::Step(s) => s,
            Target::CondEntry(ci) => {
                if ci < ncond {
                    entries[ci]
                } else {
                    end_pc
                }
            }
            Target::End => end_pc,
        }
    };
    let steps = c
        .steps
        .iter()
        .map(|s| match s {
            RawStep::Goto { to, next } => ExecStep::Goto {
                to: *to,
                next: resolve(*next),
            },
            RawStep::Gather { slots, next } => ExecStep::Gather {
                slots: slots.clone(),
                next: resolve(*next),
            },
            RawStep::Eval {
                cond,
                local_slots,
                on_true,
                on_false,
            } => ExecStep::Eval {
                cond: *cond,
                local_slots: local_slots.clone(),
                on_true: resolve(*on_true),
                on_false: resolve(*on_false),
            },
            RawStep::EvalModify {
                cond,
                local_slots,
                mods,
                on_true,
                on_false,
            } => ExecStep::EvalModify {
                cond: *cond,
                local_slots: local_slots.clone(),
                mods: mods.clone(),
                on_true: resolve(*on_true),
                on_false: resolve(*on_false),
            },
            RawStep::ModifyGroup {
                cond,
                local_slots,
                mods,
                next,
            } => ExecStep::ModifyGroup {
                cond: *cond,
                local_slots: local_slots.clone(),
                mods: mods.clone(),
                next: resolve(*next),
            },
            RawStep::End => ExecStep::End,
        })
        .collect();

    let mut plan = ExecPlan {
        mode,
        places: c.places,
        steps,
        cond_entries: entries,
        merged: merged_flags,
        facts: None,
    };
    if mode == PlanMode::Optimized {
        test_before_hop(&mut plan);
    }
    // The planner's output is re-checked by the path-sensitive abstract
    // interpreter on *every* compile, release builds included: a compiler
    // bug must fail at registration, not as a wrong answer at runtime.
    // A clean pass attaches the proof the engine's guard elision keys on.
    let analysis = soundness::analyze(ir, &plan);
    if analysis.has_errors() {
        return Err(PlanError {
            action: ir.name.clone(),
            diagnostics: analysis.diagnostics,
            plan: Some(plan.to_string()),
        });
    }
    plan.facts = analysis.facts;
    Ok(plan)
}

/// Test before the hop ([`PlanMode::Optimized`] only): a condition whose
/// test reads nothing fresh at its site — every input already rides in
/// the payload — is evaluated *before* the `Goto` that leads to it, so a
/// hop whose test fails is never sent.
///
/// Rewrites every `Goto { to: P, next: k }` whose step `k` is reached from
/// it alone and is an `Eval` or `EvalModify` with empty `local_slots`:
///
/// * `EvalModify` → `Eval ? g : on_false`, `g: Goto P`, then
///   `ModifyGroup → on_true` (the condition is no longer merged);
/// * `Eval` → `Eval ? g : on_false`, `g: Goto P → on_true`.
///
/// Sound because such a test is a pure function of `(env, v, gen)`, which
/// the hop does not change; the false branch starts at a `Goto`, a
/// payload-only `Eval` or `End`, none of which depends on where it runs;
/// and the group still applies under the target's lock, as every later
/// group already does. The true path keeps its `Goto`s in order; the false
/// path loses one. The verifier credits a merge only when the test reads
/// the written cell — a fresh read, so such a condition is never
/// rewritten (INTERNALS §2.1).
///
/// [`compile`] runs this pass before its soundness check. Run by hand, it
/// drops the plan's proof ([`ExecPlan::facts`] names steps by index):
/// re-run [`soundness::analyze`] to earn a new one.
pub fn test_before_hop(plan: &mut ExecPlan) {
    let steps = &plan.steps;
    // Step 0 is also entered from outside.
    let in_degree = |k: usize| {
        usize::from(k == 0)
            + steps
                .iter()
                .flat_map(|s| s.successors().into_iter().flatten())
                .filter(|&t| t == k)
                .count()
    };
    let location_free = |pc: usize| match steps.get(pc) {
        Some(ExecStep::Goto { .. } | ExecStep::End) => true,
        Some(ExecStep::Eval { local_slots, .. }) => local_slots.is_empty(),
        _ => false,
    };
    // (goto, test) pairs to swap.
    let hoisted: Vec<(usize, usize)> = steps
        .iter()
        .enumerate()
        .filter_map(|(g, s)| {
            let ExecStep::Goto { next: k, .. } = *s else {
                return None;
            };
            let payload_only = match steps.get(k)? {
                ExecStep::Eval {
                    local_slots,
                    on_false,
                    ..
                }
                | ExecStep::EvalModify {
                    local_slots,
                    on_false,
                    ..
                } => local_slots.is_empty() && location_free(*on_false),
                _ => false,
            };
            (payload_only && in_degree(k) == 1).then_some((g, k))
        })
        .collect();
    if hoisted.is_empty() {
        return;
    }
    // A split `EvalModify` adds one step right after its `Goto`.
    let splits: Vec<usize> = hoisted
        .iter()
        .filter(|&&(_, k)| matches!(steps[k], ExecStep::EvalModify { .. }))
        .map(|&(g, _)| g)
        .collect();
    let at = |pc: usize| pc + splits.iter().filter(|&&g| g < pc).count();
    let mut out = Vec::with_capacity(steps.len() + splits.len());
    let mut unmerged = Vec::new();
    for (pc, s) in steps.iter().enumerate() {
        if let Some(&(_, k)) = hoisted.iter().find(|&&(g, _)| g == pc) {
            let ExecStep::Goto { to, .. } = *s else {
                unreachable!("hoisted pairs start at a goto")
            };
            match &steps[k] {
                ExecStep::EvalModify { cond, on_false, .. } => {
                    out.push(ExecStep::Eval {
                        cond: *cond,
                        local_slots: Vec::new(),
                        on_true: at(pc) + 1,
                        on_false: at(*on_false),
                    });
                    out.push(ExecStep::Goto { to, next: at(k) });
                    unmerged.push(*cond);
                }
                ExecStep::Eval { cond, on_false, .. } => out.push(ExecStep::Eval {
                    cond: *cond,
                    local_slots: Vec::new(),
                    on_true: at(k),
                    on_false: at(*on_false),
                }),
                _ => unreachable!("hoisted pairs end at a test"),
            }
        } else if let Some(&(g, _)) = hoisted.iter().find(|&&(_, k)| k == pc) {
            out.push(match s {
                ExecStep::EvalModify {
                    cond,
                    mods,
                    on_true,
                    ..
                } => ExecStep::ModifyGroup {
                    cond: *cond,
                    local_slots: Vec::new(),
                    mods: mods.clone(),
                    next: at(*on_true),
                },
                ExecStep::Eval { on_true, .. } => {
                    let ExecStep::Goto { to, .. } = steps[g] else {
                        unreachable!("hoisted pairs start at a goto")
                    };
                    ExecStep::Goto {
                        to,
                        next: at(*on_true),
                    }
                }
                _ => unreachable!("hoisted pairs end at a test"),
            });
        } else {
            let mut s = s.clone();
            s.retarget(at);
            out.push(s);
        }
    }
    plan.steps = out;
    plan.facts = None;
    for e in &mut plan.cond_entries {
        *e = at(*e);
    }
    for ci in unmerged {
        plan.merged[ci] = false;
    }
}

impl ExecStep {
    /// The steps control may pass to next.
    fn successors(&self) -> [Option<usize>; 2] {
        match *self {
            ExecStep::Goto { next, .. }
            | ExecStep::Gather { next, .. }
            | ExecStep::ModifyGroup { next, .. } => [Some(next), None],
            ExecStep::Eval {
                on_true, on_false, ..
            }
            | ExecStep::EvalModify {
                on_true, on_false, ..
            } => [Some(on_true), Some(on_false)],
            ExecStep::End => [None, None],
        }
    }

    /// Map every successor through `f`.
    fn retarget(&mut self, f: impl Fn(usize) -> usize) {
        match self {
            ExecStep::Goto { next, .. }
            | ExecStep::Gather { next, .. }
            | ExecStep::ModifyGroup { next, .. } => *next = f(*next),
            ExecStep::Eval {
                on_true, on_false, ..
            }
            | ExecStep::EvalModify {
                on_true, on_false, ..
            } => {
                *on_true = f(*on_true);
                *on_false = f(*on_false);
            }
            ExecStep::End => {}
        }
    }
}

impl<'a> Compiler<'a> {
    fn place_idx(&mut self, p: &Place) -> usize {
        if let Some(i) = self.places.iter().position(|q| q == p) {
            i
        } else {
            self.places.push(p.clone());
            self.places.len() - 1
        }
    }

    /// All slots that must be gathered to *resolve* the identity of `p`
    /// (the pointer reads along its `MapAt` chain), outermost last.
    fn resolution_chain(&self, p: &Place) -> Result<Vec<(usize, Place)>, String> {
        let mut out = Vec::new();
        let mut cur = p;
        while let Place::MapAt(m, inner) = cur {
            let slot = self.ir.resolving_slot(cur).ok_or_else(|| {
                format!(
                    "action {:?}: place map {}[{:?}] used as a locality, but its value is not declared as a read",
                    self.ir.name, m, inner
                )
            })?;
            out.push((slot, (**inner).clone()));
            cur = inner;
        }
        out.reverse();
        Ok(out)
    }

    /// Gather-tour for `slots_needed` (slot indices), returning
    /// `(ordered stops, gathers per stop)`. Stops exclude `Place::Input`
    /// (reads local to the current start are handled by the caller) and
    /// `skip` (the eval site, gathered fresh there).
    #[allow(clippy::type_complexity)]
    fn build_tour(
        &mut self,
        slots_needed: &[usize],
        skip: Option<&Place>,
    ) -> Result<Vec<(Place, Vec<usize>)>, String> {
        // Work out every locality to visit, including pointer-resolution
        // stops, and which slots to pick up where.
        let mut gathers: Vec<(Place, Vec<usize>)> = Vec::new();
        let mut add = |loc: Place, slot: usize| {
            if let Some(e) = gathers.iter_mut().find(|(p, _)| *p == loc) {
                if !e.1.contains(&slot) {
                    e.1.push(slot);
                }
            } else {
                gathers.push((loc, vec![slot]));
            }
        };
        for &s in slots_needed {
            let loc = self.ir.slots[s].locality();
            for (rs, rloc) in self.resolution_chain(&loc)? {
                if !self.have.contains(&rs) {
                    add(rloc, rs);
                }
            }
            add(loc, s);
        }
        // The tree orders stops dependency-first; Input-local and
        // eval-site-local gathers are pulled out by the caller.
        let locs: Vec<Place> = gathers.iter().map(|(p, _)| p.clone()).collect();
        let tree = DepTree::build(&locs);
        let order: Vec<Place> = match self.mode {
            PlanMode::Optimized => tree
                .optimized_order()
                .iter()
                .map(|&i| tree.nodes[i].clone())
                .collect(),
            PlanMode::Faithful => {
                // Every move is a stop (messages through intermediate
                // localities), gathering there if anything is pending.
                let mut seen = Vec::new();
                for mv in tree.faithful_walk() {
                    let p = tree.nodes[mv.to()].clone();
                    seen.push(p);
                }
                seen
            }
        };
        let mut tour = Vec::new();
        for p in order {
            if p == Place::Input || Some(&p) == skip {
                // Input handled at entry; skip handled at eval.
                if p == Place::Input {
                    tour.push((Place::Input, Vec::new()));
                }
                continue;
            }
            let slots = gathers
                .iter()
                .find(|(q, _)| *q == p)
                .map(|(_, s)| s.clone())
                .unwrap_or_default();
            tour.push((p, slots));
        }
        Ok(tour)
    }

    /// Compile condition `ci`; returns whether it was merged with its
    /// first modification group, plus the slots its evaluation gathered
    /// (for the driver's availability tracking).
    fn compile_condition(&mut self, ci: usize) -> Result<(bool, Vec<usize>), String> {
        let cond = self.ir.conditions[ci].clone();

        // Group consecutive modifications by the locality they modify
        // ("the modifications are not reordered, so if modifications of
        // values at different localities are interleaved, they will not be
        // grouped").
        let mut groups: Vec<(Place, Vec<usize>)> = Vec::new();
        for (mi, m) in cond.mods.iter().enumerate() {
            match groups.last_mut() {
                Some((at, idxs)) if *at == m.at => idxs.push(mi),
                _ => groups.push((m.at.clone(), vec![mi])),
            }
        }

        // Merging rule: the first group merges into the condition when the
        // group accesses values at a subset of the condition's localities.
        let test_locs: Vec<Place> = self.ir.condition_localities(ci);
        let merged = groups.first().is_some_and(|(_, idxs)| {
            idxs.iter().all(|&mi| {
                cond.mods[mi]
                    .reads
                    .iter()
                    .all(|&Slot(s)| test_locs.contains(&self.ir.slots[s].locality()))
            })
        });

        // Everything the evaluation needs in its payload.
        let mut need: Vec<usize> = cond.reads.iter().map(|&Slot(s)| s).collect();
        if merged {
            for &mi in &groups[0].1 {
                for &Slot(s) in &cond.mods[mi].reads {
                    if !need.contains(&s) {
                        need.push(s);
                    }
                }
            }
        }
        // A pointer-indirected modification target is resolved *from the
        // payload* when the plan hops there: every resolution read along
        // each group target's `MapAt` chain must ride in the payload even
        // when no condition consults it.
        for (at, _) in &groups {
            for (rs, _) in self.resolution_chain(at)? {
                if !need.contains(&rs) {
                    need.push(rs);
                }
            }
        }
        // The same holds for the *localities of the values themselves*: a
        // read at `p[x]` is reached by a hop routed through the payload
        // slot holding `p[x]`, so that resolving read must be gathered
        // even when no condition consults it. Without this, an Input-local
        // resolver that only backs a locality never lands in `missing`,
        // the entry gather skips it, and the plan resolves an unset slot
        // (the release-mode D002 miscompile of ROADMAP item 1). The index
        // loop also covers chains of slots appended by the blocks above.
        let mut i = 0;
        while i < need.len() {
            let loc = self.ir.slots[need[i]].locality();
            for (rs, _) in self.resolution_chain(&loc)? {
                if !need.contains(&rs) {
                    need.push(rs);
                }
            }
            i += 1;
        }
        let missing: Vec<usize> = need
            .iter()
            .copied()
            .filter(|s| !self.have.contains(s))
            .collect();

        // Evaluation site: the modified value's locality when merged,
        // otherwise the last gathered locality (or the input vertex).
        let eval_site: Place = if merged {
            groups[0].0.clone()
        } else {
            missing
                .iter()
                .map(|&s| self.ir.slots[s].locality())
                .rfind(|l| *l != Place::Input)
                .unwrap_or(Place::Input)
        };

        // Entry: pick up the input vertex's local reads, then tour the
        // remaining localities. When nothing is missing, the paper's
        // elision applies: "the next condition is evaluated right away if
        // all the necessary values are available" — no gather, and for a
        // non-merged condition not even a hop.
        if !missing.is_empty() {
            let input_slots: Vec<usize> = missing
                .iter()
                .copied()
                .filter(|&s| self.ir.slots[s].locality() == Place::Input)
                .collect();
            if !input_slots.is_empty() {
                let input_idx = self.place_idx(&Place::Input);
                self.push_goto(input_idx);
                self.push_seq(RawStep::Gather {
                    slots: input_slots,
                    next: Target::End, // patched by push_seq
                });
            }
            // Gather tour over the remaining localities.
            let remote_missing: Vec<usize> = missing
                .iter()
                .copied()
                .filter(|&s| self.ir.slots[s].locality() != Place::Input)
                .collect();
            let tour = self.build_tour(&remote_missing, Some(&eval_site))?;
            for (p, slots) in tour {
                let pi = self.place_idx(&p);
                self.push_goto(pi);
                if !slots.is_empty() {
                    self.push_seq(RawStep::Gather {
                        slots,
                        next: Target::End,
                    });
                }
            }
        }

        // Final hop to the evaluation site; read its local slots fresh.
        // A merged condition always moves to the modified value's locality
        // (that placement *is* the synchronization mechanism); an unmerged
        // condition with everything in its payload evaluates in place.
        let moves_to_eval_site = merged || !missing.is_empty();
        let local_slots: Vec<usize> = if moves_to_eval_site {
            need.iter()
                .copied()
                .filter(|&s| self.ir.slots[s].locality() == eval_site)
                .collect()
        } else {
            Vec::new() // evaluated in place from the carried payload
        };
        if moves_to_eval_site {
            let eval_idx = self.place_idx(&eval_site);
            self.push_goto(eval_idx);
        }

        // Where the branches go.
        let on_false = Target::CondEntry(ci + 1);
        let next_non_else = (ci + 1..self.ir.conditions.len())
            .find(|&j| !self.ir.conditions[j].is_else)
            .map(Target::CondEntry)
            .unwrap_or(Target::End);

        let eval_pc = self.steps.len();
        if merged {
            self.steps.push(RawStep::EvalModify {
                cond: ci,
                local_slots,
                mods: groups[0].1.clone(),
                on_true: Target::Step(eval_pc + 1), // continue to later groups
                on_false,
            });
        } else {
            self.steps.push(RawStep::Eval {
                cond: ci,
                local_slots,
                on_true: Target::Step(eval_pc + 1),
                on_false,
            });
        }

        // True path: apply the remaining groups, then proceed to the next
        // non-else condition.
        let remaining: Vec<(Place, Vec<usize>)> = if merged {
            groups[1..].to_vec()
        } else {
            groups.clone()
        };
        if remaining.is_empty() {
            // Everything applied in the merged step (or nothing to apply):
            // the Eval/EvalModify's on_true jumps straight onward.
            let jump = if cond.mods.is_empty() {
                // Pure test: both branches fall through to the next cond.
                Target::CondEntry(ci + 1)
            } else {
                next_non_else
            };
            match self.steps.last_mut().unwrap() {
                RawStep::Eval { on_true, .. } | RawStep::EvalModify { on_true, .. } => {
                    *on_true = jump;
                }
                _ => unreachable!(),
            }
        } else {
            for (gi, (at, mod_idxs)) in remaining.iter().enumerate() {
                // Gather anything this group's right-hand sides still need;
                // reads co-located with the modified values are instead
                // re-read fresh at the group site, under its lock (the
                // same consistency the merged step provides).
                let group_reads: Vec<usize> = mod_idxs
                    .iter()
                    .flat_map(|&mi| cond.mods[mi].reads.iter().map(|&Slot(s)| s))
                    .collect();
                let group_missing: Vec<usize> = group_reads
                    .iter()
                    .copied()
                    .filter(|s| {
                        !self.have.contains(s)
                            && !need.contains(s)
                            && self.ir.slots[*s].locality() != *at
                    })
                    .collect();
                let local_slots: Vec<usize> = group_reads
                    .iter()
                    .copied()
                    .filter(|&s| self.ir.slots[s].locality() == *at)
                    .collect();
                let tour = self.build_tour(&group_missing, Some(at))?;
                for (p, slots) in tour {
                    let pi = self.place_idx(&p);
                    self.push_goto(pi);
                    if !slots.is_empty() {
                        self.push_seq(RawStep::Gather {
                            slots,
                            next: Target::End,
                        });
                    }
                }
                let pi = self.place_idx(at);
                self.push_goto(pi);
                let next = if gi + 1 == remaining.len() {
                    next_non_else
                } else {
                    Target::Step(self.steps.len() + 1)
                };
                self.steps.push(RawStep::ModifyGroup {
                    cond: ci,
                    local_slots,
                    mods: mod_idxs.clone(),
                    next,
                });
            }
        }

        // Values gathered for this condition's evaluation were read before
        // its branch; the driver decides which later conditions may elide
        // them (the paper's gather elision, made control-flow-aware).
        Ok((merged, need))
    }

    /// Push a Goto falling through to the next step.
    fn push_goto(&mut self, to: usize) {
        let pc = self.steps.len();
        self.steps.push(RawStep::Goto {
            to,
            next: Target::Step(pc + 1),
        });
    }

    /// Push a step falling through to the next step.
    fn push_seq(&mut self, mut s: RawStep) {
        let pc = self.steps.len();
        if let RawStep::Gather { next, .. } = &mut s {
            *next = Target::Step(pc + 1);
        }
        self.steps.push(s);
    }
}

impl ExecPlan {
    /// Static message count and hop list under the paper's counting model:
    /// every `Goto` between distinct *places* is one message (distinct
    /// places are assumed to be distinct vertices). The walk follows the
    /// program from step 0 through condition chains, taking true branches
    /// through modification groups (the worst-case, fully-firing path).
    pub fn comm_plan(&self) -> CommPlan {
        let mut hops = Vec::new();
        let mut cur = Place::Input;
        let mut pc = 0usize;
        let mut visited = vec![false; self.steps.len()];
        loop {
            if pc >= self.steps.len() || visited[pc] {
                break;
            }
            visited[pc] = true;
            match &self.steps[pc] {
                ExecStep::Goto { to, next } => {
                    let dst = self.places[*to].clone();
                    if dst != cur {
                        hops.push((cur.clone(), dst.clone()));
                        cur = dst;
                    }
                    pc = *next;
                }
                ExecStep::Gather { next, .. } => pc = *next,
                ExecStep::Eval { on_true, .. } | ExecStep::EvalModify { on_true, .. } => {
                    pc = *on_true;
                }
                ExecStep::ModifyGroup { next, .. } => pc = *next,
                ExecStep::End => break,
            }
        }
        CommPlan {
            mode: self.mode,
            messages: hops.len(),
            hops,
        }
    }
}

impl std::fmt::Display for ExecPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "plan ({:?} mode):", self.mode)?;
        for (i, s) in self.steps.iter().enumerate() {
            let entry = self
                .cond_entries
                .iter()
                .position(|&e| e == i)
                .map(|ci| format!("  // condition {ci}"))
                .unwrap_or_default();
            match s {
                ExecStep::Goto { to, next } => {
                    writeln!(f, "{i:3}: goto {:?} -> {next}{entry}", self.places[*to])?
                }
                ExecStep::Gather { slots, next } => {
                    writeln!(f, "{i:3}: gather slots {slots:?} -> {next}{entry}")?
                }
                ExecStep::Eval {
                    cond,
                    local_slots,
                    on_true,
                    on_false,
                } => writeln!(
                    f,
                    "{i:3}: eval c{cond} (fresh {local_slots:?}) ? {on_true} : {on_false}{entry}"
                )?,
                ExecStep::EvalModify {
                    cond,
                    local_slots,
                    mods,
                    on_true,
                    on_false,
                } => writeln!(
                    f,
                    "{i:3}: eval+modify c{cond} mods {mods:?} (fresh {local_slots:?}) ? {on_true} : {on_false}{entry}"
                )?,
                ExecStep::ModifyGroup {
                    cond,
                    local_slots,
                    mods,
                    next,
                } => writeln!(
                    f,
                    "{i:3}: modify c{cond} mods {mods:?} (fresh {local_slots:?}) -> {next}{entry}"
                )?,
                ExecStep::End => writeln!(f, "{i:3}: end{entry}")?,
            }
        }
        Ok(())
    }
}

impl std::fmt::Display for CommPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "{} message(s) in {:?} mode:", self.messages, self.mode)?;
        for (from, to) in &self.hops {
            writeln!(f, "  {from:?} -> {to:?}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{ConditionIr, GeneratorIr, MapId, ModKind, ModificationIr, ReadRef};

    const DIST: MapId = 0;
    const WEIGHT: MapId = 1;

    fn sssp_ir() -> ActionIr {
        ActionIr {
            name: "relax".into(),
            generator: GeneratorIr::OutEdges,
            slots: vec![
                ReadRef::VertexProp {
                    map: DIST,
                    at: Place::GenTrg,
                },
                ReadRef::VertexProp {
                    map: DIST,
                    at: Place::Input,
                },
                ReadRef::EdgeProp { map: WEIGHT },
            ],
            conditions: vec![ConditionIr {
                reads: vec![Slot(0), Slot(1), Slot(2)],
                mods: vec![ModificationIr {
                    map: DIST,
                    at: Place::GenTrg,
                    reads: vec![Slot(1), Slot(2)],
                    kind: ModKind::Assign,
                }],
                is_else: false,
            }],
        }
    }

    #[test]
    fn fig6_sssp_is_one_message_and_merged() {
        // "Fig. 6: One-message communication for the SSSP pattern": the
        // subexpression operands dist[v] and weight[e] are local to v, and
        // the merged evaluate+modify message goes to trg(e).
        for mode in [PlanMode::Faithful, PlanMode::Optimized] {
            let plan = compile(&sssp_ir(), mode).unwrap();
            assert_eq!(plan.merged, vec![true], "{mode:?}");
            let cp = plan.comm_plan();
            assert_eq!(cp.messages, 1, "{mode:?}\n{plan}");
            assert_eq!(cp.hops, vec![(Place::Input, Place::GenTrg)]);
        }
    }

    #[test]
    fn sssp_evalmodify_refreshes_target_reads() {
        // The synchronization guarantee: dist[trg(e)] is read *fresh* at
        // the evaluation site, under the target's synchronization.
        let plan = compile(&sssp_ir(), PlanMode::Optimized).unwrap();
        let em = plan
            .steps
            .iter()
            .find_map(|s| match s {
                ExecStep::EvalModify {
                    local_slots, mods, ..
                } => Some((local_slots.clone(), mods.clone())),
                _ => None,
            })
            .expect("merged step exists");
        assert_eq!(em.0, vec![0]); // slot 0 = dist[trg(e)]
        assert_eq!(em.1, vec![0]); // the single modification
    }

    /// The Fig. 5 reconstruction: a two-branch gather tree with five value
    /// localities plus the pass-through that resolves the deepest one.
    /// See DESIGN.md, experiment F5.
    fn fig5_ir() -> ActionIr {
        // Branch A: n1 = a[v], n2 = b[n1] (a value is read at n2 too).
        // Branch B: n3 = c[v], n4 = d[n3], u = e[n4], n5 = f[u]; a value is
        // gathered at every node; evaluation happens at n5.
        let (a, b, c, d, e, f, val, val2) = (0, 1, 2, 3, 4, 5, 6, 7);
        let n1 = Place::map_at(a, Place::Input);
        let n2 = Place::map_at(b, n1.clone());
        let n3 = Place::map_at(c, Place::Input);
        let n4 = Place::map_at(d, n3.clone());
        let u = Place::map_at(e, n4.clone());
        let n5 = Place::map_at(f, u.clone());
        ActionIr {
            name: "fig5".into(),
            generator: GeneratorIr::None,
            slots: vec![
                ReadRef::VertexProp {
                    map: a,
                    at: Place::Input,
                }, // resolves n1
                ReadRef::VertexProp { map: b, at: n1 }, // value at n1, resolves n2
                ReadRef::VertexProp { map: val2, at: n2 }, // value at n2
                ReadRef::VertexProp {
                    map: c,
                    at: Place::Input,
                }, // resolves n3
                ReadRef::VertexProp { map: d, at: n3 }, // value at n3, resolves n4
                ReadRef::VertexProp { map: e, at: n4 }, // value at n4, resolves u
                ReadRef::VertexProp { map: f, at: u },  // value at u, resolves n5
                ReadRef::VertexProp {
                    map: val,
                    at: n5.clone(),
                }, // value at n5
            ],
            conditions: vec![ConditionIr {
                reads: (0..8).map(Slot).collect(),
                mods: vec![ModificationIr {
                    map: val,
                    at: n5,
                    reads: vec![Slot(1)],
                    kind: ModKind::Assign,
                }],
                is_else: false,
            }],
        }
    }

    #[test]
    fn fig5_faithful_walk_is_eight_messages() {
        let plan = compile(&fig5_ir(), PlanMode::Faithful).unwrap();
        let cp = plan.comm_plan();
        assert_eq!(cp.messages, 8, "{plan}\n{cp}");
    }

    #[test]
    fn fig5_optimized_walk_is_six_messages() {
        // The dashed-line optimization: jump straight between required
        // localities instead of backing up through v.
        let plan = compile(&fig5_ir(), PlanMode::Optimized).unwrap();
        let cp = plan.comm_plan();
        assert_eq!(cp.messages, 6, "{plan}\n{cp}");
    }

    #[test]
    fn undeclared_pointer_read_is_an_error() {
        // Using p[x] as a locality without declaring the read of p at x.
        let p = Place::map_at(9, Place::Input);
        let ir = ActionIr {
            name: "bad".into(),
            generator: GeneratorIr::None,
            slots: vec![ReadRef::VertexProp { map: 0, at: p }],
            conditions: vec![ConditionIr {
                reads: vec![Slot(0)],
                mods: vec![],
                is_else: false,
            }],
        };
        let err = compile(&ir, PlanMode::Optimized).unwrap_err();
        assert!(err.has_code(DiagCode::P006), "{err}");
        assert!(err.to_string().contains("not declared"), "{err}");
    }

    #[test]
    fn else_chain_branches() {
        // if c0 {m0} else if c1 {m1} — c0 true skips c1.
        let m: MapId = 0;
        let ir = ActionIr {
            name: "chain".into(),
            generator: GeneratorIr::None,
            slots: vec![ReadRef::VertexProp {
                map: m,
                at: Place::Input,
            }],
            conditions: vec![
                ConditionIr {
                    reads: vec![Slot(0)],
                    mods: vec![ModificationIr {
                        map: 1,
                        at: Place::Input,
                        reads: vec![],
                        kind: ModKind::Assign,
                    }],
                    is_else: false,
                },
                ConditionIr {
                    reads: vec![Slot(0)],
                    mods: vec![ModificationIr {
                        map: 2,
                        at: Place::Input,
                        reads: vec![],
                        kind: ModKind::Assign,
                    }],
                    is_else: true,
                },
            ],
        };
        let plan = compile(&ir, PlanMode::Optimized).unwrap();
        // Condition 0's true path must jump past condition 1 (it is an
        // else): find the EvalModify for cond 0 and check its on_true is
        // the End step.
        let end = plan.steps.len() - 1;
        let c0 = plan
            .steps
            .iter()
            .find_map(|s| match s {
                ExecStep::EvalModify {
                    cond: 0, on_true, ..
                } => Some(*on_true),
                _ => None,
            })
            .unwrap();
        assert_eq!(c0, end, "{plan}");
    }

    #[test]
    fn gather_elision_across_conditions() {
        // Two conditions reading the same remote value: the second gathers
        // nothing ("the gather messages for that condition are elided").
        let ir = ActionIr {
            name: "elide".into(),
            generator: GeneratorIr::Adj,
            slots: vec![ReadRef::VertexProp {
                map: 0,
                at: Place::GenVertex,
            }],
            conditions: vec![
                ConditionIr {
                    reads: vec![Slot(0)],
                    mods: vec![ModificationIr {
                        map: 1,
                        at: Place::Input,
                        reads: vec![Slot(0)],
                        kind: ModKind::Assign,
                    }],
                    is_else: false,
                },
                ConditionIr {
                    reads: vec![Slot(0)],
                    mods: vec![ModificationIr {
                        map: 2,
                        at: Place::Input,
                        reads: vec![Slot(0)],
                        kind: ModKind::Assign,
                    }],
                    is_else: false,
                },
            ],
        };
        let plan = compile(&ir, PlanMode::Optimized).unwrap();
        // Second condition must emit no Gather steps: its value is already
        // in the payload.
        let entry2 = plan.cond_entries[1];
        let gathers_after = plan.steps[entry2..]
            .iter()
            .filter(|s| matches!(s, ExecStep::Gather { .. }))
            .count();
        assert_eq!(gathers_after, 0, "{plan}");
    }

    /// The `cc_search` shape: `if (p[u] == NULL) p[u] = p[v]; else if
    /// (p[u] != p[v]) { s[p[u]].insert(p[v]); s[p[v]].insert(p[u]); }`.
    fn payload_only_else_ir() -> ActionIr {
        let (pnt, adjs) = (0, 1);
        ActionIr {
            name: "search".into(),
            generator: GeneratorIr::Adj,
            slots: vec![
                ReadRef::VertexProp {
                    map: pnt,
                    at: Place::GenVertex,
                },
                ReadRef::VertexProp {
                    map: pnt,
                    at: Place::Input,
                },
            ],
            conditions: vec![
                ConditionIr {
                    reads: vec![Slot(0), Slot(1)],
                    mods: vec![ModificationIr {
                        map: pnt,
                        at: Place::GenVertex,
                        reads: vec![Slot(1)],
                        kind: ModKind::Assign,
                    }],
                    is_else: false,
                },
                ConditionIr {
                    reads: vec![Slot(0), Slot(1)],
                    mods: vec![
                        ModificationIr {
                            map: adjs,
                            at: Place::map_at(pnt, Place::GenVertex),
                            reads: vec![Slot(1)],
                            kind: ModKind::Insert,
                        },
                        ModificationIr {
                            map: adjs,
                            at: Place::map_at(pnt, Place::Input),
                            reads: vec![Slot(0)],
                            kind: ModKind::Insert,
                        },
                    ],
                    is_else: true,
                },
            ],
        }
    }

    #[test]
    fn payload_only_test_runs_before_its_hop() {
        let ir = payload_only_else_ir();
        let plan = compile(&ir, PlanMode::Optimized).unwrap();
        // The claim reads p[u] fresh at u: still merged. The collision
        // test reads two payload slots: tested at u, then the hop.
        assert_eq!(plan.merged, vec![true, false], "{plan}");
        let entry = plan.cond_entries[1];
        let ExecStep::Eval {
            cond: 1,
            ref local_slots,
            on_true,
            on_false,
        } = plan.steps[entry]
        else {
            panic!("condition 1 starts with its test\n{plan}");
        };
        assert!(local_slots.is_empty(), "{plan}");
        assert!(matches!(plan.steps[on_false], ExecStep::End), "{plan}");
        let ExecStep::Goto { to, next } = plan.steps[on_true] else {
            panic!("the hop follows the test\n{plan}");
        };
        assert_eq!(plan.places[to], Place::map_at(0, Place::GenVertex));
        assert!(
            matches!(plan.steps[next], ExecStep::ModifyGroup { cond: 1, ref mods, .. } if *mods == [0]),
            "{plan}"
        );
        // Same hops on the firing path; the paper-literal plan keeps the
        // merged shape.
        let faithful = compile(&ir, PlanMode::Faithful).unwrap();
        assert_eq!(plan.comm_plan().hops, faithful.comm_plan().hops);
        assert_eq!(faithful.merged, vec![true, true], "{faithful}");
        assert!(plan.facts.is_some());
    }

    #[test]
    fn input_only_action_needs_no_messages() {
        // Condition and modification both at v: zero messages.
        let ir = ActionIr {
            name: "local".into(),
            generator: GeneratorIr::None,
            slots: vec![ReadRef::VertexProp {
                map: 0,
                at: Place::Input,
            }],
            conditions: vec![ConditionIr {
                reads: vec![Slot(0)],
                mods: vec![ModificationIr {
                    map: 0,
                    at: Place::Input,
                    reads: vec![Slot(0)],
                    kind: ModKind::Assign,
                }],
                is_else: false,
            }],
        };
        let plan = compile(&ir, PlanMode::Optimized).unwrap();
        assert_eq!(plan.comm_plan().messages, 0, "{plan}");
        assert_eq!(plan.merged, vec![true]);
    }
}
