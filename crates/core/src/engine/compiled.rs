//! The plan→closure compiler (INTERNALS §14): monomorphize a
//! proof-carrying [`crate::plan::ExecPlan`] into a chain of typed Rust
//! closures the engine runs instead of the step interpreter.
//!
//! The compiler consumes the plan's [`crate::plan::VerifiedFacts`]
//! proof: where the interpreter re-resolves each access's place and
//! checks it against the executing locality on every message, compiled
//! code never contains those guards. Each step becomes one closure with
//! everything the interpreter re-derives per message pre-resolved at
//! `add_action` time:
//!
//! * slot lists and frame offsets are captured as direct indices;
//! * property-map accessors are devirtualized — the type-erased
//!   [`ErasedMap`] is downcast once to its concrete
//!   [`AtomicMapHandle`]/[`EdgeMapHandle`]/[`SetMapHandle`] and the
//!   closure captures the *typed* map, so reads and read-modify-writes
//!   monomorphize through [`ValCodec`] instead of dynamic dispatch;
//! * the merged-step shape test (the §IV-B atomic fast path) runs once
//!   here, not per message: an eligible `EvalModify` compiles straight to
//!   a fused typed `AtomicVertexMap::update`;
//! * generator constants (the light/heavy threshold of §II-A) are
//!   pre-evaluated out of their bit-pattern encoding.
//!
//! Condition tests and modification right-hand sides stay the opaque
//! closures the pattern author wrote ([`crate::builder`]); they are leaf
//! calls of the compiled chain. Anything the compiler cannot prove it
//! supports — a map handle it does not recognize, a hint mismatch —
//! reports a [`JitFallback`] and the action transparently stays on the
//! guarded interpreter, which remains the semantics oracle. Soundness
//! argument: compiled code reads and writes only at `msg.at`. The proof's
//! `L001` facts pin every access site's Def. 1 locality to the current
//! step's place — the very place whose resolution produced `msg.at` at
//! the last `Goto` — and no step between that `Goto` and the access can
//! overwrite the resolution slot (its locality is structurally distinct
//! from the `MapAt` place it resolves, so `L001` keeps re-gathers away
//! from it; see [`crate::plan::soundness`]).

use std::sync::Arc;

use dgp_am::{AmCtx, SpanKind};
use dgp_graph::properties::{EdgeMap, LockedVertexMap};
use dgp_graph::VertexId;

use super::exec::{ActionMsg, CompiledAction, ComputeFn, EngineInner, Resolver, SlotReader};
use super::maps::{AtomicMapHandle, EdgeMapHandle, ErasedMap, SetMapHandle, ValCodec};
use super::value::{EnvView, Val};
use super::{EngineConfig, EngineStats, Exec, SyncMode};
use crate::ir::{GenItem, GeneratorIr, MapId, ModKind};
use crate::plan::{ExecPlan, ExecStep};

/// What a compiled step tells the driver loop to do next.
pub(crate) enum Ctl {
    /// Continue at this step, same vertex.
    Next(u32),
    /// Move to `target` (the compiled `Goto`): the driver sends one
    /// message when it is a different vertex, or continues inline.
    Hop {
        /// The resolved destination vertex.
        target: VertexId,
        /// Step to execute on arrival.
        pc: u32,
        /// For a combinable hop (INTERNALS §14.5): the `(key, value)` the
        /// send is filtered under; `None` sends unfiltered.
        dominance: Option<(u64, u64)>,
    },
    /// The instance is finished.
    Done,
}

/// One compiled plan step.
pub(crate) type StepFn = Box<dyn Fn(&EngineInner, &AmCtx, &mut ActionMsg) -> Ctl + Send + Sync>;

/// A devirtualized slot read: fills one payload slot at `msg.at`.
type ReadFn = Arc<dyn Fn(&EngineInner, &ActionMsg) -> Val + Send + Sync>;

/// A devirtualized modification: applies at the given vertex, returns
/// whether the target changed.
type ApplyFn = Box<dyn Fn(&EngineInner, &EnvView<'_>, VertexId) -> bool + Send + Sync>;

/// The compiled generator: typed maps pre-bound, constants pre-evaluated.
pub(crate) enum JitGen {
    /// No fan-out.
    None,
    /// All out-edges.
    OutEdges,
    /// All in-edges.
    InEdges,
    /// Adjacent vertices.
    Adj,
    /// Vertices in a set-valued property, read through the typed map.
    MapSet(LockedVertexMap<Vec<VertexId>>),
    /// Out-edges filtered by weight, threshold decoded from its bit
    /// pattern once.
    OutEdgesFiltered {
        /// The typed weight map.
        weights: EdgeMap<f64>,
        /// Pre-evaluated threshold.
        threshold: f64,
        /// Keep `weight <= threshold` edges (otherwise heavier ones).
        keep_light: bool,
    },
}

/// A fully compiled action: the step program as native closures.
pub(crate) struct JitProgram {
    /// One closure per plan step, same indices as the plan.
    pub(crate) steps: Vec<StepFn>,
    /// The compiled generator.
    pub(crate) gen: JitGen,
    /// The map written by each combinable hop compiled with a dominance
    /// filter, one entry per hop.
    pub(crate) combinable: Vec<MapId>,
}

/// The access the compiler was trying to devirtualize when it gave up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapAccess {
    /// A vertex-property slot read.
    VertexRead,
    /// An edge-property slot read.
    EdgeRead,
    /// An `Assign` modification target.
    Assign,
    /// An `Insert` modification target.
    Insert,
    /// A `MapSet` generator enumeration.
    SetEnumerate,
    /// The weight map of a filtered-edges generator.
    EdgeFilter,
}

/// Why an action is running on the interpreter instead of compiled code.
/// Inspect via [`super::PatternEngine::compile_fallback`]; `--lint`
/// renders these in its per-plan facts table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JitFallback {
    /// The engine was configured with [`Exec::Reference`]: the caller
    /// asked for the guarded interpreter.
    Reference,
    /// The plan carries no [`crate::plan::VerifiedFacts`] proof; without
    /// it the compiler may not assume locality/def-use soundness.
    NoFacts,
    /// A `MapId` beyond the registered maps (registration-order bug).
    UnregisteredMap(usize),
    /// The map behind this `MapId` is not a handle/type the compiler
    /// supports for the given access.
    UnsupportedMap {
        /// The offending `MapId`.
        map: usize,
        /// The access that could not be devirtualized.
        access: MapAccess,
    },
}

impl std::fmt::Display for JitFallback {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JitFallback::Reference => write!(f, "reference executor requested"),
            JitFallback::NoFacts => write!(f, "plan carries no proof"),
            JitFallback::UnregisteredMap(m) => write!(f, "map {m} not registered"),
            JitFallback::UnsupportedMap { map, access } => {
                write!(f, "map {map} unsupported for {access:?}")
            }
        }
    }
}

/// Try to downcast `maps[$mid]` to an [`AtomicMapHandle`] over any
/// supported codec and run `$body` with `$m` bound to the *typed*
/// [`dgp_graph::properties::AtomicVertexMap`] clone — `$body` is
/// monomorphized once per value type.
macro_rules! with_atomic {
    ($maps:expr, $mid:expr, $access:expr, |$m:ident| $body:expr) => {{
        let mid: usize = $mid;
        let any = $maps
            .get(mid)
            .ok_or(JitFallback::UnregisteredMap(mid))?
            .as_any();
        if let Some(h) = any.downcast_ref::<AtomicMapHandle<u64>>() {
            let $m = h.map.clone();
            $body
        } else if let Some(h) = any.downcast_ref::<AtomicMapHandle<u32>>() {
            let $m = h.map.clone();
            $body
        } else if let Some(h) = any.downcast_ref::<AtomicMapHandle<usize>>() {
            let $m = h.map.clone();
            $body
        } else if let Some(h) = any.downcast_ref::<AtomicMapHandle<i64>>() {
            let $m = h.map.clone();
            $body
        } else if let Some(h) = any.downcast_ref::<AtomicMapHandle<f64>>() {
            let $m = h.map.clone();
            $body
        } else if let Some(h) = any.downcast_ref::<AtomicMapHandle<bool>>() {
            let $m = h.map.clone();
            $body
        } else if let Some(h) = any.downcast_ref::<AtomicMapHandle<Option<VertexId>>>() {
            let $m = h.map.clone();
            $body
        } else {
            return Err(JitFallback::UnsupportedMap {
                map: mid,
                access: $access,
            });
        }
    }};
}

/// As [`with_atomic!`], for [`EdgeMapHandle`]s.
macro_rules! with_edge {
    ($maps:expr, $mid:expr, $access:expr, |$m:ident| $body:expr) => {{
        let mid: usize = $mid;
        let any = $maps
            .get(mid)
            .ok_or(JitFallback::UnregisteredMap(mid))?
            .as_any();
        if let Some(h) = any.downcast_ref::<EdgeMapHandle<u64>>() {
            let $m = h.map.clone();
            $body
        } else if let Some(h) = any.downcast_ref::<EdgeMapHandle<u32>>() {
            let $m = h.map.clone();
            $body
        } else if let Some(h) = any.downcast_ref::<EdgeMapHandle<usize>>() {
            let $m = h.map.clone();
            $body
        } else if let Some(h) = any.downcast_ref::<EdgeMapHandle<i64>>() {
            let $m = h.map.clone();
            $body
        } else if let Some(h) = any.downcast_ref::<EdgeMapHandle<f64>>() {
            let $m = h.map.clone();
            $body
        } else if let Some(h) = any.downcast_ref::<EdgeMapHandle<bool>>() {
            let $m = h.map.clone();
            $body
        } else if let Some(h) = any.downcast_ref::<EdgeMapHandle<Option<VertexId>>>() {
            let $m = h.map.clone();
            $body
        } else {
            return Err(JitFallback::UnsupportedMap {
                map: mid,
                access: $access,
            });
        }
    }};
}

fn set_map(
    maps: &[Arc<dyn ErasedMap>],
    mid: usize,
    access: MapAccess,
) -> Result<LockedVertexMap<Vec<VertexId>>, JitFallback> {
    maps.get(mid)
        .ok_or(JitFallback::UnregisteredMap(mid))?
        .as_any()
        .downcast_ref::<SetMapHandle>()
        .map(|h| h.map.clone())
        .ok_or(JitFallback::UnsupportedMap { map: mid, access })
}

/// The config/proof gate every action passes before the compiler looks
/// at it, in diagnostic order: the executor choice first, then the proof.
/// Identical on every rank (the config is part of collective
/// construction), so either all ranks compile an action or none do.
/// Public (as [`super::jit_gate`]) so the mutation tests can show a plan
/// stripped of its proof to the check `add_action` itself runs.
pub fn gate(cfg: &EngineConfig, plan: &ExecPlan) -> Result<(), JitFallback> {
    if cfg.exec == Exec::Reference {
        return Err(JitFallback::Reference);
    }
    if plan.facts.is_none() {
        return Err(JitFallback::NoFacts);
    }
    Ok(())
}

/// Compile `action` against the maps registered so far. Called once from
/// [`super::PatternEngine::add_action`]; an `Err` is not a failure, it is
/// the (recorded) decision to stay on the interpreter.
pub(crate) fn compile(
    action: &CompiledAction,
    maps: &[Arc<dyn ErasedMap>],
    cfg: &EngineConfig,
) -> Result<JitProgram, JitFallback> {
    gate(cfg, &action.plan)?;
    let gen = compile_gen(&action.ir.generator, maps)?;
    let mut combinable = Vec::new();
    let steps = action
        .plan
        .steps
        .iter()
        .enumerate()
        .map(|(pc, step)| match combinable_min(action, pc) {
            Some((map, compute)) => {
                combinable.push(map);
                Ok(compile_combinable_hop(action, step, map, compute))
            }
            None => compile_step(action, maps, cfg, step),
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(JitProgram {
        steps,
        gen,
        combinable,
    })
}

/// Packed keys put the map id above the vertex id's low 58 bits.
const KEY_SHIFT: u32 = 58;

/// The written map and the right-hand side of the `Min` a plan-proven
/// combinable `Goto` at `pc` hops into (INTERNALS §14.5). The
/// modification must also *execute* as a `Min` — the closure came from
/// [`crate::builder::ActionBuilder::min`], not merely an IR relabelled.
fn combinable_min(action: &CompiledAction, pc: usize) -> Option<(MapId, ComputeFn)> {
    if !action.plan.facts.as_ref()?.combinable.contains(&pc) {
        return None;
    }
    let ExecStep::Goto { next, .. } = action.plan.steps[pc] else {
        return None;
    };
    let ExecStep::EvalModify { cond, mods, .. } = &action.plan.steps[next] else {
        return None;
    };
    let exec = &action.mods[*cond][mods[0]];
    (exec.op == ModKind::Min).then(|| {
        (
            action.ir.conditions[*cond].mods[mods[0]].map,
            exec.compute.clone(),
        )
    })
}

/// A combinable `Goto`: resolve the target, then compute on the sender
/// the value the arrival step will test, so the send can be dropped when
/// this thread already sent a no-larger one to the same cell this epoch.
/// Filtering is off while the engine has a non-`Min` writer of the map
/// (re-checked per hop: `add_action` may register one later), and for a
/// vertex id too wide to pack into the key.
fn compile_combinable_hop(
    action: &CompiledAction,
    step: &ExecStep,
    map: MapId,
    compute: ComputeFn,
) -> StepFn {
    let ExecStep::Goto { to, next } = *step else {
        unreachable!("combinable facts name goto steps")
    };
    let resolver = action.resolvers[to];
    let next = next as u32;
    Box::new(
        move |inner: &EngineInner, _c: &AmCtx, msg: &mut ActionMsg| {
            let target = inner.resolve(resolver, msg);
            let dominance = if inner.min_only(map) && target >> KEY_SHIFT == 0 {
                let view = EnvView {
                    env: &msg.env,
                    v: msg.v,
                    gen: msg.gen,
                };
                let key = ((map as u64) << KEY_SHIFT) | target;
                compute(&view, Val::Unset)
                    .order_key()
                    .map(|value| (key, value))
            } else {
                None
            };
            Ctl::Hop {
                target,
                pc: next,
                dominance,
            }
        },
    )
}

fn compile_gen(g: &GeneratorIr, maps: &[Arc<dyn ErasedMap>]) -> Result<JitGen, JitFallback> {
    Ok(match g {
        GeneratorIr::None => JitGen::None,
        GeneratorIr::OutEdges => JitGen::OutEdges,
        GeneratorIr::InEdges => JitGen::InEdges,
        GeneratorIr::Adj => JitGen::Adj,
        GeneratorIr::MapSet(m) => {
            JitGen::MapSet(set_map(maps, *m as usize, MapAccess::SetEnumerate)?)
        }
        GeneratorIr::OutEdgesFiltered {
            weight,
            threshold_bits,
            keep_light,
        } => {
            let mid = *weight as usize;
            let h = maps
                .get(mid)
                .ok_or(JitFallback::UnregisteredMap(mid))?
                .as_any()
                .downcast_ref::<EdgeMapHandle<f64>>()
                .ok_or(JitFallback::UnsupportedMap {
                    map: mid,
                    access: MapAccess::EdgeFilter,
                })?;
            JitGen::OutEdgesFiltered {
                weights: h.map.clone(),
                threshold: f64::from_bits(*threshold_bits),
                keep_light: *keep_light,
            }
        }
    })
}

/// Devirtualize one slot read. Compiled code runs only under an accepted
/// proof, so reads go straight to `msg.at` — the proof pins the site's
/// Def. 1 locality to the current step's place.
fn compile_read(
    action: &CompiledAction,
    maps: &[Arc<dyn ErasedMap>],
    slot: usize,
) -> Result<ReadFn, JitFallback> {
    match &action.readers[slot] {
        SlotReader::Vertex { map, .. } => {
            with_atomic!(maps, *map, MapAccess::VertexRead, |m| Ok(Arc::new(
                move |inner: &EngineInner, msg: &ActionMsg| m.get(inner.rank, msg.at).to_val()
            )
                as ReadFn))
        }
        SlotReader::Edge { map } => {
            with_edge!(maps, *map, MapAccess::EdgeRead, |m| Ok(Arc::new(
                move |inner: &EngineInner, msg: &ActionMsg| match msg.gen {
                    GenItem::Edge { eidx, incoming, .. } =>
                        if incoming {
                            m.get_in(inner.rank, eidx as usize).to_val()
                        } else {
                            m.get_out(inner.rank, eidx as usize).to_val()
                        },
                    other => panic!("edge property read without a generated edge ({other:?})"),
                }
            )
                as ReadFn))
        }
    }
}

fn compile_reads(
    action: &CompiledAction,
    maps: &[Arc<dyn ErasedMap>],
    slots: &[usize],
) -> Result<Vec<(usize, ReadFn)>, JitFallback> {
    slots
        .iter()
        .map(|&s| Ok((s, compile_read(action, maps, s)?)))
        .collect()
}

/// Devirtualize one modification of condition `cond`, paired with its
/// dependency-rule flag.
fn compile_applier(
    action: &CompiledAction,
    maps: &[Arc<dyn ErasedMap>],
    cond: usize,
    mi: usize,
) -> Result<(ApplyFn, bool), JitFallback> {
    let m = &action.ir.conditions[cond].mods[mi];
    let exec = &action.mods[cond][mi];
    let compute = exec.compute.clone();
    let dep = action.dep[cond][mi];
    match exec.op {
        // `new != old` compares at the `Val` level, like the interpreter:
        // the change test must not be sharper (or blunter) than the
        // erased one, including the NaN-never-equal corner.
        ModKind::Assign | ModKind::Min => {
            with_atomic!(maps, m.map as usize, MapAccess::Assign, |tm| Ok((
                Box::new(
                    move |inner: &EngineInner, view: &EnvView<'_>, at: VertexId| {
                        let old = tm.get(inner.rank, at).to_val();
                        let new = compute(view, old);
                        if new != old {
                            tm.set(inner.rank, at, ValCodec::from_val(new));
                            true
                        } else {
                            false
                        }
                    }
                ) as ApplyFn,
                dep
            )))
        }
        ModKind::Insert => {
            let sm = set_map(maps, m.map as usize, MapAccess::Insert)?;
            Ok((
                Box::new(
                    move |inner: &EngineInner, view: &EnvView<'_>, at: VertexId| {
                        let u = compute(view, Val::Unset).as_vertex();
                        sm.with_mut(inner.rank, at, |s| {
                            if s.contains(&u) {
                                false
                            } else {
                                s.push(u);
                                true
                            }
                        })
                    },
                ) as ApplyFn,
                dep,
            ))
        }
    }
}

fn compile_appliers(
    action: &CompiledAction,
    maps: &[Arc<dyn ErasedMap>],
    cond: usize,
    mods: &[usize],
) -> Result<Vec<(ApplyFn, bool)>, JitFallback> {
    mods.iter()
        .map(|&mi| compile_applier(action, maps, cond, mi))
        .collect()
}

/// Run a compiled modification group under the already-held vertex lock:
/// apply each modification, bump the change counters, drop the lock, and
/// only then fire the dependency hook (the interpreter's `apply_group`
/// ordering).
fn apply_all(
    inner: &EngineInner,
    ctx: &AmCtx,
    appliers: &[(ApplyFn, bool)],
    msg: &ActionMsg,
    guard: parking_lot::MutexGuard<'_, ()>,
) {
    let stats = inner.stats.of(ctx);
    let mut dep_changed = false;
    for (apply, dep) in appliers {
        let changed = {
            let view = EnvView {
                env: &msg.env,
                v: msg.v,
                gen: msg.gen,
            };
            apply(inner, &view, msg.at)
        };
        EngineStats::bump(if changed {
            &stats.modifications_changed
        } else {
            &stats.modifications_unchanged
        });
        if changed && *dep {
            dep_changed = true;
        }
    }
    drop(guard);
    if dep_changed {
        inner.fire_hook(ctx, msg.action, msg.at);
    }
}

fn compile_step(
    action: &CompiledAction,
    maps: &[Arc<dyn ErasedMap>],
    cfg: &EngineConfig,
    step: &ExecStep,
) -> Result<StepFn, JitFallback> {
    Ok(match step {
        // The resolver specializes per place kind; the driver loop turns
        // the `Hop` into a coalesced send or an inline continuation.
        ExecStep::Goto { to, next } => {
            let next = *next as u32;
            match action.resolvers[*to] {
                Resolver::Input => Box::new(
                    move |_i: &EngineInner, _c: &AmCtx, msg: &mut ActionMsg| Ctl::Hop {
                        target: msg.v,
                        pc: next,
                        dominance: None,
                    },
                ),
                Resolver::GenVertex => Box::new(move |_i, _c, msg: &mut ActionMsg| Ctl::Hop {
                    target: match msg.gen {
                        GenItem::Vertex(u) => u,
                        other => panic!("generated vertex expected, found {other:?}"),
                    },
                    pc: next,
                    dominance: None,
                }),
                Resolver::GenSrc => Box::new(move |_i, _c, msg: &mut ActionMsg| Ctl::Hop {
                    target: match msg.gen {
                        GenItem::Edge { src, .. } => src,
                        other => panic!("generated edge expected, found {other:?}"),
                    },
                    pc: next,
                    dominance: None,
                }),
                Resolver::GenTrg => Box::new(move |_i, _c, msg: &mut ActionMsg| Ctl::Hop {
                    target: match msg.gen {
                        GenItem::Edge { trg, .. } => trg,
                        other => panic!("generated edge expected, found {other:?}"),
                    },
                    pc: next,
                    dominance: None,
                }),
                Resolver::FromSlot(s) => Box::new(move |_i, _c, msg: &mut ActionMsg| Ctl::Hop {
                    target: msg.env.get(s).as_vertex(),
                    pc: next,
                    dominance: None,
                }),
            }
        }
        ExecStep::Gather { slots, next } => {
            let rds = compile_reads(action, maps, slots)?;
            let next = *next as u32;
            let n = rds.len() as u64;
            Box::new(
                move |inner: &EngineInner, ctx: &AmCtx, msg: &mut ActionMsg| {
                    let _s = ctx
                        .span(SpanKind::Gather, "engine.gather")
                        .map(|s| s.args(msg.action as u64, n));
                    for (slot, rd) in &rds {
                        let val = rd(inner, msg);
                        msg.env.set(*slot, val);
                    }
                    Ctl::Next(next)
                },
            )
        }
        ExecStep::Eval {
            cond,
            local_slots,
            on_true,
            on_false,
        } => {
            let rds = compile_reads(action, maps, local_slots)?;
            let test = action.tests[*cond].clone();
            let cond_u = *cond as u64;
            let (on_true, on_false) = (*on_true as u32, *on_false as u32);
            Box::new(
                move |inner: &EngineInner, ctx: &AmCtx, msg: &mut ActionMsg| {
                    let _s = ctx
                        .span(SpanKind::Eval, "engine.eval")
                        .map(|s| s.args(msg.action as u64, cond_u));
                    for (slot, rd) in &rds {
                        let val = rd(inner, msg);
                        msg.env.set(*slot, val);
                    }
                    let t = {
                        let view = EnvView {
                            env: &msg.env,
                            v: msg.v,
                            gen: msg.gen,
                        };
                        test(&view)
                    };
                    let stats = inner.stats.of(ctx);
                    EngineStats::bump(if t {
                        &stats.conditions_true
                    } else {
                        &stats.conditions_false
                    });
                    Ctl::Next(if t { on_true } else { on_false })
                },
            )
        }
        ExecStep::EvalModify {
            cond,
            local_slots,
            mods,
            on_true,
            on_false,
        } => compile_eval_modify(
            action,
            maps,
            cfg,
            *cond,
            local_slots,
            mods,
            *on_true as u32,
            *on_false as u32,
        )?,
        ExecStep::ModifyGroup {
            cond,
            local_slots,
            mods,
            next,
        } => {
            let rds = compile_reads(action, maps, local_slots)?;
            let appliers = compile_appliers(action, maps, *cond, mods)?;
            let cond_u = *cond as u64;
            let next = *next as u32;
            Box::new(
                move |inner: &EngineInner, ctx: &AmCtx, msg: &mut ActionMsg| {
                    let _s = ctx
                        .span(SpanKind::Eval, "engine.modify")
                        .map(|s| s.args(msg.action as u64, cond_u));
                    let li = inner.graph.shard(inner.rank).local_of(msg.at);
                    let guard = inner.lock_map.guard(li);
                    for (slot, rd) in &rds {
                        let val = rd(inner, msg);
                        msg.env.set(*slot, val);
                    }
                    apply_all(inner, ctx, &appliers, msg, guard);
                    Ctl::Next(next)
                },
            )
        }
        ExecStep::End => Box::new(|_i: &EngineInner, _c: &AmCtx, _m: &mut ActionMsg| Ctl::Done),
    })
}

/// Compile the merged evaluate-and-modify step. The §IV-B shape test the
/// interpreter performs per message runs once here: an eligible step
/// fuses into a single typed atomic read-modify-write, everything else
/// compiles the lock-map path.
#[allow(clippy::too_many_arguments)]
fn compile_eval_modify(
    action: &CompiledAction,
    maps: &[Arc<dyn ErasedMap>],
    cfg: &EngineConfig,
    cond: usize,
    local_slots: &[usize],
    mods: &[usize],
    on_true: u32,
    on_false: u32,
) -> Result<StepFn, JitFallback> {
    if cfg.sync == SyncMode::Atomic && mods.len() == 1 && local_slots.len() == 1 {
        let mi = mods[0];
        let m = &action.ir.conditions[cond].mods[mi];
        let slot = local_slots[0];
        let slot_matches = matches!(
            &action.readers[slot],
            SlotReader::Vertex { map, resolver }
                if *map == m.map as usize
                    && *resolver == action.mod_target_resolvers[cond][mi]
        );
        if slot_matches && matches!(action.mods[cond][mi].op, ModKind::Assign | ModKind::Min) {
            let test = action.tests[cond].clone();
            let compute = action.mods[cond][mi].compute.clone();
            let dep = action.dep[cond][mi];
            let cond_u = cond as u64;
            return with_atomic!(maps, m.map as usize, MapAccess::Assign, |tm| Ok(Box::new(
                move |inner: &EngineInner, ctx: &AmCtx, msg: &mut ActionMsg| {
                    let _s = ctx
                        .span(SpanKind::Eval, "engine.eval_modify")
                        .map(|s| s.args(msg.action as u64, cond_u));
                    // Each CAS attempt writes its `old` into the frame's
                    // slot in place; the other slots are the payload's.
                    let (v_in, gen) = (msg.v, msg.gen);
                    let env = &mut msg.env;
                    let out = tm.update(inner.rank, msg.at, |old| {
                        env.set(slot, old.to_val());
                        let view = EnvView { env, v: v_in, gen };
                        if test(&view) {
                            ValCodec::from_val(compute(&view, old.to_val()))
                        } else {
                            old
                        }
                    });
                    msg.env.set(slot, out.new.to_val());
                    let stats = inner.stats.of(ctx);
                    EngineStats::bump(if out.changed {
                        &stats.conditions_true
                    } else {
                        &stats.conditions_false
                    });
                    EngineStats::bump(if out.changed {
                        &stats.modifications_changed
                    } else {
                        &stats.modifications_unchanged
                    });
                    if out.changed && dep {
                        inner.fire_hook(ctx, msg.action, msg.at);
                    }
                    Ctl::Next(if out.changed { on_true } else { on_false })
                }
            )
                as StepFn));
        }
    }

    let rds = compile_reads(action, maps, local_slots)?;
    let appliers = compile_appliers(action, maps, cond, mods)?;
    let test = action.tests[cond].clone();
    let cond_u = cond as u64;
    Ok(Box::new(
        move |inner: &EngineInner, ctx: &AmCtx, msg: &mut ActionMsg| {
            let _s = ctx
                .span(SpanKind::Eval, "engine.eval_modify")
                .map(|s| s.args(msg.action as u64, cond_u));
            let li = inner.graph.shard(inner.rank).local_of(msg.at);
            let guard = inner.lock_map.guard(li);
            for (slot, rd) in &rds {
                let val = rd(inner, msg);
                msg.env.set(*slot, val);
            }
            let fired = {
                let view = EnvView {
                    env: &msg.env,
                    v: msg.v,
                    gen: msg.gen,
                };
                test(&view)
            };
            let stats = inner.stats.of(ctx);
            EngineStats::bump(if fired {
                &stats.conditions_true
            } else {
                &stats.conditions_false
            });
            if fired {
                apply_all(inner, ctx, &appliers, msg, guard);
            }
            Ctl::Next(if fired { on_true } else { on_false })
        },
    ))
}
