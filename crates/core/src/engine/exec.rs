//! The engine proper: action registration, the compiled-closure driver,
//! and the guarded step interpreter ([`crate::engine::Exec::Reference`],
//! and the fallback for actions the compiler cannot take).

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::RwLock;

use dgp_am::machine::HandlerCtx;
use dgp_am::{AmCtx, MessageType, SpanKind};
use dgp_graph::{DistGraph, LockMap, VertexId};

use crate::engine::compiled::{self, Ctl, JitFallback, JitGen, JitProgram};
use crate::engine::maps::ErasedMap;
use crate::engine::table::AppendOnly;
use crate::engine::value::{EnvArr, EnvView, Val, MAX_SLOTS};
use crate::engine::{EngineConfig, EngineStats, EngineStatsSnapshot, Exec, SyncMode};
use crate::ir::{ActionIr, GenItem, GeneratorIr, Place, ReadRef};
use crate::plan::{self, ExecStep};

/// Identifier of an action registered with a [`PatternEngine`].
pub type ActionId = u32;

const START_PC: u32 = u32::MAX;

/// Work hooks running on this thread at most, nested, before a same-rank
/// hop stops taking the inline shortcut ([`EngineInner::hop`]).
const MAX_INLINE_DEPTH: u32 = 32;

thread_local! {
    /// Work hooks currently running on this thread, nested.
    static HOOK_DEPTH: Cell<u32> = const { Cell::new(0) };
}

/// The single message type the engine registers: one step of one action
/// instance, addressed to the locality it must run at.
#[derive(Debug, Clone, Copy)]
pub struct ActionMsg {
    pub(crate) action: ActionId,
    /// Program counter into the action's plan; `START_PC` = expand the
    /// generator at `v`.
    pub(crate) pc: u32,
    /// The action's input vertex.
    pub(crate) v: VertexId,
    /// The locality (vertex) this message is executing at.
    pub(crate) at: VertexId,
    pub(crate) gen: GenItem,
    pub(crate) env: EnvArr,
}

/// How a modification applies its computed value. The same distinction is
/// recorded statically in [`crate::ir::ModificationIr::kind`]; this alias
/// keeps the engine's historical name for it.
pub use crate::ir::ModKind as ModOp;

/// Computes a modification's new (or inserted) value from the payload and
/// the target's current value.
pub type ComputeFn = Arc<dyn Fn(&EnvView<'_>, Val) -> Val + Send + Sync>;

/// Executable form of one modification.
pub struct ModExec {
    /// How the computed value is applied.
    pub op: ModOp,
    /// Computes the new (or inserted) value from the payload and the
    /// target's current value.
    pub compute: ComputeFn,
}

/// Work hook: called at the owner of a dependent vertex (§III-C).
pub type WorkHook = Arc<dyn Fn(&AmCtx, VertexId) + Send + Sync>;

/// Resolves a [`Place`] to a concrete vertex at runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Resolver {
    Input,
    GenVertex,
    GenSrc,
    GenTrg,
    /// The place is `p[x]`; its vertex value was gathered into this slot.
    FromSlot(usize),
}

pub(crate) enum SlotReader {
    Vertex { map: usize, resolver: Resolver },
    Edge { map: usize },
}

pub(crate) struct CompiledAction {
    pub ir: ActionIr,
    pub plan: plan::ExecPlan,
    pub(crate) tests: Vec<crate::builder::TestFn>,
    pub(crate) mods: Vec<Vec<ModExec>>,
    pub(crate) dep: Vec<Vec<bool>>,
    /// Aligned with `plan.places`.
    pub(crate) resolvers: Vec<Resolver>,
    /// Aligned with `ir.slots`.
    pub(crate) readers: Vec<SlotReader>,
    /// Aligned with `plan.places` for modification targets: resolver of
    /// each condition/mod target place computed on demand via plan places.
    pub(crate) mod_target_resolvers: Vec<Vec<Resolver>>,
    /// The plan compiled to native closures (INTERNALS §14) — present
    /// only when the gate and the compiler both accepted it; the engine
    /// then never enters the interpreter for this action.
    jit: Option<JitProgram>,
    /// Why the action is interpreted instead; `None` iff `jit` is set.
    jit_fallback: Option<JitFallback>,
}

pub(crate) struct EngineInner {
    pub(crate) graph: DistGraph,
    pub(crate) rank: usize,
    pub(crate) cfg: EngineConfig,
    pub(crate) maps: RwLock<Vec<Arc<dyn ErasedMap>>>,
    /// Read once per message: no lock, no reference count.
    pub(crate) actions: AppendOnly<CompiledAction>,
    pub(crate) hooks: RwLock<Vec<Option<WorkHook>>>,
    pub(crate) lock_map: LockMap,
    pub(crate) stats: EngineStats,
    /// Owner-only accesses the guarded interpreter observed away from
    /// their locality (the dynamic cross-validator of the static
    /// verifier).
    locality_violations: AtomicU64,
    /// Bit `m` is set once any registered action writes map `m` with
    /// anything but a `Min`: combinable hops into it then send unfiltered
    /// (INTERNALS §14.5).
    non_min_writes: AtomicU64,
    msg: OnceLock<MessageType<ActionMsg>>,
}

/// The per-rank pattern engine. Cloning shares the underlying state (use
/// clones inside work hooks and strategies).
#[derive(Clone)]
pub struct PatternEngine {
    inner: Arc<EngineInner>,
}

impl PatternEngine {
    /// Collectively construct the engine: registers its AM message type,
    /// so every rank must call this at the same registration point.
    pub fn new(ctx: &AmCtx, graph: DistGraph, cfg: EngineConfig) -> PatternEngine {
        let rank = ctx.rank();
        let locals = graph.shard(rank).num_local();
        let inner = Arc::new(EngineInner {
            graph,
            rank,
            cfg,
            maps: RwLock::new(Vec::new()),
            actions: AppendOnly::new(),
            hooks: RwLock::new(Vec::new()),
            lock_map: LockMap::new(locals, cfg.lock_granularity),
            stats: EngineStats::new(ctx.config().threads_per_rank),
            locality_violations: AtomicU64::new(0),
            non_min_writes: AtomicU64::new(0),
            msg: OnceLock::new(),
        });
        let handler_inner = inner.clone();
        let mt = ctx.register_named(
            "pattern-engine",
            move |hctx: &HandlerCtx<'_, ActionMsg>, mut m: ActionMsg| {
                handler_inner.exec(hctx, &mut m);
            },
        );
        inner
            .msg
            .set(mt)
            .unwrap_or_else(|_| unreachable!("engine registered once"));
        PatternEngine { inner }
    }

    /// The graph the engine runs over.
    pub fn graph(&self) -> &DistGraph {
        &self.inner.graph
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.inner.cfg
    }

    /// Register a type-erased property map. Collective: same order on
    /// every rank. Returns the map id used in patterns.
    pub fn register_map(&self, map: Arc<dyn ErasedMap>) -> crate::ir::MapId {
        let mut maps = self.inner.maps.write();
        maps.push(map);
        (maps.len() - 1) as crate::ir::MapId
    }

    /// Register an atomic vertex property map (distances, labels, parents).
    pub fn register_vertex_map<T>(
        &self,
        map: &dgp_graph::properties::AtomicVertexMap<T>,
    ) -> crate::ir::MapId
    where
        T: crate::engine::maps::ValCodec + dgp_graph::properties::AtomicValue,
    {
        self.register_map(Arc::new(crate::engine::maps::AtomicMapHandle {
            map: map.clone(),
        }))
    }

    /// Register an edge property map (weights).
    pub fn register_edge_map<T>(&self, map: &dgp_graph::properties::EdgeMap<T>) -> crate::ir::MapId
    where
        T: crate::engine::maps::ValCodec + Clone + Send + Sync + 'static,
    {
        self.register_map(Arc::new(crate::engine::maps::EdgeMapHandle {
            map: map.clone(),
        }))
    }

    /// Register a set-valued vertex map (for `MapSet` generators and
    /// `insert` modifications).
    pub fn register_set_map(
        &self,
        map: &dgp_graph::properties::LockedVertexMap<Vec<VertexId>>,
    ) -> crate::ir::MapId {
        self.register_map(Arc::new(crate::engine::maps::SetMapHandle {
            map: map.clone(),
        }))
    }

    /// Register an action built with [`crate::builder::ActionBuilder`].
    /// Collective: same order on every rank.
    pub fn add_action(&self, built: crate::builder::BuiltAction) -> Result<ActionId, String> {
        let crate::builder::BuiltAction {
            ir, tests, mods, ..
        } = built;
        if ir.slots.len() > MAX_SLOTS {
            return Err(format!(
                "action {:?} declares {} reads; the engine supports at most {MAX_SLOTS}",
                ir.name,
                ir.slots.len()
            ));
        }
        let plan = plan::compile(&ir, self.inner.cfg.plan_mode)?;
        let resolvers = plan
            .places
            .iter()
            .map(|p| resolver_for(&ir, p))
            .collect::<Result<Vec<_>, _>>()?;
        let readers = ir
            .slots
            .iter()
            .map(|r| match r {
                ReadRef::VertexProp { map, at } => Ok(SlotReader::Vertex {
                    map: *map as usize,
                    resolver: resolver_for(&ir, at)?,
                }),
                ReadRef::EdgeProp { map } => Ok(SlotReader::Edge { map: *map as usize }),
            })
            .collect::<Result<Vec<_>, String>>()?;
        let mod_target_resolvers = ir
            .conditions
            .iter()
            .map(|c| {
                c.mods
                    .iter()
                    .map(|m| resolver_for(&ir, &m.at))
                    .collect::<Result<Vec<_>, _>>()
            })
            .collect::<Result<Vec<_>, _>>()?;
        let dep = ir.dependency_matrix();
        // Dominance filtering into a map needs every writer of it to be a
        // `Min`; an `Assign`/`Insert` writer registered now switches it off
        // for hops compiled earlier too. Maps past bit 63 never filter.
        let non_min = ir
            .conditions
            .iter()
            .zip(&mods)
            .flat_map(|(c, execs)| c.mods.iter().zip(execs))
            .filter(|(_, exec)| exec.op != ModOp::Min)
            .fold(0u64, |bits, (m, _)| {
                bits | 1u64.checked_shl(m.map).unwrap_or(0)
            });
        self.inner
            .non_min_writes
            .fetch_or(non_min, Ordering::Relaxed);
        let mut compiled = CompiledAction {
            ir,
            plan,
            tests,
            mods,
            dep,
            resolvers,
            readers,
            mod_target_resolvers,
            jit: None,
            jit_fallback: None,
        };
        // Attempt the plan→closure compiler (INTERNALS §14). A fallback
        // is recorded, not an error: the action runs on the guarded
        // interpreter, which remains the semantics oracle.
        let maps = self.inner.maps.read().clone();
        match compiled::compile(&compiled, &maps, &self.inner.cfg) {
            Ok(prog) => compiled.jit = Some(prog),
            Err(fb) => compiled.jit_fallback = Some(fb),
        }
        let mut hooks = self.inner.hooks.write();
        let id = self.inner.actions.push(compiled);
        hooks.push(None);
        Ok(id as ActionId)
    }

    /// Whether this action runs as compiled native closures instead of
    /// the step interpreter (INTERNALS §14).
    pub fn compiles(&self, action: ActionId) -> bool {
        self.inner.actions.get(action as usize).jit.is_some()
    }

    /// Why this action is interpreted — `None` when it compiles
    /// ([`Self::compiles`]); otherwise the recorded [`JitFallback`].
    pub fn compile_fallback(&self, action: ActionId) -> Option<JitFallback> {
        self.inner.actions.get(action as usize).jit_fallback
    }

    /// How many of the action's hops currently drop dominated sends
    /// (INTERNALS §14.5): compiled hops the plan proved combinable whose
    /// written map has no non-`Min` writer in this engine. Always 0 under
    /// [`Exec::Reference`], which never consults the cache.
    pub fn combinable_hops(&self, action: ActionId) -> usize {
        let a = self.inner.actions.get(action as usize);
        a.jit.as_ref().map_or(0, |j| {
            j.combinable
                .iter()
                .filter(|&&m| self.inner.min_only(m))
                .count()
        })
    }

    /// Install the action's work hook (the paper's `a.work(Vertex v) =
    /// {...}` customization point): called at the owner of each dependent
    /// vertex.
    pub fn set_work_hook(&self, action: ActionId, hook: WorkHook) {
        self.inner.hooks.write()[action as usize] = Some(hook);
    }

    /// Remove the action's work hook (dependencies are then "simply
    /// ignored", the default of §III-C).
    pub fn clear_work_hook(&self, action: ActionId) {
        self.inner.hooks.write()[action as usize] = None;
    }

    /// Start `action` at vertex `v` from anywhere: sends the start message
    /// to `v`'s owner (object-based addressing). Use inside an epoch.
    pub fn invoke(&self, ctx: &AmCtx, action: ActionId, v: VertexId) {
        let msg = ActionMsg {
            action,
            pc: START_PC,
            v,
            at: v,
            gen: GenItem::None,
            env: EnvArr::default(),
        };
        let mt = *self.inner.msg.get().expect("engine constructed");
        mt.send(ctx, self.inner.graph.owner(v), msg);
    }

    /// Run `action` at owned vertex `v` inline (strategy main loops and
    /// work hooks: "the action a is immediately run on the vertex").
    pub fn run_at(&self, ctx: &AmCtx, action: ActionId, v: VertexId) {
        debug_assert_eq!(self.inner.graph.owner(v), ctx.rank());
        let mut msg = ActionMsg {
            action,
            pc: START_PC,
            v,
            at: v,
            gen: GenItem::None,
            env: EnvArr::default(),
        };
        self.inner.exec(ctx, &mut msg);
    }

    /// This rank's engine counters.
    pub fn stats(&self) -> EngineStatsSnapshot {
        self.inner.stats.snapshot()
    }

    /// Owner-only accesses the guarded interpreter observed away from
    /// their locality on this rank. A verifier-clean pattern must keep
    /// this at zero under [`Exec::Reference`] (the differential property
    /// the test suite checks); compiled actions have no guards and never
    /// count.
    pub fn locality_violations(&self) -> u64 {
        self.inner.locality_violations.load(Ordering::SeqCst)
    }
}

fn resolver_for(ir: &ActionIr, p: &Place) -> Result<Resolver, String> {
    Ok(match p {
        Place::Input => Resolver::Input,
        Place::GenVertex => Resolver::GenVertex,
        Place::GenSrc => Resolver::GenSrc,
        Place::GenTrg => Resolver::GenTrg,
        Place::MapAt(m, inner) => Resolver::FromSlot(ir.resolving_slot(p).ok_or_else(|| {
            format!("place {m}[{inner:?}] needs its resolving read declared as a slot")
        })?),
    })
}

impl EngineInner {
    /// Dynamic owner-only check (Def. 1): `actual` must be the vertex the
    /// message is executing at. A violation is always counted (for the
    /// differential test against the static verifier); outside
    /// [`Exec::Reference`] — an action that fell back from the compiler —
    /// debug builds also keep the hard assert.
    fn check_locality(&self, actual: VertexId, expected: VertexId, what: &str, name: &str) {
        if actual == expected {
            return;
        }
        self.locality_violations.fetch_add(1, Ordering::Relaxed);
        debug_assert!(
            self.cfg.exec == Exec::Reference,
            "{what} of {name:?} away from its locality ({actual} vs {expected})"
        );
    }

    /// Whether every registered writer of `map` is a `Min`.
    pub(crate) fn min_only(&self, map: crate::ir::MapId) -> bool {
        map < 64 && self.non_min_writes.load(Ordering::Relaxed) & (1 << map) == 0
    }

    pub(crate) fn resolve(&self, r: Resolver, msg: &ActionMsg) -> VertexId {
        match r {
            Resolver::Input => msg.v,
            Resolver::GenVertex => match msg.gen {
                GenItem::Vertex(u) => u,
                other => panic!("generated vertex expected, found {other:?}"),
            },
            Resolver::GenSrc => match msg.gen {
                GenItem::Edge { src, .. } => src,
                other => panic!("generated edge expected, found {other:?}"),
            },
            Resolver::GenTrg => match msg.gen {
                GenItem::Edge { trg, .. } => trg,
                other => panic!("generated edge expected, found {other:?}"),
            },
            Resolver::FromSlot(s) => msg.env.get(s).as_vertex(),
        }
    }

    fn read_slot(&self, action: &CompiledAction, msg: &ActionMsg, slot: usize) -> Val {
        match &action.readers[slot] {
            SlotReader::Vertex { map, resolver } => {
                let y = self.resolve(*resolver, msg);
                self.check_locality(y, msg.at, "slot read", &action.ir.name);
                self.maps.read()[*map].read_vertex(self.rank, y)
            }
            SlotReader::Edge { map } => match msg.gen {
                GenItem::Edge { eidx, incoming, .. } => {
                    self.maps.read()[*map].read_edge(self.rank, eidx as usize, incoming)
                }
                other => panic!("edge property read without a generated edge ({other:?})"),
            },
        }
    }

    /// Handle one message. The frame is the caller's: compiled steps
    /// update it in place, and a hop copies it once into the send buffer.
    fn exec(&self, ctx: &AmCtx, msg: &mut ActionMsg) {
        if msg.pc == START_PC {
            self.exec_start(ctx, msg);
        } else {
            self.run(ctx, self.actions.get(msg.action as usize), msg);
        }
    }

    /// Run one instance from `msg.pc`: compiled closures when the action
    /// has them, the guarded interpreter otherwise.
    fn run(&self, ctx: &AmCtx, action: &CompiledAction, msg: &mut ActionMsg) {
        if let Some(jit) = &action.jit {
            self.run_jit(ctx, jit, msg);
        } else {
            self.run_steps(ctx, action, *msg);
        }
    }

    /// Move `msg` to `target`. Returns whether it left as a message (the
    /// caller stops); `false` means the instance continues here, on this
    /// thread — the target is the current vertex, or the shared-memory
    /// shortcut (`self_send: false`) runs a same-rank hop inline. Inline
    /// hops nest: a rerunning work hook fired after one starts the action
    /// again from inside this frame. Past [`MAX_INLINE_DEPTH`] running
    /// hooks on this thread the hop is sent instead, so the nesting — one
    /// frame per claimed vertex in a CC search — cannot overflow the
    /// stack.
    fn hop(
        &self,
        ctx: &AmCtx,
        msg: &mut ActionMsg,
        target: VertexId,
        dominance: Option<(u64, u64)>,
    ) -> bool {
        if target == msg.at {
            return false;
        }
        msg.at = target;
        let dest = self.graph.owner(target);
        if dest == self.rank && !self.cfg.self_send && HOOK_DEPTH.with(Cell::get) < MAX_INLINE_DEPTH
        {
            return false;
        }
        let mt = *self.msg.get().expect("engine constructed");
        match dominance {
            Some((key, value)) => {
                mt.send_min(ctx, dest, key, value, *msg);
            }
            None => mt.send(ctx, dest, *msg),
        }
        true
    }

    /// Drive a compiled action: each step closure returns what to do
    /// next; hops share the interpreter's send-or-inline rule
    /// ([`Self::hop`]) and its coalescing buffers — the same single
    /// message type.
    fn run_jit(&self, ctx: &AmCtx, jit: &JitProgram, msg: &mut ActionMsg) {
        loop {
            match (jit.steps[msg.pc as usize])(self, ctx, msg) {
                Ctl::Next(pc) => msg.pc = pc,
                Ctl::Hop {
                    target,
                    pc,
                    dominance,
                } => {
                    msg.pc = pc;
                    if self.hop(ctx, msg, target, dominance) {
                        return;
                    }
                }
                Ctl::Done => return,
            }
        }
    }

    /// Expand the generator at the input vertex and run each instance.
    fn exec_start(&self, ctx: &AmCtx, msg: &ActionMsg) {
        debug_assert_eq!(self.graph.owner(msg.v), self.rank);
        let stats = self.stats.of(ctx);
        EngineStats::bump(&stats.actions_started);
        let action = self.actions.get(msg.action as usize);
        let mut expand_span = ctx
            .span(SpanKind::Expand, "engine.expand")
            .map(|s| s.args(msg.action as u64, 0));
        let expanded = std::cell::Cell::new(0u64);
        let shard = self.graph.shard(self.rank);
        let li = shard.local_of(msg.v);
        let launch = |gen: GenItem| {
            EngineStats::bump(&stats.items_generated);
            expanded.set(expanded.get() + 1);
            let mut m = ActionMsg {
                pc: 0,
                at: msg.v,
                gen,
                env: EnvArr::default(),
                ..*msg
            };
            self.run(ctx, action, &mut m);
        };
        let jit_gen = action.jit.as_ref().map(|j| &j.gen);
        match action.ir.generator {
            GeneratorIr::None => launch(GenItem::None),
            GeneratorIr::OutEdges => {
                for (eidx, trg) in shard.out_edges(li) {
                    launch(GenItem::Edge {
                        src: msg.v,
                        trg,
                        eidx: eidx as u32,
                        incoming: false,
                    });
                }
            }
            GeneratorIr::OutEdgesFiltered {
                weight,
                threshold_bits,
                keep_light,
            } => {
                // The storage-split optimization of §II-A: the filter runs
                // where the edges (and their weights) live, before any
                // message is created. The compiled generator reads the
                // weights through the typed map with its threshold
                // pre-decoded; semantics are identical.
                if let Some(JitGen::OutEdgesFiltered {
                    weights,
                    threshold,
                    keep_light,
                }) = jit_gen
                {
                    for (eidx, trg) in shard.out_edges(li) {
                        let w = weights.get_out(self.rank, eidx);
                        let keep = if *keep_light {
                            w <= *threshold
                        } else {
                            w > *threshold
                        };
                        if keep {
                            launch(GenItem::Edge {
                                src: msg.v,
                                trg,
                                eidx: eidx as u32,
                                incoming: false,
                            });
                        }
                    }
                } else {
                    let threshold = f64::from_bits(threshold_bits);
                    let maps = self.maps.read();
                    for (eidx, trg) in shard.out_edges(li) {
                        let w = maps[weight as usize]
                            .read_edge(self.rank, eidx, false)
                            .as_f64();
                        let keep = if keep_light {
                            w <= threshold
                        } else {
                            w > threshold
                        };
                        if keep {
                            launch(GenItem::Edge {
                                src: msg.v,
                                trg,
                                eidx: eidx as u32,
                                incoming: false,
                            });
                        }
                    }
                }
            }
            GeneratorIr::InEdges => {
                for (eidx, src) in shard.in_edges(li) {
                    launch(GenItem::Edge {
                        src,
                        trg: msg.v,
                        eidx: eidx as u32,
                        incoming: true,
                    });
                }
            }
            GeneratorIr::Adj => {
                for u in shard.adj(li) {
                    launch(GenItem::Vertex(u));
                }
            }
            GeneratorIr::MapSet(m) => {
                let set = if let Some(JitGen::MapSet(tm)) = jit_gen {
                    tm.get(self.rank, msg.v)
                } else {
                    self.maps.read()[m as usize].read_vertex_set(self.rank, msg.v)
                };
                for u in set {
                    launch(GenItem::Vertex(u));
                }
            }
        }
        if let Some(s) = expand_span.as_mut() {
            s.set_arg1(expanded.get());
        }
    }

    /// Interpret steps until the instance ends or moves to another vertex.
    fn run_steps(&self, ctx: &AmCtx, action: &CompiledAction, mut msg: ActionMsg) {
        loop {
            match &action.plan.steps[msg.pc as usize] {
                ExecStep::Goto { to, next } => {
                    let target = self.resolve(action.resolvers[*to], &msg);
                    msg.pc = *next as u32;
                    if self.hop(ctx, &mut msg, target, None) {
                        return;
                    }
                }
                ExecStep::Gather { slots, next } => {
                    let _s = ctx
                        .span(SpanKind::Gather, "engine.gather")
                        .map(|s| s.args(msg.action as u64, slots.len() as u64));
                    for &s in slots {
                        let val = self.read_slot(action, &msg, s);
                        msg.env.set(s, val);
                    }
                    msg.pc = *next as u32;
                }
                ExecStep::Eval {
                    cond,
                    local_slots,
                    on_true,
                    on_false,
                } => {
                    let _s = ctx
                        .span(SpanKind::Eval, "engine.eval")
                        .map(|s| s.args(msg.action as u64, *cond as u64));
                    for &s in local_slots {
                        let val = self.read_slot(action, &msg, s);
                        msg.env.set(s, val);
                    }
                    let t = {
                        let view = EnvView {
                            env: &msg.env,
                            v: msg.v,
                            gen: msg.gen,
                        };
                        (action.tests[*cond])(&view)
                    };
                    let stats = self.stats.of(ctx);
                    EngineStats::bump(if t {
                        &stats.conditions_true
                    } else {
                        &stats.conditions_false
                    });
                    msg.pc = (if t { *on_true } else { *on_false }) as u32;
                }
                ExecStep::EvalModify {
                    cond,
                    local_slots,
                    mods,
                    on_true,
                    on_false,
                } => {
                    let _s = ctx
                        .span(SpanKind::Eval, "engine.eval_modify")
                        .map(|s| s.args(msg.action as u64, *cond as u64));
                    let fired = self.eval_modify(ctx, action, &mut msg, *cond, local_slots, mods);
                    msg.pc = (if fired { *on_true } else { *on_false }) as u32;
                }
                ExecStep::ModifyGroup {
                    cond,
                    local_slots,
                    mods,
                    next,
                } => {
                    let _s = ctx
                        .span(SpanKind::Eval, "engine.modify")
                        .map(|s| s.args(msg.action as u64, *cond as u64));
                    self.apply_group(ctx, action, &mut msg, *cond, local_slots, mods, None);
                    msg.pc = *next as u32;
                }
                ExecStep::End => return,
            }
        }
    }

    /// The merged evaluate-and-modify step (§IV-A): "together with
    /// synchronization, this merging allows to ensure consistency of reads
    /// and writes of the modified value".
    fn eval_modify(
        &self,
        ctx: &AmCtx,
        action: &CompiledAction,
        msg: &mut ActionMsg,
        cond: usize,
        local_slots: &[usize],
        mods: &[usize],
    ) -> bool {
        // Atomic fast path: a single assignment whose target is the only
        // value read fresh here — the condition+modification collapses into
        // one atomic read-modify-write (SSSP relax).
        if self.cfg.sync == SyncMode::Atomic && mods.len() == 1 && local_slots.len() == 1 {
            let mi = mods[0];
            let m = &action.ir.conditions[cond].mods[mi];
            let slot = local_slots[0];
            let slot_matches = matches!(
                &action.readers[slot],
                SlotReader::Vertex { map, resolver }
                    if *map == m.map as usize
                        && *resolver == action.mod_target_resolvers[cond][mi]
            );
            let op = action.mods[cond][mi].op;
            if slot_matches && matches!(op, ModOp::Assign | ModOp::Min) {
                let target = self.resolve(action.mod_target_resolvers[cond][mi], msg);
                self.check_locality(target, msg.at, "atomic modification", &action.ir.name);
                let test = &action.tests[cond];
                let compute = &action.mods[cond][mi].compute;
                let (v_in, gen) = (msg.v, msg.gen);
                let env_base = msg.env;
                let (_, new, changed) =
                    self.maps.read()[m.map as usize].update_vertex(self.rank, target, &|old| {
                        let mut env = env_base;
                        env.set(slot, old);
                        let view = EnvView {
                            env: &env,
                            v: v_in,
                            gen,
                        };
                        if test(&view) {
                            compute(&view, old)
                        } else {
                            old
                        }
                    });
                msg.env.set(slot, new);
                let stats = self.stats.of(ctx);
                EngineStats::bump(if changed {
                    &stats.conditions_true
                } else {
                    &stats.conditions_false
                });
                EngineStats::bump(if changed {
                    &stats.modifications_changed
                } else {
                    &stats.modifications_unchanged
                });
                if changed && action.dep[cond][mi] {
                    self.fire_hook(ctx, msg.action, msg.at);
                }
                return changed;
            }
        }

        // General path: the lock covering the modified vertex synchronizes
        // the fresh reads, the test, and the first modification group.
        let li = self.graph.shard(self.rank).local_of(msg.at);
        let guard = self.lock_map.guard(li);
        for &s in local_slots {
            let val = self.read_slot(action, msg, s);
            msg.env.set(s, val);
        }
        let fired = {
            let view = EnvView {
                env: &msg.env,
                v: msg.v,
                gen: msg.gen,
            };
            (action.tests[cond])(&view)
        };
        let stats = self.stats.of(ctx);
        EngineStats::bump(if fired {
            &stats.conditions_true
        } else {
            &stats.conditions_false
        });
        if fired {
            self.apply_group(ctx, action, msg, cond, &[], mods, Some(guard));
        }
        fired
    }

    /// Apply one modification group at the current vertex. `guard` is the
    /// already-held lock for a merged group; unmerged groups take their
    /// own lock ("every modification... is guaranteed to be atomic").
    #[allow(clippy::too_many_arguments)]
    fn apply_group(
        &self,
        ctx: &AmCtx,
        action: &CompiledAction,
        msg: &mut ActionMsg,
        cond: usize,
        local_slots: &[usize],
        mods: &[usize],
        guard: Option<parking_lot::MutexGuard<'_, ()>>,
    ) {
        let li = self.graph.shard(self.rank).local_of(msg.at);
        let _guard = match guard {
            Some(g) => g,
            None => self.lock_map.guard(li),
        };
        // Reads co-located with the modified values are taken fresh under
        // the group's lock (the merged-step consistency rule, §IV-A).
        for &s in local_slots {
            let val = self.read_slot(action, msg, s);
            msg.env.set(s, val);
        }
        let stats = self.stats.of(ctx);
        let mut dep_changed = false;
        for &mi in mods {
            let m = &action.ir.conditions[cond].mods[mi];
            let target = self.resolve(action.mod_target_resolvers[cond][mi], msg);
            self.check_locality(target, msg.at, "modification", &action.ir.name);
            let exec = &action.mods[cond][mi];
            let maps = self.maps.read();
            let changed = match exec.op {
                ModOp::Assign | ModOp::Min => {
                    let old = maps[m.map as usize].read_vertex(self.rank, target);
                    let new = {
                        let view = EnvView {
                            env: &msg.env,
                            v: msg.v,
                            gen: msg.gen,
                        };
                        (exec.compute)(&view, old)
                    };
                    if new != old {
                        maps[m.map as usize].write_vertex(self.rank, target, new);
                        true
                    } else {
                        false
                    }
                }
                ModOp::Insert => {
                    let u = {
                        let view = EnvView {
                            env: &msg.env,
                            v: msg.v,
                            gen: msg.gen,
                        };
                        (exec.compute)(&view, Val::Unset).as_vertex()
                    };
                    maps[m.map as usize].insert_vertex(self.rank, target, u)
                }
            };
            EngineStats::bump(if changed {
                &stats.modifications_changed
            } else {
                &stats.modifications_unchanged
            });
            if changed && action.dep[cond][mi] {
                dep_changed = true;
            }
        }
        drop(_guard);
        if dep_changed {
            self.fire_hook(ctx, msg.action, msg.at);
        }
    }

    pub(crate) fn fire_hook(&self, ctx: &AmCtx, action: ActionId, v: VertexId) {
        EngineStats::bump(&self.stats.of(ctx).dependencies_fired);
        let hook = self.hooks.read()[action as usize].clone();
        if let Some(h) = hook {
            HOOK_DEPTH.with(|d| d.set(d.get() + 1));
            h(ctx, v);
            HOOK_DEPTH.with(|d| d.set(d.get() - 1));
        }
    }
}
