//! The `pattern` construct of the grammar (§III):
//!
//! ```text
//! <pattern>  ::= 'pattern' '{' <properties> <actions> '}'
//! <property> ::= <property-kind> '<' <type> '>' <name> ';'
//! ```
//!
//! [`PatternBuilder`] is the one place a pattern is written down: its
//! property declarations, in order, and the actions over the map ids those
//! declarations hand out. Everything else reads that declaration —
//! [`PatternBuilder::verify`] lints it without a machine,
//! [`PatternBuilder::install`] collectively creates the machine-shared
//! maps, registers them with a fresh engine in declaration order and
//! compiles every action, and [`PatternBuilder::jit_report`] asks the
//! engine's own JIT gate what it decided. Every shipped algorithm family
//! installs this way (DESIGN S24).
//!
//! ```
//! use dgp_am::{Machine, MachineConfig};
//! use dgp_core::builder::ActionBuilder;
//! use dgp_core::engine::{EngineConfig, Val};
//! use dgp_core::ir::{GeneratorIr, Place};
//! use dgp_core::pattern::PatternBuilder;
//! use dgp_core::strategies::fixed_point;
//! use dgp_graph::properties::EdgeMap;
//! use dgp_graph::{DistGraph, Distribution, EdgeList};
//!
//! let el = EdgeList::from_weighted(3, &[(0, 1, 1.0), (1, 2, 1.0)]);
//! let graph = DistGraph::build(&el, Distribution::block(3, 2), false);
//! let weights = EdgeMap::from_weights(&graph, &el);
//! Machine::run(MachineConfig::new(2), move |ctx| {
//!     // pattern SSSP {
//!     //   vertex-property<distance> dist; edge-property<distance> weight;
//!     //   relax(Vertex v) { ... }
//!     // }
//!     let mut p = PatternBuilder::new("SSSP");
//!     let dist = p.vertex_property("dist", f64::INFINITY);
//!     let weight = p.edge_property::<f64>("weight");
//!     let mut b = ActionBuilder::new("relax", GeneratorIr::OutEdges);
//!     let d_t = b.read_vertex(dist.id(), Place::GenTrg);
//!     let d_v = b.read_vertex(dist.id(), Place::Input);
//!     let w_e = b.read_edge(weight.id());
//!     b.cond(&[d_t, d_v, w_e], move |e| e.f64(d_t) > e.f64(d_v) + e.f64(w_e))
//!         .assign(dist.id(), Place::GenTrg, &[d_v, w_e], move |e, _| {
//!             Val::F(e.f64(d_v) + e.f64(w_e))
//!         });
//!     let relax = p.action(b.build().unwrap());
//!     p.bind(weight, &weights);
//!
//!     let sssp = p.install(ctx, &graph, EngineConfig::default()).unwrap();
//!     let dist_map = sssp.map(dist);
//!     if ctx.rank() == graph.owner(0) {
//!         dist_map.set(ctx.rank(), 0, 0.0);
//!     }
//!     ctx.barrier();
//!     let seeds: Vec<_> = (graph.owner(0) == ctx.rank()).then_some(0).into_iter().collect();
//!     fixed_point(ctx, &sssp.engine, relax, &seeds);
//!     if ctx.rank() == 0 {
//!         assert_eq!(dist_map.snapshot(), vec![0.0, 1.0, 2.0]);
//!     }
//! });
//! ```

use std::any::Any;
use std::marker::PhantomData;

use dgp_am::{AmCtx, Machine, MachineConfig};
use dgp_graph::properties::{AtomicValue, AtomicVertexMap, EdgeMap, LockedVertexMap};
use dgp_graph::{DistGraph, Distribution, EdgeList, VertexId};

use crate::builder::BuiltAction;
use crate::engine::{ActionId, EngineConfig, JitFallback, PatternEngine, ValCodec};
use crate::ir::MapId;
use crate::verify::{verify_pattern, Report};

/// Creates (or clones) one property's machine-shared map and registers it
/// with the engine; the boxed map is what [`Pattern::map`] hands back.
type MakeMap = Box<dyn FnOnce(&AmCtx, &PatternEngine) -> Box<dyn Any + Send> + Send>;

struct PropSpec {
    name: String,
    make: MakeMap,
    /// An edge property nothing is bound to yet: `make` is a uniform
    /// `T::default()` stand-in, which [`PatternBuilder::install`] refuses
    /// and only [`PatternBuilder::jit_report`] runs.
    unbound: bool,
}

/// A declared property of map type `M`: the [`MapId`] actions name it by
/// ([`Prop::id`]), and the key that returns the installed `M`
/// ([`Pattern::map`]) with its type checked at compile time.
pub struct Prop<M> {
    id: MapId,
    map: PhantomData<fn() -> M>,
}

impl<M> Clone for Prop<M> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<M> Copy for Prop<M> {}

impl<M> Prop<M> {
    /// The id the property's map registers under — what
    /// [`crate::builder::ActionBuilder`] reads and modifications take.
    pub fn id(self) -> MapId {
        self.id
    }
}

/// Declares a pattern: property maps plus actions, in grammar order.
pub struct PatternBuilder {
    name: String,
    props: Vec<PropSpec>,
    actions: Vec<BuiltAction>,
}

impl PatternBuilder {
    /// Start a pattern named `name`.
    pub fn new(name: impl Into<String>) -> PatternBuilder {
        PatternBuilder {
            name: name.into(),
            props: Vec::new(),
            actions: Vec::new(),
        }
    }

    fn declare<M>(&mut self, name: impl Into<String>, make: MakeMap, unbound: bool) -> Prop<M> {
        self.props.push(PropSpec {
            name: name.into(),
            make,
            unbound,
        });
        Prop {
            id: (self.props.len() - 1) as MapId,
            map: PhantomData,
        }
    }

    /// `vertex-property<T> name;` — an atomic vertex map initialized to
    /// `init` on every vertex.
    pub fn vertex_property<T>(
        &mut self,
        name: impl Into<String>,
        init: T,
    ) -> Prop<AtomicVertexMap<T>>
    where
        T: ValCodec + AtomicValue,
    {
        let make: MakeMap = Box::new(move |ctx, engine| {
            let map = ctx.share(|| AtomicVertexMap::new(engine.graph().distribution(), init));
            engine.register_vertex_map(&map);
            Box::new(map)
        });
        self.declare(name, make, false)
    }

    /// `vertex-property<set<Vertex>> name;` — a set-valued vertex map
    /// (usable as a `pmap-set` generator and with `insert` modifications).
    pub fn vertex_set(&mut self, name: impl Into<String>) -> Prop<LockedVertexMap<Vec<VertexId>>> {
        let make: MakeMap = Box::new(move |ctx, engine| {
            let map: LockedVertexMap<Vec<VertexId>> =
                ctx.share(|| LockedVertexMap::new(engine.graph().distribution(), Vec::new()));
            engine.register_set_map(&map);
            Box::new(map)
        });
        self.declare(name, make, false)
    }

    /// `edge-property<T> name;` — the declaration carries the name and the
    /// type only; the values are the caller's [`EdgeMap`], attached with
    /// [`bind`](Self::bind) before [`install`](Self::install).
    pub fn edge_property<T>(&mut self, name: impl Into<String>) -> Prop<EdgeMap<T>>
    where
        T: ValCodec + Default + Clone + Send + Sync + 'static,
    {
        let make: MakeMap = Box::new(move |ctx, engine| {
            let map = ctx.share(|| EdgeMap::uniform(engine.graph(), T::default()));
            engine.register_edge_map(&map);
            Box::new(map)
        });
        self.declare(name, make, true)
    }

    /// Attach the caller's edge map to a declared edge property. Every
    /// rank binds (a clone of) the same map.
    pub fn bind<T>(&mut self, prop: Prop<EdgeMap<T>>, map: &EdgeMap<T>) -> &mut Self
    where
        T: ValCodec + Clone + Send + Sync + 'static,
    {
        let map = map.clone();
        let spec = &mut self.props[prop.id as usize];
        spec.unbound = false;
        spec.make = Box::new(move |_, engine| {
            engine.register_edge_map(&map);
            Box::new(map)
        });
        self
    }

    /// Add an action (its name comes from the [`BuiltAction`]'s IR).
    /// Returns the id it will have on the installed engine.
    pub fn action(&mut self, built: BuiltAction) -> ActionId {
        self.actions.push(built);
        (self.actions.len() - 1) as ActionId
    }

    /// The pattern's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The declared actions, in [`ActionId`] order.
    pub fn actions(&self) -> &[BuiltAction] {
        &self.actions
    }

    /// Run the full static verifier over the declaration: per-action
    /// analyses (L001/D002/R003/T004/S005/P006) plus the cross-action
    /// write-race check, deduplicated and sorted errors-first. Needs no
    /// machine.
    pub fn verify(&self) -> Report {
        let irs: Vec<_> = self.actions.iter().map(|a| &a.ir).collect();
        verify_pattern(&irs)
    }

    /// Collectively install: create the shared maps, register everything
    /// with a fresh engine in declaration order, compile every action.
    pub fn install(
        self,
        ctx: &AmCtx,
        graph: &DistGraph,
        cfg: EngineConfig,
    ) -> Result<Pattern, String> {
        let mut names: Vec<&str> = self.props.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        if let Some(dup) = names.windows(2).find(|w| w[0] == w[1]) {
            return Err(format!(
                "pattern {:?}: duplicate property {:?}",
                self.name, dup[0]
            ));
        }
        if let Some(spec) = self.props.iter().find(|s| s.unbound) {
            return Err(format!(
                "pattern {:?}: nothing is bound to edge property {:?}",
                self.name, spec.name
            ));
        }
        let engine = PatternEngine::new(ctx, graph.clone(), cfg);
        let maps = self
            .props
            .into_iter()
            .map(|spec| (spec.make)(ctx, &engine))
            .collect();
        for built in self.actions {
            engine.add_action(built)?;
        }
        Ok(Pattern { engine, maps })
    }

    /// What the engine's JIT gate decides for each declared action, in
    /// [`actions`](Self::actions) order: `None` when the action runs as
    /// compiled closures, otherwise the recorded [`JitFallback`]. The
    /// answer is read off a real installation — one rank, a two-vertex
    /// bidirectional graph, unbound edge properties filled with default
    /// values — so it cannot drift from what `add_action` does.
    pub fn jit_report(self, cfg: EngineConfig) -> Result<Vec<Option<JitFallback>>, String> {
        self.probe(cfg, |engine, a| engine.compile_fallback(a))
    }

    /// How many hops of each declared action the installed engine filters
    /// through its dominance cache ([`PatternEngine::combinable_hops`];
    /// INTERNALS §14.5), read off the same throwaway installation as
    /// [`jit_report`](Self::jit_report) — so the engine-wide "every writer
    /// is a `Min`" rule is applied across the whole declaration.
    pub fn combine_report(self, cfg: EngineConfig) -> Result<Vec<usize>, String> {
        self.probe(cfg, |engine, a| engine.combinable_hops(a))
    }

    /// Install on a throwaway one-rank machine and ask `query` about each
    /// declared action.
    fn probe<R: Send>(
        mut self,
        cfg: EngineConfig,
        query: impl Fn(&PatternEngine, ActionId) -> R + Send + Sync,
    ) -> Result<Vec<R>, String> {
        for spec in &mut self.props {
            spec.unbound = false;
        }
        let graph = DistGraph::build(
            &EdgeList::from_weighted(2, &[(0, 1, 1.0)]),
            Distribution::block(2, 1),
            true,
        );
        let actions = self.actions.len() as ActionId;
        let decl = parking_lot::Mutex::new(Some(self));
        Machine::run(MachineConfig::new(1), move |ctx| {
            let decl = decl.lock().take().expect("one rank installs once");
            let pattern = decl.install(ctx, &graph, cfg)?;
            Ok((0..actions).map(|a| query(&pattern.engine, a)).collect())
        })
        .pop()
        .expect("one rank, one result")
    }
}

/// An installed pattern: the engine, plus the maps its properties made.
pub struct Pattern {
    /// The engine everything was registered with.
    pub engine: PatternEngine,
    /// Indexed by [`MapId`].
    maps: Vec<Box<dyn Any + Send>>,
}

impl Pattern {
    /// The map a declared property installed as.
    #[track_caller]
    pub fn map<M: Clone + 'static>(&self, prop: Prop<M>) -> M {
        self.maps
            .get(prop.id as usize)
            .and_then(|m| m.downcast_ref::<M>())
            .expect("property handle belongs to the pattern that was installed")
            .clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ActionBuilder;
    use crate::engine::{Exec, Val};
    use crate::ir::{GeneratorIr, Place};
    use crate::strategies::once;

    fn tiny() -> (EdgeList, DistGraph) {
        let el = EdgeList::from_weighted(4, &[(0, 1, 1.0), (1, 2, 2.0), (2, 3, 3.0)]);
        let graph = DistGraph::build(&el, Distribution::block(4, 2), false);
        (el, graph)
    }

    /// `deg[v] += 1` per positive-weight out-edge, over four kinds of
    /// property.
    fn counting() -> (
        PatternBuilder,
        Prop<AtomicVertexMap<u64>>,
        Prop<EdgeMap<f64>>,
        ActionId,
    ) {
        let mut p = PatternBuilder::new("T");
        p.vertex_property("flag", false);
        let deg = p.vertex_property("deg", 0u64);
        p.vertex_set("marks");
        let w = p.edge_property::<f64>("w");
        let mut b = ActionBuilder::new("count", GeneratorIr::OutEdges);
        let d_v = b.read_vertex(deg.id(), Place::Input);
        let w_e = b.read_edge(w.id());
        b.cond(&[d_v, w_e], move |e| e.f64(w_e) > 0.0).assign(
            deg.id(),
            Place::Input,
            &[],
            move |_, old| Val::U(old.as_u64() + 1),
        );
        let count = p.action(b.build().unwrap());
        (p, deg, w, count)
    }

    #[test]
    fn installs_and_returns_typed_maps() {
        let (el, graph) = tiny();
        let weights = EdgeMap::from_weights(&graph, &el);
        Machine::run(MachineConfig::new(2), move |ctx| {
            let (mut p, deg, w, count) = counting();
            p.bind(w, &weights);
            let pat = p.install(ctx, &graph, EngineConfig::default()).unwrap();
            let deg_map = pat.map(deg);
            assert_eq!(pat.map(w).get_out(0, 0), 1.0);
            let locals: Vec<_> = graph.distribution().owned(ctx.rank()).collect();
            once(ctx, &pat.engine, count, &locals);
            if ctx.rank() == 0 {
                assert_eq!(deg_map.snapshot(), vec![1, 1, 1, 0]);
            }
            ctx.barrier();
        });
    }

    #[test]
    fn unbound_edge_property_refuses_to_install() {
        let (_, graph) = tiny();
        Machine::run(MachineConfig::new(1), move |ctx| {
            let (p, ..) = counting();
            let err = match p.install(ctx, &graph, EngineConfig::default()) {
                Err(e) => e,
                Ok(_) => panic!("unbound edge property accepted"),
            };
            assert!(err.contains("nothing is bound"), "{err}");
        });
    }

    #[test]
    fn duplicate_names_rejected() {
        let (_, graph) = tiny();
        Machine::run(MachineConfig::new(1), move |ctx| {
            let mut p = PatternBuilder::new("T");
            p.vertex_property("x", 0u64);
            p.vertex_property("x", 1u64);
            let err = match p.install(ctx, &graph, EngineConfig::default()) {
                Err(e) => e,
                Ok(_) => panic!("duplicate property accepted"),
            };
            assert!(err.contains("duplicate property"), "{err}");
        });
    }

    #[test]
    fn jit_report_is_the_installed_engines_answer() {
        let (p, ..) = counting();
        assert_eq!(p.verify().error_count(), 0);
        assert_eq!(p.jit_report(EngineConfig::default()), Ok(vec![None]));
        let reference = EngineConfig {
            exec: Exec::Reference,
            ..EngineConfig::default()
        };
        let (p, ..) = counting();
        assert_eq!(
            p.jit_report(reference),
            Ok(vec![Some(JitFallback::Reference)])
        );
    }
}
