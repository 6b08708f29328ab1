//! Distributed BFS as a pattern (extension algorithm).

use dgp_am::AmCtx;
use dgp_core::engine::{ActionId, EngineConfig, PatternEngine};
use dgp_core::pattern::{PatternBuilder, Prop};
use dgp_core::strategies::fixed_point;
use dgp_graph::properties::AtomicVertexMap;
use dgp_graph::{DistGraph, VertexId};

use crate::patterns;
use crate::util::owned_seeds;

/// An installed BFS pattern.
pub struct Bfs {
    /// The engine the pattern is registered with.
    pub engine: PatternEngine,
    /// BFS level per vertex (`u64::MAX` = unreached).
    pub level: AtomicVertexMap<u64>,
    expand: ActionId,
}

/// The declaration plus the handles [`Bfs::install`] reads it back by.
struct Decl {
    pattern: PatternBuilder,
    level: Prop<AtomicVertexMap<u64>>,
    expand: ActionId,
}

fn declare() -> Decl {
    let mut p = PatternBuilder::new("bfs");
    let level = p.vertex_property("level", u64::MAX);
    let expand = p.action(patterns::bfs_expand(level.id()));
    Decl {
        pattern: p,
        level,
        expand,
    }
}

/// `pattern BFS { level; bfs_expand }`.
pub fn pattern() -> PatternBuilder {
    declare().pattern
}

impl Bfs {
    /// Collectively install BFS on a fresh engine.
    pub fn install(ctx: &AmCtx, graph: &DistGraph, cfg: EngineConfig) -> Bfs {
        let d = declare();
        let installed = d
            .pattern
            .install(ctx, graph, cfg)
            .expect("bfs pattern installs");
        Bfs {
            level: installed.map(d.level),
            engine: installed.engine,
            expand: d.expand,
        }
    }

    /// Run from `source` (label-correcting fixed point; levels converge to
    /// BFS distances because all edges weigh 1). Collective.
    pub fn run(&self, ctx: &AmCtx, source: VertexId) {
        let rank = ctx.rank();
        self.level.fill_local(rank, u64::MAX);
        if self.engine.graph().owner(source) == rank {
            self.level.set(rank, source, 0);
        }
        let seeds = owned_seeds(ctx, self.engine.graph(), &[source]);
        fixed_point(ctx, &self.engine, self.expand, &seeds);
    }
}

/// Convenience: install + run (inside a machine).
pub fn bfs(ctx: &AmCtx, graph: &DistGraph, source: VertexId) -> AtomicVertexMap<u64> {
    let b = Bfs::install(ctx, graph, EngineConfig::default());
    b.run(ctx, source);
    b.level
}
