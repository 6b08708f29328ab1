//! Differential testing: random monotone relax-style actions, generated
//! from a tiny spec, are executed (a) by a direct sequential fixed-point
//! evaluator derived from the same spec and (b) by the full distributed
//! engine under every configuration — all answers must agree exactly.
//!
//! Monotonicity (guarded-min over a non-negative increment) makes the
//! fixed point order-independent, so chaotic distributed execution is
//! comparable against the sequential loop.

use proptest::prelude::*;

use dgp_am::{Machine, MachineConfig};
use dgp_core::builder::{ActionBuilder, BuiltAction};
use dgp_core::engine::{EngineConfig, PatternEngine, SyncMode, Val};
use dgp_core::ir::{GeneratorIr, Place};
use dgp_core::plan::PlanMode;
use dgp_core::strategies::fixed_point;
use dgp_graph::properties::AtomicVertexMap;
use dgp_graph::{DistGraph, Distribution, EdgeList};

/// A monotone relax action: over the chosen generator, lower the label of
/// the generated endpoint to `label[v] + addend` when that improves it.
#[derive(Debug, Clone, Copy)]
struct Spec {
    gen: SpecGen,
    addend: u64,
}

#[derive(Debug, Clone, Copy)]
enum SpecGen {
    OutEdges,
    Adj,
    InEdges,
}

impl Spec {
    fn build(&self, label: u32) -> BuiltAction {
        let (gen_ir, target) = match self.gen {
            SpecGen::OutEdges => (GeneratorIr::OutEdges, Place::GenTrg),
            SpecGen::InEdges => (GeneratorIr::InEdges, Place::GenSrc),
            SpecGen::Adj => (GeneratorIr::Adj, Place::GenVertex),
        };
        let addend = self.addend;
        let mut b = ActionBuilder::new("spec_relax", gen_ir);
        let l_t = b.read_vertex(label, target.clone());
        let l_v = b.read_vertex(label, Place::Input);
        b.cond(&[l_t, l_v], move |e| {
            e.u64(l_v) != u64::MAX && e.u64(l_t) > e.u64(l_v).saturating_add(addend)
        })
        .assign(label, target, &[l_v], move |e, _| {
            Val::U(e.u64(l_v) + addend)
        });
        b.build().expect("spec actions are valid")
    }

    /// Direct sequential fixed point over the edge list.
    fn sequential(&self, el: &EdgeList, source: u64) -> Vec<u64> {
        let n = el.num_vertices() as usize;
        let mut label = vec![u64::MAX; n];
        label[source as usize] = 0;
        loop {
            let mut changed = false;
            for &(u, v) in &el.edges {
                // The generator decides which endpoint relaxes which.
                let (from, to) = match self.gen {
                    SpecGen::OutEdges | SpecGen::Adj => (u as usize, v as usize),
                    SpecGen::InEdges => {
                        // in_edges at v generates (u, v); input vertex is v,
                        // target is src(e) = u: v relaxes u.
                        (v as usize, u as usize)
                    }
                };
                if label[from] != u64::MAX {
                    let cand = label[from] + self.addend;
                    if label[to] > cand {
                        label[to] = cand;
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        label
    }
}

fn run_engine(spec: Spec, el: &EdgeList, source: u64, ranks: usize, cfg: EngineConfig) -> Vec<u64> {
    let needs_bidir = matches!(spec.gen, SpecGen::InEdges);
    let graph = DistGraph::build(
        el,
        Distribution::cyclic(el.num_vertices(), ranks),
        needs_bidir,
    );
    let mut out = Machine::run(MachineConfig::new(ranks), move |ctx| {
        let label = ctx.share(|| AtomicVertexMap::new(graph.distribution(), u64::MAX));
        let engine = PatternEngine::new(ctx, graph.clone(), cfg);
        let label_id = engine.register_vertex_map(&label);
        let action = engine.add_action(spec.build(label_id)).unwrap();
        let rank = ctx.rank();
        if graph.owner(source) == rank {
            label.set(rank, source, 0);
        }
        ctx.barrier();
        let seeds: Vec<_> = (graph.owner(source) == rank)
            .then_some(source)
            .into_iter()
            .collect();
        fixed_point(ctx, &engine, action, &seeds);
        (ctx.rank() == 0).then(|| label.snapshot())
    });
    out[0].take().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Distributed == sequential for every engine configuration.
    #[test]
    fn engine_matches_sequential_fixed_point(
        n in 2u64..40,
        edges in proptest::collection::vec((0u64..40, 0u64..40), 1..120),
        source_pick in 0u64..40,
        addend in 0u64..5,
        gen_pick in 0usize..3,
        ranks in 1usize..4,
    ) {
        let pairs: Vec<_> = edges.into_iter().map(|(u, v)| (u % n, v % n)).collect();
        let el = EdgeList::from_pairs(n, &pairs);
        let source = source_pick % n;
        let spec = Spec {
            gen: [SpecGen::OutEdges, SpecGen::Adj, SpecGen::InEdges][gen_pick],
            addend,
        };
        let want = spec.sequential(&el, source);

        for cfg in [
            EngineConfig::default(),
            EngineConfig { sync: SyncMode::LockMap, ..Default::default() },
            EngineConfig { plan_mode: PlanMode::Faithful, ..Default::default() },
            EngineConfig { self_send: false, ..Default::default() },
        ] {
            let got = run_engine(spec, &el, source, ranks, cfg);
            prop_assert_eq!(
                &got, &want,
                "spec {:?} ranks {} cfg {:?}", spec, ranks, cfg
            );
        }
    }
}
