//! Property-based validation: on arbitrary graphs, the distributed
//! pattern algorithms agree with sequential oracles, under arbitrary
//! machine shapes.

use proptest::prelude::*;

use dgp::prelude::*;
use dgp_algorithms::seq;

/// An arbitrary weighted digraph: up to `max_n` vertices, arbitrary edges
/// with positive weights.
fn arb_weighted_graph(max_n: u64) -> impl Strategy<Value = EdgeList> {
    (2..=max_n).prop_flat_map(move |n| {
        proptest::collection::vec((0..n, 0..n, 1u32..100), 0..(4 * n as usize)).prop_map(
            move |triples| {
                let t: Vec<(u64, u64, f64)> = triples
                    .into_iter()
                    .map(|(u, v, w)| (u, v, w as f64 / 8.0))
                    .collect();
                EdgeList::from_weighted(n, &t)
            },
        )
    })
}

fn arb_undirected_graph(max_n: u64) -> impl Strategy<Value = EdgeList> {
    (2..=max_n).prop_flat_map(move |n| {
        proptest::collection::vec((0..n, 0..n), 0..(3 * n as usize)).prop_map(move |pairs| {
            let mut el = EdgeList::from_pairs(n, &pairs);
            el.symmetrize();
            el
        })
    })
}

fn dists_match(got: &[f64], want: &[f64]) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(a, b)| (a - b).abs() < 1e-9 || (a.is_infinite() && b.is_infinite()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// SSSP fixed point == Dijkstra, for any graph, sources, rank counts.
    #[test]
    fn sssp_fixed_point_is_dijkstra(
        el in arb_weighted_graph(40),
        source_pick in 0u64..40,
        ranks in 1usize..5,
    ) {
        let source = source_pick % el.num_vertices();
        let want = seq::dijkstra(&el, source);
        let got = Run::new(ranks).sssp(&el, source, SsspStrategy::FixedPoint).unwrap().result;
        prop_assert!(dists_match(&got, &want), "got {got:?} want {want:?}");
    }

    /// Δ-stepping == Dijkstra for any Δ.
    #[test]
    fn delta_stepping_is_dijkstra(
        el in arb_weighted_graph(30),
        source_pick in 0u64..30,
        delta in prop::sample::select(vec![0.25f64, 1.0, 5.0, 100.0]),
        asynchronous in any::<bool>(),
    ) {
        let source = source_pick % el.num_vertices();
        let want = seq::dijkstra(&el, source);
        let strategy = if asynchronous {
            SsspStrategy::DeltaAsync(delta)
        } else {
            SsspStrategy::Delta(delta)
        };
        let got = Run::new(3).sssp(&el, source, strategy).unwrap().result;
        prop_assert!(dists_match(&got, &want), "Δ={delta}: got {got:?} want {want:?}");
    }

    /// Parallel-search CC == union-find partition with canonical labels.
    #[test]
    fn cc_is_union_find(
        el in arb_undirected_graph(40),
        ranks in 1usize..5,
    ) {
        let want = seq::cc_labels(&el);
        let got = Run::new(ranks).cc(&el).unwrap().result;
        prop_assert_eq!(got, want);
    }

    /// BFS pattern == sequential BFS levels.
    #[test]
    fn bfs_is_reference(
        el in arb_weighted_graph(40),
        source_pick in 0u64..40,
        ranks in 1usize..4,
    ) {
        let source = source_pick % el.num_vertices();
        let want = dgp_graph::analysis::bfs_levels(&el, source);
        let got = Run::new(ranks).bfs(&el, source).unwrap().result;
        prop_assert_eq!(got, want);
    }

    /// PageRank pattern == sequential PageRank (same dangling scheme).
    #[test]
    fn pagerank_is_reference(
        el in arb_weighted_graph(25),
        iters in 1usize..8,
    ) {
        let want = seq::pagerank(&el, 0.85, iters);
        let got = Run::new(2).pagerank(&el, 0.85, iters).unwrap().result;
        prop_assert!(
            got.iter().zip(&want).all(|(a, b)| (a - b).abs() < 1e-6),
            "got {got:?} want {want:?}"
        );
    }
}
