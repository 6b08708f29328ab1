//! Quickstart: the paper's §II-A program, end to end.
//!
//! ```text
//! using pattern SSSP;
//! for (v in V) dist[v] = ∞;
//! dist[s] = 0;
//! fixed_point(relax, {s});       // …or delta(relax, {s}, dist, Δ)
//! ```
//!
//! Run with: `cargo run --release --example quickstart`

use dgp::prelude::*;

fn main() {
    // A small weighted digraph (the classic diamond plus a tail).
    //
    //      1 --2.0--> 2
    //     /            \
    //   1.0            1.0
    //   /                \
    //  0 -----4.0-------> 3 --0.5--> 4
    let el = EdgeList::from_weighted(
        5,
        &[
            (0, 1, 1.0),
            (1, 2, 2.0),
            (0, 3, 4.0),
            (2, 3, 1.0),
            (3, 4, 0.5),
        ],
    );

    println!(
        "graph: {} vertices, {} edges",
        el.num_vertices(),
        el.num_edges()
    );

    // The same relax pattern, three different strategies (the point of the
    // paper: the declarative part is reused; the imperative schedule is
    // swapped freely).
    for (name, strategy) in [
        ("fixed_point", SsspStrategy::FixedPoint),
        ("delta (Δ=1)", SsspStrategy::Delta(1.0)),
        ("delta async (Δ=1)", SsspStrategy::DeltaAsync(1.0)),
    ] {
        let dist = Run::new(2)
            .sssp(&el, 0, strategy)
            .expect("sssp runs")
            .result;
        println!("{name:>18}: dist = {dist:?}");
        assert_eq!(dist, vec![0.0, 1.0, 3.0, 4.0, 4.5]);
    }

    // Connected components of an undirected view of two separate cliques.
    let mut cc_el = generators::disjoint_cliques(2, 4);
    cc_el.push(1, 2); // already same component; labels unchanged
    let labels = Run::new(2).cc(&cc_el).expect("cc runs").result;
    println!("{:>18}: comp = {labels:?}", "cc");
    assert_eq!(labels, vec![0, 0, 0, 0, 4, 4, 4, 4]);

    // BFS levels from vertex 0.
    let levels = Run::new(2).bfs(&el, 0).expect("bfs runs").result;
    println!("{:>18}: lvl  = {levels:?}", "bfs");
    assert_eq!(levels, vec![0, 1, 2, 1, 2]);

    // The runtime profiles every epoch (wall time + counter deltas) even
    // without turning span tracing on — here Δ-stepping's bucket-by-bucket
    // schedule shows up as one epoch per drain round.
    // Besides the result, a `Run` returns the machine's statistics and
    // profiles (or the failure, as a value), and is where a non-default
    // machine, engine configuration or simulator plan goes.
    let out = Run::new(2)
        .sssp(&el, 0, SsspStrategy::Delta(1.0))
        .expect("a healthy machine runs to completion");
    assert_eq!(out.result, vec![0.0, 1.0, 3.0, 4.0, 4.5]);
    println!("\nper-epoch profile of the Δ=1 run:");
    println!(
        "{:>6}  {:>10}  {:>9}  {:>10}",
        "epoch", "time", "messages", "envelopes"
    );
    for p in &out.profiles {
        println!(
            "{:>6}  {:>10.1?}  {:>9}  {:>10}",
            p.epoch, p.duration, p.delta.messages_sent, p.delta.envelopes_sent
        );
    }

    println!("\nall strategies agree; see examples/pattern_analysis.rs for the plans they share");
}
