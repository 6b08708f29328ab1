//! End-to-end chaos property tests: the distributed graph algorithms must
//! produce results **bit-identical** to their fault-free runs when the
//! transport drops, duplicates, delays, and reorders envelopes under any
//! fixed seed — and the machine statistics must show the faults actually
//! fired (a chaos test that injects nothing proves nothing).

use dgp::prelude::*;
use dgp_algorithms::seq;

/// The three baked-in seeds, plus one from `DGP_CHAOS_SEED` when set
/// (the CI chaos matrix uses it to widen coverage per leg).
fn seeds() -> Vec<u64> {
    let mut s = vec![0xC0FFEE, 42, 7];
    if let Ok(v) = std::env::var("DGP_CHAOS_SEED") {
        if let Ok(extra) = v.parse::<u64>() {
            s.push(extra);
        }
    }
    s
}

fn chaos_cfg(ranks: usize, seed: u64) -> MachineConfig {
    // A modest coalescing capacity makes many envelopes (more fault
    // opportunities) without making the test slow.
    MachineConfig::new(ranks)
        .coalescing(8)
        .faults(FaultPlan::chaos(seed))
}

#[test]
fn sssp_bit_identical_under_chaos() {
    let mut el = generators::erdos_renyi(150, 900, 8);
    el.randomize_weights(0.5, 3.0, 9);
    let clean = run_sssp(&el, 3, 0, SsspStrategy::Delta(1.0));
    let expect = seq::dijkstra(&el, 0);
    // Sanity: the fault-free run is itself correct.
    for (i, (x, y)) in clean.iter().zip(&expect).enumerate() {
        let ok = (x - y).abs() < 1e-9 || (x.is_infinite() && y.is_infinite());
        assert!(ok, "vertex {i}: {x} vs {y}");
    }
    for seed in seeds() {
        let Outcome {
            result: got, stats, ..
        } = Run::on(chaos_cfg(3, seed))
            .sssp(&el, 0, SsspStrategy::Delta(1.0))
            .expect("chaos is masked");
        // Bit-identical, not approximately equal: the reliability layer
        // must make the faulted run indistinguishable from the clean one.
        assert_eq!(
            got.iter().map(|d| d.to_bits()).collect::<Vec<_>>(),
            clean.iter().map(|d| d.to_bits()).collect::<Vec<_>>(),
            "seed {seed}"
        );
        assert!(stats.faults_injected() > 0, "seed {seed}: nothing injected");
        assert!(stats.retransmits > 0, "seed {seed}: drops never recovered");
    }
}

#[test]
fn sssp_fixed_point_bit_identical_under_chaos() {
    let mut el = generators::rmat(7, 8, generators::RmatParams::GRAPH500, 21);
    el.randomize_weights(0.5, 3.0, 4);
    let clean = run_sssp(&el, 4, 0, SsspStrategy::FixedPoint);
    for seed in seeds() {
        let Outcome {
            result: got, stats, ..
        } = Run::on(chaos_cfg(4, seed))
            .sssp(&el, 0, SsspStrategy::FixedPoint)
            .expect("chaos is masked");
        assert_eq!(
            got.iter().map(|d| d.to_bits()).collect::<Vec<_>>(),
            clean.iter().map(|d| d.to_bits()).collect::<Vec<_>>(),
            "seed {seed}"
        );
        assert!(stats.faults_injected() > 0, "seed {seed}");
    }
}

#[test]
fn cc_bit_identical_under_chaos() {
    let el = generators::component_blobs(5, 40, 2, 17);
    let clean = run_cc(&el, 4);
    assert_eq!(clean, seq::cc_labels(&el), "fault-free sanity");
    for seed in seeds() {
        let Outcome {
            result: got, stats, ..
        } = Run::on(chaos_cfg(4, seed))
            .cc(&el)
            .expect("chaos is masked");
        assert_eq!(got, clean, "seed {seed}");
        assert!(stats.faults_injected() > 0, "seed {seed}");
        assert!(stats.retransmits > 0, "seed {seed}");
    }
}

#[test]
fn pagerank_matches_fault_free_under_chaos() {
    let el = generators::rmat(6, 6, generators::RmatParams::GRAPH500, 31);
    let clean = run_pagerank(&el, 3, 0.85, 15);
    for seed in seeds() {
        let got = Run::on(chaos_cfg(3, seed))
            .pagerank(&el, 0.85, 15)
            .expect("chaos is masked")
            .result;
        // PageRank sums contributions in arrival order, and float addition
        // is not associative — arrival order is scheduling-dependent even
        // on the perfect transport, so bit-identity is not the contract
        // here (it is for SSSP/CC, whose `min` combiner is
        // order-independent). The faulted run must stay within the same
        // tight envelope as any two fault-free runs.
        for (i, (x, y)) in got.iter().zip(&clean).enumerate() {
            assert!((x - y).abs() < 1e-9, "seed {seed} vertex {i}: {x} vs {y}");
        }
    }
}

#[test]
fn chaos_under_wave_termination_mode() {
    let el = generators::component_blobs(4, 30, 2, 23);
    let clean = run_cc(&el, 3);
    for seed in seeds() {
        let cfg = chaos_cfg(3, seed).termination(TerminationMode::FourCounterWave);
        let Outcome {
            result: got, stats, ..
        } = Run::on(cfg).cc(&el).expect("chaos is masked");
        assert_eq!(got, clean, "seed {seed}");
        assert!(stats.faults_injected() > 0, "seed {seed}");
    }
}
