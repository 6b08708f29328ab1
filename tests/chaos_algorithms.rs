//! Chaos, one family at a time: each test is a slice of the conformance
//! matrix's chaos cells (`common::sweep`) on its own rank count. Under
//! every chaos seed the row's answer checks its oracle and agrees with
//! its fault-free inproc answer (bit for bit for SSSP and CC, 1e-9 for
//! PageRank), and the statistics show faults injected and drops
//! retransmitted: a chaos test that injects nothing proves nothing.

mod common;

use common::{chaos_seeds, machine, row, sweep, Delivery, ENGINES};
use dgp::prelude::*;

/// The row `name` on `ranks` ranks under each chaos seed, at `engines`.
fn masked(name: &str, ranks: usize, engines: &[(Exec, PlanMode)]) {
    let deliveries: Vec<_> = chaos_seeds()
        .map(|seed| {
            let m = machine(ranks, TransportKind::Inproc).faults(FaultPlan::chaos(seed));
            Delivery::new(format!("chaos {seed:#x} on {ranks} ranks"), m)
        })
        .collect();
    sweep([row(name)], &deliveries, engines);
}

#[test]
fn sssp_bit_identical_under_chaos() {
    masked("sssp/delta", 3, &ENGINES[..1]);
}

#[test]
fn sssp_fixed_point_bit_identical_under_chaos() {
    masked("sssp/fixed-point", 4, &ENGINES[..1]);
}

#[test]
fn cc_bit_identical_under_chaos() {
    masked("cc", 4, &ENGINES[..1]);
}

#[test]
fn pagerank_matches_fault_free_under_chaos() {
    masked("pagerank", 3, &ENGINES[..1]);
}

#[test]
fn cc_bit_identical_under_chaos_on_three_ranks() {
    masked("cc", 3, &ENGINES[..1]);
}

/// A dominated relax is never counted sent, so the ledgers balance while
/// faults reorder everything: compiled cells drop relaxes (`sweep`
/// asserts it) and agree bit for bit with the reference cells beside them.
#[test]
fn sssp_dominance_cache_is_exact_under_chaos() {
    masked("sssp/delta", 3, &[ENGINES[0], ENGINES[2]]);
}
