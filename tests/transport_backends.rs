//! Across backends, one family at a time: each test is a slice of the
//! conformance matrix's transport cells (`common::sweep`). The answer is
//! the same whichever transport carries the messages (in-process
//! channels, shared-memory rings, or TCP over loopback): bit for bit for
//! SSSP and CC, 1e-9 for PageRank. Only the wire backends send frames.

mod common;

use common::{machine, row, sweep, Delivery, ENGINES};
use dgp::prelude::*;

/// The row `name` over every backend, three ranks each.
fn across_backends(name: &str) {
    let deliveries = [
        TransportKind::Inproc,
        TransportKind::Shm(ShmConfig::default()),
        TransportKind::Tcp(TcpConfig::default()),
    ]
    .map(|kind| Delivery::new(format!("{kind:?}"), machine(3, kind)));
    sweep([row(name)], &deliveries, &ENGINES[..1]);
}

#[test]
fn sssp_bit_identical_across_backends() {
    across_backends("sssp/delta");
}

#[test]
fn cc_bit_identical_across_backends() {
    across_backends("cc");
}

#[test]
fn pagerank_matches_across_backends() {
    across_backends("pagerank");
}
