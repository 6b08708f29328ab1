//! The conformance matrix: every row of the registry's family table
//! ([`FAMILIES`]) × executor × plan mode × delivery, on three ranks. Every
//! cell checks the row's sequential oracle or validator, and agrees with
//! the row's inproc `Compiled`/`Optimized` cell as the row's
//! [`Compare`](dgp_algorithms::registry::Compare) says: bit for bit for
//! the schedule-independent fixed points (round counts included), within
//! 1e-9 for the sums whose order follows the schedule. Nothing here names
//! a family, so a new row of the table is a new line of every cell below.
//!
//! Deliveries, one test each: inproc; inproc with two threads per rank;
//! the chaos fault preset at three seeds (plus `DGP_CHAOS_SEED`); shm;
//! tcp; the simulator under two plans (plus one seeded by
//! `DGP_SIM_SEED`) and under chaos; tcp with every connection killed
//! after its 30th frame, at the default engine only.
//!
//! Inproc cells name their transport, since `MachineConfig::new` reads
//! `DGP_TRANSPORT`, and assert that no frame crossed a wire, so a cell
//! the environment re-points fails instead of testing the wrong thing.

mod common;

use common::{chaos_seeds, env_seed, run, sweep, timeline, Delivery, ENGINES};
use dgp::prelude::*;
use dgp_algorithms::registry::FAMILIES;
use dgp_am::SimPlan;

/// Three ranks on `transport`.
fn machine(transport: TransportKind) -> MachineConfig {
    common::machine(3, transport)
}

#[test]
fn inproc() {
    let d = Delivery::new("inproc", machine(TransportKind::Inproc));
    sweep(FAMILIES, &[d], &ENGINES);
}

#[test]
fn threads() {
    let m = machine(TransportKind::Inproc).threads_per_rank(2);
    sweep(
        FAMILIES,
        &[Delivery::new("2 threads per rank", m)],
        &ENGINES,
    );
}

#[test]
fn chaos() {
    let deliveries: Vec<_> = chaos_seeds()
        .map(|seed| {
            let m = machine(TransportKind::Inproc).faults(FaultPlan::chaos(seed));
            Delivery::new(format!("chaos {seed:#x}"), m)
        })
        .collect();
    sweep(FAMILIES, &deliveries, &ENGINES);
}

#[test]
fn shm() {
    let m = machine(TransportKind::Shm(ShmConfig::default()));
    sweep(FAMILIES, &[Delivery::new("shm", m)], &ENGINES);
}

#[test]
fn tcp() {
    let m = machine(TransportKind::Tcp(TcpConfig::default()));
    sweep(FAMILIES, &[Delivery::new("tcp", m)], &ENGINES);
}

/// Killed connections are masked: retransmits fired and writers
/// re-dialed. Default engine only: the kill harness's reconnect waits
/// dominate the cell's time, whatever the engine. Coalescing 2 kills
/// every connection many times per run: a kill that discards an ack the
/// run no longer waits for loses nothing, so a handful of kills can
/// all miss.
#[test]
fn tcp_kill() {
    let tcp = TcpConfig::default().kill_rx_every(30);
    let m = machine(TransportKind::Tcp(tcp)).coalescing(2);
    let d = Delivery::new("tcp, killed every 30 frames", m);
    let outs = sweep(FAMILIES, &[d], &ENGINES[..1]);
    for (row, out) in FAMILIES.iter().zip(&outs) {
        let s = &out.stats;
        assert!(s.retransmits > 0, "{}: the kill lost nothing", row.name);
        assert!(
            s.transport_reconnects > 0,
            "{}: nothing re-dialed",
            row.name
        );
    }
}

/// Two plans (jitter above latency; a per-message cost) plus one from
/// `DGP_SIM_SEED`, with each row's mid-run invariant installed by `Run`.
/// The first plan replays: the same plan gives the same timeline, the
/// second a different one.
#[test]
fn sim() {
    let plans = [
        SimPlan::new(1).latency(800).jitter(2_500),
        SimPlan::new(42).latency(300).per_msg(25),
    ]
    .into_iter()
    .chain(env_seed("DGP_SIM_SEED").map(|s| SimPlan::new(s).latency(600).jitter(3_000)));
    let deliveries: Vec<_> = plans
        .enumerate()
        .map(|(i, plan)| {
            Delivery::new(format!("sim plan {i}"), machine(TransportKind::Inproc)).sim(plan)
        })
        .collect();
    let outs = sweep(FAMILIES, &deliveries, &ENGINES);
    let per_row = deliveries.len() * ENGINES.len();
    for (row, outs) in FAMILIES.iter().zip(outs.chunks(per_row)) {
        let (first, second) = (&outs[0], &outs[ENGINES.len()]);
        let again = run(row, &deliveries[0], ENGINES[0]);
        assert_eq!(again.result, first.result, "{}: replayed result", row.name);
        assert_eq!(timeline(&again), timeline(first), "{}: replay", row.name);
        assert_ne!(
            timeline(first).3,
            timeline(second).3,
            "{}: two plans, one timeline",
            row.name
        );
    }
}

#[test]
fn sim_chaos() {
    let m = machine(TransportKind::Inproc).faults(FaultPlan::chaos(0xC0FFEE));
    let d = Delivery::new("sim under chaos 0xc0ffee", m)
        .sim(SimPlan::new(7).latency(500).jitter(2_000));
    sweep(FAMILIES, &[d], &ENGINES);
}
