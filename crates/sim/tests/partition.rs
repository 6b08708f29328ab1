//! Reliability under modeled partitions: partitions form mid-epoch and
//! heal, and the unmodified seq/ack/retransmit/dedup stack must converge
//! to *exact* counter consistency — every logical message handled exactly
//! once, machine-wide sent == handled at quiescence, per-rank receive
//! counts exact — in both Hold (lossless outage) and Drop (lossy outage)
//! modes. Scenario-level tests additionally pin the algorithm results to
//! the unpartitioned baseline digest.

use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::sync::Arc;

use dgp_am::{FaultPlan, Machine, MachineConfig, PartitionMode, SimAt, SimPlan, StatsSnapshot};
use dgp_sim::scenario::partition;
use dgp_sim::{run_scenario, Policy, ScenarioSpec, Workload};

const RANKS: usize = 4;
const EPOCHS: u64 = 3;
const PER_DEST: u64 = 5;

/// All-to-all chatter for [`EPOCHS`] epochs: every rank sends
/// [`PER_DEST`] messages to every other rank each epoch, bumping the
/// receiver's slot. Returns rank 0's final machine-wide stats snapshot.
fn all_to_all(
    cfg: MachineConfig,
    plan: SimPlan,
    received: Arc<Vec<AtomicU64>>,
) -> (StatsSnapshot, dgp_am::SimReport) {
    let run = Machine::run_sim(cfg, plan, move |ctx| {
        let received = received.clone();
        let mt = ctx.register(move |ctx, _: u64| {
            received[ctx.rank()].fetch_add(1, SeqCst);
        });
        for _ in 0..EPOCHS {
            ctx.epoch(|ctx| {
                for dest in 0..ctx.num_ranks() {
                    if dest != ctx.rank() {
                        for _ in 0..PER_DEST {
                            mt.send(ctx, dest, 1u64);
                        }
                    }
                }
            });
        }
        ctx.stats()
    })
    .expect("sim run");
    (run.results[0], run.report)
}

fn expected_per_rank() -> u64 {
    EPOCHS * PER_DEST * (RANKS as u64 - 1)
}

fn assert_exact(stats: &StatsSnapshot, received: &[AtomicU64], label: &str) {
    let expected = expected_per_rank();
    for (r, slot) in received.iter().enumerate() {
        assert_eq!(
            slot.load(SeqCst),
            expected,
            "{label}: rank {r} must receive exactly once per logical send"
        );
    }
    assert_eq!(
        stats.messages_sent,
        expected * RANKS as u64,
        "{label}: machine-wide sends"
    );
    assert_eq!(
        stats.messages_sent, stats.messages_handled,
        "{label}: quiescent machine must have handled exactly what was sent"
    );
    // `epochs` counts per-rank epoch completions.
    assert_eq!(
        stats.epochs,
        EPOCHS * RANKS as u64,
        "{label}: every rank terminated every epoch"
    );
}

/// Hold mode: the cut forms mid-epoch-1 and heals much later. Packets
/// park, flood in at the heal, and the epoch cannot terminate early —
/// counters stay exact without any reliability layer.
#[test]
fn hold_partition_mid_epoch_converges_exactly() {
    let received = Arc::new((0..RANKS).map(|_| AtomicU64::new(0)).collect::<Vec<_>>());
    // Onset at t=500ns: epoch-1 packets (latency 1µs) are already in
    // flight, so the cut catches them mid-epoch.
    let plan = SimPlan::new(41).latency(1_000).per_msg(10).partition(
        &[1],
        SimAt::Time(500),
        SimAt::Time(5_000_000),
        PartitionMode::Hold,
    );
    let (stats, report) = all_to_all(
        MachineConfig::new(RANKS).coalescing(2),
        plan,
        received.clone(),
    );
    assert_exact(&stats, &received, "hold");
    assert!(
        report.partition_held > 0,
        "the cut must have parked traffic"
    );
    assert_eq!(
        report.partition_drops, 0,
        "hold mode never destroys packets"
    );
    assert!(
        report.virtual_time_ns >= 5_000_000,
        "the run must outlast the heal (t={})",
        report.virtual_time_ns
    );
}

/// Drop mode: the cut destroys crossing packets; only ack-timeout
/// retransmission can recover them. After the heal the machine must
/// converge to the same exact counters — retransmits fired, receiver-side
/// dedup suppressed any duplicates, and not one logical message was lost
/// or double-handled.
#[test]
fn drop_partition_retransmits_and_dedups_to_exact_counters() {
    let received = Arc::new((0..RANKS).map(|_| AtomicU64::new(0)).collect::<Vec<_>>());
    let plan = SimPlan::new(43).latency(1_000).per_msg(10).partition(
        &[2],
        SimAt::Time(500),
        SimAt::Time(2_000_000),
        PartitionMode::Drop,
    );
    let (stats, report) = all_to_all(
        MachineConfig::new(RANKS)
            .coalescing(2)
            .faults(FaultPlan::new(7)),
        plan,
        received.clone(),
    );
    assert_exact(&stats, &received, "drop");
    assert!(
        report.partition_drops > 0,
        "the cut must have destroyed packets"
    );
    assert!(
        stats.retransmits > 0,
        "recovery must have come from retransmission"
    );
}

/// A partition spanning an epoch boundary: the cut is triggered by epoch
/// 1 completing and stays down across epoch 2's traffic. Exactness must
/// survive the boundary (termination detection cannot double-count the
/// recovered packets into the wrong epoch).
#[test]
fn drop_partition_across_epoch_boundary_stays_exact() {
    let received = Arc::new((0..RANKS).map(|_| AtomicU64::new(0)).collect::<Vec<_>>());
    let plan = SimPlan::new(47).latency(800).partition(
        &[1, 3],
        SimAt::Epoch(1),
        SimAt::Time(3_000_000),
        PartitionMode::Drop,
    );
    let (stats, report) = all_to_all(
        MachineConfig::new(RANKS)
            .coalescing(1)
            .faults(FaultPlan::new(11)),
        plan,
        received.clone(),
    );
    assert_exact(&stats, &received, "epoch-boundary drop");
    assert!(report.partition_drops > 0);
    assert!(stats.retransmits > 0);
}

/// Scenario level: SSSP results under a mid-run Hold partition are
/// bit-identical to the unpartitioned run, and the partitioned schedule
/// itself replays deterministically.
#[test]
fn sssp_result_is_partition_invariant_hold() {
    let base = ScenarioSpec::baseline(9);
    let clean = run_scenario(&base);
    assert!(clean.ok(), "{:?}", clean.error);

    let mut cut = base.clone();
    cut.plan.partitions.push(partition(
        &[1],
        SimAt::Time(2_000),
        SimAt::Time(8_000_000),
        PartitionMode::Hold,
    ));
    let a = run_scenario(&cut);
    assert!(a.ok(), "{:?}", a.error);
    assert_eq!(
        a.result_digest, clean.result_digest,
        "a healed Hold partition must not change what SSSP computed"
    );
    assert!(a.report.partition_held > 0);

    let b = run_scenario(&cut);
    assert_eq!(a.report.flight_digest, b.report.flight_digest);
    assert_eq!(a.report.partition_held, b.report.partition_held);
}

/// Scenario level, Drop mode with the reliability layer: CC labels under
/// a lossy partition match the clean run exactly, with the mid-run
/// invariant checker active throughout.
#[test]
fn cc_result_survives_drop_partition_with_retransmission() {
    let mut base = ScenarioSpec::baseline(5);
    base.workload = Workload::Cc;
    // 6 blobs of 15 over 4 ranks: components straddle rank boundaries,
    // so CC traffic actually crosses the cut (k == ranks would place
    // each blob entirely on one rank and make the partition invisible).
    base.graph = dgp_sim::GraphKind::Blobs { k: 6, size: 15 };
    let clean = run_scenario(&base);
    assert!(clean.ok(), "{:?}", clean.error);

    let mut cut = base.clone();
    cut.faults = true;
    cut.plan.partitions.push(partition(
        &[0],
        SimAt::Time(3_000),
        SimAt::Time(4_000_000),
        PartitionMode::Drop,
    ));
    let lossy = run_scenario(&cut);
    assert!(lossy.ok(), "{:?}", lossy.error);
    assert_eq!(
        lossy.result_digest, clean.result_digest,
        "retransmission must make the lossy run equivalent"
    );
    assert!(lossy.report.partition_drops > 0, "faults actually fired");
}

/// The explorer's partition-at-epoch policy must cut traffic that is
/// still flowing: on the E15 sweep's base scenario every seed parks
/// packets, and the healed run computes the baseline's result.
#[test]
fn partition_at_epoch_policy_holds_traffic() {
    let base = ScenarioSpec::baseline(17);
    let clean = run_scenario(&base);
    for seed in 0..4 {
        let out = run_scenario(&Policy::PartitionAtEpoch.apply(&base, seed));
        assert!(out.ok(), "seed {seed}: {:?}", out.error);
        assert!(out.report.partition_held > 0, "seed {seed} held nothing");
        assert_eq!(out.result_digest, clean.result_digest, "seed {seed}");
    }
}
