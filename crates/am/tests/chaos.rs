//! Chaos tests: the runtime's guarantees must survive an adversarial
//! transport. Every test runs a known workload under a seeded
//! [`FaultPlan`] and asserts the *fault-free* outcome — exactly-once
//! handler execution, epochs that end only at true quiescence — plus
//! evidence (machine statistics) that faults actually fired.
//!
//! Seeds are fixed so failures reproduce; set `DGP_CHAOS_SEED` to run one
//! extra seed of your choosing (CI sweeps several).

use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::sync::Arc;
use std::time::Duration;

use dgp_am::{FaultPlan, Machine, MachineConfig, MachineError};

/// The fixed seeds every chaos test sweeps (CI runs each in its own job).
fn seeds() -> Vec<u64> {
    let mut s = vec![0xC0FFEE, 42, 7];
    if let Ok(extra) = std::env::var("DGP_CHAOS_SEED") {
        if let Ok(extra) = extra.parse::<u64>() {
            s.push(extra);
        }
    }
    s
}

/// Ring-chain workload: every rank starts a `hops`-hop chain; handlers
/// forward around the ring. Returns (total handler invocations, stats).
fn ring_chain(cfg: MachineConfig, hops: u64) -> (u64, dgp_am::StatsSnapshot) {
    let hits = Arc::new(AtomicU64::new(0));
    let h2 = hits.clone();
    let out = Machine::run(cfg, move |ctx| {
        let hits = h2.clone();
        let mt = ctx.register(move |ctx, left: u64| {
            hits.fetch_add(1, SeqCst);
            if left > 0 {
                let next = (ctx.rank() + 1) % ctx.num_ranks();
                ctx.send(next, left - 1);
            }
        });
        ctx.epoch(|ctx| {
            mt.send(ctx, (ctx.rank() + 1) % ctx.num_ranks(), hops - 1);
        });
        ctx.stats()
    });
    (hits.load(SeqCst), out.into_iter().next().unwrap())
}

#[test]
fn chaos_preserves_exactly_once_counters_mode() {
    for seed in seeds() {
        let cfg = MachineConfig::new(4)
            .coalescing(4)
            .faults(FaultPlan::chaos(seed));
        let (hits, stats) = ring_chain(cfg, 100);
        assert_eq!(
            hits,
            4 * 100,
            "seed {seed}: lost or duplicated handler runs"
        );
        assert_eq!(
            stats.messages_handled, stats.messages_sent,
            "seed {seed}: epoch ended non-quiescent"
        );
        assert!(
            stats.faults_injected() > 0,
            "seed {seed}: chaos plan injected nothing"
        );
    }
}

/// Regression: the detector may not signal quiescence while a *delayed*
/// message sits parked in the fault layer. If it did, the epoch would end
/// with handler runs missing — the counters below would disagree.
#[test]
fn delayed_messages_do_not_cause_premature_quiescence() {
    for seed in seeds() {
        // Every envelope delayed, by a wide tick range: termination
        // detection races the parked queue every epoch.
        let plan = FaultPlan::new(seed).delay(1.0, 4..64);
        let cfg = MachineConfig::new(3).coalescing(1).faults(plan);
        let (hits, stats) = ring_chain(cfg, 40);
        assert_eq!(hits, 3 * 40, "seed {seed}");
        assert_eq!(stats.messages_handled, stats.messages_sent, "seed {seed}");
        assert!(stats.injected_delays > 0, "seed {seed}");
    }
}

/// Regression: same for *reordered* messages — held packets are still
/// unhandled messages, so `handled == sent` must be unreachable while any
/// are held.
#[test]
fn reordered_messages_do_not_cause_premature_quiescence() {
    for seed in seeds() {
        let plan = FaultPlan::new(seed).reorder(0.8);
        let cfg = MachineConfig::new(3).coalescing(1).faults(plan);
        let (hits, stats) = ring_chain(cfg, 40);
        assert_eq!(hits, 3 * 40, "seed {seed}");
        assert_eq!(stats.messages_handled, stats.messages_sent, "seed {seed}");
        assert!(stats.injected_reorders > 0, "seed {seed}");
    }
}

/// Heavy drop rates are recovered by retransmission: nothing is lost, and
/// the stats show the reliability layer doing the work.
#[test]
fn drops_are_recovered_by_retransmission() {
    for seed in seeds() {
        let plan = FaultPlan::new(seed).drop(0.6);
        let cfg = MachineConfig::new(4).coalescing(2).faults(plan);
        let (hits, stats) = ring_chain(cfg, 60);
        assert_eq!(hits, 4 * 60, "seed {seed}");
        assert!(stats.injected_drops > 0, "seed {seed}");
        assert!(stats.retransmits > 0, "seed {seed}");
        assert!(stats.acks > 0, "seed {seed}");
    }
}

/// Dropped acks force retransmission of already-delivered packets; the
/// receiver-side dedup must suppress every one of them.
#[test]
fn ack_loss_exercises_dedup() {
    for seed in seeds() {
        let plan = FaultPlan::new(seed).ack_drop(0.5);
        let cfg = MachineConfig::new(3).coalescing(1).faults(plan);
        let (hits, stats) = ring_chain(cfg, 80);
        assert_eq!(hits, 3 * 80, "seed {seed}: dedup failed");
        assert!(
            stats.dups_suppressed > 0,
            "seed {seed}: no duplicate ever reached the receiver"
        );
    }
}

/// Injected duplicates are suppressed (exactly-once) and counted.
#[test]
fn injected_duplicates_are_suppressed() {
    for seed in seeds() {
        let plan = FaultPlan::new(seed).duplicate(0.7);
        let cfg = MachineConfig::new(3).coalescing(1).faults(plan);
        let (hits, stats) = ring_chain(cfg, 80);
        assert_eq!(hits, 3 * 80, "seed {seed}");
        assert!(stats.injected_dups > 0, "seed {seed}");
        assert!(stats.dups_suppressed > 0, "seed {seed}");
    }
}

/// Multi-threaded ranks under chaos: worker threads share the dedup and
/// retransmission state safely.
#[test]
fn chaos_with_worker_threads() {
    for seed in seeds() {
        let cfg = MachineConfig::new(2)
            .threads_per_rank(3)
            .coalescing(8)
            .faults(FaultPlan::chaos(seed));
        let (hits, stats) = ring_chain(cfg, 200);
        assert_eq!(hits, 2 * 200, "seed {seed}");
        assert!(stats.faults_injected() > 0, "seed {seed}");
    }
}

/// A plan that drops everything forever (delivery never forced) cannot
/// terminate — the armed epoch deadline must convert the hang into a
/// structured error instead of letting the test run forever.
#[test]
fn epoch_deadline_reports_hung_epoch() {
    let plan = FaultPlan::new(1).drop(1.0).max_attempts(u32::MAX);
    let cfg = MachineConfig::new(2)
        .coalescing(1)
        .faults(plan)
        .epoch_deadline(Duration::from_millis(250));
    let err = Machine::try_run(cfg, |ctx| {
        let mt = ctx.register(|_ctx, _x: u32| {});
        ctx.epoch(|ctx| {
            if ctx.rank() == 0 {
                mt.send(ctx, 1, 7u32);
            }
        });
    })
    .expect_err("a 100%-drop plan with unbounded attempts cannot quiesce");
    match err {
        MachineError::EpochDeadline {
            epoch,
            waited,
            sent,
            handled,
            ..
        } => {
            assert_eq!(epoch, 1);
            assert!(waited >= Duration::from_millis(250));
            assert_eq!(sent, 1);
            assert_eq!(handled, 0);
        }
        other => panic!("expected EpochDeadline, got {other}"),
    }
}

/// The deadline must NOT fire on a healthy (if slow) epoch: recovery under
/// chaos completes well within a generous deadline.
#[test]
fn epoch_deadline_spares_healthy_epochs() {
    let cfg = MachineConfig::new(3)
        .coalescing(2)
        .faults(FaultPlan::chaos(0xC0FFEE))
        .epoch_deadline(Duration::from_secs(30));
    let (hits, _) = {
        let hits = Arc::new(AtomicU64::new(0));
        let h2 = hits.clone();
        let out = Machine::try_run(cfg, move |ctx| {
            let hits = h2.clone();
            let mt = ctx.register(move |_ctx, _x: u32| {
                hits.fetch_add(1, SeqCst);
            });
            for _ in 0..5 {
                ctx.epoch(|ctx| {
                    for d in 0..ctx.num_ranks() {
                        mt.send(ctx, d, 1u32);
                    }
                });
            }
        });
        assert!(out.is_ok(), "healthy chaos run hit the deadline: {out:?}");
        (hits.load(SeqCst), ())
    };
    assert_eq!(hits, 5 * 3 * 3);
}

/// Results under any fixed seed are identical to the fault-free run —
/// the runtime-level statement of the bit-identical property the
/// algorithm chaos tests assert end to end.
#[test]
fn chaos_results_match_fault_free() {
    let run = |faults: Option<FaultPlan>| -> Vec<u64> {
        let mut cfg = MachineConfig::new(4).coalescing(4);
        if let Some(p) = faults {
            cfg = cfg.faults(p);
        }
        // Each rank accumulates the sum of payloads it handled; the
        // workload is deterministic, so per-rank sums must match exactly.
        Machine::run(cfg, |ctx| {
            let acc = Arc::new(AtomicU64::new(0));
            let a2 = acc.clone();
            let mt = ctx.register(move |_ctx, x: u64| {
                a2.fetch_add(x, SeqCst);
            });
            ctx.epoch(|ctx| {
                for i in 0..50u64 {
                    mt.send(
                        ctx,
                        (i as usize) % ctx.num_ranks(),
                        ctx.rank() as u64 * 1000 + i,
                    );
                }
            });
            acc.load(SeqCst)
        })
    };
    let clean = run(None);
    for seed in seeds() {
        assert_eq!(run(Some(FaultPlan::chaos(seed))), clean, "seed {seed}");
    }
}

/// try_run: a handler panic surfaces as `Err(HandlerPanicked)` naming the
/// rank and type — on a machine that shuts down rather than hanging.
#[test]
fn try_run_surfaces_handler_panic() {
    let err = Machine::try_run(MachineConfig::new(4), |ctx| {
        let mt = ctx.register_named("bomb", |_ctx, x: u32| {
            assert!(x < 3, "injected handler failure");
        });
        ctx.epoch(|ctx| {
            if ctx.rank() == 0 {
                for x in 0..10u32 {
                    mt.send(ctx, (x as usize) % ctx.num_ranks(), x);
                }
            }
        });
    })
    .expect_err("handler panics must surface");
    match err {
        MachineError::HandlerPanicked {
            type_name, message, ..
        } => {
            assert_eq!(type_name, "bomb");
            assert!(message.contains("injected handler failure"), "{message}");
        }
        other => panic!("expected HandlerPanicked, got {other}"),
    }
}

/// try_run: a rank-body panic surfaces as `Err(RankPanicked)` naming the
/// rank, while the surviving ranks unwind from their collectives.
#[test]
fn try_run_surfaces_rank_panic() {
    let err = Machine::try_run(MachineConfig::new(3), |ctx| {
        if ctx.rank() == 1 {
            panic!("injected rank failure");
        }
        ctx.barrier();
    })
    .expect_err("rank panics must surface");
    match err {
        MachineError::RankPanicked { rank, message } => {
            assert_eq!(rank, 1);
            assert!(message.contains("injected rank failure"), "{message}");
        }
        other => panic!("expected RankPanicked, got {other}"),
    }
}

/// try_run on a healthy machine returns the per-rank results unchanged.
#[test]
fn try_run_returns_results_when_healthy() {
    let out = Machine::try_run(MachineConfig::new(4), |ctx| ctx.rank() * 2).unwrap();
    assert_eq!(out, vec![0, 2, 4, 6]);
}

/// Handler panic under fault injection: poison must still win over the
/// retransmission machinery (no hang waiting for acks that never come).
#[test]
fn handler_panic_under_chaos_does_not_hang() {
    let err = Machine::try_run(
        MachineConfig::new(3)
            .coalescing(1)
            .faults(FaultPlan::chaos(42)),
        |ctx| {
            let mt = ctx.register(|_ctx, x: u64| {
                assert!(x != 13, "unlucky payload");
            });
            ctx.epoch(|ctx| {
                for i in 0..40u64 {
                    mt.send(ctx, (i as usize) % ctx.num_ranks(), i);
                }
            });
        },
    )
    .expect_err("the unlucky payload must fail the machine");
    assert!(
        matches!(err, MachineError::HandlerPanicked { .. }),
        "got {err}"
    );
}
