//! Failure injection: panics anywhere in the machine must propagate
//! instead of deadlocking, and API misuse must be caught loudly.

use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dgp::prelude::*;

/// A panic in a message handler reaches the caller (and does not hang the
/// other ranks in their epoch barriers). The original panic message
/// survives `Machine::run`'s re-raise.
#[test]
fn handler_panic_propagates() {
    let result = std::panic::catch_unwind(|| {
        Machine::run(MachineConfig::new(4), |ctx| {
            let mt = ctx.register(|_ctx, x: u32| {
                assert!(x < 3, "injected handler failure");
            });
            ctx.epoch(|ctx| {
                if ctx.rank() == 0 {
                    for x in 0..10u32 {
                        mt.send(ctx, (x as usize) % ctx.num_ranks(), x);
                    }
                }
            });
        });
    });
    let payload = result.expect_err("panic must propagate out of Machine::run");
    let msg = payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_default();
    assert!(msg.contains("injected handler failure"), "{msg}");
}

/// The same failure through the structured API: `try_run` returns
/// `Err(HandlerPanicked)` naming the rank, type, and message — on every
/// surviving rank, without hanging.
#[test]
fn handler_panic_surfaces_as_machine_error() {
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
    .expect_err("handler panic must surface as a MachineError");
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

/// A panic in one rank's program poisons the collectives so other ranks
/// fail fast rather than waiting forever: the survivors must observe the
/// poisoned barrier *promptly* (well inside the generous cap below), and
/// the recorded error must name the failed rank.
#[test]
fn rank_panic_poisons_collectives() {
    let survivors_released = Arc::new(AtomicU64::new(0));
    let s2 = survivors_released.clone();
    let started = Instant::now();
    let err = Machine::try_run(MachineConfig::new(3), move |ctx| {
        if ctx.rank() == 1 {
            // Give the survivors time to actually block in the barrier,
            // so the test exercises the wake-on-poison path and not just
            // the check-on-entry path.
            std::thread::sleep(Duration::from_millis(50));
            panic!("injected rank failure");
        }
        // Other ranks head into a barrier that can never complete.
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| ctx.barrier()));
        assert!(r.is_err(), "the poisoned barrier must not complete");
        s2.fetch_add(1, SeqCst);
        // Re-raise so the machine records this rank as aborted, not as
        // having produced a result after a failed collective.
        std::panic::resume_unwind(r.unwrap_err());
    })
    .expect_err("rank panic must surface");
    let waited = started.elapsed();
    match err {
        MachineError::RankPanicked { rank, message } => {
            assert_eq!(rank, 1, "error must name the failed rank");
            assert!(message.contains("injected rank failure"), "{message}");
        }
        other => panic!("expected RankPanicked, got {other}"),
    }
    assert_eq!(
        survivors_released.load(SeqCst),
        2,
        "both survivors must be released from the barrier"
    );
    assert!(
        waited < Duration::from_secs(10),
        "survivors took {waited:?} to observe the poison — that is a hang, not fail-fast"
    );
}

/// A handler panic mid-epoch releases ranks blocked in termination
/// detection (the check_poison path inside the termination step).
#[test]
fn handler_panic_releases_termination_detection() {
    let err = Machine::try_run(MachineConfig::new(3), |ctx| {
        let mt = ctx.register(|_ctx, x: u64| {
            assert!(x != 5, "poison pill");
        });
        ctx.epoch(|ctx| {
            if ctx.rank() == 0 {
                for i in 0..10u64 {
                    mt.send(ctx, (i as usize) % ctx.num_ranks(), i);
                }
            }
        });
    })
    .expect_err("the poison pill must fail the machine");
    assert!(
        matches!(err, MachineError::HandlerPanicked { .. }),
        "got {err}"
    );
}

/// Epochs must not nest.
#[test]
fn nested_epoch_rejected() {
    let result = std::panic::catch_unwind(|| {
        Machine::run(MachineConfig::new(1), |ctx| {
            ctx.epoch(|ctx| ctx.epoch(|_| {}));
        });
    });
    assert!(result.is_err());
}

/// Registering more reads than the payload supports is reported at
/// registration, not by corrupting messages.
#[test]
fn too_many_slots_rejected() {
    Machine::run(MachineConfig::new(1), |ctx| {
        let el = EdgeList::from_pairs(2, &[(0, 1)]);
        let graph = DistGraph::build(&el, Distribution::block(2, 1), false);
        let engine = PatternEngine::new(ctx, graph, EngineConfig::default());
        let mut b = ActionBuilder::new("wide", GeneratorIr::None);
        let mut slots = Vec::new();
        for m in 0..9u32 {
            slots.push(b.read_vertex(m, Place::Input));
        }
        let s0 = slots[0];
        b.cond(&slots, move |e| e.u64(s0) == 0)
            .assign(0, Place::Input, &[], |_, _| Val::U(1));
        // The static verifier rejects this at build time now, before the
        // engine ever sees it.
        let err = b.build().unwrap_err();
        assert!(
            err.diagnostics
                .iter()
                .any(|d| d.code == dgp_core::DiagCode::S005),
            "{err}"
        );
        assert!(err.to_string().contains("at most"), "{err}");
        drop(engine);
    });
}

/// A pattern using `p[x]` as a locality without declaring the read of
/// `p` at `x` is rejected at compile time with a pointed message.
#[test]
fn undeclared_resolution_read_rejected() {
    Machine::run(MachineConfig::new(1), |ctx| {
        let el = EdgeList::from_pairs(2, &[(0, 1)]);
        let graph = DistGraph::build(&el, Distribution::block(2, 1), false);
        let engine = PatternEngine::new(ctx, graph, EngineConfig::default());
        let mut b = ActionBuilder::new("bad", GeneratorIr::None);
        // Read lbl[pnt[v]] without declaring the read of pnt[v].
        let s = b.read_vertex(1, Place::map_at(0, Place::Input));
        b.cond(&[s], move |e| e.u64(s) == 0)
            .assign(1, Place::Input, &[], |_, _| Val::U(1));
        // Caught statically at build time with a stable code.
        let err = b.build().unwrap_err();
        assert!(
            err.diagnostics
                .iter()
                .any(|d| d.code == dgp_core::DiagCode::P006),
            "{err}"
        );
        assert!(err.to_string().contains("declared"), "{err}");
        drop(engine);
    });
}

/// Sending to a nonexistent rank is caught.
#[test]
fn bad_destination_rejected() {
    let result = std::panic::catch_unwind(|| {
        Machine::run(MachineConfig::new(2), |ctx| {
            let mt = ctx.register(|_ctx, _x: u8| {});
            ctx.epoch(|ctx| {
                if ctx.rank() == 0 {
                    mt.send(ctx, 7, 1);
                }
            });
        });
    });
    assert!(result.is_err());
}

/// Weighted/unweighted edge mixing is rejected by the edge list.
#[test]
fn edge_list_weight_mixing_rejected() {
    let result = std::panic::catch_unwind(|| {
        let mut el = EdgeList::new(3);
        el.push(0, 1);
        el.push_weighted(1, 2, 1.0);
    });
    assert!(result.is_err());
}

/// A machine with workers shuts down cleanly even when no epochs run.
#[test]
fn idle_workers_shut_down() {
    let out = Machine::run(MachineConfig::new(2).threads_per_rank(4), |ctx| ctx.rank());
    assert_eq!(out, vec![0, 1]);
}

/// The one driver degrades to a structured error on threads: a transport
/// that drops everything, forever, cannot quiesce SSSP's first epoch; the
/// armed deadline turns the would-be hang into `Err(EpochDeadline)` with
/// the automatic post-mortem attached — no hang, no panic.
#[test]
fn run_returns_epoch_deadline_as_a_value_on_threads() {
    let mut el = generators::path(8);
    el.randomize_weights(1.0, 2.0, 3);
    let machine = MachineConfig::new(2)
        .coalescing(1)
        .faults(FaultPlan::new(1).drop(1.0).max_attempts(u32::MAX))
        .epoch_deadline(Duration::from_millis(250));
    let err = Run::on(machine)
        .sssp(&el, 0, SsspStrategy::FixedPoint)
        .expect_err("nothing is ever delivered");
    assert!(
        matches!(err.error, MachineError::EpochDeadline { .. }),
        "{err}"
    );
    assert!(!err.postmortem.render().is_empty());
    assert!(err.report.is_none(), "threads have no sim report");
}

/// The same, simulated: a Hold partition that never heals parks SSSP's
/// cross-rank relaxations for good; the simulator's watchdog fails the
/// run as `SimStalled` and the error carries the report up to the stall.
#[test]
fn run_returns_sim_stalled_as_a_value_under_the_simulator() {
    use dgp::am::{PartitionMode, SimAt, SimPlan};
    let mut el = generators::path(8);
    el.randomize_weights(1.0, 2.0, 3);
    let plan = SimPlan::new(3).partition(
        &[1],
        SimAt::Time(0),
        SimAt::Time(u64::MAX),
        PartitionMode::Hold,
    );
    let err = Run::on(MachineConfig::new(2).coalescing(1))
        .sim(plan)
        .sssp(&el, 0, SsspStrategy::FixedPoint)
        .expect_err("the cut never heals");
    match &err.error {
        MachineError::SimStalled { sent, handled, .. } => {
            assert!(sent > handled, "sent={sent} handled={handled}");
        }
        other => panic!("expected SimStalled, got {other}"),
    }
    let report = err.report.as_ref().expect("sim errors carry the report");
    assert!(report.partition_held > 0, "the cut parked traffic");
    assert!(err.to_string().contains("virtual t="), "{err}");
}
