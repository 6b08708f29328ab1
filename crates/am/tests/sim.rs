//! End-to-end tests of the discrete-event simulator: the same programs the
//! threaded machine runs, under modeled links, partitions, stragglers and
//! stalls — with exact determinism assertions.

use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::sync::Arc;

use dgp_am::{
    AmCtx, FaultPlan, InvariantCadence, Machine, MachineConfig, MachineError, PartitionMode, SimAt,
    SimPlan, StatsSnapshot,
};

fn cfg(ranks: usize) -> MachineConfig {
    MachineConfig::new(ranks)
}

#[test]
fn empty_epoch_terminates() {
    let run = Machine::run_sim(cfg(4), SimPlan::new(1), |ctx| {
        ctx.epoch(|_| {});
        ctx.rank()
    })
    .expect("sim run");
    assert_eq!(run.results, vec![0, 1, 2, 3]);
}

#[test]
fn single_message_is_handled_before_epoch_ends() {
    let hits = Arc::new(AtomicU64::new(0));
    let h2 = hits.clone();
    Machine::run_sim(cfg(2), SimPlan::new(7), move |ctx| {
        let hits = h2.clone();
        let mt = ctx.register(move |_ctx, x: u64| {
            hits.fetch_add(x, SeqCst);
        });
        ctx.epoch(|ctx| {
            if ctx.rank() == 0 {
                mt.send(ctx, 1, 41);
            }
        });
        assert_eq!(h2.load(SeqCst), 41);
    })
    .expect("sim run");
    assert_eq!(hits.load(SeqCst), 41);
}

#[test]
fn handler_chains_hop_across_modeled_links() {
    let hops = Arc::new(AtomicU64::new(0));
    let h2 = hops.clone();
    let run = Machine::run_sim(
        cfg(4).coalescing(1),
        SimPlan::new(3).latency(500).jitter(2_000),
        move |ctx| {
            let hops = h2.clone();
            let mt = ctx.register(move |ctx, left: u64| {
                hops.fetch_add(1, SeqCst);
                if left > 0 {
                    let next = (ctx.rank() + 1) % ctx.num_ranks();
                    ctx.send(next, left - 1);
                }
            });
            ctx.epoch(|ctx| {
                mt.send(ctx, (ctx.rank() + 1) % ctx.num_ranks(), 99u64);
            });
        },
    )
    .expect("sim run");
    assert_eq!(hops.load(SeqCst), 4 * 100);
    assert!(run.report.deliveries >= 400, "{:?}", run.report.deliveries);
    assert!(run.report.virtual_time_ns > 0);
}

#[test]
fn collectives_work_under_the_token_discipline() {
    let run = Machine::run_sim(cfg(5), SimPlan::new(11), |ctx| {
        let sum = ctx.sum_ranks(ctx.rank() as u64 + 1);
        assert_eq!(sum, 15);
        let max = ctx.all_reduce(ctx.rank() as u64, |a, b| a.max(b));
        assert_eq!(max, 4);
        assert!(ctx.any_rank(ctx.rank() == 3));
        assert!(!ctx.any_rank(false));
        ctx.barrier();
        let v = ctx.share(|| vec![1u64, 2, 3]);
        assert_eq!(v, vec![1, 2, 3]);
        sum
    })
    .expect("sim run");
    assert_eq!(run.results, vec![15; 5]);
}

#[test]
fn multiple_epochs_reuse_the_machine() {
    let total = Arc::new(AtomicU64::new(0));
    let t2 = total.clone();
    Machine::run_sim(cfg(3), SimPlan::new(5), move |ctx| {
        let total = t2.clone();
        let mt = ctx.register(move |_ctx, x: u64| {
            total.fetch_add(x, SeqCst);
        });
        for round in 0..10u64 {
            ctx.epoch(|ctx| {
                for dest in 0..ctx.num_ranks() {
                    mt.send(ctx, dest, round);
                }
            });
        }
    })
    .expect("sim run");
    assert_eq!(total.load(SeqCst), 9 * 45);
}

#[test]
fn backward_chains_terminate_under_wide_jitter() {
    let hops = Arc::new(AtomicU64::new(0));
    let h2 = hops.clone();
    Machine::run_sim(cfg(4), SimPlan::new(2).jitter(5_000), move |ctx| {
        let hops = h2.clone();
        let mt = ctx.register(move |ctx, left: u64| {
            hops.fetch_add(1, SeqCst);
            if left > 0 {
                let next = (ctx.rank() + 7) % ctx.num_ranks();
                ctx.send(next, left - 1);
            }
        });
        ctx.epoch(|ctx| {
            mt.send(ctx, (ctx.rank() + 1) % ctx.num_ranks(), 50u64);
        });
    })
    .expect("sim run");
    assert_eq!(hops.load(SeqCst), 4 * 51);
}

#[test]
fn try_finish_loops_stay_live() {
    let run = Machine::run_sim(cfg(4), SimPlan::new(9), |ctx| {
        let mt = ctx.register(|_ctx, _: u8| {});
        ctx.epoch(|ctx| {
            if ctx.rank() == 0 {
                for d in 0..ctx.num_ranks() {
                    mt.send(ctx, d, 1);
                }
            }
            while !ctx.try_finish() {
                ctx.epoch_flush();
            }
        });
        ctx.stats().messages_handled
    })
    .expect("sim run");
    assert!(run.results.iter().all(|&h| h == 4));
}

const HOPS: u64 = 30;

/// `delta_stepping_async`'s shape, then a plain epoch with traffic, back
/// to back. In the first epoch handlers only defer each hop into a
/// rank-local queue; the body runs the queue and ends the epoch with
/// `try_finish`, so epoch exit starts with the epoch already decided. The
/// second epoch is plain handler-forwarded ring chains. `runs` counts
/// deferred hops run and chain hops handled; returns the stats after
/// each epoch.
fn try_finish_then_plain(ctx: &AmCtx, runs: &Arc<[AtomicU64; 2]>) -> [StatsSnapshot; 2] {
    let queue = Arc::new(parking_lot::Mutex::new(vec![HOPS]));
    let q = queue.clone();
    let defer = ctx.register(move |_ctx, left: u64| q.lock().push(left));
    let r = runs.clone();
    let chain = ctx.register(move |ctx, left: u64| {
        r[1].fetch_add(1, SeqCst);
        if left > 0 {
            ctx.send((ctx.rank() + 1) % ctx.num_ranks(), left - 1);
        }
    });
    let next = (ctx.rank() + 1) % ctx.num_ranks();
    ctx.epoch(|ctx| loop {
        let work = std::mem::take(&mut *queue.lock());
        for &left in &work {
            runs[0].fetch_add(1, SeqCst);
            if left > 0 {
                defer.send(ctx, next, left - 1);
            }
        }
        // Contract: only with the local queue empty.
        if work.is_empty() && ctx.try_finish() {
            break;
        }
        ctx.epoch_flush();
    });
    let after_async = ctx.stats();
    ctx.epoch(|ctx| chain.send(ctx, next, HOPS));
    [after_async, ctx.stats()]
}

/// Exact `sent == handled` after both epochs, and every hop run once.
fn check_try_finish_then_plain(
    runs: &[AtomicU64; 2],
    stats: &[[StatsSnapshot; 2]],
    ranks: u64,
    faults: bool,
) {
    assert_eq!(runs[0].load(SeqCst), ranks * (HOPS + 1));
    assert_eq!(runs[1].load(SeqCst), ranks * (HOPS + 1));
    for [a, b] in stats {
        assert_eq!(
            (a.messages_sent, a.messages_handled),
            (ranks * HOPS, ranks * HOPS)
        );
        let total = ranks * (2 * HOPS + 1);
        assert_eq!((b.messages_sent, b.messages_handled), (total, total));
        assert_eq!(b.epochs, 2 * ranks);
        assert_eq!(faults, b.faults_injected() > 0, "{b:?}");
    }
}

/// Three ranks, fault-free and under the chaos preset (`true`).
fn clean_and_chaos() -> [(MachineConfig, bool); 2] {
    let chaos = cfg(3).faults(FaultPlan::chaos(0xC0FFEE));
    [(cfg(3), false), (chaos, true)]
}

#[test]
fn try_finish_epoch_then_plain_epoch_on_threads() {
    for (c, faults) in clean_and_chaos() {
        let runs = Arc::new(<[AtomicU64; 2]>::default());
        let r = runs.clone();
        let stats = Machine::run(c, move |ctx| try_finish_then_plain(ctx, &r));
        check_try_finish_then_plain(&runs, &stats, 3, faults);
    }
}

#[test]
fn try_finish_epoch_then_plain_epoch_under_the_simulator() {
    for (c, faults) in clean_and_chaos() {
        let runs = Arc::new(<[AtomicU64; 2]>::default());
        let r = runs.clone();
        let plan = SimPlan::new(4).jitter(3_000);
        let run =
            Machine::run_sim(c, plan, move |ctx| try_finish_then_plain(ctx, &r)).expect("sim run");
        check_try_finish_then_plain(&runs, &run.results, 3, faults);
    }
}

/// A profiled simulation stamps every record — the always-on runtime
/// events and the profiling spans alike — on the virtual clock, so the
/// recorded spans, timestamps and durations included, repeat exactly.
#[test]
fn profiled_spans_repeat_exactly_under_the_simulator() {
    let run_once = || {
        let run = Machine::run_sim(
            cfg(3).coalescing(1).profile(true),
            SimPlan::new(9).latency(250).jitter(1_000),
            |ctx| {
                let mt = ctx.register(|ctx, left: u32| {
                    let _work = ctx.span(dgp_am::SpanKind::Custom, "user.hop");
                    if left > 0 {
                        ctx.send((ctx.rank() + 1) % ctx.num_ranks(), left - 1);
                    }
                });
                for _ in 0..2 {
                    ctx.epoch(|ctx| mt.send(ctx, (ctx.rank() + 1) % ctx.num_ranks(), 5u32));
                }
                // Every rank has recorded its last epoch span.
                ctx.barrier();
                (ctx.rank() == 0).then(|| ctx.recorder().expect("profiling on").all_spans())
            },
        )
        .expect("sim run");
        run.results.into_iter().flatten().next().unwrap()
    };
    let a = run_once();
    assert!(a.iter().any(|s| s.name == "user.hop"), "{a:?}");
    assert!(a.iter().any(|s| s.name == "handler"), "{a:?}");
    assert!(a.iter().any(|s| s.start_ns > 0), "virtual time advances");
    assert_eq!(a, run_once(), "profiled spans must repeat bit for bit");
}

/// Identical (cfg, plan, program) ⇒ identical results, stats, event counts
/// AND an identical flight-recorder timeline (digest equality).
#[test]
fn identical_seeds_reproduce_bit_identical_timelines() {
    let run_once = |seed: u64| {
        let counted = Arc::new(AtomicU64::new(0));
        let c2 = counted.clone();
        let run = Machine::run_sim(
            cfg(6).coalescing(4),
            SimPlan::new(seed).latency(300).per_msg(7).jitter(4_000),
            move |ctx| {
                let counted = c2.clone();
                let mt = ctx.register(move |ctx, left: u32| {
                    counted.fetch_add(1, SeqCst);
                    if left > 0 {
                        let next = (ctx.rank() * 3 + 1) % ctx.num_ranks();
                        ctx.send(next, left - 1);
                    }
                });
                ctx.epoch(|ctx| {
                    for d in 0..ctx.num_ranks() {
                        mt.send(ctx, d, 12u32);
                    }
                });
                ctx.stats().messages_sent
            },
        )
        .expect("sim run");
        (
            run.results,
            counted.load(SeqCst),
            run.report.deliveries,
            run.report.events,
            run.report.virtual_time_ns,
            run.report.flight_digest,
        )
    };
    let a = run_once(42);
    let b = run_once(42);
    assert_eq!(a, b, "same seed must reproduce the run exactly");
    let c = run_once(43);
    assert_eq!(a.1, c.1, "different schedule, same algorithm results");
    assert_ne!(
        a.5, c.5,
        "different seeds should explore different timelines"
    );
}

#[test]
fn hold_partition_parks_and_releases_packets() {
    let hits = Arc::new(AtomicU64::new(0));
    let h2 = hits.clone();
    let run = Machine::run_sim(
        cfg(4).coalescing(1),
        SimPlan::new(13).partition(
            &[1],
            SimAt::Time(0),
            SimAt::Time(2_000_000),
            PartitionMode::Hold,
        ),
        move |ctx| {
            let hits = h2.clone();
            let mt = ctx.register(move |_ctx, x: u64| {
                hits.fetch_add(x, SeqCst);
            });
            ctx.epoch(|ctx| {
                if ctx.rank() == 0 {
                    for _ in 0..10 {
                        mt.send(ctx, 1, 1);
                    }
                }
            });
            assert_eq!(h2.load(SeqCst), 10, "epoch cannot end while packets held");
        },
    )
    .expect("sim run");
    assert_eq!(hits.load(SeqCst), 10);
    assert!(
        run.report.partition_held >= 10,
        "held={}",
        run.report.partition_held
    );
    assert!(
        run.report.virtual_time_ns >= 2_000_000,
        "epoch must outlast the heal, t={}",
        run.report.virtual_time_ns
    );
}

#[test]
fn drop_partition_recovers_via_retransmission() {
    let hits = Arc::new(AtomicU64::new(0));
    let h2 = hits.clone();
    let run = Machine::run_sim(
        cfg(4).coalescing(1).faults(FaultPlan::new(99)),
        SimPlan::new(17).partition(
            &[2],
            SimAt::Time(0),
            SimAt::Time(500_000),
            PartitionMode::Drop,
        ),
        move |ctx| {
            let hits = h2.clone();
            let mt = ctx.register(move |_ctx, x: u64| {
                hits.fetch_add(x, SeqCst);
            });
            ctx.epoch(|ctx| {
                if ctx.rank() == 0 {
                    for _ in 0..8 {
                        mt.send(ctx, 2, 1);
                    }
                }
            });
        },
    )
    .expect("sim run");
    assert_eq!(hits.load(SeqCst), 8, "retransmits must recover every drop");
    assert!(
        run.report.partition_drops > 0,
        "the partition should have destroyed at least one packet"
    );
}

#[test]
fn epoch_triggered_partition_perturbs_later_epochs_only() {
    let run = Machine::run_sim(
        cfg(2).coalescing(1),
        SimPlan::new(23).partition(
            &[1],
            SimAt::Epoch(1),
            SimAt::Time(3_000_000),
            PartitionMode::Hold,
        ),
        |ctx| {
            let mt = ctx.register(|_ctx, _: u8| {});
            // Epoch 1: no partition yet.
            ctx.epoch(|ctx| {
                if ctx.rank() == 0 {
                    mt.send(ctx, 1, 1);
                }
            });
            let t_after_1 = ctx.stats().epochs;
            // Epoch 2: cut is active, packets must wait for the heal.
            ctx.epoch(|ctx| {
                if ctx.rank() == 0 {
                    mt.send(ctx, 1, 2);
                }
            });
            t_after_1
        },
    )
    .expect("sim run");
    assert!(run.report.partition_held > 0, "epoch-2 traffic was held");
    assert!(run.report.virtual_time_ns >= 3_000_000);
}

#[test]
fn stragglers_and_stalls_slow_but_do_not_break() {
    let hits = Arc::new(AtomicU64::new(0));
    let h2 = hits.clone();
    let fast = Machine::run_sim(cfg(3).coalescing(1), SimPlan::new(31), {
        let h2 = hits.clone();
        move |ctx| {
            let hits = h2.clone();
            let mt = ctx.register(move |_ctx, _: u8| {
                hits.fetch_add(1, SeqCst);
            });
            ctx.epoch(|ctx| {
                if ctx.rank() == 0 {
                    for d in 1..3 {
                        mt.send(ctx, d, 0);
                    }
                }
            });
        }
    })
    .expect("fast run");
    hits.store(0, SeqCst);
    let slow = Machine::run_sim(
        cfg(3).coalescing(1),
        SimPlan::new(31).straggler(1, 100).stall(2, 0, 400_000),
        move |ctx| {
            let hits = h2.clone();
            let mt = ctx.register(move |_ctx, _: u8| {
                hits.fetch_add(1, SeqCst);
            });
            ctx.epoch(|ctx| {
                if ctx.rank() == 0 {
                    for d in 1..3 {
                        mt.send(ctx, d, 0);
                    }
                }
            });
        },
    )
    .expect("slow run");
    assert_eq!(hits.load(SeqCst), 2);
    assert!(
        slow.report.virtual_time_ns > fast.report.virtual_time_ns,
        "straggler+stall run must take longer in virtual time: {} vs {}",
        slow.report.virtual_time_ns,
        fast.report.virtual_time_ns
    );
}

#[test]
fn failing_invariant_surfaces_with_virtual_timestamp() {
    let err = Machine::run_sim(
        cfg(2).coalescing(1),
        SimPlan::new(41).invariant_cadence(InvariantCadence::EveryDelivery),
        |ctx| {
            ctx.sim_invariant(|ic| {
                if ic.deliveries >= 3 {
                    Err(format!("tripwire after {} deliveries", ic.deliveries))
                } else {
                    Ok(())
                }
            });
            let mt = ctx.register(|_ctx, _: u8| {});
            ctx.epoch(|ctx| {
                if ctx.rank() == 0 {
                    for _ in 0..10 {
                        mt.send(ctx, 1, 1);
                    }
                }
            });
        },
    )
    .expect_err("invariant must fail the run");
    match &err.error {
        MachineError::InvariantViolated { detail, point, .. } => {
            assert!(detail.contains("tripwire"), "{detail}");
            assert_eq!(point, "Delivery");
        }
        other => panic!("expected InvariantViolated, got {other}"),
    }
    // The failure carries a post-mortem and a report frozen at the offense.
    assert!(err.report.deliveries >= 3);
    assert!(!err.postmortem.timeline.is_empty() || err.report.events > 0);
}

#[test]
fn epoch_end_invariant_checks_between_epochs() {
    let checks = Arc::new(AtomicU64::new(0));
    let c2 = checks.clone();
    Machine::run_sim(
        cfg(2),
        SimPlan::new(43).invariant_cadence(InvariantCadence::EveryEpoch),
        move |ctx| {
            let checks = c2.clone();
            ctx.sim_invariant(move |_ic| {
                checks.fetch_add(1, SeqCst);
                Ok(())
            });
            let mt = ctx.register(|_ctx, _: u8| {});
            for _ in 0..3 {
                ctx.epoch(|ctx| {
                    mt.send(ctx, 0, 1);
                });
            }
        },
    )
    .expect("sim run");
    assert_eq!(checks.load(SeqCst), 3, "one check per completed epoch");
}

#[test]
fn never_healing_drop_partition_fails_as_stall_not_hang() {
    let err = Machine::run_sim(
        cfg(2).coalescing(1).faults(FaultPlan::new(7)),
        SimPlan::new(3).partition(
            &[1],
            SimAt::Time(0),
            SimAt::Time(u64::MAX),
            PartitionMode::Drop,
        ),
        |ctx| {
            let mt = ctx.register(|_ctx, _: u8| {});
            ctx.epoch(|ctx| {
                if ctx.rank() == 0 {
                    mt.send(ctx, 1, 1);
                }
            });
        },
    )
    .expect_err("unreachable rank must stall the epoch");
    match &err.error {
        MachineError::SimStalled { sent, handled, .. } => {
            assert!(sent > handled, "sent={sent} handled={handled}");
        }
        other => panic!("expected SimStalled, got {other}"),
    }
}

#[test]
fn rank_panic_propagates_cleanly_from_sim() {
    let err = Machine::run_sim(cfg(3), SimPlan::new(1), |ctx| {
        ctx.epoch(|ctx| {
            if ctx.rank() == 1 {
                panic!("sim rank boom");
            }
        });
    })
    .expect_err("panic must surface");
    match &err.error {
        MachineError::RankPanicked { rank, message } => {
            assert_eq!(*rank, 1);
            assert!(message.contains("sim rank boom"), "{message}");
        }
        other => panic!("expected RankPanicked, got {other}"),
    }
}

#[test]
fn handler_panic_attributes_type_and_rank() {
    let err = Machine::run_sim(cfg(2).coalescing(1), SimPlan::new(1), |ctx| {
        let mt = ctx.register_named("bomb", |_ctx, x: u32| {
            if x == 3 {
                panic!("payload {x}");
            }
        });
        ctx.epoch(|ctx| {
            if ctx.rank() == 0 {
                for i in 0..5u32 {
                    mt.send(ctx, 1, i);
                }
            }
        });
    })
    .expect_err("handler panic must surface");
    match &err.error {
        MachineError::HandlerPanicked {
            rank, type_name, ..
        } => {
            assert_eq!(*rank, 1);
            assert_eq!(type_name, "bomb");
        }
        other => panic!("expected HandlerPanicked, got {other}"),
    }
}

#[test]
fn asymmetric_links_reorder_against_fifo() {
    // rank0→rank1 is slow, rank0→rank2→(fast relay)→rank1 is fast: the
    // relayed copy must overtake the direct one in virtual time.
    let order = Arc::new(parking_lot::Mutex::new(Vec::new()));
    let o2 = order.clone();
    Machine::run_sim(
        cfg(3).coalescing(1),
        SimPlan::new(5).latency(100).link(0, 1, 1_000_000),
        move |ctx| {
            let order = o2.clone();
            let mt = ctx.register(move |ctx, tag: u64| {
                if ctx.rank() == 1 {
                    order.lock().push(tag);
                } else if ctx.rank() == 2 {
                    ctx.send(1, tag);
                }
            });
            ctx.epoch(|ctx| {
                if ctx.rank() == 0 {
                    mt.send(ctx, 1, 1); // slow direct path
                    mt.send(ctx, 2, 2); // fast relayed path
                }
            });
        },
    )
    .expect("sim run");
    assert_eq!(*order.lock(), vec![2, 1], "relay must overtake slow link");
}

#[test]
fn sim_report_trace_records_network_events() {
    let run = Machine::run_sim(cfg(2).coalescing(1), SimPlan::new(3).record(128), |ctx| {
        let mt = ctx.register(|_ctx, _: u8| {});
        ctx.epoch(|ctx| {
            if ctx.rank() == 0 {
                for _ in 0..5 {
                    mt.send(ctx, 1, 0);
                }
            }
        });
    })
    .expect("sim run");
    use dgp_am::SimEventKind;
    let delivers = run
        .report
        .trace
        .iter()
        .filter(|e| e.kind == SimEventKind::Deliver)
        .count();
    assert!(delivers >= 5, "trace should record deliveries: {delivers}");
    let mut last = 0;
    for ev in &run.report.trace {
        assert!(ev.t_ns >= last, "trace must be time-ordered");
        last = ev.t_ns;
    }
}

#[test]
#[should_panic(expected = "threads_per_rank")]
fn multithreaded_ranks_rejected() {
    let _ = Machine::run_sim(cfg(2).threads_per_rank(2), SimPlan::new(1), |_ctx| {});
}

#[test]
fn chaos_faults_compose_with_modeled_links() {
    // Full chaos plan over modeled links: reliability must still deliver
    // exactly once, bit-identically across two identical runs.
    let run_once = || {
        let hits = Arc::new(AtomicU64::new(0));
        let h2 = hits.clone();
        let run = Machine::run_sim(
            cfg(4).coalescing(2).faults(FaultPlan::chaos(1234)),
            SimPlan::new(55).latency(200).jitter(1_000),
            move |ctx| {
                let hits = h2.clone();
                let mt = ctx.register(move |_ctx, x: u64| {
                    hits.fetch_add(x, SeqCst);
                });
                ctx.epoch(|ctx| {
                    for d in 0..ctx.num_ranks() {
                        mt.send(ctx, d, 1);
                    }
                });
                ctx.stats().retransmits
            },
        )
        .expect("sim run");
        (hits.load(SeqCst), run.results, run.report.flight_digest)
    };
    let a = run_once();
    let b = run_once();
    assert_eq!(a.0, 16, "exactly-once under chaos");
    assert_eq!(a, b, "chaos over modeled links is still deterministic");
}
