//! The simulated distributed machine: ranks, typed messages, handlers,
//! epochs.
//!
//! See the crate docs for the model. The important invariants maintained
//! here:
//!
//! * every logical message increments its sender rank's `sent` counter
//!   *before* it becomes receivable (it enters a coalescing buffer first,
//!   and the thread-local counter delta it was tallied into is published
//!   before the buffer ships), and the handling rank's `handled` counter
//!   after its handler returns — the basis of termination detection (see
//!   [`crate::termination`] and INTERNALS.md §9);
//! * user code only ever holds an [`AmCtx`] for its own rank/thread, and all
//!   cross-rank effects go through messages;
//! * handlers may send arbitrary messages, including to their own rank.

mod collective;
mod ctx;
mod dispatch;
mod envelope;
mod epoch;
mod inbox;
mod postmortem;
mod run;
mod send;
mod shared;
mod worker;

pub use ctx::{AmCtx, HandlerCtx, MessageType};
pub use envelope::RankId;
pub(crate) use envelope::{Ack, Envelope, Packet};
pub use run::{Machine, SimError, SimRun};
pub(crate) use shared::Shared;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;
    use crate::error::MachineError;
    use crate::fault::FaultPlan;
    use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    fn cfg(ranks: usize) -> MachineConfig {
        MachineConfig::new(ranks)
    }

    #[test]
    fn empty_epoch_terminates() {
        let out = Machine::run(cfg(4), |ctx| {
            ctx.epoch(|_| {});
            ctx.rank()
        });
        assert_eq!(out, vec![0, 1, 2, 3]);
    }

    #[test]
    fn single_message_is_handled_before_epoch_ends() {
        let hits = Arc::new(AtomicU64::new(0));
        let h2 = hits.clone();
        Machine::run(cfg(2), move |ctx| {
            let hits = h2.clone();
            let mt = ctx.register(move |_ctx, x: u64| {
                hits.fetch_add(x, SeqCst);
            });
            ctx.epoch(|ctx| {
                if ctx.rank() == 0 {
                    mt.send(ctx, 1, 41);
                }
            });
            // Termination guarantees visibility.
            assert_eq!(h2.load(SeqCst), 41);
        });
        assert_eq!(hits.load(SeqCst), 41);
    }

    #[test]
    fn handlers_can_send_chains() {
        // Each rank starts a chain that hops around the ring 100 times.
        let hops = Arc::new(AtomicU64::new(0));
        let h2 = hops.clone();
        Machine::run(cfg(4), move |ctx| {
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
        });
        assert_eq!(hops.load(SeqCst), 4 * 100);
    }

    #[test]
    fn multiple_epochs_reuse_the_machine() {
        let total = Arc::new(AtomicU64::new(0));
        let t2 = total.clone();
        Machine::run(cfg(3), move |ctx| {
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
        });
        // 3 ranks * 3 dests * sum(0..10)
        assert_eq!(total.load(SeqCst), 9 * 45);
    }

    #[test]
    fn many_empty_epochs_stay_live() {
        // Rings are the only wake without a reliability layer; under
        // chaos it is installed and its next due event bounds each wait.
        for faults in [None, Some(FaultPlan::chaos(0xC0FFEE))] {
            let mut c = cfg(4);
            if let Some(plan) = faults {
                c = c.faults(plan);
            }
            let out = Machine::run(c, |ctx| {
                for _ in 0..300 {
                    ctx.epoch(|_| {});
                }
                ctx.stats().epochs
            });
            assert_eq!(out[0], 4 * 300);
        }
    }

    #[test]
    fn parked_packets_are_released_at_their_due_time() {
        // Every envelope is parked for 200 ticks (2 ms) and nobody rings
        // for the fault layer's clock: the waiting ranks wake when the
        // release comes due (`Reliability::next_due`), long before the
        // first retransmit (100 ms) could deliver a copy instead.
        let plan = FaultPlan::new(7)
            .delay(1.0, 200..201)
            .backoff_base(10_000)
            .backoff_cap(10_000);
        let out = Machine::run(cfg(2).faults(plan), |ctx| {
            let mt = ctx.register(|_ctx, _: u64| {});
            let mut took: Vec<_> = (0..20u64)
                .map(|round| {
                    let t0 = Instant::now();
                    ctx.epoch(|ctx| mt.send(ctx, 1 - ctx.rank(), round));
                    t0.elapsed()
                })
                .collect();
            took.sort();
            (ctx.stats().injected_delays, took[0], took[took.len() / 2])
        });
        let (delays, fastest, median) = out[0];
        assert_eq!(delays, 40, "every envelope parked");
        assert!(fastest >= Duration::from_millis(1), "{fastest:?}");
        assert!(median < Duration::from_millis(50), "{median:?}");
    }

    #[test]
    fn a_quiet_peer_costs_the_waiting_rank_no_rounds() {
        // Rank 1's epoch body runs 50 ms without sending. Rank 0 owes no
        // clock (no reliability layer, no watchdog), so it sleeps in
        // termination detection until rank 1 decides and rings it.
        let out = Machine::run(cfg(2).profile(true), |ctx| {
            ctx.epoch(|ctx| {
                if ctx.rank() == 1 {
                    std::thread::sleep(Duration::from_millis(50));
                }
            });
            ctx.barrier();
            let rec = ctx.recorder().expect("profiling on");
            rec.spans_of(ctx.rank())
                .iter()
                .filter(|s| s.name == "termination.counters")
                .map(|s| s.arg1)
                .collect::<Vec<_>>()
        });
        assert_eq!(out[0].len(), 1, "{out:?}");
        assert!(out[0][0] <= 4, "rank 0 ran {} detection rounds", out[0][0]);
    }

    #[test]
    fn epoch_deadline_fires_with_no_fault_layer() {
        // Rank 0 waits in termination detection while rank 1's body
        // outlives the deadline: the wait must end at the deadline it
        // owes, not at rank 1's eventual ring (by then rank 1 is idle).
        let err = Machine::try_run(cfg(2).epoch_deadline(Duration::from_millis(250)), |ctx| {
            ctx.epoch(|ctx| {
                if ctx.rank() == 1 {
                    std::thread::sleep(Duration::from_millis(750));
                }
            });
        })
        .expect_err("rank 1 misses the deadline");
        match err {
            MachineError::EpochDeadline { stuck_ranks, .. } => assert_eq!(stuck_ranks, [1]),
            other => panic!("expected EpochDeadline, got {other}"),
        }
    }

    #[test]
    fn a_worker_handler_panic_releases_every_worker() {
        // Rank 1's main thread sleeps in its epoch body, so a handler
        // worker runs the panicking handler; poison must wake the
        // workers asleep on every inbox, or the run never joins them.
        let started = Instant::now();
        let err = Machine::try_run(cfg(2).threads_per_rank(4), |ctx| {
            let mt = ctx.register(|ctx, _: u64| {
                assert_ne!(ctx.rank(), 1, "injected handler failure");
            });
            ctx.epoch(|ctx| {
                if ctx.rank() == 0 {
                    mt.send(ctx, 1, 7);
                } else {
                    std::thread::sleep(Duration::from_millis(50));
                }
            });
        })
        .expect_err("the handler panic must surface");
        assert!(
            matches!(err, MachineError::HandlerPanicked { rank: 1, .. }),
            "{err}"
        );
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "a hang, not fail-fast"
        );
    }

    #[test]
    fn multithreaded_ranks_handle_messages() {
        let hits = Arc::new(AtomicU64::new(0));
        let h2 = hits.clone();
        Machine::run(cfg(2).threads_per_rank(4), move |ctx| {
            let hits = h2.clone();
            let mt = ctx.register(move |_ctx, _: u32| {
                hits.fetch_add(1, SeqCst);
            });
            ctx.epoch(|ctx| {
                for i in 0..1000u32 {
                    mt.send(ctx, (i as usize) % ctx.num_ranks(), i);
                }
            });
        });
        assert_eq!(hits.load(SeqCst), 2000);
    }

    #[test]
    fn coalescing_reduces_envelopes() {
        let run = |cap: usize| {
            let out = Machine::run(cfg(2).coalescing(cap), |ctx| {
                let mt = ctx.register(|_ctx, _: u32| {});
                ctx.epoch(|ctx| {
                    if ctx.rank() == 0 {
                        for i in 0..256u32 {
                            mt.send(ctx, 1, i);
                        }
                    }
                });
                ctx.stats().envelopes_sent
            });
            out[0]
        };
        let coarse = run(64);
        let fine = run(1);
        assert!(coarse <= 256 / 64 + 2, "coarse={coarse}");
        assert!(fine >= 256, "fine={fine}");
    }

    #[test]
    fn epoch_flush_performs_available_work() {
        let seen = Arc::new(AtomicU64::new(0));
        let s2 = seen.clone();
        Machine::run(cfg(1), move |ctx| {
            let seen = s2.clone();
            let mt = ctx.register(move |_ctx, x: u64| {
                seen.fetch_add(x, SeqCst);
            });
            ctx.epoch(|ctx| {
                mt.send(ctx, 0, 5);
                ctx.epoch_flush();
                // Single rank: after the flush the handler must have run.
                assert_eq!(s2.load(SeqCst), 5);
            });
        });
        assert_eq!(seen.load(SeqCst), 5);
    }

    #[test]
    fn try_finish_ends_quiet_epoch() {
        let out = Machine::run(cfg(4), |ctx| {
            let mt = ctx.register(|_ctx, _: u8| {});
            ctx.epoch(|ctx| {
                if ctx.rank() == 0 {
                    for d in 0..ctx.num_ranks() {
                        mt.send(ctx, d, 1);
                    }
                }
                let mut spins = 0u64;
                while !ctx.try_finish() {
                    spins += 1;
                }
                spins
            })
        });
        assert_eq!(out.len(), 4);
    }

    #[test]
    fn messages_to_self_work() {
        let hits = Arc::new(AtomicU64::new(0));
        let h2 = hits.clone();
        Machine::run(cfg(1), move |ctx| {
            let hits = h2.clone();
            let mt = ctx.register(move |_ctx, _: u8| {
                hits.fetch_add(1, SeqCst);
            });
            ctx.epoch(|ctx| {
                for _ in 0..100 {
                    mt.send(ctx, 0, 0);
                }
            });
        });
        assert_eq!(hits.load(SeqCst), 100);
    }

    #[test]
    fn results_returned_in_rank_order() {
        let out = Machine::run(cfg(6), |ctx| ctx.rank() * 10);
        assert_eq!(out, vec![0, 10, 20, 30, 40, 50]);
    }

    #[test]
    #[should_panic(expected = "do not nest")]
    fn nested_epochs_panic() {
        Machine::run(cfg(1), |ctx| {
            ctx.epoch(|ctx| {
                ctx.epoch(|_| {});
            });
        });
    }

    #[test]
    fn stats_count_messages() {
        let out = Machine::run(cfg(2), |ctx| {
            let mt = ctx.register(|_ctx, _: u32| {});
            ctx.epoch(|ctx| {
                if ctx.rank() == 0 {
                    for i in 0..10u32 {
                        mt.send(ctx, 1, i);
                    }
                }
            });
            ctx.stats()
        });
        assert_eq!(out[0].messages_sent, 10);
        assert_eq!(out[0].messages_handled, 10);
        assert_eq!(out[0].epochs, 2);
    }

    #[test]
    fn two_message_types_dispatch_correctly() {
        let a = Arc::new(AtomicU64::new(0));
        let b = Arc::new(AtomicU64::new(0));
        let (a2, b2) = (a.clone(), b.clone());
        Machine::run(cfg(2), move |ctx| {
            let a = a2.clone();
            let b = b2.clone();
            let ta = ctx.register(move |_ctx, x: u64| {
                a.fetch_add(x, SeqCst);
            });
            let tb = ctx.register(move |_ctx, x: u32| {
                b.fetch_add(x as u64, SeqCst);
            });
            ctx.epoch(|ctx| {
                if ctx.rank() == 0 {
                    ta.send(ctx, 1, 100u64);
                    tb.send(ctx, 1, 1u32);
                }
            });
        });
        assert_eq!(a.load(SeqCst), 100);
        assert_eq!(b.load(SeqCst), 1);
    }

    /// The vote runs after the epoch has terminated machine-wide, so it
    /// sees every handler's writes, worker threads' included; its
    /// reduction is the exit round itself, so N epochs cost 2N rounds
    /// whether they vote or not.
    #[test]
    fn epoch_reduce_votes_at_the_exit_and_n_epochs_cost_2n_rounds() {
        let body = |ctx: &AmCtx| {
            let seen = Arc::new(AtomicU64::new(0));
            let s2 = seen.clone();
            let mt = ctx.register(move |_ctx, x: u64| {
                s2.fetch_add(x, SeqCst);
            });
            let before = ctx.stats().collectives;
            let n = ctx.num_ranks() as u64;
            let votes: Vec<(u64, u64)> = (1..=4u64)
                .map(|round| {
                    let send = |ctx: &AmCtx| {
                        for dest in 0..ctx.num_ranks() {
                            mt.send(ctx, dest, round);
                        }
                        round * n
                    };
                    ctx.epoch_reduce(send, || seen.swap(0, SeqCst), u64::wrapping_add)
                })
                .collect();
            ctx.epoch(|_| {});
            let (_, lowest) = ctx.epoch_reduce(|_| {}, || 10 + ctx.rank() as u64, u64::min);
            (votes, lowest, ctx.stats().collectives - before)
        };
        // Three ranks each send `round` to every rank: 3·round out, 9·round in.
        let votes: Vec<(u64, u64)> = (1..=4u64).map(|r| (3 * r, 9 * r)).collect();
        let want = (votes, 10, 2 * 6);
        for out in Machine::run(cfg(3).threads_per_rank(2), body) {
            assert_eq!(out, want);
        }
        let sim = Machine::run_sim(cfg(3), crate::sim::SimPlan::new(5), body).expect("sim run");
        for out in sim.results {
            assert_eq!(out, want);
        }
    }
}

#[cfg(test)]
mod type_stats_tests {
    use super::*;
    use crate::config::MachineConfig;

    #[test]
    fn per_type_counters_track_both_sides() {
        let out = Machine::run(MachineConfig::new(2), |ctx| {
            let ping = ctx.register_named("ping", |_ctx, _x: u32| {});
            let pong = ctx.register_named("pong", |_ctx, _x: u64| {});
            ctx.epoch(|ctx| {
                if ctx.rank() == 0 {
                    for i in 0..7u32 {
                        ping.send(ctx, 1, i);
                    }
                    pong.send(ctx, 1, 1u64);
                }
            });
            ctx.type_stats()
        });
        let stats = &out[0];
        assert_eq!(stats.len(), 2);
        assert_eq!(
            (stats[0].name.as_str(), stats[0].sent, stats[0].handled),
            ("ping", 7, 7)
        );
        assert_eq!(
            (stats[1].name.as_str(), stats[1].sent, stats[1].handled),
            ("pong", 1, 1)
        );
    }

    #[test]
    fn default_names_use_type_name() {
        let out = Machine::run(MachineConfig::new(1), |ctx| {
            let mt = ctx.register(|_ctx, _x: (u64, f64)| {});
            ctx.epoch(|ctx| mt.send(ctx, 0, (1, 2.0)));
            ctx.type_stats()
        });
        assert!(out[0][0].name.contains("u64"), "{:?}", out[0][0].name);
    }

    #[test]
    fn sum_ranks_wraps_alike_on_threads_and_under_the_simulator() {
        let body = |ctx: &AmCtx| ctx.sum_ranks(if ctx.rank() == 0 { u64::MAX } else { 1 });
        assert_eq!(Machine::run(MachineConfig::new(2), body), vec![0, 0]);
        let sim = Machine::run_sim(MachineConfig::new(2), crate::sim::SimPlan::new(1), body)
            .expect("sim run");
        assert_eq!(sim.results, vec![0, 0]);
    }
}
