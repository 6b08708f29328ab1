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
mod postmortem;
mod run;
mod send;
mod shared;
mod worker;

pub use ctx::{AmCtx, HandlerCtx, MessageType};
pub(crate) use envelope::{Ack, Envelope, Packet};
pub use envelope::{Flushable, RankId};
pub use run::{Machine, SimError, SimRun};
pub(crate) use shared::Shared;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{MachineConfig, TerminationMode};
    use crate::fault::FaultPlan;
    use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
    use std::sync::Arc;

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
    fn four_counter_wave_terminates() {
        let hops = Arc::new(AtomicU64::new(0));
        let h2 = hops.clone();
        Machine::run(
            cfg(4).termination(TerminationMode::FourCounterWave),
            move |ctx| {
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
            },
        );
        assert_eq!(hops.load(SeqCst), 4 * 51);
    }

    #[test]
    fn many_empty_epochs_stay_live_in_both_modes() {
        // Rings are the only prompt wake; under chaos the reliability
        // layer is installed and the ceiling is its only periodic wake.
        for mode in [
            TerminationMode::SharedCounters,
            TerminationMode::FourCounterWave,
        ] {
            for faults in [None, Some(FaultPlan::chaos(0xC0FFEE))] {
                let mut c = cfg(4).termination(mode);
                if let Some(plan) = faults {
                    c = c.faults(plan);
                }
                let out = Machine::run(c, |ctx| {
                    for _ in 0..300 {
                        ctx.epoch(|_| {});
                    }
                    ctx.stats().epochs
                });
                assert_eq!(out[0], 4 * 300, "{mode:?}");
            }
        }
    }

    #[test]
    fn one_rank_never_waits_at_the_ceiling() {
        let out = Machine::run(cfg(1), |ctx| {
            let mt = ctx.register(|_ctx, _: u64| {});
            for round in 0..50u64 {
                ctx.epoch(|ctx| mt.send(ctx, 0, round));
            }
            ctx.stats().idle_timeouts
        });
        assert_eq!(out, vec![0]);
    }

    #[test]
    fn parked_packets_are_released_by_ceiling_waits() {
        // Every envelope is parked for a few pump ticks and nobody rings
        // for the fault layer's clock: some waits must end at the ceiling.
        let plan = FaultPlan::new(7).delay(1.0, 4..64);
        let out = Machine::run(cfg(2).faults(plan), |ctx| {
            let mt = ctx.register(|_ctx, _: u64| {});
            for round in 0..20u64 {
                ctx.epoch(|ctx| mt.send(ctx, 1 - ctx.rank(), round));
            }
            ctx.stats()
        });
        assert!(out[0].injected_delays > 0);
        assert!(out[0].idle_timeouts > 0, "{:?}", out[0]);
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
}
