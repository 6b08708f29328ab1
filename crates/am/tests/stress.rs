//! Runtime stress tests: epochs must neither deadlock nor terminate early
//! under randomized message storms and any thread/rank shape.

use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::sync::Arc;

use proptest::prelude::*;

use dgp_am::{Machine, MachineConfig};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random fan-out storms: each handled message spawns `fanout` children
    /// until its depth is exhausted. The exact number of handler calls is
    /// predictable; early termination would lose some, a hang would time
    /// out the suite.
    #[test]
    fn storms_complete_exactly(
        ranks in 1usize..5,
        threads in 1usize..4,
        depth in 0u32..7,
        fanout in 1u64..4,
    ) {
        let handled = Arc::new(AtomicU64::new(0));
        let h2 = handled.clone();
        Machine::run(
            MachineConfig::new(ranks).threads_per_rank(threads),
            move |ctx| {
                let handled = h2.clone();
                let mt = ctx.register(move |ctx, (d, salt): (u32, u64)| {
                    handled.fetch_add(1, SeqCst);
                    if d > 0 {
                        for i in 0..fanout {
                            let dest = ((salt + i) % ctx.num_ranks() as u64) as usize;
                            ctx.send(dest, (d - 1, salt.wrapping_mul(31).wrapping_add(i)));
                        }
                    }
                });
                ctx.epoch(|ctx| {
                    mt.send(ctx, ctx.rank(), (depth, ctx.rank() as u64));
                });
            },
        );
        // Each rank seeds one storm of size (fanout^(depth+1)-1)/(fanout-1)
        // (or depth+1 when fanout == 1).
        let per_storm: u64 = if fanout == 1 {
            depth as u64 + 1
        } else {
            (fanout.pow(depth + 1) - 1) / (fanout - 1)
        };
        prop_assert_eq!(handled.load(SeqCst), ranks as u64 * per_storm);
    }

    /// Multiple epochs with randomized work interleaved with empty epochs:
    /// counters never leak across epoch boundaries.
    #[test]
    fn epoch_sequences_account_exactly(
        ranks in 1usize..4,
        plan in proptest::collection::vec(0u64..50, 1..8),
    ) {
        let handled = Arc::new(AtomicU64::new(0));
        let h2 = handled.clone();
        let plan2 = plan.clone();
        Machine::run(MachineConfig::new(ranks), move |ctx| {
            let handled = h2.clone();
            let mt = ctx.register(move |_ctx, _n: u64| {
                handled.fetch_add(1, SeqCst);
            });
            for &count in &plan2 {
                ctx.epoch(|ctx| {
                    for i in 0..count {
                        mt.send(ctx, (i % ctx.num_ranks() as u64) as usize, i);
                    }
                });
            }
        });
        let expect: u64 = plan.iter().sum::<u64>() * ranks as u64;
        prop_assert_eq!(handled.load(SeqCst), expect);
    }

    /// The collective `share` primitive always hands every rank the same
    /// instance (here: an Arc whose address is compared).
    #[test]
    fn share_is_single_instance(ranks in 1usize..6, rounds in 1usize..5) {
        let out = Machine::run(MachineConfig::new(ranks), move |ctx| {
            // Keep every shared value alive so addresses are unique per
            // round and comparable across ranks.
            let vals: Vec<Arc<Vec<u64>>> =
                (0..rounds).map(|_| ctx.share(|| Arc::new(vec![1, 2, 3]))).collect();
            vals.iter().map(|v| Arc::as_ptr(v) as usize).collect::<Vec<_>>()
        });
        for round in 0..rounds {
            let first = out[0][round];
            prop_assert!(out.iter().all(|p| p[round] == first));
        }
    }
}

/// try_finish under adversarial late work: a rank keeps injecting from its
/// epoch body for a while before joining the try_finish crowd; nothing is
/// lost.
#[test]
fn try_finish_with_straggler() {
    let handled = Arc::new(AtomicU64::new(0));
    let h2 = handled.clone();
    Machine::run(MachineConfig::new(4), move |ctx| {
        let handled = h2.clone();
        let mt = ctx.register(move |ctx, hops: u32| {
            handled.fetch_add(1, SeqCst);
            if hops > 0 {
                ctx.send((ctx.rank() + 1) % ctx.num_ranks(), hops - 1);
            }
        });
        ctx.epoch(|ctx| {
            if ctx.rank() == 3 {
                // Straggler: inject 50 chains with pauses.
                for burst in 0..10 {
                    for _ in 0..5 {
                        mt.send(ctx, burst % ctx.num_ranks(), 20);
                    }
                    ctx.epoch_flush();
                }
            }
            while !ctx.try_finish() {
                ctx.epoch_flush();
            }
        });
    });
    assert_eq!(handled.load(SeqCst), 50 * 21);
}

/// A worker thread's handler deposits deferred work that rank 1's main
/// thread has not seen, then the main thread calls `try_finish`. Rank 0's
/// exit vote must find the message that work sends already handled: the
/// epoch may not end while a rank holds deferred work it has not looked
/// at. `raised` puts the deposit after the main thread has been through
/// `try_finish` once (its idle declaration predates the deposit); without
/// it the deposit lands between the caller's look at its work and its
/// `try_finish`. Each step waits for the event it follows; none sleeps.
fn deferred_work_is_never_stranded(raised: bool) {
    #[derive(Default)]
    struct Steps {
        started: AtomicU64,
        go: AtomicU64,
        pending: AtomicU64,
        late_handled: AtomicU64,
        /// Rank 0's `try_finish` calls that returned `false`.
        refused: AtomicU64,
        decided: AtomicU64,
    }
    let steps = Arc::new(Steps::default());
    let cfg = MachineConfig::new(2).threads_per_rank(2);
    let votes = Machine::run(cfg, move |ctx| {
        let st = steps.clone();
        // Rank 0 -> rank 1, handled on a worker (rank 1's main thread does
        // not drain until the handler has started); the deposit waits for
        // the main thread's go.
        let deposit = ctx.register(move |h, _: u64| {
            assert_ne!(h.thread(), 0, "a worker takes the message");
            st.started.store(1, SeqCst);
            while st.go.load(SeqCst) == 0 {
                std::thread::yield_now();
            }
            st.pending.store(1, SeqCst);
        });
        let st = steps.clone();
        let late = ctx.register(move |_, _: u64| st.late_handled.store(1, SeqCst));
        let st = &steps;
        let vote = || match ctx.rank() {
            0 => st.late_handled.load(SeqCst),
            _ => 1,
        };
        let wait = |done: &dyn Fn() -> bool| {
            while !done() {
                std::thread::yield_now();
            }
        };
        // The worker has published the deposit's `handled` count, and rank
        // 0 has since had two chances to decide over rank 1's declaration.
        let settled = || {
            wait(&|| ctx.stats().messages_handled > 0);
            let since = st.refused.load(SeqCst);
            wait(&|| st.decided.load(SeqCst) == 1 || st.refused.load(SeqCst) >= since + 2);
        };
        let body = |ctx: &dgp_am::AmCtx| {
            if ctx.rank() == 0 {
                deposit.send(ctx, 1, 0);
                while !ctx.try_finish() {
                    st.refused.fetch_add(1, SeqCst);
                    ctx.epoch_flush();
                }
                st.decided.store(1, SeqCst);
                return;
            }
            wait(&|| st.started.load(SeqCst) == 1);
            loop {
                if st.pending.swap(0, SeqCst) == 1 {
                    settled();
                    late.send(ctx, 0, 0);
                }
                let first = st.go.load(SeqCst) == 0;
                if first && !raised {
                    st.go.store(1, SeqCst);
                    settled();
                }
                if ctx.try_finish() {
                    break;
                }
                if first && raised {
                    st.go.store(1, SeqCst);
                    wait(&|| st.pending.load(SeqCst) == 1);
                }
            }
        };
        ctx.epoch_reduce(body, vote, u64::min).1
    });
    assert_eq!(
        votes,
        [1, 1],
        "the epoch ended before the deferred work ran"
    );
}

#[test]
fn try_finish_sees_work_deposited_after_the_rank_declared_idle() {
    deferred_work_is_never_stranded(true);
}

#[test]
fn try_finish_sees_work_deposited_before_it_was_called() {
    deferred_work_is_never_stranded(false);
}

/// Every rank sends `PER_PAIR` numbered messages to every rank, itself
/// included, interleaving the destinations, so each inbox takes packets
/// from every source at once. Returns, per receiving rank, how often each
/// (source, number) was handled and whether each source's numbers arrived
/// in order.
fn interleaved_streams(threads: usize, coalescing: usize) -> Vec<(Vec<u8>, bool)> {
    const RANKS: usize = 4;
    const PER_PAIR: usize = 2000;
    let cfg = MachineConfig::new(RANKS)
        .threads_per_rank(threads)
        .coalescing(coalescing);
    Machine::run(cfg, |ctx| {
        let seen: Arc<Vec<AtomicU64>> =
            Arc::new((0..RANKS * PER_PAIR).map(|_| AtomicU64::new(0)).collect());
        let next: Arc<Vec<AtomicU64>> = Arc::new((0..RANKS).map(|_| AtomicU64::new(0)).collect());
        let in_order = Arc::new(std::sync::atomic::AtomicBool::new(true));
        let (s, n, o) = (seen.clone(), next.clone(), in_order.clone());
        let mt = ctx.register(move |_, (src, i): (usize, usize)| {
            s[src * PER_PAIR + i].fetch_add(1, SeqCst);
            if n[src].fetch_add(1, SeqCst) != i as u64 {
                o.store(false, SeqCst);
            }
        });
        ctx.epoch(|ctx| {
            for i in 0..PER_PAIR {
                for k in 0..RANKS {
                    mt.send(ctx, (ctx.rank() + k) % RANKS, (ctx.rank(), i));
                }
            }
        });
        let counts = seen.iter().map(|c| c.load(SeqCst) as u8).collect();
        (counts, in_order.load(SeqCst))
    })
}

#[test]
fn interleaved_streams_arrive_in_order_once_each() {
    for coalescing in [1, 7] {
        for (rank, (counts, in_order)) in interleaved_streams(1, coalescing).into_iter().enumerate()
        {
            assert!(
                counts.iter().all(|&c| c == 1),
                "rank {rank}: a message lost or doubled"
            );
            assert!(
                in_order,
                "rank {rank}: a source's stream reordered (coalescing {coalescing})"
            );
        }
    }
}

#[test]
fn interleaved_streams_on_worker_threads_are_handled_once_each() {
    for coalescing in [1, 7] {
        for (rank, (counts, _)) in interleaved_streams(2, coalescing).into_iter().enumerate() {
            assert!(
                counts.iter().all(|&c| c == 1),
                "rank {rank}: a message lost or doubled"
            );
        }
    }
}
