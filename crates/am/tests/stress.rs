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
