//! Counter-consistency stress suite for the batched hot path.
//!
//! The runtime accumulates `sent`/`handled`/statistic deltas in
//! thread-local counters and publishes them at envelope boundaries (see
//! INTERNALS.md §9). These tests drive epochs that combine everything
//! that touches those counters at once — coalescing, handler re-sends,
//! a caching layer, a reduction layer with a registered flushable, and
//! multi-threaded ranks — and assert after *every* epoch that the
//! published counters equal the exact ground truth: `sent == handled`
//! machine-wide, exact per-type totals, and exact layer statistics.
//! Termination firing early, or any delta left unpublished at the epoch
//! boundary, fails these assertions.
//!
//! The chaos variants re-run the same workload under the seeded fault
//! plan (drops/dups/delays/reorders + retransmission); logical counters
//! must come out bit-identical to the fault-free run. Seeds are fixed so
//! failures reproduce; `DGP_CHAOS_SEED` adds one more (CI sweeps
//! several).

use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::sync::Arc;

use dgp_am::{CachingSender, FaultPlan, Machine, MachineConfig, ReducingSender};

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

const RANKS: usize = 4;
/// Relay chain length: one chain per rank per epoch, `HOPS + 1` messages
/// each (left counts HOPS down to 0), re-sent from inside handlers.
const HOPS: u64 = 50;
/// Distinct cached payloads per rank per epoch (each a cache miss).
const DISTINCT: u64 = 8;
/// Duplicate sends of the first cached payload (each a cache hit),
/// issued immediately after it so no later insert can evict its entry.
const DUPS: u64 = 4;
/// Reduction keys per rank per epoch; each key is offered twice, so
/// every offer ends as exactly one forward or one combine.
const KEYS: u64 = 8;
const EPOCHS: u64 = 2;

fn run_workload(cfg: MachineConfig, expect_faults: bool) {
    let relay_hits = Arc::new(AtomicU64::new(0));
    let cached_hits = Arc::new(AtomicU64::new(0));
    let reduced_sum = Arc::new(AtomicU64::new(0));
    let (r2, c2, s2) = (relay_hits.clone(), cached_hits.clone(), reduced_sum.clone());
    let faults_seen = Machine::run(cfg, move |ctx| {
        let relay_hits = r2.clone();
        let relay = ctx.register_named("relay", move |ctx, left: u64| {
            relay_hits.fetch_add(1, SeqCst);
            if left > 0 {
                let next = (ctx.rank() + 1) % ctx.num_ranks();
                ctx.send(next, left - 1);
            }
        });
        let cached_hits = c2.clone();
        let cached_mt = ctx.register_named("cached", move |_ctx, _v: u64| {
            cached_hits.fetch_add(1, SeqCst);
        });
        let reduced_sum = s2.clone();
        let reduced_mt = ctx.register_named("reduced", move |_ctx, (_k, v): (u64, u64)| {
            reduced_sum.fetch_add(v, SeqCst);
        });
        let cache = CachingSender::new(cached_mt, ctx.num_ranks(), 64);
        let red = ReducingSender::new(reduced_mt, ctx.num_ranks(), 64, |a: u64, b: u64| a + b);
        ctx.register_flushable(red.clone());

        let n = RANKS as u64;
        for e in 0..EPOCHS {
            ctx.epoch(|ctx| {
                let dest = (ctx.rank() + 1) % ctx.num_ranks();
                relay.send(ctx, dest, HOPS);
                cache.send(ctx, dest, 1000);
                for _ in 0..DUPS {
                    cache.send(ctx, dest, 1000);
                }
                for v in 1..DISTINCT {
                    cache.send(ctx, dest, 1000 + v);
                }
                for k in 0..KEYS {
                    red.send(ctx, dest, k, 1);
                    red.send(ctx, dest, k, 1);
                }
            });
            // Epoch ended: every thread's deltas must be published and
            // every coalescing buffer empty.
            assert_eq!(
                ctx.buffered_pending(),
                0,
                "epoch ended with coalesced messages still buffered"
            );
            cache.clear();

            let done = e + 1;
            let stats = ctx.stats();
            assert_eq!(
                stats.messages_sent,
                stats.messages_handled,
                "rank {}: counters unbalanced after epoch {done}",
                ctx.rank()
            );
            let relay_total = n * (HOPS + 1) * done;
            let cached_total = n * DISTINCT * done;
            let offers = n * 2 * KEYS * done;
            assert_eq!(stats.cache_hits, n * DUPS * done, "cache hits drifted");
            assert_eq!(stats.cache_misses, cached_total, "cache misses drifted");
            assert_eq!(
                stats.reduction_forwards + stats.reduction_combines,
                offers,
                "reduction offers leaked or double-counted"
            );

            let ts = ctx.type_stats();
            let by = |name: &str| {
                ts.iter()
                    .find(|t| t.name == name)
                    .unwrap_or_else(|| panic!("type {name} missing"))
            };
            let (relay_ts, cached_ts, reduced_ts) = (by("relay"), by("cached"), by("reduced"));
            assert_eq!(
                (relay_ts.sent, relay_ts.handled),
                (relay_total, relay_total),
                "relay per-type totals drifted after epoch {done}"
            );
            assert_eq!(
                (cached_ts.sent, cached_ts.handled),
                (cached_total, cached_total),
                "cached per-type totals drifted after epoch {done}"
            );
            assert_eq!(
                reduced_ts.sent, stats.reduction_forwards,
                "every reduction forward is exactly one send"
            );
            assert_eq!(
                reduced_ts.handled, reduced_ts.sent,
                "reduced per-type totals unbalanced after epoch {done}"
            );
            assert_eq!(
                stats.messages_sent,
                relay_total + cached_total + reduced_ts.sent,
                "machine total is not the sum of the per-type totals"
            );
        }
        ctx.stats().faults_injected()
    });
    if expect_faults {
        assert!(
            faults_seen[0] > 0,
            "chaos plan injected nothing — the chaos variant tested nothing"
        );
    }
    // Cross-thread ground truth observed by the handlers themselves.
    let n = RANKS as u64;
    assert_eq!(relay_hits.load(SeqCst), n * (HOPS + 1) * EPOCHS);
    assert_eq!(cached_hits.load(SeqCst), n * DISTINCT * EPOCHS);
    assert_eq!(reduced_sum.load(SeqCst), n * 2 * KEYS * EPOCHS);
}

fn base_cfg() -> MachineConfig {
    MachineConfig::new(RANKS).threads_per_rank(2).coalescing(4)
}

#[test]
fn counters_exact_shared_counters_mode() {
    run_workload(base_cfg(), false);
}

#[test]
fn counters_exact_default_coalescing_single_thread() {
    // Default capacity (64) exceeds every per-dest flow here, so nothing
    // ships on the capacity path: the idle-flush publish points alone
    // must still account for everything.
    run_workload(MachineConfig::new(RANKS), false);
}

#[test]
fn counters_exact_under_chaos_shared_counters_mode() {
    for seed in seeds() {
        run_workload(base_cfg().faults(FaultPlan::chaos(seed)), true);
    }
}

// Causal tracing at full sampling + flight-recorder rings + span recorder,
// all under chaos: the observability paths (trace-context stamping on
// every envelope, thread-local ring pushes, span records) must never
// perturb the published sent/handled/layer totals.
#[test]
fn counters_exact_with_tracing_and_flight_under_chaos() {
    for seed in seeds() {
        run_workload(
            base_cfg()
                .trace_sampling(1)
                .flight(256)
                .profile(true)
                .faults(FaultPlan::chaos(seed)),
            true,
        );
    }
}

// The opposite extreme: every observability surface off. The hot path's
// sampling/ring branches must behave identically when pinned off.
#[test]
fn counters_exact_with_observability_disabled() {
    run_workload(base_cfg().trace_sampling(0).flight(0), false);
}
