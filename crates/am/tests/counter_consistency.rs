//! Counter-consistency stress suite for the batched hot path.
//!
//! The runtime accumulates `sent`/`handled`/statistic deltas in
//! thread-local counters and publishes them at envelope boundaries (see
//! INTERNALS.md §9). These tests drive epochs that combine everything
//! that touches those counters at once — coalescing, handler re-sends,
//! the dominance cache (`send_min`) from epoch bodies and from handlers,
//! and multi-threaded ranks — and assert after *every* epoch that the
//! published counters equal the exact ground truth: `sent == handled`
//! machine-wide and per type, exact per-type totals, and exact cache
//! statistics. Termination firing early, or any delta left unpublished at
//! the epoch boundary, fails these assertions.
//!
//! The chaos variants re-run the same workload under the seeded fault
//! plan (drops/dups/delays/reorders + retransmission); logical counters
//! must come out bit-identical to the fault-free run. Seeds are fixed so
//! failures reproduce; `DGP_CHAOS_SEED` adds one more (CI sweeps
//! several).

use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::sync::Arc;

use dgp_am::{FaultPlan, Machine, MachineConfig, StatsSnapshot};

mod common;
use common::seeds;

const RANKS: usize = 4;
/// Relay chain length: one chain per rank per epoch, `HOPS + 1` messages
/// each (left counts HOPS down to 0), re-sent from inside handlers.
const HOPS: u64 = 50;
/// Distinct `cached` keys sent from each rank's epoch body (each a miss).
const DISTINCT: u64 = 8;
/// Exact duplicates of the first `cached` key, sent right after it
/// (each a hit).
const DUPS: u64 = 4;
/// `reduced` keys per epoch body, each offered [`REDUCED_OFFERS`]: a
/// value, a strictly lower one (both sent), then a higher and an equal
/// one (both dominated).
const KEYS: u64 = 8;
const REDUCED_OFFERS: [u64; 4] = [10, 5, 7, 5];
/// Handler re-send chain per rank per message type per epoch. Each hop's
/// re-sends share one key, unique machine-wide within the epoch, and are
/// issued back to back by one handler call — so the hits they score do
/// not depend on which thread handles what.
const CHAIN: u64 = 20;
/// Value carried by a `reduced` chain head; each hop lowers it by one.
const HEAD_VALUE: u64 = 1000;
const EPOCHS: u64 = 2;

/// The key of the chain hop that leaves `origin`'s chain with `left`
/// hops to go; disjoint from every epoch-body key.
fn chain_key(left: u64, origin: u64) -> u64 {
    (1 << 20) + left * RANKS as u64 + origin
}

/// A `cached` or `reduced` message: key, value, hops left, chain origin.
type Msg = (u64, u64, u64, u64);

/// Per-epoch, machine-wide ground truth.
struct Expect {
    cached_sent: u64,
    reduced_sent: u64,
    hits: u64,
    misses: u64,
    reduced_sum: u64,
}

fn expect_per_epoch() -> Expect {
    let n = RANKS as u64;
    // Body: DISTINCT keys + the chain head go, DUPS are dropped. Each hop
    // re-sends once and drops its exact duplicate.
    let cached_sent = n * (DISTINCT + 1 + CHAIN);
    let cached_hits = n * (DUPS + CHAIN);
    // Body: per key two go, two are dropped; the chain head goes. Each hop
    // sends a leaf at its value and the continuation one lower, and drops
    // a repeat of the leaf.
    let reduced_sent = n * (2 * KEYS + 1 + 2 * CHAIN);
    let reduced_hits = n * (2 * KEYS + CHAIN);
    let chain_sum: u64 = HEAD_VALUE
        + (1..=CHAIN)
            .map(|i| (HEAD_VALUE - i + 1) + (HEAD_VALUE - i))
            .sum::<u64>();
    Expect {
        cached_sent,
        reduced_sent,
        hits: cached_hits + reduced_hits,
        misses: cached_sent + reduced_sent,
        reduced_sum: n * (KEYS * (10 + 5) + chain_sum),
    }
}

fn run_workload(cfg: MachineConfig, expect_faults: bool) {
    let relay_hits = Arc::new(AtomicU64::new(0));
    let cached_handled = Arc::new(AtomicU64::new(0));
    let reduced_sum = Arc::new(AtomicU64::new(0));
    let (r2, c2, s2) = (
        relay_hits.clone(),
        cached_handled.clone(),
        reduced_sum.clone(),
    );
    let faults_seen = Machine::run(cfg, move |ctx| {
        let relay_hits = r2.clone();
        let relay = ctx.register_named("relay", move |ctx, left: u64| {
            relay_hits.fetch_add(1, SeqCst);
            if left > 0 {
                let next = (ctx.rank() + 1) % ctx.num_ranks();
                ctx.send(next, left - 1);
            }
        });
        let cached_handled = c2.clone();
        let cached = ctx.register_named("cached", move |ctx, (_k, _v, left, o): Msg| {
            cached_handled.fetch_add(1, SeqCst);
            if left > 0 {
                let next = (ctx.rank() + 1) % ctx.num_ranks();
                let k = chain_key(left - 1, o);
                assert!(ctx.send_min(next, k, 0, (k, 0, left - 1, o)));
                assert!(
                    !ctx.send_min(next, k, 0, (k, 0, left - 1, o)),
                    "exact duplicate"
                );
            }
        });
        let reduced_sum = s2.clone();
        let reduced = ctx.register_named("reduced", move |ctx, (_k, v, left, o): Msg| {
            reduced_sum.fetch_add(v, SeqCst);
            if left > 0 {
                let next = (ctx.rank() + 1) % ctx.num_ranks();
                let k = chain_key(left - 1, o);
                assert!(ctx.send_min(next, k, v, (k, v, 0, o)));
                assert!(
                    ctx.send_min(next, k, v - 1, (k, v - 1, left - 1, o)),
                    "lower goes"
                );
                assert!(!ctx.send_min(next, k, v, (k, v, 0, o)), "dominated");
            }
        });

        let n = RANKS as u64;
        let per_epoch = expect_per_epoch();
        let mut before = StatsSnapshot::default();
        for e in 0..EPOCHS {
            ctx.epoch(|ctx| {
                let me = ctx.rank() as u64;
                let dest = (ctx.rank() + 1) % ctx.num_ranks();
                relay.send(ctx, dest, HOPS);
                for v in 0..DISTINCT {
                    let k = 1000 + v;
                    assert!(cached.send_min(ctx, dest, k, 0, (k, 0, 0, me)));
                    if v == 0 {
                        for _ in 0..DUPS {
                            assert!(!cached.send_min(ctx, dest, k, 0, (k, 0, 0, me)));
                        }
                    }
                }
                for k in 0..KEYS {
                    for v in REDUCED_OFFERS {
                        reduced.send_min(ctx, dest, k, v, (k, v, 0, me));
                    }
                }
                let head = chain_key(CHAIN, me);
                cached.send_min(ctx, dest, head, 0, (head, 0, CHAIN, me));
                reduced.send_min(ctx, dest, head, HEAD_VALUE, (head, HEAD_VALUE, CHAIN, me));
            });
            // Epoch ended: every thread's deltas must be published and
            // every coalescing buffer empty.
            assert_eq!(
                ctx.buffered_pending(),
                0,
                "epoch ended with coalesced messages still buffered"
            );

            let done = e + 1;
            let stats = ctx.stats();
            assert_eq!(
                stats.messages_sent,
                stats.messages_handled,
                "rank {}: counters unbalanced after epoch {done}",
                ctx.rank()
            );
            // Same keys and values every epoch: the stamp must forget the
            // previous epoch's bounds, so each epoch scores alike.
            let delta = stats.since(&before);
            assert_eq!(
                (delta.cache_hits, delta.cache_misses),
                (per_epoch.hits, per_epoch.misses),
                "cache statistics of epoch {done} (epoch 2 dominated by epoch 1?)"
            );
            before = stats;

            let ts = ctx.type_stats();
            let by = |name: &str| {
                ts.iter()
                    .find(|t| t.name == name)
                    .unwrap_or_else(|| panic!("type {name} missing"))
            };
            let (relay_ts, cached_ts, reduced_ts) = (by("relay"), by("cached"), by("reduced"));
            let relay_total = n * (HOPS + 1) * done;
            let cached_total = per_epoch.cached_sent * done;
            let reduced_total = per_epoch.reduced_sent * done;
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
                (reduced_ts.sent, reduced_ts.handled),
                (reduced_total, reduced_total),
                "reduced per-type totals drifted after epoch {done}"
            );
            assert_eq!(
                stats.messages_sent,
                relay_total + cached_total + reduced_total,
                "machine total is not the sum of the per-type totals"
            );
            assert_eq!(
                stats.cache_misses,
                cached_total + reduced_total,
                "every cache miss is exactly one send"
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
    let per_epoch = expect_per_epoch();
    assert_eq!(relay_hits.load(SeqCst), n * (HOPS + 1) * EPOCHS);
    assert_eq!(cached_handled.load(SeqCst), per_epoch.cached_sent * EPOCHS);
    assert_eq!(reduced_sum.load(SeqCst), per_epoch.reduced_sum * EPOCHS);
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
