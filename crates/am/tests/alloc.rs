//! Allocation counts on the inproc hot path: once warm, an epoch of
//! envelopes allocates a bounded number of times, not once per envelope.
//!
//! The counting global allocator (`common/counting_alloc.rs`) tallies the
//! allocations (and reallocations) made by threads that opted in — the
//! rank threads of the machine under test — so other tests running beside
//! it in this binary do not count.

#[path = "common/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{allocs, count_this_thread};
use dgp_am::{AmCtx, Machine, MachineConfig, TransportKind};

/// Inproc explicitly: a wire backend serializes, and that is not the
/// path these tests price.
fn machine(ranks: usize, coalescing: usize) -> MachineConfig {
    MachineConfig::new(ranks)
        .threads_per_rank(1)
        .transport(TransportKind::Inproc)
        .coalescing(coalescing)
}

/// Allocations the machine's rank threads made between two barriers
/// around `measured`, after `warm` has run once. Counting starts on the
/// rank threads; other ranks' tallies land in the same counter, so the
/// barriers bracket everything every rank did in `measured`.
fn allocs_around(ctx: &AmCtx, warm: impl Fn(&AmCtx), measured: impl Fn(&AmCtx)) -> u64 {
    count_this_thread();
    warm(ctx);
    ctx.barrier();
    let before = allocs();
    ctx.barrier();
    measured(ctx);
    ctx.barrier();
    allocs() - before
}

#[test]
fn ping_pong_allocates_per_epoch_not_per_message() {
    const CHAINS: u64 = 8;
    const HOPS: u64 = 500;
    const EPOCHS: u64 = 10;
    // Bookkeeping every epoch allocates whatever it carries (its
    // collective rounds, its sealed profile): a message-free epoch of this
    // machine allocates about 4 times.
    const PER_EPOCH: u64 = 8;
    let counts = Machine::run(machine(2, 1), |ctx| {
        let mt = ctx.register(|h, left: u64| {
            if left > 0 {
                h.send(1 - h.rank(), left - 1);
            }
        });
        let epoch = |ctx: &AmCtx| {
            ctx.epoch(|ctx| {
                if ctx.rank() == 0 {
                    for _ in 0..CHAINS {
                        mt.send(ctx, 1, HOPS - 1);
                    }
                }
            })
        };
        allocs_around(ctx, epoch, |ctx| (0..EPOCHS).for_each(|_| epoch(ctx)))
    });
    let n = counts[0];
    let messages = CHAINS * HOPS * EPOCHS;
    assert!(
        n <= PER_EPOCH * EPOCHS,
        "{n} allocations over {EPOCHS} epochs of {} messages ({:.3} per message)",
        messages / EPOCHS,
        n as f64 / messages as f64
    );
}

#[test]
fn self_send_and_flush_does_not_allocate_per_iteration() {
    const N: u64 = 10_000;
    // One rank: its thread is the only one counting, no barriers needed.
    let counts = Machine::run(machine(1, 64), |ctx| {
        count_this_thread();
        let mt = ctx.register(|_, _: u64| {});
        ctx.epoch(|ctx| {
            let step = || {
                mt.send(ctx, 0, 1);
                ctx.epoch_flush();
            };
            step();
            let before = allocs();
            (0..N).for_each(|_| step());
            allocs() - before
        })
    });
    let n = counts[0];
    assert!(n < N / 100, "{n} allocations over {N} send-and-flush steps");
}
