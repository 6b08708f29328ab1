//! Raw message throughput of the AM runtime hot path: an all-to-all
//! storm swept over coalescing capacities (per-message overhead dominates
//! at capacity 1; the runtime should approach hardware-bound rates at the
//! default 64), plus a handler-re-send ping-pong that exercises the
//! receive→handle→send chain. These are the headline numbers that the
//! zero-contention hot-path work (batched counters, epoch-frozen dispatch
//! tables, pooled envelopes) is measured by; the repo benchmark's
//! `am-storm` workload (`BENCHMARK.json`) gates the same scenarios.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use dgp_bench::measure::{all_to_all, ping_pong};

fn bench_all_to_all(c: &mut Criterion) {
    let ranks = 4;
    let per_rank = 100_000u64;
    let mut g = c.benchmark_group("message_rate/all_to_all");
    g.sample_size(10);
    g.throughput(Throughput::Elements(ranks as u64 * per_rank));
    for cap in [1usize, 16, 64, 256] {
        g.bench_function(format!("coalescing={cap}"), |b| {
            b.iter(|| {
                let (msgs, _) = all_to_all(ranks, per_rank, cap);
                assert_eq!(msgs, ranks as u64 * per_rank);
            });
        });
    }
    g.finish();
}

fn bench_ping_pong(c: &mut Criterion) {
    let (chains, hops) = (64u64, 1_000u64);
    let mut g = c.benchmark_group("message_rate/ping_pong");
    g.sample_size(10);
    g.throughput(Throughput::Elements(chains * hops));
    for cap in [1usize, 64] {
        g.bench_function(format!("coalescing={cap}"), |b| {
            b.iter(|| {
                let (msgs, _) = ping_pong(chains, hops, cap);
                assert_eq!(msgs, chains * hops);
            });
        });
    }
    g.finish();
}

criterion_group!(benches, bench_all_to_all, bench_ping_pong);
criterion_main!(benches);
