//! Criterion benches for F3: connected-component algorithms.

use criterion::{criterion_group, criterion_main, Criterion};

use dgp_algorithms::seq;
use dgp_am::MachineConfig;
use dgp_bench::{measure, workloads};
use dgp_core::EngineConfig;

fn bench_cc(c: &mut Criterion) {
    let el = workloads::blobs(8, 500, 7);
    let mut g = c.benchmark_group("cc/blobs8x500");
    g.sample_size(10);
    g.bench_function("parallel_search_pattern", |b| {
        b.iter(|| {
            let m = measure::cc_pattern("ps", &el, MachineConfig::new(4), EngineConfig::default());
            assert!(m.correct);
            m.components
        });
    });
    g.bench_function("label_propagation_am", |b| {
        b.iter(|| {
            let m = measure::cc_label_prop("lp", &el, MachineConfig::new(4));
            assert!(m.correct);
            m.components
        });
    });
    g.bench_function("sequential_union_find", |b| {
        b.iter(|| seq::cc_labels(&el));
    });
    g.finish();
}

criterion_group!(benches, bench_cc);
criterion_main!(benches);
