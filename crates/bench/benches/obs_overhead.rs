//! Overhead of the observability subsystem (`dgp-am::obs` and
//! `dgp-am::trace`): the same message-heavy SSSP run with every surface
//! pinned off, with the always-on defaults (flight recorder rings plus
//! 1-in-64 causal sampling — what every production run pays), with full
//! causal sampling, and with span recording on. The "flight" row is the
//! one the ISSUE gates on: the always-on defaults must stay within a few
//! percent of "off".

use criterion::{criterion_group, criterion_main, Criterion};

use dgp_algorithms::{seq, SsspStrategy};
use dgp_am::MachineConfig;
use dgp_bench::{measure, workloads};
use dgp_core::engine::EngineConfig;

fn bench_obs_overhead(c: &mut Criterion) {
    let el = workloads::rmat_weighted(11, 8, 41);
    let oracle = seq::dijkstra(&el, 0);
    let mut g = c.benchmark_group("obs/overhead");
    g.sample_size(10);
    for (label, cfg) in [
        // Every observability surface pinned off — the floor.
        ("off", MachineConfig::new(4).flight(0).trace_sampling(0)),
        // The always-on defaults: flight rings + 1-in-64 causal sampling.
        ("flight", MachineConfig::new(4)),
        // Causal tracing of every root — the E14/chaos-debug setting.
        ("flight+fulltrace", MachineConfig::new(4).trace_sampling(1)),
        ("profile", MachineConfig::new(4).profile(true)),
    ] {
        let (el, oracle) = (el.clone(), oracle.clone());
        g.bench_function(label, move |b| {
            let cfg = cfg.clone();
            b.iter(|| {
                let m = measure::sssp_pattern(
                    "sssp",
                    &el,
                    cfg.clone(),
                    EngineConfig::default(),
                    0,
                    SsspStrategy::Delta(0.4),
                    &oracle,
                );
                assert!(m.correct);
            });
        });
    }
    g.finish();
}

criterion_group!(benches, bench_obs_overhead);
criterion_main!(benches);
