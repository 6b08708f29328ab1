//! Instrumented end-to-end runs: build the distributed graph, run the
//! algorithm on a simulated machine, collect timing + engine + runtime
//! counters, and validate against the sequential oracle. Also the raw
//! `dgp-am` all-to-all storm and its per-transport sweep behind E16.

use std::time::Instant;

use dgp_algorithms::{handwritten, seq, sssp::Sssp, SsspStrategy};
use dgp_am::{
    AmCtx, EpochProfile, Machine, MachineConfig, ShmConfig, StatsSnapshot, TcpConfig, TransportKind,
};
use dgp_core::engine::EngineConfig;
use dgp_graph::properties::{AtomicVertexMap, EdgeMap};
use dgp_graph::{DistGraph, Distribution, EdgeList, VertexId};

/// One measured SSSP (or BFS-like) run.
#[derive(Debug, Clone)]
pub struct SsspMeasurement {
    /// Row label.
    pub label: String,
    /// Wall-clock milliseconds, machine spawn included.
    pub millis: f64,
    /// Successful relaxations (condition fired).
    pub relaxations: u64,
    /// Relaxation attempts (edges examined).
    pub attempts: u64,
    /// Logical messages sent.
    pub messages: u64,
    /// Coalesced envelopes delivered.
    pub envelopes: u64,
    /// Machine-wide epochs run. The raw `StatsSnapshot::epochs` counter is
    /// bumped by every rank entering the (collective) epoch, so it is
    /// divided by the rank count here.
    pub epochs: u64,
    /// Whether the result matched the oracle.
    pub correct: bool,
    /// Per-epoch counter deltas recorded by the runtime (`dgp-am::obs`):
    /// one entry per epoch, in order. Empty for runs without a machine
    /// (sequential baselines).
    pub profiles: Vec<EpochProfile>,
}

fn dists_match(got: &[f64], want: &[f64]) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(a, b)| (a - b).abs() < 1e-9 || (a.is_infinite() && b.is_infinite()))
}

/// Distribute `el`, run `algo` on `machine` (it returns the distance map
/// plus machine-wide `(relaxations, attempts)`), time it — spawn included,
/// graph build excluded — and check rank 0's snapshot against `oracle`.
fn sssp_measured(
    label: &str,
    el: &EdgeList,
    machine: MachineConfig,
    oracle: &[f64],
    algo: impl Fn(&AmCtx, &DistGraph, &EdgeMap<f64>) -> (AtomicVertexMap<f64>, u64, u64) + Send + Sync,
) -> SsspMeasurement {
    let graph = DistGraph::build(
        el,
        Distribution::block(el.num_vertices(), machine.ranks),
        false,
    );
    let weights = EdgeMap::from_weights(&graph, el);
    let ranks = machine.ranks as u64;
    let t0 = Instant::now();
    let mut out = Machine::run(machine, |ctx| {
        let (dist, relaxations, attempts) = algo(ctx, &graph, &weights);
        (ctx.rank() == 0).then(|| {
            (
                dist.snapshot(),
                relaxations,
                attempts,
                ctx.stats(),
                ctx.epoch_profiles(),
            )
        })
    });
    let millis = t0.elapsed().as_secs_f64() * 1e3;
    let (dist, relaxations, attempts, am, profiles) = out[0].take().unwrap();
    SsspMeasurement {
        label: label.to_string(),
        millis,
        relaxations,
        attempts,
        messages: am.messages_sent,
        envelopes: am.envelopes_sent,
        epochs: am.epochs / ranks,
        correct: dists_match(&dist, oracle),
        profiles,
    }
}

/// Run pattern-engine SSSP and measure.
#[allow(clippy::too_many_arguments)]
pub fn sssp_pattern(
    label: &str,
    el: &EdgeList,
    machine: MachineConfig,
    engine_cfg: EngineConfig,
    source: VertexId,
    strategy: SsspStrategy,
    oracle: &[f64],
) -> SsspMeasurement {
    sssp_measured(label, el, machine, oracle, |ctx, graph, weights| {
        let s = Sssp::install(ctx, graph, weights, engine_cfg);
        s.run(ctx, source, strategy);
        let es = s.engine.stats();
        let relaxations = ctx.sum_ranks(es.conditions_true);
        (s.dist, relaxations, ctx.sum_ranks(es.items_generated))
    })
}

/// Run hand-written AM SSSP (plain or reduced) and measure.
pub fn sssp_handwritten(
    label: &str,
    el: &EdgeList,
    machine: MachineConfig,
    source: VertexId,
    reduction_slots: Option<usize>,
    oracle: &[f64],
) -> SsspMeasurement {
    sssp_measured(label, el, machine, oracle, |ctx, graph, weights| {
        let d = match reduction_slots {
            None => handwritten::sssp(ctx, graph, weights, source),
            Some(slots) => handwritten::sssp_reduced(ctx, graph, weights, source, slots),
        };
        (d, 0, 0)
    })
}

/// Sequential Dijkstra measured the same way (the single-node baseline).
pub fn sssp_sequential(el: &EdgeList, source: VertexId) -> SsspMeasurement {
    let t0 = Instant::now();
    let dist = seq::dijkstra(el, source);
    let millis = t0.elapsed().as_secs_f64() * 1e3;
    SsspMeasurement {
        label: "sequential Dijkstra".into(),
        millis,
        relaxations: 0,
        attempts: 0,
        messages: 0,
        envelopes: 0,
        epochs: 0,
        correct: !dist.is_empty(),
        profiles: Vec::new(),
    }
}

/// One measured CC run.
#[derive(Debug, Clone)]
pub struct CcMeasurement {
    /// Row label.
    pub label: String,
    /// Wall-clock milliseconds, machine spawn included.
    pub millis: f64,
    /// Logical messages sent.
    pub messages: u64,
    /// Number of distinct labels found.
    pub components: usize,
    /// Whether the labels matched union-find.
    pub correct: bool,
}

/// Distribute `el` (a symmetric edge list), run `algo` on `machine`, time
/// it — spawn included, graph build excluded — and check rank 0's labels
/// against union-find.
fn cc_measured(
    label: &str,
    el: &EdgeList,
    machine: MachineConfig,
    algo: impl Fn(&AmCtx, &DistGraph) -> AtomicVertexMap<u64> + Send + Sync,
) -> CcMeasurement {
    let want = seq::cc_labels(el);
    let graph = DistGraph::build(
        el,
        Distribution::block(el.num_vertices(), machine.ranks),
        false,
    );
    let t0 = Instant::now();
    let mut out = Machine::run(machine, |ctx| {
        let labels = algo(ctx, &graph);
        (ctx.rank() == 0).then(|| (labels.snapshot(), ctx.stats()))
    });
    let millis = t0.elapsed().as_secs_f64() * 1e3;
    let (labels, am) = out[0].take().unwrap();
    let mut uniq = labels.clone();
    uniq.sort_unstable();
    uniq.dedup();
    CcMeasurement {
        label: label.to_string(),
        millis,
        messages: am.messages_sent,
        components: uniq.len(),
        correct: labels == want,
    }
}

/// Run pattern-engine parallel-search CC and measure (`engine_cfg` picks
/// the executor: the `Exec::Reference` rows compare against it).
pub fn cc_pattern(
    label: &str,
    el: &EdgeList,
    machine: MachineConfig,
    engine_cfg: EngineConfig,
) -> CcMeasurement {
    cc_measured(label, el, machine, |ctx, graph| {
        dgp_algorithms::cc::cc(ctx, graph, engine_cfg)
    })
}

/// Run hand-written label-propagation CC and measure.
pub fn cc_label_prop(label: &str, el: &EdgeList, machine: MachineConfig) -> CcMeasurement {
    cc_measured(label, el, machine, handwritten::cc_label_propagation)
}

/// Sequential union-find CC, measured.
pub fn cc_sequential(el: &EdgeList) -> CcMeasurement {
    let t0 = Instant::now();
    let labels = seq::cc_labels(el);
    let millis = t0.elapsed().as_secs_f64() * 1e3;
    let mut uniq: Vec<u64> = labels.clone();
    uniq.sort_unstable();
    uniq.dedup();
    CcMeasurement {
        label: "sequential union-find".into(),
        millis,
        messages: 0,
        components: uniq.len(),
        correct: true,
    }
}

/// All-to-all storm on a caller-supplied config (any transport backend),
/// returning rank 0's stats alongside the count and wall time.
pub fn all_to_all_stats(cfg: MachineConfig, per_rank: u64) -> (u64, f64, StatsSnapshot) {
    let ranks = cfg.ranks;
    let t0 = Instant::now();
    let out = Machine::run(cfg, move |ctx| {
        let mt = ctx.register_named("storm", |_ctx, _x: u64| {});
        ctx.epoch(|ctx| {
            let n = ctx.num_ranks();
            for i in 0..per_rank {
                mt.send(ctx, (i as usize) % n, i);
            }
        });
        ctx.stats()
    });
    let millis = t0.elapsed().as_secs_f64() * 1e3;
    let stats = out.into_iter().next().unwrap();
    (ranks as u64 * per_rank, millis, stats)
}

/// One per-backend throughput row (EXPERIMENTS E16).
#[derive(Debug, Clone)]
pub struct TransportPoint {
    /// Backend label (`inproc`, `shm`, `tcp`, `tcp+kill`).
    pub backend: String,
    /// Ranks in the machine.
    pub ranks: usize,
    /// Coalescing capacity used.
    pub coalescing: usize,
    /// Total logical messages carried.
    pub messages: u64,
    /// Wall-clock milliseconds.
    pub millis: f64,
    /// Logical messages per second.
    pub msgs_per_sec: f64,
    /// Transport frames accepted for sending.
    pub frames_sent: u64,
    /// Sends that blocked on a full ring or lane queue.
    pub backpressure_stalls: u64,
    /// Connections re-established mid-run (tcp only).
    pub reconnects: u64,
    /// Reliability-layer retransmissions (lossy backends only).
    pub retransmits: u64,
}

/// The backends the transport comparison sweeps: the three clean
/// backends, plus TCP with the kill harness forcibly closing every
/// connection after its 50th received frame.
pub fn transport_backends() -> Vec<(&'static str, TransportKind)> {
    vec![
        ("inproc", TransportKind::Inproc),
        ("shm", TransportKind::Shm(ShmConfig::default())),
        ("tcp", TransportKind::Tcp(TcpConfig::default())),
        (
            "tcp+kill",
            TransportKind::Tcp(TcpConfig::default().kill_rx_every(50)),
        ),
    ]
}

/// Measure the all-to-all storm (4 ranks, coalescing 64) over every
/// transport backend.
pub fn transport_rows(small: bool) -> Vec<TransportPoint> {
    const RANKS: usize = 4;
    const COALESCING: usize = 64;
    let per_rank: u64 = if small { 20_000 } else { 100_000 };
    transport_backends()
        .into_iter()
        .map(|(name, kind)| {
            let cfg = MachineConfig::new(RANKS)
                .coalescing(COALESCING)
                .transport(kind);
            let (messages, millis, stats) = all_to_all_stats(cfg, per_rank);
            TransportPoint {
                backend: name.to_string(),
                ranks: RANKS,
                coalescing: COALESCING,
                messages,
                millis,
                msgs_per_sec: messages as f64 / (millis / 1e3),
                frames_sent: stats.transport_frames_sent,
                backpressure_stalls: stats.transport_backpressure_stalls,
                reconnects: stats.transport_reconnects,
                retransmits: stats.retransmits,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;

    #[test]
    fn sssp_measurement_is_correct_and_counted() {
        let el = workloads::rmat_weighted(7, 8, 1);
        let oracle = seq::dijkstra(&el, 0);
        let m = sssp_pattern(
            "fp",
            &el,
            MachineConfig::new(2),
            EngineConfig::default(),
            0,
            SsspStrategy::FixedPoint,
            &oracle,
        );
        assert!(m.correct);
        assert!(m.messages > 0);
        assert!(m.relaxations > 0);
        assert!(m.relaxations <= m.attempts);
        // Epoch profiles: one per epoch, and their message deltas
        // reassemble the cumulative total.
        assert_eq!(m.profiles.len() as u64, m.epochs);
        let profiled: u64 = m.profiles.iter().map(|p| p.delta.messages_sent).sum();
        assert_eq!(profiled, m.messages);
    }

    #[test]
    fn cc_measurements_agree() {
        let el = workloads::blobs(4, 25, 3);
        let a = cc_pattern("ps", &el, MachineConfig::new(2), EngineConfig::default());
        let b = cc_label_prop("lp", &el, MachineConfig::new(2));
        let c = cc_sequential(&el);
        assert!(a.correct && b.correct);
        assert_eq!(a.components, 4);
        assert_eq!(b.components, 4);
        assert_eq!(c.components, 4);
    }

    #[test]
    fn storm_counts_messages_exactly() {
        let cfg = MachineConfig::new(2).coalescing(16);
        let (m, _, stats) = all_to_all_stats(cfg, 1_000);
        assert_eq!(m, 2_000);
        assert_eq!(stats.messages_handled, 2_000);
    }
}
