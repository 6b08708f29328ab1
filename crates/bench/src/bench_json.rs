//! Machine-readable performance trajectory (`BENCH_*.json`).
//!
//! The repo tracks its hot-path performance across PRs in small JSON
//! documents committed at the repository root. `experiments --bench-json
//! PATH` regenerates the document. The committed `BENCH_*.json` files are
//! history, not a gate: regressions are caught by the repo benchmark
//! (`BENCHMARK.json`, `benchmark/`), which compares medians of repeated
//! runs against the parent commit.
//!
//! The headline number is raw message throughput: an all-to-all storm at
//! the default coalescing capacity, the purest exercise of the
//! send→deliver→dispatch path that the zero-contention work in
//! `dgp-am::machine` optimizes. Algorithm rows (SSSP/CC/PageRank) ride
//! along so the trajectory also reflects end-to-end behavior.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

use dgp_algorithms::{seq, SsspStrategy};
use dgp_am::{Machine, MachineConfig, ShmConfig, StatsSnapshot, TcpConfig, TransportKind};
use dgp_core::engine::{EngineConfig, Exec};

use crate::measure;
use crate::workloads;

/// One raw-throughput measurement.
#[derive(Debug, Clone)]
pub struct RatePoint {
    /// Scenario name (`all_to_all` or `ping_pong`).
    pub scenario: String,
    /// Ranks in the machine.
    pub ranks: usize,
    /// Coalescing capacity used.
    pub coalescing: usize,
    /// Total logical messages carried.
    pub messages: u64,
    /// Wall-clock milliseconds (machine spawn included).
    pub millis: f64,
    /// Logical messages per second.
    pub msgs_per_sec: f64,
}

/// One end-to-end algorithm measurement.
#[derive(Debug, Clone)]
pub struct AlgoPoint {
    /// Algorithm label.
    pub name: String,
    /// Wall-clock milliseconds.
    pub millis: f64,
    /// Logical messages sent.
    pub messages: u64,
    /// Machine-wide epochs run.
    pub epochs: u64,
    /// Mean epoch duration in microseconds (0 when no epochs ran).
    pub mean_epoch_us: f64,
}

/// The whole benchmark document.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// Headline: all-to-all messages/sec at the default coalescing
    /// capacity — what the CI smoke step compares against.
    pub headline_msgs_per_sec: f64,
    /// Raw-throughput sweep.
    pub message_rate: Vec<RatePoint>,
    /// End-to-end algorithm rows.
    pub algorithms: Vec<AlgoPoint>,
}

/// All-to-all storm: every rank sends `per_rank` messages round-robin to
/// every rank (self included) in one epoch. Returns `(messages, millis)`.
pub fn all_to_all(ranks: usize, per_rank: u64, coalescing: usize) -> (u64, f64) {
    let t0 = Instant::now();
    // Pinned to the in-process transport: the BENCH_* trajectory (and the
    // CI smoke floor) must not move when DGP_TRANSPORT is set — the
    // per-backend comparison lives in `transport_rows`.
    let cfg = MachineConfig::new(ranks)
        .coalescing(coalescing)
        .transport(TransportKind::Inproc);
    Machine::run(cfg, |ctx| {
        let mt = ctx.register_named("storm", |_ctx, _x: u64| {});
        ctx.epoch(|ctx| {
            let n = ctx.num_ranks();
            for i in 0..per_rank {
                mt.send(ctx, (i as usize) % n, i);
            }
        });
    });
    let millis = t0.elapsed().as_secs_f64() * 1e3;
    (ranks as u64 * per_rank, millis)
}

/// Ping-pong: `chains` independent chains hop between two ranks until a
/// hop countdown expires; handlers re-send, so the chain exercises the
/// handler→send path. Returns `(messages, millis)`.
pub fn ping_pong(chains: u64, hops: u64, coalescing: usize) -> (u64, f64) {
    let count = Arc::new(AtomicU64::new(0));
    let c2 = count.clone();
    let t0 = Instant::now();
    let cfg = MachineConfig::new(2)
        .coalescing(coalescing)
        .transport(TransportKind::Inproc);
    Machine::run(cfg, move |ctx| {
        let count = c2.clone();
        let mt = ctx.register_named("pingpong", move |ctx, left: u64| {
            count.fetch_add(1, Relaxed);
            if left > 0 {
                let other = 1 - ctx.rank();
                ctx.send(other, left - 1);
            }
        });
        ctx.epoch(|ctx| {
            if ctx.rank() == 0 {
                for _ in 0..chains {
                    mt.send(ctx, 1, hops - 1);
                }
            }
        });
    });
    let millis = t0.elapsed().as_secs_f64() * 1e3;
    (count.load(Relaxed), millis)
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

/// One per-backend throughput row (`BENCH_8.json` / EXPERIMENTS E16).
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

/// Measure the all-to-all storm over every transport backend.
pub fn transport_rows(small: bool) -> Vec<TransportPoint> {
    let per_rank: u64 = if small { 20_000 } else { 100_000 };
    transport_backends()
        .into_iter()
        .map(|(name, kind)| {
            let cfg = MachineConfig::new(HEADLINE_RANKS)
                .coalescing(HEADLINE_COALESCING)
                .transport(kind);
            let (messages, millis, stats) = all_to_all_stats(cfg, per_rank);
            TransportPoint {
                backend: name.to_string(),
                ranks: HEADLINE_RANKS,
                coalescing: HEADLINE_COALESCING,
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

/// The transport comparison document (`BENCH_8.json`).
#[derive(Debug, Clone)]
pub struct TransportReport {
    /// One row per backend.
    pub transports: Vec<TransportPoint>,
}

/// Run the transport sweep and assemble the report.
pub fn collect_transports(small: bool) -> TransportReport {
    TransportReport {
        transports: transport_rows(small),
    }
}

impl TransportReport {
    /// Serialize as a stable, dependency-free JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\n  \"schema\": 1,\n  \"kind\": \"transport\",\n  \"transports\": [\n");
        for (i, p) in self.transports.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"backend\": \"{}\", \"ranks\": {}, \"coalescing\": {}, \
                 \"messages\": {}, \"millis\": {:.3}, \"msgs_per_sec\": {:.0}, \
                 \"frames_sent\": {}, \"backpressure_stalls\": {}, \
                 \"reconnects\": {}, \"retransmits\": {}}}{}\n",
                p.backend,
                p.ranks,
                p.coalescing,
                p.messages,
                p.millis,
                p.msgs_per_sec,
                p.frames_sent,
                p.backpressure_stalls,
                p.reconnects,
                p.retransmits,
                if i + 1 < self.transports.len() {
                    ","
                } else {
                    ""
                }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

fn rate(scenario: &str, ranks: usize, coalescing: usize, messages: u64, millis: f64) -> RatePoint {
    RatePoint {
        scenario: scenario.to_string(),
        ranks,
        coalescing,
        messages,
        millis,
        msgs_per_sec: messages as f64 / (millis / 1e3),
    }
}

/// Ranks and message volume for the headline all-to-all measurement.
pub const HEADLINE_RANKS: usize = 4;
/// Messages each rank sends in the headline measurement.
pub const HEADLINE_PER_RANK: u64 = 500_000;
/// Coalescing capacity of the headline measurement (the machine default).
pub const HEADLINE_COALESCING: usize = 64;

/// Measure the headline scenario once (after one small warmup run).
pub fn headline() -> RatePoint {
    let _ = all_to_all(HEADLINE_RANKS, 10_000, HEADLINE_COALESCING);
    let best = (0..3)
        .map(|_| all_to_all(HEADLINE_RANKS, HEADLINE_PER_RANK, HEADLINE_COALESCING))
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .unwrap();
    rate(
        "all_to_all",
        HEADLINE_RANKS,
        HEADLINE_COALESCING,
        best.0,
        best.1,
    )
}

/// Run the full benchmark suite and assemble the report. `small` shrinks
/// the workloads (CI-friendly).
pub fn collect(small: bool) -> BenchReport {
    let mut message_rate = Vec::new();
    let head = headline();
    let headline_msgs_per_sec = head.msgs_per_sec;
    message_rate.push(head);
    let per_rank = if small { 50_000 } else { 250_000 };
    for cap in [1usize, 16, 256] {
        let (m, ms) = all_to_all(HEADLINE_RANKS, per_rank, cap);
        message_rate.push(rate("all_to_all", HEADLINE_RANKS, cap, m, ms));
    }
    let (chains, hops) = if small { (64, 500) } else { (256, 2_000) };
    for cap in [1usize, 64] {
        let (m, ms) = ping_pong(chains, hops, cap);
        message_rate.push(rate("ping_pong", 2, cap, m, ms));
    }

    BenchReport {
        headline_msgs_per_sec,
        message_rate,
        algorithms: collect_algorithms(small),
    }
}

/// Measure the end-to-end algorithm rows alone (the SSSP/CC executor
/// ladder plus PageRank).
pub fn collect_algorithms(small: bool) -> Vec<AlgoPoint> {
    let scale = if small { 10 } else { 13 };
    let el = workloads::rmat_weighted(scale, 8, 41);
    let oracle = seq::dijkstra(&el, 0);
    let mut algorithms = Vec::new();
    // The SSSP/CC ladder climbs the engine's two executors on the same
    // workload, with the hand-written AM implementation as the floor the
    // declarative stack is measured against (E18):
    //   *_guarded  — `Exec::Reference`: the step interpreter with
    //                per-message locality/def-use guards,
    //   default    — plan JIT, monomorphized native handlers (§14),
    //   *_handwritten — no engine at all.
    // BENCH_9/10.json also record `*_elided` rows for the interpreter
    // tier that no longer exists; those documents stay as committed.
    let guarded_cfg = EngineConfig {
        exec: Exec::Reference,
        ..Default::default()
    };
    for (label, cfg) in [
        ("sssp_delta_guarded", guarded_cfg),
        ("sssp_delta", EngineConfig::default()),
    ] {
        let m = measure::sssp_pattern(
            label,
            &el,
            MachineConfig::new(4),
            cfg,
            0,
            SsspStrategy::Delta(0.4),
            &oracle,
        );
        assert!(m.correct, "bench SSSP ({label}) diverged from the oracle");
        algorithms.push(algo_point_sssp(&m));
    }
    let mh = measure::sssp_handwritten(
        "sssp_handwritten",
        &el,
        MachineConfig::new(4),
        0,
        None,
        &oracle,
    );
    assert!(
        mh.correct,
        "handwritten bench SSSP diverged from the oracle"
    );
    algorithms.push(algo_point_sssp(&mh));
    let cc_el = workloads::blobs(8, if small { 200 } else { 1_500 }, 3);
    for (label, cfg) in [
        ("cc_parallel_search_guarded", guarded_cfg),
        ("cc_parallel_search", EngineConfig::default()),
    ] {
        let c = measure::cc_pattern(label, &cc_el, MachineConfig::new(4), cfg);
        assert!(c.correct, "bench CC ({label}) diverged from union-find");
        algorithms.push(AlgoPoint {
            name: c.label.clone(),
            millis: c.millis,
            messages: c.messages,
            epochs: 0,
            mean_epoch_us: 0.0,
        });
    }
    let ch = measure::cc_label_prop("cc_handwritten", &cc_el, MachineConfig::new(4));
    assert!(ch.correct, "handwritten bench CC diverged from union-find");
    algorithms.push(AlgoPoint {
        name: ch.label.clone(),
        millis: ch.millis,
        messages: ch.messages,
        epochs: 0,
        mean_epoch_us: 0.0,
    });
    let pr_el = workloads::rmat(if small { 9 } else { 12 }, 8, 17);
    let t0 = Instant::now();
    let pr = dgp_algorithms::Run::new(4)
        .pagerank(&pr_el, 0.85, 10)
        .expect("bench PageRank runs to completion");
    let millis = t0.elapsed().as_secs_f64() * 1e3;
    let (stats, profiles) = (pr.stats, pr.profiles);
    algorithms.push(AlgoPoint {
        name: "pagerank".into(),
        millis,
        messages: stats.messages_sent,
        epochs: profiles.len() as u64,
        mean_epoch_us: mean_epoch_us(&profiles),
    });
    algorithms
}

fn algo_point_sssp(m: &measure::SsspMeasurement) -> AlgoPoint {
    AlgoPoint {
        name: m.label.clone(),
        millis: m.millis,
        messages: m.messages,
        epochs: m.epochs,
        mean_epoch_us: mean_epoch_us(&m.profiles),
    }
}

fn mean_epoch_us(profiles: &[dgp_am::EpochProfile]) -> f64 {
    if profiles.is_empty() {
        return 0.0;
    }
    profiles
        .iter()
        .map(|p| p.duration.as_secs_f64() * 1e6)
        .sum::<f64>()
        / profiles.len() as f64
}

impl BenchReport {
    /// Serialize as a stable, dependency-free JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str(&format!(
            "{{\n  \"schema\": 1,\n  \"headline_msgs_per_sec\": {:.0},\n  \"message_rate\": [\n",
            self.headline_msgs_per_sec
        ));
        for (i, p) in self.message_rate.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"scenario\": \"{}\", \"ranks\": {}, \"coalescing\": {}, \
                 \"messages\": {}, \"millis\": {:.3}, \"msgs_per_sec\": {:.0}}}{}\n",
                p.scenario,
                p.ranks,
                p.coalescing,
                p.messages,
                p.millis,
                p.msgs_per_sec,
                if i + 1 < self.message_rate.len() {
                    ","
                } else {
                    ""
                }
            ));
        }
        out.push_str("  ],\n  \"algorithms\": [\n");
        for (i, a) in self.algorithms.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"millis\": {:.3}, \"messages\": {}, \
                 \"epochs\": {}, \"mean_epoch_us\": {:.1}}}{}\n",
                a.name,
                a.millis,
                a.messages,
                a.epochs,
                a.mean_epoch_us,
                if i + 1 < self.algorithms.len() {
                    ","
                } else {
                    ""
                }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_report_json_carries_headline_and_rows() {
        let report = BenchReport {
            headline_msgs_per_sec: 1234567.0,
            message_rate: vec![RatePoint {
                scenario: "all_to_all".into(),
                ranks: 4,
                coalescing: 64,
                messages: 100,
                millis: 2.0,
                msgs_per_sec: 50_000.0,
            }],
            algorithms: vec![AlgoPoint {
                name: "sssp".into(),
                millis: 1.0,
                messages: 10,
                epochs: 2,
                mean_epoch_us: 3.5,
            }],
        };
        let json = report.to_json();
        assert!(
            json.contains("\"headline_msgs_per_sec\": 1234567"),
            "{json}"
        );
        assert!(json.contains("\"name\": \"sssp\""), "{json}");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn transport_report_json_is_balanced() {
        let report = TransportReport {
            transports: vec![TransportPoint {
                backend: "tcp".into(),
                ranks: 4,
                coalescing: 64,
                messages: 1_000,
                millis: 5.0,
                msgs_per_sec: 200_000.0,
                frames_sent: 40,
                backpressure_stalls: 0,
                reconnects: 2,
                retransmits: 3,
            }],
        };
        let json = report.to_json();
        assert!(json.contains("\"kind\": \"transport\""));
        assert!(json.contains("\"reconnects\": 2"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn raw_scenarios_count_messages_exactly() {
        let (m, _) = all_to_all(2, 1_000, 16);
        assert_eq!(m, 2_000);
        let (m, _) = ping_pong(4, 50, 8);
        assert_eq!(m, 4 * 50);
    }
}
