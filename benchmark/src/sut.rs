//! The system under test: the only file of the benchmark that names the
//! repo's APIs. Everything else sees plain numbers, vectors and the types
//! defined here, so the benchmark keeps compiling while the repo's entry
//! points are reshaped — as long as the handful of calls below survive:
//! `MachineConfig` builders, `EngineConfig::default()`,
//! `Sssp::{install, run}`, `Cc::{install, run}` (the two halves of
//! `cc::cc_with_cfg`, taken apart so install time and engine counters are
//! visible), `handwritten::*`, `seq::*`, `plan::compile`,
//! `DistGraph::build` and the generators. Never `api::run_*`, never an
//! `EngineConfig` field other than the `plan_mode` it defaults to.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

use dgp_algorithms::cc::Cc;
use dgp_algorithms::sssp::Sssp;
use dgp_algorithms::{handwritten, patterns, seq, SsspStrategy};
use dgp_am::{AmCtx, Machine, MachineConfig, SpanKind, TransportKind};
use dgp_core::engine::{ActionMsg, EngineConfig};
use dgp_core::plan;
use dgp_graph::properties::EdgeMap;
use dgp_graph::{generators, DistGraph, Distribution, EdgeList};

/// Ranks of every machine the benchmark builds. Fixed, not derived from
/// the core count, so message counts compare across machines.
pub const RANKS: usize = 2;

/// Bytes of one pattern-engine message as the runtime moves it today.
pub fn engine_message_bytes() -> u64 {
    std::mem::size_of::<ActionMsg>() as u64
}

fn machine(coalescing: usize, span_capacity: Option<usize>) -> MachineConfig {
    let cfg = MachineConfig::new(RANKS)
        .threads_per_rank(1)
        .transport(TransportKind::Inproc)
        .coalescing(coalescing);
    match span_capacity {
        Some(cap) => cfg.profile(true).profile_capacity(cap),
        None => cfg,
    }
}

/// The machine's default coalescing capacity (64 today), read from the
/// config so the graph workloads follow it if it moves.
fn default_coalescing() -> usize {
    MachineConfig::new(RANKS).coalescing_capacity
}

// ---------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------

/// Shape and size of a generated graph.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GraphSpec {
    /// Directed weighted RMAT, Graph500 parameters, weights in [0.05, 1).
    /// Source = the vertex of largest out-degree (lowest id on ties).
    Rmat { scale: u32, edge_factor: usize },
    /// Weighted `side × side` 4-neighbour grid, weights in [0.2, 2).
    /// Source = corner vertex 0, the longest-diameter start.
    Grid { side: u64 },
    /// `count` undirected connected blobs of `size` vertices (random
    /// spanning tree + 2 extra edges per vertex), unweighted.
    Blobs { count: u64, size: u64 },
}

/// Seconds each construction step took.
#[derive(Debug, Clone, Copy, Default)]
pub struct GraphTimes {
    pub generate_s: f64,
    pub build_s: f64,
    pub edgemap_s: f64,
}

impl GraphTimes {
    pub fn total_s(&self) -> f64 {
        self.generate_s + self.build_s + self.edgemap_s
    }
}

/// A generated, distributed input graph.
pub struct Graph {
    el: EdgeList,
    dist: DistGraph,
    weights: Option<EdgeMap<f64>>,
    source: u64,
}

impl Graph {
    /// Generate the edge list from `seed`, distribute it over [`RANKS`]
    /// block-distributed shards and build the weight map.
    pub fn build(spec: GraphSpec, seed: u64) -> (Graph, GraphTimes) {
        let t0 = Instant::now();
        let (el, source) = match spec {
            GraphSpec::Rmat { scale, edge_factor } => {
                let mut el =
                    generators::rmat(scale, edge_factor, generators::RmatParams::GRAPH500, seed);
                el.randomize_weights(0.05, 1.0, seed.wrapping_add(1));
                let deg = el.out_degrees();
                let best = (0..deg.len()).max_by_key(|&v| (deg[v], std::cmp::Reverse(v)));
                (el, best.unwrap_or(0) as u64)
            }
            GraphSpec::Grid { side } => {
                let mut el = generators::grid2d(side, side);
                el.randomize_weights(0.2, 2.0, seed);
                (el, 0)
            }
            GraphSpec::Blobs { count, size } => {
                (generators::component_blobs(count, size, 2, seed), 0)
            }
        };
        let t1 = Instant::now();
        let dist = DistGraph::build(&el, Distribution::block(el.num_vertices(), RANKS), false);
        let t2 = Instant::now();
        let weights = el
            .weights
            .is_some()
            .then(|| EdgeMap::from_weights(&dist, &el));
        let t3 = Instant::now();
        let times = GraphTimes {
            generate_s: (t1 - t0).as_secs_f64(),
            build_s: (t2 - t1).as_secs_f64(),
            edgemap_s: (t3 - t2).as_secs_f64(),
        };
        (
            Graph {
                el,
                dist,
                weights,
                source,
            },
            times,
        )
    }

    pub fn vertices(&self) -> u64 {
        self.el.num_vertices()
    }

    pub fn edges(&self) -> u64 {
        self.el.num_edges() as u64
    }

    /// FNV-1a over edges and weight bits: two graphs with the same
    /// fingerprint are the same input.
    #[cfg(test)]
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |x: u64| {
            h ^= x;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        };
        for &(u, v) in &self.el.edges {
            mix(u);
            mix(v);
        }
        for w in self.el.weights.iter().flatten() {
            mix(w.to_bits());
        }
        h
    }

    /// The single-threaded reference answer for `algo`'s problem and the
    /// seconds it took (`seq::dijkstra` / `seq::cc_labels`).
    pub fn oracle(&self, algo: Algo) -> (Answer, f64) {
        let t0 = Instant::now();
        let answer = if algo.is_sssp() {
            Answer::Dist(seq::dijkstra(&self.el, self.source))
        } else {
            Answer::Labels(seq::cc_labels(&self.el))
        };
        (answer, t0.elapsed().as_secs_f64())
    }
}

// ---------------------------------------------------------------------
// What a run returns
// ---------------------------------------------------------------------

/// Which program solves the problem.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Algo {
    /// Pattern SSSP driven by epoch-per-bucket Δ-stepping.
    SsspDelta(f64),
    /// Pattern SSSP driven by `fixed_point`: one chaotic epoch.
    SsspFixedPoint,
    /// Hand-written active-message SSSP: one chaotic epoch.
    SsspHandwritten,
    /// Pattern parallel-search connected components.
    CcSearch,
    /// Hand-written min-label-propagation connected components.
    CcHandwritten,
}

impl Algo {
    pub fn is_sssp(self) -> bool {
        matches!(
            self,
            Algo::SsspDelta(_) | Algo::SsspFixedPoint | Algo::SsspHandwritten
        )
    }
}

/// A program's output, in the form the oracle produces it.
#[derive(Debug, Clone, PartialEq)]
pub enum Answer {
    Dist(Vec<f64>),
    Labels(Vec<u64>),
    /// Messages whose handler ran (am-storm).
    Handled(u64),
}

impl Answer {
    /// Whether `self` is the same answer as the oracle's `want`.
    pub fn matches(&self, want: &Answer) -> bool {
        match (self, want) {
            (Answer::Dist(a), Answer::Dist(b)) => {
                a.len() == b.len()
                    && a.iter()
                        .zip(b)
                        .all(|(x, y)| (x - y).abs() < 1e-9 || (x.is_infinite() && y.is_infinite()))
            }
            (a, b) => a == b,
        }
    }

    /// Make the answer wrong in one place.
    pub fn corrupt(&mut self) {
        match self {
            Answer::Dist(d) => d[0] += 1.0,
            Answer::Labels(l) => l[0] += 1,
            Answer::Handled(n) => *n += 1,
        }
    }
}

/// Machine-wide runtime counters at the end of a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AmCounters {
    pub messages_sent: u64,
    pub messages_handled: u64,
    pub envelopes_sent: u64,
    pub control_tokens: u64,
    pub retransmits: u64,
    /// Machine-wide epochs (not the per-rank completion count).
    pub epochs: u64,
}

/// Engine counters summed over ranks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineCounters {
    pub actions_started: u64,
    pub items_generated: u64,
    pub conditions_true: u64,
    pub conditions_false: u64,
    pub modifications_changed: u64,
    pub modifications_unchanged: u64,
    pub dependencies_fired: u64,
}

/// The layer a recorded runtime span belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Layer {
    Epoch,
    Handler,
    Termination,
    Expand,
    Gather,
    Eval,
    Strategy,
    Other,
}

/// One span of the runtime's own recorder (`MachineConfig::profile`).
#[derive(Debug, Clone, Copy)]
pub struct RuntimeSpan {
    pub layer: Layer,
    pub rank: usize,
    pub thread: usize,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// One run of one machine, as rank 0 saw it.
#[derive(Debug, Clone)]
pub struct Rep {
    /// Seconds from calling `Machine::try_run` to its return.
    pub wall_s: f64,
    /// Back-to-back parts of `wall_s`, in order: spawn, install, run,
    /// snapshot, teardown.
    pub phases: [(&'static str, f64); 5],
    pub answer: Answer,
    pub am: AmCounters,
    /// `None` for programs that do not use the pattern engine.
    pub engine: Option<EngineCounters>,
    /// Recorded spans and the number the recorder dropped; `None` when
    /// the run was not traced.
    pub trace: Option<(Vec<RuntimeSpan>, u64)>,
}

impl Rep {
    /// Seconds of the named part of `wall_s`.
    pub fn phase(&self, name: &str) -> f64 {
        let found = self.phases.iter().find(|(n, _)| *n == name);
        found.expect("one of the five phases").1
    }
}

/// What a rank's program hands back to [`measure`].
struct Staged {
    installed: Instant,
    ran: Instant,
    engine: Option<dgp_core::engine::EngineStatsSnapshot>,
    answer: Box<dyn FnOnce() -> Answer>,
}

struct RankZero {
    entered: Instant,
    installed: Instant,
    ran: Instant,
    done: Instant,
    answer: Answer,
    am: AmCounters,
    engine: Option<EngineCounters>,
    trace: Option<(Vec<RuntimeSpan>, u64)>,
}

/// Run `body` on every rank of a fresh machine and time it from outside.
/// A panic on any rank or handler comes back as `Err`.
fn measure(
    cfg: MachineConfig,
    body: impl Fn(&AmCtx) -> Staged + Send + Sync,
) -> Result<Rep, String> {
    let started = Instant::now();
    let out = Machine::try_run(cfg, |ctx| {
        let entered = Instant::now();
        let st = body(ctx);
        let engine = st.engine.map(|e| EngineCounters {
            actions_started: ctx.sum_ranks(e.actions_started),
            items_generated: ctx.sum_ranks(e.items_generated),
            conditions_true: ctx.sum_ranks(e.conditions_true),
            conditions_false: ctx.sum_ranks(e.conditions_false),
            modifications_changed: ctx.sum_ranks(e.modifications_changed),
            modifications_unchanged: ctx.sum_ranks(e.modifications_unchanged),
            dependencies_fired: ctx.sum_ranks(e.dependencies_fired),
        });
        // Every rank has left its last epoch (and recorded its span)
        // before rank 0 reads counters and spans.
        ctx.barrier();
        (ctx.rank() == 0).then(|| {
            let s = ctx.stats();
            let am = AmCounters {
                messages_sent: s.messages_sent,
                messages_handled: s.messages_handled,
                envelopes_sent: s.envelopes_sent,
                control_tokens: s.control_tokens,
                retransmits: s.retransmits,
                epochs: ctx.epoch_profiles().len() as u64,
            };
            let answer = (st.answer)();
            let trace = ctx.recorder().map(|rec| {
                let spans = rec
                    .all_spans()
                    .iter()
                    .map(|sp| RuntimeSpan {
                        layer: match sp.kind {
                            SpanKind::Epoch => Layer::Epoch,
                            SpanKind::Handler => Layer::Handler,
                            SpanKind::Termination => Layer::Termination,
                            SpanKind::Expand => Layer::Expand,
                            SpanKind::Gather => Layer::Gather,
                            SpanKind::Eval => Layer::Eval,
                            SpanKind::Strategy => Layer::Strategy,
                            _ => Layer::Other,
                        },
                        rank: sp.rank,
                        thread: sp.thread,
                        start_ns: sp.start_ns,
                        dur_ns: sp.dur_ns,
                    })
                    .collect();
                (spans, rec.dropped())
            });
            RankZero {
                entered,
                installed: st.installed,
                ran: st.ran,
                done: Instant::now(),
                answer,
                am,
                engine,
                trace,
            }
        })
    });
    let ended = Instant::now();
    let mut out = out.map_err(|e| e.to_string())?;
    let r = out[0].take().ok_or("rank 0 returned nothing")?;
    let secs = |a: Instant, b: Instant| (b - a).as_secs_f64();
    Ok(Rep {
        wall_s: secs(started, ended),
        phases: [
            ("spawn", secs(started, r.entered)),
            ("install", secs(r.entered, r.installed)),
            ("run", secs(r.installed, r.ran)),
            ("snapshot", secs(r.ran, r.done)),
            ("teardown", secs(r.done, ended)),
        ],
        answer: r.answer,
        am: r.am,
        engine: r.engine,
        trace: r.trace,
    })
}

// ---------------------------------------------------------------------
// Graph programs
// ---------------------------------------------------------------------

/// Solve `algo`'s problem on `g` once: spawn a machine, install, run,
/// snapshot, tear down. `span_capacity` turns the runtime's recorder on
/// with that many spans per rank.
pub fn solve(g: &Graph, algo: Algo, span_capacity: Option<usize>) -> Result<Rep, String> {
    let weights = || g.weights.as_ref().expect("SSSP runs on a weighted graph");
    measure(machine(default_coalescing(), span_capacity), |ctx| {
        let entered = Instant::now();
        match algo {
            Algo::SsspDelta(_) | Algo::SsspFixedPoint => {
                let strategy = match algo {
                    Algo::SsspDelta(d) => SsspStrategy::Delta(d),
                    _ => SsspStrategy::FixedPoint,
                };
                let s = Sssp::install(ctx, &g.dist, weights(), EngineConfig::default());
                let installed = Instant::now();
                s.run(ctx, g.source, strategy);
                let dist = s.dist.clone();
                Staged {
                    installed,
                    ran: Instant::now(),
                    engine: Some(s.engine.stats()),
                    answer: Box::new(move || Answer::Dist(dist.snapshot())),
                }
            }
            Algo::SsspHandwritten => {
                let dist = handwritten::sssp(ctx, &g.dist, weights(), g.source);
                Staged {
                    installed: entered,
                    ran: Instant::now(),
                    engine: None,
                    answer: Box::new(move || Answer::Dist(dist.snapshot())),
                }
            }
            Algo::CcSearch => {
                let c = Cc::install(ctx, &g.dist, EngineConfig::default());
                let installed = Instant::now();
                c.run(ctx);
                let comp = c.comp.clone();
                Staged {
                    installed,
                    ran: Instant::now(),
                    engine: Some(c.engine.stats()),
                    answer: Box::new(move || Answer::Labels(comp.snapshot())),
                }
            }
            Algo::CcHandwritten => {
                let labels = handwritten::cc_label_propagation(ctx, &g.dist);
                Staged {
                    installed: entered,
                    ran: Instant::now(),
                    engine: None,
                    answer: Box::new(move || Answer::Labels(labels.snapshot())),
                }
            }
        }
    })
}

/// Microseconds one `plan::compile` of every action of `algo`'s pattern
/// family takes, outside any machine.
pub fn compile_family_us(algo: Algo) -> f64 {
    let actions = if algo.is_sssp() {
        vec![patterns::relax(0, 1)]
    } else {
        vec![
            patterns::cc_search(0, 1),
            patterns::cc_claim_label(0, 2),
            patterns::cc_jump(1, 2),
            patterns::cc_rewrite(0, 2, 3),
        ]
    };
    let mode = EngineConfig::default().plan_mode;
    let t0 = Instant::now();
    for a in &actions {
        std::hint::black_box(plan::compile(&a.ir, mode).expect("family pattern compiles"));
    }
    t0.elapsed().as_secs_f64() * 1e6
}

// ---------------------------------------------------------------------
// Runtime-only programs (am-storm and the floors)
// ---------------------------------------------------------------------

fn no_install(entered: Instant) -> Staged {
    Staged {
        installed: entered,
        ran: Instant::now(),
        engine: None,
        answer: Box::new(|| Answer::Handled(0)),
    }
}

/// Every rank sends `per_rank` `u64` messages round-robin to every rank
/// (itself included) inside one epoch. The handler is empty, so the
/// send/coalesce/dispatch path is all that is timed; the answer is the
/// runtime's own count of handler invocations, `RANKS * per_rank` when
/// nothing is lost.
pub fn all_to_all(
    per_rank: u64,
    coalescing: usize,
    span_capacity: Option<usize>,
) -> Result<Rep, String> {
    let mut rep = measure(machine(coalescing, span_capacity), |ctx| {
        let entered = Instant::now();
        let mt = ctx.register_named("storm", |_ctx, _x: u64| {});
        ctx.epoch(|ctx| {
            for i in 0..per_rank {
                mt.send(ctx, (i as usize) % RANKS, i);
            }
        });
        no_install(entered)
    })?;
    rep.answer = Answer::Handled(rep.am.messages_handled);
    Ok(rep)
}

/// `chains` chains of `hops` messages bounce between rank 0 and rank 1;
/// each handler counts itself and re-sends until its countdown expires.
/// The answer is the handlers' count, `chains * hops`.
pub fn ping_pong(
    chains: u64,
    hops: u64,
    coalescing: usize,
    span_capacity: Option<usize>,
) -> Result<Rep, String> {
    let handled = Arc::new(AtomicU64::new(0));
    let mut rep = measure(machine(coalescing, span_capacity), |ctx| {
        let entered = Instant::now();
        let count = handled.clone();
        let mt = ctx.register_named("pingpong", move |hctx, left: u64| {
            count.fetch_add(1, Relaxed);
            if left > 0 {
                hctx.send(1 - hctx.rank(), left - 1);
            }
        });
        ctx.epoch(|ctx| {
            if ctx.rank() == 0 {
                for _ in 0..chains {
                    mt.send(ctx, 1, hops - 1);
                }
            }
        });
        no_install(entered)
    })?;
    rep.answer = Answer::Handled(handled.load(Relaxed));
    Ok(rep)
}

/// A machine whose ranks do nothing: spawn + teardown.
pub fn empty_machine() -> Result<Rep, String> {
    measure(machine(default_coalescing(), None), |_ctx| {
        no_install(Instant::now())
    })
}

/// Mean microseconds of one message-free epoch (entry barrier,
/// termination detection, exit barrier), over `epochs` of them.
pub fn empty_epoch_us(epochs: u64) -> Result<f64, String> {
    let rep = measure(machine(default_coalescing(), None), |ctx| {
        let entered = Instant::now();
        for _ in 0..epochs {
            ctx.epoch(|_| {});
        }
        no_install(entered)
    })?;
    Ok(rep.phase("run") * 1e6 / epochs as f64)
}
