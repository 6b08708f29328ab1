//! The four workloads: what each builds, runs and reports. All of them
//! are closed loops of one client — the next repetition starts when the
//! previous one has returned — on a fresh 2-rank, 1-thread-per-rank,
//! in-process machine per repetition.

use std::time::Instant;

use crate::harness::{peak_rss_mb, self_time_by_layer, Harness};
use crate::stats::{median, quartiles};
use crate::sut::{self, Algo, Answer, Graph, GraphSpec, GraphTimes, Layer, Rep, RANKS};

/// Workload names, as `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = ["sssp-rmat", "sssp-grid", "cc-blobs", "am-storm"];

/// Counts that repeat exactly from run to run on one commit and seed
/// (`cc-blobs` has no cross-rank race; am-storm's sends are fixed; the
/// grid's bucket sequence is decided by the distances alone).
pub const EXACT_COUNTS: [(&str, &str); 3] = [
    ("cc-blobs", "am.messages_sent"),
    ("am-storm", "am.messages_sent"),
    ("sssp-grid", "strategy.epochs"),
];

/// Repetitions run and thrown away before timing starts: the first pays
/// page faults and allocator growth (up to 2× the steady time), the
/// second confirms the steady state.
const WARMUPS: usize = 2;
/// Fewest timed repetitions behind a reported `solve_s`.
const MIN_TIMED: usize = 11;
/// Timed repetitions of an attribution (`--trace 1`) run, which spends
/// its time on ablations instead.
const ATTRIBUTION_TIMED: usize = 5;
/// Times an end-to-end run sets up; `setup_s` is their median.
const SETUPS: usize = 5;
/// Empty machines behind am-storm's `setup_s` and every `am.spawn_s`.
const SPAWNS: usize = 301;
/// Repetitions of each ablation; its time is their median.
const ABLATION_REPS: usize = 3;
/// `plan::compile` calls behind `plan.compile_us`.
const COMPILES: usize = 200;
/// Message-free epochs behind `am.empty_epoch_us`.
const EMPTY_EPOCHS: u64 = 2000;
/// Spans per rank the runtime's recorder may keep in the traced
/// repetition; the traced inputs are sized to stay below it.
const SPAN_CAPACITY: usize = 1 << 21;

pub struct Opts {
    pub seed: u64,
    /// How long the timed repetitions of an end-to-end run go on (at
    /// least [`MIN_TIMED`] of them run regardless).
    pub seconds: f64,
    /// `false`: end-to-end metrics, tracing off. `true`: per-layer
    /// metrics, with ablations and one traced repetition.
    pub trace: bool,
    /// Test-sized inputs.
    pub tiny: bool,
    /// Falsify the oracle, to prove a wrong answer is caught. Tests only.
    pub corrupt_oracle: bool,
}

/// A graph workload: the program under test, its ablations, its inputs.
struct GraphWorkload {
    algo: Algo,
    /// The same pattern driven by `fixed_point` (one chaotic epoch), the
    /// like-for-like partner of `handwritten`. `None` where the program
    /// has no strategy to swap (CC), and `algo` itself is the partner.
    chaotic: Option<Algo>,
    handwritten: Algo,
    full: GraphSpec,
    /// Input of the ablations: `full` where they finish in seconds, a
    /// declared smaller one where chaotic relaxation does not (on the
    /// 800×800 grid it would send ~10^10 messages).
    ablation: GraphSpec,
    /// Input of the traced repetition, small enough that the runtime's
    /// recorder drops no span.
    traced: GraphSpec,
}

fn graph_workload(name: &str, tiny: bool) -> Option<GraphWorkload> {
    let rmat = |scale| GraphSpec::Rmat {
        scale,
        edge_factor: 16,
    };
    let grid = |side| GraphSpec::Grid { side };
    let blobs = |count, size| GraphSpec::Blobs { count, size };
    let sssp = |delta, full, ablation, traced| GraphWorkload {
        algo: Algo::SsspDelta(delta),
        chaotic: Some(Algo::SsspFixedPoint),
        handwritten: Algo::SsspHandwritten,
        full,
        ablation,
        traced,
    };
    Some(match (name, tiny) {
        ("sssp-rmat", false) => sssp(0.4, rmat(16), rmat(16), rmat(13)),
        ("sssp-rmat", true) => sssp(0.4, rmat(9), rmat(9), rmat(9)),
        ("sssp-grid", false) => sssp(1.0, grid(800), grid(64), grid(100)),
        ("sssp-grid", true) => sssp(1.0, grid(24), grid(12), grid(24)),
        ("cc-blobs", _) => {
            let (full, traced) = if tiny {
                (blobs(4, 300), blobs(4, 300))
            } else {
                (blobs(8, 60_000), blobs(8, 4_000))
            };
            GraphWorkload {
                algo: Algo::CcSearch,
                chaotic: None,
                handwritten: Algo::CcHandwritten,
                full,
                ablation: full,
                traced,
            }
        }
        _ => return None,
    })
}

/// Sizes of am-storm's three phases, chosen so each takes about a third
/// of a repetition.
#[derive(Clone, Copy)]
struct StormSize {
    /// Messages each rank sends in the coalescing-64 all-to-all.
    a2a64_per_rank: u64,
    /// Messages each rank sends in the coalescing-1 all-to-all.
    a2a1_per_rank: u64,
    chains: u64,
    hops: u64,
}

fn storm_sizes(tiny: bool) -> (StormSize, StormSize) {
    let size = |a2a64_per_rank, a2a1_per_rank, chains, hops| StormSize {
        a2a64_per_rank,
        a2a1_per_rank,
        chains,
        hops,
    };
    if tiny {
        (size(20_000, 2_000, 16, 50), size(20_000, 2_000, 16, 50))
    } else {
        (
            size(8_000_000, 300_000, 256, 2_700),
            size(400_000, 20_000, 64, 300),
        )
    }
}

/// Run workload `name` and leave its metrics in `h`.
pub fn run(name: &str, o: &Opts, h: &mut Harness) -> Result<(), String> {
    if let Some(w) = graph_workload(name, o.tiny) {
        run_graph(&w, o, h);
        Ok(())
    } else if name == "am-storm" {
        run_storm(o, h);
        Ok(())
    } else {
        Err(format!("unknown workload {name}; one of {NAMES:?}"))
    }
}

// ---------------------------------------------------------------------
// Shared steps
// ---------------------------------------------------------------------

fn build_graph(h: &mut Harness, name: &str, spec: GraphSpec, seed: u64) -> (Graph, GraphTimes) {
    let start = Instant::now();
    let (g, t) = Graph::build(spec, seed);
    let parts = [
        ("generate", t.generate_s),
        ("build", t.build_s),
        ("edgemap", t.edgemap_s),
    ];
    h.span_of_parts(name, start, t.total_s(), &parts);
    (g, t)
}

/// Warm up, then repeat `rep` until `min` repetitions were attempted and
/// `seconds` have passed. Returns the first warm-up's time (what a
/// run-once user pays) and the successful timed repetitions.
fn warm_and_time<T>(
    seconds: f64,
    min: usize,
    mut rep: impl FnMut(&'static str) -> Option<T>,
    wall_s: impl Fn(&T) -> f64,
) -> (f64, Vec<T>) {
    let cold = rep("warm-up").as_ref().map_or(0.0, &wall_s);
    for _ in 1..WARMUPS {
        rep("warm-up");
    }
    let start = Instant::now();
    let mut done = Vec::new();
    let mut attempts = 0;
    while attempts < min || start.elapsed().as_secs_f64() < seconds {
        attempts += 1;
        done.extend(rep("timed"));
    }
    (cold, done)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Metrics of the timed repetitions themselves.
/// The timed samples, for whoever reads the log.
fn log_samples(walls: &[f64]) {
    let mut sorted = walls.to_vec();
    sorted.sort_by(f64::total_cmp);
    eprintln!("solve_s samples, sorted: {sorted:.4?}");
}

fn set_harness_metrics(h: &mut Harness, walls: &[f64], cold_s: f64) {
    let [q1, _, q3] = quartiles(walls).unwrap_or([0.0; 3]);
    h.set("harness.samples", walls.len() as f64);
    h.set("harness.solve_q1_s", q1);
    h.set("harness.solve_q3_s", q3);
    h.set("harness.cold_solve_s", cold_s);
    h.set("harness.nproc", crate::nproc() as f64);
}

/// Wall seconds of [`SPAWNS`] empty machines.
fn spawn_times(h: &mut Harness, label: &str) -> Vec<f64> {
    (0..SPAWNS)
        .filter_map(|_| h.rep(label, &Answer::Handled(0), sut::empty_machine))
        .map(|r| r.wall_s)
        .collect()
}

/// The runtime's floors: an empty machine, a message-free epoch.
fn set_floor_metrics(h: &mut Harness, epochs: u64, solve_s: f64) {
    let spawns = spawn_times(h, "spawn floor");
    let empty_epoch_us = sut::empty_epoch_us(EMPTY_EPOCHS).unwrap_or(0.0);
    h.set("am.spawn_s", median(&spawns));
    h.set("am.empty_epoch_us", empty_epoch_us);
    h.set(
        "am.epoch_floor_share",
        ratio(epochs as f64 * empty_epoch_us * 1e-6, solve_s),
    );
}

fn set_am_metrics(h: &mut Harness, reps: &[&Rep], solve_s: f64) {
    let sum = |f: fn(&Rep) -> u64| reps.iter().map(|r| f(r)).sum::<u64>() as f64;
    let sent = sum(|r| r.am.messages_sent);
    let envelopes = sum(|r| r.am.envelopes_sent);
    h.set("am.messages_sent", sent);
    h.set("am.messages_handled", sum(|r| r.am.messages_handled));
    h.set("am.envelopes_sent", envelopes);
    h.set("am.coalescing_factor", ratio(sent, envelopes));
    h.set("am.control_tokens", sum(|r| r.am.control_tokens));
    h.set("am.retransmits", sum(|r| r.am.retransmits));
    h.set("am.msgs_per_s", ratio(sent, solve_s));
}

/// Shares of the traced repetition: time each layer was busy itself over
/// ranks × traced wall time. `traced` holds the machine runs of that one
/// repetition (three for am-storm); each has its own span clock.
fn set_trace_metrics(h: &mut Harness, traced: &[Rep], untraced_s: f64) {
    let wall_s: f64 = traced.iter().map(|r| r.wall_s).sum();
    let mut busy = std::collections::HashMap::new();
    let mut dropped = 0;
    for rep in traced {
        let (spans, d) = rep.trace.as_ref().expect("the repetition was traced");
        dropped += d;
        for (layer, ns) in self_time_by_layer(spans) {
            *busy.entry(layer).or_insert(0u64) += ns;
        }
    }
    let share = |layer| {
        let ns = busy.get(&layer).copied().unwrap_or(0);
        ratio(ns as f64 * 1e-9, RANKS as f64 * wall_s)
    };
    h.set("am.handler_share", share(Layer::Handler));
    h.set("am.termination_share", share(Layer::Termination));
    h.set("am.epoch_wait_share", share(Layer::Epoch));
    h.set("engine.expand_share", share(Layer::Expand));
    h.set("engine.gather_share", share(Layer::Gather));
    h.set("engine.eval_share", share(Layer::Eval));
    h.set("strategy.phase_share", share(Layer::Strategy));
    // Non-zero means the shares above miss the dropped spans' time.
    h.set("harness.spans_dropped", dropped as f64);
    h.set("harness.trace_overhead_ratio", ratio(wall_s, untraced_s));
}

fn set_zero(h: &mut Harness, names: &[&str]) {
    for name in names {
        h.set(name, 0.0);
    }
}

fn set_failed_ratio(h: &mut Harness) {
    h.set(
        "harness.failed_ratio",
        ratio(h.failed as f64, h.attempted as f64),
    );
}

// ---------------------------------------------------------------------
// Graph workloads
// ---------------------------------------------------------------------

fn run_graph(w: &GraphWorkload, o: &Opts, h: &mut Harness) {
    // Set-up: generate, distribute, build the edge map. Each pass drops
    // the previous graph first so peak memory is one graph's.
    let mut setups = Vec::new();
    let mut built = None;
    for _ in 0..if o.trace { 1 } else { SETUPS } {
        drop(built.take());
        let (g, t) = build_graph(h, "setup", w.full, o.seed);
        setups.push(t.total_s());
        built = Some((g, t));
    }
    let (g, times) = built.expect("at least one set-up");
    let (mut want, seq_s) = h.timed("oracle", || g.oracle(w.algo));
    if o.corrupt_oracle {
        want.corrupt();
    }

    let min = if o.trace {
        ATTRIBUTION_TIMED
    } else {
        MIN_TIMED
    };
    let seconds = if o.trace { 0.0 } else { o.seconds };
    let (cold_s, reps) = warm_and_time(
        seconds,
        min,
        |label| h.rep(label, &want, || sut::solve(&g, w.algo, None)),
        |r| r.wall_s,
    );
    let walls: Vec<f64> = reps.iter().map(|r| r.wall_s).collect();
    let solve_s = median(&walls);
    log_samples(&walls);

    if !o.trace {
        h.set("setup_s", median(&setups));
        h.set("solve_s", solve_s);
        h.set("work_per_s", ratio(g.edges() as f64, solve_s));
        return;
    }
    // Before the ablations and the traced repetition add their own.
    h.set("harness.peak_rss_mb", peak_rss_mb());

    h.set("graph.generate_s", times.generate_s);
    h.set("graph.build_s", times.build_s);
    h.set("graph.edgemap_s", times.edgemap_s);
    h.set("graph.vertices", g.vertices() as f64);
    h.set("graph.edges", g.edges() as f64);
    h.set("seq.solve_s", seq_s);
    set_harness_metrics(h, &walls, cold_s);

    let compiles: Vec<f64> = (0..COMPILES)
        .map(|_| sut::compile_family_us(w.algo))
        .collect();
    h.set("plan.compile_us", median(&compiles));
    let installs: Vec<f64> = reps.iter().map(|r| r.phase("install")).collect();
    h.set("engine.install_s", median(&installs));

    // Counts come from the last timed repetition: the ones that repeat
    // exactly are the same in all of them, the others vary by < 1%.
    let last = reps.last();
    let e = last.and_then(|r| r.engine).unwrap_or_default();
    h.set("engine.actions_started", e.actions_started as f64);
    h.set("engine.items_generated", e.items_generated as f64);
    h.set("engine.conditions_true", e.conditions_true as f64);
    h.set("engine.conditions_false", e.conditions_false as f64);
    h.set(
        "engine.modifications_changed",
        e.modifications_changed as f64,
    );
    h.set(
        "engine.modifications_unchanged",
        e.modifications_unchanged as f64,
    );
    h.set("engine.dependencies_fired", e.dependencies_fired as f64);
    h.set(
        "engine.useful_ratio",
        ratio(e.modifications_changed as f64, e.items_generated as f64),
    );
    let am = last.map(|r| r.am).unwrap_or_default();
    h.set(
        "engine.msg_bytes_computed",
        (am.messages_sent * sut::engine_message_bytes()) as f64,
    );
    set_am_metrics(h, &last.into_iter().collect::<Vec<_>>(), solve_s);
    h.set("strategy.epochs", am.epochs as f64);
    h.set(
        "strategy.msgs_per_epoch",
        ratio(am.messages_sent as f64, am.epochs as f64),
    );
    set_floor_metrics(h, am.epochs, solve_s);

    // Ablations, like for like: the pattern and the hand-written program
    // both in one chaotic epoch (engine tax), and the pattern under its
    // strategy against the same pattern under `fixed_point` (strategy tax).
    let small =
        (w.ablation != w.full).then(|| build_graph(h, "ablation set-up", w.ablation, o.seed).0);
    let (ag, awant) = match &small {
        Some(ag) => {
            let want = ag.oracle(w.algo).0;
            (ag, want)
        }
        None => (&g, want.clone()),
    };
    let mut ablate = |label: &str, algo: Algo| {
        let reps: Vec<Rep> = (0..ABLATION_REPS)
            .filter_map(|_| h.rep(label, &awant, || sut::solve(ag, algo, None)))
            .collect();
        let walls: Vec<f64> = reps.iter().map(|r| r.wall_s).collect();
        (
            median(&walls),
            reps.last().map_or(0, |r| r.am.messages_sent),
        )
    };
    let base_s = match &small {
        Some(_) => ablate("ablation: strategy", w.algo).0,
        None => solve_s,
    };
    let (hand_s, hand_msgs) = ablate("ablation: hand-written", w.handwritten);
    let chaotic_s = match w.chaotic {
        Some(algo) => ablate("ablation: fixed_point", algo).0,
        None => base_s,
    };
    h.set("engine.tax_ratio", ratio(chaotic_s, hand_s));
    h.set("handwritten.solve_s", hand_s);
    h.set("handwritten.messages", hand_msgs as f64);
    let strategy_tax = w.chaotic.map_or(0.0, |_| ratio(base_s, chaotic_s));
    h.set("strategy.tax_ratio", strategy_tax);

    // The traced repetition, beside untraced ones on the same input.
    let (tg, _) = build_graph(h, "traced set-up", w.traced, o.seed);
    let twant = tg.oracle(w.algo).0;
    let untraced: Vec<f64> = (0..ABLATION_REPS)
        .filter_map(|_| h.rep("untraced", &twant, || sut::solve(&tg, w.algo, None)))
        .map(|r| r.wall_s)
        .collect();
    match h.rep("traced", &twant, || {
        sut::solve(&tg, w.algo, Some(SPAN_CAPACITY))
    }) {
        Some(rep) => set_trace_metrics(h, &[rep], median(&untraced)),
        None => set_trace_metrics(h, &[], 0.0),
    }

    set_zero(
        h,
        &[
            "am.a2a64_msgs_per_s",
            "am.a2a1_msgs_per_s",
            "am.pingpong_msgs_per_s",
        ],
    );
    set_failed_ratio(h);
}

// ---------------------------------------------------------------------
// am-storm
// ---------------------------------------------------------------------

/// One am-storm repetition: its three machine runs, or `None` if any of
/// them failed or lost a message.
fn storm_rep(
    h: &mut Harness,
    size: StormSize,
    span_capacity: Option<usize>,
    corrupt_oracle: bool,
) -> Option<[Rep; 3]> {
    let want = |n: u64| Answer::Handled(n + u64::from(corrupt_oracle));
    let a = h.rep("a2a64", &want(RANKS as u64 * size.a2a64_per_rank), || {
        sut::all_to_all(size.a2a64_per_rank, 64, span_capacity)
    });
    let b = h.rep("a2a1", &want(RANKS as u64 * size.a2a1_per_rank), || {
        sut::all_to_all(size.a2a1_per_rank, 1, span_capacity)
    });
    let c = h.rep("pingpong", &want(size.chains * size.hops), || {
        sut::ping_pong(size.chains, size.hops, 1, span_capacity)
    });
    Some([a?, b?, c?])
}

fn storm_wall(rep: &[Rep; 3]) -> f64 {
    rep.iter().map(|r| r.wall_s).sum()
}

fn handled(rep: &Rep) -> f64 {
    match rep.answer {
        Answer::Handled(n) => n as f64,
        _ => 0.0,
    }
}

fn run_storm(o: &Opts, h: &mut Harness) {
    let (full, traced_size) = storm_sizes(o.tiny);
    // There is no input to build; set-up is what every repetition pays
    // before its first message: an empty machine.
    let spawns = spawn_times(h, "setup");

    let min = if o.trace {
        ATTRIBUTION_TIMED
    } else {
        MIN_TIMED
    };
    let seconds = if o.trace { 0.0 } else { o.seconds };
    let (cold_s, reps) = warm_and_time(
        seconds,
        min,
        |_| storm_rep(h, full, None, o.corrupt_oracle),
        storm_wall,
    );
    let walls: Vec<f64> = reps.iter().map(storm_wall).collect();
    let solve_s = median(&walls);
    log_samples(&walls);

    if !o.trace {
        let work = reps.last().map_or(0.0, |r| r.iter().map(handled).sum());
        h.set("setup_s", median(&spawns));
        h.set("solve_s", solve_s);
        h.set("work_per_s", ratio(work, solve_s));
        return;
    }
    h.set("harness.peak_rss_mb", peak_rss_mb());

    set_harness_metrics(h, &walls, cold_s);
    let last: Vec<&Rep> = reps.last().into_iter().flatten().collect();
    set_am_metrics(h, &last, solve_s);
    let epochs = last.iter().map(|r| r.am.epochs).sum();
    set_floor_metrics(h, epochs, solve_s);
    let rate = |phase: usize| {
        let rates: Vec<f64> = reps
            .iter()
            .map(|r| ratio(handled(&r[phase]), r[phase].wall_s))
            .collect();
        median(&rates)
    };
    h.set("am.a2a64_msgs_per_s", rate(0));
    h.set("am.a2a1_msgs_per_s", rate(1));
    h.set("am.pingpong_msgs_per_s", rate(2));

    let untraced: Vec<f64> = (0..ABLATION_REPS)
        .filter_map(|_| storm_rep(h, traced_size, None, o.corrupt_oracle))
        .map(|r| storm_wall(&r))
        .collect();
    match storm_rep(h, traced_size, Some(SPAN_CAPACITY), o.corrupt_oracle) {
        Some(rep) => set_trace_metrics(h, &rep, median(&untraced)),
        None => set_trace_metrics(h, &[], 0.0),
    }

    // Layers am-storm does not touch: no graph, no plan, no engine, no
    // strategy, no hand-written partner, no sequential oracle.
    set_zero(
        h,
        &[
            "graph.generate_s",
            "graph.build_s",
            "graph.edgemap_s",
            "graph.vertices",
            "graph.edges",
            "seq.solve_s",
            "plan.compile_us",
            "engine.install_s",
            "engine.actions_started",
            "engine.items_generated",
            "engine.conditions_true",
            "engine.conditions_false",
            "engine.modifications_changed",
            "engine.modifications_unchanged",
            "engine.dependencies_fired",
            "engine.useful_ratio",
            "engine.msg_bytes_computed",
            "engine.tax_ratio",
            "handwritten.solve_s",
            "handwritten.messages",
            "strategy.epochs",
            "strategy.msgs_per_epoch",
            "strategy.tax_ratio",
        ],
    );
    set_failed_ratio(h);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Value;
    use crate::spec::Spec;

    /// One tiny run, as `main` would print it.
    fn tiny(name: &str, seed: u64, trace: bool, corrupt_oracle: bool) -> Value {
        let o = Opts {
            seed,
            seconds: 0.0,
            trace,
            tiny: true,
            corrupt_oracle,
        };
        let mut h = Harness::new();
        run(name, &o, &mut h).unwrap();
        h.result(Spec::load().metrics(trace))
    }

    fn value(result: &Value, metric: &str) -> f64 {
        let m = result.get("metrics").unwrap().get(metric).unwrap();
        m.get("value").unwrap().as_f64().unwrap()
    }

    /// Every metric `BENCHMARK.json` names comes out of both kinds of
    /// run with its unit, and the counts that should repeat exactly do.
    fn check(name: &str) {
        let spec = Spec::load();
        assert!(spec.workloads.iter().any(|w| w == name));
        let legal = |s: &str| {
            !s.is_empty()
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        assert!(legal(name));
        let runs = [
            tiny(name, 7, false, false),
            tiny(name, 7, true, false),
            tiny(name, 7, true, false),
        ];
        for (result, wanted) in
            runs.iter()
                .zip([&spec.end_to_end, &spec.per_layer, &spec.per_layer])
        {
            assert_eq!(result.get("correct"), Some(&Value::Bool(true)));
            assert_eq!(result.get("failed").and_then(Value::as_f64), Some(0.0));
            assert!(result.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0);
            let Value::Obj(printed) = result.get("metrics").unwrap() else {
                panic!("metrics is an object");
            };
            assert_eq!(printed.len(), wanted.len());
            for m in wanted.iter() {
                assert!(legal(&m.name), "{}", m.name);
                let entry = result.get("metrics").unwrap().get(&m.name).unwrap();
                assert_eq!(
                    entry.get("unit").and_then(Value::as_str),
                    Some(m.unit.as_str())
                );
                assert!(entry
                    .get("value")
                    .and_then(Value::as_f64)
                    .unwrap()
                    .is_finite());
            }
        }
        for m in &spec.end_to_end {
            assert!(value(&runs[0], &m.name) > 0.0, "{} is never 0", m.name);
        }
        for (workload, metric) in EXACT_COUNTS {
            if workload == name {
                let (a, b) = (value(&runs[1], metric), value(&runs[2], metric));
                assert!(a > 0.0 && a == b, "{metric} on {name}: {a} then {b}");
            }
        }
    }

    #[test]
    fn sssp_rmat_emits_every_metric() {
        check("sssp-rmat");
    }

    #[test]
    fn sssp_grid_emits_every_metric_and_repeats_its_epochs() {
        check("sssp-grid");
    }

    #[test]
    fn cc_blobs_emits_every_metric_and_repeats_its_messages() {
        check("cc-blobs");
    }

    #[test]
    fn am_storm_emits_every_metric_and_repeats_its_messages() {
        check("am-storm");
    }

    #[test]
    fn benchmark_json_names_exactly_these_workloads() {
        assert_eq!(Spec::load().workloads, NAMES);
        assert!(run(
            "no-such-workload",
            &Opts {
                seed: 1,
                seconds: 0.0,
                trace: false,
                tiny: true,
                corrupt_oracle: false
            },
            &mut Harness::new()
        )
        .is_err());
    }

    #[test]
    fn the_seed_decides_the_input() {
        for name in ["sssp-rmat", "sssp-grid", "cc-blobs"] {
            let spec = graph_workload(name, true).unwrap().full;
            let print = |seed| Graph::build(spec, seed).0.fingerprint();
            assert_eq!(print(7), print(7), "{name}: same seed, same input");
            assert_ne!(print(7), print(8), "{name}: another seed, another input");
        }
    }

    #[test]
    fn a_wrong_oracle_fails_every_repetition() {
        for name in ["sssp-rmat", "cc-blobs", "am-storm"] {
            let result = tiny(name, 7, true, true);
            assert_eq!(result.get("correct"), Some(&Value::Bool(false)), "{name}");
            assert!(result.get("failed").and_then(Value::as_f64).unwrap() > 0.0);
            assert!(value(&result, "harness.failed_ratio") > 0.0, "{name}");
        }
    }
}
