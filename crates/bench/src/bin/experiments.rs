//! The experiment harness: regenerates every figure and experiment in
//! `EXPERIMENTS.md`.
//!
//! Usage: `experiments [flags] [id ...]` where the ids are the rows of
//! [`EXPERIMENTS`] (f1 f2 f3 f5 f6 e1..e16), or nothing (= all, in table
//! order). An unknown id or flag exits 2 and prints the valid ones.
//! Scale with `--small` for quick runs.
//! `--transport inproc|shm|tcp` runs every experiment over the chosen
//! transport backend (sets `DGP_TRANSPORT`, which every `MachineConfig`
//! reads; E16 always sweeps all backends regardless). `--metrics DIR`
//! makes E12 write `metrics.json` and `trace.json` (Chrome trace-event
//! format, loadable in Perfetto / `chrome://tracing`) into DIR.
//! `--trace` turns E12's causal sampling up to every send, so the written
//! trace.json stitches handler spans across ranks with flow arrows.
//! `--postmortem DIR` makes E14's deliberately-crashed runs write their
//! automatic post-mortem dumps into DIR.
//! `--lint` skips the experiments entirely and instead runs the static
//! verifier (`dgp-core::verify`) over every registered pattern family,
//! printing a diagnostics table; it exits nonzero if any error-severity
//! diagnostic is found (CI runs this).
//! `--sim-replay PATH` skips the experiments and instead replays one
//! `[replay]` block (as produced by the explorer/shrinker or
//! `dgp_sim::to_replay`) from PATH, printing the outcome; exits nonzero
//! if the scenario still fails.
//!
//! An experiment returns its number of failing cells (E15's shrunk
//! schedule-exploration failures; the others assert); the process exits 1
//! if the sum is nonzero.

use std::path::PathBuf;
use std::time::Instant;

/// `--lint`: verify every registered pattern family statically and print
/// the findings. Exit code 1 if any diagnostic is error-severity.
fn lint() -> ! {
    use dgp_bench::table::Table;
    use dgp_core::verify::Severity;

    let mut t = Table::new(&["pattern", "action", "code", "severity", "place", "message"]);
    let mut findings = 0usize;
    let mut errors = 0usize;
    let mut clean = 0usize;
    for p in dgp_algorithms::builtin_patterns() {
        let report = p.verify();
        if report.is_clean() {
            clean += 1;
            continue;
        }
        for d in &report.diagnostics {
            findings += 1;
            if d.severity == Severity::Error {
                errors += 1;
            }
            t.row(vec![
                p.name().to_string(),
                d.action.clone(),
                format!("{} {}", d.code.as_str(), d.code.title()),
                match d.severity {
                    Severity::Error => "error".to_string(),
                    Severity::Warning => "warning".to_string(),
                },
                d.place
                    .as_ref()
                    .map(|pl| format!("{pl}"))
                    .unwrap_or_default(),
                d.message.clone(),
            ]);
        }
    }
    if findings > 0 {
        t.print();
    }
    println!(
        "\n{clean} pattern families verification clean; {findings} finding(s), {errors} error(s)"
    );

    // Plan-verification table: what the always-on abstract interpreter
    // proved about every compiled plan, per mode — the facts each proof
    // carries and how many per-message runtime guards compiled code omits
    // on its strength (INTERNALS §13). A plan that fails to compile (or
    // compiles without a proof) is an error-severity finding. The
    // "compiled" column is read off an installed engine
    // (`PatternBuilder::jit_report`): what `add_action`'s own gate and
    // compiler decided, per mode.
    use dgp_core::engine::EngineConfig;
    use dgp_core::plan::{compile, PlanMode};
    let modes = [
        (PlanMode::Faithful, "faithful"),
        (PlanMode::Optimized, "optimized"),
    ];
    let installed = modes.map(|(plan_mode, _)| {
        let cfg = EngineConfig {
            plan_mode,
            ..EngineConfig::default()
        };
        dgp_algorithms::builtin_patterns()
            .into_iter()
            .map(|p| p.jit_report(cfg))
            .collect::<Vec<_>>()
    });
    let mut pt = Table::new(&[
        "pattern",
        "action",
        "mode",
        "diags",
        "facts proved",
        "checks elided",
        "compiled",
    ]);
    for (fi, p) in dgp_algorithms::builtin_patterns().iter().enumerate() {
        for (ai, a) in p.actions().iter().enumerate() {
            for (mi, (mode, mode_name)) in modes.into_iter().enumerate() {
                // The plan JIT (INTERNALS §14) must accept every clean
                // proof-carrying plan; a fallback here means a shipped
                // pattern silently lost its native handlers — error
                // severity.
                let compiled = match &installed[mi][fi] {
                    Ok(report) => match report[ai] {
                        None => "yes".to_string(),
                        Some(fb) => {
                            errors += 1;
                            format!("NO: {fb}")
                        }
                    },
                    Err(_) => "-".to_string(),
                };
                let (diags, facts, elided) = match compile(&a.ir, mode) {
                    Ok(plan) => match &plan.facts {
                        Some(facts) => (
                            0,
                            facts.summary(),
                            facts.runtime_checks_elided().to_string(),
                        ),
                        None => {
                            errors += 1;
                            (0, "NO PROOF".to_string(), "0".to_string())
                        }
                    },
                    Err(e) => {
                        errors += e.diagnostics.len().max(1);
                        let first = e.diagnostics.first().map_or("?", |d| d.code.as_str());
                        (
                            e.diagnostics.len(),
                            format!("REJECTED: {first}"),
                            "0".to_string(),
                        )
                    }
                };
                pt.row(vec![
                    p.name().to_string(),
                    a.ir.name.clone(),
                    mode_name.to_string(),
                    diags.to_string(),
                    facts,
                    elided,
                    compiled,
                ]);
            }
        }
    }
    println!("\nplan soundness (proof-carrying plans per mode):");
    pt.print();
    std::process::exit(if errors > 0 { 1 } else { 0 });
}

/// `--sim-replay PATH`: parse one `[replay]` block and re-run the exact
/// scenario it describes — the one-command repro for any schedule the
/// explorer/shrinker (or a failing CI cell) serialized. Exits 0 when the
/// scenario passes its invariants, 1 when it still fails.
fn sim_replay(path: &str) -> ! {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("--sim-replay {path}: {e}");
            std::process::exit(2);
        }
    };
    let spec = match dgp_sim::from_replay(&text) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("--sim-replay {path}: {e}");
            std::process::exit(2);
        }
    };
    println!("replaying {path}: {spec:?}\n");
    let t0 = Instant::now();
    let out = dgp_sim::run_scenario(&spec);
    let wall = t0.elapsed();
    println!(
        "virtual time {} ns | {} deliveries | {} events | {} wake rounds | wall {wall:?}",
        out.report.virtual_time_ns,
        out.report.deliveries,
        out.report.events,
        out.report.wake_rounds
    );
    println!(
        "partition drops {} | partition held {} | flight digest {:#018x} | result digest {:#018x}",
        out.report.partition_drops,
        out.report.partition_held,
        out.report.flight_digest,
        out.result_digest
    );
    match out.error {
        None => {
            println!("\nreplay PASSED: every mid-run invariant and final result check held");
            std::process::exit(0);
        }
        Some(e) => {
            println!("\nreplay FAILED (reproduced): {e}");
            std::process::exit(1);
        }
    }
}

/// One row of the experiment table: the id the command line and the
/// `## <ID> —` heading in `EXPERIMENTS.md` share, the header lines printed
/// above its output, and the function that runs it and returns its number
/// of failing cells.
struct Experiment {
    id: &'static str,
    title: &'static str,
    /// The figure, section or claim of the paper the experiment answers to.
    paper: &'static str,
    run: fn(&Opts) -> usize,
}

/// Every experiment, in the order a run without ids executes them.
const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        id: "F1",
        title: "fixed-point SSSP and Δ-stepping share one relax pattern",
        paper: "Fig. 1 + §II-A: \"the two algorithms share the relax function\"",
        run: exp::f1,
    },
    Experiment {
        id: "F2",
        title: "the SSSP pattern and its automatically generated plan",
        paper: "Figs. 2/4: the pattern source; §IV-A: the translation",
        run: exp::f2,
    },
    Experiment {
        id: "F3",
        title: "CC: parallel search + pointer jumping vs label propagation vs union-find",
        paper: "Fig. 3 + §II-B (\"see [7] for a comparison of a few popular algorithms\")",
        run: exp::f3,
    },
    Experiment {
        id: "F5",
        title: "gather traversal of the general dependency tree",
        paper: "Fig. 5: 8 messages depth-first; dashed line = straight-jump optimization",
        run: exp::f5,
    },
    Experiment {
        id: "F6",
        title: "one-message communication for the SSSP pattern",
        paper: "Fig. 6: condition evaluation and modification merged at trg(e)",
        run: exp::f6,
    },
    Experiment {
        id: "E1",
        title: "message coalescing: buffer-capacity sweep",
        paper: "§IV: \"coalescing greatly improves performance when large amounts of messages are sent\"",
        run: exp::e1,
    },
    Experiment {
        id: "E2",
        title: "message caching: duplicate elimination on a BFS frontier",
        paper: "§IV: \"caching allows to avoid unnecessary message sends and the corresponding handler calls\"",
        run: exp::e2,
    },
    Experiment {
        id: "E3",
        title: "message reduction: min-combining SSSP relaxations per target",
        paper: "§II-B: \"our implementation based on AM++ allows reductions of unnecessary communication\"",
        run: exp::e3,
    },
    Experiment {
        id: "E4",
        title: "Δ-stepping: the Δ sweep and the fixed-point crossover",
        paper: "§II-A: bucket width trades wasted relaxations against available parallelism",
        run: exp::e4,
    },
    Experiment {
        id: "E5",
        title: "lock-map schemes vs atomic read-modify-write",
        paper: "§IV-B: \"a single lock per vertex or a lock for a block of vertices\"; atomics where supported",
        run: exp::e5,
    },
    Experiment {
        id: "E6",
        title: "termination detection: shared counters vs four-counter waves; epochs vs try_finish",
        paper: "§III-D + §IV: epochs map to AM++ epochs; try_finish for algorithms without coarse synchronization",
        run: exp::e6,
    },
    Experiment {
        id: "E7",
        title: "abstraction overhead: pattern engine vs hand-written AM vs sequential",
        paper: "§I: patterns sit between \"maximum control\" and full synthesis",
        run: exp::e7,
    },
    Experiment {
        id: "E8",
        title: "scale sweep: build + traversal throughput vs graph size",
        paper: "§I: Graph500 motivates ever-larger graphs; shape should be scale-stable",
        run: exp::e8,
    },
    Experiment {
        id: "E9",
        title: "strong scaling: fixed problem, 1..8 ranks",
        paper: "epochs and the engine operate identically at any rank count",
        run: exp::e9,
    },
    Experiment {
        id: "E10",
        title: "strategy generality: one relax pattern under four schedules",
        paper: "§I: strategies \"apply patterns in a certain way... including chaining patterns in an arbitrary way\"",
        run: exp::e10,
    },
    Experiment {
        id: "E11",
        title: "push vs pull contribution: the plan predicts the message bill",
        paper: "§IV-A: gather messages for remote operands vs a single merged modify",
        run: exp::e11,
    },
    Experiment {
        id: "E12",
        title: "per-epoch profiles and span tracing (dgp-am::obs)",
        paper: "Figs. 5-6 method: per-phase message counts read off the runtime itself",
        run: exp::e12,
    },
    Experiment {
        id: "E13",
        title: "fault-injected runs are bit-identical to fault-free runs",
        paper: "robustness of the AM runtime the patterns compile onto (§III)",
        run: exp::e13,
    },
    Experiment {
        id: "E14",
        title: "causal tracing + flight recorder: automatic post-mortems",
        paper: "what was the machine doing when it died, without re-running",
        run: exp::e14,
    },
    Experiment {
        id: "E15",
        title: "deterministic simulator: 4096-rank scaling + schedule exploration",
        paper: "beyond the paper: a reproducible testing substrate for the §III runtime",
        run: exp::e15,
    },
    Experiment {
        id: "E16",
        title: "pluggable transports: inproc vs shm rings vs TCP (with forced kills)",
        paper: "beyond the paper: the §III runtime over a real byte-stream transport",
        run: exp::e16,
    },
];

/// The parsed command line.
#[derive(Default)]
struct Opts {
    small: bool,
    full_trace: bool,
    lint: bool,
    metrics_dir: Option<PathBuf>,
    postmortem_dir: Option<PathBuf>,
    transport: Option<String>,
    sim_replay: Option<String>,
    /// The experiments to run, in table order (all of them when the
    /// command line names none).
    selected: Vec<&'static Experiment>,
}

impl Opts {
    /// Parse the arguments after the program name. Anything that is not a
    /// known flag or the id of a table row is an error, so a typo cannot
    /// turn a CI step into a green no-op.
    fn parse(args: impl IntoIterator<Item = String>) -> Result<Opts, String> {
        let mut o = Opts::default();
        let mut named = [false; EXPERIMENTS.len()];
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let mut value = |what: &str| args.next().ok_or_else(|| format!("{arg} needs {what}"));
            match arg.as_str() {
                "--small" => o.small = true,
                "--trace" => o.full_trace = true,
                "--lint" => o.lint = true,
                "--metrics" => o.metrics_dir = Some(value("a directory argument")?.into()),
                "--postmortem" => o.postmortem_dir = Some(value("a directory argument")?.into()),
                "--sim-replay" => o.sim_replay = Some(value("a file argument")?),
                "--transport" => {
                    let name = value("one of inproc|shm|tcp (got nothing)")?;
                    if !matches!(name.as_str(), "inproc" | "shm" | "tcp") {
                        return Err(format!(
                            "--transport needs one of inproc|shm|tcp (got {name})"
                        ));
                    }
                    o.transport = Some(name);
                }
                flag if flag.starts_with('-') => return Err(format!("unknown flag {flag}")),
                id => match EXPERIMENTS
                    .iter()
                    .position(|e| e.id.eq_ignore_ascii_case(id))
                {
                    Some(row) => named[row] = true,
                    None => return Err(format!("unknown experiment id {id}")),
                },
            }
        }
        let all = !named.contains(&true);
        o.selected = EXPERIMENTS
            .iter()
            .zip(named)
            .filter(|&(_, is_named)| all || is_named)
            .map(|(e, _)| e)
            .collect();
        Ok(o)
    }
}

fn usage() -> String {
    let ids: Vec<String> = EXPERIMENTS.iter().map(|e| e.id.to_lowercase()).collect();
    format!(
        "usage: experiments [flags] [id ...]\n  ids (none = all, in this order): {}\n  \
         flags: --small --trace --metrics DIR --postmortem DIR \
         --transport inproc|shm|tcp --lint --sim-replay FILE",
        ids.join(" ")
    )
}

fn main() {
    let o = Opts::parse(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("experiments: {e}\n{}", usage());
        std::process::exit(2);
    });
    if o.lint {
        lint();
    }
    if let Some(name) = &o.transport {
        // Every MachineConfig::new in the process picks this up.
        std::env::set_var("DGP_TRANSPORT", name);
        println!("transport backend: {name}");
    }
    if let Some(path) = &o.sim_replay {
        sim_replay(path);
    }
    if let Some(dir) = &o.metrics_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("--metrics {}: {e}", dir.display());
            std::process::exit(2);
        }
    }

    let t0 = Instant::now();
    let mut failures = 0;
    for e in &o.selected {
        println!("\n==================================================================");
        println!("{}: {}", e.id, e.title);
        println!("paper: {}", e.paper);
        println!("==================================================================");
        failures += (e.run)(&o);
    }
    eprintln!("\ntotal harness time: {:?}", t0.elapsed());
    if failures > 0 {
        std::process::exit(1);
    }
}

mod exp {
    use super::Opts;
    use dgp_algorithms::{handwritten, patterns, seq, sssp::Sssp, SsspStrategy};
    use dgp_am::{Machine, MachineConfig, TerminationMode};
    use dgp_bench::measure::{self, CcMeasurement, SsspMeasurement};
    use dgp_bench::table::{fmt_ms, Table};
    use dgp_bench::workloads;
    use dgp_core::depgraph::DepTree;
    use dgp_core::engine::{EngineConfig, SyncMode};
    use dgp_core::ir::Place;
    use dgp_core::plan::{compile, PlanMode};
    use dgp_core::strategies::once_until_fixed;
    use dgp_graph::properties::{EdgeMap, LockGranularity};
    use dgp_graph::{DistGraph, Distribution};

    fn sssp_row(t: &mut Table, m: &SsspMeasurement) {
        t.row(vec![
            m.label.clone(),
            fmt_ms(m.millis),
            m.relaxations.to_string(),
            m.attempts.to_string(),
            m.messages.to_string(),
            m.epochs.to_string(),
            if m.correct { "yes" } else { "NO" }.to_string(),
        ]);
    }

    /// F1 — Fig. 1/§II-A: one relax pattern, fixed-point vs Δ-stepping.
    pub fn f1(o: &Opts) -> usize {
        let scale = if o.small { 10 } else { 13 };
        let el = workloads::rmat_weighted(scale, 8, 11);
        let oracle = seq::dijkstra(&el, 0);
        println!(
            "workload: RMAT scale {scale} ({} vertices, {} edges), 4 ranks\n",
            el.num_vertices(),
            el.num_edges()
        );
        let mut t = Table::new(&[
            "strategy",
            "time",
            "relaxations",
            "attempts",
            "messages",
            "epochs",
            "correct",
        ]);
        for (label, strategy) in [
            ("fixed_point", SsspStrategy::FixedPoint),
            ("delta Δ=0.1", SsspStrategy::Delta(0.1)),
            ("delta Δ=0.4", SsspStrategy::Delta(0.4)),
            ("delta-async Δ=0.4", SsspStrategy::DeltaAsync(0.4)),
        ] {
            let m = measure::sssp_pattern(
                label,
                &el,
                MachineConfig::new(4),
                EngineConfig::default(),
                0,
                strategy,
                &oracle,
            );
            sssp_row(&mut t, &m);
        }
        t.print();
        println!("\nSame declarative relax; only the imperative strategy differs.");
        0
    }

    /// F2 — Fig. 2/4: the SSSP pattern and its compiled form.
    pub fn f2(_: &Opts) -> usize {
        let relax = patterns::relax(0, 1);
        println!("pattern relax(Vertex v):");
        println!("  generator: e in out_edges");
        println!("  if (dist[trg(e)] > dist[v] + weight[e])");
        println!("    dist[trg(e)] = dist[v] + weight[e];\n");
        println!("dependency matrix (per condition, per modification — §III-C):");
        println!(
            "  {:?}  (dist is read AND written -> work items at trg(e))\n",
            relax.ir.dependency_matrix()
        );
        for mode in [PlanMode::Faithful, PlanMode::Optimized] {
            let plan = compile(&relax.ir, mode).unwrap();
            println!("{plan}");
            println!("{}\n", plan.comm_plan());
        }
        0
    }

    /// F3 — Fig. 3/§II-B: CC parallel search vs alternatives.
    pub fn f3(o: &Opts) -> usize {
        let (k, size) = if o.small { (8, 200) } else { (16, 2000) };
        let el = workloads::blobs(k, size, 7);
        println!(
            "workload: {k} components x {size} vertices ({} edges), 4 ranks\n",
            el.num_edges()
        );
        let mut t = Table::new(&["algorithm", "time", "messages", "components", "correct"]);
        let rows: Vec<CcMeasurement> = vec![
            measure::cc_pattern(
                "parallel search (pattern)",
                &el,
                MachineConfig::new(4),
                EngineConfig::default(),
            ),
            measure::cc_label_prop("label propagation (hand AM)", &el, MachineConfig::new(4)),
            measure::cc_sequential(&el),
        ];
        for m in rows {
            t.row(vec![
                m.label,
                fmt_ms(m.millis),
                m.messages.to_string(),
                m.components.to_string(),
                if m.correct { "yes" } else { "NO" }.into(),
            ]);
        }
        t.print();
        0
    }

    /// F5 — Fig. 5: gather-message counts on the general dependency tree.
    pub fn f5(_: &Opts) -> usize {
        let (a, b, c, d, e, f) = (0u32, 1, 2, 3, 4, 5);
        let n1 = Place::map_at(a, Place::Input);
        let n2 = Place::map_at(b, n1.clone());
        let n3 = Place::map_at(c, Place::Input);
        let n4 = Place::map_at(d, n3.clone());
        let u = Place::map_at(e, n4.clone());
        let n5 = Place::map_at(f, u.clone());
        let tree = DepTree::build(&[n1, n2, n3, n4, u, n5]);
        println!("reconstructed dependency tree (see DESIGN.md, F5):\n{tree}");
        let mut t = Table::new(&["traversal", "messages"]);
        t.row(vec![
            "faithful depth-first (paper)".into(),
            tree.faithful_message_count().to_string(),
        ]);
        t.row(vec![
            "straight-jump (dashed line)".into(),
            tree.optimized_message_count().to_string(),
        ]);
        t.print();
        assert_eq!(tree.faithful_message_count(), 8);
        assert_eq!(tree.optimized_message_count(), 6);
        println!("\npaper asserts 8 messages for the depth-first walk: reproduced.");
        0
    }

    /// F6 — Fig. 6: the SSSP pattern compiles to a single message.
    pub fn f6(_: &Opts) -> usize {
        let relax = patterns::relax(0, 1);
        let mut t = Table::new(&["plan mode", "messages", "merged eval+modify"]);
        for mode in [PlanMode::Faithful, PlanMode::Optimized] {
            let plan = compile(&relax.ir, mode).unwrap();
            let cp = plan.comm_plan();
            t.row(vec![
                format!("{mode:?}"),
                cp.messages.to_string(),
                format!("{:?}", plan.merged),
            ]);
            assert_eq!(cp.messages, 1);
        }
        t.print();
        println!("\ndist[v] + weight[e] is precomputed at v and carried in the payload;");
        println!("the merged message reads dist[trg(e)] fresh under synchronization.");
        0
    }

    /// E1 — coalescing buffer-size sweep.
    pub fn e1(o: &Opts) -> usize {
        let scale = if o.small { 10 } else { 13 };
        let el = workloads::rmat_weighted(scale, 8, 21);
        let oracle = seq::dijkstra(&el, 0);
        println!("workload: RMAT scale {scale}, SSSP Δ=0.4, 4 ranks\n");
        let mut t = Table::new(&["capacity", "time", "messages", "envelopes", "msgs/envelope"]);
        for cap in [1usize, 4, 16, 64, 256, 1024] {
            let m = measure::sssp_pattern(
                &cap.to_string(),
                &el,
                MachineConfig::new(4).coalescing(cap),
                EngineConfig::default(),
                0,
                SsspStrategy::Delta(0.4),
                &oracle,
            );
            assert!(m.correct);
            t.row(vec![
                cap.to_string(),
                fmt_ms(m.millis),
                m.messages.to_string(),
                m.envelopes.to_string(),
                format!("{:.1}", m.messages as f64 / m.envelopes as f64),
            ]);
        }
        t.print();
        0
    }

    /// E2 — caching (duplicate elimination) on/off.
    pub fn e2(o: &Opts) -> usize {
        let scale = if o.small { 11 } else { 14 };
        let el = workloads::rmat(scale, 16, 31);
        println!("workload: RMAT scale {scale}, edge factor 16, BFS from 0, 4 ranks\n");
        let graph = DistGraph::build(&el, Distribution::block(el.num_vertices(), 4), false);
        let mut t = Table::new(&["configuration", "time", "sent", "cache hits", "handled"]);
        for (label, slots) in [
            ("no caching", None),
            ("cache 2^10 slots", Some(1024usize)),
            ("cache 2^14 slots", Some(16384)),
        ] {
            let graph = graph.clone();
            let t0 = std::time::Instant::now();
            let mut out = Machine::run(MachineConfig::new(4), move |ctx| {
                let lvl = match slots {
                    None => handwritten::bfs(ctx, &graph, 0),
                    Some(s) => handwritten::bfs_cached(ctx, &graph, 0, s),
                };
                (ctx.rank() == 0).then(|| (lvl.snapshot(), ctx.stats()))
            });
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            let (lvl, stats) = out[0].take().unwrap();
            assert_eq!(lvl, dgp_graph::analysis::bfs_levels(&el, 0), "{label}");
            t.row(vec![
                label.into(),
                fmt_ms(ms),
                stats.messages_sent.to_string(),
                stats.cache_hits.to_string(),
                stats.messages_handled.to_string(),
            ]);
        }
        t.print();
        0
    }

    /// E3 — reductions (min-combining) on SSSP.
    pub fn e3(o: &Opts) -> usize {
        let scale = if o.small { 10 } else { 13 };
        let el = workloads::rmat_weighted(scale, 16, 41);
        let oracle = seq::dijkstra(&el, 0);
        println!("workload: RMAT scale {scale}, edge factor 16, hand-written SSSP, 4 ranks\n");
        let graph = DistGraph::build(&el, Distribution::block(el.num_vertices(), 4), false);
        let weights = EdgeMap::from_weights(&graph, &el);
        let mut t = Table::new(&["configuration", "time", "transmitted", "combined away"]);
        for (label, slots) in [
            ("no reduction", None),
            ("reduce 2^8 slots", Some(256usize)),
            ("reduce 2^12 slots", Some(4096)),
        ] {
            let (graph, weights, oracle) = (graph.clone(), weights.clone(), oracle.clone());
            let t0 = std::time::Instant::now();
            let mut out = Machine::run(MachineConfig::new(4), move |ctx| {
                let d = match slots {
                    None => handwritten::sssp(ctx, &graph, &weights, 0),
                    Some(s) => handwritten::sssp_reduced(ctx, &graph, &weights, 0, s),
                };
                let snap = d.snapshot();
                let ok = snap
                    .iter()
                    .zip(&oracle)
                    .all(|(a, b)| (a - b).abs() < 1e-9 || (a.is_infinite() && b.is_infinite()));
                (ctx.rank() == 0).then(|| (ok, ctx.stats()))
            });
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            let (ok, stats) = out[0].take().unwrap();
            assert!(ok, "{label}");
            t.row(vec![
                label.into(),
                fmt_ms(ms),
                stats.messages_sent.to_string(),
                stats.reduction_combines.to_string(),
            ]);
        }
        t.print();
        0
    }

    /// E4 — Δ sweep.
    pub fn e4(o: &Opts) -> usize {
        let side = if o.small { 48 } else { 128 };
        let el = workloads::grid_weighted(side, 5);
        let oracle = seq::dijkstra(&el, 0);
        println!("workload: weighted {side}x{side} grid (long diameter), 4 ranks\n");
        let mut t = Table::new(&[
            "strategy",
            "time",
            "relaxations",
            "attempts",
            "messages",
            "epochs",
            "correct",
        ]);
        for (label, strategy) in [
            ("delta Δ=0.25".to_string(), SsspStrategy::Delta(0.25)),
            ("delta Δ=1".to_string(), SsspStrategy::Delta(1.0)),
            ("delta Δ=4".to_string(), SsspStrategy::Delta(4.0)),
            ("delta Δ=16".to_string(), SsspStrategy::Delta(16.0)),
            ("delta-split Δ=1".to_string(), SsspStrategy::DeltaSplit(1.0)),
            (
                "delta Δ=1e9 (1 bucket)".to_string(),
                SsspStrategy::Delta(1e9),
            ),
            ("fixed_point".to_string(), SsspStrategy::FixedPoint),
        ] {
            let m = measure::sssp_pattern(
                &label,
                &el,
                MachineConfig::new(4),
                EngineConfig::default(),
                0,
                strategy,
                &oracle,
            );
            sssp_row(&mut t, &m);
        }
        t.print();
        println!("\nsmall Δ: many epochs, few wasted relaxations; huge Δ ~ chaotic fixed point.");
        0
    }

    /// E5 — synchronization schemes.
    pub fn e5(o: &Opts) -> usize {
        let scale = if o.small { 10 } else { 13 };
        let el = workloads::rmat_weighted(scale, 8, 51);
        let oracle = seq::dijkstra(&el, 0);
        println!("workload: RMAT scale {scale}, SSSP Δ=0.4, 2 ranks x 4 threads\n");
        let mut t = Table::new(&["synchronization", "time", "correct"]);
        let configs: Vec<(&str, EngineConfig)> = vec![
            (
                "atomic min (CAS)",
                EngineConfig {
                    sync: SyncMode::Atomic,
                    ..Default::default()
                },
            ),
            (
                "lock per vertex",
                EngineConfig {
                    sync: SyncMode::LockMap,
                    lock_granularity: LockGranularity::PerVertex,
                    ..Default::default()
                },
            ),
            (
                "lock per 64-block",
                EngineConfig {
                    sync: SyncMode::LockMap,
                    lock_granularity: LockGranularity::Block(64),
                    ..Default::default()
                },
            ),
            (
                "16 striped locks",
                EngineConfig {
                    sync: SyncMode::LockMap,
                    lock_granularity: LockGranularity::Striped(16),
                    ..Default::default()
                },
            ),
        ];
        for (label, cfg) in configs {
            let m = measure::sssp_pattern(
                label,
                &el,
                MachineConfig::new(2).threads_per_rank(4),
                cfg,
                0,
                SsspStrategy::Delta(0.4),
                &oracle,
            );
            t.row(vec![
                label.into(),
                fmt_ms(m.millis),
                if m.correct { "yes" } else { "NO" }.into(),
            ]);
        }
        t.print();
        0
    }

    /// E6 — termination detection algorithms.
    pub fn e6(o: &Opts) -> usize {
        let scale = if o.small { 10 } else { 12 };
        let el = workloads::rmat_weighted(scale, 8, 61);
        let oracle = seq::dijkstra(&el, 0);
        println!("workload: RMAT scale {scale}, SSSP Δ=0.2 (many epochs), 4 ranks\n");
        let mut t = Table::new(&["configuration", "time", "epochs", "correct"]);
        for (label, term, strategy) in [
            (
                "shared counters, epoch/bucket",
                TerminationMode::SharedCounters,
                SsspStrategy::Delta(0.2),
            ),
            (
                "four-counter waves, epoch/bucket",
                TerminationMode::FourCounterWave,
                SsspStrategy::Delta(0.2),
            ),
            (
                "shared counters, async try_finish",
                TerminationMode::SharedCounters,
                SsspStrategy::DeltaAsync(0.2),
            ),
        ] {
            let m = measure::sssp_pattern(
                label,
                &el,
                MachineConfig::new(4).termination(term),
                EngineConfig::default(),
                0,
                strategy,
                &oracle,
            );
            t.row(vec![
                label.into(),
                fmt_ms(m.millis),
                m.epochs.to_string(),
                if m.correct { "yes" } else { "NO" }.into(),
            ]);
        }
        t.print();
        println!("\nasync Δ-stepping runs the whole computation in ONE epoch ended by try_finish.");
        0
    }

    /// E7 — abstraction overhead.
    pub fn e7(o: &Opts) -> usize {
        let scale = if o.small { 10 } else { 13 };
        let el = workloads::rmat_weighted(scale, 8, 71);
        let oracle = seq::dijkstra(&el, 0);
        println!("workload: RMAT scale {scale}, SSSP, 4 ranks\n");
        let mut t = Table::new(&["implementation", "time", "messages", "correct"]);
        let rows = vec![
            measure::sssp_pattern(
                "pattern engine (self-send)",
                &el,
                MachineConfig::new(4),
                EngineConfig::default(),
                0,
                SsspStrategy::Delta(0.4),
                &oracle,
            ),
            measure::sssp_pattern(
                "pattern engine (inline local)",
                &el,
                MachineConfig::new(4),
                EngineConfig {
                    self_send: false,
                    ..Default::default()
                },
                0,
                SsspStrategy::Delta(0.4),
                &oracle,
            ),
            measure::sssp_handwritten(
                "hand-written AM",
                &el,
                MachineConfig::new(4),
                0,
                None,
                &oracle,
            ),
            measure::sssp_sequential(&el, 0),
        ];
        for m in rows {
            t.row(vec![
                m.label.clone(),
                fmt_ms(m.millis),
                m.messages.to_string(),
                if m.correct { "yes" } else { "NO" }.into(),
            ]);
        }
        t.print();
        0
    }

    /// E8 — Graph500-style scale sweep.
    pub fn e8(o: &Opts) -> usize {
        let scales: &[u32] = if o.small {
            &[10, 12]
        } else {
            &[10, 12, 14, 16]
        };
        println!("workload: RMAT edge factor 16, BFS from 0, 4 ranks\n");
        let mut t = Table::new(&["scale", "vertices", "edges", "build", "bfs", "MTEPS"]);
        for &scale in scales {
            let el = workloads::rmat(scale, 16, 81);
            let t0 = std::time::Instant::now();
            let graph = DistGraph::build(&el, Distribution::block(el.num_vertices(), 4), false);
            let build_ms = t0.elapsed().as_secs_f64() * 1e3;
            let g2 = graph.clone();
            let t1 = std::time::Instant::now();
            let mut out = Machine::run(MachineConfig::new(4), move |ctx| {
                let lvl = dgp_algorithms::bfs::bfs(ctx, &g2, 0);
                (ctx.rank() == 0).then(|| lvl.snapshot())
            });
            let bfs_ms = t1.elapsed().as_secs_f64() * 1e3;
            let lvl = out[0].take().unwrap();
            let reached_edges: u64 = el
                .edges
                .iter()
                .filter(|&&(u, _)| lvl[u as usize] != u64::MAX)
                .count() as u64;
            t.row(vec![
                scale.to_string(),
                el.num_vertices().to_string(),
                el.num_edges().to_string(),
                fmt_ms(build_ms),
                fmt_ms(bfs_ms),
                format!("{:.2}", reached_edges as f64 / bfs_ms / 1e3),
            ]);
        }
        t.print();
        0
    }

    /// E9 — strong scaling over ranks.
    pub fn e9(o: &Opts) -> usize {
        let scale = if o.small { 11 } else { 13 };
        let el = workloads::rmat_weighted(scale, 8, 91);
        let oracle = seq::dijkstra(&el, 0);
        let cc_el = workloads::blobs(8, if o.small { 300 } else { 1500 }, 9);
        println!("workload: RMAT scale {scale} SSSP Δ=0.4; blob CC\n");
        let mut t = Table::new(&["ranks", "sssp time", "sssp ok", "cc time", "cc ok"]);
        for ranks in [1usize, 2, 4, 8] {
            let m = measure::sssp_pattern(
                "sssp",
                &el,
                MachineConfig::new(ranks),
                EngineConfig::default(),
                0,
                SsspStrategy::Delta(0.4),
                &oracle,
            );
            let c = measure::cc_pattern(
                "cc",
                &cc_el,
                MachineConfig::new(ranks),
                EngineConfig::default(),
            );
            t.row(vec![
                ranks.to_string(),
                fmt_ms(m.millis),
                if m.correct { "yes" } else { "NO" }.into(),
                fmt_ms(c.millis),
                if c.correct { "yes" } else { "NO" }.into(),
            ]);
        }
        t.print();
        println!("\n(simulated ranks share one host: scaling reflects threading, not networking)");
        0
    }

    /// E11 — push vs pull: the planner's communication asymmetry, live.
    pub fn e11(o: &Opts) -> usize {
        let scale = if o.small { 9 } else { 12 };
        let el = workloads::rmat(scale, 8, 111);
        println!("workload: RMAT scale {scale}, one accumulation sweep, 3 ranks, bidirectional\n");
        let graph = DistGraph::build(&el, Distribution::block(el.num_vertices(), 3), true);
        let mut t = Table::new(&["mode", "plan msgs/edge", "time", "messages"]);
        let g2 = graph.clone();
        let mut out = Machine::run(MachineConfig::new(3), move |ctx| {
            use dgp_algorithms::pagerank::PushPull;
            use dgp_core::strategies::once;
            let pp = PushPull::install(ctx, &g2, 1.0, EngineConfig::default());
            let (engine, push, pull) = (&pp.engine, pp.push, pp.pull);
            let locals: Vec<_> = g2.distribution().owned(ctx.rank()).collect();
            let t0 = std::time::Instant::now();
            let before = ctx.stats();
            once(ctx, engine, push, &locals);
            let push_ms = t0.elapsed().as_secs_f64() * 1e3;
            let mid = ctx.stats();
            let t1 = std::time::Instant::now();
            once(ctx, engine, pull, &locals);
            let pull_ms = t1.elapsed().as_secs_f64() * 1e3;
            let after = ctx.stats();
            (ctx.rank() == 0).then(|| {
                (
                    push_ms,
                    mid.since(&before).messages_sent,
                    pull_ms,
                    after.since(&mid).messages_sent,
                    pp.acc_push.snapshot(),
                    pp.acc_pull.snapshot(),
                )
            })
        });
        let (push_ms, push_msgs, pull_ms, pull_msgs, a, b) = out[0].take().unwrap();
        assert!(
            a.iter().zip(&b).all(|(x, y)| (x - y).abs() < 1e-9),
            "identical sums"
        );
        t.row(vec![
            "push (pr_contribute)".into(),
            "1".into(),
            fmt_ms(push_ms),
            push_msgs.to_string(),
        ]);
        t.row(vec![
            "pull (pr_pull)".into(),
            "2".into(),
            fmt_ms(pull_ms),
            pull_msgs.to_string(),
        ]);
        t.print();
        println!(
            "\nidentical accumulator values; the pull plan's extra gather hop doubles traffic."
        );
        0
    }

    /// E10 — strategy generality matrix.
    pub fn e10(o: &Opts) -> usize {
        let scale = if o.small { 9 } else { 11 };
        let el = workloads::rmat_weighted(scale, 8, 101);
        let oracle = seq::dijkstra(&el, 0);
        println!("workload: RMAT scale {scale}, 3 ranks\n");
        let mut t = Table::new(&[
            "strategy",
            "time",
            "relaxations",
            "attempts",
            "messages",
            "epochs",
            "correct",
        ]);
        for (label, strategy) in [
            ("fixed_point", SsspStrategy::FixedPoint),
            ("delta Δ=0.4", SsspStrategy::Delta(0.4)),
            ("delta-async Δ=0.4", SsspStrategy::DeltaAsync(0.4)),
        ] {
            let m = measure::sssp_pattern(
                label,
                &el,
                MachineConfig::new(3),
                EngineConfig::default(),
                0,
                strategy,
                &oracle,
            );
            sssp_row(&mut t, &m);
        }
        // Fourth schedule, built from `once` like the paper's CC driver:
        // synchronous rounds (Bellman–Ford) — apply relax at every vertex
        // until a round changes nothing.
        let graph = DistGraph::build(&el, Distribution::block(el.num_vertices(), 3), false);
        let weights = EdgeMap::from_weights(&graph, &el);
        let oracle2 = oracle.clone();
        let t0 = std::time::Instant::now();
        let mut out = Machine::run(MachineConfig::new(3), move |ctx| {
            let s = Sssp::install(ctx, &graph, &weights, EngineConfig::default());
            let rank = ctx.rank();
            s.dist.fill_local(rank, f64::INFINITY);
            if s.engine.graph().owner(0) == rank {
                s.dist.set(rank, 0, 0.0);
            }
            ctx.barrier();
            let all: Vec<_> = s.engine.graph().distribution().owned(rank).collect();
            let rounds = once_until_fixed(ctx, &s.engine, s.relax, &all);
            let es = s.engine.stats();
            let relax_total = ctx.sum_ranks(es.conditions_true);
            let attempts = ctx.sum_ranks(es.items_generated);
            (ctx.rank() == 0).then(|| {
                (
                    s.dist.snapshot(),
                    rounds,
                    relax_total,
                    attempts,
                    ctx.stats(),
                )
            })
        });
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let (dist, rounds, relax_total, attempts, am) = out[0].take().unwrap();
        let correct = dist
            .iter()
            .zip(&oracle2)
            .all(|(a, b)| (a - b).abs() < 1e-9 || (a.is_infinite() && b.is_infinite()));
        t.row(vec![
            format!("once-rounds (BF, {rounds} rounds)"),
            fmt_ms(ms),
            relax_total.to_string(),
            attempts.to_string(),
            am.messages_sent.to_string(),
            am.epochs.to_string(),
            if correct { "yes" } else { "NO" }.into(),
        ]);
        t.print();
        println!("\nthe once-rounds schedule is user-defined from the same primitives the");
        println!("built-in strategies use — the paper's customization-point claim.");
        0
    }

    /// E12 — per-epoch observability: profiles, metrics JSON, Chrome trace.
    pub fn e12(o: &Opts) -> usize {
        let scale = if o.small { 9 } else { 12 };
        let el = workloads::rmat_weighted(scale, 8, 121);
        let oracle = seq::dijkstra(&el, 0);
        println!("workload: RMAT scale {scale}, Δ-stepping Δ=0.4, 3 ranks, profiling on\n");
        let graph = DistGraph::build(&el, Distribution::block(el.num_vertices(), 3), false);
        let weights = EdgeMap::from_weights(&graph, &el);
        let mut cfg = MachineConfig::new(3).profile(true);
        if o.full_trace {
            // --trace: stamp every send with a causal context so the
            // exported trace.json stitches the whole cascade.
            cfg = cfg.trace_sampling(1);
        }
        let mut out = Machine::run(cfg, move |ctx| {
            let s = Sssp::install(ctx, &graph, &weights, EngineConfig::default());
            s.run(ctx, 0, SsspStrategy::Delta(0.4));
            let dist = s.dist.snapshot();
            (ctx.rank() == 0).then(|| {
                (
                    dist,
                    ctx.metrics_report(),
                    ctx.chrome_trace_json().expect("profiling is on"),
                )
            })
        });
        let (dist, report, trace) = out[0].take().unwrap();
        let correct = dist
            .iter()
            .zip(&oracle)
            .all(|(a, b)| (a - b).abs() < 1e-9 || (a.is_infinite() && b.is_infinite()));
        assert!(correct, "profiled run stays correct");

        // The per-epoch table the harness derives its per-phase message
        // counts from (one row per Δ-bucket drain round here).
        let mut t = Table::new(&[
            "epoch",
            "time",
            "messages",
            "envelopes",
            "msgs/env",
            "bucket",
            "frontier",
            "relaxations",
        ]);
        let g = |p: &dgp_am::EpochProfile, name: &str| {
            p.gauge(name)
                .map(|v| format!("{v:.0}"))
                .unwrap_or_else(|| "-".to_string())
        };
        for p in &report.epoch_profiles {
            t.row(vec![
                p.epoch.to_string(),
                fmt_ms(p.duration.as_secs_f64() * 1e3),
                p.delta.messages_sent.to_string(),
                p.delta.envelopes_sent.to_string(),
                format!("{:.1}", p.coalescing_factor()),
                g(p, "bucket"),
                g(p, "frontier"),
                g(p, "relaxations"),
            ]);
        }
        t.print();
        let total: u64 = report
            .epoch_profiles
            .iter()
            .map(|p| p.delta.messages_sent)
            .sum();
        assert_eq!(total, report.cumulative.messages_sent);
        println!(
            "\n{} epochs; per-epoch deltas reassemble the cumulative {} messages exactly.",
            report.epoch_profiles.len(),
            total
        );
        if let Some(dir) = &o.metrics_dir {
            std::fs::create_dir_all(dir).expect("create metrics dir");
            let mpath = dir.join("metrics.json");
            let tpath = dir.join("trace.json");
            std::fs::write(&mpath, report.to_json()).expect("write metrics.json");
            std::fs::write(&tpath, trace).expect("write trace.json");
            println!(
                "wrote {} and {} (load the trace in Perfetto or chrome://tracing)",
                mpath.display(),
                tpath.display()
            );
        } else {
            println!("(pass --metrics DIR to write metrics.json and trace.json)");
        }
        0
    }

    /// E13 — chaos engineering: deterministic fault injection + reliable
    /// delivery keep SSSP and CC bit-identical to fault-free runs.
    pub fn e13(o: &Opts) -> usize {
        use dgp_algorithms::{run_cc, run_sssp, Run};
        use dgp_am::FaultPlan;
        use std::time::Instant;

        let scale = if o.small { 8 } else { 11 };
        let el = workloads::rmat_weighted(scale, 8, 131);
        let ranks = 3;
        println!(
            "workload: RMAT scale {scale} ({} vertices, {} edges), {ranks} ranks, Δ=0.4",
            el.num_vertices(),
            el.num_edges()
        );
        println!("seeds: 0xC0FFEE, 42, 7; coalescing capacity 8 (many small envelopes)\n");

        let t0 = Instant::now();
        let clean = run_sssp(&el, ranks, 0, SsspStrategy::Delta(0.4));
        let clean_ms = t0.elapsed().as_secs_f64() * 1e3;
        let clean_bits: Vec<u64> = clean.iter().map(|d| d.to_bits()).collect();
        let oracle = seq::dijkstra(&el, 0);
        assert!(
            clean
                .iter()
                .zip(&oracle)
                .all(|(a, b)| (a - b).abs() < 1e-9 || (a.is_infinite() && b.is_infinite())),
            "fault-free SSSP must match Dijkstra"
        );

        type PlanCtor = fn(u64) -> FaultPlan;
        let plans: [(&str, PlanCtor); 3] = [
            ("drop 30%", |s| FaultPlan::new(s).drop(0.3)),
            ("dup 30% + reorder 50%", |s| {
                FaultPlan::new(s).duplicate(0.3).reorder(0.5)
            }),
            ("chaos preset", FaultPlan::chaos),
        ];
        let mut t = Table::new(&[
            "fault plan",
            "seed",
            "time",
            "drops",
            "dups",
            "delays",
            "reorders",
            "retransmits",
            "suppressed",
            "identical",
        ]);
        for (label, mk) in plans {
            for seed in [0xC0FFEEu64, 42, 7] {
                let cfg = MachineConfig::new(ranks).coalescing(8).faults(mk(seed));
                let t1 = Instant::now();
                let out = Run::on(cfg)
                    .sssp(&el, 0, SsspStrategy::Delta(0.4))
                    .unwrap_or_else(|e| panic!("{label} seed {seed}: {e}"));
                let (got, stats) = (out.result, out.stats);
                let ms = t1.elapsed().as_secs_f64() * 1e3;
                let identical = got.iter().map(|d| d.to_bits()).collect::<Vec<_>>() == clean_bits;
                assert!(identical, "{label} seed {seed}: results diverged");
                t.row(vec![
                    label.to_string(),
                    format!("{seed:#x}"),
                    fmt_ms(ms),
                    stats.injected_drops.to_string(),
                    stats.injected_dups.to_string(),
                    stats.injected_delays.to_string(),
                    stats.injected_reorders.to_string(),
                    stats.retransmits.to_string(),
                    stats.dups_suppressed.to_string(),
                    if identical { "yes" } else { "NO" }.to_string(),
                ]);
            }
        }
        t.print();
        println!(
            "\nfault-free baseline: {} — every faulted run above returned the exact",
            fmt_ms(clean_ms)
        );
        println!("same 64-bit distance words (SSSP's min-combiner is order-independent,");
        println!("so exactly-once delivery makes chaos invisible in the output).");

        // CC under the chaos preset, both termination detectors.
        let cc_clean = run_cc(&el, ranks);
        let mut t = Table::new(&[
            "termination",
            "seed",
            "time",
            "faults",
            "retransmits",
            "identical",
        ]);
        for mode in [
            TerminationMode::SharedCounters,
            TerminationMode::FourCounterWave,
        ] {
            for seed in [0xC0FFEEu64, 42, 7] {
                let cfg = MachineConfig::new(ranks)
                    .coalescing(8)
                    .faults(FaultPlan::chaos(seed))
                    .termination(mode);
                let t1 = Instant::now();
                let out = Run::on(cfg)
                    .cc(&el)
                    .unwrap_or_else(|e| panic!("CC {mode:?} seed {seed}: {e}"));
                let (got, stats) = (out.result, out.stats);
                let ms = t1.elapsed().as_secs_f64() * 1e3;
                let identical = got == cc_clean;
                assert!(identical, "CC {mode:?} seed {seed}: labels diverged");
                t.row(vec![
                    format!("{mode:?}"),
                    format!("{seed:#x}"),
                    fmt_ms(ms),
                    stats.faults_injected().to_string(),
                    stats.retransmits.to_string(),
                    if identical { "yes" } else { "NO" }.to_string(),
                ]);
            }
        }
        println!("\nCC labels under the chaos preset, both termination detectors:\n");
        t.print();
        println!("\nneither detector declares quiescence while retransmits are in flight —");
        println!("dropped envelopes stay counted as sent-but-unhandled until redelivered.");
        0
    }

    /// E14 — automatic post-mortems: a handler crash under the chaos
    /// preset yields a diagnosis naming the failing rank, its epoch, and
    /// the causal parent of the fatal message, assembled from the frozen
    /// flight-recorder rings.
    pub fn e14(o: &Opts) -> usize {
        use dgp_am::FaultPlan;

        let ranks = 4;
        let hops = 9u64;
        // The chain starts at rank 0 -> 1 and dies `hops` handlers later.
        let expect_rank = (1 + (hops as usize - 1)) % ranks;
        println!(
            "workload: one {hops}-hop relay chain, {ranks} ranks, chaos faults, full causal \
             sampling;\nthe final hop's handler panics deliberately\n"
        );

        let mut t = Table::new(&[
            "seed",
            "failing rank",
            "epoch",
            "parent event",
            "chain",
            "timeline",
            "unacked lanes",
        ]);
        for seed in [0xC0FFEEu64, 42, 7] {
            let mut cfg = MachineConfig::new(ranks)
                .coalescing(1)
                .trace_sampling(1)
                .faults(FaultPlan::chaos(seed));
            if let Some(dir) = &o.postmortem_dir {
                // Profiling makes the dump include a Chrome trace
                // (`trace-*.json`) alongside the rendered post-mortem.
                cfg = cfg.postmortem(dir).profile(true);
            }
            let err = Machine::try_run_diagnosed(cfg, |ctx| {
                let mt = ctx.register_named("relay", |ctx, left: u64| {
                    if left == 0 {
                        panic!("deliberate crash for E14");
                    }
                    let next = (ctx.rank() + 1) % ctx.num_ranks();
                    ctx.send(next, left - 1);
                });
                ctx.epoch(|ctx| {
                    if ctx.rank() == 0 {
                        mt.send(ctx, 1, hops - 1);
                    }
                });
            });
            let (err, pm) = match err {
                Ok(_) => panic!("the relay chain must crash"),
                Err(e) => e,
            };
            let cause = pm.cause.as_ref().expect("post-mortem records the cause");
            assert_eq!(cause.rank, expect_rank, "seed {seed:#x}: wrong rank blamed");
            assert_eq!(cause.epoch, 1);
            assert!(
                pm.causal_parent().is_some(),
                "seed {seed:#x}: the fatal hop has a parent"
            );
            let _ = err;
            t.row(vec![
                format!("{seed:#x}"),
                cause.rank.to_string(),
                cause.epoch.to_string(),
                format!("{:#x}", cause.trace.parent),
                format!("{} ships", pm.causal_chain.len()),
                format!("{} events", pm.timeline.len()),
                pm.unacked.len().to_string(),
            ]);
        }
        t.print();
        println!("\nevery seed blames rank {expect_rank} in epoch 1 and reconstructs the causal");
        println!("chain from the frozen rings — drops/dups/retransmits included in the");
        println!("timeline, none of them confusing the attribution.");
        match &o.postmortem_dir {
            Some(dir) => println!("post-mortem dumps written under {}", dir.display()),
            None => println!("(pass --postmortem DIR to keep the rendered dumps)"),
        }
        0
    }

    /// E15 — beyond the paper: the deterministic discrete-event
    /// simulator as a testing substrate. Part 1 scales one ring-relay
    /// epoch to 4096 simulated ranks on a single thread pool, running
    /// each size twice — identical seeds must reproduce the entire
    /// virtual timeline bit for bit. Part 2 sweeps adversarial schedule
    /// policies × seeds over the baseline SSSP scenario with the mid-run
    /// invariant checker active; any failing cell is shrunk to a minimal
    /// scenario and its `[replay]` block printed. Returns the number of
    /// failing cells (the harness exits nonzero if any).
    pub fn e15(o: &Opts) -> usize {
        use dgp_am::SimPlan;
        use dgp_sim::{explore, ScenarioSpec, ALL_POLICIES};
        use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
        use std::sync::Arc;
        use std::time::Instant;

        println!("rank scaling: one ring-relay epoch over modeled links (latency 700ns,");
        println!("jitter 1.5µs), every rank sends and receives across a link; each size");
        println!("runs twice and the virtual timelines must match exactly.\n");
        let ring = |ranks: usize, seed: u64| {
            let hops = Arc::new(AtomicU64::new(0));
            let h2 = hops.clone();
            let run = Machine::run_sim(
                MachineConfig::new(ranks).coalescing(1).flight(16),
                SimPlan::new(seed).latency(700).per_msg(5).jitter(1_500),
                move |ctx| {
                    let hops = h2.clone();
                    let mt = ctx.register(move |_ctx, _: u8| {
                        hops.fetch_add(1, SeqCst);
                    });
                    ctx.epoch(|ctx| {
                        mt.send(ctx, (ctx.rank() + 1) % ctx.num_ranks(), 0u8);
                    });
                },
            )
            .expect("sim run");
            assert_eq!(hops.load(SeqCst), ranks as u64, "every hop delivered");
            run.report
        };
        let sizes: &[usize] = if o.small {
            &[64, 512, 4096]
        } else {
            &[64, 256, 1024, 4096]
        };
        let mut t = Table::new(&[
            "ranks",
            "virtual time",
            "deliveries",
            "events",
            "wall",
            "flight digest",
            "replays",
        ]);
        for &ranks in sizes {
            let t1 = Instant::now();
            let a = ring(ranks, 9);
            let wall = t1.elapsed();
            let b = ring(ranks, 9);
            let identical = a.flight_digest == b.flight_digest
                && a.events == b.events
                && a.virtual_time_ns == b.virtual_time_ns;
            t.row(vec![
                ranks.to_string(),
                format!("{} ns", a.virtual_time_ns),
                a.deliveries.to_string(),
                a.events.to_string(),
                format!("{wall:?}"),
                format!("{:#018x}", a.flight_digest),
                if identical {
                    "bit-identical"
                } else {
                    "DIVERGED"
                }
                .to_string(),
            ]);
        }
        t.print();

        // CI layers one extra seed per matrix leg on top of the baked-in
        // sweep, mirroring the DGP_CHAOS_SEED idiom.
        let mut seeds: Vec<u64> = if o.small {
            vec![1, 2]
        } else {
            vec![1, 2, 3, 4]
        };
        if let Some(extra) = std::env::var("DGP_SIM_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
        {
            if !seeds.contains(&extra) {
                seeds.push(extra);
            }
        }
        println!(
            "\nschedule exploration: {} adversarial policies × {} seeds over the baseline",
            ALL_POLICIES.len(),
            seeds.len()
        );
        println!("SSSP scenario (R-MAT scale 6, 4 ranks); partitions, stragglers, asymmetric");
        println!("links, heavy reorder and crash-recover stalls, with mid-run invariants");
        println!("checked throughout. Failing cells shrink to minimal [replay] blocks.\n");
        let base = ScenarioSpec::baseline(17);
        let t2 = Instant::now();
        let report = explore(&base, &seeds, &ALL_POLICIES);
        print!("{}", report.render());
        let failures: Vec<_> = report.failures().collect();
        println!(
            "\n{} cells explored in {:?}, {} failing",
            report.cases.len(),
            t2.elapsed(),
            failures.len()
        );
        if failures.is_empty() {
            println!("all policies converge to the exact baseline result — retransmission,");
            println!("dedup and termination detection absorb every modeled adversary.");
        }
        let repro_dir = std::env::var("DGP_SIM_REPRO_DIR").ok();
        if let (Some(dir), false) = (&repro_dir, failures.is_empty()) {
            let _ = std::fs::create_dir_all(dir);
        }
        for f in &failures {
            println!(
                "\n--- shrunk repro for {} seed {} (run with --sim-replay) ---",
                f.policy.name(),
                f.seed
            );
            if let Some(rep) = &f.replay {
                print!("{rep}");
                if let Some(dir) = &repro_dir {
                    let path = format!("{dir}/sim-repro-{}-{}.txt", f.policy.name(), f.seed);
                    match std::fs::write(&path, rep) {
                        Ok(()) => println!("(written to {path})"),
                        Err(e) => eprintln!("could not write {path}: {e}"),
                    }
                }
            }
        }
        failures.len()
    }

    /// E16 — beyond the paper: the same machine over pluggable
    /// transports. An all-to-all storm measures each backend's message
    /// rate and health counters (including TCP with every connection
    /// forcibly killed and re-established mid-run), and an SSSP run per
    /// backend must return bit-identical distances.
    pub fn e16(o: &Opts) -> usize {
        use dgp_algorithms::{run_sssp, Run};

        println!("workload: all-to-all storm, 4 ranks, coalescing 64; the tcp+kill row");
        println!("closes every connection after its 50th received frame — the");
        println!("reliability layer retransmits across the gap and writers re-dial\n");
        let mut t = Table::new(&[
            "backend",
            "messages",
            "time",
            "Mmsgs/s",
            "frames",
            "stalls",
            "reconnects",
            "retransmits",
        ]);
        for p in measure::transport_rows(o.small) {
            t.row(vec![
                p.backend.clone(),
                p.messages.to_string(),
                fmt_ms(p.millis),
                format!("{:.2}", p.msgs_per_sec / 1e6),
                p.frames_sent.to_string(),
                p.backpressure_stalls.to_string(),
                p.reconnects.to_string(),
                p.retransmits.to_string(),
            ]);
        }
        t.print();

        let scale = if o.small { 8 } else { 11 };
        let el = workloads::rmat_weighted(scale, 8, 141);
        let baseline = run_sssp(&el, 3, 0, SsspStrategy::Delta(0.4));
        let bits: Vec<u64> = baseline.iter().map(|d| d.to_bits()).collect();
        print!("\nSSSP (RMAT scale {scale}, 3 ranks) bit-identical across backends:");
        for (name, kind) in measure::transport_backends() {
            let cfg = dgp_am::MachineConfig::new(3).coalescing(8).transport(kind);
            let out = Run::on(cfg)
                .sssp(&el, 0, SsspStrategy::Delta(0.4))
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            let (got, stats) = (out.result, out.stats);
            let same = got.iter().map(|d| d.to_bits()).collect::<Vec<_>>() == bits;
            assert!(same, "{name}: distances diverged");
            if name == "tcp+kill" {
                assert!(stats.retransmits > 0, "kill harness injected no real loss");
            }
            print!(" {name}=yes");
        }
        println!("\n\nsame distances whichever byte path carried the relaxations — the");
        println!("delivery seam, not the backend, defines the machine's semantics.");
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Opts, String> {
        Opts::parse(args.iter().map(|a| a.to_string()))
    }

    fn parse_err(args: &[&str]) -> String {
        match parse(args) {
            Ok(o) => panic!("{args:?} parsed, selecting {:?}", ids(&o)),
            Err(e) => e,
        }
    }

    fn ids(o: &Opts) -> Vec<&'static str> {
        o.selected.iter().map(|e| e.id).collect()
    }

    #[test]
    fn no_ids_means_every_experiment_in_table_order() {
        let all: Vec<_> = EXPERIMENTS.iter().map(|e| e.id).collect();
        assert_eq!(ids(&parse(&[]).unwrap()), all);
        assert_eq!(ids(&parse(&["--small"]).unwrap()), all);
    }

    #[test]
    fn named_ids_run_once_in_table_order() {
        let o = parse(&["e15", "f2", "--small", "e15"]).unwrap();
        assert_eq!(ids(&o), ["F2", "E15"]);
        assert!(o.small);
    }

    #[test]
    fn typos_are_errors_not_silent_no_ops() {
        assert!(parse_err(&["e31"]).contains("unknown experiment id e31"));
        parse_err(&["f1", "nope"]);
        assert!(parse_err(&["--smal"]).contains("unknown flag --smal"));
        // `--sim` was an alias for `e15`; it is gone, not ignored.
        parse_err(&["--sim"]);
    }

    #[test]
    fn flags_that_take_a_value_reject_its_absence() {
        for flag in ["--metrics", "--postmortem", "--transport", "--sim-replay"] {
            let err = parse_err(&["e12", flag]);
            assert!(err.starts_with(flag), "{flag}: {err}");
        }
        parse_err(&["--transport", "udp"]);
        let o = parse(&["--transport", "tcp", "--metrics", "m", "--postmortem", "p"]).unwrap();
        assert_eq!(o.transport.as_deref(), Some("tcp"));
        assert_eq!(o.metrics_dir.as_deref(), Some(std::path::Path::new("m")));
        assert_eq!(o.postmortem_dir.as_deref(), Some(std::path::Path::new("p")));
    }

    /// EXPERIMENTS.md documents exactly the table: one `## <ID> — …` section
    /// per row, in table order, and none for an id the table lacks.
    #[test]
    fn experiments_md_has_one_section_per_table_row() {
        let table: Vec<_> = EXPERIMENTS.iter().map(|e| e.id).collect();
        let mut unique = table.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), table.len(), "duplicate id in EXPERIMENTS");
        for e in EXPERIMENTS {
            assert!(!e.paper.is_empty(), "{} has no paper anchor", e.id);
        }
        let documented: Vec<_> = include_str!("../../../../EXPERIMENTS.md")
            .lines()
            .filter_map(|l| l.strip_prefix("## ")?.split_once(" — "))
            .map(|(id, _)| id)
            .collect();
        assert_eq!(documented, table);
    }
}
