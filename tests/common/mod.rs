//! The conformance harness: cells of the registry's family table. A cell
//! is one row × executor × plan mode × delivery; it checks the row's
//! sequential oracle or validator, and agrees with the row's inproc
//! `Compiled`/`Optimized` answer as the row's
//! [`Compare`](dgp_algorithms::registry::Compare) says. The conformance
//! matrix runs every row; the per-family suites run named slices of it on
//! their own rank counts, seeds and plans.

// Each suite uses part of this module.
#![allow(dead_code)]

use std::sync::OnceLock;

use dgp::prelude::*;
use dgp_algorithms::registry::{Answer, Family, FAMILIES};
use dgp_am::SimPlan;

/// A seed from the environment variable `var`, if set. A value that is
/// not a `u64` panics: a typo must not silently run no extra seed.
pub fn env_seed(var: &str) -> Option<u64> {
    match std::env::var(var).as_deref() {
        Err(_) | Ok("") => None,
        Ok(v) => Some(
            v.parse()
                .unwrap_or_else(|e| panic!("{var} must be a u64, got {v:?}: {e}")),
        ),
    }
}

/// The chaos seeds: three fixed ones, plus `DGP_CHAOS_SEED` when set.
pub fn chaos_seeds() -> impl Iterator<Item = u64> {
    [0xC0FFEE, 42, 7]
        .into_iter()
        .chain(env_seed("DGP_CHAOS_SEED"))
}

/// Every executor × plan mode, the default (`Compiled`, `Optimized`)
/// first.
pub const ENGINES: [(Exec, PlanMode); 4] = [
    (Exec::Compiled, PlanMode::Optimized),
    (Exec::Compiled, PlanMode::Faithful),
    (Exec::Reference, PlanMode::Optimized),
    (Exec::Reference, PlanMode::Faithful),
];

/// `ranks` ranks that name their transport (`MachineConfig::new` follows
/// `DGP_TRANSPORT`); a coalescing capacity of 8 makes many small
/// envelopes, so many fault and frame opportunities.
pub fn machine(ranks: usize, transport: TransportKind) -> MachineConfig {
    MachineConfig::new(ranks).coalescing(8).transport(transport)
}

/// Where a cell runs: a machine and, for the simulator, its plan.
pub struct Delivery {
    pub name: String,
    pub machine: MachineConfig,
    pub sim: Option<SimPlan>,
}

impl Delivery {
    pub fn new(name: impl Into<String>, machine: MachineConfig) -> Delivery {
        Delivery {
            name: name.into(),
            machine,
            sim: None,
        }
    }

    pub fn sim(self, plan: SimPlan) -> Delivery {
        Delivery {
            sim: Some(plan),
            ..self
        }
    }
}

/// The table's row called `name`.
pub fn row(name: &str) -> &'static Family {
    FAMILIES
        .iter()
        .find(|row| row.name == name)
        .unwrap_or_else(|| panic!("no family row {name:?}"))
}

/// Whether the row's declaration routes a hop through the dominance
/// cache under the compiled executor, read off an installed engine.
fn combines(row: &Family) -> bool {
    let per_action = (row.pattern)()
        .combine_report(EngineConfig::default())
        .unwrap_or_else(|e| panic!("{}: {e}", row.name));
    per_action.iter().any(|&n| n > 0)
}

/// The row's answer on three inproc ranks under `Compiled`/`Optimized`,
/// computed once per row.
fn baseline(row: &Family) -> &'static Answer {
    static BASELINES: OnceLock<Vec<OnceLock<Answer>>> = OnceLock::new();
    let i = FAMILIES.iter().position(|f| f.name == row.name).unwrap();
    BASELINES.get_or_init(|| FAMILIES.iter().map(|_| OnceLock::new()).collect())[i].get_or_init(
        || {
            let inproc = Delivery::new("inproc", machine(3, TransportKind::Inproc));
            run(row, &inproc, ENGINES[0]).result
        },
    )
}

/// Run `row` on `d` under `e`: the row's oracle, balanced ledgers, and a
/// transport that is the one the cell names.
pub fn run(row: &Family, d: &Delivery, (exec, plan_mode): (Exec, PlanMode)) -> Outcome<Answer> {
    let what = format!("{} on {} ({exec:?}, {plan_mode:?})", row.name, d.name);
    let engine = EngineConfig {
        exec,
        plan_mode,
        ..EngineConfig::default()
    };
    let run = Run {
        machine: d.machine.clone(),
        engine,
        sim: d.sim.clone(),
    };
    let out = (row.run)(&run).unwrap_or_else(|err| panic!("{what}: {err}"));
    (row.check)(&out.result).unwrap_or_else(|err| panic!("{what}: oracle: {err}"));
    let s = &out.stats;
    assert_eq!(s.messages_sent, s.messages_handled, "{what}: ledgers");
    if d.machine.transport == TransportKind::Inproc {
        assert_eq!(s.transport_frames_sent, 0, "{what}: frames on inproc");
    } else {
        assert!(s.transport_frames_sent > 0, "{what}: no frame was sent");
    }
    out
}

/// Every cell of `rows` × `deliveries` × `engines`: [`run`], then agree
/// with the row's baseline, and owe what a faulted or simulated delivery
/// owes. Returns the outcomes, row-major.
pub fn sweep<'a>(
    rows: impl IntoIterator<Item = &'a Family>,
    deliveries: &[Delivery],
    engines: &[(Exec, PlanMode)],
) -> Vec<Outcome<Answer>> {
    let mut outs = Vec::new();
    for row in rows {
        let combines = combines(row);
        for d in deliveries {
            for &e in engines {
                let what = format!("{} on {} ({e:?})", row.name, d.name);
                let out = run(row, d, e);
                out.result
                    .agrees(baseline(row), row.compare)
                    .unwrap_or_else(|err| panic!("{what}: against inproc: {err}"));
                let s = &out.stats;
                let faulted = d.machine.faults.is_some();
                if faulted {
                    assert!(s.faults_injected() > 0, "{what}: nothing injected");
                    assert!(s.retransmits > 0, "{what}: drops never recovered");
                }
                if let Some(report) = &out.report {
                    assert!(report.deliveries > 0, "{what}: no simulated delivery");
                }
                if (faulted || d.sim.is_some()) && combines && e.0 == Exec::Compiled {
                    assert!(s.cache_hits > 0, "{what}: nothing was dominated");
                }
                outs.push(out);
            }
        }
    }
    outs
}

/// A simulated run's timeline: deliveries, events, virtual time and
/// flight digest.
pub fn timeline(out: &Outcome<Answer>) -> (u64, u64, u64, u64) {
    let r = out.report.as_ref().expect("simulated runs report");
    (r.deliveries, r.events, r.virtual_time_ns, r.flight_digest)
}
