//! Schedule exploration: sweep seeds × adversarial policies over a base
//! scenario, shrink every failure to a minimal repro.

use dgp_am::{LinkSpec, PartitionMode, SimAt, StallSpec, StragglerSpec};

use crate::scenario::{partition, run_scenario, ScenarioSpec};
use crate::{shrink, to_replay};

/// An adversarial scheduling policy: a deterministic perturbation of a
/// base scenario, parameterized by the sweep seed so different seeds
/// probe different placements of the same hazard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// The unperturbed base scenario (control group).
    Baseline,
    /// One rank's links are two orders of magnitude slower.
    DelayOneRank,
    /// A partition forms inside the first epoch, two or three link
    /// latencies in, while its traffic is still flowing, and heals much
    /// later (Hold mode: traffic parks and floods in at the heal).
    PartitionAtEpoch,
    /// A partition that *drops* traffic mid-run, forcing the reliability
    /// layer to recover every packet (requires `faults`; the policy
    /// enables them).
    DropPartition,
    /// Sharply asymmetric link latencies: rank-to-rank costs differ by
    /// direction, maximizing reordering against FIFO intuition.
    AsymmetricLinks,
    /// Maximum jitter relative to base latency: deliveries reorder
    /// heavily even on symmetric links.
    ReorderHeavy,
    /// One rank stalls completely (crash) partway through and resumes
    /// (recover) later — fail-stutter.
    CrashRecover,
}

/// All policies, in sweep order.
pub const ALL_POLICIES: [Policy; 7] = [
    Policy::Baseline,
    Policy::DelayOneRank,
    Policy::PartitionAtEpoch,
    Policy::DropPartition,
    Policy::AsymmetricLinks,
    Policy::ReorderHeavy,
    Policy::CrashRecover,
];

impl Policy {
    /// Apply this policy to `base`, seeding placement decisions from
    /// `seed` (which also becomes the schedule seed).
    pub fn apply(self, base: &ScenarioSpec, seed: u64) -> ScenarioSpec {
        let mut spec = base.clone();
        let nr = spec.ranks;
        let victim = (seed as usize) % nr.max(1);
        let plan = &mut spec.plan;
        plan.seed = seed;
        let lat = plan.latency_ns;
        match self {
            Policy::Baseline => {}
            Policy::DelayOneRank => {
                plan.stragglers.push(StragglerSpec {
                    rank: victim,
                    factor: 100,
                });
            }
            Policy::PartitionAtEpoch => {
                // Not at an epoch boundary: a fixed-point run sends all its
                // traffic in its first epoch, and a cut formed at its end
                // holds nothing.
                plan.partitions.push(partition(
                    &[victim],
                    SimAt::Time(lat.saturating_mul(2 + seed % 2)),
                    SimAt::Time(lat.saturating_mul(5_000)),
                    PartitionMode::Hold,
                ));
            }
            Policy::DropPartition => {
                spec.faults = true;
                plan.partitions.push(partition(
                    &[victim],
                    SimAt::Time(0),
                    SimAt::Time(lat.saturating_mul(500)),
                    PartitionMode::Drop,
                ));
            }
            Policy::AsymmetricLinks => {
                for to in (0..nr).filter(|&to| to != victim) {
                    plan.links.push(LinkSpec {
                        from: victim,
                        to,
                        latency_ns: lat * 50,
                    });
                    plan.links.push(LinkSpec {
                        from: to,
                        to: victim,
                        latency_ns: lat / 2 + 1,
                    });
                }
            }
            Policy::ReorderHeavy => {
                plan.jitter_ns = lat.saturating_mul(20);
            }
            Policy::CrashRecover => {
                plan.stalls.push(StallSpec {
                    rank: victim,
                    at_ns: lat * 2,
                    duration_ns: lat.saturating_mul(2_000),
                });
            }
        }
        spec
    }

    /// Stable lowercase name (used in reports and CI artifact names).
    pub fn name(self) -> &'static str {
        match self {
            Policy::Baseline => "baseline",
            Policy::DelayOneRank => "delay-one-rank",
            Policy::PartitionAtEpoch => "partition-at-epoch",
            Policy::DropPartition => "drop-partition",
            Policy::AsymmetricLinks => "asymmetric-links",
            Policy::ReorderHeavy => "reorder-heavy",
            Policy::CrashRecover => "crash-recover",
        }
    }
}

/// One explored case: the policy/seed cell, what happened, and — for
/// failures — the shrunk minimal repro and its replay block.
#[derive(Debug, Clone)]
pub struct CaseOutcome {
    /// The policy applied.
    pub policy: Policy,
    /// The schedule seed swept.
    pub seed: u64,
    /// Failure rendering, `None` on success.
    pub error: Option<String>,
    /// Result digest (differential signal across cells of one policy).
    pub result_digest: u64,
    /// Virtual completion time of the run.
    pub virtual_time_ns: u64,
    /// For failures: the shrunk scenario that still fails.
    pub minimal: Option<ScenarioSpec>,
    /// For failures: the `[replay]` block of the shrunk scenario.
    pub replay: Option<String>,
}

/// Everything [`explore`] learned.
#[derive(Debug, Clone, Default)]
pub struct ExploreReport {
    /// One entry per (policy, seed) cell, in sweep order.
    pub cases: Vec<CaseOutcome>,
}

impl ExploreReport {
    /// The failing cases only.
    pub fn failures(&self) -> impl Iterator<Item = &CaseOutcome> {
        self.cases.iter().filter(|c| c.error.is_some())
    }

    /// Render a compact sweep table (one line per cell).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for c in &self.cases {
            let status = match &c.error {
                None => format!(
                    "ok digest={:#018x} vt={}ns",
                    c.result_digest, c.virtual_time_ns
                ),
                Some(e) => format!("FAIL {e}"),
            };
            out.push_str(&format!(
                "{:<20} seed={:<6} {}\n",
                c.policy.name(),
                c.seed,
                status
            ));
        }
        out
    }
}

/// Sweep `seeds` × `policies` over `base`. Every failing cell is shrunk
/// to a minimal still-failing scenario and serialized for replay.
pub fn explore(base: &ScenarioSpec, seeds: &[u64], policies: &[Policy]) -> ExploreReport {
    let mut report = ExploreReport::default();
    for &policy in policies {
        for &seed in seeds {
            let spec = policy.apply(base, seed);
            let out = run_scenario(&spec);
            let (minimal, replay) = match &out.error {
                Some(_) => {
                    let min = shrink(&spec, |s| run_scenario(s).error.is_some());
                    let rep = to_replay(&min);
                    (Some(min), Some(rep))
                }
                None => (None, None),
            };
            report.cases.push(CaseOutcome {
                policy,
                seed,
                error: out.error,
                result_digest: out.result_digest,
                virtual_time_ns: out.report.virtual_time_ns,
                minimal,
                replay,
            });
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policies_have_distinct_names() {
        let mut names: Vec<_> = ALL_POLICIES.iter().map(|p| p.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ALL_POLICIES.len());
    }

    #[test]
    fn policies_perturb_the_baseline() {
        let base = ScenarioSpec::baseline(1);
        for p in ALL_POLICIES.iter().skip(1) {
            let spec = p.apply(&base, 3);
            assert_ne!(&spec, &{
                let mut b = base.clone();
                b.plan.seed = 3;
                b
            });
        }
    }

    #[test]
    fn small_sweep_is_all_green_and_differential() {
        let base = ScenarioSpec::baseline(1);
        let report = explore(
            &base,
            &[1, 2],
            &[Policy::Baseline, Policy::ReorderHeavy, Policy::DelayOneRank],
        );
        assert_eq!(report.cases.len(), 6);
        assert_eq!(report.failures().count(), 0, "{}", report.render());
        // Differential: every cell computed the same result.
        let d0 = report.cases[0].result_digest;
        assert!(report.cases.iter().all(|c| c.result_digest == d0));
    }
}
