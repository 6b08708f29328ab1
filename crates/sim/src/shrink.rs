//! Greedy scenario shrinking: reduce a failing [`ScenarioSpec`] to a
//! minimal spec that still fails the same predicate.
//!
//! The vendored proptest stand-in deliberately has no shrinking, so this
//! is the repo's real shrinker. Scenarios are flat value structs, which
//! makes greedy delta-debugging natural: try removing one plan element
//! (a partition, a straggler, a stall, a link override) or simplifying
//! one scalar (zero the jitter, halve the latency, halve the ranks,
//! shrink the graph), keep the edit iff the scenario still fails, and
//! iterate to a fixed point. Every candidate is a full deterministic
//! re-run, so the result is trustworthy: the returned spec *does* fail.

use dgp_am::InvariantCadence;

use crate::scenario::ScenarioSpec;

/// Hard cap on candidate runs, so shrinking a pathological scenario
/// stays bounded. 200 runs of small scenarios is well under a second.
const RUN_BUDGET: usize = 200;

/// Candidate edits, ordered most-aggressive-first: structural removals
/// before scalar simplifications, so one pass deletes whole plan
/// elements before fiddling with magnitudes.
fn candidates(spec: &ScenarioSpec) -> Vec<ScenarioSpec> {
    let mut out = Vec::new();
    for i in 0..spec.plan.partitions.len() {
        let mut s = spec.clone();
        s.plan.partitions.remove(i);
        out.push(s);
    }
    for i in 0..spec.plan.stragglers.len() {
        let mut s = spec.clone();
        s.plan.stragglers.remove(i);
        out.push(s);
    }
    for i in 0..spec.plan.stalls.len() {
        let mut s = spec.clone();
        s.plan.stalls.remove(i);
        out.push(s);
    }
    // Links shrink in halves first (removing 1 of 2·(n−1) asymmetric
    // overrides rarely changes anything; removing half of them does).
    if spec.plan.links.len() > 1 {
        let mid = spec.plan.links.len() / 2;
        let mut lo = spec.clone();
        lo.plan.links.truncate(mid);
        out.push(lo);
        let mut hi = spec.clone();
        hi.plan.links.drain(..mid);
        out.push(hi);
    }
    for i in 0..spec.plan.links.len() {
        let mut s = spec.clone();
        s.plan.links.remove(i);
        out.push(s);
    }
    if spec.faults {
        let mut s = spec.clone();
        s.faults = false;
        out.push(s);
    }
    if spec.plan.cadence == InvariantCadence::EveryDelivery {
        let mut s = spec.clone();
        s.plan.cadence = InvariantCadence::EveryEpoch;
        out.push(s);
    }
    if spec.plan.jitter_ns > 0 {
        let mut s = spec.clone();
        s.plan.jitter_ns = 0;
        out.push(s);
    }
    if spec.ranks > 2 {
        let mut s = spec.clone();
        s.ranks /= 2;
        // Plan elements may reference ranks that no longer exist; drop
        // those rather than producing an invalid candidate.
        s.plan
            .partitions
            .retain(|p| p.cut.iter().all(|&r| r < s.ranks));
        s.plan.stragglers.retain(|g| g.rank < s.ranks);
        s.plan.stalls.retain(|g| g.rank < s.ranks);
        s.plan.links.retain(|l| l.from < s.ranks && l.to < s.ranks);
        out.push(s);
    }
    if spec.coalescing > 1 {
        let mut s = spec.clone();
        s.coalescing /= 2;
        out.push(s);
    }
    if spec.plan.latency_ns > 1 {
        let mut s = spec.clone();
        s.plan.latency_ns /= 2;
        out.push(s);
    }
    if spec.plan.per_msg_ns > 0 {
        let mut s = spec.clone();
        s.plan.per_msg_ns /= 2;
        out.push(s);
    }
    if let crate::scenario::GraphKind::Rmat { scale, edge_factor } = spec.graph {
        if scale > 3 {
            let mut s = spec.clone();
            s.graph = crate::scenario::GraphKind::Rmat {
                scale: scale - 1,
                edge_factor,
            };
            out.push(s);
        }
    }
    out
}

/// Shrink `spec` against `fails` (true ⇒ the scenario still exhibits the
/// failure). Greedy first-improvement descent with restart-on-success,
/// bounded by a fixed run budget; returns the smallest still-failing
/// spec found. `spec` itself is assumed failing (if it isn't, it is
/// returned unchanged — the predicate is never trusted blindly, so the
/// caller always gets a spec for which `fails` returned true, or the
/// original).
pub fn shrink(spec: &ScenarioSpec, fails: impl Fn(&ScenarioSpec) -> bool) -> ScenarioSpec {
    let mut best = spec.clone();
    let mut runs = 0;
    'outer: loop {
        for cand in candidates(&best) {
            if runs >= RUN_BUDGET {
                break 'outer;
            }
            runs += 1;
            if fails(&cand) {
                best = cand;
                continue 'outer; // re-derive candidates from the smaller spec
            }
        }
        break; // full pass with no accepted edit: fixed point
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{partition, GraphKind, PartitionMode, ScenarioSpec};
    use dgp_am::{LinkSpec, SimAt, StragglerSpec};

    /// A synthetic predicate: "fails iff a straggler on rank 1 exists".
    /// The shrinker must strip everything else.
    #[test]
    fn strips_irrelevant_plan_elements() {
        let mut spec = ScenarioSpec::baseline(5);
        spec.plan.jitter_ns = 9_000;
        spec.plan.links.push(LinkSpec {
            from: 0,
            to: 1,
            latency_ns: 50,
        });
        spec.plan.links.push(LinkSpec {
            from: 1,
            to: 0,
            latency_ns: 77_000,
        });
        spec.plan.partitions.push(partition(
            &[2],
            SimAt::Epoch(1),
            SimAt::Time(5_000_000),
            PartitionMode::Hold,
        ));
        spec.plan.stragglers.push(StragglerSpec {
            rank: 1,
            factor: 64,
        });
        spec.plan
            .stragglers
            .push(StragglerSpec { rank: 3, factor: 2 });

        let fails = |s: &ScenarioSpec| {
            s.plan
                .stragglers
                .iter()
                .any(|g| g.rank == 1 && g.factor > 10)
        };
        let min = shrink(&spec, fails);
        assert!(fails(&min));
        assert!(min.plan.partitions.is_empty());
        assert!(min.plan.links.is_empty());
        assert_eq!(min.plan.jitter_ns, 0);
        assert_eq!(min.plan.stragglers.len(), 1);
        assert_eq!(min.plan.stragglers[0].rank, 1);
        assert_eq!(min.ranks, 2, "rank count halved to the floor");
    }

    /// A never-failing predicate returns the input unchanged.
    #[test]
    fn non_failing_spec_is_returned_unchanged() {
        let spec = ScenarioSpec::baseline(1);
        let min = shrink(&spec, |_| false);
        assert_eq!(min, spec);
    }

    /// Scalars simplify: jitter zeroes, graph scale descends to 3.
    #[test]
    fn scalars_reach_their_floors() {
        let mut spec = ScenarioSpec::baseline(1);
        spec.plan.jitter_ns = 12_345;
        spec.plan.cadence = InvariantCadence::EveryDelivery;
        let min = shrink(&spec, |_| true);
        assert_eq!(min.plan.jitter_ns, 0);
        assert_eq!(min.plan.cadence, InvariantCadence::EveryEpoch);
        assert_eq!(min.coalescing, 1);
        assert_eq!(min.plan.per_msg_ns, 0);
        assert!(matches!(min.graph, GraphKind::Rmat { scale: 3, .. }));
    }
}
