//! Small SPMD helpers shared by the algorithm drivers.

use dgp_am::AmCtx;
use dgp_graph::properties::{AtomicValue, AtomicVertexMap};
use dgp_graph::{DistGraph, VertexId};
use parking_lot::Mutex;

/// Fixed-point scale for summing `f64` through the `u64` all-reduce.
const FIXED_SCALE: f64 = (1u64 << 32) as f64;

/// Collectively sum a non-negative `f64` across ranks (fixed-point through
/// the integer all-reduce; values must stay below ~2^31).
pub fn all_reduce_f64_sum(ctx: &AmCtx, x: f64) -> f64 {
    debug_assert!(x >= 0.0 && x < (1u64 << 31) as f64);
    let fixed = (x * FIXED_SCALE) as u64;
    let total = ctx.all_reduce(fixed, |a, b| a + b);
    total as f64 / FIXED_SCALE
}

/// The vertices this rank owns, as a vector (strategy seed sets).
pub fn local_vertices(ctx: &AmCtx, graph: &DistGraph) -> Vec<VertexId> {
    graph.distribution().owned(ctx.rank()).collect()
}

/// This rank's portion of a global seed set.
pub fn owned_seeds(ctx: &AmCtx, graph: &DistGraph, seeds: &[VertexId]) -> Vec<VertexId> {
    seeds
        .iter()
        .copied()
        .filter(|&v| graph.owner(v) == ctx.rank())
        .collect()
}

/// The mid-run invariant of a min-fixed-point family (SSSP distances, CC
/// labels), checked by the simulator at every checkpoint its plan's
/// cadence selects: each `name[v]` starts at `top`, never drops below its
/// final value `floor[v]` (a sequential oracle), and never increases.
/// `below(a, b)` is "`a` is meaningfully less than `b`" (exact for labels,
/// with slack for floats). A violation fails the run as
/// [`dgp_am::MachineError::InvariantViolated`] with the vertex in the
/// detail string. Installed once, by rank 0; a no-op on threads
/// ([`AmCtx::sim_invariant`]).
pub fn sim_invariant_descending<V>(
    ctx: &AmCtx,
    map: &AtomicVertexMap<V>,
    name: &'static str,
    floor: &[V],
    top: V,
    below: fn(V, V) -> bool,
) where
    V: AtomicValue + std::fmt::Display,
{
    if ctx.rank() != 0 || !ctx.in_sim() {
        return;
    }
    let map = map.clone();
    let floor = floor.to_vec();
    let prev = Mutex::new(vec![top; floor.len()]);
    ctx.sim_invariant(move |_| {
        let snap = map.snapshot();
        let mut prev = prev.lock();
        for (v, (&x, &f)) in snap.iter().zip(&floor).enumerate() {
            if below(x, f) {
                return Err(format!("{name}[{v}] = {x} undercuts its final value {f}"));
            }
            if below(prev[v], x) {
                return Err(format!("{name}[{v}] increased: {} -> {x}", prev[v]));
            }
        }
        *prev = snap;
        Ok(())
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgp_am::{Machine, MachineConfig};
    use dgp_graph::{DistGraph, Distribution, EdgeList};

    #[test]
    fn f64_sum_across_ranks() {
        let out = Machine::run(MachineConfig::new(4), |ctx| {
            all_reduce_f64_sum(ctx, 0.25 * (ctx.rank() as f64 + 1.0))
        });
        for v in out {
            assert!((v - 2.5).abs() < 1e-6);
        }
    }

    #[test]
    fn seed_partitioning() {
        let el = EdgeList::from_pairs(8, &[(0, 1)]);
        let g = DistGraph::build(&el, Distribution::cyclic(8, 2), false);
        let out = Machine::run(MachineConfig::new(2), move |ctx| {
            (
                local_vertices(ctx, &g).len(),
                owned_seeds(ctx, &g, &[0, 1, 2, 3]).len(),
            )
        });
        assert_eq!(out[0].0 + out[1].0, 8);
        assert_eq!(out[0].1 + out[1].1, 4);
    }
}
