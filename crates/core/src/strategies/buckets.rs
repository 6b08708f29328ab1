//! The thread-safe buckets structure backing the Δ-stepping strategy.
//!
//! "The Δ-stepping strategy, for example, has to provide a thread-safe
//! buckets data structure" (§II-A). A bucket `B[i]` holds vertices whose
//! bucketing value falls in `[i·Δ, (i+1)·Δ)`. Work hooks insert from
//! handler threads while the strategy's main loop pops, so everything is
//! behind a lock (a single mutex — bucket operations are tiny compared to
//! the actions they schedule).

use dgp_graph::VertexId;
use parking_lot::Mutex;
use std::ops::Range;

/// Thread-safe Δ-buckets over rank-local vertices.
pub struct Buckets {
    delta: f64,
    buckets: Mutex<Vec<Vec<VertexId>>>,
}

impl Buckets {
    /// Buckets of width `delta` (> 0).
    pub fn new(delta: f64) -> Buckets {
        assert!(delta > 0.0, "Δ must be positive");
        Buckets {
            delta,
            buckets: Mutex::new(Vec::new()),
        }
    }

    /// The bucket index of value `x`.
    pub fn index_of(&self, x: f64) -> usize {
        assert!(x >= 0.0 && x.is_finite(), "bucket value {x} out of domain");
        (x / self.delta) as usize
    }

    /// Insert `v` with bucketing value `x` (e.g. its tentative distance).
    pub fn insert(&self, v: VertexId, x: f64) {
        let idx = self.index_of(x);
        let mut g = self.buckets.lock();
        if g.len() <= idx {
            g.resize_with(idx + 1, Vec::new);
        }
        g[idx].push(v);
    }

    /// Pop one vertex from bucket `i`.
    pub fn pop(&self, i: usize) -> Option<VertexId> {
        self.buckets.lock().get_mut(i)?.pop()
    }

    /// Lowest non-empty bucket index in `window`.
    pub fn first_nonempty(&self, window: Range<usize>) -> Option<usize> {
        let g = self.buckets.lock();
        (window.start..window.end.min(g.len())).find(|&i| !g[i].is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn indexes_by_delta() {
        let b = Buckets::new(2.0);
        assert_eq!(b.index_of(0.0), 0);
        assert_eq!(b.index_of(1.999), 0);
        assert_eq!(b.index_of(2.0), 1);
        assert_eq!(b.index_of(9.5), 4);
    }

    #[test]
    fn insert_pop_drain() {
        let b = Buckets::new(1.0);
        b.insert(10, 0.5);
        b.insert(11, 0.9);
        b.insert(12, 3.2);
        assert_eq!(b.first_nonempty(0..usize::MAX), Some(0));
        assert_eq!(b.first_nonempty(1..usize::MAX), Some(3));
        assert_eq!(b.first_nonempty(1..3), None);
        assert_eq!(b.first_nonempty(3..4), Some(3));
        assert!(b.pop(0).is_some());
        assert!(b.pop(0).is_some());
        assert_eq!(b.pop(0), None);
        assert_eq!(b.first_nonempty(0..3), None);
        assert_eq!(b.pop(3), Some(12));
        assert_eq!(b.first_nonempty(0..usize::MAX), None);
    }

    #[test]
    fn pop_from_missing_bucket_is_none() {
        let b = Buckets::new(1.0);
        assert_eq!(b.pop(7), None);
        assert_eq!(b.first_nonempty(7..8), None);
        assert_eq!(b.first_nonempty(0..usize::MAX), None);
    }

    #[test]
    fn concurrent_insert_pop_balances() {
        let b = Arc::new(Buckets::new(1.0));
        std::thread::scope(|s| {
            for t in 0..4 {
                let b = b.clone();
                s.spawn(move || {
                    for i in 0..1000u64 {
                        b.insert(t * 1000 + i, (i % 10) as f64);
                    }
                });
            }
        });
        let mut popped = 0;
        for i in 0..10 {
            while b.pop(i).is_some() {
                popped += 1;
            }
        }
        assert_eq!(popped, 4000);
        assert_eq!(b.first_nonempty(0..usize::MAX), None);
    }

    #[test]
    #[should_panic(expected = "out of domain")]
    fn invalid_value_rejected() {
        Buckets::new(1.0).insert(0, f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "Δ must be positive")]
    fn zero_delta_rejected() {
        Buckets::new(0.0);
    }
}
