//! Lock-free vertex property maps over machine-word values.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::distribution::{Distribution, VertexId};

/// Values that can live in an [`AtomicVertexMap`]: bijectively encodable in
/// 64 bits. Distances, component labels, parents, levels, flags — every
/// property the paper's running examples use — are of this kind, which is
/// why its SSSP pattern can be synchronized "by atomic instructions where
/// supported" (§IV-B).
pub trait AtomicValue: Copy + PartialEq + Send + Sync + 'static {
    /// Encode the value into 64 bits.
    fn to_bits(self) -> u64;
    /// Decode a value previously encoded with [`to_bits`](Self::to_bits).
    fn from_bits(bits: u64) -> Self;
}

macro_rules! impl_atomic_int {
    ($($t:ty),*) => {$(
        impl AtomicValue for $t {
            #[inline]
            fn to_bits(self) -> u64 {
                self as u64
            }
            #[inline]
            fn from_bits(bits: u64) -> Self {
                bits as $t
            }
        }
    )*};
}

impl_atomic_int!(u8, u16, u32, u64, usize);

macro_rules! impl_atomic_signed {
    ($($t:ty => $u:ty),*) => {$(
        impl AtomicValue for $t {
            #[inline]
            fn to_bits(self) -> u64 {
                self as $u as u64
            }
            #[inline]
            fn from_bits(bits: u64) -> Self {
                bits as $u as $t
            }
        }
    )*};
}

impl_atomic_signed!(i8 => u8, i16 => u16, i32 => u32, i64 => u64, isize => usize);

impl AtomicValue for f64 {
    #[inline]
    fn to_bits(self) -> u64 {
        f64::to_bits(self)
    }
    #[inline]
    fn from_bits(bits: u64) -> Self {
        f64::from_bits(bits)
    }
}

impl AtomicValue for f32 {
    #[inline]
    fn to_bits(self) -> u64 {
        f32::to_bits(self) as u64
    }
    #[inline]
    fn from_bits(bits: u64) -> Self {
        f32::from_bits(bits as u32)
    }
}

impl AtomicValue for bool {
    #[inline]
    fn to_bits(self) -> u64 {
        self as u64
    }
    #[inline]
    fn from_bits(bits: u64) -> Self {
        bits != 0
    }
}

/// `Option<VertexId>` with `None` encoded as `u64::MAX` — the `NULL`
/// parent/component sentinel the paper's CC patterns use. Requires ids
/// below `u64::MAX`.
impl AtomicValue for Option<VertexId> {
    #[inline]
    fn to_bits(self) -> u64 {
        match self {
            None => u64::MAX,
            Some(v) => {
                debug_assert!(v < u64::MAX);
                v
            }
        }
    }
    #[inline]
    fn from_bits(bits: u64) -> Self {
        if bits == u64::MAX {
            None
        } else {
            Some(bits)
        }
    }
}

/// Result of a read-modify-write on one property value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UpdateOutcome<T> {
    /// Value observed immediately before the final (or only) attempt.
    pub old: T,
    /// Value stored (equals `old` when unchanged).
    pub new: T,
    /// Whether the stored value differs from the observed one.
    pub changed: bool,
}

/// A distributed vertex property map with lock-free owner-side access.
///
/// Each rank's shard is a dense array indexed by local vertex index; all
/// accessors take the calling rank and `debug_assert` ownership, preserving
/// the paper's rule that "reading from and writing to property maps must be
/// done at the nodes where the values are located" (§IV).
#[derive(Clone)]
pub struct AtomicVertexMap<T: AtomicValue> {
    dist: Distribution,
    shards: Arc<Vec<Vec<AtomicU64>>>,
    _marker: std::marker::PhantomData<T>,
}

impl<T: AtomicValue> AtomicVertexMap<T> {
    /// Create a map over `dist`'s vertices, every value `init`.
    pub fn new(dist: Distribution, init: T) -> Self {
        let bits = init.to_bits();
        let shards = (0..dist.ranks())
            .map(|r| {
                (0..dist.local_count(r))
                    .map(|_| AtomicU64::new(bits))
                    .collect()
            })
            .collect();
        AtomicVertexMap {
            dist,
            shards: Arc::new(shards),
            _marker: std::marker::PhantomData,
        }
    }

    /// The distribution this map is sharded by.
    pub fn distribution(&self) -> Distribution {
        self.dist
    }

    #[inline]
    fn cell(&self, rank: usize, v: VertexId) -> &AtomicU64 {
        debug_assert_eq!(
            self.dist.owner(v),
            rank,
            "property of vertex {v} accessed on non-owner rank {rank}"
        );
        &self.shards[rank][self.dist.local(v)]
    }

    /// Read the value of owned vertex `v`.
    #[inline]
    pub fn get(&self, rank: usize, v: VertexId) -> T {
        T::from_bits(self.cell(rank, v).load(Ordering::Acquire))
    }

    /// Write the value of owned vertex `v`.
    #[inline]
    pub fn set(&self, rank: usize, v: VertexId, val: T) {
        self.cell(rank, v).store(val.to_bits(), Ordering::Release);
    }

    /// Atomically transform the value of owned vertex `v` with `f`,
    /// retrying on contention. `f` must be pure.
    pub fn update(&self, rank: usize, v: VertexId, f: impl Fn(T) -> T) -> UpdateOutcome<T> {
        let cell = self.cell(rank, v);
        let mut cur = cell.load(Ordering::Acquire);
        loop {
            let old = T::from_bits(cur);
            let new = f(old);
            let new_bits = new.to_bits();
            if new_bits == cur {
                return UpdateOutcome {
                    old,
                    new,
                    changed: false,
                };
            }
            match cell.compare_exchange_weak(cur, new_bits, Ordering::AcqRel, Ordering::Acquire) {
                Ok(_) => {
                    return UpdateOutcome {
                        old,
                        new,
                        changed: true,
                    }
                }
                Err(actual) => cur = actual,
            }
        }
    }

    /// Atomically lower the value of owned vertex `v` to `val` if `val` is
    /// smaller (the SSSP relax fast path — "atomic instructions where
    /// supported", §IV-B).
    pub fn fetch_min(&self, rank: usize, v: VertexId, val: T) -> UpdateOutcome<T>
    where
        T: PartialOrd,
    {
        self.update(rank, v, |cur| if val < cur { val } else { cur })
    }

    /// Plain compare-and-swap on owned vertex `v`.
    pub fn compare_exchange(&self, rank: usize, v: VertexId, expect: T, new: T) -> Result<T, T> {
        self.cell(rank, v)
            .compare_exchange(
                expect.to_bits(),
                new.to_bits(),
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .map(T::from_bits)
            .map_err(T::from_bits)
    }

    /// Reset every value owned by `rank` (each rank initializes its shard).
    pub fn fill_local(&self, rank: usize, val: T) {
        let bits = val.to_bits();
        for cell in &self.shards[rank] {
            cell.store(bits, Ordering::Release);
        }
    }

    /// Copy out all values in global vertex order. Only meaningful when the
    /// machine is quiescent (validation/reporting).
    pub fn snapshot(&self) -> Vec<T> {
        let n = self.dist.num_vertices();
        let mut out = Vec::with_capacity(n as usize);
        for v in 0..n {
            let r = self.dist.owner(v);
            out.push(T::from_bits(
                self.shards[r][self.dist.local(v)].load(Ordering::Acquire),
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dist() -> Distribution {
        Distribution::cyclic(10, 3)
    }

    #[test]
    fn roundtrip_values() {
        let m = AtomicVertexMap::new(dist(), f64::INFINITY);
        assert_eq!(m.get(dist().owner(4), 4), f64::INFINITY);
        m.set(dist().owner(4), 4, 1.5);
        assert_eq!(m.get(dist().owner(4), 4), 1.5);
    }

    #[test]
    fn fetch_min_lowers_only() {
        let m = AtomicVertexMap::new(dist(), 100u64);
        let r = dist().owner(2);
        let o = m.fetch_min(r, 2, 40);
        assert!(o.changed);
        assert_eq!((o.old, o.new), (100, 40));
        let o = m.fetch_min(r, 2, 60);
        assert!(!o.changed);
        assert_eq!(m.get(r, 2), 40);
    }

    #[test]
    fn update_reports_change() {
        let m = AtomicVertexMap::new(dist(), 7i64);
        let r = dist().owner(0);
        let o = m.update(r, 0, |x| x * 2);
        assert!(o.changed);
        assert_eq!(o.new, 14);
        let o = m.update(r, 0, |x| x);
        assert!(!o.changed);
    }

    #[test]
    fn option_vertex_sentinel() {
        let m: AtomicVertexMap<Option<VertexId>> = AtomicVertexMap::new(dist(), None);
        let r = dist().owner(5);
        assert_eq!(m.get(r, 5), None);
        m.set(r, 5, Some(3));
        assert_eq!(m.get(r, 5), Some(3));
        m.set(r, 5, None);
        assert_eq!(m.get(r, 5), None);
    }

    #[test]
    fn concurrent_fetch_min_converges() {
        let d = Distribution::block(1, 1);
        let m = AtomicVertexMap::new(d, u64::MAX);
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let m = m.clone();
                s.spawn(move || {
                    for i in 0..1000 {
                        m.fetch_min(0, 0, 1000 * (t + 1) - i);
                    }
                });
            }
        });
        assert_eq!(m.get(0, 0), 1); // min over all threads: t=0, i=999
    }

    #[test]
    fn snapshot_in_global_order() {
        let d = Distribution::cyclic(6, 2);
        let m = AtomicVertexMap::new(d, 0u32);
        for v in 0..6 {
            m.set(d.owner(v), v, v as u32 * 10);
        }
        assert_eq!(m.snapshot(), vec![0, 10, 20, 30, 40, 50]);
    }

    #[test]
    fn fill_local_resets_one_shard() {
        let d = Distribution::block(6, 2);
        let m = AtomicVertexMap::new(d, 1u8);
        m.fill_local(0, 9);
        assert_eq!(m.snapshot(), vec![9, 9, 9, 1, 1, 1]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "non-owner")]
    fn remote_access_asserts() {
        let d = Distribution::block(4, 2);
        let m = AtomicVertexMap::new(d, 0u32);
        m.get(0, 3); // vertex 3 lives on rank 1
    }

    #[test]
    fn signed_and_float_bits() {
        assert_eq!(i64::from_bits((-5i64).to_bits()), -5);
        assert_eq!(f64::from_bits((-2.5f64).to_bits()), -2.5);
        assert_eq!(f32::from_bits(3.25f32.to_bits()), 3.25);
        assert!(bool::from_bits(true.to_bits()));
        assert_eq!(i8::from_bits((-1i8).to_bits()), -1);
    }
}
