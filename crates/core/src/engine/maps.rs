//! Type-erased access to property maps, so one engine executes patterns
//! over maps of any value type.

use dgp_graph::properties::{AtomicValue, AtomicVertexMap, EdgeMap, LockedVertexMap};
use dgp_graph::VertexId;

use crate::engine::value::Val;
use crate::ir::PropertyKind;

/// Conversion between a concrete property value type and the engine's
/// [`Val`] union.
pub trait ValCodec: Copy + Send + Sync + 'static {
    /// Encode into the engine's value union.
    fn to_val(self) -> Val;
    /// Decode from the engine's value union; panics on a mismatched
    /// variant (a pattern type error).
    fn from_val(v: Val) -> Self;
}

macro_rules! codec {
    ($t:ty, $variant:ident, $into:expr, $outof:expr) => {
        impl ValCodec for $t {
            #[inline]
            fn to_val(self) -> Val {
                Val::$variant($into(self))
            }
            #[inline]
            #[track_caller]
            fn from_val(v: Val) -> Self {
                match v {
                    Val::$variant(x) => $outof(x),
                    other => panic!(
                        concat!("expected ", stringify!($variant), " value, got {:?}"),
                        other
                    ),
                }
            }
        }
    };
}

codec!(u64, U, |x| x, |x| x);
codec!(u32, U, |x: u32| x as u64, |x: u64| x as u32);
codec!(usize, U, |x: usize| x as u64, |x: u64| x as usize);
codec!(i64, I, |x| x, |x| x);
codec!(f64, F, |x| x, |x| x);
codec!(bool, B, |x| x, |x| x);
codec!(Option<VertexId>, OptV, |x| x, |x| x);

/// What the execution engine needs from any registered property map.
pub trait ErasedMap: Send + Sync {
    /// Whether this map stores vertex or edge values.
    fn kind(&self) -> PropertyKind;

    /// Downcasting hook for the plan compiler (INTERNALS §14): the JIT
    /// recovers the concrete typed handle behind the erasure so
    /// compiled closures read and write through monomorphized map code.
    /// Return `self`; a handle type the compiler does not recognize
    /// simply keeps the action on the interpreter.
    fn as_any(&self) -> &dyn std::any::Any;

    /// Read the vertex property at owned vertex `v`.
    fn read_vertex(&self, rank: usize, v: VertexId) -> Val {
        let _ = (rank, v);
        panic!("not a vertex property map");
    }

    /// Write the vertex property at owned vertex `v`. Returns the previous
    /// value (for change detection).
    fn write_vertex(&self, rank: usize, v: VertexId, val: Val) -> Val {
        let _ = (rank, v, val);
        panic!("not a writable vertex property map");
    }

    /// Atomic read-modify-write at owned vertex `v` (the §IV-B "atomic
    /// instructions where supported" path). Returns (old, new, changed).
    fn update_vertex(&self, rank: usize, v: VertexId, f: &dyn Fn(Val) -> Val) -> (Val, Val, bool) {
        let _ = (rank, v, f);
        panic!("not an atomically-updatable vertex property map");
    }

    /// Insert a vertex into a set-valued property (the paper's
    /// `preds[v].insert(u)` modification-through-interface). Returns
    /// whether the set changed.
    fn insert_vertex(&self, rank: usize, v: VertexId, u: VertexId) -> bool {
        let _ = (rank, v, u);
        panic!("not a set-valued vertex property map");
    }

    /// Enumerate a set-valued property (the paper's property-map
    /// generators).
    fn read_vertex_set(&self, rank: usize, v: VertexId) -> Vec<VertexId> {
        let _ = (rank, v);
        panic!("not a set-valued vertex property map");
    }

    /// Read the edge property of the rank's stored edge `eidx`
    /// (out-aligned, or in-aligned when `incoming`).
    fn read_edge(&self, rank: usize, eidx: usize, incoming: bool) -> Val {
        let _ = (rank, eidx, incoming);
        panic!("not an edge property map");
    }
}

/// Erased view over an [`AtomicVertexMap`].
pub struct AtomicMapHandle<T: ValCodec + AtomicValue> {
    /// The wrapped typed map.
    pub map: AtomicVertexMap<T>,
}

impl<T: ValCodec + AtomicValue> ErasedMap for AtomicMapHandle<T> {
    fn kind(&self) -> PropertyKind {
        PropertyKind::Vertex
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn read_vertex(&self, rank: usize, v: VertexId) -> Val {
        self.map.get(rank, v).to_val()
    }

    fn write_vertex(&self, rank: usize, v: VertexId, val: Val) -> Val {
        let old = self.map.get(rank, v);
        self.map.set(rank, v, T::from_val(val));
        old.to_val()
    }

    fn update_vertex(&self, rank: usize, v: VertexId, f: &dyn Fn(Val) -> Val) -> (Val, Val, bool) {
        let out = self.map.update(rank, v, |old| T::from_val(f(old.to_val())));
        (out.old.to_val(), out.new.to_val(), out.changed)
    }
}

/// Erased view over an [`EdgeMap`].
pub struct EdgeMapHandle<T: ValCodec + Clone> {
    /// The wrapped typed map.
    pub map: EdgeMap<T>,
}

impl<T: ValCodec + Clone + Send + Sync + 'static> ErasedMap for EdgeMapHandle<T> {
    fn kind(&self) -> PropertyKind {
        PropertyKind::Edge
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn read_edge(&self, rank: usize, eidx: usize, incoming: bool) -> Val {
        if incoming {
            self.map.get_in(rank, eidx).to_val()
        } else {
            self.map.get_out(rank, eidx).to_val()
        }
    }
}

/// Erased view over a set-valued vertex map (for `MapSet` generators and
/// `insert` modifications).
pub struct SetMapHandle {
    /// The wrapped set-valued map.
    pub map: LockedVertexMap<Vec<VertexId>>,
}

impl ErasedMap for SetMapHandle {
    fn kind(&self) -> PropertyKind {
        PropertyKind::Vertex
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn insert_vertex(&self, rank: usize, v: VertexId, u: VertexId) -> bool {
        self.map.with_mut(rank, v, |s| {
            if s.contains(&u) {
                false
            } else {
                s.push(u);
                true
            }
        })
    }

    fn read_vertex_set(&self, rank: usize, v: VertexId) -> Vec<VertexId> {
        self.map.get(rank, v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgp_graph::Distribution;

    #[test]
    fn codec_roundtrips() {
        assert_eq!(u64::from_val(5u64.to_val()), 5);
        assert_eq!(f64::from_val(2.5f64.to_val()), 2.5);
        assert_eq!(i64::from_val((-3i64).to_val()), -3);
        assert!(bool::from_val(true.to_val()));
        assert_eq!(u32::from_val(7u32.to_val()), 7);
        assert_eq!(Option::<VertexId>::from_val(Some(4).to_val()), Some(4));
        assert_eq!(Option::<VertexId>::from_val(None.to_val()), None);
    }

    #[test]
    #[should_panic(expected = "expected F value")]
    fn codec_type_mismatch_panics() {
        f64::from_val(Val::U(1));
    }

    #[test]
    fn atomic_handle_reads_writes_updates() {
        let d = Distribution::block(4, 1);
        let h = AtomicMapHandle {
            map: AtomicVertexMap::new(d, 10.0f64),
        };
        assert_eq!(h.read_vertex(0, 2), Val::F(10.0));
        let old = h.write_vertex(0, 2, Val::F(3.0));
        assert_eq!(old, Val::F(10.0));
        let (o, n, c) = h.update_vertex(0, 2, &|v| Val::F(v.as_f64().min(1.0)));
        assert_eq!((o, n, c), (Val::F(3.0), Val::F(1.0), true));
        let (_, _, c) = h.update_vertex(0, 2, &|v| v);
        assert!(!c);
    }

    #[test]
    fn set_handle_inserts_once() {
        let d = Distribution::block(2, 1);
        let h = SetMapHandle {
            map: LockedVertexMap::new(d, Vec::new()),
        };
        assert!(h.insert_vertex(0, 0, 5));
        assert!(!h.insert_vertex(0, 0, 5));
        assert_eq!(h.read_vertex_set(0, 0), vec![5]);
    }

    #[test]
    #[should_panic(expected = "not an edge property map")]
    fn wrong_access_panics() {
        let d = Distribution::block(2, 1);
        let h = AtomicMapHandle {
            map: AtomicVertexMap::new(d, 0u64),
        };
        h.read_edge(0, 0, false);
    }
}
