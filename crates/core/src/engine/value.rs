//! Runtime values carried in pattern-message payloads.

use dgp_graph::VertexId;

use crate::ir::{GenItem, Slot};

/// Maximum declared reads per action (payload slots are a fixed-size
/// array so messages stay `Copy` and coalesce cheaply).
pub const MAX_SLOTS: usize = 8;

/// A property value in flight. The engine is monomorphic over this small
/// union — the paper's expressions are arbitrary C++; ours are arbitrary
/// Rust closures over these values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Val {
    /// Slot not gathered yet.
    Unset,
    /// Unsigned integer (also vertex ids).
    U(u64),
    /// Signed integer.
    I(i64),
    /// Floating point.
    F(f64),
    /// Boolean.
    B(bool),
    /// Optional vertex (the paper's `NULL`-able parent/component values).
    OptV(Option<VertexId>),
}

impl Val {
    /// Interpret as a vertex id; panics (with context) on `Unset`, `NULL`,
    /// or non-vertex values — these indicate pattern bugs, mirroring the
    /// paper's restriction that vertices only arise from generators and
    /// property maps.
    #[track_caller]
    pub fn as_vertex(self) -> VertexId {
        match self {
            Val::U(v) => v,
            Val::OptV(Some(v)) => v,
            Val::OptV(None) => panic!("NULL vertex value used as a locality"),
            other => panic!("value {other:?} used as a vertex"),
        }
    }

    /// Interpret as `f64`; panics with context on a type mismatch.
    #[track_caller]
    pub fn as_f64(self) -> f64 {
        match self {
            Val::F(x) => x,
            other => panic!("value {other:?} read as f64"),
        }
    }

    /// Interpret as `u64`; panics with context on a type mismatch.
    #[track_caller]
    pub fn as_u64(self) -> u64 {
        match self {
            Val::U(x) => x,
            other => panic!("value {other:?} read as u64"),
        }
    }

    /// Interpret as `i64`; panics with context on a type mismatch.
    #[track_caller]
    pub fn as_i64(self) -> i64 {
        match self {
            Val::I(x) => x,
            other => panic!("value {other:?} read as i64"),
        }
    }

    /// Interpret as `bool`; panics with context on a type mismatch.
    #[track_caller]
    pub fn as_bool(self) -> bool {
        match self {
            Val::B(x) => x,
            other => panic!("value {other:?} read as bool"),
        }
    }

    /// Interpret as optional vertex; panics with context on a type mismatch.
    #[track_caller]
    pub fn as_opt_vertex(self) -> Option<VertexId> {
        match self {
            Val::OptV(x) => x,
            other => panic!("value {other:?} read as optional vertex"),
        }
    }

    /// `self > other` over the ordered variants (`U`, `I`, `F`; IEEE `>`
    /// for floats, so NaN never compares greater) — the test of a
    /// [`crate::ir::ModKind::Min`] step. Panics with context on mixed or
    /// unordered variants.
    #[track_caller]
    pub fn gt(self, other: Val) -> bool {
        match (self, other) {
            (Val::U(a), Val::U(b)) => a > b,
            (Val::I(a), Val::I(b)) => a > b,
            (Val::F(a), Val::F(b)) => a > b,
            (a, b) => panic!("min over unordered values {a:?} and {b:?}"),
        }
    }

    /// An order-preserving `u64` image of an ordered value: a key no
    /// smaller than `b`'s implies `!b.gt(a)`. Every NaN maps to `u64::MAX`
    /// (a NaN candidate never passes a min test). `None` for the unordered
    /// variants.
    pub fn order_key(self) -> Option<u64> {
        const SIGN: u64 = 1 << 63;
        match self {
            Val::U(x) => Some(x),
            Val::I(x) => Some(x as u64 ^ SIGN),
            Val::F(x) if x.is_nan() => Some(u64::MAX),
            Val::F(x) => {
                let b = x.to_bits();
                Some(if b & SIGN != 0 { !b } else { b | SIGN })
            }
            _ => None,
        }
    }
}

/// The fixed-size payload environment of an action instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnvArr {
    vals: [Val; MAX_SLOTS],
}

impl Default for EnvArr {
    fn default() -> Self {
        EnvArr {
            vals: [Val::Unset; MAX_SLOTS],
        }
    }
}

impl EnvArr {
    /// Read a payload slot.
    #[inline]
    pub fn get(&self, slot: usize) -> Val {
        self.vals[slot]
    }

    /// Fill a payload slot.
    #[inline]
    pub fn set(&mut self, slot: usize, v: Val) {
        self.vals[slot] = v;
    }
}

/// The view condition tests and modification right-hand sides see: the
/// gathered payload plus the action instance's input vertex and generated
/// item. Aliases from the paper's pattern language are plain `let`
/// bindings over these accessors.
#[derive(Clone, Copy)]
pub struct EnvView<'a> {
    pub(crate) env: &'a EnvArr,
    pub(crate) v: VertexId,
    pub(crate) gen: GenItem,
}

impl<'a> EnvView<'a> {
    /// Raw slot value.
    pub fn val(&self, s: Slot) -> Val {
        self.env.get(s.0)
    }

    /// The slot as `f64`.
    pub fn f64(&self, s: Slot) -> f64 {
        self.val(s).as_f64()
    }

    /// The slot as `u64`.
    pub fn u64(&self, s: Slot) -> u64 {
        self.val(s).as_u64()
    }

    /// The slot as `i64`.
    pub fn i64(&self, s: Slot) -> i64 {
        self.val(s).as_i64()
    }

    /// The slot as `bool`.
    pub fn bool(&self, s: Slot) -> bool {
        self.val(s).as_bool()
    }

    /// The slot as a vertex id.
    pub fn vertex(&self, s: Slot) -> VertexId {
        self.val(s).as_vertex()
    }

    /// The slot as an optional (`NULL`-able) vertex.
    pub fn opt_vertex(&self, s: Slot) -> Option<VertexId> {
        self.val(s).as_opt_vertex()
    }

    /// The action's input vertex `v`.
    pub fn input(&self) -> VertexId {
        self.v
    }

    /// The generated vertex `u`.
    #[track_caller]
    pub fn gen_vertex(&self) -> VertexId {
        match self.gen {
            GenItem::Vertex(u) => u,
            other => panic!("no generated vertex in {other:?}"),
        }
    }

    /// `src(e)` of the generated edge.
    #[track_caller]
    pub fn gen_src(&self) -> VertexId {
        match self.gen {
            GenItem::Edge { src, .. } => src,
            other => panic!("no generated edge in {other:?}"),
        }
    }

    /// `trg(e)` of the generated edge.
    #[track_caller]
    pub fn gen_trg(&self) -> VertexId {
        match self.gen {
            GenItem::Edge { trg, .. } => trg,
            other => panic!("no generated edge in {other:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_roundtrip() {
        let mut e = EnvArr::default();
        assert_eq!(e.get(0), Val::Unset);
        e.set(0, Val::F(1.5));
        e.set(7, Val::OptV(None));
        assert_eq!(e.get(0), Val::F(1.5));
        assert_eq!(e.get(7), Val::OptV(None));
    }

    #[test]
    fn view_accessors() {
        let mut env = EnvArr::default();
        env.set(0, Val::U(9));
        env.set(1, Val::B(true));
        let view = EnvView {
            env: &env,
            v: 3,
            gen: GenItem::Edge {
                src: 3,
                trg: 5,
                eidx: 0,
                incoming: false,
            },
        };
        assert_eq!(view.u64(Slot(0)), 9);
        assert!(view.bool(Slot(1)));
        assert_eq!(view.input(), 3);
        assert_eq!(view.gen_src(), 3);
        assert_eq!(view.gen_trg(), 5);
    }

    #[test]
    fn order_keys_preserve_order() {
        let floats = [
            f64::NEG_INFINITY,
            -2.5,
            -0.0,
            0.0,
            1e-300,
            3.0,
            f64::INFINITY,
        ];
        for w in floats.windows(2) {
            assert!(
                Val::F(w[0]).order_key() <= Val::F(w[1]).order_key(),
                "{w:?}"
            );
        }
        assert_eq!(Val::F(f64::NAN).order_key(), Some(u64::MAX));
        assert!(Val::I(-3).order_key() < Val::I(2).order_key());
        assert!(Val::U(3).order_key() < Val::U(4).order_key());
        assert_eq!(Val::B(true).order_key(), None);
        assert!(Val::F(2.0).gt(Val::F(1.0)));
        assert!(!Val::F(f64::NAN).gt(Val::F(1.0)));
        assert!(!Val::U(1).gt(Val::U(1)));
    }

    #[test]
    #[should_panic(expected = "NULL vertex")]
    fn null_dereference_panics() {
        Val::OptV(None).as_vertex();
    }

    #[test]
    #[should_panic(expected = "read as f64")]
    fn type_confusion_panics() {
        Val::U(1).as_f64();
    }

    #[test]
    #[should_panic(expected = "no generated vertex")]
    fn missing_generator_item_panics() {
        let env = EnvArr::default();
        let view = EnvView {
            env: &env,
            v: 0,
            gen: GenItem::None,
        };
        view.gen_vertex();
    }
}
