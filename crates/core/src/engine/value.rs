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

/// Which [`Val`] variant a packed slot holds; the payload itself sits in
/// the slot's `u64`.
#[derive(Clone, Copy, Default)]
#[repr(u8)]
enum Kind {
    #[default]
    Unset,
    U,
    I,
    F,
    B,
    NoneV,
    SomeV,
}

/// The fixed-size payload environment of an action instance, packed: one
/// `u64` of payload and one kind byte per slot (72 bytes where eight
/// tagged [`Val`]s take 128). `get` returns exactly the `Val` `set`
/// stored — floats travel as their bits, so `-0.0` and NaN payloads
/// survive. Equality and `Debug` are slot-wise over `Val`s.
#[derive(Clone, Copy, Default)]
pub struct EnvArr {
    bits: [u64; MAX_SLOTS],
    kinds: [Kind; MAX_SLOTS],
}

impl EnvArr {
    /// Read a payload slot.
    #[inline]
    pub fn get(&self, slot: usize) -> Val {
        let b = self.bits[slot];
        match self.kinds[slot] {
            Kind::Unset => Val::Unset,
            Kind::U => Val::U(b),
            Kind::I => Val::I(b as i64),
            Kind::F => Val::F(f64::from_bits(b)),
            Kind::B => Val::B(b != 0),
            Kind::NoneV => Val::OptV(None),
            Kind::SomeV => Val::OptV(Some(b)),
        }
    }

    /// Fill a payload slot.
    #[inline]
    pub fn set(&mut self, slot: usize, v: Val) {
        let (kind, b) = match v {
            Val::Unset => (Kind::Unset, 0),
            Val::U(x) => (Kind::U, x),
            Val::I(x) => (Kind::I, x as u64),
            Val::F(x) => (Kind::F, x.to_bits()),
            Val::B(x) => (Kind::B, x as u64),
            Val::OptV(None) => (Kind::NoneV, 0),
            Val::OptV(Some(x)) => (Kind::SomeV, x),
        };
        self.kinds[slot] = kind;
        self.bits[slot] = b;
    }

    fn vals(&self) -> [Val; MAX_SLOTS] {
        std::array::from_fn(|i| self.get(i))
    }
}

impl PartialEq for EnvArr {
    fn eq(&self, other: &Self) -> bool {
        self.vals() == other.vals()
    }
}

impl std::fmt::Debug for EnvArr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EnvArr")
            .field("vals", &self.vals())
            .finish()
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
    use proptest::prelude::*;

    /// Bit-exact `Val` equality: floats compare by their bits, so NaN
    /// payloads and the sign of zero count.
    fn same(a: Val, b: Val) -> bool {
        match (a, b) {
            (Val::F(x), Val::F(y)) => x.to_bits() == y.to_bits(),
            (a, b) => a == b,
        }
    }

    /// Every variant, with the edge values of each payload.
    fn edge_vals() -> Vec<Val> {
        vec![
            Val::Unset,
            Val::U(0),
            Val::U(u64::MAX),
            Val::I(i64::MIN),
            Val::I(-1),
            Val::I(i64::MAX),
            Val::F(0.0),
            Val::F(-0.0),
            Val::F(f64::INFINITY),
            Val::F(f64::NEG_INFINITY),
            Val::F(f64::from_bits(0x7ff8_dead_beef_0001)),
            Val::F(f64::from_bits(0xfff0_0000_0000_0001)),
            Val::F(f64::MIN_POSITIVE / 2.0),
            Val::B(false),
            Val::B(true),
            Val::OptV(None),
            Val::OptV(Some(0)),
            Val::OptV(Some(u64::MAX)),
        ]
    }

    /// A `Val` from a variant selector and raw bits.
    fn val_of(kind: u8, bits: u64) -> Val {
        match kind % 7 {
            0 => Val::Unset,
            1 => Val::U(bits),
            2 => Val::I(bits as i64),
            3 => Val::F(f64::from_bits(bits)),
            4 => Val::B(bits & 1 == 1),
            5 => Val::OptV(None),
            _ => Val::OptV(Some(bits)),
        }
    }

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
    fn packed_slots_roundtrip_every_variant_at_every_index() {
        for slot in 0..MAX_SLOTS {
            for v in edge_vals() {
                let mut e = EnvArr::default();
                e.set(slot, v);
                assert!(
                    same(e.get(slot), v),
                    "slot {slot}: {v:?} read {:?}",
                    e.get(slot)
                );
                for other in (0..MAX_SLOTS).filter(|&o| o != slot) {
                    assert_eq!(e.get(other), Val::Unset, "slot {other} beside {slot}");
                }
            }
        }
        // Overwriting a slot with another variant keeps nothing of the old.
        let mut e = EnvArr::default();
        for v in edge_vals() {
            e.set(3, Val::OptV(Some(u64::MAX)));
            e.set(3, v);
            assert!(same(e.get(3), v), "{v:?}");
        }
    }

    #[test]
    fn unset_slot_survives_set_neighbours() {
        let mut e = EnvArr::default();
        for slot in (0..MAX_SLOTS).filter(|&s| s != 4) {
            e.set(slot, Val::U(u64::MAX));
        }
        assert_eq!(e.get(4), Val::Unset);
        e.set(4, Val::I(-7));
        e.set(4, Val::Unset);
        assert_eq!(e.get(4), Val::Unset);
        assert_eq!(e.get(5), Val::U(u64::MAX));
    }

    #[test]
    fn packed_env_compares_and_prints_slot_values() {
        let (mut a, mut b) = (EnvArr::default(), EnvArr::default());
        a.set(1, Val::F(0.0));
        b.set(1, Val::F(-0.0));
        assert_eq!(a, b, "compared as f64, like Val");
        b.set(2, Val::OptV(None));
        assert_ne!(a, b, "NULL is not unset");
        a.set(2, Val::U(0));
        assert_ne!(a, b, "U(0) is not NULL");
        let mut nan = EnvArr::default();
        nan.set(0, Val::F(f64::NAN));
        let copy = nan;
        assert_ne!(nan, copy, "NaN never equals, like Val");
        assert!(format!("{b:?}").contains("vals: [Unset, F(-0.0), OptV(None), Unset"));
    }

    #[test]
    fn action_frame_stays_lean() {
        assert!(std::mem::size_of::<EnvArr>() <= 72);
        assert!(std::mem::size_of::<crate::engine::ActionMsg>() <= 120);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        #[test]
        fn packed_env_matches_val_array_model(
            ops in prop::collection::vec(
                (0usize..MAX_SLOTS, any::<u8>(), any::<u32>(), any::<u32>(), any::<bool>()),
                0..40,
            ),
        ) {
            let edges = edge_vals();
            let mut env = EnvArr::default();
            let mut model = [Val::Unset; MAX_SLOTS];
            for (slot, kind, hi, lo, edge) in ops {
                let v = if edge {
                    edges[hi as usize % edges.len()]
                } else {
                    val_of(kind, (hi as u64) << 32 | lo as u64)
                };
                env.set(slot, v);
                model[slot] = v;
                for (i, m) in model.iter().enumerate() {
                    prop_assert!(same(env.get(i), *m), "slot {i}: {:?} vs {m:?}", env.get(i));
                }
            }
        }
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
