//! The pattern intermediate representation: a direct encoding of the
//! paper's grammar (§III).
//!
//! ```text
//! <pattern>   ::= 'pattern' '{' <properties> <actions> '}'
//! <property>  ::= <property-kind> '<' <type> '>' <name> ';'
//! <action>    ::= <name> '(' 'Vertex' <name> ')' '{' <generator>? <aliases>* <condition>+ '}'
//! <generator> ::= 'generator:' <name> 'in' <set-expr>
//! <set-expr>  ::= <pmap-access> | <built-in-set>
//! <built-in-set> ::= 'in_edges' | 'out_edges' | 'adj'
//! ```
//!
//! Aliases are "not variables but just shortcuts used to refer to
//! expressions" — in this embedding they are ordinary Rust `let` bindings
//! of [`Slot`] handles, with no IR footprint, exactly matching their
//! semantics ("using an alias is the same as pasting in the expression").
//!
//! Expressions themselves (condition tests, modification right-hand sides)
//! are opaque host-language closures, as in the paper ("arbitrary C++
//! code"); what the IR captures is precisely what the paper's analysis
//! needs: *which property maps are accessed, indexed by which
//! vertex-valued expression* — enough to compute localities (Def. 1), the
//! value dependency graph (Def. 2), and the communication plan (§IV-A).

use dgp_graph::VertexId;

/// Identifier of a registered property map within a pattern context.
pub type MapId = u32;

/// Whether a property map stores vertex or edge values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PropertyKind {
    /// Values attached to vertices.
    Vertex,
    /// Values attached to edges.
    Edge,
}

/// A vertex-valued expression: something that names a vertex, usable both
/// as a value and as a *locality* (the vertex a value is accessed at).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Place {
    /// The action's input vertex `v`.
    Input,
    /// The generated vertex `u` (generators over `adj` or vertex sets).
    GenVertex,
    /// `src(e)` of the generated edge.
    GenSrc,
    /// `trg(e)` of the generated edge.
    GenTrg,
    /// `p[x]`: the vertex stored in vertex-valued vertex property `p` at
    /// place `x` (pointer-style indirection, e.g. `prnt[v]` in CC).
    MapAt(MapId, Box<Place>),
}

impl Place {
    /// Definition 1 (Locality), for places-as-values: the vertex at which
    /// this place's *identity* becomes known.
    ///
    /// * `v` is known at `v` (the action starts there);
    /// * the generated item is produced at `v`, so `u`, `e`, and therefore
    ///   `src(e)`/`trg(e)` are known at `v`;
    /// * `p[x]` is a property read, so it is known at `x`.
    pub fn known_at(&self) -> Place {
        match self {
            Place::Input => Place::Input,
            Place::GenVertex | Place::GenSrc | Place::GenTrg => Place::Input,
            Place::MapAt(_, x) => (**x).clone(),
        }
    }

    /// Depth of `MapAt` indirection (0 for the built-ins).
    pub fn indirections(&self) -> usize {
        match self {
            Place::MapAt(_, x) => 1 + x.indirections(),
            _ => 0,
        }
    }

    /// Convenience constructor for `p[x]`.
    pub fn map_at(map: MapId, x: Place) -> Place {
        Place::MapAt(map, Box::new(x))
    }

    /// Whether two places may name the same vertex within one epoch's
    /// instances: they are the same locality *class* when equal, or when
    /// both are pointer dereferences through the same outermost map (two
    /// `pnt[..]` reads can land on one root). The race analysis applies
    /// this to store writes, the soundness pass to payload staleness.
    pub fn may_alias(&self, other: &Place) -> bool {
        self == other || matches!((self, other), (Place::MapAt(a, _), Place::MapAt(b, _)) if a == b)
    }
}

/// A declared read of a property value (one payload slot in the generated
/// messages).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ReadRef {
    /// Vertex property `map` at `place`; locality = `place`.
    VertexProp {
        /// The property map read.
        map: MapId,
        /// The vertex whose value is read.
        at: Place,
    },
    /// Edge property `map` at the generated edge; the edge and its property
    /// value are stored with the input vertex, so locality = `Input`.
    EdgeProp {
        /// The edge property map read.
        map: MapId,
    },
}

impl ReadRef {
    /// Definition 1 (Locality): the vertex this value must be read at.
    pub fn locality(&self) -> Place {
        match self {
            ReadRef::VertexProp { at, .. } => at.clone(),
            ReadRef::EdgeProp { .. } => Place::Input,
        }
    }

    /// The property map read.
    pub fn map(&self) -> MapId {
        match self {
            ReadRef::VertexProp { map, .. } | ReadRef::EdgeProp { map } => *map,
        }
    }
}

/// Handle to a declared read: index into the action's slot table, used by
/// condition/modification closures to fetch the gathered value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Slot(pub usize);

/// How a modification applies its computed value — statically visible so
/// the verifier can distinguish last-writer-wins assignments from
/// order-insensitive reductions ("it is safe to call the insert function
/// on the set of vertices", §III-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ModKind {
    /// `map[target] = computed` — replaces the stored value.
    #[default]
    Assign,
    /// `map[target].insert(computed)` — modification through a set value's
    /// interface; commutative, so concurrent applications cannot race.
    Insert,
}

/// One modification statement: `target_map[target] = f(reads...)`, where
/// the *leftmost* accessed value is the modified one (the paper's
/// modification rule) and everything else is a read.
#[derive(Debug, Clone)]
pub struct ModificationIr {
    /// The modified property map.
    pub map: MapId,
    /// The vertex whose value is modified.
    pub at: Place,
    /// Slots the right-hand side reads.
    pub reads: Vec<Slot>,
    /// How the computed value is applied (assignment vs. reduction).
    pub kind: ModKind,
}

/// One condition of the if/else-if chain.
#[derive(Debug, Clone)]
pub struct ConditionIr {
    /// Slots the boolean test reads.
    pub reads: Vec<Slot>,
    /// Modifications guarded by the test, in statement order.
    pub mods: Vec<ModificationIr>,
    /// Whether this condition is an `else if` of the previous one: skipped
    /// when the previous condition fired.
    pub is_else: bool,
}

/// The action's generator ("fan out" from the input vertex, §III-C). At
/// most one per action.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GeneratorIr {
    /// No fan-out: the action works on `v` alone.
    None,
    /// The built-in `out_edges` set.
    OutEdges,
    /// The built-in `in_edges` set (requires bidirectional storage).
    InEdges,
    /// The built-in `adj` set (adjacent vertices).
    Adj,
    /// Vertices stored in a set-valued vertex property of `v`.
    MapSet(MapId),
    /// `out_edges` restricted by an edge-weight threshold: the storage-side
    /// realization of the paper's light/heavy edge split (§II-A). With
    /// `keep_light`, only edges with `weight ≤ threshold` are generated;
    /// otherwise only heavier ones. (`threshold_bits` is the `f64` bit
    /// pattern, keeping the IR `Eq`/`Hash`.)
    OutEdgesFiltered {
        /// The edge property map holding the weights.
        weight: MapId,
        /// The `f64` threshold, as raw bits.
        threshold_bits: u64,
        /// Keep `weight ≤ threshold` edges (otherwise the heavier ones).
        keep_light: bool,
    },
}

impl GeneratorIr {
    /// A light-edge filter (`weight ≤ threshold`).
    pub fn out_edges_light(weight: MapId, threshold: f64) -> GeneratorIr {
        GeneratorIr::OutEdgesFiltered {
            weight,
            threshold_bits: threshold.to_bits(),
            keep_light: true,
        }
    }

    /// A heavy-edge filter (`weight > threshold`).
    pub fn out_edges_heavy(weight: MapId, threshold: f64) -> GeneratorIr {
        GeneratorIr::OutEdgesFiltered {
            weight,
            threshold_bits: threshold.to_bits(),
            keep_light: false,
        }
    }
}

/// A complete analyzed action.
#[derive(Debug, Clone)]
pub struct ActionIr {
    /// The action's name (diagnostics and pattern lookup).
    pub name: String,
    /// The action's fan-out (at most one; `None` = work on `v` alone).
    pub generator: GeneratorIr,
    /// The declared reads; `Slot(i)` indexes this table.
    pub slots: Vec<ReadRef>,
    /// The if/else-if chain.
    pub conditions: Vec<ConditionIr>,
}

impl ActionIr {
    /// The declared read that resolves the pointer place `p[x]`: the slot
    /// reading `p` at `x`, whose payload value names the vertex a hop to
    /// `p[x]` is routed to. `None` for the built-in places (nothing to
    /// resolve) and for a `p[x]` whose resolving read is not declared
    /// (`P006`). The planner, the soundness pass, the verifier and the
    /// engine all consult this one definition.
    pub fn resolving_slot(&self, place: &Place) -> Option<usize> {
        let Place::MapAt(m, inner) = place else {
            return None;
        };
        self.slots.iter().position(
            |r| matches!(r, ReadRef::VertexProp { map, at } if map == m && at == &**inner),
        )
    }

    /// §III-C dependency rule: a modified value whose map is also read
    /// anywhere in the action marks the modified vertex as *dependent* (a
    /// work item is created for it). Returns, per condition, per
    /// modification, whether it creates dependencies.
    pub fn dependency_matrix(&self) -> Vec<Vec<bool>> {
        let read_maps: std::collections::HashSet<MapId> =
            self.slots.iter().map(|r| r.map()).collect();
        self.conditions
            .iter()
            .map(|c| c.mods.iter().map(|m| read_maps.contains(&m.map)).collect())
            .collect()
    }

    /// All distinct localities accessed by condition `ci`'s test.
    pub fn condition_localities(&self, ci: usize) -> Vec<Place> {
        let mut out = Vec::new();
        for &Slot(s) in &self.conditions[ci].reads {
            let l = self.slots[s].locality();
            if !out.contains(&l) {
                out.push(l);
            }
        }
        out
    }

    /// Validate the structural restrictions of §III: at most one generator
    /// (by construction), at least one condition, generator-dependent
    /// places only with a suitable generator, `MapAt` maps must be vertex
    /// maps (checked by the engine at registration), and all slot indices
    /// in range.
    pub fn validate(&self) -> Result<(), String> {
        if self.conditions.is_empty() {
            return Err(format!("action {:?} has no conditions", self.name));
        }
        if self.conditions.first().map(|c| c.is_else).unwrap_or(false) {
            return Err("first condition cannot be an else".into());
        }
        let check_place = |p: &Place| -> Result<(), String> {
            let mut cur = p;
            loop {
                match cur {
                    Place::GenVertex => {
                        if !matches!(self.generator, GeneratorIr::Adj | GeneratorIr::MapSet(_)) {
                            return Err(format!(
                                "action {:?} uses the generated vertex without a vertex generator",
                                self.name
                            ));
                        }
                        return Ok(());
                    }
                    Place::GenSrc | Place::GenTrg => {
                        if !matches!(
                            self.generator,
                            GeneratorIr::OutEdges
                                | GeneratorIr::InEdges
                                | GeneratorIr::OutEdgesFiltered { .. }
                        ) {
                            return Err(format!(
                                "action {:?} uses src/trg without an edge generator",
                                self.name
                            ));
                        }
                        return Ok(());
                    }
                    Place::MapAt(_, inner) => cur = inner,
                    Place::Input => return Ok(()),
                }
            }
        };
        for r in &self.slots {
            if let ReadRef::VertexProp { at, .. } = r {
                check_place(at)?;
            }
            if matches!(r, ReadRef::EdgeProp { .. })
                && !matches!(
                    self.generator,
                    GeneratorIr::OutEdges
                        | GeneratorIr::InEdges
                        | GeneratorIr::OutEdgesFiltered { .. }
                )
            {
                return Err(format!(
                    "action {:?} reads an edge property without an edge generator",
                    self.name
                ));
            }
        }
        for (ci, c) in self.conditions.iter().enumerate() {
            for &Slot(s) in &c.reads {
                if s >= self.slots.len() {
                    return Err(format!("condition {ci} reads undeclared slot {s}"));
                }
            }
            for m in &c.mods {
                check_place(&m.at)?;
                for &Slot(s) in &m.reads {
                    if s >= self.slots.len() {
                        return Err(format!(
                            "modification in condition {ci} reads undeclared slot {s}"
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

impl std::fmt::Display for Place {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Place::Input => write!(f, "v"),
            Place::GenVertex => write!(f, "u"),
            Place::GenSrc => write!(f, "src(e)"),
            Place::GenTrg => write!(f, "trg(e)"),
            Place::MapAt(m, inner) => write!(f, "p{m}[{inner}]"),
        }
    }
}

impl std::fmt::Display for ReadRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadRef::VertexProp { map, at } => write!(f, "p{map}[{at}]"),
            ReadRef::EdgeProp { map } => write!(f, "p{map}[e]"),
        }
    }
}

/// Renders the action as paper-style pattern pseudo-source (closures shown
/// as opaque tests/expressions over their declared reads).
impl std::fmt::Display for ActionIr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "{}(Vertex v) {{", self.name)?;
        match self.generator {
            GeneratorIr::None => {}
            GeneratorIr::OutEdges => writeln!(f, "  generator: e in out_edges;")?,
            GeneratorIr::InEdges => writeln!(f, "  generator: e in in_edges;")?,
            GeneratorIr::Adj => writeln!(f, "  generator: u in adj;")?,
            GeneratorIr::MapSet(m) => writeln!(f, "  generator: u in p{m}[v];")?,
            GeneratorIr::OutEdgesFiltered {
                weight,
                threshold_bits,
                keep_light,
            } => writeln!(
                f,
                "  generator: e in out_edges where p{weight}[e] {} {};",
                if keep_light { "<=" } else { ">" },
                f64::from_bits(threshold_bits)
            )?,
        }
        for (ci, c) in self.conditions.iter().enumerate() {
            let reads: Vec<String> = c
                .reads
                .iter()
                .map(|&Slot(s)| self.slots[s].to_string())
                .collect();
            let kw = if c.is_else { "else if" } else { "if" };
            writeln!(f, "  {kw} (test#{ci}({})) {{", reads.join(", "))?;
            for m in &c.mods {
                let mreads: Vec<String> = m
                    .reads
                    .iter()
                    .map(|&Slot(s)| self.slots[s].to_string())
                    .collect();
                writeln!(f, "    p{}[{}] = expr({});", m.map, m.at, mreads.join(", "))?;
            }
            writeln!(f, "  }}")?;
        }
        write!(f, "}}")
    }
}

/// The generated item an action instance is currently working on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GenItem {
    /// Generator `None`, or evaluation before fan-out.
    None,
    /// A generated vertex `u`.
    Vertex(VertexId),
    /// A generated edge with its endpoints and its storage index on the
    /// input vertex's rank (`eidx` addresses co-located edge properties;
    /// `incoming` selects the in-edge array).
    Edge {
        /// `src(e)`.
        src: VertexId,
        /// `trg(e)`.
        trg: VertexId,
        /// The edge's local storage index on the generating rank.
        eidx: u32,
        /// Whether `eidx` addresses the in-edge (rather than out-edge) array.
        incoming: bool,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sssp_ir() -> ActionIr {
        // relax(v): generator e in out_edges;
        //   if dist[trg(e)] > dist[v] + weight[e] { dist[trg(e)] = dist[v] + weight[e] }
        let dist: MapId = 0;
        let weight: MapId = 1;
        ActionIr {
            name: "relax".into(),
            generator: GeneratorIr::OutEdges,
            slots: vec![
                ReadRef::VertexProp {
                    map: dist,
                    at: Place::GenTrg,
                },
                ReadRef::VertexProp {
                    map: dist,
                    at: Place::Input,
                },
                ReadRef::EdgeProp { map: weight },
            ],
            conditions: vec![ConditionIr {
                reads: vec![Slot(0), Slot(1), Slot(2)],
                mods: vec![ModificationIr {
                    map: dist,
                    at: Place::GenTrg,
                    reads: vec![Slot(1), Slot(2)],
                    kind: ModKind::Assign,
                }],
                is_else: false,
            }],
        }
    }

    #[test]
    fn localities_follow_definition_1() {
        assert_eq!(Place::Input.known_at(), Place::Input);
        assert_eq!(Place::GenTrg.known_at(), Place::Input);
        assert_eq!(Place::GenVertex.known_at(), Place::Input);
        let p = Place::map_at(3, Place::Input);
        assert_eq!(p.known_at(), Place::Input);
        let pp = Place::map_at(3, p.clone());
        assert_eq!(pp.known_at(), p);
        assert_eq!(pp.indirections(), 2);
    }

    #[test]
    fn read_localities() {
        let r = ReadRef::VertexProp {
            map: 0,
            at: Place::GenTrg,
        };
        assert_eq!(r.locality(), Place::GenTrg);
        let e = ReadRef::EdgeProp { map: 1 };
        assert_eq!(e.locality(), Place::Input);
    }

    #[test]
    fn sssp_dependency_detected() {
        // dist is both read and written -> the modification creates
        // dependencies (work items), per §III-C.
        let ir = sssp_ir();
        assert_eq!(ir.dependency_matrix(), vec![vec![true]]);
        ir.validate().unwrap();
    }

    #[test]
    fn write_only_map_creates_no_dependency() {
        let mut ir = sssp_ir();
        // Change the modification to target a map never read (id 7).
        ir.conditions[0].mods[0].map = 7;
        assert_eq!(ir.dependency_matrix(), vec![vec![false]]);
    }

    #[test]
    fn condition_localities_deduplicate() {
        let ir = sssp_ir();
        let locs = ir.condition_localities(0);
        assert_eq!(locs, vec![Place::GenTrg, Place::Input]);
    }

    #[test]
    fn renders_pattern_pseudo_source() {
        let ir = sssp_ir();
        let text = format!("{ir}");
        assert!(text.contains("relax(Vertex v)"), "{text}");
        assert!(text.contains("generator: e in out_edges;"));
        assert!(text.contains("if (test#0(p0[trg(e)], p0[v], p1[e]))"));
        assert!(text.contains("p0[trg(e)] = expr(p0[v], p1[e]);"));
    }

    #[test]
    fn validation_catches_misuse() {
        let mut ir = sssp_ir();
        ir.generator = GeneratorIr::None;
        assert!(ir.validate().is_err(), "src/trg without generator");

        let mut ir = sssp_ir();
        ir.conditions.clear();
        assert!(ir.validate().is_err(), "no conditions");

        let mut ir = sssp_ir();
        ir.conditions[0].reads.push(Slot(99));
        assert!(ir.validate().is_err(), "slot out of range");

        let mut ir = sssp_ir();
        ir.conditions[0].is_else = true;
        assert!(ir.validate().is_err(), "leading else");
    }
}
