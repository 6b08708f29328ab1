//! Graphviz (DOT) rendering of the analysis artifacts: dependency trees
//! (Def. 2 / Fig. 5) and compiled message programs, with optional overlay
//! of the static verifier's findings ([`crate::verify`]). Purely textual —
//! pipe the output into `dot -Tsvg` to regenerate the paper's figures.

use crate::depgraph::DepTree;
use crate::ir::Place;
use crate::plan::{ExecPlan, ExecStep};
use crate::verify::{Diagnostic, Severity};

fn place_label(p: &Place) -> String {
    match p {
        Place::Input => "v".into(),
        Place::GenVertex => "u".into(),
        Place::GenSrc => "src(e)".into(),
        Place::GenTrg => "trg(e)".into(),
        Place::MapAt(m, inner) => format!("p{m}[{}]", place_label(inner)),
    }
}

impl DepTree {
    /// Render as DOT: solid edges are the tree (one message per traversal
    /// move), doubled circles are gather stops, and the dashed path shows
    /// the straight-jump order — the shape of the paper's Fig. 5.
    pub fn to_dot(&self) -> String {
        let mut out = String::from("digraph deptree {\n  rankdir=TB;\n");
        for (i, p) in self.nodes.iter().enumerate() {
            let shape = if self.required[i] {
                "doublecircle"
            } else {
                "circle"
            };
            // Annotate each stop with its Def. 1 locality facts: where the
            // place's identity becomes known, and whether a gather is
            // required there.
            let known = place_label(&p.known_at());
            let req = if self.required[i] {
                "required"
            } else {
                "pass-through"
            };
            out.push_str(&format!(
                "  n{i} [label=\"{}\\nknown at {known} · {req}\", shape={shape}];\n",
                place_label(p)
            ));
        }
        for (i, &parent) in self.parent.iter().enumerate() {
            if i != 0 {
                out.push_str(&format!("  n{parent} -> n{i};\n"));
            }
        }
        // The optimized traversal as a dashed overlay.
        let order = self.optimized_order();
        let mut prev = 0usize;
        for &n in &order {
            out.push_str(&format!(
                "  n{prev} -> n{n} [style=dashed, color=gray, constraint=false];\n"
            ));
            prev = n;
        }
        out.push_str("}\n");
        out
    }
}

impl ExecPlan {
    /// Render the message program as DOT: boxes are steps, solid edges are
    /// control flow (labelled T/F at branches), and `goto` boxes name the
    /// locality the message travels to — marked `min-combinable` (and
    /// drawn bold) when the proof says a sender may drop a dominated hop
    /// (INTERNALS §14.5).
    pub fn to_dot(&self) -> String {
        self.to_dot_annotated(&[])
    }

    /// [`to_dot`](Self::to_dot), with the verifier's findings overlaid:
    /// a step anchoring an error-severity diagnostic is filled red, a
    /// warning-severity one orange, and the finding's code joins the box
    /// label. Pass [`crate::verify::verify_action`]'s output.
    pub fn to_dot_annotated(&self, diagnostics: &[Diagnostic]) -> String {
        let worst_at = |i: usize| -> Option<&Diagnostic> {
            diagnostics
                .iter()
                .filter(|d| d.step == Some(i))
                .max_by_key(|d| d.severity)
        };
        let combinable = |i: usize| {
            self.facts
                .as_ref()
                .is_some_and(|f| f.combinable.contains(&i))
        };
        let mut out = String::from("digraph plan {\n  node [shape=box, fontname=monospace];\n");
        for (i, s) in self.steps.iter().enumerate() {
            let (label, edges): (String, Vec<(usize, &str)>) = match s {
                ExecStep::Goto { to, next } => (
                    format!(
                        "goto {}{}",
                        place_label(&self.places[*to]),
                        if combinable(i) {
                            "\\nmin-combinable"
                        } else {
                            ""
                        }
                    ),
                    vec![(*next, "")],
                ),
                ExecStep::Gather { slots, next } => {
                    (format!("gather {slots:?}"), vec![(*next, "")])
                }
                ExecStep::Eval {
                    cond,
                    on_true,
                    on_false,
                    ..
                } => (
                    format!("eval c{cond}"),
                    vec![(*on_true, "T"), (*on_false, "F")],
                ),
                ExecStep::EvalModify {
                    cond,
                    mods,
                    on_true,
                    on_false,
                    ..
                } => (
                    format!("eval+modify c{cond} {mods:?}"),
                    vec![(*on_true, "T"), (*on_false, "F")],
                ),
                ExecStep::ModifyGroup {
                    cond, mods, next, ..
                } => (format!("modify c{cond} {mods:?}"), vec![(*next, "")]),
                ExecStep::End => ("end".into(), vec![]),
            };
            match worst_at(i) {
                Some(d) => {
                    let fill = match d.severity {
                        Severity::Error => "\"#ffb3b3\"",
                        Severity::Warning => "\"#ffd9a0\"",
                    };
                    out.push_str(&format!(
                        "  s{i} [label=\"{i}: {label}\\n{} {}\", style=filled, fillcolor={fill}];\n",
                        d.code.as_str(),
                        d.code.title()
                    ));
                }
                None if combinable(i) => {
                    out.push_str(&format!("  s{i} [label=\"{i}: {label}\", style=bold];\n"))
                }
                None => out.push_str(&format!("  s{i} [label=\"{i}: {label}\"];\n")),
            }
            for (t, lbl) in edges {
                if lbl.is_empty() {
                    out.push_str(&format!("  s{i} -> s{t};\n"));
                } else {
                    out.push_str(&format!("  s{i} -> s{t} [label=\"{lbl}\"];\n"));
                }
            }
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{ActionIr, ConditionIr, GeneratorIr, ModKind, ModificationIr, ReadRef, Slot};
    use crate::plan::{compile, PlanMode};

    #[test]
    fn deptree_dot_contains_nodes_and_dashed_path() {
        let a = Place::map_at(0, Place::Input);
        let b = Place::map_at(1, a.clone());
        let t = DepTree::build(&[a, b]);
        let dot = t.to_dot();
        assert!(dot.contains("digraph deptree"));
        assert!(dot.contains("p0[v]"));
        assert!(dot.contains("p1[p0[v]]"));
        assert!(dot.contains("doublecircle"));
        assert!(dot.contains("style=dashed"));
    }

    #[test]
    fn plan_dot_renders_branches() {
        let ir = ActionIr {
            name: "x".into(),
            generator: GeneratorIr::OutEdges,
            slots: vec![
                ReadRef::VertexProp {
                    map: 0,
                    at: Place::GenTrg,
                },
                ReadRef::VertexProp {
                    map: 0,
                    at: Place::Input,
                },
            ],
            conditions: vec![ConditionIr {
                reads: vec![Slot(0), Slot(1)],
                mods: vec![ModificationIr {
                    map: 0,
                    at: Place::GenTrg,
                    reads: vec![Slot(1)],
                    kind: ModKind::Assign,
                }],
                is_else: false,
            }],
        };
        let plan = compile(&ir, PlanMode::Optimized).unwrap();
        let dot = plan.to_dot();
        assert!(dot.contains("digraph plan"));
        assert!(dot.contains("eval+modify"));
        assert!(dot.contains("label=\"T\""));
        assert!(dot.contains("goto trg(e)"));
        assert!(
            !dot.contains("min-combinable"),
            "an Assign hop is not combinable"
        );
    }

    #[test]
    fn plan_dot_marks_combinable_hops() {
        let mut b = crate::builder::ActionBuilder::new("relax", GeneratorIr::OutEdges);
        let d_v = b.read_vertex(0, Place::Input);
        b.min(0, Place::GenTrg, &[d_v], move |e| {
            crate::engine::Val::U(e.u64(d_v) + 1)
        });
        let built = b.build().unwrap();
        let dot = compile(&built.ir, PlanMode::Optimized).unwrap().to_dot();
        assert!(
            dot.contains("goto trg(e)\\nmin-combinable\", style=bold"),
            "{dot}"
        );
    }

    #[test]
    fn deptree_dot_names_known_at_localities() {
        let a = Place::map_at(0, Place::Input);
        let t = DepTree::build(&[a, Place::GenTrg]);
        let dot = t.to_dot();
        assert!(dot.contains("known at v"), "{dot}");
        assert!(
            dot.contains("required") || dot.contains("pass-through"),
            "{dot}"
        );
    }

    #[test]
    fn annotated_plan_dot_colors_findings() {
        let ir = ActionIr {
            name: "x".into(),
            generator: GeneratorIr::OutEdges,
            slots: vec![
                ReadRef::VertexProp {
                    map: 0,
                    at: Place::GenTrg,
                },
                ReadRef::VertexProp {
                    map: 0,
                    at: Place::Input,
                },
            ],
            conditions: vec![ConditionIr {
                reads: vec![Slot(0), Slot(1)],
                mods: vec![ModificationIr {
                    map: 0,
                    at: Place::GenTrg,
                    reads: vec![Slot(1)],
                    kind: ModKind::Assign,
                }],
                is_else: false,
            }],
        };
        let mut plan = compile(&ir, PlanMode::Optimized).unwrap();
        // Clean plan: the annotated render matches the plain one.
        let diags = crate::verify::verify_action(&ir, &plan);
        assert!(diags.is_empty(), "{diags:?}");
        assert_eq!(plan.to_dot_annotated(&diags), plan.to_dot());
        // Tamper a gather so L001 fires, and the step turns red.
        for step in &mut plan.steps {
            if let ExecStep::Gather { slots, .. } = step {
                slots.push(0); // dist[trg(e)] gathered at v
                break;
            }
        }
        let diags = crate::verify::verify_action(&ir, &plan);
        assert!(!diags.is_empty());
        let dot = plan.to_dot_annotated(&diags);
        assert!(dot.contains("fillcolor=\"#ffb3b3\""), "{dot}");
        assert!(dot.contains("L001 NonLocalRead"), "{dot}");
    }
}
