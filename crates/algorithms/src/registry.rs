//! The catalogue of every shipped family.
//!
//! Each family writes its pattern down once, as `pub fn pattern() ->
//! PatternBuilder`, and its driver installs from that. [`FAMILIES`] is
//! the one list of families. A row holds the declaration, how [`Run`]
//! runs the family on a fixed small input, the sequential oracle or
//! validator that input is checked against, and how two runs' answers
//! must agree. [`builtin_patterns`] is its projection onto declarations,
//! which the lint harness (`experiments --lint`), the mutation tests and
//! the registry tests read; the conformance matrix (`tests/conformance.rs`)
//! runs every row under every executor, plan mode and delivery. Adding a
//! family is one `pattern()` and one row here.

use dgp_core::pattern::PatternBuilder;
use dgp_graph::generators::{self, RmatParams};
use dgp_graph::{EdgeList, VertexId};

use crate::api::{symmetrized, Run, RunResult};
use crate::sssp::SsspStrategy;
use crate::{betweenness, bfs, cc, coloring, kcore, mis, pagerank, paths, seq, sssp};

/// One family (for SSSP, one strategy) on its fixed small input.
pub struct Family {
    /// The row's name: the pattern's, plus the strategy where one
    /// pattern has several drivers.
    pub name: &'static str,
    /// The declaration the driver installs.
    pub pattern: fn() -> PatternBuilder,
    /// Run the family through a [`Run`] on the row's input.
    pub run: fn(&Run) -> RunResult<Answer>,
    /// Check an answer against the sequential oracle or validator.
    pub check: fn(&Answer) -> Result<(), String>,
    /// How two runs' answers must agree.
    pub compare: Compare,
}

/// How two runs of one row must agree. Integers, sets and round counts
/// always agree exactly; this says how the floats do.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Compare {
    /// Bit for bit: the result is a fixed point that does not depend on
    /// the schedule.
    Bits,
    /// Within this tolerance, relative above 1 and absolute below: sums
    /// whose order follows the schedule.
    Close(f64),
}

/// A row's result, flattened into one comparable shape.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Answer {
    /// Float results: distances, ranks, centralities.
    floats: Vec<f64>,
    /// Integer results: labels, levels, colors, masks as 0/1, parents
    /// (`u64::MAX` for none).
    ints: Vec<u64>,
    /// Per-vertex sets, sorted: path predecessors.
    sets: Vec<Vec<VertexId>>,
    /// The rounds a round-structured driver took.
    rounds: Option<usize>,
}

impl Answer {
    /// `Ok` when `self` agrees with `other` as `compare` says.
    pub fn agrees(&self, other: &Answer, compare: Compare) -> Result<(), String> {
        let tol = match compare {
            Compare::Bits => 0.0,
            Compare::Close(tol) => tol,
        };
        within(&self.floats, &other.floats, tol)?;
        first_difference(&self.ints, &other.ints)?;
        first_difference(&self.sets, &other.sets)?;
        if self.rounds != other.rounds {
            return Err(format!("rounds: {:?} vs {:?}", self.rounds, other.rounds));
        }
        Ok(())
    }

    fn floats(floats: Vec<f64>) -> Answer {
        Answer {
            floats,
            ..Answer::default()
        }
    }

    fn ints(ints: Vec<u64>) -> Answer {
        Answer {
            ints,
            ..Answer::default()
        }
    }

    fn mask((mask, rounds): (Vec<bool>, usize)) -> Answer {
        Answer {
            ints: mask.into_iter().map(u64::from).collect(),
            rounds: Some(rounds),
            ..Answer::default()
        }
    }

    fn as_mask(&self) -> Vec<bool> {
        self.ints.iter().map(|&b| b != 0).collect()
    }
}

/// `Ok` when every `got[v]` is `want[v]` to within `tol`, relative above
/// 1 and absolute below; `0.0` asks for the same bits. A NaN on either
/// side never agrees, not even with the same NaN.
fn within(got: &[f64], want: &[f64], tol: f64) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("{} values, want {}", got.len(), want.len()));
    }
    for (v, (a, b)) in got.iter().zip(want).enumerate() {
        let same = a.to_bits() == b.to_bits() && !a.is_nan();
        if !(same || (a - b).abs() < tol * b.abs().max(1.0)) {
            return Err(format!("vertex {v}: {a} vs {b}"));
        }
    }
    Ok(())
}

fn first_difference<T: PartialEq + std::fmt::Debug>(got: &[T], want: &[T]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("{} values, want {}", got.len(), want.len()));
    }
    match got.iter().zip(want).position(|(a, b)| a != b) {
        None => Ok(()),
        Some(v) => Err(format!("vertex {v}: {:?} vs {:?}", got[v], want[v])),
    }
}

/// Every shipped family, one row per driver: SSSP has one per
/// [`SsspStrategy`]. PageRank's pull sweep (E11) is a declaration only;
/// [`builtin_patterns`] adds it.
pub const FAMILIES: &[Family] = &[
    Family {
        name: "sssp/fixed-point",
        pattern: sssp::pattern,
        run: |r| sssp_row(r, SsspStrategy::FixedPoint),
        check: sssp_check,
        compare: Compare::Bits,
    },
    Family {
        name: "sssp/delta",
        pattern: sssp::pattern,
        run: |r| sssp_row(r, SsspStrategy::Delta(1.0)),
        check: sssp_check,
        compare: Compare::Bits,
    },
    Family {
        name: "sssp/delta-async",
        pattern: sssp::pattern,
        run: |r| sssp_row(r, SsspStrategy::DeltaAsync(1.0)),
        check: sssp_check,
        compare: Compare::Bits,
    },
    Family {
        name: "sssp/delta-split",
        pattern: sssp::pattern,
        run: |r| sssp_row(r, SsspStrategy::DeltaSplit(1.0)),
        check: sssp_check,
        compare: Compare::Bits,
    },
    Family {
        name: "cc",
        pattern: cc::pattern,
        run: |r| Ok(r.cc(&rmat(8, 17))?.map(Answer::ints)),
        check: |a| first_difference(&a.ints, &seq::cc_labels(&symmetrized(&rmat(8, 17)))),
        compare: Compare::Bits,
    },
    Family {
        name: "pagerank",
        pattern: pagerank::pattern,
        run: |r| Ok(r.pagerank(&rmat(6, 31), 0.85, 15)?.map(Answer::floats)),
        check: |a| within(&a.floats, &seq::pagerank(&rmat(6, 31), 0.85, 15), 1e-6),
        compare: Compare::Close(1e-9),
    },
    Family {
        name: "bfs",
        pattern: bfs::pattern,
        run: |r| Ok(r.bfs(&rmat(10, 30), 0)?.map(Answer::ints)),
        check: |a| first_difference(&a.ints, &dgp_graph::analysis::bfs_levels(&rmat(10, 30), 0)),
        compare: Compare::Bits,
    },
    Family {
        name: "mis",
        pattern: mis::pattern,
        run: |r| Ok(r.mis(&undirected(150, 600, 4), 7)?.map(Answer::mask)),
        check: |a| {
            mis::validate_mis(&symmetrized(&undirected(150, 600, 4)), &a.as_mask()).map(drop)
        },
        compare: Compare::Bits,
    },
    Family {
        name: "kcore",
        pattern: kcore::pattern,
        run: |r| Ok(r.kcore(&undirected(120, 500, 2), 3)?.map(Answer::mask)),
        check: |a| {
            let want = kcore::kcore_seq(&symmetrized(&undirected(120, 500, 2)), 3);
            first_difference(&a.as_mask(), &want)
        },
        compare: Compare::Bits,
    },
    Family {
        name: "coloring",
        pattern: coloring::pattern,
        run: |r| {
            let out = r.coloring(&undirected(90, 300, 4))?;
            Ok(out.map(|(colors, rounds)| Answer {
                rounds: Some(rounds),
                ..Answer::ints(colors)
            }))
        },
        check: |a| {
            coloring::validate_coloring(&symmetrized(&undirected(90, 300, 4)), &a.ints).map(drop)
        },
        compare: Compare::Bits,
    },
    Family {
        name: "betweenness",
        pattern: betweenness::pattern,
        run: |r| {
            let el = undirected(60, 300, 3);
            Ok(r.betweenness(&el, &bc_sources(&el))?.map(Answer::floats))
        },
        check: |a| {
            let el = undirected(60, 300, 3);
            within(
                &a.floats,
                &betweenness::betweenness_seq(&el, &bc_sources(&el)),
                1e-9,
            )
        },
        compare: Compare::Close(1e-9),
    },
    Family {
        name: "paths",
        pattern: paths::pattern,
        run: |r| {
            let out = r.paths(&weighted_rmat(), 0)?;
            Ok(out.map(|t| Answer {
                floats: t.dist,
                ints: t
                    .parent
                    .into_iter()
                    .map(|p| p.unwrap_or(u64::MAX))
                    .collect(),
                sets: t.preds,
                rounds: None,
            }))
        },
        check: paths_check,
        compare: Compare::Bits,
    },
];

/// Every shipped declaration: one per pattern of [`FAMILIES`], plus the
/// push+pull PageRank sweep of E11.
pub fn builtin_patterns() -> Vec<PatternBuilder> {
    let mut patterns: Vec<PatternBuilder> = FAMILIES.iter().map(|f| (f.pattern)()).collect();
    patterns.dedup_by(|a, b| a.name() == b.name());
    patterns.push(pagerank::pull_pattern());
    patterns
}

/// SSSP's input: a weighted Erdős–Rényi digraph, solved from vertex 0.
fn weighted_er() -> EdgeList {
    let mut el = generators::erdos_renyi(150, 900, 8);
    el.randomize_weights(0.5, 3.0, 9);
    el
}

fn sssp_row(run: &Run, strategy: SsspStrategy) -> RunResult<Answer> {
    Ok(run.sssp(&weighted_er(), 0, strategy)?.map(Answer::floats))
}

fn sssp_check(a: &Answer) -> Result<(), String> {
    within(&a.floats, &seq::dijkstra(&weighted_er(), 0), 0.0)
}

fn rmat(scale: u32, seed: u64) -> EdgeList {
    generators::rmat(scale, 6, RmatParams::GRAPH500, seed)
}

/// A simple graph for the undirected families (`Run` symmetrizes it).
fn undirected(n: u64, m: usize, seed: u64) -> EdgeList {
    let mut el = generators::erdos_renyi(n, m, seed);
    el.simplify();
    el
}

fn bc_sources(el: &EdgeList) -> Vec<VertexId> {
    (0..el.num_vertices()).step_by(7).collect()
}

/// Paths' input: a weighted RMAT digraph, solved from vertex 0.
fn weighted_rmat() -> EdgeList {
    let mut el = generators::rmat(6, 8, RmatParams::GRAPH500, 31);
    el.randomize_weights(1.0, 10.0, 31 ^ 0x9e37);
    el
}

/// Distances are Dijkstra's; the predecessor sets are every tight
/// in-edge's source; a reached vertex other than the source has a parent,
/// and it is one of its predecessors.
fn paths_check(a: &Answer) -> Result<(), String> {
    let el = weighted_rmat();
    let dist = seq::dijkstra(&el, 0);
    within(&a.floats, &dist, 0.0)?;
    let mut preds = vec![Vec::new(); dist.len()];
    let weights = el.weights.as_deref().expect("paths' input is weighted");
    for (&(u, v), &w) in el.edges.iter().zip(weights) {
        let (du, dv) = (dist[u as usize], dist[v as usize]);
        if du.is_finite() && (dv - (du + w)).abs() < 1e-12 {
            preds[v as usize].push(u);
        }
    }
    for p in &mut preds {
        p.sort_unstable();
        p.dedup();
    }
    first_difference(&a.sets, &preds).map_err(|e| format!("preds: {e}"))?;
    for (v, &p) in a.ints.iter().enumerate() {
        let has_parent = v != 0 && dist[v].is_finite();
        if (p != u64::MAX) != has_parent || (has_parent && !preds[v].contains(&p)) {
            return Err(format!("vertex {v}: parent {p} (preds {:?})", preds[v]));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgp_core::engine::{EngineConfig, Exec, JitFallback};
    use dgp_core::plan::{compile, PlanMode};
    use dgp_core::verify::Severity;

    /// The acceptance bar of the verifier issue: every shipped
    /// declaration verifies with zero error-severity diagnostics.
    #[test]
    fn all_builtin_patterns_verify_clean() {
        for p in builtin_patterns() {
            let report = p.verify();
            assert_eq!(
                report.error_count(),
                0,
                "pattern {:?} has verifier errors:\n{report}",
                p.name()
            );
        }
    }

    /// The only warnings in the shipped set are the truthful
    /// self-trigger lints on the betweenness accumulation passes (they
    /// are driven by `once`, never by a fixed point, so the re-trigger
    /// cannot loop — see docs/INTERNALS.md §8).
    #[test]
    fn only_betweenness_warns_and_only_t004() {
        for p in builtin_patterns() {
            let report = p.verify();
            let warnings: Vec<_> = report
                .diagnostics
                .iter()
                .filter(|d| d.severity == Severity::Warning)
                .collect();
            if p.name() == "betweenness" {
                assert!(
                    warnings.iter().all(|d| d.code == dgp_core::DiagCode::T004),
                    "{report}"
                );
                assert!(!warnings.is_empty(), "{report}");
            } else {
                assert!(warnings.is_empty(), "pattern {:?}:\n{report}", p.name());
            }
        }
    }

    /// Every declaration installs, in both plan modes, and the engine it
    /// installed on compiled every declared action — the `--lint`
    /// "compiled" column must show no fallback. The same install under
    /// `Exec::Reference` stays on the interpreter and says why.
    #[test]
    fn every_family_installs_its_declaration() {
        for plan_mode in [PlanMode::Faithful, PlanMode::Optimized] {
            for exec in [Exec::Compiled, Exec::Reference] {
                let cfg = EngineConfig {
                    plan_mode,
                    exec,
                    ..EngineConfig::default()
                };
                let want = (exec == Exec::Reference).then_some(JitFallback::Reference);
                for p in builtin_patterns() {
                    let name = p.name().to_string();
                    let actions = p.actions().len();
                    assert_eq!(
                        p.jit_report(cfg),
                        Ok(vec![want; actions]),
                        "{name} ({plan_mode:?}, {exec:?})"
                    );
                }
            }
        }
    }

    /// A NaN never agrees: not with a number, not with itself, under
    /// either comparison. Equal infinities (unreached vertices) do.
    #[test]
    fn nan_never_agrees() {
        let nan = Answer::floats(vec![f64::NAN]);
        let one = Answer::floats(vec![1.0]);
        let inf = Answer::floats(vec![f64::INFINITY]);
        for compare in [Compare::Bits, Compare::Close(1e-9)] {
            assert!(nan.agrees(&one, compare).is_err(), "{compare:?}");
            assert!(one.agrees(&nan, compare).is_err(), "{compare:?}");
            assert!(nan.agrees(&nan, compare).is_err(), "{compare:?}");
            assert!(inf.agrees(&inf, compare).is_ok(), "{compare:?}");
            assert!(inf.agrees(&one, compare).is_err(), "{compare:?}");
        }
        assert!(Answer::floats(vec![1.0 + 1e-12])
            .agrees(&one, Compare::Close(1e-9))
            .is_ok());
        assert!(Answer::floats(vec![1.0 + 1e-12])
            .agrees(&one, Compare::Bits)
            .is_err());
    }

    /// The static message bill of every declared action, per plan mode
    /// (`[Faithful, Optimized]`). Test before the hop moves tests ahead
    /// of hops without adding or dropping any hop on the firing path, so
    /// no count moves with it.
    #[test]
    fn plan_messages_per_action() {
        let want: &[(&str, &str, [usize; 2])] = &[
            ("sssp", "relax", [1, 1]),
            ("sssp", "relax_light", [1, 1]),
            ("sssp", "relax_heavy", [1, 1]),
            ("cc", "cc_search", [1, 1]),
            ("cc", "cc_claim_label", [1, 1]),
            ("cc", "cc_jump", [1, 1]),
            ("cc", "cc_rewrite", [2, 2]),
            ("pagerank", "pr_contribute", [1, 1]),
            ("bfs", "bfs_expand", [1, 1]),
            ("mis", "mis_flag_blocked", [2, 2]),
            ("mis", "mis_flag_excluded", [2, 2]),
            ("kcore", "count_active", [1, 1]),
            ("coloring", "collect_used", [2, 2]),
            ("coloring", "flag_bigger", [2, 2]),
            ("betweenness", "bfs_expand", [1, 1]),
            ("betweenness", "bc_sigma_push", [1, 1]),
            ("betweenness", "bc_delta_pull", [2, 2]),
            ("paths", "relax_with_parent", [1, 1]),
            ("paths", "record_preds", [1, 1]),
            ("pagerank-pull", "pr_contribute", [1, 1]),
            ("pagerank-pull", "pr_pull", [2, 2]),
        ];
        let mut got = Vec::new();
        for p in builtin_patterns() {
            for a in p.actions() {
                let messages = [PlanMode::Faithful, PlanMode::Optimized].map(|mode| {
                    compile(&a.ir, mode)
                        .unwrap_or_else(|e| panic!("{}: {e}", a.ir.name))
                        .comm_plan()
                        .messages
                });
                got.push((p.name().to_string(), a.ir.name.clone(), messages));
            }
        }
        let want: Vec<_> = want
            .iter()
            .map(|&(f, a, m)| (f.to_string(), a.to_string(), m))
            .collect();
        assert_eq!(got, want);
    }

    /// Which declared actions the installed engine sends through its
    /// dominance cache (one combinable hop each; INTERNALS §14.5), per
    /// family and plan mode — and none under `Exec::Reference`. A
    /// refactor that silently loses the plan fact, or adds a non-`Min`
    /// writer to a relaxed map, fails here and in `--lint`.
    #[test]
    fn combinable_actions_per_family() {
        let combinable: &[(&str, &[&str])] = &[
            ("sssp", &["relax", "relax_light", "relax_heavy"]),
            ("cc", &["cc_claim_label", "cc_jump"]),
            ("bfs", &["bfs_expand"]),
            ("betweenness", &["bfs_expand"]),
        ];
        for plan_mode in [PlanMode::Faithful, PlanMode::Optimized] {
            for exec in [Exec::Compiled, Exec::Reference] {
                let cfg = EngineConfig {
                    plan_mode,
                    exec,
                    ..EngineConfig::default()
                };
                for p in builtin_patterns() {
                    let names = combinable
                        .iter()
                        .find(|(f, _)| *f == p.name())
                        .map_or(&[][..], |(_, a)| *a);
                    let want: Vec<usize> = p
                        .actions()
                        .iter()
                        .map(|a| {
                            usize::from(exec == Exec::Compiled && names.contains(&&*a.ir.name))
                        })
                        .collect();
                    let name = p.name().to_string();
                    assert_eq!(
                        p.combine_report(cfg),
                        Ok(want),
                        "{name} ({plan_mode:?}, {exec:?})"
                    );
                }
            }
        }
    }
}
