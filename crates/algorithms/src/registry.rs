//! The catalogue of every shipped pattern declaration.
//!
//! Each family writes its pattern down once, as `pub fn pattern() ->
//! PatternBuilder`, and its driver installs from that. [`builtin_patterns`]
//! lists those declarations, so the lint harness (`experiments --lint`),
//! the mutation tests and the differential suites all read what the
//! runtime runs — add a family's line here and it is linted in CI.

use dgp_core::pattern::PatternBuilder;

use crate::{betweenness, bfs, cc, coloring, kcore, mis, pagerank, paths, sssp};

/// Every shipped declaration: the nine families, plus the push+pull
/// PageRank sweep of E11.
pub fn builtin_patterns() -> Vec<PatternBuilder> {
    vec![
        sssp::pattern(),
        cc::pattern(),
        pagerank::pattern(),
        pagerank::pull_pattern(),
        bfs::pattern(),
        mis::pattern(),
        kcore::pattern(),
        coloring::pattern(),
        betweenness::pattern(),
        paths::pattern(),
    ]
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
            ("pagerank-pull", "pr_contribute", [1, 1]),
            ("pagerank-pull", "pr_pull", [2, 2]),
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
