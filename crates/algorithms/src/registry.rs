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
    use dgp_core::plan::PlanMode;
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
}
