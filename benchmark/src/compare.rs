//! `compare A.json[,A2.json,...] B.json[,...]`: judge `--all` documents
//! (A the parent, B the change) by the bounds `BENCHMARK.json` fixes.
//! Several documents on a side — the alternating pairs of a comparison —
//! pool their runs.

use std::fmt::Write as _;

use crate::json::Value;
use crate::spec::{Metric, Spec};
use crate::stats::{median, spread};
use crate::workloads::EXACT_COUNTS;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is better than A's by more than the bound.
    Improved,
    /// Neither side's median is off by more than the bound, and both
    /// sides' quartile spreads are inside it.
    WithinBound,
    /// B's median is worse than A's by more than the bound.
    Regressed,
    /// The medians are within the bound but a side's own run-to-run
    /// quartile spread is wider than it: not shown to be unchanged.
    Unresolved,
    /// A per-layer metric: no bound, shown for attribution.
    Info,
    /// A count that repeats exactly, and did.
    Identical,
    /// A count that repeats exactly within a commit, and differs here.
    Differs,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::WithinBound => "within bound",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
            Verdict::Info => "-",
            Verdict::Identical => "identical",
            Verdict::Differs => "differs",
        }
    }
}

#[derive(Debug, Clone)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub unit: String,
    pub a: f64,
    pub b: f64,
    /// Share of A's median by which B is worse (negative: better).
    pub worse_by: f64,
    /// The wider of the two sides' quartile spreads, as a share of the
    /// side's median.
    pub spread: f64,
    pub verdict: Verdict,
}

/// Judge one end-to-end metric from each side's per-run values.
pub fn judge(a: &[f64], b: &[f64], m: &Metric) -> (f64, f64, Verdict) {
    let (ma, mb) = (median(a), median(b));
    let change = if ma == 0.0 { 0.0 } else { (mb - ma) / ma.abs() };
    // (`+ 0.0` turns a negative zero into a plain one.)
    let worse_by = if m.higher_is_better { -change } else { change } + 0.0;
    let spread = spread(a).max(spread(b));
    let verdict = match m.bound {
        None => Verdict::Info,
        Some(bound) if worse_by > bound => Verdict::Regressed,
        Some(bound) if worse_by < -bound => Verdict::Improved,
        Some(bound) if spread > bound => Verdict::Unresolved,
        Some(_) => Verdict::WithinBound,
    };
    (worse_by, spread, verdict)
}

pub struct Report {
    pub rows: Vec<Row>,
}

impl Report {
    pub fn any_regressed(&self) -> bool {
        self.rows.iter().any(|r| r.verdict == Verdict::Regressed)
    }

    pub fn table(&self) -> String {
        // Six significant decimals for times and ratios, none for counts
        // and rates in the millions.
        let num = |x: f64| {
            if x.abs() >= 1000.0 {
                format!("{x:.0}")
            } else {
                format!("{x:.6}")
            }
        };
        let mut out = format!(
            "{:<10} {:<30} {:>14} {:>14} {:<6} {:>8} {:>8}  verdict\n",
            "workload", "metric", "A median", "B median", "unit", "worse", "spread"
        );
        for r in &self.rows {
            writeln!(
                out,
                "{:<10} {:<30} {:>14} {:>14} {:<6} {:>+7.1}% {:>7.1}%  {}",
                r.workload,
                r.metric,
                num(r.a),
                num(r.b),
                r.unit,
                r.worse_by * 100.0,
                r.spread * 100.0,
                r.verdict.label()
            )
            .expect("write to String");
        }
        out
    }
}

/// The value of `metric` in each result line that has it.
fn values(results: &[Value], metric: &str) -> Vec<f64> {
    results
        .iter()
        .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

/// One row per (metric, workload) present on both sides: end-to-end
/// metrics judged by their bounds, then per-layer metrics for attribution.
pub fn compare(a: &[Value], b: &[Value], spec: &Spec) -> Report {
    let mut rows = Vec::new();
    // Every result line of `part` for `workload`, over all of a side's
    // documents: the end-to-end runs, or the one attribution run of each.
    let side = |docs: &[Value], workload: &str, part: &str| -> Vec<Value> {
        let found = docs
            .iter()
            .filter_map(|doc| doc.get("workloads")?.get(workload)?.get(part));
        found
            .flat_map(|v| match v {
                Value::Arr(runs) => runs.clone(),
                one => vec![one.clone()],
            })
            .collect()
    };
    for workload in &spec.workloads {
        let mut push = |m: &Metric, va: Vec<f64>, vb: Vec<f64>| {
            if va.is_empty() || vb.is_empty() {
                return;
            }
            let (worse_by, spread, mut verdict) = judge(&va, &vb, m);
            if EXACT_COUNTS.contains(&(workload.as_str(), m.name.as_str())) {
                verdict = if va.iter().chain(&vb).all(|x| *x == va[0]) {
                    Verdict::Identical
                } else {
                    Verdict::Differs
                };
            }
            rows.push(Row {
                workload: workload.clone(),
                metric: m.name.clone(),
                unit: m.unit.clone(),
                a: median(&va),
                b: median(&vb),
                worse_by,
                spread,
                verdict,
            });
        };
        for (part, metrics) in [
            ("end_to_end", &spec.end_to_end),
            ("per_layer", &spec.per_layer),
        ] {
            let (ra, rb) = (side(a, workload, part), side(b, workload, part));
            for m in metrics {
                push(m, values(&ra, &m.name), values(&rb, &m.name));
            }
        }
    }
    Report { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(higher_is_better: bool, bound: f64) -> Metric {
        Metric {
            name: "m".into(),
            unit: "s".into(),
            higher_is_better,
            bound: Some(bound),
        }
    }

    const STEADY: [f64; 5] = [1.00, 1.01, 0.99, 1.00, 1.02];

    #[test]
    fn lower_is_better_verdicts() {
        let m = metric(false, 0.08);
        let scaled = |k: f64| STEADY.map(|x| x * k);
        assert_eq!(judge(&STEADY, &scaled(1.03), &m).2, Verdict::WithinBound);
        assert_eq!(judge(&STEADY, &scaled(1.20), &m).2, Verdict::Regressed);
        assert_eq!(judge(&STEADY, &scaled(0.80), &m).2, Verdict::Improved);
        let (worse_by, _, _) = judge(&STEADY, &scaled(1.20), &m);
        assert!((worse_by - 0.20).abs() < 1e-9);
    }

    #[test]
    fn higher_is_better_flips_the_direction() {
        let m = metric(true, 0.08);
        let scaled = |k: f64| STEADY.map(|x| x * k);
        assert_eq!(judge(&STEADY, &scaled(1.20), &m).2, Verdict::Improved);
        assert_eq!(judge(&STEADY, &scaled(0.80), &m).2, Verdict::Regressed);
    }

    #[test]
    fn a_noisy_side_is_unresolved_not_unchanged() {
        let m = metric(false, 0.08);
        let noisy = [0.80, 1.25, 1.00, 0.85, 1.20];
        assert!(spread(&noisy) > 0.08);
        assert_eq!(judge(&STEADY, &noisy, &m).2, Verdict::Unresolved);
        assert_eq!(judge(&noisy, &STEADY, &m).2, Verdict::Unresolved);
        // ...but a median beyond the bound is still called.
        let slow = noisy.map(|x| x * 1.5);
        assert_eq!(judge(&STEADY, &slow, &m).2, Verdict::Regressed);
    }

    #[test]
    fn documents_compare_row_by_row() {
        let spec = Spec::load();
        let doc = |solve: [f64; 3], msgs: f64| {
            let run = |v: f64| {
                format!(
                    r#"{{"correct": true, "metrics": {{"solve_s": {{"value": {v}, "unit": "s"}}}}}}"#
                )
            };
            let text = format!(
                r#"{{"workloads": {{"cc-blobs": {{"end_to_end": [{}, {}, {}],
                    "per_layer": {{"metrics": {{"am.messages_sent": {{"value": {msgs}, "unit": "count"}}}}}}}}}}}}"#,
                run(solve[0]),
                run(solve[1]),
                run(solve[2])
            );
            crate::json::parse(&text).unwrap()
        };
        let a = [doc([1.0, 1.01, 0.99], 100.0)];
        let same = compare(&a, &[doc([1.01, 1.0, 0.99], 100.0)], &spec);
        assert_eq!(same.rows.len(), 2);
        assert_eq!(same.rows[0].verdict, Verdict::WithinBound);
        assert_eq!(same.rows[1].verdict, Verdict::Identical);
        assert!(!same.any_regressed());
        // Two documents on a side pool their runs: 3 + 3 values.
        let pooled = compare(&a, &[a[0].clone(), a[0].clone()], &spec);
        assert_eq!(pooled.rows[0].verdict, Verdict::WithinBound);
        let worse = compare(&a, &[doc([2.0, 2.01, 1.99], 101.0)], &spec);
        assert_eq!(worse.rows[0].verdict, Verdict::Regressed);
        assert_eq!(worse.rows[1].verdict, Verdict::Differs);
        assert!(worse.any_regressed());
        assert!(worse.table().contains("regressed"));
    }
}
