//! `BENCHMARK.json`, the one place metric names, units, directions and
//! bounds are written down. It is compiled in, so the binary and the file
//! the driver reads cannot drift apart.

use crate::json::{self, Value};

const TEXT: &str = include_str!("../../BENCHMARK.json");

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the parent's median the metric may worsen by; `None` for
    /// per-layer metrics, which have no bound.
    pub bound: Option<f64>,
}

#[derive(Debug, Clone)]
pub struct Spec {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

impl Spec {
    pub fn load() -> Spec {
        Spec::parse(TEXT).expect("BENCHMARK.json is well-formed")
    }

    fn parse(text: &str) -> Result<Spec, String> {
        let doc = json::parse(text)?;
        let list = |key: &str| doc.get(key).map(Value::as_arr).unwrap_or_default();
        let text_of = |v: &Value, key: &str| {
            v.get(key)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or(format!("BENCHMARK.json: entry without \"{key}\""))
        };
        let metrics = |key: &str| {
            list(key)
                .iter()
                .map(|m| {
                    Ok(Metric {
                        name: text_of(m, "name")?,
                        unit: text_of(m, "unit")?,
                        higher_is_better: text_of(m, "better")? == "higher",
                        bound: m.get("bound").and_then(Value::as_f64),
                    })
                })
                .collect::<Result<Vec<_>, String>>()
        };
        Ok(Spec {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Value::as_f64)
                .ok_or("BENCHMARK.json: no run_seconds")?,
            workloads: list("workloads")
                .iter()
                .map(|w| text_of(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }

    /// The metrics a run with `--trace <trace>` must print.
    pub fn metrics(&self, trace: bool) -> &[Metric] {
        if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}
