//! Measuring tools shared by the workloads: the benchmark's own spans,
//! the attempted/failed tally, self time per layer from the runtime's
//! spans, and the named metrics a run prints.

use std::collections::HashMap;
use std::time::Instant;

use crate::json::Value;
use crate::spec::Metric;
use crate::sut::{Answer, Layer, Rep, RuntimeSpan};

/// One span recorded by the benchmark around a call into the program.
struct OwnSpan {
    parent: Option<usize>,
    name: String,
    start_s: f64,
    dur_s: f64,
}

pub struct Harness {
    origin: Instant,
    spans: Vec<OwnSpan>,
    /// Repetitions started (warm-up, timed and attribution alike).
    pub attempted: u64,
    /// Repetitions that returned an error, panicked, or disagreed with
    /// the oracle.
    pub failed: u64,
    metrics: Vec<(String, f64)>,
}

impl Harness {
    pub fn new() -> Harness {
        Harness {
            origin: Instant::now(),
            spans: Vec::new(),
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
        }
    }

    /// Record a finished span; returns its id for children to cite.
    fn span(&mut self, parent: Option<usize>, name: &str, start: Instant, dur_s: f64) -> usize {
        self.spans.push(OwnSpan {
            parent,
            name: name.to_string(),
            start_s: (start - self.origin).as_secs_f64(),
            dur_s,
        });
        self.spans.len() - 1
    }

    /// Record a span of `dur_s` made of back-to-back `parts`, each a
    /// child span.
    pub fn span_of_parts(&mut self, name: &str, start: Instant, dur_s: f64, parts: &[(&str, f64)]) {
        let id = self.span(None, name, start, dur_s);
        let mut at = start;
        for &(part, part_s) in parts {
            self.span(Some(id), part, at, part_s);
            at += std::time::Duration::from_secs_f64(part_s);
        }
    }

    /// Time `f` as a span.
    pub fn timed<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.span(None, name, start, start.elapsed().as_secs_f64());
        out
    }

    /// One repetition: run the program, check its answer against `want`,
    /// record repetition → spawn / install / run / snapshot / teardown.
    /// A failed repetition is counted and yields `None`, so its time
    /// never enters a median.
    pub fn rep(
        &mut self,
        label: &str,
        want: &Answer,
        run: impl FnOnce() -> Result<Rep, String>,
    ) -> Option<Rep> {
        self.attempted += 1;
        let start = Instant::now();
        let rep = match run() {
            Ok(rep) if rep.answer.matches(want) => rep,
            Ok(_) => {
                self.failed += 1;
                eprintln!(
                    "{label}: repetition {} disagrees with the oracle",
                    self.attempted
                );
                return None;
            }
            Err(e) => {
                self.failed += 1;
                eprintln!("{label}: repetition {} failed: {e}", self.attempted);
                return None;
            }
        };
        self.span_of_parts(label, start, rep.wall_s, &rep.phases);
        Some(rep)
    }

    pub fn set(&mut self, name: &str, value: f64) {
        debug_assert!(
            self.metrics.iter().all(|(n, _)| n != name),
            "{name} set twice"
        );
        self.metrics.push((name.to_string(), value));
    }

    /// The result line: every metric of `wanted`, by name, with the unit
    /// `BENCHMARK.json` gives it. A metric the run did not set, or one
    /// it set that is not wanted, is a bug in the benchmark.
    pub fn result(&self, wanted: &[Metric]) -> Value {
        for (name, _) in &self.metrics {
            assert!(
                wanted.iter().any(|m| &m.name == name),
                "metric {name} is not in BENCHMARK.json"
            );
        }
        let metrics = wanted
            .iter()
            .map(|m| {
                let (_, v) = self
                    .metrics
                    .iter()
                    .find(|(n, _)| n == &m.name)
                    .unwrap_or_else(|| panic!("metric {} was not measured", m.name));
                let entry = Value::obj([
                    ("value", Value::Num(*v)),
                    ("unit", Value::Str(m.unit.clone())),
                ]);
                (m.name.clone(), entry)
            })
            .collect();
        Value::obj([
            ("correct", Value::Bool(self.failed == 0)),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("metrics", Value::Obj(metrics)),
        ])
    }

    /// The benchmark's own spans as a JSON document.
    pub fn trace(&self, workload: &str, seed: u64) -> Value {
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let parent = s.parent.map_or(Value::Null, |p| Value::Num(p as f64));
                Value::obj([
                    ("id", Value::Num(id as f64)),
                    ("parent", parent),
                    ("name", Value::Str(s.name.clone())),
                    ("start_s", Value::Num(s.start_s)),
                    ("dur_s", Value::Num(s.dur_s)),
                ])
            })
            .collect();
        Value::obj([
            ("workload", Value::Str(workload.to_string())),
            ("seed", Value::Num(seed as f64)),
            ("spans", Value::Arr(spans)),
        ])
    }
}

/// Nanoseconds each layer was busy itself: every span's duration minus
/// the part its child spans (those nested in it on the same thread)
/// cover, summed per layer.
pub fn self_time_by_layer(spans: &[RuntimeSpan]) -> HashMap<Layer, u64> {
    let mut by_thread: HashMap<(usize, usize), Vec<&RuntimeSpan>> = HashMap::new();
    for s in spans {
        by_thread.entry((s.rank, s.thread)).or_default().push(s);
    }
    let mut busy: HashMap<Layer, u64> = HashMap::new();
    for thread_spans in by_thread.values_mut() {
        // Parents sort before the children they contain.
        thread_spans.sort_by_key(|s| (s.start_ns, std::cmp::Reverse(s.dur_ns)));
        // Open spans, innermost last: (end, layer, self time so far).
        let mut open: Vec<(u64, Layer, u64)> = Vec::new();
        let close = |open: &mut Vec<(u64, Layer, u64)>, busy: &mut HashMap<Layer, u64>| {
            let (_, layer, own) = open.pop().expect("an open span");
            *busy.entry(layer).or_default() += own;
        };
        for s in thread_spans.iter() {
            while open.last().is_some_and(|&(end, _, _)| end <= s.start_ns) {
                close(&mut open, &mut busy);
            }
            if let Some(parent) = open.last_mut() {
                parent.2 = parent.2.saturating_sub(s.dur_ns);
            }
            open.push((s.start_ns + s.dur_ns, s.layer, s.dur_ns));
        }
        while !open.is_empty() {
            close(&mut open, &mut busy);
        }
    }
    busy
}

/// Peak resident set of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
            line.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: Layer, thread: usize, start_ns: u64, dur_ns: u64) -> RuntimeSpan {
        RuntimeSpan {
            layer,
            rank: 0,
            thread,
            start_ns,
            dur_ns,
        }
    }

    #[test]
    fn child_time_is_subtracted_from_the_parent_only() {
        // epoch [0,100) ⊃ handler [10,40) ⊃ eval [15,25); handler [50,70);
        // a span on another thread overlaps in time but nests in nothing.
        let spans = [
            span(Layer::Eval, 0, 15, 10),
            span(Layer::Handler, 0, 10, 30),
            span(Layer::Handler, 0, 50, 20),
            span(Layer::Epoch, 0, 0, 100),
            span(Layer::Handler, 1, 20, 60),
        ];
        let busy = self_time_by_layer(&spans);
        assert_eq!(busy[&Layer::Eval], 10);
        assert_eq!(busy[&Layer::Handler], 20 + 20 + 60);
        assert_eq!(busy[&Layer::Epoch], 100 - 30 - 20);
        let total: u64 = busy.values().sum();
        assert_eq!(total, 100 + 60, "self times partition the covered time");
    }
}
