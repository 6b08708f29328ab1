//! The repo benchmark. See `README.md` beside `Cargo.toml` and
//! `BENCHMARK.json` at the repo root.
//!
//! ```text
//! dgp-benchmark --workload <name> [--seed <u64>] [--seconds <s>] [--trace <0|1>] [--tiny]
//! dgp-benchmark --all [--seed <u64>] [--runs <n>] [--out <file>] [--tiny]
//! dgp-benchmark compare <A.json>[,<A2.json>...] <B.json>[,...]
//! ```

mod compare;
mod harness;
mod json;
mod spec;
mod stats;
mod sut;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use harness::Harness;
use json::Value;
use spec::Spec;
use workloads::Opts;

/// Cores this process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Where the benchmark's own spans are written at exit.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

struct Args(Vec<String>);

impl Args {
    /// Remove `--flag` and return whether it was there.
    fn flag(&mut self, flag: &str) -> bool {
        let at = self.0.iter().position(|a| a == flag);
        at.map(|i| self.0.remove(i)).is_some()
    }

    /// Remove `--key value` and return the parsed value.
    fn value<T: std::str::FromStr>(&mut self, key: &str) -> Result<Option<T>, String> {
        let Some(i) = self.0.iter().position(|a| a == key) else {
            return Ok(None);
        };
        if i + 1 >= self.0.len() {
            return Err(format!("{key} needs a value"));
        }
        let raw = self.0.remove(i + 1);
        self.0.remove(i);
        raw.parse()
            .map(Some)
            .map_err(|_| format!("{key}: cannot read {raw:?}"))
    }

    fn done(self) -> Result<(), String> {
        match self.0.first() {
            None => Ok(()),
            Some(extra) => Err(format!("unexpected argument {extra:?}")),
        }
    }
}

/// One run of one workload; prints the result line.
fn run_one(name: &str, o: &Opts, spec: &Spec) -> Result<bool, String> {
    let mut h = Harness::new();
    workloads::run(name, o, &mut h)?;
    if o.trace {
        // The benchmark's own spans, kept in memory until now.
        let dir = out_dir();
        let written = std::fs::create_dir_all(&dir).and_then(|()| {
            std::fs::write(
                dir.join(format!("{name}.trace.json")),
                h.trace(name, o.seed).render(),
            )
        });
        if let Err(e) = written {
            eprintln!("cannot write the trace under {}: {e}", dir.display());
        }
    }
    let result = h.result(spec.metrics(o.trace));
    println!("{}", result.render());
    Ok(h.failed == 0)
}

/// Every workload, each run in a process of its own (so
/// `harness.peak_rss_mb` is that workload's): `runs` end-to-end runs and
/// one attribution run.
fn run_all(
    seed: u64,
    runs: usize,
    tiny: bool,
    out: Option<PathBuf>,
    spec: &Spec,
) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let child = |name: &str, trace: bool| -> Result<Value, String> {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["--workload", name, "--seed", &seed.to_string()]);
        cmd.args(["--trace", if trace { "1" } else { "0" }]);
        if tiny {
            cmd.arg("--tiny");
        }
        let output = cmd
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| e.to_string())?;
        let text = String::from_utf8_lossy(&output.stdout);
        let line = text
            .lines()
            .last()
            .ok_or(format!("{name}: no result line"))?;
        json::parse(line)
    };
    let mut ok = true;
    let mut docs = Vec::new();
    for name in &spec.workloads {
        let mut runs_out = Vec::new();
        for i in 0..runs {
            eprintln!("{name}: end-to-end run {} of {runs}", i + 1);
            runs_out.push(child(name, false)?);
        }
        eprintln!("{name}: attribution run");
        let layers = child(name, true)?;
        ok &= runs_out
            .iter()
            .chain([&layers])
            .all(|r| r.get("correct") == Some(&Value::Bool(true)));
        docs.push((
            name.clone(),
            Value::obj([("end_to_end", Value::Arr(runs_out)), ("per_layer", layers)]),
        ));
    }
    let doc = Value::obj([
        ("seed", Value::Num(seed as f64)),
        ("nproc", Value::Num(nproc() as f64)),
        ("workloads", Value::Obj(docs)),
        // This benchmark measures; it claims nothing.
        ("claim", Value::Null),
    ]);
    let text = doc.render();
    match out {
        Some(path) => {
            std::fs::write(&path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))?
        }
        None => println!("{text}"),
    }
    Ok(ok)
}

fn real_main() -> Result<bool, String> {
    let mut args = Args(std::env::args().skip(1).collect());
    let spec = Spec::load();
    if args.0.first().is_some_and(|a| a == "compare") {
        let [_, a, b] = args.0.as_slice() else {
            return Err("usage: compare <A.json>[,<A2.json>...] <B.json>[,...]".to_string());
        };
        let read = |list: &String| {
            let doc = |p: &str| {
                std::fs::read_to_string(p)
                    .map_err(|e| format!("{p}: {e}"))
                    .and_then(|t| json::parse(&t))
            };
            list.split(',').map(doc).collect::<Result<Vec<_>, _>>()
        };
        let report = compare::compare(&read(a)?, &read(b)?, &spec);
        print!("{}", report.table());
        return Ok(!report.any_regressed());
    }
    if nproc() < sut::RANKS {
        return Err(format!(
            "{} core(s) available, {} needed: the ranks would time-share and the times mean nothing",
            nproc(),
            sut::RANKS
        ));
    }
    let seed = args.value("--seed")?.unwrap_or(1);
    let tiny = args.flag("--tiny");
    if args.flag("--all") {
        let runs = args.value("--runs")?.unwrap_or(5);
        let out = args.value("--out")?;
        args.done()?;
        return run_all(seed, runs, tiny, out, &spec);
    }
    let name: String = args
        .value("--workload")?
        .ok_or("usage: --workload <name> | --all | compare <A.json>[,...] <B.json>[,...]")?;
    let trace = match args.value::<u8>("--trace")?.unwrap_or(0) {
        0 => false,
        1 => true,
        n => return Err(format!("--trace is 0 or 1, not {n}")),
    };
    let o = Opts {
        seed,
        seconds: args.value("--seconds")?.unwrap_or(spec.run_seconds),
        trace,
        tiny,
        corrupt_oracle: false,
    };
    args.done()?;
    run_one(&name, &o, &spec)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("dgp-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
