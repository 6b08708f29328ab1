//! Replay serialization: a [`ScenarioSpec`] as a flat `[replay]`
//! key=value block.
//!
//! The format is deliberately primitive — one key per line, repeated
//! keys for lists, `#` comments — so a failing schedule survives being
//! pasted into an issue, attached to a post-mortem, or committed as a
//! regression fixture, and replays with one command
//! (`experiments --sim-replay <file>`).

use dgp_am::{
    InvariantCadence, LinkSpec, PartitionMode, PartitionSpec, SimAt, StallSpec, StragglerSpec,
};

use crate::scenario::{GraphKind, ScenarioSpec, Workload};

fn at_str(a: SimAt) -> String {
    match a {
        SimAt::Time(t) => format!("time:{t}"),
        SimAt::Epoch(e) => format!("epoch:{e}"),
    }
}

fn parse_at(s: &str) -> Result<SimAt, String> {
    let (kind, val) = s
        .split_once(':')
        .ok_or_else(|| format!("bad SimAt {s:?} (want time:<ns> or epoch:<n>)"))?;
    let n: u64 = val
        .parse()
        .map_err(|_| format!("bad SimAt value {val:?}"))?;
    match kind {
        "time" => Ok(SimAt::Time(n)),
        "epoch" => Ok(SimAt::Epoch(n)),
        _ => Err(format!("bad SimAt kind {kind:?}")),
    }
}

/// Serialize a scenario as a replayable `[replay]` block.
pub fn to_replay(spec: &ScenarioSpec) -> String {
    let mut out = String::from("[replay]\n");
    let mut kv = |k: &str, v: String| out.push_str(&format!("{k} = {v}\n"));
    kv(
        "workload",
        match spec.workload {
            Workload::Sssp { source } => format!("sssp:{source}"),
            Workload::Cc => "cc".into(),
            Workload::PageRank { iters } => format!("pagerank:{iters}"),
        },
    );
    kv(
        "graph",
        match spec.graph {
            GraphKind::Rmat { scale, edge_factor } => format!("rmat:{scale}:{edge_factor}"),
            GraphKind::ErdosRenyi { n, m } => format!("erdos:{n}:{m}"),
            GraphKind::Blobs { k, size } => format!("blobs:{k}:{size}"),
        },
    );
    kv("graph_seed", spec.graph_seed.to_string());
    kv("ranks", spec.ranks.to_string());
    kv("coalescing", spec.coalescing.to_string());
    kv("faults", spec.faults.to_string());
    let plan = &spec.plan;
    kv("seed", plan.seed.to_string());
    kv("latency_ns", plan.latency_ns.to_string());
    kv("per_msg_ns", plan.per_msg_ns.to_string());
    kv("jitter_ns", plan.jitter_ns.to_string());
    let every_delivery = plan.cadence == InvariantCadence::EveryDelivery;
    kv("every_delivery", every_delivery.to_string());
    for l in &plan.links {
        kv("link", format!("{}:{}:{}", l.from, l.to, l.latency_ns));
    }
    for p in &plan.partitions {
        let mode = match p.mode {
            PartitionMode::Hold => "hold",
            PartitionMode::Drop => "drop",
        };
        let cut = p
            .cut
            .iter()
            .map(|r| r.to_string())
            .collect::<Vec<_>>()
            .join(",");
        kv(
            "partition",
            format!("{mode}:{}:{}:{cut}", at_str(p.from), at_str(p.until)),
        );
    }
    for s in &plan.stragglers {
        kv("straggler", format!("{}:{}", s.rank, s.factor));
    }
    for s in &plan.stalls {
        kv("stall", format!("{}:{}:{}", s.rank, s.at_ns, s.duration_ns));
    }
    out
}

fn parse_u64(k: &str, v: &str) -> Result<u64, String> {
    v.parse().map_err(|_| format!("{k}: bad integer {v:?}"))
}

fn parse_usize(k: &str, v: &str) -> Result<usize, String> {
    v.parse().map_err(|_| format!("{k}: bad integer {v:?}"))
}

fn parse_bool(k: &str, v: &str) -> Result<bool, String> {
    v.parse().map_err(|_| format!("{k}: bad bool {v:?}"))
}

/// Parse a `[replay]` block back into a scenario. Tolerates blank lines,
/// `#` comments, and text before the `[replay]` header (so a whole
/// post-mortem file containing an embedded block parses directly).
pub fn from_replay(text: &str) -> Result<ScenarioSpec, String> {
    let mut spec = ScenarioSpec::baseline(0);
    let mut in_block = false;
    let mut saw_block = false;
    for raw in text.lines() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if line.starts_with('[') {
            in_block = line == "[replay]";
            saw_block |= in_block;
            continue;
        }
        if !in_block {
            continue;
        }
        let (k, v) = line
            .split_once('=')
            .ok_or_else(|| format!("bad line {line:?} (want key = value)"))?;
        let (k, v) = (k.trim(), v.trim());
        match k {
            "workload" => {
                spec.workload = match v.split_once(':') {
                    Some(("sssp", s)) => Workload::Sssp {
                        source: parse_u64(k, s)?,
                    },
                    Some(("pagerank", i)) => Workload::PageRank {
                        iters: parse_usize(k, i)?,
                    },
                    None if v == "cc" => Workload::Cc,
                    _ => return Err(format!("workload: unknown {v:?}")),
                };
            }
            "graph" => {
                let parts: Vec<&str> = v.split(':').collect();
                spec.graph = match parts.as_slice() {
                    ["rmat", s, ef] => GraphKind::Rmat {
                        scale: parse_u64(k, s)? as u32,
                        edge_factor: parse_usize(k, ef)?,
                    },
                    ["erdos", n, m] => GraphKind::ErdosRenyi {
                        n: parse_u64(k, n)?,
                        m: parse_usize(k, m)?,
                    },
                    ["blobs", kk, size] => GraphKind::Blobs {
                        k: parse_u64(k, kk)?,
                        size: parse_u64(k, size)?,
                    },
                    _ => return Err(format!("graph: unknown {v:?}")),
                };
            }
            "graph_seed" => spec.graph_seed = parse_u64(k, v)?,
            "ranks" => spec.ranks = parse_usize(k, v)?,
            "coalescing" => spec.coalescing = parse_usize(k, v)?,
            "faults" => spec.faults = parse_bool(k, v)?,
            "seed" => spec.plan.seed = parse_u64(k, v)?,
            "latency_ns" => spec.plan.latency_ns = parse_u64(k, v)?,
            "per_msg_ns" => spec.plan.per_msg_ns = parse_u64(k, v)?,
            "jitter_ns" => spec.plan.jitter_ns = parse_u64(k, v)?,
            "every_delivery" => {
                spec.plan.cadence = if parse_bool(k, v)? {
                    InvariantCadence::EveryDelivery
                } else {
                    InvariantCadence::EveryEpoch
                }
            }
            "link" => {
                let parts: Vec<&str> = v.split(':').collect();
                match parts.as_slice() {
                    [f, t, lat] => spec.plan.links.push(LinkSpec {
                        from: parse_usize(k, f)?,
                        to: parse_usize(k, t)?,
                        latency_ns: parse_u64(k, lat)?,
                    }),
                    _ => return Err(format!("link: want from:to:latency, got {v:?}")),
                }
            }
            "partition" => {
                // mode : from_kind : from_val : until_kind : until_val : cut
                let parts: Vec<&str> = v.split(':').collect();
                if parts.len() != 6 {
                    return Err(format!(
                        "partition: want mode:from:until:cut (6 fields), got {v:?}"
                    ));
                }
                let mode = match parts[0] {
                    "hold" => PartitionMode::Hold,
                    "drop" => PartitionMode::Drop,
                    m => return Err(format!("partition: unknown mode {m:?}")),
                };
                let from = parse_at(&format!("{}:{}", parts[1], parts[2]))?;
                let until = parse_at(&format!("{}:{}", parts[3], parts[4]))?;
                let cut = parts[5]
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(|s| parse_usize(k, s))
                    .collect::<Result<Vec<_>, _>>()?;
                spec.plan.partitions.push(PartitionSpec {
                    cut,
                    from,
                    until,
                    mode,
                });
            }
            "straggler" => {
                let parts: Vec<&str> = v.split(':').collect();
                match parts.as_slice() {
                    [r, f] => spec.plan.stragglers.push(StragglerSpec {
                        rank: parse_usize(k, r)?,
                        factor: parse_u64(k, f)?,
                    }),
                    _ => return Err(format!("straggler: want rank:factor, got {v:?}")),
                }
            }
            "stall" => {
                let parts: Vec<&str> = v.split(':').collect();
                match parts.as_slice() {
                    [r, at, dur] => spec.plan.stalls.push(StallSpec {
                        rank: parse_usize(k, r)?,
                        at_ns: parse_u64(k, at)?,
                        duration_ns: parse_u64(k, dur)?,
                    }),
                    _ => return Err(format!("stall: want rank:at:duration, got {v:?}")),
                }
            }
            _ => return Err(format!("unknown key {k:?}")),
        }
    }
    if !saw_block {
        return Err("no [replay] block found".into());
    }
    Ok(spec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::partition;

    fn busy_spec() -> ScenarioSpec {
        let mut spec = ScenarioSpec::baseline(99);
        spec.workload = Workload::PageRank { iters: 7 };
        spec.graph = GraphKind::Blobs { k: 3, size: 20 };
        spec.faults = true;
        spec.plan.jitter_ns = 4_242;
        spec.plan.cadence = InvariantCadence::EveryDelivery;
        spec.plan.links.push(LinkSpec {
            from: 1,
            to: 2,
            latency_ns: 55_000,
        });
        spec.plan.partitions.push(partition(
            &[0, 2],
            SimAt::Epoch(2),
            SimAt::Time(9_000_000),
            PartitionMode::Drop,
        ));
        spec.plan.stragglers.push(StragglerSpec {
            rank: 3,
            factor: 16,
        });
        spec.plan.stalls.push(StallSpec {
            rank: 1,
            at_ns: 2_000,
            duration_ns: 1_000_000,
        });
        spec
    }

    #[test]
    fn round_trips_exactly() {
        let spec = busy_spec();
        let text = to_replay(&spec);
        let back = from_replay(&text).expect("parse");
        assert_eq!(back, spec);
    }

    #[test]
    fn round_trips_the_baseline() {
        let spec = ScenarioSpec::baseline(5);
        assert_eq!(from_replay(&to_replay(&spec)).unwrap(), spec);
    }

    #[test]
    fn tolerates_comments_and_surrounding_text() {
        let text = format!(
            "post-mortem narrative line\n\n{}# trailing comment\n",
            to_replay(&busy_spec())
        );
        assert_eq!(from_replay(&text).unwrap(), busy_spec());
    }

    #[test]
    fn rejects_garbage() {
        assert!(from_replay("no block here").is_err());
        assert!(from_replay("[replay]\nworkload = tsp:0\n").is_err());
        assert!(from_replay("[replay]\nranks pancake\n").is_err());
        assert!(from_replay("[replay]\npartition = hold:1:2\n").is_err());
    }

    #[test]
    fn rejects_the_retired_wave_key() {
        // Blocks written before the key was dropped must not silently
        // replay a different run.
        let text = to_replay(&ScenarioSpec::baseline(5))
            .replace("coalescing = 4\n", "coalescing = 4\nwave = true\n");
        assert_eq!(from_replay(&text), Err("unknown key \"wave\"".to_string()));
    }
}
