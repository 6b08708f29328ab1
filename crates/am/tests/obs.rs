//! Invariants of the observability subsystem (`dgp_am::obs`): per-type
//! counter stability across ranks, and the epoch-profile decomposition of
//! the cumulative counters.

use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::sync::Arc;

use dgp_am::{Machine, MachineConfig, SpanKind};

/// Per-type counters are machine-wide and registered collectively, so
/// every rank sees the same names in the same order, and the counters
/// already agree between ranks at quiescence.
#[test]
fn type_stats_names_and_order_agree_across_ranks() {
    let out = Machine::run(MachineConfig::new(3), |ctx| {
        let a = ctx.register_named("ping", |_ctx, _: u32| {});
        let b = ctx.register_named("pong", |_ctx, _: u64| {});
        ctx.epoch(|ctx| {
            let next = (ctx.rank() + 1) % ctx.num_ranks();
            a.send(ctx, next, 1u32);
            b.send(ctx, next, 2u64);
            b.send(ctx, next, 3u64);
        });
        ctx.type_stats()
    });
    for stats in &out {
        let names: Vec<&str> = stats.iter().map(|t| t.name.as_str()).collect();
        assert_eq!(names, ["ping", "pong"]);
        assert_eq!(stats[0].sent, 3);
        assert_eq!(stats[0].handled, 3);
        assert_eq!(stats[1].sent, 6);
        assert_eq!(stats[1].handled, 6);
    }
    assert_eq!(out[0].len(), out[1].len());
    assert!(out.windows(2).all(|w| {
        w[0].iter()
            .zip(&w[1])
            .all(|(x, y)| x.name == y.name && x.sent == y.sent && x.handled == y.handled)
    }));
}

/// Epoch profiles are always collected (no `profile(true)` needed): one
/// per machine-wide epoch, and their counter deltas reassemble the
/// cumulative snapshot exactly.
#[test]
fn epoch_profile_deltas_sum_to_cumulative() {
    let handled = Arc::new(AtomicU64::new(0));
    let h2 = handled.clone();
    let out = Machine::run(MachineConfig::new(2), move |ctx| {
        let handled = h2.clone();
        let mt = ctx.register(move |_ctx, _: u64| {
            handled.fetch_add(1, SeqCst);
        });
        for round in 0..4u64 {
            ctx.epoch(|ctx| {
                let next = (ctx.rank() + 1) % ctx.num_ranks();
                for v in 0..=round {
                    mt.send(ctx, next, v);
                }
            });
        }
        (ctx.epoch_profiles(), ctx.stats())
    });
    let (profiles, cumulative) = &out[0];
    assert_eq!(profiles.len(), 4);
    // 1-indexed, in order.
    for (i, p) in profiles.iter().enumerate() {
        assert_eq!(p.epoch, (i + 1) as u64);
        // Both ranks send round+1 messages in epoch round+1.
        assert_eq!(p.delta.messages_sent, 2 * (i as u64 + 1));
        assert_eq!(p.delta.messages_sent, p.delta.messages_handled);
        // Every rank's epoch entry is counted in the raw `epochs` stat.
        assert_eq!(p.delta.epochs, 2);
    }
    let sum = |f: fn(&dgp_am::StatsSnapshot) -> u64| -> u64 {
        profiles.iter().map(|p| f(&p.delta)).sum()
    };
    assert_eq!(sum(|s| s.messages_sent), cumulative.messages_sent);
    assert_eq!(sum(|s| s.messages_handled), cumulative.messages_handled);
    assert_eq!(sum(|s| s.envelopes_sent), cumulative.envelopes_sent);
    assert_eq!(sum(|s| s.epochs), cumulative.epochs);
    assert_eq!(handled.load(SeqCst), 2 * (1 + 2 + 3 + 4));
}

/// Ranks that return from `epoch()` at different times still produce
/// exactly one profile per generation (the first sealer wins, the rest
/// observe it), and `epoch_profiles()` is consistent from any rank.
#[test]
fn epoch_profiles_identical_from_every_rank() {
    let out = Machine::run(MachineConfig::new(4), |ctx| {
        let mt = ctx.register(|_ctx, _: u32| {});
        for _ in 0..3 {
            ctx.epoch(|ctx| {
                if ctx.rank() == 0 {
                    mt.send(ctx, 3, 7);
                }
            });
        }
        ctx.epoch_profiles()
    });
    assert!(out.iter().all(|p| p.len() == 3));
    for w in out.windows(2) {
        for (a, b) in w[0].iter().zip(&w[1]) {
            assert_eq!(a.epoch, b.epoch);
            assert_eq!(a.delta, b.delta);
            assert_eq!(a.duration, b.duration);
        }
    }
}

/// Span recording is off by default — `AmCtx::span` returns `None` and
/// nothing allocates — and on with `profile(true)`, where user spans land
/// in the recorder alongside the runtime's own.
#[test]
fn spans_recorded_only_when_profiling() {
    let off = Machine::run(MachineConfig::new(1), |ctx| {
        assert!(!ctx.profiling_enabled());
        let s = ctx.span(SpanKind::Custom, "user.work");
        assert!(s.is_none());
        ctx.epoch(|_| {});
        ctx.chrome_trace_json().is_none()
    });
    assert!(off[0]);

    let on = Machine::run(MachineConfig::new(2).profile(true), |ctx| {
        assert!(ctx.profiling_enabled());
        ctx.epoch(|ctx| {
            let _s = ctx.span(SpanKind::Custom, "user.work");
        });
        let rec = ctx.recorder().expect("profiling on");
        rec.spans_of(ctx.rank())
            .iter()
            .map(|s| s.name)
            .collect::<Vec<_>>()
    });
    for names in &on {
        assert!(
            names.contains(&"user.work"),
            "user span recorded: {names:?}"
        );
        assert!(
            names.contains(&"epoch"),
            "runtime epoch span recorded: {names:?}"
        );
    }
}

/// Ids of the flow events of phase `ph` (`"s"` or `"f"`) in a Chrome
/// trace, in document order.
fn flow_ids(json: &str, ph: &str) -> Vec<u64> {
    let key = format!("\"ph\":\"{ph}\"");
    json.match_indices(&key)
        .map(|(at, _)| {
            let rest = &json[at..];
            let id = &rest[rest.find("\"id\":").expect("flow events carry an id") + 5..];
            let end = id.find(|c: char| !c.is_ascii_digit()).unwrap();
            id[..end].parse().unwrap()
        })
        .collect()
}

/// A ring keeps the newest records, so a small one can keep a handler
/// whose envelope's ship on the other rank was overwritten. The counts
/// stay honest and the Chrome export draws no arrow with a missing end.
#[test]
fn truncated_rings_keep_the_newest_and_export_whole_flows() {
    const CAP: usize = 8;
    let cfg = MachineConfig::new(2)
        .coalescing(1)
        .trace_sampling(1)
        .profile(true)
        .profile_capacity(CAP);
    let mut out = Machine::run(cfg, |ctx| {
        let mt = ctx.register(|_ctx, _: u32| {});
        // Epoch 1: twenty traced envelopes from rank 0 to rank 1.
        ctx.epoch(|ctx| {
            if ctx.rank() == 0 {
                for i in 0..20 {
                    mt.send(ctx, 1, i);
                }
            }
        });
        // Epoch 2: rank 0 overwrites its ring, ships included.
        ctx.epoch(|ctx| {
            if ctx.rank() == 0 {
                for _ in 0..20 {
                    let _s = ctx.span(SpanKind::Custom, "user.work");
                }
            }
        });
        ctx.barrier();
        (ctx.rank() == 0).then(|| {
            let rec = ctx.recorder().expect("profiling on");
            (
                rec.recorded(),
                rec.dropped(),
                rec.all_spans(),
                [rec.spans_of(0), rec.spans_of(1)],
                ctx.chrome_trace_json().unwrap(),
            )
        })
    });
    let (recorded, dropped, all, per_rank, json) = out[0].take().unwrap();

    assert!(dropped > 0, "the rings wrapped");
    assert_eq!(dropped, recorded - all.len() as u64);

    for (rank, spans) in per_rank.iter().enumerate() {
        assert_eq!(spans.len(), CAP, "rank {rank} keeps a full ring");
        // Newest kept, oldest first: the last record is the rank's
        // epoch-2 span, and records sit in the order they ended.
        let last = spans.last().unwrap();
        assert_eq!((last.kind, last.arg0), (SpanKind::Epoch, 2), "rank {rank}");
        let end = |s: &dgp_am::SpanRecord| s.start_ns + s.dur_ns;
        assert!(spans.windows(2).all(|w| end(&w[0]) <= end(&w[1])));
    }
    // Rank 0's newest eight are all from epoch 2: its ships are gone.
    assert!(per_rank[0].iter().all(|s| s.epoch == 2 && s.flow_out == 0));
    // Rank 1 still holds handlers of those ships.
    assert!(per_rank[1]
        .iter()
        .any(|s| s.kind == SpanKind::Handler && s.flow_in != 0));

    let starts = flow_ids(&json, "s");
    for id in flow_ids(&json, "f") {
        assert!(starts.contains(&id), "flow {id} ends but never starts");
    }
}
