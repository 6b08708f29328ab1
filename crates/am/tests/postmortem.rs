//! Automatic post-mortem tests: a handler panic under an adversarial
//! transport must produce a [`PostMortem`] that names the failing rank,
//! the epoch, and the causal parent of the message whose handler died —
//! the "what was the machine doing when it died" evidence INTERNALS §10
//! promises.

use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::sync::Arc;

use dgp_am::{FaultPlan, Machine, MachineConfig, MachineError, SpanKind};

mod common;
use common::seeds;

const RANKS: usize = 4;
/// Hop budget of the single chain rank 0 starts. The panic fires in the
/// handler that receives `left == 0`, which runs on rank
/// `(1 + HOPS - 1) % RANKS`.
const HOPS: u64 = 5;
const PANIC_RANK: usize = (1 + (HOPS as usize - 1)) % RANKS;

/// Run one chain from rank 0 that panics at hop `HOPS`; return the
/// diagnosed failure. `coalescing(1)` ships every hop as its own
/// envelope, so the causal chain has one ship per hop.
fn failing_run(cfg: MachineConfig) -> (MachineError, Box<dgp_am::PostMortem>) {
    let res = Machine::try_run_diagnosed(cfg, |ctx| {
        let mt = ctx.register_named("hop", |ctx, left: u64| {
            if left == 0 {
                panic!("injected failure at the end of the chain");
            }
            let next = (ctx.rank() + 1) % ctx.num_ranks();
            ctx.send(next, left - 1);
        });
        ctx.epoch(|ctx| {
            if ctx.rank() == 0 {
                mt.send(ctx, 1, HOPS - 1);
            }
        });
    });
    match res {
        Ok(_) => panic!("the chain's final hop must panic"),
        Err(e) => e,
    }
}

#[test]
fn postmortem_names_rank_epoch_and_causal_parent_under_chaos() {
    for seed in seeds() {
        let cfg = MachineConfig::new(RANKS)
            .coalescing(1)
            .trace_sampling(1) // trace every root: the chain is certainly traced
            .faults(FaultPlan::chaos(seed));
        let (err, pm) = failing_run(cfg);

        match &err {
            MachineError::HandlerPanicked {
                rank, type_name, ..
            } => {
                assert_eq!(*rank, PANIC_RANK, "seed {seed}: wrong failing rank");
                assert_eq!(type_name, "hop");
            }
            other => panic!("seed {seed}: expected HandlerPanicked, got {other}"),
        }

        let cause = pm
            .cause
            .as_ref()
            .unwrap_or_else(|| panic!("seed {seed}: post-mortem lost the failure cause"));
        assert_eq!(cause.rank, PANIC_RANK, "seed {seed}");
        assert_eq!(cause.epoch, 1, "seed {seed}: the chain runs in epoch 1");
        assert_eq!(cause.type_name, "hop", "seed {seed}");
        assert!(
            cause.trace.is_traced(),
            "seed {seed}: full sampling must trace the fatal envelope"
        );
        assert!(
            pm.causal_parent().is_some(),
            "seed {seed}: the fatal hop has a parent envelope"
        );
        assert_eq!(pm.causal_parent(), Some(cause.trace.parent), "seed {seed}");

        // The flight recorder was on: the merged timeline holds events,
        // and the causal chain reaches back through the chain's ships.
        assert!(
            !pm.timeline.is_empty(),
            "seed {seed}: empty flight timeline"
        );
        assert!(
            pm.timeline.iter().any(|e| e.kind == SpanKind::HandlerEnter),
            "seed {seed}: no handler activity recorded"
        );
        assert!(
            !pm.causal_chain.is_empty(),
            "seed {seed}: causal chain not reconstructed"
        );
        // The chain is root-first: each subsequent ship's parent is the
        // previous ship's event id (Ship: flow_out = event, flow_in = parent).
        for w in pm.causal_chain.windows(2) {
            assert_eq!(
                w[1].flow_in, w[0].flow_out,
                "seed {seed}: causal chain link broken"
            );
        }

        // The human rendering names the essentials.
        let text = pm.render();
        assert!(
            text.contains(&format!("failing rank: {PANIC_RANK} (epoch 1")),
            "seed {seed}: {text}"
        );
        assert!(text.contains("parent event"), "seed {seed}: {text}");
        assert!(text.contains("\"hop\""), "seed {seed}: {text}");
    }
}

#[test]
fn postmortem_assembled_even_with_flight_disabled() {
    let cfg = MachineConfig::new(RANKS)
        .coalescing(1)
        .trace_sampling(1)
        .flight(0);
    let (err, pm) = failing_run(cfg);
    assert!(matches!(err, MachineError::HandlerPanicked { .. }));
    // No rings → no timeline, but the cause survives independently.
    assert!(pm.timeline.is_empty());
    let cause = pm.cause.as_ref().expect("cause is ring-independent");
    assert_eq!(cause.rank, PANIC_RANK);
    assert_eq!(cause.epoch, 1);
}

#[test]
fn postmortem_written_to_configured_directory() {
    let dir = std::env::temp_dir().join(format!("dgp-postmortem-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = MachineConfig::new(RANKS)
        .coalescing(1)
        .trace_sampling(1)
        .postmortem(&dir);
    let (_, pm) = failing_run(cfg);
    let dumps: Vec<_> = std::fs::read_dir(&dir)
        .expect("post-mortem directory created")
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with("postmortem-") && n.ends_with(".txt"))
        .collect();
    assert_eq!(dumps.len(), 1, "exactly one dump per failed run: {dumps:?}");
    let text = std::fs::read_to_string(dir.join(&dumps[0])).unwrap();
    assert_eq!(text, pm.render(), "dump is the rendered post-mortem");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn successful_runs_write_no_postmortem() {
    let hits = Arc::new(AtomicU64::new(0));
    let h2 = hits.clone();
    let dir = std::env::temp_dir().join(format!("dgp-postmortem-clean-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = MachineConfig::new(2).postmortem(&dir);
    Machine::run(cfg, move |ctx| {
        let hits = h2.clone();
        let mt = ctx.register(move |_ctx, _n: u64| {
            hits.fetch_add(1, SeqCst);
        });
        ctx.epoch(|ctx| {
            mt.send(ctx, (ctx.rank() + 1) % ctx.num_ranks(), 1);
        });
    });
    assert_eq!(hits.load(SeqCst), 2);
    assert!(
        !dir.exists(),
        "a clean run must not create the post-mortem directory"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
