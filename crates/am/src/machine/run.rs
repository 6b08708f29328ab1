//! [`Machine`]: spawn the rank and worker threads (or the simulator's
//! cooperative ranks), run the SPMD program, join, and turn a recorded
//! failure into a value.

use std::any::Any;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::Ordering::SeqCst;
use std::sync::Arc;

use super::postmortem::{assemble_postmortem, write_postmortem};
use super::worker::worker_loop;
use super::{AmCtx, Shared};
use crate::config::MachineConfig;
use crate::error::{panic_message, Abort, MachineError};
use crate::sim::{SimNet, SimPlan, SimReport};
use crate::trace::PostMortem;

/// Entry point: run an SPMD program on a simulated machine.
pub struct Machine;

/// A recorded failure plus, when the primary cause was a panic, the
/// original payload so [`Machine::run`] can re-raise it verbatim, plus
/// the automatic post-mortem assembled from the frozen event rings and
/// (sim mode only) the simulation report.
type RunFailure = (
    MachineError,
    Option<Box<dyn Any + Send>>,
    Box<PostMortem>,
    // Boxed: the report embeds the recorded network-event trace, and an
    // unboxed copy would bloat every `Result` on the run path
    // (clippy::result_large_err).
    Option<Box<SimReport>>,
);

/// A successful simulated run: per-rank results plus the simulation
/// report (virtual time, event counts, network-event trace, and the
/// determinism digest over the flight-recorder timeline).
#[derive(Debug)]
pub struct SimRun<R> {
    /// Each rank's result, indexed by rank.
    pub results: Vec<R>,
    /// The run's [`SimReport`].
    pub report: SimReport,
}

/// A failed simulated run: the machine error, the automatic post-mortem
/// (frozen flight timeline, unacked lanes, causal chain), and the
/// simulation report up to the failure — together enough to replay and
/// shrink the offending schedule.
#[derive(Debug)]
pub struct SimError {
    /// The first recorded failure.
    pub error: MachineError,
    /// The automatic post-mortem assembled from the frozen flight rings.
    pub postmortem: Box<PostMortem>,
    /// Simulation state at the failure (virtual time, counters, trace).
    pub report: SimReport,
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} (at virtual t={}ns after {} deliveries)",
            self.error, self.report.virtual_time_ns, self.report.deliveries
        )
    }
}

impl std::error::Error for SimError {}

impl Machine {
    /// Spawn `cfg.ranks` main threads (plus workers) and run `f` on each;
    /// returns each rank's result, indexed by rank. Panics in `f` or in any
    /// handler propagate (with their original payload); prefer
    /// [`Machine::try_run`] to receive failures as values.
    pub fn run<F, R>(cfg: MachineConfig, f: F) -> Vec<R>
    where
        F: Fn(&AmCtx) -> R + Send + Sync,
        R: Send,
    {
        match Self::run_inner(cfg, None, f) {
            Ok((out, _)) => out,
            // Re-raise the original panic when there is one, so panic
            // messages (and #[should_panic] expectations) survive verbatim.
            Err((err, Some(payload), _, _)) => {
                let _ = err;
                std::panic::resume_unwind(payload)
            }
            Err((err, None, _, _)) => panic!("{err}"),
        }
    }

    /// [`Machine::run`] with structured failure propagation: a panic on
    /// any rank or in any handler — or a hung epoch, when
    /// [`MachineConfig::epoch_deadline`] is armed — poisons the machine,
    /// unwinds every surviving rank at its next collective, epoch exit, or
    /// termination check, and is returned here as the *first* recorded
    /// [`MachineError`]. No rank hangs and the process does not abort.
    pub fn try_run<F, R>(cfg: MachineConfig, f: F) -> Result<Vec<R>, MachineError>
    where
        F: Fn(&AmCtx) -> R + Send + Sync,
        R: Send,
    {
        Self::run_inner(cfg, None, f)
            .map(|(out, _)| out)
            .map_err(|(err, _, _, _)| err)
    }

    /// [`Machine::try_run`] plus the automatic [`PostMortem`]: the frozen
    /// flight-recorder rings merged into one timeline, the unacked
    /// reliability lanes, and the causal chain into the failing handler.
    /// The post-mortem is always assembled (with an empty timeline when
    /// the flight recorder was disabled via
    /// [`MachineConfig::flight`](crate::MachineConfig::flight)`(0)`).
    pub fn try_run_diagnosed<F, R>(
        cfg: MachineConfig,
        f: F,
    ) -> Result<Vec<R>, (MachineError, Box<PostMortem>)>
    where
        F: Fn(&AmCtx) -> R + Send + Sync,
        R: Send,
    {
        Self::run_inner(cfg, None, f)
            .map(|(out, _)| out)
            .map_err(|(err, _, pm, _)| (err, pm))
    }

    /// Run the SPMD program on the discrete-event simulator instead of
    /// free-running threads: cross-rank deliveries go through `plan`'s
    /// seeded logical-time event queue (modeled latencies, partitions,
    /// stragglers, stalls) and exactly one rank runs at a time, so the
    /// entire run — results, statistics, flight-recorder timeline — is a
    /// deterministic function of `(cfg, plan, program)`. See
    /// [`crate::sim`] for the model and [`AmCtx::sim_invariant`] for
    /// mid-run state checking.
    ///
    /// Requires `threads_per_rank == 1` (rank bodies already serve
    /// handlers when idle; worker threads would reintroduce real
    /// concurrency and destroy determinism).
    pub fn run_sim<F, R>(
        cfg: MachineConfig,
        plan: SimPlan,
        f: F,
    ) -> Result<SimRun<R>, Box<SimError>>
    where
        F: Fn(&AmCtx) -> R + Send + Sync,
        R: Send,
    {
        assert_eq!(
            cfg.threads_per_rank, 1,
            "the simulator requires threads_per_rank == 1 (deterministic \
             single-token scheduling)"
        );
        plan.validate(cfg.ranks, cfg.faults.is_some());
        match Self::run_inner(cfg, Some(plan), f) {
            Ok((results, report)) => Ok(SimRun {
                results,
                report: report.unwrap_or_default(),
            }),
            Err((error, _, postmortem, report)) => Err(Box::new(SimError {
                error,
                postmortem,
                report: report.map(|b| *b).unwrap_or_default(),
            })),
        }
    }

    fn run_inner<F, R>(
        cfg: MachineConfig,
        sim_plan: Option<SimPlan>,
        f: F,
    ) -> Result<(Vec<R>, Option<SimReport>), RunFailure>
    where
        F: Fn(&AmCtx) -> R + Send + Sync,
        R: Send,
    {
        cfg.validate();
        let net = sim_plan.map(|plan| SimNet::new(plan, cfg.ranks));
        // Simulated rank threads get small stacks: at 4096 ranks the
        // default 8 MiB would reserve 32 GiB of address space.
        let sim_stack = net.as_ref().map(|_| crate::sim::STACK_SIZE);
        // Wire backend: built (and, for TCP, bound) before the Shared
        // exists so every dial has a live acceptor; sim mode always runs
        // wireless — its event queue is the transport being modeled.
        let wire = if net.is_none() {
            match crate::transport::build(&cfg.transport, cfg.ranks) {
                Ok(w) => w,
                Err(e) => {
                    let err = e.into_machine_error();
                    let pm = Box::new(PostMortem::assemble(
                        err.to_string(),
                        None,
                        0,
                        0,
                        Vec::new(),
                        Vec::new(),
                    ));
                    return Err((err, None, pm, None));
                }
            }
        } else {
            None
        };
        let shared = Arc::new(Shared::new(cfg.clone(), net, wire));
        if let Some(wire) = shared.wire.clone() {
            if let Err(e) = wire.start(&shared) {
                wire.shutdown();
                let err = e.into_machine_error();
                let pm = assemble_postmortem(&shared, &err);
                write_postmortem(&shared, &pm);
                return Err((err, None, pm, None));
            }
        }
        let nranks = cfg.ranks;
        let workers_per_rank = cfg.threads_per_rank - 1;
        let mut results: Vec<Option<R>> = (0..nranks).map(|_| None).collect();

        std::thread::scope(|s| {
            // Handler worker threads.
            for rank in 0..nranks {
                for w in 0..workers_per_rank {
                    let shared = shared.clone();
                    s.spawn(move || worker_loop(shared, rank, 1 + w));
                }
            }
            // Main rank threads.
            let mut handles = Vec::with_capacity(nranks);
            for rank in 0..nranks {
                let shared = shared.clone();
                let f = &f;
                let body = move || {
                    let ctx = AmCtx::new(shared.clone(), rank, 0);
                    // Sim mode: enter the cooperative token discipline —
                    // park until the scheduler runs this rank.
                    if let Some(sim) = &shared.sim {
                        sim.attach(rank);
                    }
                    let out = match std::panic::catch_unwind(AssertUnwindSafe(|| f(&ctx))) {
                        Ok(r) => {
                            // All epochs done everywhere before tearing
                            // down. On a poisoned machine the barrier
                            // aborts; the catch below discards the result.
                            let teardown =
                                std::panic::catch_unwind(AssertUnwindSafe(|| ctx.barrier()));
                            if teardown.is_err() {
                                return None;
                            }
                            debug_assert!(
                                shared.reliability.is_some()
                                    || shared.wire.is_some()
                                    || shared.ranks[rank].rx.is_empty(),
                                "rank {rank} has unhandled messages after its last epoch \
                                 — termination detection fired early"
                            );
                            shared.shutdown.store(true, SeqCst);
                            Some(r)
                        }
                        Err(payload) => {
                            // Secondary aborts (Abort sentinel) carry no
                            // information of their own; the primary failure
                            // was recorded by whoever poisoned the machine.
                            if !payload.is::<Abort>() {
                                shared.fail(
                                    MachineError::RankPanicked {
                                        rank,
                                        message: panic_message(payload.as_ref()),
                                    },
                                    Some(payload),
                                );
                            } else {
                                // A lone Abort with no recorded failure can
                                // only mean a lost race; make sure teardown
                                // still proceeds.
                                shared.poison();
                            }
                            None
                        }
                    };
                    // Leave the token discipline (mark Done and hand the
                    // token on; immediate no-op on a poisoned machine).
                    if let Some(sim) = &shared.sim {
                        sim.finish(&shared, rank);
                    }
                    out
                };
                let handle = match sim_stack {
                    Some(size) => std::thread::Builder::new()
                        .stack_size(size)
                        .name(format!("sim-rank{rank}"))
                        .spawn_scoped(s, body)
                        .expect("failed to spawn simulated rank thread"),
                    None => s.spawn(body),
                };
                handles.push(handle);
            }
            for (rank, h) in handles.into_iter().enumerate() {
                if let Ok(r) = h.join() {
                    results[rank] = r;
                }
            }
            // Failure paths skip the per-rank shutdown stores; make sure
            // the workers wake up and exit before the scope joins them.
            shared.shutdown.store(true, SeqCst);
        });
        // Every rank thread has exited; stop and join the wire backend's
        // threads (they hold their own Arc<Shared> clones, so this also
        // breaks the only reference path that could outlive the run).
        if let Some(wire) = &shared.wire {
            wire.shutdown();
        }
        // Truncated profiles must not be silently misleading: one line,
        // once per run, only when it actually happened. (The always-on
        // rings overwrite their oldest events by design.)
        if shared.cfg.profile {
            let dropped = shared.recorder.dropped();
            if dropped > 0 {
                eprintln!(
                    "dgp-am: event recorder dropped {dropped} records (trace is truncated; \
                     raise MachineConfig::profile_capacity to keep all of them)"
                );
            }
        }
        // Every thread has been joined: the rings are quiescent, so the
        // report (and its determinism digest) is complete and stable.
        let report = shared.sim.as_ref().map(|sim| sim.report(&shared));
        if let Some(err) = shared.failure.lock().take() {
            let payload = shared.failure_payload.lock().take();
            let pm = assemble_postmortem(&shared, &err);
            write_postmortem(&shared, &pm);
            return Err((err, payload, pm, report.map(Box::new)));
        }
        let mut out = Vec::with_capacity(nranks);
        for (rank, r) in results.into_iter().enumerate() {
            match r {
                Some(r) => out.push(r),
                None => {
                    let err = MachineError::Poisoned {
                        message: format!("rank {rank} produced no result and no error"),
                    };
                    let pm = assemble_postmortem(&shared, &err);
                    write_postmortem(&shared, &pm);
                    return Err((err, None, pm, report.map(Box::new)));
                }
            }
        }
        Ok((out, report))
    }
}
