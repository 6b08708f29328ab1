//! The handler worker thread's loop (`threads_per_rank > 1`).

use std::panic::AssertUnwindSafe;
use std::sync::atomic::Ordering::SeqCst;
use std::sync::Arc;

use super::{AmCtx, RankId, Shared};
use crate::error::{panic_message, Abort, MachineError};

pub(super) fn worker_loop(shared: Arc<Shared>, rank: RankId, thread: usize) {
    let ctx = AmCtx::new(shared.clone(), rank, thread);
    let rx = shared.ranks[rank].rx.clone();
    loop {
        if shared.poisoned.load(SeqCst) {
            break;
        }
        let step = std::panic::catch_unwind(AssertUnwindSafe(|| {
            match rx.recv_timeout(crate::config::RECV_TIMEOUT) {
                Ok(pkt) => {
                    ctx.drain_inbox(Some(pkt));
                    // Ship whatever the handlers produced before blocking
                    // again, then wake the rank's main thread: publishing
                    // the batch withdrew the rank's idle declaration, and
                    // only the main thread declares it again.
                    ctx.flush_own_buffers();
                    shared.ranks[rank].bell.ring();
                    true
                }
                Err(_) => {
                    ctx.flush_own_buffers();
                    ctx.pump_transport();
                    !(shared.shutdown.load(SeqCst) && rx.is_empty())
                }
            }
        }));
        match step {
            Ok(true) => continue,
            Ok(false) => break,
            Err(payload) => {
                // drain_inbox records handler panics itself and re-raises
                // the Abort sentinel; anything else failing here (a flush
                // path) is a worker failure in its own right.
                if !payload.is::<Abort>() {
                    shared.fail(
                        MachineError::RankPanicked {
                            rank,
                            message: panic_message(payload.as_ref()),
                        },
                        Some(payload),
                    );
                }
                break;
            }
        }
    }
}
