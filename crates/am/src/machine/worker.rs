//! The handler worker thread's loop (`threads_per_rank > 1`).

use std::panic::AssertUnwindSafe;
use std::sync::atomic::Ordering::SeqCst;
use std::sync::Arc;

use super::{AmCtx, RankId, Shared};
use crate::error::{panic_message, Abort, MachineError};

pub(super) fn worker_loop(shared: Arc<Shared>, rank: RankId, thread: usize) {
    let ctx = AmCtx::new(shared.clone(), rank, thread);
    let me = &shared.ranks[rank];
    loop {
        if shared.poisoned.load(SeqCst) {
            break;
        }
        let step = std::panic::catch_unwind(AssertUnwindSafe(|| {
            // Woken by a push, or by shutdown or poison (`Shared::shut_down`).
            if !me.inbox.wait_for_mail(|| shared.shutdown.load(SeqCst)) {
                return false;
            }
            ctx.drain_inbox();
            // Ship whatever the handlers produced before blocking again,
            // then wake the rank's main thread: publishing the batch
            // withdrew the rank's idle declaration, and only the main
            // thread declares it again.
            ctx.flush_own_buffers();
            me.bell.ring();
            true
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
