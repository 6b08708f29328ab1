//! Same-host shared-memory ring backend (INTERNALS §12.3).
//!
//! One bounded ring per destination rank. Senders (rank threads, via the
//! delivery seam) push under the ring's mutex, blocking with a condvar
//! when the ring is full — real bounded backpressure, counted in
//! `transport_backpressure_stalls`. A shuttle thread per rank drains its
//! ring in batches and forwards each packet — envelope or ack — into the
//! rank's inbox through [`Shared::deliver`], which never unwinds
//! (shuttles are not rank threads and must never unwind into the
//! scheduler).
//!
//! The backend is lossless and per-lane ordered — a packet accepted by
//! `send` is delivered unless the whole machine is torn down — so the
//! reliability layer is *not* auto-installed above it
//! ([`Transport::lossy`](super::Transport::lossy) stays false). Within
//! one process "shared memory" is ordinary memory; what this backend
//! exercises relative to inproc is the bounded-queue handoff, the stall
//! accounting, and a second thread crossing per message — the same
//! shape a cross-process mmap ring would have.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Condvar, Mutex};

use crate::machine::{Packet, RankId, Shared};
use crate::stats::MachineStats;

use super::{ShmConfig, Transport, TransportError};

struct Ring {
    q: Mutex<VecDeque<Packet>>,
    not_full: Condvar,
    not_empty: Condvar,
}

/// The state shuttle threads share with the senders.
struct Inner {
    cfg: ShmConfig,
    rings: Vec<Ring>,
    shutdown: AtomicBool,
}

/// See module docs.
pub(crate) struct ShmTransport {
    inner: Arc<Inner>,
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl ShmTransport {
    pub(crate) fn new(cfg: ShmConfig, nranks: usize) -> Self {
        ShmTransport {
            inner: Arc::new(Inner {
                cfg,
                rings: (0..nranks)
                    .map(|_| Ring {
                        q: Mutex::new(VecDeque::new()),
                        not_full: Condvar::new(),
                        not_empty: Condvar::new(),
                    })
                    .collect(),
                shutdown: AtomicBool::new(false),
            }),
            threads: Mutex::new(Vec::new()),
        }
    }
}

impl Inner {
    /// Push onto `dest`'s ring, blocking (in shutdown-aware slices) while
    /// it is full. Returns without pushing once the machine is going
    /// down — the send becomes a no-op rather than a wedge.
    fn push(&self, shared: &Shared, dest: RankId, pkt: Packet) {
        let ring = &self.rings[dest];
        let mut q = ring.q.lock();
        if q.len() >= self.cfg.ring_capacity {
            MachineStats::bump(&shared.stats.transport_backpressure_stalls, 1);
            while q.len() >= self.cfg.ring_capacity {
                if self.shutdown.load(SeqCst) || shared.wire_should_exit() {
                    return;
                }
                ring.not_full.wait_for(&mut q, Duration::from_millis(10));
            }
        }
        q.push_back(pkt);
        MachineStats::bump(&shared.stats.transport_frames_sent, 1);
        drop(q);
        ring.not_empty.notify_one();
    }
}

impl Transport for ShmTransport {
    fn name(&self) -> &'static str {
        "shm"
    }

    fn start(&self, shared: &Arc<Shared>) -> Result<(), TransportError> {
        let mut threads = self.threads.lock();
        for rank in 0..self.inner.rings.len() {
            let shared = shared.clone();
            let inner = self.inner.clone();
            let handle = std::thread::Builder::new()
                .name(format!("shm-shuttle-{rank}"))
                .spawn(move || shuttle(&inner, &shared, rank))
                .map_err(|e| TransportError {
                    rank,
                    peer: rank,
                    detail: format!("failed to spawn shm shuttle thread: {e}"),
                })?;
            threads.push(handle);
        }
        Ok(())
    }

    fn send(&self, shared: &Shared, dest: RankId, pkt: Packet) {
        self.inner.push(shared, dest, pkt);
    }

    fn shutdown(&self) {
        self.inner.shutdown.store(true, SeqCst);
        for ring in &self.inner.rings {
            ring.not_empty.notify_all();
            ring.not_full.notify_all();
        }
        let threads = std::mem::take(&mut *self.threads.lock());
        for t in threads {
            let _ = t.join();
        }
    }
}

/// Drain `rank`'s ring into its inbox until shutdown.
fn shuttle(inner: &Inner, shared: &Shared, rank: RankId) {
    let ring = &inner.rings[rank];
    let mut batch = Vec::new();
    loop {
        {
            let mut q = ring.q.lock();
            while q.is_empty() {
                if inner.shutdown.load(SeqCst) {
                    return;
                }
                ring.not_empty.wait_for(&mut q, Duration::from_millis(10));
            }
            batch.extend(q.drain(..));
        }
        ring.not_full.notify_all();
        let n = batch.len() as u64;
        for pkt in batch.drain(..) {
            shared.deliver(rank, pkt);
        }
        MachineStats::bump(&shared.stats.transport_frames_received, n);
    }
}
