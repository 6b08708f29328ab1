//! A rank's inbox: one queue per source rank, so two ranks never write
//! one lock word, and the wait the rank's handler workers block on.
//!
//! Every sender of a rank pushes into its own lane (`origin % lanes`), and
//! a draining thread takes a lane's whole queue at once by swapping in the
//! empty one it carries, so one lock covers a lane's backlog and the queue
//! storage circulates between lanes and drainers instead of being freed
//! (INTERNALS §9.5). Per-source order is kept: a lane is FIFO and is taken
//! whole. Order *across* sources is the drainer's fixed lane order.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::SeqCst};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

use super::Packet;

/// Most lanes an inbox has: one per source rank up to this cap, shared by
/// `origin % LANES` beyond it, so an inbox costs a bounded number of
/// lines however large the machine; threaded machines with more ranks
/// than this time-share a few cores anyway.
pub(crate) const LANES: usize = 16;

/// One source's queue into an inbox. Aligned to 128 bytes (a line and its
/// prefetch partner) so the lock word one source writes never shares a
/// line with another source's.
#[repr(align(128))]
pub(super) struct Lane {
    queue: Mutex<Vec<Packet>>,
    /// Whether `queue` holds a packet: stored under the lock, read without
    /// it, so `has_mail` is a load per lane and no delivery does a
    /// read-modify-write on a line another source writes.
    queued: AtomicBool,
}

impl Lane {
    fn lock(&self) -> MutexGuard<'_, Vec<Packet>> {
        // No user code runs under a lane lock; a poisoned one can only
        // mean a failed allocation elsewhere, and the queue is intact.
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A rank's lanes and the wait its handler workers block on. Aligned like
/// the lanes: the lane pointer and the worker count every push reads sit
/// on a line that only a sleeping worker writes, not on the line of the
/// counters the rank's own threads bump.
#[repr(align(128))]
pub(crate) struct Inbox {
    /// `lanes` lanes, visited by drains in index order.
    lanes: Box<[Lane]>,
    /// Handler workers blocked in [`Inbox::wait_for_mail`]; raised under
    /// `sleep`, read by every push (see `wait_for_mail` for why no wake
    /// is lost).
    sleepers: AtomicUsize,
    sleep: Mutex<()>,
    wake: Condvar,
}

impl Inbox {
    /// An inbox of `lanes` lanes (at least one). A threaded machine wants
    /// `min(ranks, LANES)`; under the simulator one thread delivers at a
    /// time, so one lane keeps the delivery order as the handling order
    /// and the thousand-rank machines at one line per rank.
    pub(super) fn new(lanes: usize) -> Self {
        Inbox {
            lanes: (0..lanes.max(1))
                .map(|_| Lane {
                    queue: Mutex::new(Vec::new()),
                    queued: AtomicBool::new(false),
                })
                .collect(),
            sleepers: AtomicUsize::new(0),
            sleep: Mutex::new(()),
            wake: Condvar::new(),
        }
    }

    /// The lanes drains visit, in their fixed order.
    pub(super) fn lanes(&self) -> &[Lane] {
        &self.lanes
    }

    /// Append `pkt` to its origin's lane, then wake one blocked handler
    /// worker if any is counted. With no worker asleep (always, at one
    /// thread per rank) this is the lane lock and one load.
    pub(super) fn push(&self, pkt: Packet) {
        let (origin, n) = (pkt.origin(), self.lanes.len());
        let lane = &self.lanes[if origin < n { origin } else { origin % n }];
        {
            let mut q = lane.lock();
            q.push(pkt);
            lane.queued.store(true, SeqCst);
        }
        if self.sleepers.load(SeqCst) > 0 {
            drop(self.sleep.lock().unwrap_or_else(PoisonError::into_inner));
            self.wake.notify_one();
        }
    }

    /// Swap lane `lane`'s queue with `batch` (empty) when the lane holds
    /// packets: one lock for the lane's whole backlog, and the caller's
    /// storage becomes the lane's next queue. Returns whether it took any.
    pub(super) fn take(&self, lane: usize, batch: &mut Vec<Packet>) -> bool {
        debug_assert!(batch.is_empty());
        let lane = &self.lanes[lane];
        if !lane.queued.load(SeqCst) {
            return false;
        }
        let mut q = lane.lock();
        if q.is_empty() {
            // Another thread of the rank took it first.
            return false;
        }
        std::mem::swap(&mut *q, batch);
        lane.queued.store(false, SeqCst);
        true
    }

    /// Whether any lane holds a packet (an envelope or an ack): the waits'
    /// re-check after announcing themselves.
    pub(crate) fn has_mail(&self) -> bool {
        self.lanes.iter().any(|l| l.queued.load(SeqCst))
    }

    /// Block a handler worker, untimed, until mail is queued or `stop`
    /// holds; returns whether there is mail.
    ///
    /// **No lost wake.** The worker counts itself in `sleepers` (SeqCst)
    /// under `sleep`, *then* re-checks the lanes (SeqCst loads) and `stop`,
    /// and waits only if all are quiet. A push stores its lane's `queued`
    /// (SeqCst) *then* loads `sleepers` (SeqCst): of the two store–load
    /// pairs at least one side sees the other's write. Either the worker
    /// sees the packet and does not wait, or the push sees the count, and
    /// its `sleep` lock cannot be taken until the worker is inside the
    /// wait (which releases it atomically), so its notify finds the worker
    /// there. A push that finds nobody counted is one load. `stop` is
    /// made true (SeqCst) before [`Inbox::wake_workers`], which loads
    /// `sleepers` and takes the `sleep` lock the same way.
    pub(super) fn wait_for_mail(&self, stop: impl Fn() -> bool) -> bool {
        if self.has_mail() {
            return true;
        }
        let mut guard = self.sleep.lock().unwrap_or_else(PoisonError::into_inner);
        self.sleepers.fetch_add(1, SeqCst);
        while !self.has_mail() && !stop() {
            guard = self
                .wake
                .wait(guard)
                .unwrap_or_else(PoisonError::into_inner);
        }
        self.sleepers.fetch_sub(1, SeqCst);
        drop(guard);
        self.has_mail()
    }

    /// Wake every worker in [`Inbox::wait_for_mail`] to re-check `stop`:
    /// one load when none is counted (the push's pairing, above).
    pub(super) fn wake_workers(&self) {
        if self.sleepers.load(SeqCst) == 0 {
            return;
        }
        drop(self.sleep.lock().unwrap_or_else(PoisonError::into_inner));
        self.wake.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{Ack, RankId};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    fn ack(origin: RankId, seq: u64) -> Packet {
        Packet::Ack(Ack {
            from: 0,
            to: origin,
            seq,
        })
    }

    fn seq_of(p: &Packet) -> (RankId, u64) {
        match p {
            Packet::Ack(a) => (a.to, a.seq),
            Packet::Data { .. } => unreachable!("the tests push acks"),
        }
    }

    #[test]
    fn a_take_returns_one_lane_in_order_and_recycles_the_storage() {
        let inbox = Inbox::new(3);
        for seq in 1..=3 {
            inbox.push(ack(2, seq));
            inbox.push(ack(0, seq));
        }
        assert!(inbox.has_mail());
        let mut batch = Vec::with_capacity(8);
        let spare = batch.as_ptr();
        assert!(!inbox.take(1, &mut batch), "lane 1 got nothing");
        assert!(inbox.take(0, &mut batch));
        let got: Vec<_> = batch.drain(..).map(|p| seq_of(&p)).collect();
        assert_eq!(got, [(0, 1), (0, 2), (0, 3)]);
        assert!(inbox.has_mail(), "lane 2 is still queued");
        assert!(inbox.take(2, &mut batch));
        assert_eq!(batch.len(), 3);
        batch.clear();
        assert!(!inbox.has_mail());
        // The storage handed in went to lane 0, and a push reuses it.
        inbox.push(ack(0, 4));
        assert!(inbox.take(0, &mut batch));
        assert_eq!(batch.as_ptr(), spare);
    }

    #[test]
    fn sources_beyond_the_cap_share_lanes() {
        let inbox = Inbox::new(LANES);
        inbox.push(ack(LANES + 1, 7));
        let mut batch = Vec::new();
        assert!(inbox.take(1, &mut batch));
        assert_eq!(seq_of(&batch[0]), (LANES + 1, 7));
    }

    #[test]
    fn a_push_wakes_a_worker_about_to_block() {
        // 10 000 rendezvous between a pusher and a worker that has just
        // found the inbox empty: a lost wake would hang the worker.
        let inbox = Arc::new(Inbox::new(2));
        let rounds = 10_000;
        let worker = {
            let inbox = inbox.clone();
            std::thread::spawn(move || {
                let mut batch = Vec::new();
                for _ in 0..rounds {
                    while !inbox.take(1, &mut batch) {
                        inbox.wait_for_mail(|| false);
                    }
                    batch.clear();
                }
            })
        };
        for seq in 0..rounds {
            while inbox.has_mail() {
                std::thread::yield_now();
            }
            inbox.push(ack(1, seq));
        }
        worker.join().unwrap();
    }

    #[test]
    fn wake_workers_releases_a_worker_asleep_on_an_empty_inbox() {
        let inbox = Arc::new(Inbox::new(1));
        let stop = Arc::new(AtomicBool::new(false));
        let worker = {
            let (inbox, stop) = (inbox.clone(), stop.clone());
            std::thread::spawn(move || inbox.wait_for_mail(|| stop.load(SeqCst)))
        };
        while inbox.sleepers.load(SeqCst) == 0 {
            std::thread::yield_now();
        }
        let t0 = Instant::now();
        stop.store(true, SeqCst);
        inbox.wake_workers();
        assert!(!worker.join().unwrap(), "woken with no mail");
        assert!(t0.elapsed() < Duration::from_secs(5));
    }
}
