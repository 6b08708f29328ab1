//! Length-prefixed TCP backend with connection management
//! (INTERNALS §12.4).
//!
//! **Topology.** One listener per rank (bound on loopback before any
//! rank thread starts) and one connection per *directed* lane: rank `i`
//! dials rank `j`'s listener for lane `i → j` and owns that connection's
//! writer; acks for packets received on lane `j → i` travel on `i → j`
//! (each direction uses its own connection). Every lane has:
//!
//! * a **bounded outbound queue** of encoded frames — senders block in
//!   shutdown-aware slices when it fills (`transport_backpressure_stalls`),
//! * a **writer thread** running the dial → handshake → drain loop and
//!   the reconnect state machine,
//! * on the accepting side, a **reader thread** per accepted connection
//!   (readers die with their connection; the acceptor thread lives for
//!   the run).
//!
//! **Reconnect state machine.** A failed dial, handshake, or write
//! closes the connection and re-dials after a capped exponential
//! backoff with deterministic jitter ([`super::jittered`]), recording a
//! `transport_reconnects` tick and a `SpanKind::Transport` "reconnect"
//! event per attempt. Frames queued or in flight across the gap are
//! *lost* — that is the contract ([`Transport::lossy`]
//! (super::Transport::lossy) is true) and the reliability layer above
//! masks the hole with retransmit/dedup, exactly as it masks injected
//! drops. After `max_reconnects` *consecutive* failures (successes
//! reset the count) the lane is declared dead and the machine fails
//! with a structured [`MachineError::Transport`] naming the lane —
//! graceful degradation, never a hang. A handshake *rejection* (version
//! mismatch, bad lane) is permanent by definition and fails the lane
//! immediately, bypassing the retry budget.
//!
//! **Adversarial input** (rogue connections on our listener) can at
//! worst cost a connection: bad magic and version mismatches are
//! rejected at the handshake (counted in
//! `transport_handshake_failures`); oversized length prefixes,
//! truncated bodies, and unknown frame kinds close the offending
//! connection (counted in `transport_frame_errors`). None of it can
//! fail or hang the machine.
//!
//! [`MachineError::Transport`]: crate::MachineError::Transport

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Condvar, Mutex};

use crate::machine::{Packet, RankId, Shared};
use crate::obs::{SpanKind, SpanRecord};
use crate::stats::MachineStats;

use super::frame::{
    self, PayloadTable, WireFrame, PROTOCOL_VERSION, STATUS_BAD_LANE, STATUS_OK,
    STATUS_VERSION_MISMATCH,
};
use super::{TcpConfig, Transport, TransportError};

/// Encoded frames buffered per directed lane before the sender blocks
/// (bounded backpressure).
const QUEUE_CAPACITY: usize = 4096;
/// Dial timeout per connection attempt (also bounds the handshake reply
/// wait).
const CONNECT_TIMEOUT: Duration = Duration::from_secs(1);
/// Socket read timeout — the poll quantum at which reader threads
/// re-check shutdown.
const READ_TIMEOUT: Duration = Duration::from_millis(50);
/// Socket write timeout: a peer that stops draining its receive buffer
/// fails the write (and triggers reconnection) instead of wedging the
/// writer thread.
const WRITE_TIMEOUT: Duration = Duration::from_secs(1);
/// First reconnect delay (doubles per consecutive failure).
const RECONNECT_BASE: Duration = Duration::from_millis(5);
/// Upper bound on the growing reconnect delay.
const RECONNECT_CAP: Duration = Duration::from_millis(200);
/// Fraction of each reconnect delay randomized away — the same
/// decorrelation argument as `FaultPlan::backoff_jitter` (deterministic
/// hash of lane + attempt, no RNG state).
const RECONNECT_JITTER: f64 = 0.25;

/// How long a dial/handshake failure is considered transient. Fatal
/// outcomes (handshake rejections) skip the reconnect budget entirely.
enum DialError {
    Transient(String),
    Fatal(String),
}

struct LaneQueue {
    frames: std::collections::VecDeque<Vec<u8>>,
    /// Set when the lane is dead (machine failing or shutting down):
    /// senders drop instead of blocking.
    closed: bool,
}

/// One directed lane's sender state (dialer side).
struct Lane {
    q: Mutex<LaneQueue>,
    not_full: Condvar,
    not_empty: Condvar,
}

impl Lane {
    /// Enqueue an encoded frame, blocking (shutdown-aware) on a full
    /// queue. Frames offered to a closed lane are dropped — the
    /// reliability layer owns recovery.
    fn enqueue(&self, inner: &Inner, shared: &Shared, frame: Vec<u8>) {
        let mut q = self.q.lock();
        if q.frames.len() >= QUEUE_CAPACITY && !q.closed {
            MachineStats::bump(&shared.stats.transport_backpressure_stalls, 1);
            while q.frames.len() >= QUEUE_CAPACITY && !q.closed {
                if inner.shutdown.load(SeqCst) || shared.wire_should_exit() {
                    return;
                }
                self.not_full.wait_for(&mut q, Duration::from_millis(10));
            }
        }
        if q.closed {
            return;
        }
        MachineStats::bump(&shared.stats.transport_frames_sent, 1);
        MachineStats::bump(&shared.stats.transport_bytes_sent, frame.len() as u64);
        q.frames.push_back(frame);
        drop(q);
        self.not_empty.notify_one();
    }

    /// Pop the next frame, waiting up to `timeout`.
    fn pop(&self, timeout: Duration) -> Option<Vec<u8>> {
        let mut q = self.q.lock();
        if q.frames.is_empty() {
            self.not_empty.wait_for(&mut q, timeout);
        }
        let frame = q.frames.pop_front();
        if frame.is_some() {
            drop(q);
            self.not_full.notify_one();
        }
        frame
    }

    fn close(&self) {
        self.q.lock().closed = true;
        self.not_full.notify_all();
        self.not_empty.notify_all();
    }
}

/// State shared by senders, writer threads, acceptors, and readers.
struct Inner {
    cfg: TcpConfig,
    nranks: usize,
    addrs: Vec<SocketAddr>,
    /// All directed lanes, indexed `from * nranks + to` (self lanes are
    /// present but never used — the dispatcher short-circuits
    /// self-sends).
    lanes: Vec<Lane>,
    payloads: PayloadTable,
    shutdown: AtomicBool,
}

impl Inner {
    fn lane(&self, from: RankId, to: RankId) -> &Lane {
        &self.lanes[from * self.nranks + to]
    }

    fn done(&self, shared: &Shared) -> bool {
        self.shutdown.load(SeqCst) || shared.wire_should_exit()
    }
}

/// See module docs.
pub(crate) struct TcpTransport {
    inner: Arc<Inner>,
    /// Listeners parked between `bind` and `start` (taken by acceptor
    /// threads).
    listeners: Mutex<Vec<Option<TcpListener>>>,
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
    /// Reader threads are spawned per accepted connection; acceptors
    /// park their handles here for shutdown to join.
    readers: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
}

impl TcpTransport {
    /// Bind one loopback listener per rank. Binding happens here — in
    /// `build`, before the machine's threads exist — so a bind failure
    /// is a structured startup error and every later dial has a live
    /// acceptor to reach.
    pub(crate) fn bind(cfg: TcpConfig, nranks: usize) -> Result<Self, TransportError> {
        let mut listeners = Vec::with_capacity(nranks);
        let mut addrs = Vec::with_capacity(nranks);
        for rank in 0..nranks {
            let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| TransportError {
                rank,
                peer: rank,
                detail: format!("failed to bind listener: {e}"),
            })?;
            listener.set_nonblocking(true).map_err(|e| TransportError {
                rank,
                peer: rank,
                detail: format!("failed to set listener nonblocking: {e}"),
            })?;
            addrs.push(listener.local_addr().map_err(|e| TransportError {
                rank,
                peer: rank,
                detail: format!("listener has no local address: {e}"),
            })?);
            listeners.push(Some(listener));
        }
        let lanes = (0..nranks * nranks)
            .map(|_| Lane {
                q: Mutex::new(LaneQueue {
                    frames: std::collections::VecDeque::new(),
                    closed: false,
                }),
                not_full: Condvar::new(),
                not_empty: Condvar::new(),
            })
            .collect();
        Ok(TcpTransport {
            inner: Arc::new(Inner {
                cfg,
                nranks,
                addrs,
                lanes,
                payloads: PayloadTable::default(),
                shutdown: AtomicBool::new(false),
            }),
            listeners: Mutex::new(listeners),
            threads: Mutex::new(Vec::new()),
            readers: Arc::new(Mutex::new(Vec::new())),
        })
    }
}

impl Transport for TcpTransport {
    fn name(&self) -> &'static str {
        "tcp"
    }

    fn lossy(&self) -> bool {
        true
    }

    fn endpoints(&self) -> Vec<SocketAddr> {
        self.inner.addrs.clone()
    }

    fn start(&self, shared: &Arc<Shared>) -> Result<(), TransportError> {
        let mut threads = self.threads.lock();
        // Acceptors: one per rank.
        let mut listeners = self.listeners.lock();
        for (rank, slot) in listeners.iter_mut().enumerate() {
            let listener = slot.take().expect("start called twice");
            let inner = self.inner.clone();
            let shared = shared.clone();
            let readers = self.readers.clone();
            let handle = std::thread::Builder::new()
                .name(format!("tcp-accept-{rank}"))
                .spawn(move || acceptor(&inner, &shared, rank, listener, &readers))
                .map_err(|e| TransportError {
                    rank,
                    peer: rank,
                    detail: format!("failed to spawn acceptor thread: {e}"),
                })?;
            threads.push(handle);
        }
        // Writers: one per cross-rank lane.
        for from in 0..self.inner.nranks {
            for to in 0..self.inner.nranks {
                if from == to {
                    continue;
                }
                let inner = self.inner.clone();
                let shared = shared.clone();
                let handle = std::thread::Builder::new()
                    .name(format!("tcp-writer-{from}-{to}"))
                    .spawn(move || writer(&inner, &shared, from, to))
                    .map_err(|e| TransportError {
                        rank: from,
                        peer: to,
                        detail: format!("failed to spawn writer thread: {e}"),
                    })?;
                threads.push(handle);
            }
        }
        Ok(())
    }

    fn send(&self, shared: &Shared, dest: RankId, pkt: Packet) {
        // A packet travels its origin's own lane: an ack from rank
        // `ack.to` back to sender `dest` rides `ack.to → dest` (each
        // direction owns a connection).
        let lane = self.inner.lane(pkt.origin(), dest);
        let frame = match pkt {
            Packet::Data { from, seq, env } => {
                let (type_id, count, trace) = (env.type_id, env.count, env.trace);
                let handle = self.inner.payloads.stash(env);
                frame::encode_packet(from, seq, type_id, count, trace, handle)
            }
            Packet::Ack(ack) => frame::encode_ack(&ack),
        };
        lane.enqueue(&self.inner, shared, frame);
    }

    fn shutdown(&self) {
        self.inner.shutdown.store(true, SeqCst);
        for lane in &self.inner.lanes {
            lane.close();
        }
        let threads = std::mem::take(&mut *self.threads.lock());
        for t in threads {
            let _ = t.join();
        }
        let readers = std::mem::take(&mut *self.readers.lock());
        for t in readers {
            let _ = t.join();
        }
    }
}

/// Record one reconnect attempt: counter + a Transport event in the
/// recorder's side ring (writer threads own no ring).
fn note_reconnect(shared: &Shared, from: RankId, to: RankId, attempt: u32) {
    MachineStats::bump(&shared.stats.transport_reconnects, 1);
    let rec = &shared.recorder;
    if let Some(now) = rec.clock() {
        rec.push_side(&SpanRecord {
            kind: SpanKind::Transport,
            name: "reconnect",
            rank: from,
            thread: 0,
            start_ns: now,
            dur_ns: 0,
            epoch: shared.current_epoch_hint(),
            arg0: to as u64,
            arg1: u64::from(attempt),
            flow_in: 0,
            flow_out: 0,
        });
    }
}

/// Dial `to`'s listener and run the handshake for lane `from → to`.
fn dial(inner: &Inner, shared: &Shared, from: RankId, to: RankId) -> Result<TcpStream, DialError> {
    let addr = inner.addrs[to];
    let stream = TcpStream::connect_timeout(&addr, CONNECT_TIMEOUT)
        .map_err(|e| DialError::Transient(format!("connect to {addr}: {e}")))?;
    let _ = stream.set_nodelay(true);
    stream
        .set_write_timeout(Some(WRITE_TIMEOUT))
        .map_err(|e| DialError::Transient(format!("set_write_timeout: {e}")))?;
    // The handshake reply is awaited synchronously under the dial
    // timeout; the steady-state read timeout is irrelevant here (the
    // writer never reads again).
    stream
        .set_read_timeout(Some(CONNECT_TIMEOUT))
        .map_err(|e| DialError::Transient(format!("set_read_timeout: {e}")))?;
    let version = inner.cfg.handshake_version.unwrap_or(PROTOCOL_VERSION);
    let hello = frame::encode_hello(version, from, to);
    (&stream)
        .write_all(&hello)
        .map_err(|e| DialError::Transient(format!("handshake write: {e}")))?;
    let mut reply = [0u8; frame::REPLY_LEN];
    (&stream)
        .read_exact(&mut reply)
        .map_err(|e| DialError::Transient(format!("handshake reply read: {e}")))?;
    match frame::decode_reply(&reply) {
        (STATUS_OK, _) => Ok(stream),
        (STATUS_VERSION_MISMATCH, peer_version) => {
            MachineStats::bump(&shared.stats.transport_handshake_failures, 1);
            Err(DialError::Fatal(format!(
                "handshake rejected: version mismatch (we claim {version}, peer speaks \
                 {peer_version})"
            )))
        }
        (status, _) => {
            MachineStats::bump(&shared.stats.transport_handshake_failures, 1);
            Err(DialError::Fatal(format!(
                "handshake rejected with status {status}"
            )))
        }
    }
}

/// Lane `from → to`'s writer: dial → handshake → drain the outbound
/// queue, reconnecting on failure until the budget runs out.
fn writer(inner: &Inner, shared: &Shared, from: RankId, to: RankId) {
    let lane = inner.lane(from, to);
    // Consecutive failures on this lane: dials that did not yield a
    // connection, plus one for each established connection that is
    // then lost (the write-error path restarts the count at 1).
    let mut failures: u32 = 0;
    'connect: loop {
        if inner.done(shared) {
            return;
        }
        let attempt = failures;
        if attempt > 0 {
            note_reconnect(shared, from, to, attempt);
            // Capped exponential backoff with deterministic jitter,
            // slept in slices so shutdown stays responsive.
            let exp = RECONNECT_BASE
                .saturating_mul(1u32 << attempt.min(16).min(31))
                .min(RECONNECT_CAP);
            let delay = super::jittered(
                exp,
                RECONNECT_JITTER,
                (from * inner.nranks + to) as u64,
                attempt,
            );
            let slice = Duration::from_millis(5);
            let mut slept = Duration::ZERO;
            while slept < delay {
                if inner.done(shared) {
                    return;
                }
                let step = slice.min(delay - slept);
                std::thread::sleep(step);
                slept += step;
            }
        }
        let stream = match dial(inner, shared, from, to) {
            Ok(s) => s,
            Err(DialError::Fatal(detail)) => {
                // Rejections are permanent: retrying cannot succeed.
                lane.close();
                if !inner.done(shared) {
                    shared.fail(
                        crate::MachineError::Transport {
                            rank: from,
                            peer: to,
                            detail,
                        },
                        None,
                    );
                }
                return;
            }
            Err(DialError::Transient(detail)) => {
                failures += 1;
                if failures > inner.cfg.max_reconnects {
                    lane.close();
                    if !inner.done(shared) {
                        shared.fail(
                            crate::MachineError::Transport {
                                rank: from,
                                peer: to,
                                detail: format!(
                                    "reconnect budget exhausted after {} attempts (last: {detail})",
                                    failures - 1
                                ),
                            },
                            None,
                        );
                    }
                    return;
                }
                continue 'connect;
            }
        };
        // Drain loop: pop frames and write them until the connection or
        // the machine dies. A frame popped but not fully written is lost
        // with the connection — the reliability layer recovers it.
        let mut stream = stream;
        loop {
            if inner.done(shared) {
                return;
            }
            let Some(frame) = lane.pop(Duration::from_millis(25)) else {
                continue;
            };
            if let Err(e) = stream.write_all(&frame) {
                failures = 1;
                if failures > inner.cfg.max_reconnects {
                    lane.close();
                    if !inner.done(shared) {
                        shared.fail(
                            crate::MachineError::Transport {
                                rank: from,
                                peer: to,
                                detail: format!("connection lost and no reconnect budget: {e}"),
                            },
                            None,
                        );
                    }
                    return;
                }
                continue 'connect;
            }
        }
    }
}

/// Rank `rank`'s acceptor: admit connections, run the server side of the
/// handshake, and spawn a reader per accepted connection.
fn acceptor(
    inner: &Arc<Inner>,
    shared: &Arc<Shared>,
    rank: RankId,
    listener: TcpListener,
    readers: &Mutex<Vec<std::thread::JoinHandle<()>>>,
) {
    loop {
        if inner.done(shared) {
            return;
        }
        let (stream, _) = match listener.accept() {
            Ok(conn) => conn,
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(1));
                continue;
            }
            Err(_) => {
                std::thread::sleep(Duration::from_millis(1));
                continue;
            }
        };
        // Handshake (bounded by the read timeout — a rogue that
        // connects and stalls costs one timeout, not a hang).
        let _ = stream.set_nodelay(true);
        if stream.set_read_timeout(Some(CONNECT_TIMEOUT)).is_err() {
            continue;
        }
        let mut hello_buf = [0u8; frame::HELLO_LEN];
        if (&stream).read_exact(&mut hello_buf).is_err() {
            MachineStats::bump(&shared.stats.transport_handshake_failures, 1);
            continue;
        }
        let hello = match frame::decode_hello(&hello_buf) {
            Ok(h) => h,
            Err(_) => {
                MachineStats::bump(&shared.stats.transport_handshake_failures, 1);
                let _ =
                    (&stream).write_all(&frame::encode_reply(STATUS_BAD_LANE, PROTOCOL_VERSION));
                continue;
            }
        };
        if hello.version != PROTOCOL_VERSION {
            MachineStats::bump(&shared.stats.transport_handshake_failures, 1);
            let _ = (&stream).write_all(&frame::encode_reply(
                STATUS_VERSION_MISMATCH,
                PROTOCOL_VERSION,
            ));
            continue;
        }
        if hello.to as usize != rank || hello.from as usize >= inner.nranks {
            MachineStats::bump(&shared.stats.transport_handshake_failures, 1);
            let _ = (&stream).write_all(&frame::encode_reply(STATUS_BAD_LANE, PROTOCOL_VERSION));
            continue;
        }
        if (&stream)
            .write_all(&frame::encode_reply(STATUS_OK, PROTOCOL_VERSION))
            .is_err()
        {
            continue;
        }
        let inner = inner.clone();
        let shared = shared.clone();
        let peer = hello.from as usize;
        let handle = std::thread::Builder::new()
            .name(format!("tcp-reader-{peer}-{rank}"))
            .spawn(move || reader(&inner, &shared, rank, peer, stream));
        match handle {
            Ok(h) => readers.lock().push(h),
            Err(_) => continue,
        }
    }
}

/// Read frames off one accepted connection for lane `peer → rank` until
/// it dies (EOF, error, protocol violation, or the kill harness).
fn reader(inner: &Inner, shared: &Shared, rank: RankId, peer: RankId, stream: TcpStream) {
    if stream.set_read_timeout(Some(READ_TIMEOUT)).is_err() {
        return;
    }
    let mut stream = stream;
    let mut frames_seen: u64 = 0;
    loop {
        // Length prefix. A clean EOF here (before any prefix byte) is
        // an orderly close — the peer reconnecting or shutting down;
        // EOF mid-prefix or mid-body is truncation.
        let mut len_buf = [0u8; 4];
        match read_full(inner, shared, &mut stream, &mut len_buf) {
            ReadResult::Done => {}
            ReadResult::CleanEof | ReadResult::Shutdown => return,
            ReadResult::Truncated | ReadResult::Error => {
                MachineStats::bump(&shared.stats.transport_frame_errors, 1);
                return;
            }
        }
        let len = u32::from_le_bytes(len_buf);
        if len == 0 || len > inner.cfg.max_frame {
            // Oversized or empty frame: protocol violation, costs the
            // connection (never the machine).
            MachineStats::bump(&shared.stats.transport_frame_errors, 1);
            return;
        }
        let mut body = vec![0u8; len as usize];
        match read_full(inner, shared, &mut stream, &mut body) {
            ReadResult::Done => {}
            ReadResult::Shutdown => return,
            // An EOF between prefix and body is still a torn frame.
            ReadResult::CleanEof | ReadResult::Truncated | ReadResult::Error => {
                MachineStats::bump(&shared.stats.transport_frame_errors, 1);
                return;
            }
        }
        frames_seen += 1;
        MachineStats::bump(&shared.stats.transport_bytes_received, 4 + u64::from(len));
        // Test harness: kill the connection after every N frames,
        // *discarding* the frame just read so real loss is guaranteed
        // (an orderly close alone loses nothing — the kernel delivers
        // buffered data).
        if let Some(n) = inner.cfg.kill_rx_every {
            if frames_seen.is_multiple_of(n) {
                if let Ok(WireFrame::Packet { handle, .. }) = frame::decode_frame(&body) {
                    drop(inner.payloads.take(handle));
                }
                return;
            }
        }
        match frame::decode_frame(&body) {
            Ok(WireFrame::Packet {
                from,
                seq,
                type_id,
                handle,
                ..
            }) => {
                debug_assert_eq!(from, peer, "packet from {from} on lane {peer}->{rank}");
                let Some(env) = inner.payloads.take(handle) else {
                    // Stranded handle (discarded by the kill harness or
                    // already taken): nothing to deliver.
                    continue;
                };
                debug_assert_eq!(env.type_id, type_id);
                MachineStats::bump(&shared.stats.transport_frames_received, 1);
                shared.deliver(rank, Packet::Data { from, seq, env });
            }
            Ok(WireFrame::Ack(ack)) => {
                debug_assert_eq!(ack.from, rank, "ack for {} delivered to {rank}", ack.from);
                MachineStats::bump(&shared.stats.transport_frames_received, 1);
                shared.deliver(rank, Packet::Ack(ack));
            }
            Err(_) => {
                MachineStats::bump(&shared.stats.transport_frame_errors, 1);
                return;
            }
        }
    }
}

enum ReadResult {
    /// Buffer fully read.
    Done,
    /// EOF before the first byte — an orderly close boundary.
    CleanEof,
    /// EOF after some bytes — the stream died mid-read.
    Truncated,
    /// The machine is shutting down.
    Shutdown,
    Error,
}

/// Fill `buf` completely, using the socket's read timeout as a poll
/// quantum to stay responsive to shutdown (a slow-but-alive sender just
/// keeps the loop spinning; a dead machine exits within one quantum).
fn read_full(inner: &Inner, shared: &Shared, stream: &mut TcpStream, buf: &mut [u8]) -> ReadResult {
    let mut filled = 0;
    loop {
        if inner.done(shared) {
            return ReadResult::Shutdown;
        }
        match stream.read(&mut buf[filled..]) {
            Ok(0) => {
                return if filled == 0 {
                    ReadResult::CleanEof
                } else {
                    ReadResult::Truncated
                };
            }
            Ok(n) => {
                filled += n;
                if filled == buf.len() {
                    return ReadResult::Done;
                }
            }
            Err(e)
                if e.kind() == ErrorKind::WouldBlock
                    || e.kind() == ErrorKind::TimedOut
                    || e.kind() == ErrorKind::Interrupted =>
            {
                continue;
            }
            Err(_) => return ReadResult::Error,
        }
    }
}
