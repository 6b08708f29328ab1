//! Pluggable transport backends: how envelopes physically move between
//! ranks.
//!
//! The machine's delivery seam (`Shared::push_packet`, which carries
//! envelopes and the reliability layer's acks alike) historically had
//! exactly one implementation — each rank's inbox, shared by the threads
//! of one process. This module makes the seam a trait with three backends
//! (INTERNALS §12):
//!
//! * **Inproc** — the original channel path, selected by default. There
//!   is no backend object at all: `Shared.wire` is `None` and
//!   `push_packet` falls straight through to `Shared::deliver`, so the
//!   default costs one `Option` branch and is behavior-identical to
//!   every release before this module existed. The identity transport.
//! * **Shm** (`shm::ShmTransport`) — same-host bounded shared-memory
//!   rings, one per destination rank, drained by shuttle threads.
//!   Lossless and ordered, so the reliability layer is not required;
//!   exercises a real bounded-queue backpressure path.
//! * **Tcp** (`tcp::TcpTransport`) — length-prefixed frames over real
//!   sockets, one connection per directed lane, with a versioned
//!   handshake, bounded per-peer outbound queues, read/write timeouts,
//!   and reconnection with capped exponential backoff + jitter. Lossy
//!   by design (a dropped connection loses queued and in-flight
//!   frames), which makes the reliability layer (seq/ack/retransmit/
//!   dedup, `crate::fault`) *load-bearing*: it is installed
//!   automatically (with an inject-nothing [`FaultPlan`]) whenever this
//!   backend is selected, and masks disconnect-and-reconnect windows
//!   exactly as it masks injected drops.
//!
//! Failure policy: input from the network is never trusted and never
//! fatal — a malformed handshake or frame costs the *connection* (and a
//! counter), not the machine. Only a rank's **own lane** becoming
//! unusable (handshake permanently rejected, reconnect budget exhausted,
//! listener bind failure) fails the machine, as a structured
//! [`MachineError::Transport`] naming the lane — never a hang: poisoning
//! wakes every rank at its next collective or recv timeout.
//!
//! [`MachineError::Transport`]: crate::MachineError::Transport
//! [`FaultPlan`]: crate::FaultPlan

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

use crate::machine::{Packet, RankId, Shared};

pub(crate) mod frame;
pub(crate) mod shm;
pub(crate) mod tcp;

/// A wire backend: moves packets (envelopes and acks) between ranks on
/// behalf of the delivery seam. Implementations own their threads
/// (acceptors, writers, shuttles) and must honor the contract in
/// INTERNALS §12:
///
/// * `send` may block (bounded backpressure) but must become a non-fatal
///   no-op once the machine is shutting down or the backend failed, so
///   rank threads can always unwind.
/// * Delivery into rank inboxes goes through [`Shared::deliver`], which
///   never unwinds — backend threads are not rank threads and must not
///   unwind into the scheduler.
/// * Lossy backends (`lossy() == true`) may drop frames on any
///   disconnect; the machine compensates by always installing the
///   reliability layer above them.
/// * `shutdown` is idempotent, must wake every blocked `send`, and
///   joins all backend threads before returning.
pub(crate) trait Transport: Send + Sync {
    /// Short backend name for diagnostics ("shm", "tcp").
    fn name(&self) -> &'static str;

    /// Spawn the backend's threads. Called once, after the `Shared` is
    /// constructed and before any rank thread starts; a `Err` aborts the
    /// run with a structured [`crate::MachineError::Transport`].
    fn start(&self, shared: &Arc<Shared>) -> Result<(), TransportError>;

    /// Ship a packet to `dest` — an ack goes to the acknowledged
    /// packet's sender. Never called for self-sends, self-acks or in sim
    /// mode: the dispatcher short-circuits those.
    fn send(&self, shared: &Shared, dest: RankId, pkt: Packet);

    /// Stop and join every backend thread (idempotent).
    fn shutdown(&self);

    /// Listening socket addresses indexed by rank (empty for backends
    /// without sockets). Lets tests aim adversarial connections at a
    /// live machine's acceptors.
    fn endpoints(&self) -> Vec<SocketAddr> {
        Vec::new()
    }

    /// Whether this backend can lose accepted frames (and therefore
    /// needs the reliability layer installed above it).
    fn lossy(&self) -> bool {
        false
    }
}

/// Which backend a machine uses (see [`MachineConfig::transport`]).
///
/// [`MachineConfig::transport`]: crate::MachineConfig::transport
#[derive(Debug, Clone, PartialEq, Default)]
pub enum TransportKind {
    /// Straight into the destination's in-process inbox — the default,
    /// zero added overhead.
    #[default]
    Inproc,
    /// Same-host bounded shared-memory rings.
    Shm(ShmConfig),
    /// Length-prefixed TCP with handshake, backpressure, reconnection.
    Tcp(TcpConfig),
}

impl TransportKind {
    /// The backend named by the `DGP_TRANSPORT` environment variable
    /// (`inproc`, `shm`, `tcp`; unset or empty means inproc), with
    /// default tuning. Read per call so harnesses can re-point a whole
    /// test binary at a backend without code changes. Panics on an
    /// unrecognized value — a typo must not silently run inproc.
    pub fn from_env() -> Self {
        match std::env::var("DGP_TRANSPORT").as_deref() {
            Err(_) | Ok("") | Ok("inproc") => TransportKind::Inproc,
            Ok("shm") => TransportKind::Shm(ShmConfig::default()),
            Ok("tcp") => TransportKind::Tcp(TcpConfig::default()),
            Ok(other) => panic!("DGP_TRANSPORT must be one of inproc|shm|tcp, got {other:?}"),
        }
    }

    /// Short name for reports and bench rows.
    pub fn name(&self) -> &'static str {
        match self {
            TransportKind::Inproc => "inproc",
            TransportKind::Shm(_) => "shm",
            TransportKind::Tcp(_) => "tcp",
        }
    }

    pub(crate) fn validate(&self) {
        match self {
            TransportKind::Inproc => {}
            TransportKind::Shm(c) => c.validate(),
            TransportKind::Tcp(c) => c.validate(),
        }
    }
}

/// Tuning for the shared-memory ring backend.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShmConfig {
    /// Messages (packets + acks) buffered per destination rank before
    /// senders block (bounded backpressure; stalls are counted in
    /// `transport_backpressure_stalls`).
    pub ring_capacity: usize,
}

impl Default for ShmConfig {
    fn default() -> Self {
        ShmConfig {
            ring_capacity: 1024,
        }
    }
}

impl ShmConfig {
    /// Set the per-destination ring capacity.
    pub fn ring_capacity(mut self, cap: usize) -> Self {
        self.ring_capacity = cap;
        self
    }

    fn validate(&self) {
        assert!(
            self.ring_capacity >= 1,
            "shm ring capacity must be at least 1"
        );
    }
}

/// Tuning for the TCP backend: the knobs tests and experiments turn
/// (frame bound, reconnect budget, the two fault harnesses). Queue depth,
/// socket timeouts and the reconnect backoff curve are constants in
/// `transport/tcp.rs`.
#[derive(Debug, Clone, PartialEq)]
pub struct TcpConfig {
    /// Upper bound on an accepted frame body, bytes; a length prefix
    /// beyond this is a protocol violation and costs the connection.
    pub max_frame: u32,
    /// Handshake version to *claim* when dialing, `None` = the compiled
    /// `frame::PROTOCOL_VERSION`. A test override: claiming a different
    /// version exercises the rejection path end to end.
    pub handshake_version: Option<u32>,
    /// Consecutive failed dials of one lane after which the machine
    /// fails with [`MachineError::Transport`] instead of retrying
    /// forever. 0 = fail on the first lost connection.
    ///
    /// [`MachineError::Transport`]: crate::MachineError::Transport
    pub max_reconnects: u32,
    /// Test harness: when set, every receiver kills each accepted
    /// connection after reading `n` frames (the frame is discarded, so
    /// real loss is guaranteed even though the close is orderly). The
    /// writer side sees a broken pipe and reconnects; the reliability
    /// layer must mask the hole. `None` in production.
    pub kill_rx_every: Option<u64>,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            max_frame: 1 << 20,
            handshake_version: None,
            max_reconnects: 20,
            kill_rx_every: None,
        }
    }
}

impl TcpConfig {
    /// Set the reconnect budget (consecutive failed dials per lane).
    pub fn max_reconnects(mut self, n: u32) -> Self {
        self.max_reconnects = n;
        self
    }

    /// Claim `version` in outgoing handshakes (test override; see
    /// [`TcpConfig::handshake_version`]).
    pub fn claim_version(mut self, version: u32) -> Self {
        self.handshake_version = Some(version);
        self
    }

    /// Arm the receiver-side kill harness (see
    /// [`TcpConfig::kill_rx_every`]).
    pub fn kill_rx_every(mut self, frames: u64) -> Self {
        self.kill_rx_every = Some(frames);
        self
    }

    fn validate(&self) {
        assert!(self.max_frame >= 64, "tcp max_frame must be at least 64");
        assert!(
            self.kill_rx_every != Some(0),
            "kill_rx_every must be at least 1 frame"
        );
    }
}

/// A backend-level failure, converted by the machine into
/// [`MachineError::Transport`]. `peer == rank` marks failures that are
/// not lane-specific (e.g. a listener bind failure).
///
/// [`MachineError::Transport`]: crate::MachineError::Transport
#[derive(Debug, Clone)]
pub struct TransportError {
    /// The rank on whose behalf the backend failed.
    pub rank: RankId,
    /// The unreachable peer (`== rank` when not lane-specific).
    pub peer: RankId,
    /// What the backend observed.
    pub detail: String,
}

impl TransportError {
    pub(crate) fn into_machine_error(self) -> crate::MachineError {
        crate::MachineError::Transport {
            rank: self.rank,
            peer: self.peer,
            detail: self.detail,
        }
    }
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "transport failure on rank {} (peer {}): {}",
            self.rank, self.peer, self.detail
        )
    }
}

impl std::error::Error for TransportError {}

/// Instantiate the backend named by `kind` (`None` = inproc: the native
/// channel path with no backend object at all). TCP binds its listeners
/// here — before any rank thread exists — so every dial has a live
/// acceptor to hit and bind failures surface as structured errors
/// before the run starts.
pub(crate) fn build(
    kind: &TransportKind,
    nranks: usize,
) -> Result<Option<Arc<dyn Transport>>, TransportError> {
    match kind {
        TransportKind::Inproc => Ok(None),
        TransportKind::Shm(cfg) => Ok(Some(Arc::new(shm::ShmTransport::new(cfg.clone(), nranks)))),
        TransportKind::Tcp(cfg) => Ok(Some(Arc::new(tcp::TcpTransport::bind(
            cfg.clone(),
            nranks,
        )?))),
    }
}

/// Deterministic jitter in `[0, fraction)` of `base`, keyed by lane and
/// attempt — shared by the TCP reconnect backoff (same discipline as
/// `FaultPlan::backoff_jitter`: no RNG state, reproducible schedules).
pub(crate) fn jittered(base: Duration, fraction: f64, lane: u64, attempt: u32) -> Duration {
    if fraction == 0.0 {
        return base;
    }
    // splitmix64 over the coordinates.
    let mut z = lane
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(u64::from(attempt))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    let u = ((z >> 11) as f64) * (1.0 / (1u64 << 53) as f64);
    base.mul_f64(1.0 - fraction * u)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names() {
        assert_eq!(TransportKind::Inproc.name(), "inproc");
        assert_eq!(TransportKind::Shm(ShmConfig::default()).name(), "shm");
        assert_eq!(TransportKind::Tcp(TcpConfig::default()).name(), "tcp");
    }

    #[test]
    fn default_kind_is_inproc() {
        assert_eq!(TransportKind::default(), TransportKind::Inproc);
    }

    #[test]
    #[should_panic(expected = "ring capacity")]
    fn zero_ring_capacity_rejected() {
        TransportKind::Shm(ShmConfig { ring_capacity: 0 }).validate();
    }

    #[test]
    fn jitter_stays_within_fraction_and_varies() {
        let base = Duration::from_millis(100);
        let mut seen = std::collections::HashSet::new();
        for attempt in 0..64 {
            let d = jittered(base, 0.5, 17, attempt);
            assert!(d <= base, "{d:?}");
            assert!(d >= base.mul_f64(0.5), "{d:?}");
            assert_eq!(d, jittered(base, 0.5, 17, attempt), "deterministic");
            seen.insert(d.as_nanos());
        }
        assert!(
            seen.len() > 16,
            "jitter should spread delays: {}",
            seen.len()
        );
        assert_eq!(jittered(base, 0.0, 17, 3), base, "zero jitter is exact");
    }
}
