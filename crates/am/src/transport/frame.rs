//! Wire format for the TCP backend (INTERNALS §12.2).
//!
//! **Handshake.** The dialer of lane `from → to` opens the connection
//! with a fixed 16-byte hello — `magic` ("DGPT"), protocol version, and
//! both lane endpoints, all `u32` little-endian — and the acceptor
//! answers with an 8-byte reply: a status word and its own version (so
//! a mismatched dialer learns what the peer actually speaks). Anything
//! other than [`STATUS_OK`] closes the connection.
//!
//! **Frames.** After the handshake, the stream is a sequence of
//! length-prefixed frames: a `u32` LE body length, then the body. The
//! first body byte is the frame kind:
//!
//! * [`KIND_PACKET`]: `from u32 · seq u64 · type_id u32 · count u32 ·
//!   trace(root u64 · event u64 · parent u64 · depth u32) · handle u64`
//!   — the full causal header travels on the wire; the payload itself
//!   is referenced by `handle` into the sender's [`PayloadTable`]
//!   because ranks share one address space (a multi-process build would
//!   replace the handle with serialized bytes; the framing, handshake,
//!   connection management, and loss behavior are identical either
//!   way, which is what this backend exists to exercise).
//! * [`KIND_ACK`]: `from u32 · to u32 · seq u64`.
//!
//! Decoding is strict: short bodies, unknown kinds, and (at the read
//! layer) length prefixes beyond `max_frame` are protocol violations
//! that cost the connection — never the machine (see module policy in
//! [`crate::transport`]).

use std::collections::HashMap;

use crate::machine::{Ack, Envelope, RankId};
use crate::trace::TraceCtx;

/// The codec tests' name for a decoded ack: the frame decodes into the
/// machine's own [`Ack`].
#[cfg(test)]
use crate::machine::Ack as AckWire;

/// `b"DGPT"` as a little-endian word: the hello magic.
pub(crate) const MAGIC: u32 = 0x5450_4744;
/// The protocol version this build speaks.
pub(crate) const PROTOCOL_VERSION: u32 = 1;
/// Handshake hello length (magic, version, from, to).
pub(crate) const HELLO_LEN: usize = 16;
/// Handshake reply length (status, version).
pub(crate) const REPLY_LEN: usize = 8;

/// Handshake accepted.
pub(crate) const STATUS_OK: u32 = 0;
/// Rejected: dialer claimed a different protocol version.
pub(crate) const STATUS_VERSION_MISMATCH: u32 = 1;
/// Rejected: bad magic or a lane that does not terminate at the
/// acceptor.
pub(crate) const STATUS_BAD_LANE: u32 = 2;

/// Frame kind byte: a sequenced (or seq-0) data packet.
pub(crate) const KIND_PACKET: u8 = 1;
/// Frame kind byte: a reliability acknowledgement.
pub(crate) const KIND_ACK: u8 = 2;

/// Body length of an encoded packet frame.
const PACKET_BODY_LEN: usize = 1 + 4 + 8 + 4 + 4 + (8 + 8 + 8 + 4) + 8;
/// Body length of an encoded ack frame.
const ACK_BODY_LEN: usize = 1 + 4 + 4 + 8;

/// The dialer's opening message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Hello {
    pub(crate) version: u32,
    pub(crate) from: u32,
    pub(crate) to: u32,
}

pub(crate) fn encode_hello(version: u32, from: RankId, to: RankId) -> [u8; HELLO_LEN] {
    let mut buf = [0u8; HELLO_LEN];
    buf[0..4].copy_from_slice(&MAGIC.to_le_bytes());
    buf[4..8].copy_from_slice(&version.to_le_bytes());
    buf[8..12].copy_from_slice(&(from as u32).to_le_bytes());
    buf[12..16].copy_from_slice(&(to as u32).to_le_bytes());
    buf
}

/// `Err` means bad magic — not even our protocol.
pub(crate) fn decode_hello(buf: &[u8; HELLO_LEN]) -> Result<Hello, String> {
    let word = |i: usize| u32::from_le_bytes(buf[i..i + 4].try_into().unwrap());
    if word(0) != MAGIC {
        return Err(format!("bad handshake magic {:#010x}", word(0)));
    }
    Ok(Hello {
        version: word(4),
        from: word(8),
        to: word(12),
    })
}

pub(crate) fn encode_reply(status: u32, version: u32) -> [u8; REPLY_LEN] {
    let mut buf = [0u8; REPLY_LEN];
    buf[0..4].copy_from_slice(&status.to_le_bytes());
    buf[4..8].copy_from_slice(&version.to_le_bytes());
    buf
}

/// `(status, acceptor_version)`.
pub(crate) fn decode_reply(buf: &[u8; REPLY_LEN]) -> (u32, u32) {
    (
        u32::from_le_bytes(buf[0..4].try_into().unwrap()),
        u32::from_le_bytes(buf[4..8].try_into().unwrap()),
    )
}

/// A decoded frame body.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum WireFrame {
    Packet {
        from: RankId,
        seq: u64,
        type_id: u32,
        count: u32,
        trace: TraceCtx,
        handle: u64,
    },
    Ack(Ack),
}

/// Encode a packet frame, length prefix included. The envelope's payload
/// is *not* here — `handle` references it (see module docs).
pub(crate) fn encode_packet(
    from: RankId,
    seq: u64,
    type_id: u32,
    count: u32,
    trace: TraceCtx,
    handle: u64,
) -> Vec<u8> {
    let mut buf = Vec::with_capacity(4 + PACKET_BODY_LEN);
    buf.extend_from_slice(&(PACKET_BODY_LEN as u32).to_le_bytes());
    buf.push(KIND_PACKET);
    buf.extend_from_slice(&(from as u32).to_le_bytes());
    buf.extend_from_slice(&seq.to_le_bytes());
    buf.extend_from_slice(&type_id.to_le_bytes());
    buf.extend_from_slice(&count.to_le_bytes());
    buf.extend_from_slice(&trace.root.to_le_bytes());
    buf.extend_from_slice(&trace.event.to_le_bytes());
    buf.extend_from_slice(&trace.parent.to_le_bytes());
    buf.extend_from_slice(&trace.depth.to_le_bytes());
    buf.extend_from_slice(&handle.to_le_bytes());
    debug_assert_eq!(buf.len(), 4 + PACKET_BODY_LEN);
    buf
}

/// Encode an ack frame, length prefix included.
pub(crate) fn encode_ack(ack: &Ack) -> Vec<u8> {
    let mut buf = Vec::with_capacity(4 + ACK_BODY_LEN);
    buf.extend_from_slice(&(ACK_BODY_LEN as u32).to_le_bytes());
    buf.push(KIND_ACK);
    buf.extend_from_slice(&(ack.from as u32).to_le_bytes());
    buf.extend_from_slice(&(ack.to as u32).to_le_bytes());
    buf.extend_from_slice(&ack.seq.to_le_bytes());
    debug_assert_eq!(buf.len(), 4 + ACK_BODY_LEN);
    buf
}

/// Decode one frame body (everything after the length prefix).
pub(crate) fn decode_frame(body: &[u8]) -> Result<WireFrame, String> {
    let kind = *body.first().ok_or("empty frame body")?;
    let u32_at = |i: usize| -> Result<u32, String> {
        body.get(i..i + 4)
            .map(|b| u32::from_le_bytes(b.try_into().unwrap()))
            .ok_or_else(|| format!("truncated frame body ({} bytes)", body.len()))
    };
    let u64_at = |i: usize| -> Result<u64, String> {
        body.get(i..i + 8)
            .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
            .ok_or_else(|| format!("truncated frame body ({} bytes)", body.len()))
    };
    match kind {
        KIND_PACKET => {
            if body.len() != PACKET_BODY_LEN {
                return Err(format!(
                    "packet frame body must be {PACKET_BODY_LEN} bytes, got {}",
                    body.len()
                ));
            }
            Ok(WireFrame::Packet {
                from: u32_at(1)? as RankId,
                seq: u64_at(5)?,
                type_id: u32_at(13)?,
                count: u32_at(17)?,
                trace: TraceCtx {
                    root: u64_at(21)?,
                    event: u64_at(29)?,
                    parent: u64_at(37)?,
                    depth: u32_at(45)?,
                },
                handle: u64_at(49)?,
            })
        }
        KIND_ACK => {
            if body.len() != ACK_BODY_LEN {
                return Err(format!(
                    "ack frame body must be {ACK_BODY_LEN} bytes, got {}",
                    body.len()
                ));
            }
            Ok(WireFrame::Ack(Ack {
                from: u32_at(1)? as RankId,
                to: u32_at(5)? as RankId,
                seq: u64_at(9)?,
            }))
        }
        k => Err(format!("unknown frame kind {k:#04x}")),
    }
}

/// In-flight payload storage for the TCP backend: envelopes checked in
/// by the sender at encode time and checked out by the receiver at
/// decode time, keyed by a table-unique handle that travels in the
/// frame. One table per transport instance, so concurrent machines in
/// one process (the test binary) never share handles. A frame lost on
/// the wire strands its entry until the transport drops — bounded by
/// the reliability layer's pending window, and reclaimed wholesale at
/// teardown.
#[derive(Default)]
pub(crate) struct PayloadTable {
    next: std::sync::atomic::AtomicU64,
    map: parking_lot::Mutex<HashMap<u64, Envelope>>,
}

impl PayloadTable {
    /// Check in an envelope; returns its wire handle.
    pub(crate) fn stash(&self, env: Envelope) -> u64 {
        let handle = self.next.fetch_add(1, std::sync::atomic::Ordering::Relaxed) + 1;
        self.map.lock().insert(handle, env);
        handle
    }

    /// Check out the envelope behind `handle` (None = the entry was
    /// discarded, e.g. by the kill harness).
    pub(crate) fn take(&self, handle: u64) -> Option<Envelope> {
        self.map.lock().remove(&handle)
    }

    /// Entries currently in flight (diagnostics).
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.map.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hello_roundtrip() {
        let buf = encode_hello(PROTOCOL_VERSION, 3, 1);
        let h = decode_hello(&buf).unwrap();
        assert_eq!(
            h,
            Hello {
                version: PROTOCOL_VERSION,
                from: 3,
                to: 1
            }
        );
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut buf = encode_hello(PROTOCOL_VERSION, 0, 1);
        buf[0] ^= 0xFF;
        let err = decode_hello(&buf).unwrap_err();
        assert!(err.contains("magic"), "{err}");
    }

    #[test]
    fn reply_roundtrip() {
        let buf = encode_reply(STATUS_VERSION_MISMATCH, 7);
        assert_eq!(decode_reply(&buf), (STATUS_VERSION_MISMATCH, 7));
    }

    #[test]
    fn packet_frame_roundtrip() {
        let trace = TraceCtx {
            root: 11,
            event: 22,
            parent: 33,
            depth: 4,
        };
        let buf = encode_packet(2, 99, 5, 64, trace, 1234);
        let len = u32::from_le_bytes(buf[0..4].try_into().unwrap()) as usize;
        assert_eq!(len, buf.len() - 4);
        match decode_frame(&buf[4..]).unwrap() {
            WireFrame::Packet {
                from,
                seq,
                type_id,
                count,
                trace: t,
                handle,
            } => {
                assert_eq!((from, seq, type_id, count, handle), (2, 99, 5, 64, 1234));
                assert_eq!((t.root, t.event, t.parent, t.depth), (11, 22, 33, 4));
            }
            other => panic!("wrong frame: {other:?}"),
        }
    }

    #[test]
    fn ack_frame_roundtrip() {
        let ack = Ack {
            from: 1,
            to: 3,
            seq: 77,
        };
        let buf = encode_ack(&ack);
        let len = u32::from_le_bytes(buf[0..4].try_into().unwrap()) as usize;
        assert_eq!(len, buf.len() - 4);
        assert_eq!(
            decode_frame(&buf[4..]).unwrap(),
            WireFrame::Ack(AckWire {
                from: 1,
                to: 3,
                seq: 77
            })
        );
    }

    #[test]
    fn malformed_bodies_are_rejected_not_panics() {
        assert!(decode_frame(&[]).is_err());
        assert!(decode_frame(&[0xAB]).is_err(), "unknown kind");
        assert!(
            decode_frame(&[KIND_PACKET, 1, 2, 3]).is_err(),
            "short packet"
        );
        assert!(decode_frame(&[KIND_ACK, 1]).is_err(), "short ack");
        // A packet body one byte short of the fixed layout.
        let trace = TraceCtx::NONE;
        let buf = encode_packet(0, 1, 0, 1, trace, 9);
        assert!(decode_frame(&buf[4..buf.len() - 1]).is_err());
    }

    #[test]
    fn payload_table_checkin_checkout() {
        let table = PayloadTable::default();
        let env = Envelope {
            type_id: 3,
            count: 2,
            trace: TraceCtx::NONE,
            payload: Box::new(vec![1u32, 2]),
            clone_payload: |p| Box::new(p.downcast_ref::<Vec<u32>>().unwrap().clone()),
        };
        let h = table.stash(env);
        assert_eq!(table.len(), 1);
        let back = table.take(h).unwrap();
        assert_eq!(back.type_id, 3);
        assert!(table.take(h).is_none(), "handles are one-shot");
        assert_eq!(table.len(), 0);
    }
}
