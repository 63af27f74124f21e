//! Wire formats (Fig. 7 of the paper).
//!
//! Two formats cross the network:
//!
//! * **Control messages** (Fig. 7a) ride the dedicated control queue pair
//!   as SEND/RECV: a fixed header — type, flags, session id — followed by
//!   type-associated data. They carry parameter negotiation, credits
//!   (memory-region advertisements), block-completion notifications, and
//!   teardown.
//! * **Payload block headers** (Fig. 7b) prefix every user payload block
//!   written via RDMA WRITE: session id (32), sequence number (32),
//!   offset (64), user payload length (32), reserved (32) — 24 bytes.
//!   The sink uses (session, sequence) to reassemble out-of-order blocks
//!   from parallel queue pairs into an in-order stream.
//!
//! Encoding is explicit big-endian via `bytes`; round-trips are covered
//! by unit tests and property tests.

use bytes::{Buf, BufMut};

/// Length of the payload block header (Fig. 7b).
pub const PAYLOAD_HEADER_LEN: usize = 24;

/// Size of one control-message slot. Large enough for the biggest
/// variant (a `SessionAccept` with 32 channels or a `Credits` batch of 8).
pub const CTRL_SLOT_LEN: usize = 256;

/// A memory-region credit: the sink advertises "you may WRITE `len`
/// bytes at (`rkey`, `offset`); it is my block `slot`".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Credit {
    /// Sink-side block index (echoed back in the completion notification).
    pub slot: u32,
    /// Remote key of the sink pool's region (64-bit in this model).
    pub rkey: u64,
    /// Byte offset of the block within the region.
    pub offset: u64,
    /// Capacity of the block (header + data).
    pub len: u32,
}

const CREDIT_WIRE_LEN: usize = 4 + 8 + 8 + 4;

/// Maximum credits per `Credits` message (fits the slot with headroom).
pub const MAX_CREDITS_PER_MSG: usize = 8;

/// Maximum parallel data channels a `SessionAccept` can carry.
pub const MAX_CHANNELS: usize = 32;

/// One coalesced block-completion entry inside an [`CtrlMsg::AckBatch`]:
/// the same (seq, slot, len) triple a `BlockComplete` carries, minus the
/// per-message header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockAck {
    pub seq: u32,
    pub slot: u32,
    pub len: u32,
}

const ACK_WIRE_LEN: usize = 4 + 4 + 4;

/// Maximum entries per `AckBatch` (8-byte header + 2-byte count +
/// 16 × 12 bytes = 202, fits the slot with headroom).
pub const MAX_ACKS_PER_BATCH: usize = 16;

/// Maximum slot indices per `CreditBatch` (8 + 8 + 4 + 2 + 32 × 4 = 150).
pub const MAX_SLOTS_PER_CREDIT_BATCH: usize = 32;

/// Control message body (Fig. 7a "Type" + "Type Associated Data").
///
/// ```
/// use rftp_core::wire::{CtrlMsg, CTRL_SLOT_LEN};
/// let msg = CtrlMsg::BlockComplete { session: 7, seq: 42, slot: 3, len: 4096 };
/// let mut buf = [0u8; CTRL_SLOT_LEN];
/// let n = msg.encode(&mut buf);
/// assert_eq!(CtrlMsg::decode(&buf[..n]).unwrap(), msg);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CtrlMsg {
    /// Phase 1: the source proposes transfer parameters.
    SessionRequest {
        session: u32,
        /// Proposed data bytes per block.
        block_size: u64,
        /// Requested parallel data channels (0 = reuse existing).
        channels: u16,
        /// Total dataset bytes for this job.
        total_bytes: u64,
        /// Completion notification mode (see `config::NotifyMode`).
        notify_imm: bool,
    },
    /// Phase 1: the sink accepts and returns its data-channel QPNs.
    SessionAccept {
        session: u32,
        block_size: u64,
        data_qpns: Vec<u32>,
    },
    /// Phase 1: the sink rejects (e.g. block size beyond its memory).
    SessionReject { session: u32, reason: u8 },
    /// Phase 1: the sink's admission control turned the session away —
    /// not a geometry error (that is `SessionReject`) but transient
    /// saturation: every arena slot or session-table entry is in use.
    /// The source should retry no sooner than `retry_after_ms`.
    SessionBusy { session: u32, retry_after_ms: u32 },
    /// Phase 1: the source confirms its channel endpoints are connected.
    ChannelsReady { session: u32 },
    /// Phase 2: memory-region block information response — one or more
    /// credits, sent proactively or in answer to `MrRequest`.
    Credits { session: u32, credits: Vec<Credit> },
    /// Phase 2: memory-region block information request — the source ran
    /// out of credits and is blocked.
    MrRequest { session: u32 },
    /// Phase 2: block transfer completion notification — block `seq`
    /// landed in sink slot `slot` with `len` payload bytes.
    BlockComplete {
        session: u32,
        seq: u32,
        slot: u32,
        len: u32,
    },
    /// Phase 3: the whole dataset was transferred.
    DatasetComplete { session: u32, total_blocks: u32 },
    /// Recovery: the source reconnected after a fatal QP error and asks
    /// to resume the session where it left off. `next_seq` is the lowest
    /// sequence the source cannot prove was delivered. `nonce` identifies
    /// the resume attempt: the sink echoes it, and the source honours
    /// only the accept matching its latest attempt — an accept for a
    /// superseded attempt describes credits the sink has since revoked.
    /// The sink resets its side of the data channels before answering.
    SessionResume {
        session: u32,
        next_seq: u32,
        nonce: u32,
    },
    /// Recovery: the sink agrees to resume. `resume_from` is the sink's
    /// next expected sequence — every block below it is already placed
    /// and must not be re-sent; blocks at or above it will be re-credited.
    /// `nonce` echoes the `SessionResume` this answers.
    ResumeAccept {
        session: u32,
        resume_from: u32,
        nonce: u32,
    },
    /// Phase 2, coalesced: up to [`MAX_ACKS_PER_BATCH`] block-completion
    /// notifications in one control message. Semantically identical to
    /// that many `BlockComplete`s in order; the receiver processes each
    /// entry independently (including its per-completion credit grants),
    /// so the 2-per-completion ramp is unchanged — only the per-message
    /// overhead is amortized.
    AckBatch { session: u32, acks: Vec<BlockAck> },
    /// Phase 2, coalesced: up to [`MAX_SLOTS_PER_CREDIT_BATCH`] credits
    /// in one message, in the compact pool form — one shared (rkey,
    /// slot_len) and a list of slot indices; slot `i` is the block at
    /// offset `i * slot_len`. 4 wire bytes per credit instead of 24, and
    /// one message where `Credits` needs many.
    CreditBatch {
        session: u32,
        rkey: u64,
        /// Capacity of every granted block (header + data).
        slot_len: u32,
        slots: Vec<u32>,
    },
}

/// Rejection reasons for `SessionReject`.
pub mod reject_reason {
    pub const BLOCK_TOO_LARGE: u8 = 1;
    pub const TOO_MANY_CHANNELS: u8 = 2;
    pub const BUSY: u8 = 3;
}

/// Decode failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    Truncated,
    UnknownType(u16),
    BadCount,
    /// A stream frame's length prefix is outside the legal body range
    /// (shorter than a control header or longer than a control slot) —
    /// the byte stream is desynchronized or corrupt.
    BadFrameLen(u16),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated message"),
            WireError::UnknownType(t) => write!(f, "unknown message type {t}"),
            WireError::BadCount => write!(f, "batch count out of range"),
            WireError::BadFrameLen(n) => write!(f, "bad stream frame length {n}"),
        }
    }
}

impl std::error::Error for WireError {}

const T_SESSION_REQUEST: u16 = 1;
const T_SESSION_ACCEPT: u16 = 2;
const T_SESSION_REJECT: u16 = 3;
const T_CHANNELS_READY: u16 = 4;
const T_CREDITS: u16 = 5;
const T_MR_REQUEST: u16 = 6;
const T_BLOCK_COMPLETE: u16 = 7;
const T_DATASET_COMPLETE: u16 = 8;
const T_SESSION_RESUME: u16 = 9;
const T_RESUME_ACCEPT: u16 = 10;
const T_ACK_BATCH: u16 = 11;
const T_CREDIT_BATCH: u16 = 12;
const T_SESSION_BUSY: u16 = 13;

impl CtrlMsg {
    pub fn session(&self) -> u32 {
        match *self {
            CtrlMsg::SessionRequest { session, .. }
            | CtrlMsg::SessionAccept { session, .. }
            | CtrlMsg::SessionReject { session, .. }
            | CtrlMsg::ChannelsReady { session }
            | CtrlMsg::Credits { session, .. }
            | CtrlMsg::MrRequest { session }
            | CtrlMsg::BlockComplete { session, .. }
            | CtrlMsg::DatasetComplete { session, .. }
            | CtrlMsg::SessionResume { session, .. }
            | CtrlMsg::ResumeAccept { session, .. }
            | CtrlMsg::AckBatch { session, .. }
            | CtrlMsg::CreditBatch { session, .. }
            | CtrlMsg::SessionBusy { session, .. } => session,
        }
    }

    fn type_code(&self) -> u16 {
        match self {
            CtrlMsg::SessionRequest { .. } => T_SESSION_REQUEST,
            CtrlMsg::SessionAccept { .. } => T_SESSION_ACCEPT,
            CtrlMsg::SessionReject { .. } => T_SESSION_REJECT,
            CtrlMsg::ChannelsReady { .. } => T_CHANNELS_READY,
            CtrlMsg::Credits { .. } => T_CREDITS,
            CtrlMsg::MrRequest { .. } => T_MR_REQUEST,
            CtrlMsg::BlockComplete { .. } => T_BLOCK_COMPLETE,
            CtrlMsg::DatasetComplete { .. } => T_DATASET_COMPLETE,
            CtrlMsg::SessionResume { .. } => T_SESSION_RESUME,
            CtrlMsg::ResumeAccept { .. } => T_RESUME_ACCEPT,
            CtrlMsg::AckBatch { .. } => T_ACK_BATCH,
            CtrlMsg::CreditBatch { .. } => T_CREDIT_BATCH,
            CtrlMsg::SessionBusy { .. } => T_SESSION_BUSY,
        }
    }

    /// Encode into `buf`; returns bytes written. Panics if the message
    /// violates the documented maxima (caller bugs, not wire conditions).
    pub fn encode(&self, buf: &mut [u8]) -> usize {
        let mut w = &mut buf[..];
        let start = w.remaining_mut();
        w.put_u16(self.type_code());
        w.put_u16(0); // flags, reserved
        w.put_u32(self.session());
        match self {
            CtrlMsg::SessionRequest {
                block_size,
                channels,
                total_bytes,
                notify_imm,
                ..
            } => {
                w.put_u64(*block_size);
                w.put_u16(*channels);
                w.put_u8(u8::from(*notify_imm));
                w.put_u8(0);
                w.put_u64(*total_bytes);
            }
            CtrlMsg::SessionAccept {
                block_size,
                data_qpns,
                ..
            } => {
                assert!(data_qpns.len() <= MAX_CHANNELS, "too many channels");
                w.put_u64(*block_size);
                w.put_u16(data_qpns.len() as u16);
                for q in data_qpns {
                    w.put_u32(*q);
                }
            }
            CtrlMsg::SessionReject { reason, .. } => {
                w.put_u8(*reason);
            }
            CtrlMsg::SessionBusy { retry_after_ms, .. } => {
                w.put_u32(*retry_after_ms);
            }
            CtrlMsg::ChannelsReady { .. } | CtrlMsg::MrRequest { .. } => {}
            CtrlMsg::Credits { credits, .. } => {
                assert!(
                    !credits.is_empty() && credits.len() <= MAX_CREDITS_PER_MSG,
                    "credit batch size out of range"
                );
                w.put_u16(credits.len() as u16);
                for c in credits {
                    w.put_u32(c.slot);
                    w.put_u64(c.rkey);
                    w.put_u64(c.offset);
                    w.put_u32(c.len);
                }
            }
            CtrlMsg::BlockComplete { seq, slot, len, .. } => {
                w.put_u32(*seq);
                w.put_u32(*slot);
                w.put_u32(*len);
            }
            CtrlMsg::DatasetComplete { total_blocks, .. } => {
                w.put_u32(*total_blocks);
            }
            CtrlMsg::SessionResume {
                next_seq, nonce, ..
            } => {
                w.put_u32(*next_seq);
                w.put_u32(*nonce);
            }
            CtrlMsg::ResumeAccept {
                resume_from, nonce, ..
            } => {
                w.put_u32(*resume_from);
                w.put_u32(*nonce);
            }
            CtrlMsg::AckBatch { acks, .. } => {
                assert!(
                    !acks.is_empty() && acks.len() <= MAX_ACKS_PER_BATCH,
                    "ack batch size out of range"
                );
                w.put_u16(acks.len() as u16);
                for a in acks {
                    w.put_u32(a.seq);
                    w.put_u32(a.slot);
                    w.put_u32(a.len);
                }
            }
            CtrlMsg::CreditBatch {
                rkey,
                slot_len,
                slots,
                ..
            } => {
                assert!(
                    !slots.is_empty() && slots.len() <= MAX_SLOTS_PER_CREDIT_BATCH,
                    "credit batch size out of range"
                );
                w.put_u64(*rkey);
                w.put_u32(*slot_len);
                w.put_u16(slots.len() as u16);
                for s in slots {
                    w.put_u32(*s);
                }
            }
        }
        start - w.remaining_mut()
    }

    /// Decode from `buf`.
    pub fn decode(mut buf: &[u8]) -> Result<CtrlMsg, WireError> {
        if buf.remaining() < 8 {
            return Err(WireError::Truncated);
        }
        let ty = buf.get_u16();
        let _flags = buf.get_u16();
        let session = buf.get_u32();
        let need = |b: &&[u8], n: usize| {
            if b.remaining() < n {
                Err(WireError::Truncated)
            } else {
                Ok(())
            }
        };
        match ty {
            T_SESSION_REQUEST => {
                need(&buf, 8 + 2 + 1 + 1 + 8)?;
                let block_size = buf.get_u64();
                let channels = buf.get_u16();
                let notify_imm = buf.get_u8() != 0;
                let _pad = buf.get_u8();
                let total_bytes = buf.get_u64();
                Ok(CtrlMsg::SessionRequest {
                    session,
                    block_size,
                    channels,
                    total_bytes,
                    notify_imm,
                })
            }
            T_SESSION_ACCEPT => {
                need(&buf, 10)?;
                let block_size = buf.get_u64();
                let n = buf.get_u16() as usize;
                if n > MAX_CHANNELS {
                    return Err(WireError::BadCount);
                }
                need(&buf, 4 * n)?;
                let data_qpns = (0..n).map(|_| buf.get_u32()).collect();
                Ok(CtrlMsg::SessionAccept {
                    session,
                    block_size,
                    data_qpns,
                })
            }
            T_SESSION_REJECT => {
                need(&buf, 1)?;
                Ok(CtrlMsg::SessionReject {
                    session,
                    reason: buf.get_u8(),
                })
            }
            T_SESSION_BUSY => {
                need(&buf, 4)?;
                Ok(CtrlMsg::SessionBusy {
                    session,
                    retry_after_ms: buf.get_u32(),
                })
            }
            T_CHANNELS_READY => Ok(CtrlMsg::ChannelsReady { session }),
            T_CREDITS => {
                need(&buf, 2)?;
                let n = buf.get_u16() as usize;
                if n == 0 || n > MAX_CREDITS_PER_MSG {
                    return Err(WireError::BadCount);
                }
                need(&buf, n * CREDIT_WIRE_LEN)?;
                let credits = (0..n)
                    .map(|_| Credit {
                        slot: buf.get_u32(),
                        rkey: buf.get_u64(),
                        offset: buf.get_u64(),
                        len: buf.get_u32(),
                    })
                    .collect();
                Ok(CtrlMsg::Credits { session, credits })
            }
            T_MR_REQUEST => Ok(CtrlMsg::MrRequest { session }),
            T_BLOCK_COMPLETE => {
                need(&buf, 12)?;
                Ok(CtrlMsg::BlockComplete {
                    session,
                    seq: buf.get_u32(),
                    slot: buf.get_u32(),
                    len: buf.get_u32(),
                })
            }
            T_DATASET_COMPLETE => {
                need(&buf, 4)?;
                Ok(CtrlMsg::DatasetComplete {
                    session,
                    total_blocks: buf.get_u32(),
                })
            }
            T_SESSION_RESUME => {
                need(&buf, 8)?;
                Ok(CtrlMsg::SessionResume {
                    session,
                    next_seq: buf.get_u32(),
                    nonce: buf.get_u32(),
                })
            }
            T_RESUME_ACCEPT => {
                need(&buf, 8)?;
                Ok(CtrlMsg::ResumeAccept {
                    session,
                    resume_from: buf.get_u32(),
                    nonce: buf.get_u32(),
                })
            }
            T_ACK_BATCH => {
                need(&buf, 2)?;
                let n = buf.get_u16() as usize;
                if n == 0 || n > MAX_ACKS_PER_BATCH {
                    return Err(WireError::BadCount);
                }
                need(&buf, n * ACK_WIRE_LEN)?;
                let acks = (0..n)
                    .map(|_| BlockAck {
                        seq: buf.get_u32(),
                        slot: buf.get_u32(),
                        len: buf.get_u32(),
                    })
                    .collect();
                Ok(CtrlMsg::AckBatch { session, acks })
            }
            T_CREDIT_BATCH => {
                need(&buf, 8 + 4 + 2)?;
                let rkey = buf.get_u64();
                let slot_len = buf.get_u32();
                let n = buf.get_u16() as usize;
                if n == 0 || n > MAX_SLOTS_PER_CREDIT_BATCH {
                    return Err(WireError::BadCount);
                }
                need(&buf, 4 * n)?;
                let slots = (0..n).map(|_| buf.get_u32()).collect();
                Ok(CtrlMsg::CreditBatch {
                    session,
                    rkey,
                    slot_len,
                    slots,
                })
            }
            other => Err(WireError::UnknownType(other)),
        }
    }
}

/// Payload block header (Fig. 7b), prepended to every bulk data block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PayloadHeader {
    pub session: u32,
    pub seq: u32,
    /// Byte offset of this block within the dataset.
    pub offset: u64,
    /// User payload length (the last block may be short).
    pub len: u32,
}

impl PayloadHeader {
    pub fn encode(&self, buf: &mut [u8]) {
        assert!(buf.len() >= PAYLOAD_HEADER_LEN);
        let mut w = &mut buf[..];
        w.put_u32(self.session);
        w.put_u32(self.seq);
        w.put_u64(self.offset);
        w.put_u32(self.len);
        w.put_u32(0); // reserved
    }

    pub fn decode(mut buf: &[u8]) -> Result<PayloadHeader, WireError> {
        if buf.remaining() < PAYLOAD_HEADER_LEN {
            return Err(WireError::Truncated);
        }
        let session = buf.get_u32();
        let seq = buf.get_u32();
        let offset = buf.get_u64();
        let len = buf.get_u32();
        let _reserved = buf.get_u32();
        Ok(PayloadHeader {
            session,
            seq,
            offset,
            len,
        })
    }
}

// ---------------------------------------------------------------------------
// Stream framing (byte-stream transports)
// ---------------------------------------------------------------------------
//
// The simulated fabric and the in-process pipeline move control messages
// as discrete SEND/RECV slots, so message boundaries are free. A byte
// stream (TCP) has none: control frames are therefore length-prefixed —
// a 2-byte big-endian body length followed by the encoded `CtrlMsg` —
// and bulk data frames carry a fixed 16-byte `DataFrameHeader` naming
// the credited slot the payload bytes land in, so the receiver can read
// the wire image straight into sink memory (the RDMA WRITE analogue:
// placement needs no intermediate buffer).

/// Bytes of the control-frame length prefix.
pub const FRAME_PREFIX_LEN: usize = 2;

/// Largest legal control-frame body (a frame is at most one slot).
pub const MAX_FRAME_BODY: usize = CTRL_SLOT_LEN;

/// Smallest legal control-frame body (the fixed type/flags/session header).
pub const MIN_FRAME_BODY: usize = 8;

/// Encode `msg` as one length-prefixed stream frame into `buf`; returns
/// total bytes written (prefix + body). `buf` must hold at least
/// [`FRAME_PREFIX_LEN`] + [`CTRL_SLOT_LEN`] bytes.
pub fn encode_stream_frame(msg: &CtrlMsg, buf: &mut [u8]) -> usize {
    let body = msg.encode(&mut buf[FRAME_PREFIX_LEN..]);
    debug_assert!((MIN_FRAME_BODY..=MAX_FRAME_BODY).contains(&body));
    buf[..FRAME_PREFIX_LEN].copy_from_slice(&(body as u16).to_be_bytes());
    FRAME_PREFIX_LEN + body
}

/// Incremental decoder for length-prefixed control frames arriving in
/// arbitrary chunks — a TCP read can return any split of the stream, so
/// the decoder buffers partial frames across [`FrameDecoder::push`]
/// calls and yields each message exactly once, regardless of how the
/// bytes were chunked (1-byte reads up to many-frames-per-read).
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Consumed prefix of `buf`, compacted away on the next `push`.
    pos: usize,
}

impl FrameDecoder {
    pub fn new() -> FrameDecoder {
        FrameDecoder::default()
    }

    /// Append freshly read stream bytes.
    pub fn push(&mut self, chunk: &[u8]) {
        if self.pos > 0 {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(chunk);
    }

    /// Unconsumed bytes held (0 means the stream is at a frame boundary
    /// — the state a clean end-of-stream must arrive in).
    pub fn pending_bytes(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Decode the next complete frame, if the buffered bytes hold one.
    /// `Ok(None)` means "need more bytes"; an error means the stream is
    /// desynchronized and the connection must be torn down (stream
    /// framing has no resync point).
    pub fn next_frame(&mut self) -> Result<Option<CtrlMsg>, WireError> {
        let avail = self.pending_bytes();
        if avail < FRAME_PREFIX_LEN {
            return Ok(None);
        }
        let body = u16::from_be_bytes([self.buf[self.pos], self.buf[self.pos + 1]]) as usize;
        if !(MIN_FRAME_BODY..=MAX_FRAME_BODY).contains(&body) {
            return Err(WireError::BadFrameLen(body as u16));
        }
        if avail < FRAME_PREFIX_LEN + body {
            return Ok(None);
        }
        let start = self.pos + FRAME_PREFIX_LEN;
        let msg = CtrlMsg::decode(&self.buf[start..start + body])?;
        self.pos = start + body;
        Ok(Some(msg))
    }
}

/// Length of the bulk data-frame header on a byte-stream transport.
pub const DATA_FRAME_HEADER_LEN: usize = 16;

/// Header of one bulk data frame on a stream transport: the "RDMA WRITE
/// descriptor". It names the credited sink slot (so the receiver places
/// the following wire image — payload header + payload — directly into
/// that slot's registered buffer), repeats (session, seq) for dedup
/// before placement, and carries the user payload length so the frame
/// boundary is known up front.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DataFrameHeader {
    pub session: u32,
    pub seq: u32,
    /// Sink-pool slot the credit named — where the wire image lands.
    pub slot: u32,
    /// User payload length (the wire image is this plus the 24-byte
    /// payload header).
    pub len: u32,
}

impl DataFrameHeader {
    /// Bytes of wire image (payload header + payload) that follow this
    /// frame header on the stream.
    pub fn wire_len(&self) -> usize {
        PAYLOAD_HEADER_LEN + self.len as usize
    }

    pub fn encode(&self, buf: &mut [u8]) {
        assert!(buf.len() >= DATA_FRAME_HEADER_LEN);
        let mut w = &mut buf[..];
        w.put_u32(self.session);
        w.put_u32(self.seq);
        w.put_u32(self.slot);
        w.put_u32(self.len);
    }

    pub fn decode(mut buf: &[u8]) -> Result<DataFrameHeader, WireError> {
        if buf.remaining() < DATA_FRAME_HEADER_LEN {
            return Err(WireError::Truncated);
        }
        Ok(DataFrameHeader {
            session: buf.get_u32(),
            seq: buf.get_u32(),
            slot: buf.get_u32(),
            len: buf.get_u32(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(msg: CtrlMsg) {
        let mut buf = [0u8; CTRL_SLOT_LEN];
        let n = msg.encode(&mut buf);
        assert!(n <= CTRL_SLOT_LEN);
        let back = CtrlMsg::decode(&buf[..n]).expect("decode");
        assert_eq!(back, msg);
    }

    // spec: [P3-ctrl-types] [P8-wire-roundtrip]
    #[test]
    fn all_variants_roundtrip() {
        roundtrip(CtrlMsg::SessionRequest {
            session: 7,
            block_size: 4 << 20,
            channels: 8,
            total_bytes: 900 << 30,
            notify_imm: true,
        });
        roundtrip(CtrlMsg::SessionAccept {
            session: 7,
            block_size: 4 << 20,
            data_qpns: vec![3, 4, 5, 6],
        });
        roundtrip(CtrlMsg::SessionReject {
            session: 7,
            reason: reject_reason::BLOCK_TOO_LARGE,
        });
        roundtrip(CtrlMsg::SessionBusy {
            session: 7,
            retry_after_ms: 250,
        });
        roundtrip(CtrlMsg::ChannelsReady { session: 7 });
        roundtrip(CtrlMsg::Credits {
            session: 7,
            credits: vec![
                Credit {
                    slot: 1,
                    rkey: 0xDEAD_BEEF_0000_0001,
                    offset: 128 << 10,
                    len: 131_096,
                },
                Credit {
                    slot: 9,
                    rkey: 0xDEAD_BEEF_0000_0001,
                    offset: 0,
                    len: 131_096,
                },
            ],
        });
        roundtrip(CtrlMsg::MrRequest { session: 7 });
        roundtrip(CtrlMsg::BlockComplete {
            session: 7,
            seq: 123456,
            slot: 3,
            len: 4096,
        });
        roundtrip(CtrlMsg::DatasetComplete {
            session: 7,
            total_blocks: 1 << 20,
        });
        roundtrip(CtrlMsg::SessionResume {
            session: 7,
            next_seq: 77,
            nonce: 3,
        });
        roundtrip(CtrlMsg::ResumeAccept {
            session: 7,
            resume_from: 75,
            nonce: 3,
        });
        roundtrip(CtrlMsg::AckBatch {
            session: 7,
            acks: vec![
                BlockAck {
                    seq: 9,
                    slot: 2,
                    len: 65536,
                },
                BlockAck {
                    seq: 10,
                    slot: 0,
                    len: 777,
                },
            ],
        });
        roundtrip(CtrlMsg::CreditBatch {
            session: 7,
            rkey: 0x11FE,
            slot_len: 65560,
            slots: vec![0, 3, 1, 7],
        });
    }

    /// Batches shorter than the maximum — the partial final batch a
    /// coalescing sender flushes at a drain boundary or end of transfer —
    /// must round-trip at every size from 1 to the cap.
    /// The byte layouts of the spec tables: every control message opens
    /// with its table number, zero flags and the session, big-endian;
    /// the payload header is its five big-endian fields in order.
    // spec: [P2-payload-header] [P3-ctrl-header] [P3-ctrl-types]
    #[test]
    fn wire_layouts_match_the_spec_tables() {
        let table = [
            (
                1,
                CtrlMsg::SessionRequest {
                    session: 0xA1B2_C3D4,
                    block_size: 1,
                    channels: 1,
                    total_bytes: 1,
                    notify_imm: true,
                },
            ),
            (
                2,
                CtrlMsg::SessionAccept {
                    session: 0xA1B2_C3D4,
                    block_size: 1,
                    data_qpns: vec![1],
                },
            ),
            (
                3,
                CtrlMsg::SessionReject {
                    session: 0xA1B2_C3D4,
                    reason: reject_reason::BUSY,
                },
            ),
            (
                4,
                CtrlMsg::ChannelsReady {
                    session: 0xA1B2_C3D4,
                },
            ),
            (
                5,
                CtrlMsg::Credits {
                    session: 0xA1B2_C3D4,
                    credits: vec![Credit {
                        slot: 1,
                        rkey: 1,
                        offset: 0,
                        len: 1,
                    }],
                },
            ),
            (
                6,
                CtrlMsg::MrRequest {
                    session: 0xA1B2_C3D4,
                },
            ),
            (
                7,
                CtrlMsg::BlockComplete {
                    session: 0xA1B2_C3D4,
                    seq: 1,
                    slot: 1,
                    len: 1,
                },
            ),
            (
                8,
                CtrlMsg::DatasetComplete {
                    session: 0xA1B2_C3D4,
                    total_blocks: 1,
                },
            ),
            (
                9,
                CtrlMsg::SessionResume {
                    session: 0xA1B2_C3D4,
                    next_seq: 1,
                    nonce: 1,
                },
            ),
            (
                10,
                CtrlMsg::ResumeAccept {
                    session: 0xA1B2_C3D4,
                    resume_from: 1,
                    nonce: 1,
                },
            ),
            (
                11,
                CtrlMsg::AckBatch {
                    session: 0xA1B2_C3D4,
                    acks: vec![BlockAck {
                        seq: 1,
                        slot: 1,
                        len: 1,
                    }],
                },
            ),
            (
                12,
                CtrlMsg::CreditBatch {
                    session: 0xA1B2_C3D4,
                    rkey: 1,
                    slot_len: 1,
                    slots: vec![1],
                },
            ),
            (
                13,
                CtrlMsg::SessionBusy {
                    session: 0xA1B2_C3D4,
                    retry_after_ms: 1,
                },
            ),
        ];
        for (code, msg) in table {
            let mut buf = [0u8; CTRL_SLOT_LEN];
            msg.encode(&mut buf);
            let mut head = [0u8; 8];
            head[..2].copy_from_slice(&(code as u16).to_be_bytes());
            head[4..].copy_from_slice(&0xA1B2_C3D4u32.to_be_bytes());
            assert_eq!(buf[..8], head, "{msg:?}");
        }
        assert_eq!(
            (
                reject_reason::BLOCK_TOO_LARGE,
                reject_reason::TOO_MANY_CHANNELS
            ),
            (1, 2)
        );

        let mut buf = [0xFFu8; PAYLOAD_HEADER_LEN];
        PayloadHeader {
            session: 0x0102_0304,
            seq: 0x0506_0708,
            offset: 0x090A_0B0C_0D0E_0F10,
            len: 0x1112_1314,
        }
        .encode(&mut buf);
        let want: Vec<u8> = (1..=20).chain([0; 4]).collect();
        assert_eq!(buf[..], want[..]);
    }

    // spec: [P3-ctrl-types]
    #[test]
    fn partial_final_batches_roundtrip() {
        for n in 1..=MAX_ACKS_PER_BATCH {
            roundtrip(CtrlMsg::AckBatch {
                session: 3,
                acks: (0..n as u32)
                    .map(|i| BlockAck {
                        seq: 1000 + i,
                        slot: i % 8,
                        len: if i == n as u32 - 1 { 123 } else { 65536 },
                    })
                    .collect(),
            });
        }
        for n in 1..=MAX_SLOTS_PER_CREDIT_BATCH {
            roundtrip(CtrlMsg::CreditBatch {
                session: 3,
                rkey: u64::MAX,
                slot_len: 1 << 20,
                slots: (0..n as u32).rev().collect(),
            });
        }
    }

    // spec: [P3-ctrl-types]
    #[test]
    fn batch_sizes_out_of_range_rejected() {
        // AckBatch with count 0 and count > max.
        for bad in [0u16, MAX_ACKS_PER_BATCH as u16 + 1] {
            let mut buf = [0u8; CTRL_SLOT_LEN];
            let mut w = &mut buf[..];
            w.put_u16(T_ACK_BATCH);
            w.put_u16(0);
            w.put_u32(1);
            w.put_u16(bad);
            assert_eq!(CtrlMsg::decode(&buf), Err(WireError::BadCount));
        }
        for bad in [0u16, MAX_SLOTS_PER_CREDIT_BATCH as u16 + 1] {
            let mut buf = [0u8; CTRL_SLOT_LEN];
            let mut w = &mut buf[..];
            w.put_u16(T_CREDIT_BATCH);
            w.put_u16(0);
            w.put_u32(1);
            w.put_u64(0);
            w.put_u32(4096);
            w.put_u16(bad);
            assert_eq!(CtrlMsg::decode(&buf), Err(WireError::BadCount));
        }
    }

    // spec: [P3-ctrl-header]
    #[test]
    fn max_size_variants_fit_the_slot() {
        let mut buf = [0u8; CTRL_SLOT_LEN];
        let accept = CtrlMsg::SessionAccept {
            session: 1,
            block_size: u64::MAX,
            data_qpns: (0..MAX_CHANNELS as u32).collect(),
        };
        assert!(accept.encode(&mut buf) <= CTRL_SLOT_LEN);
        let credits = CtrlMsg::Credits {
            session: 1,
            credits: vec![
                Credit {
                    slot: u32::MAX,
                    rkey: u64::MAX,
                    offset: u64::MAX,
                    len: u32::MAX,
                };
                MAX_CREDITS_PER_MSG
            ],
        };
        assert!(credits.encode(&mut buf) <= CTRL_SLOT_LEN);
        let acks = CtrlMsg::AckBatch {
            session: 1,
            acks: vec![
                BlockAck {
                    seq: u32::MAX,
                    slot: u32::MAX,
                    len: u32::MAX,
                };
                MAX_ACKS_PER_BATCH
            ],
        };
        assert!(acks.encode(&mut buf) <= CTRL_SLOT_LEN);
        let batch = CtrlMsg::CreditBatch {
            session: 1,
            rkey: u64::MAX,
            slot_len: u32::MAX,
            slots: vec![u32::MAX; MAX_SLOTS_PER_CREDIT_BATCH],
        };
        assert!(batch.encode(&mut buf) <= CTRL_SLOT_LEN);
    }

    // spec: [P3-ctrl-types]
    #[test]
    fn truncation_is_detected() {
        let mut buf = [0u8; CTRL_SLOT_LEN];
        let msg = CtrlMsg::BlockComplete {
            session: 1,
            seq: 2,
            slot: 3,
            len: 4,
        };
        let n = msg.encode(&mut buf);
        for cut in 0..n {
            assert!(
                CtrlMsg::decode(&buf[..cut]).is_err(),
                "cut at {cut} must fail"
            );
        }
        let busy = CtrlMsg::SessionBusy {
            session: 1,
            retry_after_ms: 100,
        };
        let n = busy.encode(&mut buf);
        for cut in 0..n {
            assert!(
                CtrlMsg::decode(&buf[..cut]).is_err(),
                "busy cut at {cut} must fail"
            );
        }
    }

    // spec: [P3-ctrl-types]
    #[test]
    fn unknown_type_rejected() {
        let mut buf = [0u8; 8];
        (&mut buf[..]).put_u16(999);
        assert_eq!(CtrlMsg::decode(&buf), Err(WireError::UnknownType(999)));
    }

    // spec: [P3-ctrl-types]
    #[test]
    fn bad_counts_rejected() {
        // Credits with count 0.
        let mut buf = [0u8; 16];
        {
            let mut w = &mut buf[..];
            w.put_u16(T_CREDITS);
            w.put_u16(0);
            w.put_u32(1);
            w.put_u16(0);
        }
        assert_eq!(CtrlMsg::decode(&buf), Err(WireError::BadCount));
    }

    // spec: [P2-payload-header]
    #[test]
    fn payload_header_roundtrip() {
        let h = PayloadHeader {
            session: 42,
            seq: 1_000_000,
            offset: 900u64 << 30,
            len: 64 << 20,
        };
        let mut buf = [0u8; PAYLOAD_HEADER_LEN];
        h.encode(&mut buf);
        assert_eq!(PayloadHeader::decode(&buf).unwrap(), h);
    }

    // spec: [P2-payload-header]
    #[test]
    fn payload_header_is_24_bytes() {
        // Fig. 7b: 32 + 32 + 64 + 32 + 32 bits.
        assert_eq!(PAYLOAD_HEADER_LEN, 24);
    }

    // spec: [P7-ctrl-codec]
    #[test]
    fn stream_frames_roundtrip_through_the_decoder() {
        let msgs = vec![
            CtrlMsg::SessionRequest {
                session: 1,
                block_size: 256 << 10,
                channels: 8,
                total_bytes: 1 << 30,
                notify_imm: false,
            },
            CtrlMsg::MrRequest { session: 1 },
            CtrlMsg::CreditBatch {
                session: 1,
                rkey: 0x11FE,
                slot_len: 65560,
                slots: vec![0, 5, 2],
            },
            CtrlMsg::AckBatch {
                session: 1,
                acks: vec![BlockAck {
                    seq: 7,
                    slot: 5,
                    len: 777,
                }],
            },
            CtrlMsg::DatasetComplete {
                session: 1,
                total_blocks: 8,
            },
        ];
        let mut stream = Vec::new();
        for m in &msgs {
            let mut buf = [0u8; FRAME_PREFIX_LEN + CTRL_SLOT_LEN];
            let n = encode_stream_frame(m, &mut buf);
            stream.extend_from_slice(&buf[..n]);
        }
        // Whole stream in one push.
        let mut dec = FrameDecoder::new();
        dec.push(&stream);
        let mut got = Vec::new();
        while let Some(m) = dec.next_frame().expect("decode") {
            got.push(m);
        }
        assert_eq!(got, msgs);
        assert_eq!(dec.pending_bytes(), 0);
        // One byte at a time.
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        for b in &stream {
            dec.push(std::slice::from_ref(b));
            while let Some(m) = dec.next_frame().expect("decode") {
                got.push(m);
            }
        }
        assert_eq!(got, msgs);
        assert_eq!(dec.pending_bytes(), 0);
    }

    // spec: [P7-ctrl-codec]
    #[test]
    fn frame_decoder_rejects_bad_length_prefixes() {
        for bad in [0u16, 7, CTRL_SLOT_LEN as u16 + 1, u16::MAX] {
            let mut dec = FrameDecoder::new();
            dec.push(&bad.to_be_bytes());
            assert_eq!(dec.next_frame(), Err(WireError::BadFrameLen(bad)));
        }
    }

    // spec: [P7-ctrl-codec]
    #[test]
    fn frame_decoder_reports_mid_frame_state() {
        let mut buf = [0u8; FRAME_PREFIX_LEN + CTRL_SLOT_LEN];
        let n = encode_stream_frame(&CtrlMsg::MrRequest { session: 9 }, &mut buf);
        let mut dec = FrameDecoder::new();
        dec.push(&buf[..n - 1]);
        assert_eq!(dec.next_frame(), Ok(None));
        assert!(dec.pending_bytes() > 0, "a torn frame must be visible");
        dec.push(&buf[n - 1..n]);
        assert_eq!(
            dec.next_frame(),
            Ok(Some(CtrlMsg::MrRequest { session: 9 }))
        );
        assert_eq!(dec.pending_bytes(), 0);
    }

    // spec: [P7-data-frame]
    #[test]
    fn data_frame_header_roundtrip() {
        let h = DataFrameHeader {
            session: 1,
            seq: 123456,
            slot: 31,
            len: 256 << 10,
        };
        let mut buf = [0u8; DATA_FRAME_HEADER_LEN];
        h.encode(&mut buf);
        assert_eq!(DataFrameHeader::decode(&buf).unwrap(), h);
        assert_eq!(h.wire_len(), PAYLOAD_HEADER_LEN + (256 << 10));
        assert!(DataFrameHeader::decode(&buf[..15]).is_err());
    }
}
