//! Shared-memory one-sided transport: the sink's credited slot pool
//! *is* a memfd window both processes map, and a source "send" is a
//! store into the credited slot's memory — a real one-sided WRITE with
//! zero receiver-side payload copies. Only three things ever cross a
//! socket:
//!
//! * **control** (`UnixStream`) — the exact length-prefixed control
//!   frames every other backend speaks (credits, acks, session setup;
//!   PROTOCOL.md is byte-identical on this plane), plus a one-shot
//!   *window descriptor* preamble that also ferries the memfd file
//!   descriptor via `SCM_RIGHTS`;
//! * **notify** (`UnixStream`) — 16-byte
//!   [`DataFrameHeader`](rftp_core::wire::DataFrameHeader) records,
//!   source → sink: the WRITE-with-notification doorbell. The payload
//!   itself never touches this stream;
//! * **the window** — payload bytes, written exactly once, by the
//!   source's loader (a pattern fill or a file `pread`), directly into
//!   the slot the credit named: no source-side copy either.
//!
//! Session set-up is not this module's: both sockets open with the
//! `net` hello and are grouped by the one
//! `net::StreamAssembler` — this module only implements its
//! socket trait for `UnixStream` (nothing to tune; a control hello opens
//! one data stream, the notify stream at index 0) — and under the
//! daemon the pair climbs the one admission ladder, which hands it back
//! to `run_shm_session`, the same runner [`run_shm_sink`] calls.
//!
//! ## Window descriptor
//!
//! Sent by the sink on the control socket before any control frame,
//! with the memfd attached to the same `sendmsg`:
//!
//! ```text
//! offset  0..2    magic    0xFFFF (impossible frame length: control
//!                          frame bodies are capped at MAX_FRAME_BODY,
//!                          so a source reading the control stream can
//!                          always tell descriptor from frame)
//!         2..4    version  2
//!         4..8    slots    credited slot count (BE)
//!         8..16   stride   bytes per slot in the window (BE)
//!         16..20  cap      max payload bytes per block (BE)
//! ```
//!
//! Slot `i` sits at window byte `i × stride`, and the window is
//! `slots × stride` bytes: the geometry is the whole rkey table.
//!
//! A daemon that *rejects* a session (busy/geometry) replies with an
//! ordinary control frame and no descriptor — the source's control
//! reader sees a legal frame prefix instead of 0xFFFF and falls back to
//! plain frame decoding, so rejection needs no shared memory at all.
//!
//! ## Publication protocol (per slot)
//!
//! The first 8 bytes of each slot's stride are dead space on the wire
//! (the wire image starts at `STORE_ALIGN - PAYLOAD_HEADER_LEN`; see
//! `SlotBuf`) and hold one `AtomicU64` generation word:
//! `(epoch << 2) | state`, state ∈ {GRANTED=0, WRITING=1,
//! PUBLISHED=2}. Ownership alternates one-sidedly:
//!
//! * **sink, at credit time**: bump the epoch and release-store
//!   `(e, GRANTED)` — the slot now belongs to the source;
//! * **source, at load time**: a loader holding the credit
//!   acquire-loads the word, requires `GRANTED`, CASes to
//!   `(e, WRITING)` and writes the wire image straight into the slot;
//! * **source, at send time**: the sender release-stores
//!   `(e, PUBLISHED)` — the fence that replaces the receiver copy — and
//!   writes one notify record;
//! * **sink, at notify time**: acquire-load and require exactly
//!   `(e, PUBLISHED)` for the epoch it granted — anything else means a
//!   stale or torn write and fails the session loudly instead of
//!   verifying garbage.
//!
//! A retransmitted duplicate can therefore never tear a slot under
//! verification: the source keeps a per-slot `(last seq, epoch)` record
//! and a resend of an already-placed seq re-notifies without touching
//! memory, while a *stale* resend (the slot was since re-credited to a
//! newer block) is dropped entirely — see `SrcWindow::publish`.
//!
//! ## Trust model
//!
//! Same-host, same trust domain as the hello token (`net`): the peer
//! holds a writable mapping of **its own session's window** — one memfd
//! created for that session alone (`SessionWindow`), so under the
//! daemon a tenant can scribble its own in-flight payloads (the sink's
//! pattern comparison detects that, as with an RDMA rkey holder writing
//! your pinned memory) but can never see or corrupt another session's.
//! The unix sockets are created owner-only (0600): admission itself is
//! limited to the daemon's uid.
//!
//! ## Files
//!
//! `window` holds the memfd, `SCM_RIGHTS` passing and the descriptor;
//! `fence` the per-slot generation word; `source` and `sink` the two
//! halves' endpoints.

mod fence;
mod sink;
mod source;
mod window;

pub(crate) use sink::run_shm_session;
pub use sink::{run_shm_sink, ShmListener, ShmSessionStreams};
#[cfg(test)]
pub(crate) use window::{decode_desc_head, DESC_HEAD_LEN, DESC_MAGIC};
pub use {source::connect_source_shm, window::shm_supported};

// The unit tests live in `tests.rs` beside this file, under an `imp`
// module that keeps their names (`shm::imp::tests::…`) stable.
#[cfg(test)]
#[path = "."]
mod imp {
    use super::{fence, sink, source, window};
    mod tests;
}
