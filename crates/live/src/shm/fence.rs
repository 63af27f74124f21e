//! The per-slot generation word: the source's place and the sink's
//! grant and publication check, both sides of one handshake.

use super::window::WindowDesc;
use crate::net::proto_err;
use crate::store::{Mapping, STORE_ALIGN};
use parking_lot::Mutex;
use rftp_core::wire::{DataFrameHeader, PAYLOAD_HEADER_LEN};
use std::io;
use std::os::fd::OwnedFd;
use std::sync::atomic::{AtomicU64, Ordering};

// -----------------------------------------------------------------
// Per-slot generation word
// -----------------------------------------------------------------

/// Slot states in the low 2 bits of the generation word; the epoch
/// lives in the upper 62 and is bumped by the sink at every grant.
const SLOT_GRANTED: u64 = 0;
const SLOT_WRITING: u64 = 1;
const SLOT_PUBLISHED: u64 = 2;

fn word_of(epoch: u64, state: u64) -> u64 {
    (epoch << 2) | state
}

/// A mapped window's slots: slot `i` at `base + i × stride`, each
/// holding at most `block_cap` payload bytes.
struct Slots {
    map: Mapping,
    stride: usize,
    count: usize,
    block_cap: u32,
}

impl Slots {
    fn new(map: Mapping, desc: &WindowDesc) -> Slots {
        Slots {
            map,
            stride: desc.stride as usize,
            count: desc.slot_count as usize,
            block_cap: desc.block_cap,
        }
    }

    /// The slot `hdr` names, once it is known to lie in the window and
    /// to hold the payload `hdr` claims; `what` names the caller in the
    /// error.
    fn check(&self, hdr: &DataFrameHeader, what: &str) -> io::Result<usize> {
        let s = hdr.slot as usize;
        if s >= self.count {
            return Err(proto_err(format!(
                "shm {what}: slot {s} outside the {}-slot window",
                self.count
            )));
        }
        if hdr.len > self.block_cap {
            return Err(proto_err(format!(
                "shm {what}: payload {} exceeds window block cap {}",
                hdr.len, self.block_cap
            )));
        }
        Ok(s)
    }

    /// Slot `s`'s generation word: the first 8 bytes of its stride —
    /// dead space the wire image never touches (the image starts at
    /// `STORE_ALIGN - PAYLOAD_HEADER_LEN`).
    fn word(&self, s: usize) -> &AtomicU64 {
        let p = self.map.at(s * self.stride);
        // SAFETY: `p` is a slot base inside the mapping `self` owns, so
        // valid while `&self` is, and page-aligned; both processes touch
        // the word only through atomics.
        unsafe { AtomicU64::from_ptr(p.cast()) }
    }

    /// Where slot `s`'s wire image (payload header + payload) begins,
    /// matching [`crate::store::SlotBuf`]'s deref region.
    fn wire(&self, s: usize) -> *mut u8 {
        self.map
            .at(s * self.stride + STORE_ALIGN - PAYLOAD_HEADER_LEN)
    }
}

/// What the source last placed into one sink slot: the block seq and
/// the grant epoch it was published under. `seq == -1` means the
/// slot was never written by this session.
struct SentEntry {
    seq: i64,
    epoch: u64,
}

/// Outcome of a one-sided place attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PlaceOutcome {
    /// Fresh write: wire image stored, slot published — notify.
    Placed,
    /// Duplicate of the block already published in this slot —
    /// memory untouched, but the notify record is worth resending
    /// (the ack may be slow, and re-notifying is idempotent at the
    /// sink, which dedups on seq).
    Renotify,
    /// Stale retransmit: the slot has since been re-credited to a
    /// newer block. Dropped entirely — writing would tear the
    /// successor, notifying would lie.
    Stale,
}

/// The source's view of the sink's window: its slots and the per-slot send history that makes retransmits
/// tear-proof.
///
/// **Why the seq rule exists.** Credits can overtake acks: the sink
/// flushes a freed slot's re-grant immediately while the block's
/// ack may dwell in a coalescing batch. A slot can therefore be
/// re-credited and re-dispatched to a *new* block while the source
/// still considers the old block in flight and may re-send it. The
/// per-slot `(last seq, epoch)` record disambiguates every case by
/// seq comparison — the sender pairs blocks to slots in seq
/// order, so per-slot seqs are strictly monotonic:
///
/// * `hdr.seq > last`: first placement of a newer block — the word
///   must be `GRANTED` (anything else is a protocol fault, failed
///   loudly rather than hung);
/// * `hdr.seq == last`: a re-send of the same block —
///   re-notify if the slot still holds it published, else stale;
/// * `hdr.seq < last`: stale resend for a slot that moved on — drop.
pub(crate) struct SrcWindow {
    slots: Slots,
    sent: Vec<Mutex<SentEntry>>,
}

impl SrcWindow {
    pub(super) fn new(map: Mapping, desc: &WindowDesc) -> SrcWindow {
        let sent = (0..desc.slot_count)
            .map(|_| Mutex::new(SentEntry { seq: -1, epoch: 0 }))
            .collect();
        SrcWindow {
            slots: Slots::new(map, desc),
            sent,
        }
    }

    /// One-sided place of `wire` into the slot `hdr` names. This is
    /// the transport's entire data path: bounds checks, the
    /// generation-word handshake, one `memcpy` into shared memory,
    /// one release fence. No socket, no receiver copy.
    pub(crate) fn place(&self, hdr: &DataFrameHeader, wire: &[u8]) -> io::Result<PlaceOutcome> {
        let slot = self.slots.check(hdr, "place")?;
        assert_eq!(wire.len(), hdr.wire_len());
        let word = self.slots.word(slot);
        let mut entry = self.sent[slot].lock();
        let seq = hdr.seq as i64;
        if seq < entry.seq {
            return Ok(PlaceOutcome::Stale);
        }
        if seq == entry.seq {
            // Same block resent: if the slot still holds it
            // published under the same grant, the bytes are already
            // there (byte-identical by protocol) — never rewrite a
            // slot the sink may be verifying.
            let w = word.load(Ordering::Acquire);
            return if w == word_of(entry.epoch, SLOT_PUBLISHED) {
                Ok(PlaceOutcome::Renotify)
            } else {
                Ok(PlaceOutcome::Stale)
            };
        }
        // Fresh block for this slot: the sink must have re-granted.
        let w = word.load(Ordering::Acquire);
        if w & 0b11 != SLOT_GRANTED {
            return Err(proto_err(format!(
                "shm place: slot {slot} not granted (word {w:#x}) for seq {} — \
                 window desynchronized",
                hdr.seq
            )));
        }
        let epoch = w >> 2;
        if word
            .compare_exchange(
                w,
                word_of(epoch, SLOT_WRITING),
                Ordering::Acquire,
                Ordering::Relaxed,
            )
            .is_err()
        {
            return Err(proto_err(format!(
                "shm place: slot {slot} changed hands mid-claim — window desynchronized"
            )));
        }
        // SAFETY: the slot lies whole in the mapping and `wire`, as long
        // as `hdr` says, fits its payload room (`check`); the CAS above made this call its one
        // writer, and a shared mapping never aliases `wire`.
        unsafe {
            std::ptr::copy_nonoverlapping(wire.as_ptr(), self.slots.wire(slot), wire.len());
        }
        // The fence that replaces the receiver copy: everything
        // stored above happens-before any sink thread that
        // acquire-loads PUBLISHED.
        word.store(word_of(epoch, SLOT_PUBLISHED), Ordering::Release);
        entry.seq = seq;
        entry.epoch = epoch;
        Ok(PlaceOutcome::Placed)
    }
}

/// The sink's view of its own window: its slots and the epoch it
/// granted each slot at — what a published word must match before the
/// payload is trusted. Owns the mapping and memfd: every window is
/// created for exactly one session and dies with it.
pub(crate) struct SnkWindow {
    slots: Slots,
    /// Epoch granted per wire slot; a notify is only honoured when
    /// the slot word reads exactly `(expected, PUBLISHED)`.
    expected: Vec<AtomicU64>,
    _fd: OwnedFd,
}

impl SnkWindow {
    pub(crate) fn owned(map: Mapping, fd: OwnedFd, desc: &WindowDesc) -> SnkWindow {
        SnkWindow {
            slots: Slots::new(map, desc),
            expected: (0..desc.slot_count).map(|_| AtomicU64::new(0)).collect(),
            _fd: fd,
        }
    }

    /// Where wire slot `slot`'s image begins in this window.
    pub(super) fn wire_at(&self, slot: u32) -> *const u8 {
        self.slots.wire(slot as usize)
    }

    /// Hand slot ownership to the source: bump the epoch past
    /// whatever the word holds and release-store `GRANTED` — the
    /// bump-from-live-value keeps an earlier published word in this
    /// window from ever matching a new grant. Called by the control
    /// sender *before* the credit frame's bytes leave, so the grant
    /// is visible strictly before the credit that announces it.
    pub(super) fn grant(&self, slot: u32) {
        let s = slot as usize;
        if s >= self.slots.count {
            return; // granter never emits out-of-pool slots; defensive
        }
        let word = self.slots.word(s);
        let epoch = (word.load(Ordering::Acquire) >> 2).wrapping_add(1);
        self.expected[s].store(epoch, Ordering::Release);
        word.store(word_of(epoch, SLOT_GRANTED), Ordering::Release);
    }

    /// The acquire side of publication: require the slot word to
    /// read exactly `(granted epoch, PUBLISHED)`. Anything else —
    /// an old epoch, a `WRITING` state, a never-granted slot — is a
    /// stale or torn one-sided write and fails the session rather
    /// than letting verification read bytes still in flight.
    pub(super) fn check_published(&self, hdr: &DataFrameHeader) -> io::Result<()> {
        let s = self.slots.check(hdr, "notify")?;
        let expected = self.expected[s].load(Ordering::Acquire);
        let w = self.slots.word(s).load(Ordering::Acquire);
        if w != word_of(expected, SLOT_PUBLISHED) {
            return Err(proto_err(format!(
                "shm slot {s} not cleanly published (word {w:#x}, granted epoch \
                 {expected}) — torn or stale one-sided write"
            )));
        }
        Ok(())
    }
}
