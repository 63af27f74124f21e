//! The per-slot generation word: the source's load and publish and the
//! sink's grant and publication check, both sides of one handshake.

use super::window::WindowDesc;
use crate::net::proto_err;
use crate::{store::STORE_ALIGN, sys::Mapping};
use parking_lot::Mutex;
use rftp_core::wire::{DataFrameHeader, PAYLOAD_HEADER_LEN};
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

// -----------------------------------------------------------------
// Per-slot generation word
// -----------------------------------------------------------------

/// Slot states in the low 2 bits of the generation word; the epoch
/// lives in the upper 62 and is bumped by the sink at every grant. A
/// fresh window's zero word is none of them: a slot never granted
/// takes no load and passes no publication check.
const SLOT_GRANTED: u64 = 1;
const SLOT_WRITING: u64 = 2;
const SLOT_PUBLISHED: u64 = 3;

fn word_of(epoch: u64, state: u64) -> u64 {
    (epoch << 2) | state
}

/// A mapped window's slots: slot `i` at `base + i × stride`, each
/// holding at most `block_cap` payload bytes. In one process both views
/// share one mapping; across two, each maps the memfd itself.
struct Slots {
    map: Arc<Mapping>,
    stride: usize,
    count: usize,
    block_cap: u32,
}

impl Slots {
    fn new(map: Arc<Mapping>, desc: &WindowDesc) -> Slots {
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

    /// Bytes from a slot's wire image to the end of its stride: the
    /// payload header and the whole padded payload room.
    fn room(&self) -> usize {
        self.stride - STORE_ALIGN + PAYLOAD_HEADER_LEN
    }
}

/// What the source last loaded into one sink slot: the block seq and
/// the grant epoch it claimed the slot under. `seq == -1` means the
/// slot was never written by this session.
struct SentEntry {
    seq: i64,
    epoch: u64,
}

/// Outcome of publishing a loaded block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PlaceOutcome {
    /// First publication: the slot went `WRITING` → `PUBLISHED` —
    /// notify.
    Placed,
    /// Duplicate of the block already published in this slot —
    /// memory untouched, but the notify record is worth resending
    /// (the ack may be slow, and re-notifying is idempotent at the
    /// sink, which dedups on seq).
    Renotify,
    /// Stale retransmit: the slot has since been re-credited to a
    /// newer block. Dropped entirely — publishing would expose the
    /// successor half-written, notifying would lie.
    Stale,
}

/// The source's view of the sink's window: its slots and the per-slot
/// load history that makes retransmits tear-proof.
///
/// A block reaches a slot in two steps. A loader [`load`]s it — claims
/// the granted slot and writes the wire image in place — and the
/// sender later [`publish`]es it, the release store the sink's check
/// acquires, and re-publishes it on every re-send.
///
/// **Why the seq rule exists.** Credits can overtake acks: the sink
/// flushes a freed slot's re-grant immediately while the block's
/// ack may dwell in a coalescing batch. A slot can therefore be
/// re-credited and re-loaded with a *new* block while the source
/// still considers the old block in flight and may re-send it. The
/// per-slot `(last seq, epoch)` record disambiguates every case by
/// seq comparison — a loader takes its credit before it claims a
/// sequence, and a slot is credited again only after its last block
/// landed, so per-slot seqs are strictly monotonic:
///
/// * loading `hdr.seq > last`: the word must be `GRANTED` (anything
///   else is a protocol fault, failed loudly rather than hung);
/// * publishing `hdr.seq == last`: publish if the slot still holds it
///   `WRITING` under its grant, re-notify if `PUBLISHED`, else stale;
/// * publishing `hdr.seq < last`: stale resend for a slot that moved
///   on — drop.
///
/// [`load`]: SrcWindow::load
/// [`publish`]: SrcWindow::publish
pub(crate) struct SrcWindow {
    slots: Slots,
    sent: Vec<Mutex<SentEntry>>,
}

impl SrcWindow {
    pub(super) fn new(map: Arc<Mapping>, desc: &WindowDesc) -> SrcWindow {
        let sent = (0..desc.slot_count)
            .map(|_| Mutex::new(SentEntry { seq: -1, epoch: 0 }))
            .collect();
        SrcWindow {
            slots: Slots::new(map, desc),
            sent,
        }
    }

    /// Claim the slot `hdr` names for block `hdr.seq` — require
    /// `GRANTED`, CAS to `WRITING` under the grant's epoch — then let
    /// `fill` write the wire image straight into the shared slot. The
    /// slice is the slot's whole payload room. A slot that is not
    /// granted, or a seq no newer than the slot's last, is an
    /// `InvalidData` error, and nothing is written.
    pub(crate) fn load(
        &self,
        hdr: &DataFrameHeader,
        fill: &mut dyn FnMut(&mut [u8]) -> io::Result<()>,
    ) -> io::Result<()> {
        let slot = self.slots.check(hdr, "load")?;
        let word = self.slots.word(slot);
        {
            let mut entry = self.sent[slot].lock();
            let seq = hdr.seq as i64;
            if seq <= entry.seq {
                return Err(proto_err(format!(
                    "shm load: seq {seq} into slot {slot}, which already held seq {}",
                    entry.seq
                )));
            }
            let w = word.load(Ordering::Acquire);
            if w & 0b11 != SLOT_GRANTED {
                return Err(proto_err(format!(
                    "shm load: slot {slot} not granted (word {w:#x}) for seq {seq} — \
                     window desynchronized"
                )));
            }
            let epoch = w >> 2;
            let claim = word_of(epoch, SLOT_WRITING);
            if (word.compare_exchange(w, claim, Ordering::Acquire, Ordering::Relaxed)).is_err() {
                return Err(proto_err(format!(
                    "shm load: slot {slot} changed hands mid-claim — window desynchronized"
                )));
            }
            *entry = SentEntry { seq, epoch };
        }
        // SAFETY: the slot's payload room lies whole in the mapping
        // (`check`, and `WindowDesc::validate` bounds the stride), ends
        // at the next slot's base, so it never covers a generation
        // word, and the mapping outlives this call. The claim above,
        // made under the slot's lock, leaves this call the room's one
        // writer in this process: any later load of the slot fails (its
        // word is no longer GRANTED, or its seq is no newer), and
        // `place` writes only through `load`. The sink reads the room
        // only once it is published, and a published slot takes no load
        // until the sink grants it again, after its last read — so in
        // one process, where the sink's slot views alias this room, the
        // two are never live together. A peer writing it anyway is the
        // trust model's scribble, which the sink's pattern check sees.
        let room =
            unsafe { std::slice::from_raw_parts_mut(self.slots.wire(slot), self.slots.room()) };
        fill(room)
    }

    /// Publish the block [`SrcWindow::load`] wrote into the slot `hdr`
    /// names: the release store that replaces the receiver copy. A
    /// re-send re-notifies; one for a slot that moved on is stale.
    pub(crate) fn publish(&self, hdr: &DataFrameHeader) -> io::Result<PlaceOutcome> {
        let slot = self.slots.check(hdr, "publish")?;
        let entry = self.sent[slot].lock();
        let seq = hdr.seq as i64;
        if seq < entry.seq {
            return Ok(PlaceOutcome::Stale);
        }
        if seq > entry.seq {
            return Err(proto_err(format!(
                "shm publish: seq {seq} was never loaded into slot {slot}"
            )));
        }
        let word = self.slots.word(slot);
        let w = word.load(Ordering::Acquire);
        if w == word_of(entry.epoch, SLOT_WRITING) {
            // Everything the loader stored (the inbox carried the block
            // from it to this thread) happens-before any sink thread
            // that acquire-loads PUBLISHED.
            word.store(word_of(entry.epoch, SLOT_PUBLISHED), Ordering::Release);
            Ok(PlaceOutcome::Placed)
        } else if w == word_of(entry.epoch, SLOT_PUBLISHED) {
            // Same block resent under the same grant: the bytes are
            // already there — never rewrite a slot the sink may be
            // verifying.
            Ok(PlaceOutcome::Renotify)
        } else {
            Ok(PlaceOutcome::Stale)
        }
    }

    /// One-sided place of a borrowed wire image: a [`SrcWindow::load`]
    /// that copies `wire` in, unless the slot already holds this seq,
    /// then [`SrcWindow::publish`].
    pub(crate) fn place(&self, hdr: &DataFrameHeader, wire: &[u8]) -> io::Result<PlaceOutcome> {
        assert_eq!(wire.len(), hdr.wire_len());
        let slot = self.slots.check(hdr, "place")?;
        if hdr.seq as i64 > self.sent[slot].lock().seq {
            self.load(hdr, &mut |room| {
                room[..wire.len()].copy_from_slice(wire);
                Ok(())
            })?;
        }
        self.publish(hdr)
    }
}

/// The sink's view of its own window: its slots and the epoch it
/// granted each slot at — what a published word must match before the
/// payload is trusted. Every window is created for exactly one session
/// and dies with it.
pub(crate) struct SnkWindow {
    slots: Slots,
    /// Epoch granted per wire slot; a notify is only honoured when
    /// the slot word reads exactly `(expected, PUBLISHED)`.
    expected: Vec<AtomicU64>,
}

impl SnkWindow {
    pub(super) fn new(map: Arc<Mapping>, desc: &WindowDesc) -> SnkWindow {
        SnkWindow {
            slots: Slots::new(map, desc),
            expected: (0..desc.slot_count).map(|_| AtomicU64::new(0)).collect(),
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
