//! Ack-driven loss inference for the live source (fast retransmit).
//!
//! A data channel delivers in FIFO order, and the sink acks a block the
//! moment it is placed, so the ack stream already says what the wire
//! lost: once a block sent *later* on a channel has been acked, every
//! earlier send on that channel has either arrived or never will. The
//! source stamps each wire attempt — first send, retransmit, or
//! fault-injected casualty — with a per-channel **send ordinal**, keeps
//! the highest ordinal each channel has seen acked, and calls an attempt
//! lost once that high-water mark is [`REORDER_THRESHOLD`] sends past it:
//!
//! ```text
//! lost(ch, ordinal)  ⇔  high_water(ch) ≥ ordinal + 3
//! ```
//!
//! The threshold is TCP's three duplicate acks: the impairment shim (and
//! a real multi-path fabric) may swap *adjacent* frames on a channel, so
//! one or two later acks prove nothing; three do.
//!
//! Karn's rule applies to the mark exactly as it does to RTT samples: an
//! ack for a block that was ever re-sent cannot be attributed to one of
//! its attempts, so only first-attempt acks advance the high-water mark.
//! Any attempt — a retransmit included — can be *judged* against it.
//!
//! The type is pure bookkeeping: no clock, no I/O, no locks. Ordinals are
//! drawn by whichever thread sends; the mark is advanced by the one
//! thread that retires acks. Both are plain counters that publish no
//! other data, hence `Relaxed` throughout — a stale read only delays a
//! verdict by one ack.

use std::sync::atomic::{AtomicU64, Ordering};

/// Later-sent blocks that must be acked on a channel before an earlier
/// unacked attempt counts as lost. A constant, not a knob: it is fixed by
/// the worst reordering a FIFO channel can show (adjacent swaps), not by
/// the path.
pub const REORDER_THRESHOLD: u64 = 3;

#[derive(Default)]
struct Channel {
    /// Next ordinal to hand out.
    next: AtomicU64,
    /// One past the highest first-attempt ordinal acked (0 = none yet).
    acked_below: AtomicU64,
}

/// Per-channel send ordinals and ack high-water marks; see the module
/// documentation for the inference rule.
pub struct LossDetector {
    channels: Vec<Channel>,
}

impl LossDetector {
    pub fn new(channels: usize) -> LossDetector {
        LossDetector {
            channels: (0..channels).map(|_| Channel::default()).collect(),
        }
    }

    /// Stamp one wire attempt on `ch`; returns its ordinal.
    pub fn on_send(&self, ch: usize) -> u64 {
        self.channels[ch].next.fetch_add(1, Ordering::Relaxed)
    }

    /// Fold in the ack of the attempt stamped (`ch`, `ordinal`).
    /// `first_attempt` is Karn's filter: an ack for a block that was
    /// re-sent is ignored. Returns whether the channel's high-water mark
    /// advanced — only then can any verdict have changed.
    pub fn on_ack(&self, ch: usize, ordinal: u64, first_attempt: bool) -> bool {
        first_attempt
            && self.channels[ch]
                .acked_below
                .fetch_max(ordinal + 1, Ordering::Relaxed)
                <= ordinal
    }

    /// Whether the still-unacked attempt (`ch`, `ordinal`) is lost:
    /// [`REORDER_THRESHOLD`] later sends on its channel have been acked.
    pub fn is_lost(&self, ch: usize, ordinal: u64) -> bool {
        self.channels[ch].acked_below.load(Ordering::Relaxed) > ordinal + REORDER_THRESHOLD
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Send `n` blocks on channel 0 and return their ordinals.
    fn send(d: &LossDetector, n: usize) -> Vec<u64> {
        (0..n).map(|_| d.on_send(0)).collect()
    }

    fn lost(d: &LossDetector, ords: &[u64]) -> Vec<u64> {
        ords.iter().copied().filter(|&o| d.is_lost(0, o)).collect()
    }

    #[test]
    fn in_order_acks_flag_nothing() {
        let d = LossDetector::new(2);
        let ords = send(&d, 32);
        let mut unacked = ords.clone();
        for &o in &ords {
            assert!(d.on_ack(0, o, true), "every in-order ack advances the mark");
            unacked.retain(|&u| u != o);
            assert_eq!(lost(&d, &unacked), Vec::<u64>::new());
        }
        // The other channel never saw an ack and judges nothing lost.
        let other = d.on_send(1);
        assert!(!d.is_lost(1, other));
    }

    #[test]
    fn a_hole_is_flagged_by_the_third_later_ack() {
        let d = LossDetector::new(1);
        let ords = send(&d, 8);
        assert!(d.on_ack(0, ords[0], true));
        // ords[1] vanishes on the wire.
        assert!(d.on_ack(0, ords[2], true));
        assert!(!d.is_lost(0, ords[1]), "one later ack proves nothing");
        assert!(d.on_ack(0, ords[3], true));
        assert!(!d.is_lost(0, ords[1]), "two later acks prove nothing");
        assert!(d.on_ack(0, ords[4], true));
        assert!(d.is_lost(0, ords[1]), "three later acks: lost");
        // Nothing sent after the mark is implicated.
        assert_eq!(lost(&d, &ords[5..]), Vec::<u64>::new());
    }

    #[test]
    fn adjacent_swaps_flag_nothing() {
        // The shim's `reorder=1.0`: every frame swaps with its successor,
        // so acks return 1,0,3,2,5,4,…
        let d = LossDetector::new(1);
        let ords = send(&d, 16);
        let mut unacked = ords.clone();
        for pair in ords.chunks(2) {
            for &o in [pair[1], pair[0]].iter() {
                d.on_ack(0, o, true);
                unacked.retain(|&u| u != o);
                assert_eq!(lost(&d, &unacked), Vec::<u64>::new());
            }
        }
    }

    #[test]
    fn a_late_ack_does_not_move_the_mark() {
        let d = LossDetector::new(1);
        let ords = send(&d, 4);
        assert!(d.on_ack(0, ords[2], true));
        assert!(!d.on_ack(0, ords[1], true), "below the mark: no advance");
        assert!(!d.on_ack(0, ords[2], true), "at the mark: no advance");
        assert!(d.on_ack(0, ords[3], true));
    }

    #[test]
    fn a_resend_takes_a_fresh_ordinal_and_is_judged_afresh() {
        let d = LossDetector::new(1);
        let ords = send(&d, 5);
        for &o in &ords[1..] {
            d.on_ack(0, o, true);
        }
        assert!(d.is_lost(0, ords[0]));
        // The block was queued for recovery twice. The first pop re-sends
        // it under a fresh ordinal; the second pop re-evaluates the block
        // and finds its current attempt is not lost, so it is sent once.
        let fresh = d.on_send(0);
        assert!(fresh > ords[4]);
        assert!(!d.is_lost(0, fresh));
        // The re-send itself vanishes: three later first-attempt acks on
        // its channel flag it again.
        let later = send(&d, 3);
        for &o in &later {
            d.on_ack(0, o, true);
        }
        assert!(d.is_lost(0, fresh));
    }

    #[test]
    fn acks_of_retransmitted_blocks_never_advance_the_mark() {
        let d = LossDetector::new(1);
        let ords = send(&d, 8);
        // Acks for blocks that were re-sent may belong to either attempt
        // (Karn): they are not evidence about the channel.
        for &o in &ords[1..] {
            assert!(!d.on_ack(0, o, false));
        }
        assert!(!d.is_lost(0, ords[0]));
        assert!(d.on_ack(0, ords[7], true));
        assert!(d.is_lost(0, ords[0]));
    }
}
