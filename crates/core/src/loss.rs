//! Loss inference for the retransmit watchdog of both engines, the
//! simulated source and the live one. One verdict per unacked attempt:
//!
//! ```text
//! fast    high_water(ch) ≥ ordinal + 3                 (REORDER_THRESHOLD)
//! timer   age ≥ rto · 2^min(attempts − 1, 6)  and  ch silent for ≥ rto
//! budget  due after MAX_RESENDS re-sends → give up
//! ```
//!
//! **Fast.** A data channel delivers in order (RC completes in post order,
//! TCP is FIFO), so once a block sent *later* on a channel is acked, every
//! earlier send on it has arrived or never will. Every wire attempt takes
//! a per-channel send ordinal; an attempt is lost once the channel's
//! highest acked ordinal is three past it — TCP's three duplicate acks,
//! since the impairment shim may swap *adjacent* frames. Karn's rule: an
//! ack for a block that was ever re-sent names no one attempt, so only
//! first-attempt acks advance the mark.
//!
//! **Timer.** The tail of a transfer, or a re-send with too few sends
//! behind it, falls to the RTO. Karn's backoff keeps one receiver-side
//! stall (a write-behind flush, CPU steal) from expiring the whole window
//! again and again; the silence clause keeps an attempt that is only
//! queued behind the window from reading as lost, however long the queue.
//!
//! Pure bookkeeping: no clock, no I/O, no locks. Callers pass time as
//! nanoseconds since an epoch of their choosing. The counters publish no
//! other data, hence `Relaxed` — a stale read only delays a verdict.

use std::sync::atomic::{AtomicU64, Ordering};

/// Later-sent acks that prove an earlier attempt lost: fixed by the worst
/// reordering a channel shows (adjacent swaps), not by the path.
pub const REORDER_THRESHOLD: u64 = 3;

/// Re-sends one block may take; the next time it comes due the transfer
/// fails — recovery is broken, not the path unlucky.
pub const MAX_RESENDS: u32 = 16;

/// Karn's backoff stops doubling at 2^6 = 64 × the RTO.
const MAX_BACKOFF_SHIFT: u32 = 6;

#[derive(Default)]
struct Channel {
    /// Next ordinal to hand out.
    next: AtomicU64,
    /// One past the highest first-attempt ordinal acked (0 = none yet).
    acked_below: AtomicU64,
    /// When the channel last acked any attempt (0 = never: it has been
    /// silent since the epoch).
    acked_at_ns: AtomicU64,
}

/// A block's latest wire attempt, as the verdict judges it.
#[derive(Debug, Clone, Copy, Default)]
pub struct Attempt {
    /// Data channel and its send ordinal there.
    pub ch: usize,
    pub ordinal: u64,
    /// When the attempt went out.
    pub sent_ns: u64,
    /// Wire attempts of the block so far, this one included.
    pub attempts: u32,
}

/// What the watchdog does with one attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Not due.
    Wait,
    /// Re-send: the acks prove the attempt lost.
    Fast,
    /// Re-send: the timer expired on a silent channel.
    Timer,
    /// Due, but the block has spent [`MAX_RESENDS`]: fail the transfer.
    GiveUp,
}

/// Per-channel send ordinals, ack high-water marks and last-ack times;
/// see the module documentation for the rule.
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

    /// The wire attempt after `prev` of the same block: on `ch`, under a
    /// fresh ordinal there, leaving at `now_ns`.
    pub fn next_attempt(&self, prev: &Attempt, ch: usize, now_ns: u64) -> Attempt {
        Attempt {
            ch,
            ordinal: self.on_send(ch),
            sent_ns: now_ns,
            attempts: prev.attempts + 1,
        }
    }

    /// Fold in, at `now_ns`, an ack of the attempt stamped (`ch`,
    /// `ordinal`). Any ack shows the channel alive; `first_attempt` is
    /// Karn's filter for the mark. Returns whether the channel's
    /// high-water mark advanced — only then can a fast verdict change.
    pub fn on_ack(&self, ch: usize, ordinal: u64, first_attempt: bool, now_ns: u64) -> bool {
        let c = &self.channels[ch];
        c.acked_at_ns.fetch_max(now_ns, Ordering::Relaxed);
        first_attempt && c.acked_below.fetch_max(ordinal + 1, Ordering::Relaxed) <= ordinal
    }

    /// Whether the still-unacked attempt (`ch`, `ordinal`) is lost:
    /// [`REORDER_THRESHOLD`] later sends on its channel have been acked.
    pub fn is_lost(&self, ch: usize, ordinal: u64) -> bool {
        self.channels[ch].acked_below.load(Ordering::Relaxed) > ordinal + REORDER_THRESHOLD
    }

    /// The verdict on the still-unacked attempt `a` at `now_ns`, under the
    /// current retransmit timeout `rto_ns`.
    pub fn verdict(&self, a: &Attempt, rto_ns: u64, now_ns: u64) -> Verdict {
        let shift = a.attempts.saturating_sub(1).min(MAX_BACKOFF_SHIFT);
        let silent_since = self.channels[a.ch].acked_at_ns.load(Ordering::Relaxed);
        let timer = now_ns.saturating_sub(a.sent_ns) >= rto_ns.saturating_mul(1 << shift)
            && now_ns.saturating_sub(silent_since) >= rto_ns;
        match (self.is_lost(a.ch, a.ordinal), timer) {
            (false, false) => Verdict::Wait,
            _ if a.attempts > MAX_RESENDS => Verdict::GiveUp,
            (true, _) => Verdict::Fast,
            (false, true) => Verdict::Timer,
        }
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
            assert!(
                d.on_ack(0, o, true, 0),
                "every in-order ack advances the mark"
            );
            unacked.retain(|&u| u != o);
            assert_eq!(lost(&d, &unacked), Vec::<u64>::new());
        }
        // The other channel never saw an ack and judges nothing lost.
        let other = d.on_send(1);
        assert!(!d.is_lost(1, other));
    }

    // spec: [P6-fast]
    #[test]
    fn a_hole_is_flagged_by_the_third_later_ack() {
        let d = LossDetector::new(1);
        let ords = send(&d, 8);
        assert!(d.on_ack(0, ords[0], true, 0));
        // ords[1] vanishes on the wire.
        assert!(d.on_ack(0, ords[2], true, 0));
        assert!(!d.is_lost(0, ords[1]), "one later ack proves nothing");
        assert!(d.on_ack(0, ords[3], true, 0));
        assert!(!d.is_lost(0, ords[1]), "two later acks prove nothing");
        assert!(d.on_ack(0, ords[4], true, 0));
        assert!(d.is_lost(0, ords[1]), "three later acks: lost");
        // Nothing sent after the mark is implicated.
        assert_eq!(lost(&d, &ords[5..]), Vec::<u64>::new());
    }

    // spec: [P6-fast]
    #[test]
    fn adjacent_swaps_flag_nothing() {
        // The shim's `reorder=1.0`: every frame swaps with its successor,
        // so acks return 1,0,3,2,5,4,…
        let d = LossDetector::new(1);
        let ords = send(&d, 16);
        let mut unacked = ords.clone();
        for pair in ords.chunks(2) {
            for &o in [pair[1], pair[0]].iter() {
                d.on_ack(0, o, true, 0);
                unacked.retain(|&u| u != o);
                assert_eq!(lost(&d, &unacked), Vec::<u64>::new());
            }
        }
    }

    // spec: [P6-fast]
    #[test]
    fn a_late_ack_does_not_move_the_mark() {
        let d = LossDetector::new(1);
        let ords = send(&d, 4);
        assert!(d.on_ack(0, ords[2], true, 0));
        assert!(!d.on_ack(0, ords[1], true, 0), "below the mark: no advance");
        assert!(!d.on_ack(0, ords[2], true, 0), "at the mark: no advance");
        assert!(d.on_ack(0, ords[3], true, 0));
    }

    // spec: [P6-one-sender-ordinals]
    #[test]
    fn a_resend_takes_a_fresh_ordinal_and_is_judged_afresh() {
        let d = LossDetector::new(1);
        let ords = send(&d, 5);
        for &o in &ords[1..] {
            d.on_ack(0, o, true, 0);
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
            d.on_ack(0, o, true, 0);
        }
        assert!(d.is_lost(0, fresh));
    }

    // spec: [P6-fast]
    #[test]
    fn acks_of_retransmitted_blocks_never_advance_the_mark() {
        let d = LossDetector::new(1);
        let ords = send(&d, 8);
        // Acks for blocks that were re-sent may belong to either attempt
        // (Karn): they are not evidence about the channel.
        for &o in &ords[1..] {
            assert!(!d.on_ack(0, o, false, 0));
        }
        assert!(!d.is_lost(0, ords[0]));
        assert!(d.on_ack(0, ords[7], true, 0));
        assert!(d.is_lost(0, ords[0]));
    }

    const RTO: u64 = 1_000;

    /// The first attempt of a block sent on channel 0 at `sent_ns`.
    fn first(d: &LossDetector, sent_ns: u64) -> Attempt {
        Attempt {
            ch: 0,
            ordinal: d.on_send(0),
            sent_ns,
            attempts: 1,
        }
    }

    // spec: [P6-timer]
    #[test]
    fn a_queued_attempt_on_a_channel_that_is_still_acking_is_not_due() {
        // Eight jobs' windows queue far past the RTO: the block at the
        // back waits many RTOs while the blocks ahead of it complete in
        // order, one per half RTO.
        let d = LossDetector::new(1);
        let ahead = send(&d, 64);
        let queued = first(&d, 0);
        for (k, &o) in ahead.iter().enumerate() {
            let now = (k as u64 + 1) * RTO / 2;
            d.on_ack(0, o, true, now);
            assert_eq!(d.verdict(&queued, RTO, now), Verdict::Wait, "at {now} ns");
        }
    }

    // spec: [P6-timer]
    #[test]
    fn a_silent_channel_makes_an_old_attempt_due() {
        let d = LossDetector::new(2);
        let a = first(&d, 0);
        d.on_ack(0, d.on_send(0), true, 10);
        assert_eq!(d.verdict(&a, RTO, RTO), Verdict::Wait, "acked 990 ns ago");
        assert_eq!(d.verdict(&a, RTO, RTO + 10), Verdict::Timer);
        // A channel that never acked has been silent since the epoch: the
        // attempt's age alone decides.
        let b = Attempt {
            ch: 1,
            ..first(&d, 5)
        };
        assert_eq!(d.verdict(&b, RTO, RTO + 4), Verdict::Wait);
        assert_eq!(d.verdict(&b, RTO, RTO + 5), Verdict::Timer);
    }

    // spec: [P6-timer]
    #[test]
    fn backoff_doubles_up_to_64x() {
        let d = LossDetector::new(1);
        for attempts in 1..=MAX_RESENDS {
            let a = Attempt {
                attempts,
                ..first(&d, 0)
            };
            let deadline = RTO << (attempts - 1).min(6);
            assert_eq!(d.verdict(&a, RTO, deadline - 1), Verdict::Wait);
            assert_eq!(d.verdict(&a, RTO, deadline), Verdict::Timer);
        }
        assert_eq!(RTO << 6, 64 * RTO);
    }

    // spec: [P6-budget]
    #[test]
    fn the_budget_gives_up() {
        let d = LossDetector::new(1);
        let a = Attempt {
            attempts: MAX_RESENDS,
            ..first(&d, 0)
        };
        assert_eq!(
            d.verdict(&a, RTO, 64 * RTO),
            Verdict::Timer,
            "the last re-send"
        );
        let spent = Attempt {
            attempts: MAX_RESENDS + 1,
            ..a
        };
        assert_eq!(d.verdict(&spent, RTO, 64 * RTO - 1), Verdict::Wait);
        assert_eq!(d.verdict(&spent, RTO, 64 * RTO), Verdict::GiveUp);
        // Proof of loss does not buy a block more attempts either.
        for o in send(&d, 4) {
            d.on_ack(0, o, true, 0);
        }
        assert_eq!(d.verdict(&spent, RTO, 0), Verdict::GiveUp);
        assert_eq!(d.verdict(&a, RTO, 0), Verdict::Fast);
    }
}
