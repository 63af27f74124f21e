//! RTT / loss estimation: the retransmit timeout of both engines, and
//! the live adaptive controller.
//!
//! A source measures the round trip from its own ack stream (live: block
//! sent → `AckBatch` retired; simulated: WRITE posted → completed) and
//! smooths it exactly the way TCP does (RFC 6298):
//!
//! ```text
//! first sample:  srtt = s            rttvar = s / 2
//! afterwards:    rttvar = 3/4 rttvar + 1/4 |srtt - s|
//!                srtt   = 7/8 srtt   + 1/8 s
//! rto = max(srtt + max(4 rttvar, srtt/4), 4 min_rtt, 10 ms)
//! ```
//!
//! Karn's rule applies: blocks that were retransmitted never contribute
//! samples (their ack cannot be attributed to a specific attempt).
//!
//! Both engines' retransmit watchdogs run on [`RttEstimator::rto`]. From
//! `srtt` the live controller also derives the coalescing dwell window
//! (~srtt/8). [`window_blocks`] is the one rule that sizes a live
//! window from a rate and a round trip — one credit loop, RTT plus the
//! dwell on it: the WAN pools and first grant from the declared path,
//! the controller's in-flight depth from the measured `min_rtt`. Loss
//! rate is a simple decayed fraction of watchdog-expired blocks,
//! surfaced in reports.

use std::time::Duration;

/// Smoothed round-trip state per RFC 6298, plus a decayed loss-rate
/// estimate fed by the retransmit watchdog.
#[derive(Debug, Clone)]
pub struct RttEstimator {
    /// Smoothed RTT in nanoseconds; 0 until the first sample lands.
    srtt_ns: u64,
    /// RTT variance in nanoseconds.
    rttvar_ns: u64,
    /// Smallest sample seen — the propagation floor, free of the
    /// queueing delay the transfer itself induces.
    min_rtt_ns: u64,
    samples: u64,
    /// EWMA of the per-block loss indicator (1 = timed out, 0 = acked).
    loss_ewma: f64,
    loss_events: u64,
}

impl Default for RttEstimator {
    fn default() -> RttEstimator {
        RttEstimator::new()
    }
}

impl RttEstimator {
    pub fn new() -> RttEstimator {
        RttEstimator {
            srtt_ns: 0,
            rttvar_ns: 0,
            min_rtt_ns: u64::MAX,
            samples: 0,
            loss_ewma: 0.0,
            loss_events: 0,
        }
    }

    /// Fold in one clean RTT sample (Karn-filtered by the caller: only
    /// first-attempt acks qualify).
    pub fn on_sample(&mut self, rtt: Duration) {
        let s = rtt.as_nanos().min(u64::MAX as u128) as u64;
        self.min_rtt_ns = self.min_rtt_ns.min(s);
        if self.samples == 0 {
            self.srtt_ns = s;
            self.rttvar_ns = s / 2;
        } else {
            let err = self.srtt_ns.abs_diff(s);
            self.rttvar_ns = (3 * self.rttvar_ns + err) / 4;
            self.srtt_ns = (7 * self.srtt_ns + s) / 8;
        }
        self.samples += 1;
        self.loss_ewma *= 1.0 - LOSS_GAIN;
    }

    /// Record a watchdog-expired block (counts toward the loss rate and
    /// decays back out as clean samples arrive).
    pub fn on_loss(&mut self) {
        self.loss_events += 1;
        self.loss_ewma = self.loss_ewma * (1.0 - LOSS_GAIN) + LOSS_GAIN;
    }

    pub fn has_sample(&self) -> bool {
        self.samples > 0
    }

    pub fn samples(&self) -> u64 {
        self.samples
    }

    pub fn srtt(&self) -> Duration {
        Duration::from_nanos(self.srtt_ns)
    }

    pub fn rttvar(&self) -> Duration {
        Duration::from_nanos(self.rttvar_ns)
    }

    /// Smallest RTT sample seen (the propagation floor).
    pub fn min_rtt(&self) -> Option<Duration> {
        (self.samples > 0).then(|| Duration::from_nanos(self.min_rtt_ns))
    }

    /// Decayed loss fraction in `[0, 1]`.
    pub fn loss_rate(&self) -> f64 {
        self.loss_ewma
    }

    pub fn loss_events(&self) -> u64 {
        self.loss_events
    }

    /// Retransmit deadline: `srtt + max(4·rttvar, srtt/4)`, floored at
    /// `4·min_rtt` and `MIN_RTO_NS` (10 ms); `None` before the first sample.
    /// The srtt/4 band matters on a *steady* path: `rttvar` dies, but the
    /// sink's coalescing dwell (~srtt/8) still delays acks. The min_rtt
    /// floor covers a block queued behind a full [`window_blocks`]
    /// window (~1.1×BDP, so its ack lawfully takes ~2.1×min_rtt) while
    /// `srtt` lags the queue being built: by-design queueing must never
    /// read as loss. The simulator, whose windows are its own, shares it.
    pub fn rto(&self) -> Option<Duration> {
        if self.samples == 0 {
            return None;
        }
        let band = (4 * self.rttvar_ns).max(self.srtt_ns / 4);
        let ns = (self.srtt_ns + band)
            .max(self.min_rtt_ns.saturating_mul(4))
            .max(MIN_RTO_NS);
        Some(Duration::from_nanos(ns))
    }

    /// Coalescing dwell window: ~srtt/8, clamped to sane bounds. At
    /// loopback RTTs this sits at the floor (the tuned 50 µs-class
    /// dwell); at 49 ms it opens to ~6 ms so acks and credits ride in
    /// full batches instead of one wire frame each.
    pub fn dwell(&self) -> Option<Duration> {
        if self.samples == 0 {
            return None;
        }
        Some(Duration::from_nanos(dwell_ns(self.srtt_ns)))
    }

    /// Snapshot for reports and bench JSON.
    pub fn snapshot(&self) -> AdaptSnapshot {
        AdaptSnapshot {
            srtt_us: self.srtt_ns as f64 / 1e3,
            rttvar_us: self.rttvar_ns as f64 / 1e3,
            loss_rate: self.loss_ewma,
            effective_depth: 0,
            dwell_ns: self.dwell().map(|d| d.as_nanos() as u64).unwrap_or(0),
            first_block_us: 0.0,
        }
    }
}

/// The largest pool a live sink opens: the source keeps granted credits
/// in a ring of this many slots, so a larger pool could grant past it.
/// [`window_blocks`] never sizes a window past it.
pub const MAX_POOL_BLOCKS: u32 = 4096;

/// Blocks in flight that keep `rate_bps` flowing across one credit loop
/// of a path with round trip `rtt`: a grant's round trip plus the
/// sink's coalescing dwell on the ack that frees its slot,
/// ⌈rate/8 × (rtt + dwell(rtt)) / block⌉ — 9/8 of a BDP on a WAN.
/// Floored at two blocks per channel, so a LAN path whose loop rounds
/// to nothing still overlaps every channel with it, and capped at
/// [`MAX_POOL_BLOCKS`].
pub fn window_blocks(rate_bps: f64, rtt: Duration, block_size: usize, channels: usize) -> u32 {
    let rtt_ns = rtt.as_nanos().min(u64::MAX as u128) as u64;
    let loop_s = rtt_ns.saturating_add(dwell_ns(rtt_ns)) as f64 / 1e9;
    let blocks = (rate_bps.max(0.0) / 8.0 * loop_s / block_size.max(1) as f64).ceil() as u64;
    blocks.max(2 * channels as u64).min(MAX_POOL_BLOCKS as u64) as u32
}

/// The coalescing dwell on a loop of `rtt_ns`: ~rtt/8 within the clamp.
fn dwell_ns(rtt_ns: u64) -> u64 {
    (rtt_ns / 8).clamp(MIN_DWELL_NS, MAX_DWELL_NS)
}

/// EWMA gain for the loss-rate estimate (per event).
const LOSS_GAIN: f64 = 1.0 / 16.0;
/// Absolute RTO floor. Must exceed the widest coalescing dwell (`MAX_DWELL_NS`)
/// plus a scheduler quantum: the sink may lawfully sit on an ack for a
/// full dwell window, and on a short-RTT path the smoothed estimate
/// converges far below that — a floor at the estimate would turn every
/// dwell-delayed ack into a spurious retransmit.
const MIN_RTO_NS: u64 = 10_000_000; // 10 ms
/// Dwell clamp: never tighter than the cheapest useful wait, never so
/// wide that teardown latency becomes visible.
const MIN_DWELL_NS: u64 = 5_000; // 5 µs
const MAX_DWELL_NS: u64 = 8_000_000; // 8 ms

/// Controller state surfaced in end-of-run reports and bench JSON.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptSnapshot {
    pub srtt_us: f64,
    pub rttvar_us: f64,
    /// Decayed fraction of blocks recovered by the watchdog.
    pub loss_rate: f64,
    /// In-flight depth target the controller converged to (blocks).
    pub effective_depth: u32,
    /// Coalescing dwell window in force at end of run.
    pub dwell_ns: u64,
    /// Latency from session start to the first block's placement —
    /// the credit-ramp figure (one RTT saved by proactive credits).
    pub first_block_us: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    #[test]
    fn first_sample_initializes_per_rfc6298() {
        let mut e = RttEstimator::new();
        assert!(e.rto().is_none() && e.dwell().is_none());
        e.on_sample(ms(49));
        assert_eq!(e.srtt(), ms(49));
        assert_eq!(e.rttvar(), Duration::from_micros(24_500));
        // srtt + 4·rttvar = 147 ms, under the 4·min_rtt floor of 196 ms.
        assert_eq!(e.rto().unwrap(), ms(196));
    }

    #[test]
    fn steady_samples_converge_and_tighten_variance() {
        let mut e = RttEstimator::new();
        for _ in 0..200 {
            e.on_sample(ms(49));
        }
        assert_eq!(e.srtt(), ms(49));
        assert!(e.rttvar() < ms(1), "constant samples drive rttvar to 0");
        // A steady path sits on the 4·min_rtt floor.
        assert_eq!(e.rto().unwrap(), ms(196));
        // Below the floor's reach (one 10 ms sample sets it at 40 ms),
        // rto converges toward srtt + the srtt/4 guard band (variance
        // dies, but the band keeps dwell-delayed acks inside the
        // deadline).
        let mut e = RttEstimator::new();
        e.on_sample(ms(10));
        for _ in 0..200 {
            e.on_sample(ms(49));
        }
        let rto = e.rto().unwrap();
        assert!(rto > ms(55) && rto < ms(63), "rto={rto:?}");
    }

    #[test]
    fn dwell_scales_with_rtt_and_clamps() {
        let mut lan = RttEstimator::new();
        lan.on_sample(Duration::from_micros(25));
        assert_eq!(lan.dwell().unwrap(), Duration::from_nanos(MIN_DWELL_NS));

        let mut wan = RttEstimator::new();
        for _ in 0..50 {
            wan.on_sample(ms(49));
        }
        // 49 ms / 8 = 6.125 ms, inside the clamp.
        assert_eq!(wan.dwell().unwrap(), Duration::from_micros(6_125));

        let mut geo = RttEstimator::new();
        geo.on_sample(ms(600));
        assert_eq!(geo.dwell().unwrap(), Duration::from_nanos(MAX_DWELL_NS));
    }

    #[test]
    fn window_blocks_match_the_wan_math() {
        // ANI-WAN: 10 Gbps over 49 ms plus a 6.125 ms dwell is 68.9 MB,
        // 262.9 blocks of 256 KiB — 9/8 of the 61.25 MB BDP.
        assert_eq!(window_blocks(10e9, ms(49), 256 * 1024, 2), 263);
        // The dwell clamps as the estimator's does: 8 ms past 64 ms.
        assert_eq!(window_blocks(8e9, ms(600), 1 << 20, 1), 580);
        // Two blocks per channel however short the loop, or unknown rate.
        assert_eq!(
            window_blocks(40e9, Duration::from_micros(26), 256 * 1024, 2),
            4
        );
        assert_eq!(window_blocks(0.0, ms(49), 256 * 1024, 3), 6);
        // Never past the source's credit ring.
        assert_eq!(window_blocks(10e9, ms(49), 4096, 2), MAX_POOL_BLOCKS);
    }

    #[test]
    fn loss_rate_rises_on_timeouts_and_decays_on_acks() {
        let mut e = RttEstimator::new();
        e.on_sample(ms(10));
        assert_eq!(e.loss_rate(), 0.0);
        for _ in 0..8 {
            e.on_loss();
        }
        let peak = e.loss_rate();
        assert!(peak > 0.3, "sustained timeouts must register: {peak}");
        for _ in 0..200 {
            e.on_sample(ms(10));
        }
        assert!(e.loss_rate() < 0.01, "clean acks decay the estimate");
        assert_eq!(e.loss_events(), 8);
    }

    #[test]
    fn retransmitted_blocks_do_not_feed_samples() {
        // Karn's rule lives at the call site (attempts == 1); here we
        // just pin that loss events alone never fabricate an RTT.
        let mut e = RttEstimator::new();
        e.on_loss();
        assert!(!e.has_sample() && e.rto().is_none());
    }

    #[test]
    fn rto_never_falls_below_four_min_rtts_under_queue_inflated_samples() {
        // A 49 ms path whose window builds a queue: samples climb to
        // 150 ms while srtt lags them, so srtt + 4·rttvar undershoots
        // how long a queued block lawfully waits.
        let mut e = RttEstimator::new();
        for k in 0..=100 {
            e.on_sample(ms(49 + k));
            assert!(e.rto().unwrap() >= ms(196), "sample {k}: {:?}", e.rto());
        }
        for _ in 0..200 {
            e.on_sample(ms(60));
        }
        assert_eq!(e.rto().unwrap(), ms(196), "the band is below the floor");
    }

    #[test]
    fn rto_has_a_floor() {
        let mut e = RttEstimator::new();
        for _ in 0..50 {
            e.on_sample(Duration::from_micros(20));
        }
        assert_eq!(e.rto().unwrap(), Duration::from_nanos(MIN_RTO_NS));
    }
}
