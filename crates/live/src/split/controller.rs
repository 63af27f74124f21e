//! The adaptive controller each half runs off its own feedback loop.

use crate::pipeline::LiveConfig;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Per-session adaptive control: one RFC 6298 estimator behind a lock,
/// with every figure the hot paths consume (retransmit deadline, dwell
/// window, in-flight depth target) mirrored into atomics so the watchdog
/// and the coalescing loop read without contending on the estimator.
///
/// Each half runs its own controller off its own feedback loop:
///
/// * the **source** samples block-sent → ack-retired (Karn-filtered to
///   first-attempt acks) and drives the retransmit deadline from
///   `srtt + 4·rttvar` instead of the fixed `retx_timeout`, which fires
///   spuriously the moment the path RTT approaches it;
/// * the **sink** samples credit-granted → data-arrived per slot and
///   drives the coalescing dwell (~srtt/8 instead of the loopback-tuned
///   floor) and — when the offered path rate is known — a 2×BDP bound on
///   outstanding credits, so a short pipe is not flooded with the whole
///   pool and a long one is filled.
pub(crate) struct Controller {
    est: Mutex<rftp_core::RttEstimator>,
    /// Derived figures, 0 = no estimate yet (fall back to the static knob).
    rto_ns: AtomicU64,
    dwell_ns: AtomicU64,
    depth: AtomicU64,
    first_block_ns: AtomicU64,
    t0: Instant,
    rate_bps: Option<f64>,
    block_size: usize,
    depth_cap: u32,
    depth_floor: u32,
}

impl Controller {
    pub(crate) fn new(cfg: &LiveConfig) -> Controller {
        Controller {
            est: Mutex::new(rftp_core::RttEstimator::new()),
            rto_ns: AtomicU64::new(0),
            dwell_ns: AtomicU64::new(0),
            depth: AtomicU64::new(0),
            first_block_ns: AtomicU64::new(0),
            t0: Instant::now(),
            rate_bps: cfg.wan_rate_bps,
            block_size: cfg.block_size,
            depth_cap: cfg.pool_blocks,
            // Never throttle below two blocks per channel — the BDP of a
            // LAN path rounds to almost nothing, but every channel still
            // needs work in flight to overlap with the credit loop.
            depth_floor: (cfg.channels as u32 * 2).min(cfg.pool_blocks),
        }
    }

    /// Fold in one clean feedback-loop sample and refresh the derived
    /// atomics. Callers apply Karn's rule (first-attempt acks only).
    pub(crate) fn on_rtt_sample(&self, rtt: std::time::Duration) {
        let mut est = self.est.lock();
        est.on_sample(rtt);
        if let Some(rto) = est.rto() {
            // The controller's own depth target keeps ~2×BDP in flight,
            // so a block lawfully waits ~3×min_rtt for its ack —
            // propagation plus a full window draining ahead of it. The
            // RFC 6298 deadline undershoots that during the ramp (srtt
            // lags the queue it is busy building), so floor it at
            // 4×min_rtt: by-design queueing must never read as loss.
            // LAN paths are unaffected (µs-scale min_rtt, the 10 ms
            // estimator floor dominates).
            let floor = est
                .min_rtt()
                .map_or(0, |m| 4 * m.as_nanos().min(u64::MAX as u128 / 4) as u64);
            self.rto_ns
                .store((rto.as_nanos() as u64).max(floor), Ordering::Relaxed);
        }
        if let Some(dwell) = est.dwell() {
            self.dwell_ns
                .store(dwell.as_nanos() as u64, Ordering::Relaxed);
        }
        // The BDP depth target only means something on a propagation-
        // dominated path: below ~1 ms the measured floor is mostly
        // per-block service time (placement, verify, scheduling), and
        // a clamp computed from it starves the thread pipeline that the
        // pool was sized for. LAN-class paths keep the full pool.
        if let (Some(rate), Some(min_rtt)) = (self.rate_bps, est.min_rtt()) {
            if min_rtt >= std::time::Duration::from_millis(1) {
                if let Some(bdp) = est.bdp_blocks(rate, self.block_size) {
                    let d = (bdp.min(self.depth_cap as u64) as u32).max(self.depth_floor);
                    self.depth.store(d as u64, Ordering::Relaxed);
                }
            }
        }
    }

    /// The watchdog re-sent a block (either trigger): count it toward
    /// the loss rate.
    pub(crate) fn on_loss(&self) {
        self.est.lock().on_loss();
    }

    /// Current retransmit deadline; `initial` until the first sample.
    pub(crate) fn rto(&self, initial: std::time::Duration) -> std::time::Duration {
        match self.rto_ns.load(Ordering::Relaxed) {
            0 => initial,
            ns => std::time::Duration::from_nanos(ns),
        }
    }

    /// Current dwell window; `initial` until the first sample.
    pub(crate) fn dwell(&self, initial: std::time::Duration) -> std::time::Duration {
        match self.dwell_ns.load(Ordering::Relaxed) {
            0 => initial,
            ns => std::time::Duration::from_nanos(ns),
        }
    }

    /// BDP-derived bound on outstanding credits, once rate and RTT are
    /// both known; `None` = leave the pool-sized default alone.
    pub(crate) fn depth(&self) -> Option<u32> {
        match self.depth.load(Ordering::Relaxed) {
            0 => None,
            d => Some(d as u32),
        }
    }

    /// Record first-block placement latency (idempotent; the first call
    /// wins). Measured from controller construction, which both halves
    /// do before the session handshake.
    pub(crate) fn mark_first_block(&self) {
        let ns = self.t0.elapsed().as_nanos().max(1) as u64;
        let _ = self
            .first_block_ns
            .compare_exchange(0, ns, Ordering::Relaxed, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self) -> rftp_core::AdaptSnapshot {
        let mut s = self.est.lock().snapshot();
        s.effective_depth = self.depth.load(Ordering::Relaxed) as u32;
        s.first_block_us = self.first_block_ns.load(Ordering::Relaxed) as f64 / 1e3;
        s
    }
}
