//! Virtual time: nanosecond-resolution simulation clock types.
//!
//! The simulator uses a `u64` nanosecond counter. At 1 ns resolution this
//! wraps after ~584 years of simulated time, far beyond any experiment in
//! the paper (the longest transfer, 900 GB at 10 Gbps, lasts ~12 minutes).

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An instant on the simulation clock, in nanoseconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of simulated time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDur(pub u64);

impl SimTime {
    pub const ZERO: SimTime = SimTime(0);

    #[inline]
    pub fn nanos(self) -> u64 {
        self.0
    }

    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Time elapsed since `earlier`; saturates to zero if `earlier` is later.
    #[inline]
    pub fn since(self, earlier: SimTime) -> SimDur {
        SimDur(self.0.saturating_sub(earlier.0))
    }
}

impl SimDur {
    pub const ZERO: SimDur = SimDur(0);

    #[inline]
    pub fn from_nanos(ns: u64) -> SimDur {
        SimDur(ns)
    }

    #[inline]
    pub fn from_micros(us: u64) -> SimDur {
        SimDur(us * 1_000)
    }

    #[inline]
    pub fn from_millis(ms: u64) -> SimDur {
        SimDur(ms * 1_000_000)
    }

    #[inline]
    pub fn from_secs(s: u64) -> SimDur {
        SimDur(s * 1_000_000_000)
    }

    /// Construct from fractional seconds, rounding to the nearest nanosecond.
    #[inline]
    pub fn from_secs_f64(s: f64) -> SimDur {
        debug_assert!(s >= 0.0, "negative duration");
        SimDur((s * 1e9).round() as u64)
    }

    #[inline]
    pub fn nanos(self) -> u64 {
        self.0
    }

    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    #[inline]
    pub fn saturating_sub(self, rhs: SimDur) -> SimDur {
        SimDur(self.0.saturating_sub(rhs.0))
    }

    /// Scale by an integer factor (e.g. per-packet cost times packet count).
    #[inline]
    pub fn scaled(self, factor: u64) -> SimDur {
        SimDur(self.0 * factor)
    }
}

impl Add<SimDur> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDur) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDur> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDur) {
        self.0 += rhs.0;
    }
}

impl Add for SimDur {
    type Output = SimDur;
    #[inline]
    fn add(self, rhs: SimDur) -> SimDur {
        SimDur(self.0 + rhs.0)
    }
}

impl AddAssign for SimDur {
    #[inline]
    fn add_assign(&mut self, rhs: SimDur) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimDur;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDur {
        SimDur(self.0 - rhs.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 < 1_000 {
            write!(f, "{}ns", self.0)
        } else if self.0 < 1_000_000 {
            write!(f, "{:.3}us", self.0 as f64 / 1e3)
        } else if self.0 < 1_000_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e6)
        } else {
            write!(f, "{:.3}s", self.as_secs_f64())
        }
    }
}

/// A transmission rate in bits per second.
///
/// Link speeds in the paper are quoted in Gbps (10, 32, 40); this type keeps
/// integer bit/s so transmission-time arithmetic is exact and deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Bandwidth(pub u64);

impl Bandwidth {
    #[inline]
    pub fn from_gbps(g: u64) -> Bandwidth {
        Bandwidth(g * 1_000_000_000)
    }

    /// Construct from fractional Gbps (e.g. the 25.6 Gbps PCIe 2.0 x8 ceiling).
    #[inline]
    pub fn from_gbps_f64(g: f64) -> Bandwidth {
        debug_assert!(g >= 0.0);
        Bandwidth((g * 1e9).round() as u64)
    }

    #[inline]
    pub fn bits_per_sec(self) -> u64 {
        self.0
    }

    #[inline]
    pub fn as_gbps(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Time to serialize `bytes` onto a link of this rate (ceiling division,
    /// so a nonempty message always takes at least 1 ns).
    #[inline]
    pub fn tx_time(self, bytes: u64) -> SimDur {
        if self.0 == 0 {
            return SimDur(u64::MAX / 4); // "infinitely slow": effectively stalls
        }
        let bits = bytes as u128 * 8;
        let ns = (bits * 1_000_000_000).div_ceil(self.0 as u128);
        SimDur(ns as u64)
    }

    /// Bytes that can be serialized in `dur` at this rate (floor).
    #[inline]
    pub fn bytes_in(self, dur: SimDur) -> u64 {
        let bits = self.0 as u128 * dur.0 as u128 / 1_000_000_000;
        (bits / 8) as u64
    }
}

/// Convenience: throughput of `bytes` moved over `dur`, in Gbps.
#[inline]
pub fn gbps(bytes: u64, dur: SimDur) -> f64 {
    if dur.0 == 0 {
        return 0.0;
    }
    (bytes as f64 * 8.0) / dur.as_secs_f64() / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tx_time_exact_at_round_rates() {
        // 1 KB at 8 Gbps = 1 microsecond exactly.
        let bw = Bandwidth::from_gbps(8);
        assert_eq!(bw.tx_time(1000), SimDur::from_micros(1));
    }

    #[test]
    fn tx_time_rounds_up() {
        // 1 byte at 9 Gbps: 8/9 ns rounds up to 1 ns.
        let bw = Bandwidth::from_gbps(9);
        assert_eq!(bw.tx_time(1), SimDur(1));
    }

    #[test]
    fn tx_time_large_block_no_overflow() {
        // 64 MB at 10 Gbps = 53.687... ms; must not overflow u64 paths.
        let bw = Bandwidth::from_gbps(10);
        let t = bw.tx_time(64 * 1024 * 1024);
        let expect = 64.0 * 1024.0 * 1024.0 * 8.0 / 10e9;
        assert!((t.as_secs_f64() - expect).abs() < 1e-9);
    }

    #[test]
    fn bytes_in_inverts_tx_time_approximately() {
        let bw = Bandwidth::from_gbps(40);
        let t = bw.tx_time(1 << 20);
        let b = bw.bytes_in(t);
        assert!(((1 << 20) - 8..=(1 << 20) + 8).contains(&b), "b={b}");
    }

    #[test]
    fn time_arithmetic() {
        let t = SimTime::ZERO + SimDur::from_millis(49);
        assert_eq!(t.nanos(), 49_000_000);
        assert_eq!(t.since(SimTime::ZERO), SimDur::from_millis(49));
        assert_eq!(SimTime(10).since(SimTime(20)), SimDur::ZERO);
    }

    #[test]
    fn gbps_helper() {
        // 10 GB in 8 seconds = 10 Gbps.
        let g = gbps(10_000_000_000, SimDur::from_secs(8));
        assert!((g - 10.0).abs() < 1e-9);
    }

    #[test]
    fn zero_rate_stalls() {
        let bw = Bandwidth(0);
        assert!(bw.tx_time(1).nanos() > u64::MAX / 8);
        assert_eq!(bw.bytes_in(SimDur::from_secs(1)), 0);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", SimDur(500)), "500ns");
        assert_eq!(format!("{}", SimDur::from_micros(12)), "12.000us");
        assert_eq!(format!("{}", SimDur::from_millis(49)), "49.000ms");
        assert_eq!(format!("{}", SimDur::from_secs(2)), "2.000s");
    }
}
