//! Measurement utilities: throughput meters and latency histograms.
//!
//! The paper's `fio`-based study (§III.B) reports bandwidth, CPU usage,
//! I/O latency, and "I/O performance distribution"; these types provide
//! the same measurements for the simulated engines.

use crate::time::{gbps, SimDur, SimTime};

/// Accumulates transferred bytes over a window and reports goodput.
#[derive(Debug, Clone, Default)]
pub struct ThroughputMeter {
    start: SimTime,
    bytes: u64,
    messages: u64,
    last: SimTime,
}

impl ThroughputMeter {
    pub fn start(now: SimTime) -> ThroughputMeter {
        ThroughputMeter {
            start: now,
            bytes: 0,
            messages: 0,
            last: now,
        }
    }

    pub fn record(&mut self, now: SimTime, bytes: u64) {
        self.bytes += bytes;
        self.messages += 1;
        self.last = now;
    }

    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    pub fn messages(&self) -> u64 {
        self.messages
    }

    /// Goodput in Gbps over `[start, now]`.
    pub fn gbps_at(&self, now: SimTime) -> f64 {
        gbps(self.bytes, now.since(self.start))
    }

    /// Goodput in Gbps over `[start, last completion]`.
    pub fn gbps(&self) -> f64 {
        self.gbps_at(self.last)
    }
}

/// Log-linear latency histogram (HDR-style): 64 power-of-two magnitude
/// groups × 16 linear sub-buckets, covering 1 ns to ~584 years with a
/// bounded relative error of 1/16. Fixed memory, O(1) record.
#[derive(Clone)]
pub struct LatencyHistogram {
    buckets: Box<[u64; 64 * SUB]>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

const SUB: usize = 16;

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    pub fn new() -> LatencyHistogram {
        LatencyHistogram {
            buckets: Box::new([0; 64 * SUB]),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    #[inline]
    fn index(ns: u64) -> usize {
        if ns < SUB as u64 {
            return ns as usize;
        }
        let mag = 63 - ns.leading_zeros() as usize; // floor(log2), >= 4 here
        let shift = mag - 4; // map the top 4 bits below the MSB to a sub-bucket
        let sub = ((ns >> shift) & (SUB as u64 - 1)) as usize;
        (mag - 3) * SUB + sub
    }

    /// Representative (lower-bound) value of bucket `i`, inverse of `index`.
    fn bucket_floor(i: usize) -> u64 {
        let group = i / SUB;
        let sub = (i % SUB) as u64;
        if group == 0 {
            return sub;
        }
        let mag = group + 3;
        let shift = mag - 4;
        (1u64 << mag) | (sub << shift)
    }

    pub fn record(&mut self, latency: SimDur) {
        let ns = latency.nanos();
        self.buckets[Self::index(ns)] += 1;
        self.count += 1;
        self.sum += ns as u128;
        self.min = self.min.min(ns);
        self.max = self.max.max(ns);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn min(&self) -> SimDur {
        SimDur(if self.count == 0 { 0 } else { self.min })
    }

    pub fn max(&self) -> SimDur {
        SimDur(self.max)
    }

    pub fn mean(&self) -> SimDur {
        if self.count == 0 {
            return SimDur::ZERO;
        }
        SimDur((self.sum / self.count as u128) as u64)
    }

    /// Value at quantile `q` in `[0, 1]` (lower-bound of the containing
    /// bucket, so the result is exact to within the bucket's 1/16 error).
    pub fn quantile(&self, q: f64) -> SimDur {
        if self.count == 0 {
            return SimDur::ZERO;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return SimDur(Self::bucket_floor(i).max(self.min).min(self.max));
            }
        }
        SimDur(self.max)
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl std::fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LatencyHistogram")
            .field("count", &self.count)
            .field("mean", &self.mean())
            .field("p50", &self.quantile(0.5))
            .field("p99", &self.quantile(0.99))
            .field("max", &self.max())
            .finish()
    }
}

/// Running mean/max of a scalar series (used for queue depths and credit
/// occupancy traces).
#[derive(Debug, Clone, Copy, Default)]
pub struct SeriesStats {
    pub count: u64,
    pub sum: f64,
    pub max: f64,
}

impl SeriesStats {
    pub fn record(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        if v > self.max {
            self.max = v;
        }
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_meter_gbps() {
        let mut m = ThroughputMeter::start(SimTime::ZERO);
        m.record(SimTime(1_000_000_000), 1_250_000_000); // 1.25 GB in 1 s = 10 Gbps
        assert!((m.gbps() - 10.0).abs() < 1e-9);
        assert_eq!(m.messages(), 1);
    }

    #[test]
    fn histogram_index_roundtrip() {
        for ns in [0u64, 1, 15, 16, 17, 100, 1000, 65535, 1 << 20, u64::MAX / 2] {
            let i = LatencyHistogram::index(ns);
            let floor = LatencyHistogram::bucket_floor(i);
            assert!(floor <= ns, "floor {floor} > value {ns}");
            // Relative bucket width bound: 1/16 of the magnitude.
            if ns >= 16 {
                assert!(
                    (ns - floor) as f64 <= ns as f64 / 16.0 + 1.0,
                    "bucket too wide for {ns}: floor {floor}"
                );
            }
        }
    }

    #[test]
    fn histogram_monotone_index() {
        let mut prev = 0;
        for ns in 0..100_000u64 {
            let i = LatencyHistogram::index(ns);
            assert!(i >= prev, "index not monotone at {ns}");
            prev = i;
        }
    }

    #[test]
    fn histogram_quantiles() {
        let mut h = LatencyHistogram::new();
        for us in 1..=1000u64 {
            h.record(SimDur::from_micros(us));
        }
        assert_eq!(h.count(), 1000);
        let p50 = h.quantile(0.5).nanos() as f64;
        assert!((p50 - 500_000.0).abs() / 500_000.0 < 0.1, "p50={p50}");
        let p99 = h.quantile(0.99).nanos() as f64;
        assert!((p99 - 990_000.0).abs() / 990_000.0 < 0.1, "p99={p99}");
        assert_eq!(h.quantile(0.0), h.min());
        // p100 lands in the max's bucket: lower bound within 1/16 of the max.
        let p100 = h.quantile(1.0).nanos() as f64;
        assert!(
            (1_000_000.0 * 15.0 / 16.0..=1_000_000.0).contains(&p100),
            "p100={p100}"
        );
    }

    #[test]
    fn histogram_mean_min_max() {
        let mut h = LatencyHistogram::new();
        h.record(SimDur(100));
        h.record(SimDur(300));
        assert_eq!(h.mean(), SimDur(200));
        assert_eq!(h.min(), SimDur(100));
        assert_eq!(h.max(), SimDur(300));
    }

    #[test]
    fn histogram_merge() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        a.record(SimDur(10));
        b.record(SimDur(1000));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), SimDur(10));
        assert_eq!(a.max(), SimDur(1000));
    }

    #[test]
    fn empty_histogram_is_sane() {
        let h = LatencyHistogram::new();
        assert_eq!(h.quantile(0.5), SimDur::ZERO);
        assert_eq!(h.mean(), SimDur::ZERO);
        assert_eq!(h.min(), SimDur::ZERO);
    }

    #[test]
    fn series_stats() {
        let mut s = SeriesStats::default();
        s.record(1.0);
        s.record(3.0);
        assert_eq!(s.mean(), 2.0);
        assert_eq!(s.max, 3.0);
    }
}
