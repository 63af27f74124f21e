//! Log-bucketed nanosecond histograms for per-stage tail latency.
//!
//! The stage clocks in [`crate::pipeline::StageBreakdown`] are sums
//! (load, place and verify are these histograms' [`NsHist::sum`]s) —
//! they give a mean, and a mean hides exactly the thing a completion
//! batched backend changes: the shape of the tail. Each worker records
//! its per-block stage times into a local [`NsHist`] (one increment per
//! sample, no allocation), the histograms merge at join, and the report
//! carries p50/p99 alongside the mean.
//!
//! Buckets are powers of two: sample `ns` lands in bucket
//! `64 - leading_zeros(ns)`, so bucket `b` covers `[2^(b-1), 2^b)`.
//! Quantiles interpolate linearly inside the winning bucket, which keeps
//! the error within the bucket's factor-of-two width — plenty for
//! comparing a 3 µs tail against a 30 µs one.

/// A histogram of nanosecond samples with power-of-two buckets.
#[derive(Debug, Clone)]
pub struct NsHist {
    buckets: [u64; 65],
    count: u64,
    sum: u64,
}

impl Default for NsHist {
    fn default() -> NsHist {
        NsHist {
            buckets: [0; 65],
            count: 0,
            sum: 0,
        }
    }
}

impl NsHist {
    pub fn new() -> NsHist {
        NsHist::default()
    }

    /// Record one sample.
    #[inline]
    pub fn record(&mut self, ns: u64) {
        let b = 64 - (ns.leading_zeros() as usize); // 0 lands in bucket 0
        self.buckets[b] += 1;
        self.count += 1;
        self.sum += ns;
    }

    /// Fold another worker's histogram into this one.
    pub fn merge(&mut self, other: &NsHist) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    /// Every sample added up, ns: a stage's clock.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean sample, ns (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Quantile `q` in [0, 1], interpolated inside the winning bucket.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).max(1.0);
        let mut seen = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if (seen + n) as f64 >= target {
                // Bucket b covers [2^(b-1), 2^b); interpolate by the
                // fraction of the target inside it.
                let lo = if b == 0 {
                    0.0
                } else {
                    (1u64 << (b - 1)) as f64
                };
                let hi = if b == 0 {
                    1.0
                } else {
                    (1u64 << b.min(63)) as f64
                };
                let frac = (target - seen as f64) / n as f64;
                return lo + (hi - lo) * frac;
            }
            seen += n;
        }
        self.sum as f64 // unreachable with count > 0
    }

    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }
}

/// Per-stage tail histograms of a live transfer — each half fills the
/// side it runs (load/dispatch at the source, place/verify at the sink);
/// [`crate::run_live`] merges the two.
#[derive(Debug, Clone, Default)]
pub struct StageTails {
    pub load: NsHist,
    pub dispatch: NsHist,
    pub place: NsHist,
    pub verify: NsHist,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_bracket_the_samples() {
        let mut h = NsHist::new();
        for ns in 1..=1000u64 {
            h.record(ns);
        }
        assert_eq!(h.count(), 1000);
        let p50 = h.p50();
        let p99 = h.p99();
        // Power-of-two buckets: the estimate is within its bucket.
        assert!((256.0..=1024.0).contains(&p50), "p50 {p50}");
        assert!((512.0..=1024.0).contains(&p99), "p99 {p99}");
        assert!(p50 <= p99);
        assert!((h.mean() - 500.5).abs() < 1.0);
    }

    #[test]
    fn merge_is_additive() {
        let mut a = NsHist::new();
        let mut b = NsHist::new();
        for ns in [10u64, 100, 1000] {
            a.record(ns);
            b.record(ns * 7);
        }
        let mut m = a.clone();
        m.merge(&b);
        assert_eq!(m.count(), 6);
        assert!(m.mean() > a.mean());
        assert!(m.p99() >= a.p99());
    }

    /// The sum is each recorded sample added once, and a merge adds
    /// the other histogram's.
    #[test]
    fn sum_adds_every_sample_and_every_merge() {
        let mut a = NsHist::new();
        let mut b = NsHist::new();
        for ns in [0u64, 3, 1000] {
            a.record(ns);
        }
        b.record(1 << 40);
        assert_eq!(a.sum(), 1003);
        a.merge(&b);
        assert_eq!(a.sum(), 1003 + (1 << 40));
        assert_eq!(b.sum(), 1 << 40);
        assert_eq!(NsHist::new().sum(), 0);
    }

    #[test]
    fn empty_hist_is_zero() {
        let h = NsHist::new();
        assert!(h.is_empty());
        assert_eq!(h.p50(), 0.0);
        assert_eq!(h.mean(), 0.0);
    }
}
