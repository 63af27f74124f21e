//! Order statistics for the benchmark's reports: medians (never a
//! best-of), Python-compatible quartiles for the repeatability check,
//! nearest-rank percentiles, and the rule for which tail percentile a
//! sample is large enough to support.

/// What every reported series carries besides its central value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub min: f64,
    pub max: f64,
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values` (mean of the two middle elements for an even
/// count); `None` for an empty series.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    match v.len() {
        0 => None,
        n if n % 2 == 1 => Some(v[n / 2]),
        n => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

pub fn summary(values: &[f64]) -> Option<Summary> {
    let v = sorted(values);
    Some(Summary {
        n: v.len(),
        median: median(&v)?,
        min: *v.first()?,
        max: *v.last()?,
    })
}

/// The three cut points of `statistics.quantiles(values, n=4)` in
/// Python (the default "exclusive" method), which is what the driver
/// uses for its spread check. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (k, q) in out.iter_mut().enumerate() {
        let i = k + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *q = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Distance between the first and third quartile as a share of the
/// median: the spread the driver holds against a metric's bound.
pub fn iqr_share(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// Nearest-rank percentile: the smallest value with at least `p` percent
/// of the sample at or below it. `p = 99` of fewer than 100 values is
/// therefore the maximum.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let v = sorted(values);
    if v.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    Some(v[rank.clamp(1, v.len()) - 1])
}

/// Percentiles a report may quote as its tail, lowest first.
const TAIL_CANDIDATES: [f64; 6] = [75.0, 90.0, 95.0, 99.0, 99.9, 99.99];

/// The highest tail percentile that still has at least ten samples
/// beyond it in a sample of `n`; `None` when even p75 does not (fewer
/// than 40 samples: quote the median and the maximum instead).
pub fn supported_tail(n: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .iter()
        .copied()
        .rfind(|p| n as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        let s = summary(&[5.0, 1.0, 9.0]).unwrap();
        assert_eq!((s.n, s.median, s.min, s.max), (3, 5.0, 1.0, 9.0));
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) -> [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 4, 8], n=4) -> [1.25, 3.0, 7.0]
        assert_eq!(quartiles(&[8.0, 1.0, 4.0, 2.0]), Some([1.25, 3.0, 7.0]));
        // statistics.quantiles([10, 20], n=4) -> [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), Some([7.5, 15.0, 22.5]));
        assert_eq!(quartiles(&[1.0]), None);
        assert!((iqr_share(&v).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(100.0));
        assert_eq!(percentile(&v, 99.0), Some(198.0));
        assert_eq!(percentile(&v, 100.0), Some(200.0));
        assert_eq!(percentile(&[7.0, 3.0], 99.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn tail_rule_wants_ten_samples_beyond() {
        assert_eq!(supported_tail(39), None);
        assert_eq!(supported_tail(40), Some(75.0));
        assert_eq!(supported_tail(100), Some(90.0));
        assert_eq!(supported_tail(200), Some(95.0));
        assert_eq!(supported_tail(999), Some(95.0));
        assert_eq!(supported_tail(1000), Some(99.0));
        assert_eq!(supported_tail(1500), Some(99.0));
        assert_eq!(supported_tail(10_000), Some(99.9));
        assert_eq!(supported_tail(100_000), Some(99.99));
    }
}
