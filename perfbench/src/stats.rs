//! Order statistics for host timings: medians, quartiles, the tail
//! percentile a sample can support, and request logs where a failure
//! counts as missing every latency limit.

/// A sample needs at least this many values beyond a percentile before
/// that percentile is reported.
pub const MIN_BEYOND: usize = 10;

/// The percentile ladder tail latency is reported on, highest last.
const PERCENTILES: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the middle pair for an even count).
///
/// # Panics
///
/// Panics on an empty sample.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let v = sorted(values);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The median, or 0 for an empty sample (a phase whose every attempt
/// failed, which the run already reports as failed operations).
#[must_use]
pub fn median_or_zero(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        median(values)
    }
}

/// The three quartile cut points exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default `exclusive` method)
/// computes them.
///
/// # Panics
///
/// Panics on fewer than two values.
#[must_use]
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let v = sorted(values);
    let ld = v.len() as i64;
    let m = ld + 1;
    let n = 4i64;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..n) {
        let j = (i * m / n).clamp(1, ld - 1);
        // Negative or > n near the ends: Python extrapolates there too.
        let delta = (i * m - j * n) as f64;
        let j = j as usize;
        *slot = (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64;
    }
    out
}

/// Inter-quartile distance as a share of the median.
#[must_use]
pub fn iqr_share(values: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(values);
    (q3 - q1) / median(values)
}

/// The highest percentile on the ladder with at least [`MIN_BEYOND`] of
/// `n` values strictly beyond it, or `None` when even the median has fewer.
#[must_use]
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    PERCENTILES.iter().copied().rev().find(|p| {
        // Values beyond the p-th percentile: floor(n * (1 - p/100)),
        // computed in hundredths of a percent to stay exact.
        let beyond = n * (10_000 - (p * 100.0).round() as usize) / 10_000;
        beyond >= MIN_BEYOND
    })
}

/// Nearest-rank percentile of `values` (`p` in 0–100).
///
/// # Panics
///
/// Panics on an empty sample.
#[must_use]
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of an empty sample");
    let v = sorted(values);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Latencies of a stream of requests.  A failed, refused or timed-out
/// request is logged as an infinite latency: it counts as failed and as
/// missing any latency limit.
#[derive(Debug, Default, Clone)]
pub struct RequestLog {
    latencies_ms: Vec<f64>,
    failed: u64,
}

impl RequestLog {
    /// Logs a request answered correctly after `ms` milliseconds.
    pub fn ok(&mut self, ms: f64) {
        self.latencies_ms.push(ms);
    }

    /// Logs a request that failed (error, wrong answer, refusal, timeout).
    pub fn failed(&mut self) {
        self.failed += 1;
        self.latencies_ms.push(f64::INFINITY);
    }

    /// Folds another log into this one.
    pub fn merge(&mut self, other: RequestLog) {
        self.failed += other.failed;
        self.latencies_ms.extend(other.latencies_ms);
    }

    /// Requests attempted.
    #[must_use]
    pub fn attempted(&self) -> u64 {
        self.latencies_ms.len() as u64
    }

    /// Requests that failed.
    #[must_use]
    pub fn failures(&self) -> u64 {
        self.failed
    }

    /// How many requests completed within `limit_ms`.
    #[must_use]
    pub fn within(&self, limit_ms: f64) -> u64 {
        self.latencies_ms.iter().filter(|&&l| l <= limit_ms).count() as u64
    }

    /// The `p`-th percentile latency (infinite when it lands on a failure).
    #[must_use]
    pub fn percentile_ms(&self, p: f64) -> f64 {
        percentile(&self.latencies_ms, p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // Reference values from CPython:
        //   statistics.quantiles([1..10], n=4)      == [2.75, 5.5, 8.25]
        //   statistics.quantiles([1, 2], n=4)       == [0.75, 1.5, 2.25]
        //   statistics.quantiles([5, 1, 4, 2, 3], n=4) == [1.5, 3.0, 4.5]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), [1.5, 3.0, 4.5]);
        assert!((iqr_share(&ten) - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(99), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(999), Some(90.0));
        assert_eq!(highest_supported_percentile(1_000), Some(99.0));
        assert_eq!(highest_supported_percentile(9_999), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        assert_eq!(highest_supported_percentile(100_000), Some(99.99));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn a_refused_request_fails_and_misses_every_limit() {
        let mut log = RequestLog::default();
        for _ in 0..99 {
            log.ok(1.0);
        }
        log.failed();
        assert_eq!(log.attempted(), 100);
        assert_eq!(log.failures(), 1);
        assert_eq!(log.within(1.0), 99);
        assert_eq!(log.within(f64::MAX), 99, "no limit admits a failure");
        assert_eq!(log.percentile_ms(99.0), 1.0);
        assert!(log.percentile_ms(100.0).is_infinite());
    }
}
