//! Latency summaries. A timing is reported as its median and as the
//! highest percentile that still has at least ten samples beyond it,
//! always with the sample count.

/// Percentiles the tail rule chooses from, highest first.
const TAIL_LADDER: [f64; 5] = [0.9999, 0.999, 0.99, 0.95, 0.9];

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice (`q` in `[0, 1]`).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[rank(q, sorted.len()).clamp(1, sorted.len()) - 1]
}

/// Nearest rank `ceil(q·n)`, immune to `q·n` landing a hair above an
/// integer in floating point.
fn rank(q: f64, n: usize) -> usize {
    (q * n as f64 - 1e-9).ceil().max(0.0) as usize
}

/// The highest percentile on the ladder with at least [`MIN_BEYOND`]
/// samples strictly above its rank, or `None` when even p90 is not
/// supported (fewer than 100 samples).
pub fn tail_quantile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .into_iter()
        .find(|&q| n.saturating_sub(rank(q, n)) >= MIN_BEYOND)
}

/// Median, p99 and the supported tail of one latency sample (µs).
#[derive(Debug, Clone)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub p99: f64,
    /// `(q, value)` of the highest supported percentile.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    pub fn of(mut samples: Vec<f64>) -> Summary {
        samples.sort_by(f64::total_cmp);
        Summary {
            n: samples.len(),
            p50: percentile(&samples, 0.5),
            p99: percentile(&samples, 0.99),
            tail: tail_quantile(samples.len()).map(|q| (q, percentile(&samples, q))),
        }
    }

    /// Whether p99 has at least [`MIN_BEYOND`] samples beyond it.
    pub fn p99_supported(&self) -> bool {
        tail_quantile(self.n).is_some_and(|q| q >= 0.99)
    }

    /// One report line: `name p50 … p99 … tail … (n=…)`.
    pub fn describe(&self, name: &str) -> String {
        let tail = match self.tail {
            Some((q, v)) => format!("p{} {:.1} us", q * 100.0, v),
            None => "tail unsupported".into(),
        };
        format!(
            "{name}: p50 {:.1} us, p99 {:.1} us{}, {tail} (n={})",
            self.p50,
            self.p99,
            if self.p99_supported() {
                ""
            } else {
                " [fewer than 10 beyond]"
            },
            self.n
        )
    }
}

/// Median of a small sample (set-up repetitions).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(tail_quantile(99), None);
        assert_eq!(tail_quantile(100), Some(0.9));
        assert_eq!(tail_quantile(199), Some(0.9));
        assert_eq!(tail_quantile(200), Some(0.95));
        assert_eq!(tail_quantile(999), Some(0.95));
        assert_eq!(tail_quantile(1000), Some(0.99));
        assert_eq!(tail_quantile(9_999), Some(0.99));
        assert_eq!(tail_quantile(10_000), Some(0.999));
        assert_eq!(tail_quantile(100_000), Some(0.9999));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 500.0);
        assert_eq!(percentile(&v, 0.99), 990.0);
        assert_eq!(percentile(&v, 1.0), 1000.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        let s = Summary::of(v.into_iter().rev().collect());
        assert_eq!((s.n, s.p50, s.p99), (1000, 500.0, 990.0));
        assert!(s.p99_supported());
        assert_eq!(s.tail, Some((0.99, 990.0)));
        assert!(!Summary::of(vec![1.0; 999]).p99_supported());
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.0);
    }
}
