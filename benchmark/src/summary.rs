//! Sample summaries: median, quartiles, and the highest percentile a
//! sample count can support.

/// Sorted copy of `xs` (NaN-free by construction: every sample is a
/// measured duration, byte count or ratio of positives).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    v
}

/// Nearest-rank percentile of an ascending slice; 0.0 when empty.
fn rank(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let n = sorted.len();
    let r = ((pct / 100.0) * n as f64).ceil() as usize;
    sorted[r.clamp(1, n) - 1]
}

/// Median (mean of the two middle samples for even counts); 0.0 when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile of unsorted samples.
pub fn percentile(xs: &[f64], pct: f64) -> f64 {
    rank(&sorted(xs), pct)
}

/// Percentiles a report may quote, ascending, each with the `k` for
/// which one sample in `k` lies beyond it (integers: `100 * 0.1` is not
/// `10` in floating point).
const CANDIDATES: [(f64, usize); 6] = [
    (75.0, 4),
    (90.0, 10),
    (95.0, 20),
    (99.0, 100),
    (99.9, 1000),
    (99.99, 10_000),
];

/// The highest candidate percentile with at least ten samples beyond it
/// among `n`, or `None` when even p75 has fewer — a tail quoted from
/// fewer samples is one outlier, not a percentile.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    CANDIDATES
        .iter()
        .rev()
        .find(|&&(_, one_in)| n / one_in >= 10)
        .map(|&(pct, _)| pct)
}

/// Median, supported tail and count of one timing.
#[derive(Debug, Clone, PartialEq)]
pub struct Timing {
    /// Median of the samples.
    pub median: f64,
    /// `(percentile, value)` of the highest supported percentile.
    pub tail: Option<(f64, f64)>,
    /// Sample count.
    pub n: usize,
}

impl Timing {
    /// Summarises `xs`.
    pub fn of(xs: &[f64]) -> Timing {
        let v = sorted(xs);
        Timing {
            median: median(&v),
            tail: highest_supported_percentile(v.len()).map(|p| (p, rank(&v, p))),
            n: v.len(),
        }
    }

    /// `"median 1.23 (p95 4.56, n=200)"` in `unit`.
    pub fn render(&self, unit: &str) -> String {
        match self.tail {
            Some((p, v)) => format!(
                "median {:.4} {unit} (p{p} {v:.4} {unit}, n={})",
                self.median, self.n
            ),
            None => format!(
                "median {:.4} {unit} (n={}, too few for a tail)",
                self.median, self.n
            ),
        }
    }
}

/// Interquartile range over the median, with the quartiles Python's
/// `statistics.quantiles(values, n=4)` gives (exclusive method) — the
/// spread the acceptance check uses. `None` below two samples or for a
/// zero median.
pub fn iqr_share(xs: &[f64]) -> Option<f64> {
    let v = sorted(xs);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let q = |k: usize| -> f64 {
        // statistics.quantiles, method="exclusive".
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    let m = median(&v);
    (m != 0.0).then(|| (q(3) - q(1)) / m.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn percentile_picker_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(0), None);
        assert_eq!(highest_supported_percentile(39), None);
        assert_eq!(highest_supported_percentile(40), Some(75.0));
        assert_eq!(highest_supported_percentile(99), Some(75.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(200), Some(95.0));
        assert_eq!(highest_supported_percentile(999), Some(95.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        assert_eq!(highest_supported_percentile(100_000), Some(99.99));
    }

    #[test]
    fn timing_quotes_the_supported_tail() {
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        let t = Timing::of(&xs);
        assert_eq!(t.n, 200);
        assert_eq!(t.median, 100.5);
        assert_eq!(t.tail, Some((95.0, 190.0)));
        assert_eq!(Timing::of(&[1.0, 2.0, 3.0]).tail, None);
    }

    #[test]
    fn iqr_share_matches_python_exclusive_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let got = iqr_share(&xs).unwrap();
        assert!((got - (8.25 - 2.75) / 5.5).abs() < 1e-12, "{got}");
        assert_eq!(iqr_share(&[1.0]), None);
        assert_eq!(iqr_share(&[0.0, 0.0, 0.0]), None);
    }
}
