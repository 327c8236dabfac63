//! Lock-free log-bucketed latency histograms.
//!
//! [`Histogram`] is a fixed-size array of relaxed atomic counters
//! indexed by a logarithmic bucketing of the recorded value (HdrHistogram
//! style, but dependency-free): the first octave is linear, every later
//! octave splits into `2^SUB_BITS` sub-buckets, so the worst-case
//! relative error of any reported quantile is `1 / 2^(SUB_BITS + 1)` ≈
//! 1.6% — within the ~2.5% budget the observability layer promises.
//! Recording is wait-free (three relaxed `fetch_add`s and one
//! `fetch_max`), so the hot paths — pool acquire, seal→submit, backend
//! issue→completion — can record from every writer and IO worker with no
//! shared lock. Histograms merge bucket-wise, which is how the fsck
//! work-stealing checkers and the cluster simulator combine per-worker
//! recordings into one distribution.
//!
//! `sum` is the *exact* sum of recorded values (not reconstructed from
//! buckets), so `hist.sum == <matching summed-ns counter>` holds exactly
//! whenever both are fed at the same call site — the consistency the
//! `crfs-stat --json` round-trip test asserts.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Duration;

/// Sub-bucket resolution bits: 32 sub-buckets per octave.
pub const SUB_BITS: u32 = 5;
const SUB: usize = 1 << SUB_BITS;
/// Buckets: one linear first octave + 32 sub-buckets for each of the
/// 59 remaining octaves of a `u64` (shift 0 through 58).
pub const BUCKETS: usize = (65 - SUB_BITS as usize) * SUB;

/// Index of the bucket holding `v`.
#[inline]
fn bucket_index(v: u64) -> usize {
    if v < SUB as u64 {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros() as usize; // >= SUB_BITS
        let shift = msb - SUB_BITS as usize;
        let sub = ((v >> shift) as usize) & (SUB - 1);
        (shift + 1) * SUB + sub
    }
}

/// Smallest value mapping to bucket `idx` (its lower bound).
fn bucket_low(idx: usize) -> u64 {
    if idx < 2 * SUB {
        // First octave is linear; the second octave's shift is 1 but its
        // sub-bucket base (32..64) is still exact.
        return idx as u64;
    }
    let shift = (idx / SUB - 1) as u32;
    let sub = (idx % SUB) as u64;
    (SUB as u64 + sub) << shift
}

/// Representative value reported for bucket `idx`: its midpoint, which
/// halves the worst-case quantile error versus either bound.
fn bucket_mid(idx: usize) -> u64 {
    let low = bucket_low(idx);
    if idx + 1 >= BUCKETS {
        return low;
    }
    let width = bucket_low(idx + 1) - low;
    low + width / 2
}

/// A mergeable, wait-free, log-bucketed histogram of `u64` samples
/// (nanoseconds, throughout this crate).
pub struct Histogram {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count.load(Relaxed))
            .field("sum", &self.sum.load(Relaxed))
            .field("max", &self.max.load(Relaxed))
            .finish_non_exhaustive()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one sample. Wait-free; safe from any thread.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Relaxed);
        self.count.fetch_add(1, Relaxed);
        self.sum.fetch_add(v, Relaxed);
        self.max.fetch_max(v, Relaxed);
    }

    /// Records a duration as nanoseconds.
    #[inline]
    pub fn record_dur(&self, d: Duration) {
        self.record(d.as_nanos() as u64);
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Relaxed)
    }

    /// Exact sum of recorded values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Relaxed)
    }

    /// Folds every sample of `other` into `self` (bucket-wise; exact
    /// count/sum/max).
    pub fn merge(&self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter().zip(other.buckets.iter()) {
            let n = theirs.load(Relaxed);
            if n > 0 {
                mine.fetch_add(n, Relaxed);
            }
        }
        self.count.fetch_add(other.count.load(Relaxed), Relaxed);
        self.sum.fetch_add(other.sum.load(Relaxed), Relaxed);
        self.max.fetch_max(other.max.load(Relaxed), Relaxed);
    }

    /// Takes a coherent-enough point-in-time copy with percentiles
    /// extracted. Concurrent recording only skews the copy by the
    /// in-flight samples — fine for reporting.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let counts: Vec<u64> = self.buckets.iter().map(|b| b.load(Relaxed)).collect();
        let total: u64 = counts.iter().sum();
        let quantile = |q: f64| -> u64 {
            if total == 0 {
                return 0;
            }
            // Rank of the q-quantile sample, 1-based, clamped into range.
            let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
            let mut seen = 0u64;
            for (idx, &n) in counts.iter().enumerate() {
                seen += n;
                if seen >= rank {
                    return bucket_mid(idx);
                }
            }
            bucket_mid(BUCKETS - 1)
        };
        HistogramSnapshot {
            count: self.count.load(Relaxed),
            sum: self.sum.load(Relaxed),
            max: self.max.load(Relaxed),
            p50: quantile(0.50),
            p90: quantile(0.90),
            p99: quantile(0.99),
            p999: quantile(0.999),
            buckets: counts
                .iter()
                .enumerate()
                .filter(|(_, &n)| n > 0)
                .map(|(idx, &n)| (bucket_low(idx), n))
                .collect(),
        }
    }
}

/// Point-in-time copy of a [`Histogram`] with quantiles extracted.
/// All values are in the recorded unit (nanoseconds throughout crfs).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Exact sum of recorded values.
    pub sum: u64,
    /// Largest recorded value (exact).
    pub max: u64,
    /// Median (bucket-midpoint estimate, ≤ ~1.6% relative error).
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile.
    pub p999: u64,
    /// The full recorded distribution: `(bucket_lower_bound, count)`
    /// for every non-empty bucket, ascending.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// Mean recorded value; 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Serializes the snapshot for BENCH artifacts and `crfs-stat`:
    /// summary statistics plus the full non-empty bucket list as
    /// `[bucket_lower_bound, count]` pairs.
    pub fn to_value(&self) -> serde_json::Value {
        serde_json::json!({
            "count": self.count,
            "sum": self.sum,
            "max": self.max,
            "mean": self.mean(),
            "p50": self.p50,
            "p90": self.p90,
            "p99": self.p99,
            "p999": self.p999,
            "buckets": self.buckets
                .iter()
                .map(|&(low, n)| serde_json::json!([low, n]))
                .collect::<Vec<_>>(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotonic_and_in_range() {
        let mut probes: Vec<u64> = Vec::new();
        for shift in 0..64u32 {
            for near in [0i64, 1, -1, 7] {
                let v = (1u128 << shift) as i128 + near as i128;
                if (0..=u64::MAX as i128).contains(&v) {
                    probes.push(v as u64);
                }
            }
        }
        probes.push(u64::MAX);
        probes.sort_unstable();
        let mut last = 0usize;
        for v in probes {
            let idx = bucket_index(v);
            assert!(idx < BUCKETS, "v={v} idx={idx}");
            assert!(idx >= last, "non-monotonic at {v}: {idx} < {last}");
            last = idx;
        }
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(31), 31);
        assert_eq!(bucket_index(32), 32);
    }

    #[test]
    fn bucket_low_inverts_index() {
        for idx in 0..BUCKETS {
            let low = bucket_low(idx);
            assert_eq!(bucket_index(low), idx, "low bound of {idx} maps back");
            if low > 0 {
                assert!(bucket_index(low - 1) == idx - 1, "predecessor of {idx}");
            }
        }
    }

    #[test]
    fn quantiles_are_within_relative_error() {
        let h = Histogram::new();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 100_000);
        assert_eq!(s.sum, 100_000 * 100_001 / 2);
        assert_eq!(s.max, 100_000);
        for (got, want) in [
            (s.p50, 50_000.0),
            (s.p90, 90_000.0),
            (s.p99, 99_000.0),
            (s.p999, 99_900.0),
        ] {
            let err = (got as f64 - want).abs() / want;
            assert!(err < 0.025, "got {got}, want ~{want}: err {err:.4}");
        }
    }

    #[test]
    fn empty_histogram_reports_zeroes() {
        let s = Histogram::new().snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.p999, 0);
        assert_eq!(s.mean(), 0.0);
        assert!(s.buckets.is_empty());
    }

    #[test]
    fn merge_is_exact_on_count_sum_max() {
        let a = Histogram::new();
        let b = Histogram::new();
        for v in [3u64, 500, 70_000] {
            a.record(v);
        }
        for v in [9u64, 1_000_000] {
            b.record(v);
        }
        a.merge(&b);
        let s = a.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 3 + 500 + 70_000 + 9 + 1_000_000);
        assert_eq!(s.max, 1_000_000);
        assert_eq!(s.buckets.iter().map(|&(_, n)| n).sum::<u64>(), 5);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        use std::sync::Arc;
        let h = Arc::new(Histogram::new());
        let threads = 8;
        let per = 10_000u64;
        std::thread::scope(|s| {
            for t in 0..threads {
                let h = Arc::clone(&h);
                s.spawn(move || {
                    for i in 0..per {
                        h.record(t * 1000 + i);
                    }
                });
            }
        });
        let snap = h.snapshot();
        assert_eq!(snap.count, threads * per);
        assert_eq!(
            snap.buckets.iter().map(|&(_, n)| n).sum::<u64>(),
            threads * per
        );
    }
}
