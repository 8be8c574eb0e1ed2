//! Lock-free log2-bucketed latency histograms.
//!
//! The live plane's workhorse: a fixed array of 64 `AtomicU64` buckets,
//! one relaxed `fetch_add` per recorded value, no allocation, no locks,
//! no wall-clock reads of its own — a recorder on a hot path costs one
//! atomic increment plus a `leading_zeros`. Bucket `i` holds values
//! whose bit length is `i` (bucket 0 holds zero, bucket `i` holds
//! `2^(i-1) ..= 2^i - 1`), so quantiles come back with power-of-two
//! granularity — coarse, but monotone, mergeable, and cheap, which is
//! the trade the live plane wants: the *deterministic* machinery
//! (`serve.*`, `exchange.*`, golden traces) stays the precision
//! instrument; this one answers "what is p99 doing right now" without
//! perturbing it.
//!
//! Snapshots ([`HistogramSnapshot`]) are plain value types: mergeable
//! (bucket-wise saturating addition — associative and commutative, so
//! cross-rank aggregation order cannot matter) and quantile-extractable;
//! the socket fabric's TELEM report carries them as 66 little-endian
//! `u64`s (`sw_net::framing::TelemFrame` is their codec).

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of log2 buckets; covers the full `u64` range.
pub const HIST_BUCKETS: usize = 64;

/// Wire bytes of one [`HistogramSnapshot`] in a TELEM report
/// (64 buckets + sum + max, little-endian u64s).
pub const HIST_WIRE_BYTES: usize = (HIST_BUCKETS + 2) * 8;

/// The bucket a value lands in: its bit length, saturated into the
/// last bucket (the overflow bucket — values `>= 2^62` all land in
/// bucket 63, so a hostile or broken recorder can never index out of
/// range and extreme values are counted, not lost).
#[inline]
fn bucket_of(v: u64) -> usize {
    ((64 - v.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
}

/// Representative value reported for a quantile that lands in bucket
/// `i`: the bucket's inclusive upper bound.
#[inline]
fn bucket_upper_bound(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 63 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// A lock-free, mergeable, log2-bucketed histogram of `u64` samples
/// (latencies in microseconds, byte counts, queue depths — any
/// nonnegative magnitude).
pub struct LatencyHistogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one sample. Wait-free: two relaxed atomic adds and one
    /// `fetch_max`.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Copies the current state into a plain snapshot. Concurrent
    /// recorders may land between bucket reads — a live snapshot is a
    /// consistent-enough view, never a torn memory read.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut s = HistogramSnapshot::default();
        for (i, b) in self.buckets.iter().enumerate() {
            s.buckets[i] = b.load(Ordering::Relaxed);
        }
        s.sum = self.sum.load(Ordering::Relaxed);
        s.max = self.max.load(Ordering::Relaxed);
        s
    }

    /// Zeroes every cell. Quiescent-only, like `EventRing::reset`.
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

impl std::fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.snapshot();
        f.debug_struct("LatencyHistogram")
            .field("count", &s.count())
            .field("p50", &s.quantile_permille(500))
            .field("p99", &s.quantile_permille(990))
            .field("max", &s.max)
            .finish()
    }
}

/// A plain-value copy of a [`LatencyHistogram`]: mergeable and
/// quantile-extractable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts (bucket `i` = bit length `i`).
    pub buckets: [u64; HIST_BUCKETS],
    /// Sum of all recorded samples (mean = `sum / count`).
    pub sum: u64,
    /// Largest sample recorded (exact, unlike the bucketed quantiles).
    pub max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self {
            buckets: [0; HIST_BUCKETS],
            sum: 0,
            max: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().fold(0u64, |a, &b| a.saturating_add(b))
    }

    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count()).unwrap_or(0)
    }

    /// The `p`-permille quantile (`500` = p50, `990` = p99), reported
    /// as the inclusive upper bound of the bucket the quantile falls
    /// in — except the top quantile, which reports the exact recorded
    /// maximum. Monotone in `p`; 0 when empty.
    pub fn quantile_permille(&self, p: u64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        // Rank of the quantile sample, 1-based, ceiling — p50 of two
        // samples is the first, p99 of 100 samples is the 99th.
        let rank = (total.saturating_mul(p.min(1000)).max(1)).div_ceil(1000);
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen = seen.saturating_add(b);
            if seen >= rank {
                // The quantile never exceeds the observed maximum; the
                // top bucket in particular answers with the exact max
                // rather than an upper bound off by up to 2x.
                return bucket_upper_bound(i).min(self.max);
            }
        }
        self.max
    }

    /// Folds `other` into `self`: bucket-wise saturating addition, sum
    /// saturating addition, maximum of maxima. Saturating `u64`
    /// addition is associative and commutative, so any merge tree over
    /// any rank order yields the same aggregate.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a = a.saturating_add(*b);
        }
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_partition_the_value_space() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), 63, "overflow bucket saturates");
        assert_eq!(bucket_of(1 << 62), 63);
        assert_eq!(bucket_of((1 << 62) - 1), 62);
    }

    #[test]
    fn quantiles_track_recorded_magnitudes() {
        let h = LatencyHistogram::new();
        for _ in 0..90 {
            h.record(100); // bucket 7 (64..=127)
        }
        for _ in 0..10 {
            h.record(10_000); // bucket 14 (8192..=16383)
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 100);
        assert_eq!(s.quantile_permille(500), 127);
        assert_eq!(s.quantile_permille(900), 127);
        // Bucket 14's upper bound is 16383, clamped to the observed max.
        assert_eq!(s.quantile_permille(990), 10_000);
        assert_eq!(s.quantile_permille(1000), 10_000, "top quantile is the exact max");
        assert_eq!(s.max, 10_000);
        assert_eq!(s.mean(), (90 * 100 + 10 * 10_000) / 100);
    }

    #[test]
    fn empty_histogram_answers_zero() {
        let s = LatencyHistogram::new().snapshot();
        assert_eq!(s.count(), 0);
        assert_eq!(s.quantile_permille(500), 0);
        assert_eq!(s.mean(), 0);
    }

    #[test]
    fn merge_is_addition() {
        let a = LatencyHistogram::new();
        let b = LatencyHistogram::new();
        a.record(5);
        a.record(300);
        b.record(300);
        b.record(70_000);
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(m.count(), 4);
        assert_eq!(m.sum, 5 + 300 + 300 + 70_000);
        assert_eq!(m.max, 70_000);
    }

    #[test]
    fn concurrent_recording_conserves_counts() {
        let h = std::sync::Arc::new(LatencyHistogram::new());
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let h = h.clone();
                std::thread::spawn(move || {
                    for i in 0..1000u64 {
                        h.record(t * 1000 + i);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(h.snapshot().count(), 4000);
    }
}
