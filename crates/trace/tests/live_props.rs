//! Property suite for the live telemetry plane's histogram algebra.
//!
//! The parent merges per-rank [`HistogramSnapshot`]s in whatever order
//! the TELEM frames land, so the merge must be a commutative monoid;
//! quantiles must be monotone in `p` so a dashboard can never show
//! p50 > p99; and the overflow bucket must saturate rather than wrap,
//! so a hostile magnitude corrupts nothing.

use proptest::prelude::*;
use sw_trace::live::{HistogramSnapshot, LatencyHistogram, RollingCounter};

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seed-driven histogram shaped like real latency data: mostly small
/// values with a heavy tail, occasionally an extreme outlier.
fn sample_hist(seed: u64) -> HistogramSnapshot {
    let mut st = seed;
    let h = LatencyHistogram::new();
    let n = (splitmix(&mut st) % 200) as usize;
    for _ in 0..n {
        let v = match splitmix(&mut st) % 10 {
            0..=6 => splitmix(&mut st) % 10_000,
            7 | 8 => splitmix(&mut st) % 10_000_000,
            _ => splitmix(&mut st), // extreme outlier, may hit bucket 63
        };
        h.record(v);
    }
    h.snapshot()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Merge is commutative: rank order on the ctrl connection cannot
    /// change the aggregate.
    #[test]
    fn merge_is_commutative(seed in 0u64..u64::MAX) {
        let a = sample_hist(seed);
        let b = sample_hist(seed ^ 0xB0B);
        let mut ab = a;
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        prop_assert_eq!(ab, ba);
    }

    /// Merge is associative: any merge tree over the ranks yields the
    /// same aggregate, so the parent may fold incrementally.
    #[test]
    fn merge_is_associative(seed in 0u64..u64::MAX) {
        let a = sample_hist(seed);
        let b = sample_hist(seed ^ 0xB0B);
        let c = sample_hist(seed ^ 0xCAFE);
        let mut left = a;
        left.merge(&b);
        left.merge(&c);
        let mut bc = b;
        bc.merge(&c);
        let mut right = a;
        right.merge(&bc);
        prop_assert_eq!(left, right);
    }

    /// The empty snapshot is the merge identity.
    #[test]
    fn empty_is_identity(seed in 0u64..u64::MAX) {
        let a = sample_hist(seed);
        let mut m = a;
        m.merge(&HistogramSnapshot::default());
        prop_assert_eq!(m, a);
        let mut m2 = HistogramSnapshot::default();
        m2.merge(&a);
        prop_assert_eq!(m2, a);
    }

    /// Quantiles are monotone in `p` and bounded by the recorded max —
    /// a dashboard can never render p50 above p99 or p99 above max.
    #[test]
    fn quantiles_are_monotone_and_bounded(seed in 0u64..u64::MAX) {
        let s = sample_hist(seed);
        let qs: Vec<u64> = [0u64, 100, 250, 500, 900, 990, 999, 1000]
            .iter()
            .map(|&p| s.quantile_permille(p))
            .collect();
        for w in qs.windows(2) {
            prop_assert!(w[0] <= w[1], "quantiles must be monotone: {:?}", qs);
        }
        prop_assert!(*qs.last().unwrap() <= s.max.max(1));
        prop_assert_eq!(s.quantile_permille(1000), s.max.min(s.quantile_permille(1000)));
    }

    /// Extreme values land in the saturating overflow bucket and are
    /// counted — never lost, never out of range.
    #[test]
    fn overflow_bucket_saturates(seed in 0u64..u64::MAX) {
        let h = LatencyHistogram::new();
        let mut st = seed;
        let n = 1 + (splitmix(&mut st) % 50) as usize;
        for _ in 0..n {
            h.record(u64::MAX - (splitmix(&mut st) % 1000));
        }
        let s = h.snapshot();
        prop_assert_eq!(s.buckets[63], n as u64);
        prop_assert_eq!(s.count(), n as u64);
        // The sum saturates rather than wrapping.
        if n >= 2 {
            prop_assert!(s.sum >= u64::MAX - 2000 * n as u64);
        }
    }

    /// Rolling windows are deterministic under explicit timestamps:
    /// the same record schedule always yields the same window totals,
    /// and totals never exceed what was recorded.
    #[test]
    fn window_totals_are_deterministic_and_conservative(seed in 0u64..u64::MAX) {
        let mut st = seed;
        let base = 100 + splitmix(&mut st) % 1000;
        let schedule: Vec<(u64, u64)> = (0..(splitmix(&mut st) % 40))
            .map(|_| (base + splitmix(&mut st) % 12, 1 + splitmix(&mut st) % 9))
            .collect();
        let run = || {
            let c = RollingCounter::new();
            for &(s, n) in &schedule {
                c.record_at(s, n);
            }
            (c.total_over(base + 12, 1), c.total_over(base + 12, 10))
        };
        let (a1, a10) = run();
        let (b1, b10) = run();
        prop_assert_eq!(a1, b1);
        prop_assert_eq!(a10, b10);
        let recorded: u64 = schedule.iter().map(|&(_, n)| n).sum();
        prop_assert!(a10 <= recorded);
        prop_assert!(a1 <= a10.max(a1)); // 1s window is a subset of 10s + current
    }
}
