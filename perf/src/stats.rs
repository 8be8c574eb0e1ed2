//! Order statistics, best-of-trials selection and the FNV digest.
//!
//! Everything a run reports goes through here, so the rules of
//! `perf/README.md` ("a run reports its least-disturbed trial") live in
//! one place and are unit-tested.

/// Which direction of a metric is the good one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }

    /// By what share of `base` is `new` worse (negative = better)?
    pub fn worsening(self, base: f64, new: f64) -> f64 {
        match self {
            Better::Higher => (base - new) / base,
            Better::Lower => (new - base) / base,
        }
    }
}

/// The best of per-trial values: the least-disturbed trial follows the
/// code, the median follows the neighbours (README, lesson 2).
pub fn best_of(values: &[f64], better: Better) -> f64 {
    assert!(!values.is_empty(), "best_of over no trials");
    let pick = |a: f64, b: f64| match better {
        Better::Higher => a.max(b),
        Better::Lower => a.min(b),
    };
    values.iter().copied().fold(values[0], pick)
}

/// Percentile `p` in `0..=100` of an ascending slice, by linear
/// interpolation between closest ranks.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
    let pos = p.clamp(0.0, 100.0) / 100.0 * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    let frac = pos - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

/// Sorts a sample in place and returns `(p50, p90)`.
pub fn p50_p90(samples: &mut [f64]) -> (f64, f64) {
    samples.sort_by(|a, b| a.total_cmp(b));
    (percentile(samples, 50.0), percentile(samples, 90.0))
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    percentile(&v, 50.0)
}

/// `(q1, median, q3)` as Python's `statistics.quantiles(v, n=4)` gives
/// them (the "exclusive" method) — the rule the acceptance driver uses
/// for run-to-run spread, so `swperf noise` reproduces its arithmetic.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    let q = |k: usize| {
        let pos = (k * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let delta = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (q(1), q(2), q(3))
}

/// Interquartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(values);
    (q3 - q1) / med
}

/// Harmonic mean of rates given as `(work, seconds)` pairs — total
/// work over total time when every item does one unit, the Graph500
/// convention for TEPS.
pub fn harmonic_mean_rate(work_and_seconds: impl Iterator<Item = (f64, f64)>) -> f64 {
    let (mut n, mut recip) = (0usize, 0.0f64);
    for (work, secs) in work_and_seconds {
        n += 1;
        recip += secs / work;
    }
    n as f64 / recip
}

/// FNV-1a over 64-bit words: the operation-sequence and answer digest.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(0x0000_0100_0000_01b3);
    }

    pub fn words(&mut self, ws: &[u64]) {
        for &w in ws {
            self.word(w);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// SplitMix64: the harness's own sampler, so inputs depend on nothing
/// but `--seed` (not on the `rand` shim's stream).
#[derive(Clone, Debug)]
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(percentile(&v, 0.0), 10.0);
        assert_eq!(percentile(&v, 50.0), 30.0);
        assert_eq!(percentile(&v, 100.0), 50.0);
        assert!((percentile(&v, 90.0) - 46.0).abs() < 1e-12);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
    }

    #[test]
    fn p90_of_128_samples_leaves_twelve_beyond() {
        let mut v: Vec<f64> = (0..128).map(|i| i as f64).collect();
        let (p50, p90) = p50_p90(&mut v);
        assert_eq!(p50, 63.5);
        assert!(v.iter().filter(|&&x| x > p90).count() >= 12);
    }

    #[test]
    fn best_of_follows_direction() {
        let v = [3.0, 9.0, 5.0];
        assert_eq!(best_of(&v, Better::Higher), 9.0);
        assert_eq!(best_of(&v, Better::Lower), 3.0);
    }

    #[test]
    fn best_of_ignores_a_disturbed_trial() {
        // One trial slowed 40 % by a neighbour moves the median of
        // three but not the best.
        let quiet = [100.0, 101.0, 99.5];
        let noisy = [100.0, 60.0, 61.0];
        assert!((best_of(&quiet, Better::Higher) - best_of(&noisy, Better::Higher)).abs() < 1.5);
        assert!((median(&quiet) - median(&noisy)).abs() > 30.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2, 10, 4], n=4) == [1.5, 3.0, 7.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0, 10.0, 4.0]), (1.5, 3.0, 7.0));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn worsening_is_signed_by_direction() {
        assert!((Better::Higher.worsening(100.0, 90.0) - 0.10).abs() < 1e-12);
        assert!((Better::Lower.worsening(100.0, 90.0) + 0.10).abs() < 1e-12);
    }

    #[test]
    fn harmonic_mean_is_total_work_over_total_time() {
        let hm = harmonic_mean_rate([(10.0, 1.0), (10.0, 3.0)].into_iter());
        assert!((hm - 5.0).abs() < 1e-12);
    }

    #[test]
    fn fnv_and_sampler_are_deterministic() {
        let mut a = Fnv::default();
        let mut b = Fnv::default();
        a.words(&[1, 2, 3]);
        b.words(&[1, 2, 3]);
        assert_eq!(a.finish(), b.finish());
        b.word(4);
        assert_ne!(a.finish(), b.finish());
        let (mut x, mut y) = (SplitMix(9), SplitMix(9));
        assert_eq!(x.next_u64(), y.next_u64());
        assert!(x.below(10) < 10);
    }
}
