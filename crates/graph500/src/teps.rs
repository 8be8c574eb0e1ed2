//! TEPS statistics: step (6) of the benchmark.
//!
//! Graph500 reports, over the 64 BFS runs, order statistics and the
//! *harmonic* mean of TEPS (TEPS is a rate, so the harmonic mean is the
//! one consistent with total-work-over-total-time), plus its standard
//! error.

/// Summary statistics over a set of TEPS measurements.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TepsStats {
    /// Number of runs.
    pub count: usize,
    /// Minimum.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Maximum.
    pub max: f64,
    /// Harmonic mean — the benchmark's headline number.
    pub harmonic_mean: f64,
    /// Standard deviation of the harmonic mean (via the reciprocals, as
    /// the reference implementation does).
    pub harmonic_stddev: f64,
}

impl TepsStats {
    /// Computes the statistics. Returns `None` for an empty or
    /// non-positive sample.
    pub fn from_samples(samples: &[f64]) -> Option<TepsStats> {
        if samples.is_empty() || samples.iter().any(|&x| x <= 0.0 || !x.is_finite()) {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let n = sorted.len();
        let quantile = |q: f64| -> f64 {
            // Linear interpolation between closest ranks.
            let pos = q * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            let frac = pos - lo as f64;
            sorted[lo] * (1.0 - frac) + sorted[hi] * frac
        };
        // Harmonic mean and the stddev of the reciprocal estimator.
        let recip: Vec<f64> = sorted.iter().map(|x| 1.0 / x).collect();
        let mean_recip = recip.iter().sum::<f64>() / n as f64;
        let hmean = 1.0 / mean_recip;
        let var_recip = if n > 1 {
            recip.iter().map(|r| (r - mean_recip).powi(2)).sum::<f64>() / (n - 1) as f64
        } else {
            0.0
        };
        // Delta method: sd(1/X̄) ≈ sd(X̄)/X̄² with X the reciprocals.
        let hstd = (var_recip / n as f64).sqrt() * hmean * hmean;
        Some(TepsStats {
            count: n,
            min: sorted[0],
            q1: quantile(0.25),
            median: quantile(0.5),
            q3: quantile(0.75),
            max: sorted[n - 1],
            harmonic_mean: hmean,
            harmonic_stddev: hstd,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_samples() {
        let s = TepsStats::from_samples(&[5.0; 8]).unwrap();
        assert_eq!(s.min, 5.0);
        assert_eq!(s.max, 5.0);
        assert_eq!(s.median, 5.0);
        assert!((s.harmonic_mean - 5.0).abs() < 1e-12);
        assert!(s.harmonic_stddev.abs() < 1e-12);
    }

    #[test]
    fn harmonic_mean_below_arithmetic() {
        let s = TepsStats::from_samples(&[1.0, 2.0, 4.0]).unwrap();
        // HM of 1,2,4 = 3 / (1 + 0.5 + 0.25) = 12/7.
        assert!((s.harmonic_mean - 12.0 / 7.0).abs() < 1e-12);
        assert!(s.harmonic_mean < (1.0 + 2.0 + 4.0) / 3.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.q1, 1.5);
        assert_eq!(s.median, 2.0);
        assert_eq!(s.q3, 3.0);
        assert_eq!(s.max, 4.0);
    }

    #[test]
    fn rejects_degenerate_input() {
        assert!(TepsStats::from_samples(&[]).is_none());
        assert!(TepsStats::from_samples(&[1.0, 0.0]).is_none());
        assert!(TepsStats::from_samples(&[1.0, -3.0]).is_none());
        assert!(TepsStats::from_samples(&[f64::INFINITY]).is_none());
    }

    #[test]
    fn single_sample() {
        let s = TepsStats::from_samples(&[7.0]).unwrap();
        assert_eq!(s.count, 1);
        assert_eq!(s.q1, 7.0);
        assert_eq!(s.harmonic_stddev, 0.0);
    }
}
