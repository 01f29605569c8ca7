//! Streaming sample moments (Welford's algorithm).

use serde::{Deserialize, Serialize};

/// Numerically stable running mean / variance / extrema of a sample stream.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RunningStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl RunningStats {
    /// Empty accumulator.
    pub fn new() -> Self {
        Self {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Add one observation.
    ///
    /// # Panics
    /// Panics on NaN: a NaN observation would silently poison every
    /// downstream estimate.
    pub fn push(&mut self, x: f64) {
        assert!(!x.is_nan(), "observation must not be NaN");
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        if x < self.min {
            self.min = x;
        }
        if x > self.max {
            self.max = x;
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.n > 0 {
            self.mean
        } else {
            0.0
        }
    }

    /// Unbiased sample variance (0 with fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.n >= 2 {
            self.m2 / (self.n - 1) as f64
        } else {
            0.0
        }
    }

    /// Unbiased sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Standard error of the mean: `std_dev / sqrt(n)`.
    pub fn std_error(&self) -> f64 {
        if self.n >= 2 {
            self.std_dev() / (self.n as f64).sqrt()
        } else {
            0.0
        }
    }

    /// Coefficient of variation of the sample (`std_dev / |mean|`), or
    /// `+inf` when the mean is zero and the data varies.
    pub fn cv(&self) -> f64 {
        let m = self.mean().abs();
        let s = self.std_dev();
        if m > 0.0 {
            s / m
        } else if s == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    }
}

impl FromIterator<f64> for RunningStats {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = RunningStats::new();
        for x in iter {
            s.push(x);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn moments_of_known_sample() {
        let s: RunningStats = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
            .into_iter()
            .collect();
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        // Population variance is 4; unbiased sample variance is 32/7.
        assert!((s.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
    }

    #[test]
    fn empty_stats_are_benign() {
        let s = RunningStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.std_error(), 0.0);
        assert_eq!(s.cv(), 0.0);
    }

    #[test]
    fn single_observation() {
        let s: RunningStats = [3.5].into_iter().collect();
        assert_eq!(s.mean(), 3.5);
        assert_eq!(s.variance(), 0.0);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_is_rejected() {
        RunningStats::new().push(f64::NAN);
    }

    proptest! {
        #[test]
        fn variance_is_nonnegative(xs in proptest::collection::vec(-1e9..1e9f64, 0..200)) {
            let s: RunningStats = xs.into_iter().collect();
            prop_assert!(s.variance() >= 0.0);
        }
    }
}
