//! Histograms and discrete bandwidth-level distributions.
//!
//! [`DiscreteDistribution`] is the traffic descriptor of Section VI: "given
//! a renegotiation schedule, we can compute the empirical distribution
//! (histogram) of bandwidth requirements throughout the lifetime of a call,
//! i.e. the fraction of time p_j that a bandwidth level r_j is needed".

use serde::{Deserialize, Serialize};

/// A fixed-width-bin histogram over `[lo, hi)` with under/overflow bins.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
    underflow: u64,
    overflow: u64,
    count: u64,
}

impl Histogram {
    /// Create a histogram with `bins` equal-width bins over `[lo, hi)`.
    ///
    /// # Panics
    /// Panics unless `lo < hi` and `bins > 0`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(lo < hi, "histogram range must be nonempty");
        assert!(bins > 0, "histogram must have at least one bin");
        Self {
            lo,
            hi,
            bins: vec![0; bins],
            underflow: 0,
            overflow: 0,
            count: 0,
        }
    }

    /// Record one observation.
    pub fn record(&mut self, x: f64) {
        assert!(!x.is_nan(), "observation must not be NaN");
        self.count += 1;
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let w = (self.hi - self.lo) / self.bins.len() as f64;
            let i = (((x - self.lo) / w) as usize).min(self.bins.len() - 1);
            self.bins[i] += 1;
        }
    }

    /// Total observations including under/overflow.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Fold another histogram's counts into this one, so per-worker
    /// histograms can be combined after a parallel run. Merging is
    /// commutative and associative (integer adds), so the combined result
    /// is identical no matter how the work was partitioned.
    ///
    /// # Panics
    /// Panics if the two histograms have different ranges or bin counts.
    pub fn merge(&mut self, other: &Histogram) {
        assert!(
            self.lo == other.lo && self.hi == other.hi && self.bins.len() == other.bins.len(),
            "cannot merge histograms with different binnings"
        );
        for (a, b) in self.bins.iter_mut().zip(&other.bins) {
            *a += b;
        }
        self.underflow += other.underflow;
        self.overflow += other.overflow;
        self.count += other.count;
    }

    /// Approximate `q`-quantile (`0 <= q <= 1`) by linear interpolation
    /// within the containing bin. Under/overflow observations clamp to the
    /// range endpoints.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0,1]");
        if self.count == 0 {
            return self.lo;
        }
        let target = q * self.count as f64;
        let mut cum = self.underflow as f64;
        if target <= cum {
            return self.lo;
        }
        let w = (self.hi - self.lo) / self.bins.len() as f64;
        for (i, &c) in self.bins.iter().enumerate() {
            let next = cum + c as f64;
            if target <= next && c > 0 {
                let frac = (target - cum) / c as f64;
                return self.lo + w * (i as f64 + frac);
            }
            cum = next;
        }
        self.hi
    }
}

/// A normalized probability distribution over discrete bandwidth levels:
/// the Section VI traffic descriptor `{(r_j, p_j)}`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DiscreteDistribution {
    levels: Vec<f64>,
    probs: Vec<f64>,
}

impl DiscreteDistribution {
    /// Build from `(level, weight)` pairs; weights are normalized to sum
    /// to 1. Pairs with zero weight are kept (they carry grid information).
    ///
    /// # Panics
    /// Panics if empty, if any weight is negative, or if all weights are 0.
    pub fn from_weights(pairs: &[(f64, f64)]) -> Self {
        assert!(
            !pairs.is_empty(),
            "distribution must have at least one level"
        );
        let total: f64 = pairs.iter().map(|&(_, w)| w).sum();
        assert!(
            pairs.iter().all(|&(_, w)| w >= 0.0) && total > 0.0,
            "weights must be nonnegative with positive sum"
        );
        Self {
            levels: pairs.iter().map(|&(r, _)| r).collect(),
            probs: pairs.iter().map(|&(_, w)| w / total).collect(),
        }
    }

    /// Bandwidth levels `r_j`.
    pub fn levels(&self) -> &[f64] {
        &self.levels
    }

    /// Probabilities `p_j` (sum to 1).
    pub fn probs(&self) -> &[f64] {
        &self.probs
    }

    /// Number of levels.
    pub fn len(&self) -> usize {
        self.levels.len()
    }

    /// Whether the distribution has no levels (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.levels.is_empty()
    }

    /// Iterate over `(r_j, p_j)`.
    pub fn iter(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        self.levels.iter().copied().zip(self.probs.iter().copied())
    }

    /// Mean `E[R] = sum p_j r_j`.
    pub fn mean(&self) -> f64 {
        self.iter().map(|(r, p)| r * p).sum()
    }

    /// Largest level with positive probability.
    pub fn peak(&self) -> f64 {
        self.iter()
            .filter(|&(_, p)| p > 0.0)
            .map(|(r, _)| r)
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Log moment generating function `Λ(s) = ln Σ p_j e^{s r_j}`,
    /// computed in a numerically safe way (log-sum-exp).
    pub fn log_mgf(&self, s: f64) -> f64 {
        let max_exp = self
            .iter()
            .filter(|&(_, p)| p > 0.0)
            .map(|(r, _)| s * r)
            .fold(f64::NEG_INFINITY, f64::max);
        if !max_exp.is_finite() {
            return max_exp;
        }
        let sum: f64 = self
            .iter()
            .filter(|&(_, p)| p > 0.0)
            .map(|(r, p)| p * (s * r - max_exp).exp())
            .sum();
        max_exp + sum.ln()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn histogram_bins_and_edges() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        h.record(-1.0);
        h.record(0.0);
        h.record(9.999);
        h.record(10.0);
        h.record(5.0);
        assert_eq!(h.count(), 5);
        assert_eq!(h.underflow, 1);
        assert_eq!(h.overflow, 1);
        assert_eq!(h.bins[0], 1);
        assert_eq!(h.bins[9], 1);
        assert_eq!(h.bins[5], 1);
    }

    #[test]
    fn histogram_quantiles_are_monotone() {
        let mut h = Histogram::new(0.0, 100.0, 100);
        for i in 0..1000 {
            h.record((i % 100) as f64);
        }
        let q10 = h.quantile(0.1);
        let q50 = h.quantile(0.5);
        let q90 = h.quantile(0.9);
        assert!(q10 < q50 && q50 < q90);
        assert!((q50 - 50.0).abs() < 2.0);
    }

    #[test]
    fn merge_equals_single_pass() {
        let mut whole = Histogram::new(0.0, 10.0, 5);
        let mut left = Histogram::new(0.0, 10.0, 5);
        let mut right = Histogram::new(0.0, 10.0, 5);
        for i in 0..100 {
            let x = (i as f64) * 0.17 - 2.0;
            whole.record(x);
            if i % 2 == 0 {
                left.record(x);
            } else {
                right.record(x);
            }
        }
        left.merge(&right);
        assert_eq!(left.bins, whole.bins);
        assert_eq!(left.underflow, whole.underflow);
        assert_eq!(left.overflow, whole.overflow);
        assert_eq!(left.count(), whole.count());
    }

    #[test]
    #[should_panic(expected = "different binnings")]
    fn merge_rejects_mismatched_binning() {
        let mut a = Histogram::new(0.0, 10.0, 5);
        let b = Histogram::new(0.0, 10.0, 6);
        a.merge(&b);
    }

    #[test]
    fn empty_histogram_quantile() {
        let h = Histogram::new(0.0, 1.0, 4);
        assert_eq!(h.quantile(0.5), 0.0);
    }

    #[test]
    fn distribution_normalizes() {
        let d = DiscreteDistribution::from_weights(&[(1.0, 2.0), (3.0, 2.0)]);
        assert_eq!(d.probs(), &[0.5, 0.5]);
        assert_eq!(d.mean(), 2.0);
        assert_eq!(d.peak(), 3.0);
    }

    #[test]
    fn zero_weight_levels_do_not_affect_peak() {
        let d = DiscreteDistribution::from_weights(&[(1.0, 1.0), (100.0, 0.0)]);
        assert_eq!(d.peak(), 1.0);
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn log_mgf_known_values() {
        let d = DiscreteDistribution::from_weights(&[(0.0, 0.5), (1.0, 0.5)]);
        // Λ(s) = ln(0.5 + 0.5 e^s); Λ(0) = 0.
        assert!((d.log_mgf(0.0)).abs() < 1e-12);
        assert!((d.log_mgf(1.0) - (0.5 + 0.5 * 1.0f64.exp()).ln()).abs() < 1e-12);
        // Large s: dominated by the peak level => Λ(s) ≈ s*1 + ln 0.5.
        let s = 700.0;
        assert!((d.log_mgf(s) - (s + 0.5f64.ln())).abs() < 1e-6);
    }

    proptest! {
        #[test]
        fn log_mgf_is_convex_and_zero_at_origin(
            pairs in proptest::collection::vec((0.0..1e3f64, 0.01..1.0f64), 1..6),
            s in -5.0..5.0f64,
            ds in 0.01..1.0f64,
        ) {
            let d = DiscreteDistribution::from_weights(&pairs);
            prop_assert!(d.log_mgf(0.0).abs() < 1e-9);
            // Midpoint convexity.
            let a = d.log_mgf(s);
            let b = d.log_mgf(s + 2.0 * ds);
            let mid = d.log_mgf(s + ds);
            prop_assert!(mid <= 0.5 * (a + b) + 1e-9);
        }

        #[test]
        fn quantile_stays_in_range(
            xs in proptest::collection::vec(-50.0..150.0f64, 1..200),
            q in 0.0..1.0f64,
        ) {
            let mut h = Histogram::new(0.0, 100.0, 20);
            for x in xs { h.record(x); }
            let v = h.quantile(q);
            prop_assert!((0.0..=100.0).contains(&v));
        }
    }
}
