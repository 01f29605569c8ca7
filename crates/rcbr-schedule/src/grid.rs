//! Discrete rate grids.
//!
//! Renegotiated rates are drawn from a finite set `R = {r_1 < … < r_M}`
//! (Section IV-A assumes "the service rate during any time slot is in a
//! given set"). The paper's experiments use levels "chosen uniformly within
//! 48 kb/s and 2.4 Mb/s" ([`RateGrid::uniform`]).

use serde::{Deserialize, Serialize};

/// A sorted set of allowed service rates, bits/second.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RateGrid {
    levels: Vec<f64>,
}

impl RateGrid {
    /// Build from explicit levels (sorted and deduplicated internally).
    ///
    /// # Panics
    /// Panics if empty or if any level is negative or non-finite.
    pub fn new(mut levels: Vec<f64>) -> Self {
        assert!(!levels.is_empty(), "rate grid must be nonempty");
        assert!(
            levels.iter().all(|&r| r.is_finite() && r >= 0.0),
            "rate levels must be finite and nonnegative"
        );
        levels.sort_by(|a, b| a.total_cmp(b));
        levels.dedup();
        Self { levels }
    }

    /// `m` levels spaced uniformly over `[lo, hi]` inclusive — the paper's
    /// construction (e.g. 20 levels within 48 kb/s and 2.4 Mb/s).
    ///
    /// # Panics
    /// Panics unless `m >= 2` and `lo < hi`.
    pub fn uniform(lo: f64, hi: f64, m: usize) -> Self {
        assert!(m >= 2, "uniform grid needs at least two levels");
        assert!(lo >= 0.0 && lo < hi && hi.is_finite(), "invalid grid range");
        let step = (hi - lo) / (m - 1) as f64;
        Self::new((0..m).map(|i| lo + i as f64 * step).collect())
    }

    /// The levels, ascending.
    pub fn levels(&self) -> &[f64] {
        &self.levels
    }

    /// Number of levels `M`.
    pub fn len(&self) -> usize {
        self.levels.len()
    }

    /// Whether the grid has no levels (never: construction rejects it).
    pub fn is_empty(&self) -> bool {
        self.levels.is_empty()
    }

    /// Level at index `i`.
    pub fn level(&self, i: usize) -> f64 {
        self.levels[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_grid_spans_range() {
        let g = RateGrid::uniform(48_000.0, 2_400_000.0, 20);
        assert_eq!(g.len(), 20);
        assert_eq!(g.level(0), 48_000.0);
        assert_eq!(g.level(19), 2_400_000.0);
        // Evenly spaced.
        let step = g.level(1) - g.level(0);
        for i in 1..g.len() {
            assert!((g.level(i) - g.level(i - 1) - step).abs() < 1e-6);
        }
    }

    #[test]
    fn construction_sorts_and_dedups() {
        let g = RateGrid::new(vec![300.0, 100.0, 300.0, 200.0]);
        assert_eq!(g.levels(), &[100.0, 200.0, 300.0]);
    }

    #[test]
    #[should_panic(expected = "nonempty")]
    fn empty_grid_rejected() {
        RateGrid::new(vec![]);
    }
}
