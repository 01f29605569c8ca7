//! The paper's pricing model (Section IV-A, eq. (1)).
//!
//! Total cost of a schedule `s_1..s_T`:
//!
//! ```text
//! C = Σ_t [ α·1{s_t ≠ s_{t−1}} + β·s_t·τ ]
//! ```
//!
//! — a constant charge `α` per renegotiation plus a charge `β` per unit of
//! allocated bandwidth·time. Only the *ratio* `α/β` affects the optimal
//! schedule's shape; raising it buys fewer renegotiations at the cost of
//! bandwidth efficiency (Fig. 2's OPT curve sweeps this ratio).

use serde::{Deserialize, Serialize};

/// Pricing parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// Cost per renegotiation.
    pub alpha: f64,
    /// Cost per bit·second of allocated bandwidth (i.e. per bit of
    /// allocated volume).
    pub beta: f64,
}

impl CostModel {
    /// Create a cost model.
    ///
    /// # Panics
    /// Panics if either price is negative or non-finite, or if both are 0
    /// (a degenerate objective that makes every schedule optimal).
    pub fn new(alpha: f64, beta: f64) -> Self {
        assert!(
            alpha >= 0.0 && alpha.is_finite(),
            "alpha must be nonnegative"
        );
        assert!(beta >= 0.0 && beta.is_finite(), "beta must be nonnegative");
        assert!(
            alpha > 0.0 || beta > 0.0,
            "at least one price must be positive"
        );
        Self { alpha, beta }
    }

    /// A model defined only by the ratio `α/β` (β normalized to 1):
    /// the natural parameterization for sweeping Fig. 2's tradeoff.
    pub fn from_ratio(alpha_over_beta: f64) -> Self {
        Self::new(alpha_over_beta, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_parameterization() {
        let c = CostModel::from_ratio(1e6);
        assert_eq!(c.alpha, 1e6);
        assert_eq!(c.beta, 1.0);
    }

    #[test]
    #[should_panic(expected = "at least one price")]
    fn all_zero_prices_rejected() {
        CostModel::new(0.0, 0.0);
    }
}
