//! Confidence intervals and the paper's replication stopping rules.
//!
//! Two rules appear in the paper:
//!
//! * **Section V-B** (the SMG experiments): "we repeat the simulations until
//!   the sample standard deviation of the estimate is less than 20% of the
//!   estimate" — i.e. the *standard error of the mean* must drop below a
//!   fraction of the mean.
//! * **Section VI** (the MBAC experiments): "we collect samples until the
//!   95% confidence interval for both probabilities is sufficiently small
//!   with respect to the estimated value (within 20%) ... we also stop if
//!   the target failure probability lies to the right of the confidence
//!   interval, i.e. if we are confident that the actual failure probability
//!   is lower than the target."
//!
//! [`StoppingRule`] implements both, and [`ConfidenceInterval`] provides the
//! Student-t interval they are built from.

use super::RunningStats;
use serde::{Deserialize, Serialize};

/// A two-sided confidence interval for a mean.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ConfidenceInterval {
    /// Point estimate (the sample mean).
    pub mean: f64,
    /// Half-width of the interval.
    pub half_width: f64,
    /// Confidence level, e.g. `0.95`.
    pub level: f64,
}

impl ConfidenceInterval {
    /// Lower endpoint.
    pub fn lo(&self) -> f64 {
        self.mean - self.half_width
    }

    /// Upper endpoint.
    pub fn hi(&self) -> f64 {
        self.mean + self.half_width
    }

    /// 95% Student-t interval for the mean of `stats`.
    ///
    /// Returns `None` with fewer than two observations (no variance
    /// estimate exists).
    pub fn t95(stats: &RunningStats) -> Option<ConfidenceInterval> {
        if stats.count() < 2 {
            return None;
        }
        let df = (stats.count() - 1) as usize;
        Some(ConfidenceInterval {
            mean: stats.mean(),
            half_width: t_critical_95(df) * stats.std_error(),
            level: 0.95,
        })
    }
}

/// Two-sided 97.5th-percentile critical value of Student's t with `df`
/// degrees of freedom (so the two-sided interval has 95% coverage).
///
/// Exact table values for small `df`, the normal quantile 1.96 in the limit,
/// and a standard asymptotic correction in between — accurate to better than
/// 0.3% everywhere, which is far below the 20% tolerances the stopping rules
/// use.
pub fn t_critical_95(df: usize) -> f64 {
    const TABLE: [f64; 30] = [
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
        2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
        2.052, 2.048, 2.045, 2.042,
    ];
    if df == 0 {
        f64::INFINITY
    } else if df <= TABLE.len() {
        TABLE[df - 1]
    } else {
        // Cornish–Fisher-style expansion around the normal quantile.
        let z = 1.959_963_984_540_054;
        let d = df as f64;
        z + (z * z * z + z) / (4.0 * d)
            + (5.0 * z.powi(5) + 16.0 * z.powi(3) + 3.0 * z) / (96.0 * d * d)
    }
}

/// What a [`StoppingRule`] says after each batch of samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StopDecision {
    /// Keep sampling.
    Continue,
    /// The relative-precision criterion is met.
    Precise,
    /// The estimate is confidently below the target (Section VI early exit).
    BelowTarget,
    /// The sample budget was exhausted before either criterion was met.
    BudgetExhausted,
}

impl StopDecision {
    /// Whether sampling should stop.
    pub fn should_stop(&self) -> bool {
        !matches!(self, StopDecision::Continue)
    }
}

/// The paper's replication stopping rule.
///
/// Configured with a relative precision (`0.20` in the paper), an optional
/// target the estimate may be confidently below, and a hard sample budget so
/// degenerate workloads cannot loop forever.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StoppingRule {
    /// Required relative half-width (Section VI) or relative standard error
    /// (Section V-B) — see `use_ci`.
    pub relative_precision: f64,
    /// If `true`, compare the 95% CI half-width to the mean (Section VI
    /// rule); if `false`, compare the standard error to the mean (Section
    /// V-B rule).
    pub use_ci: bool,
    /// Early exit when the whole CI lies below this target (e.g. the QoS
    /// threshold 1e-3).
    pub below_target: Option<f64>,
    /// Minimum number of samples before any decision other than
    /// `BudgetExhausted` is allowed.
    pub min_samples: u64,
    /// Hard cap on samples.
    pub max_samples: u64,
}

impl StoppingRule {
    /// The Section VI rule: 95% CI half-width within `relative_precision`
    /// of the mean, with early exit below `target`.
    pub fn ci_with_target(relative_precision: f64, target: f64) -> Self {
        Self {
            relative_precision,
            use_ci: true,
            below_target: Some(target),
            min_samples: 5,
            max_samples: u64::MAX,
        }
    }

    /// Replace the sample budget.
    pub fn with_max_samples(mut self, max: u64) -> Self {
        self.max_samples = max;
        self
    }

    /// Evaluate the rule against the accumulated replications.
    pub fn evaluate(&self, stats: &RunningStats) -> StopDecision {
        if stats.count() >= self.max_samples {
            return StopDecision::BudgetExhausted;
        }
        if stats.count() < self.min_samples.max(2) {
            return StopDecision::Continue;
        }
        if let Some(target) = self.below_target {
            if let Some(ci) = ConfidenceInterval::t95(stats) {
                if ci.hi() < target {
                    return StopDecision::BelowTarget;
                }
            }
        }
        let mean = stats.mean().abs();
        if mean == 0.0 {
            // An all-zero estimate (e.g. no losses observed at all) can never
            // satisfy a relative criterion; defer to the budget / target.
            return StopDecision::Continue;
        }
        let spread = if self.use_ci {
            match ConfidenceInterval::t95(stats) {
                Some(ci) => ci.half_width,
                None => return StopDecision::Continue,
            }
        } else {
            stats.std_error()
        };
        if spread <= self.relative_precision * mean {
            StopDecision::Precise
        } else {
            StopDecision::Continue
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Section V-B rule: standard error within `relative_precision`
    /// of the mean.
    fn std_error_rule(relative_precision: f64) -> StoppingRule {
        StoppingRule {
            use_ci: false,
            below_target: None,
            ..StoppingRule::ci_with_target(relative_precision, 0.0)
        }
    }

    /// Push `sample()` until `rule` fires.
    fn drive(rule: &StoppingRule, mut sample: impl FnMut() -> f64) -> (RunningStats, StopDecision) {
        let mut stats = RunningStats::new();
        loop {
            let d = rule.evaluate(&stats);
            if d.should_stop() {
                return (stats, d);
            }
            stats.push(sample());
        }
    }

    #[test]
    fn t_table_matches_known_values() {
        assert!((t_critical_95(1) - 12.706).abs() < 1e-9);
        assert!((t_critical_95(10) - 2.228).abs() < 1e-9);
        assert!((t_critical_95(30) - 2.042).abs() < 1e-9);
        // Large df approaches the normal quantile.
        assert!((t_critical_95(1000) - 1.962).abs() < 0.002);
        assert_eq!(t_critical_95(0), f64::INFINITY);
        // df=31 uses the expansion; must be close to the true 2.040.
        assert!((t_critical_95(31) - 2.040).abs() < 0.005);
    }

    #[test]
    fn ci_of_constant_sample_is_degenerate() {
        let s: RunningStats = [5.0; 10].into_iter().collect();
        let ci = ConfidenceInterval::t95(&s).unwrap();
        assert_eq!(ci.mean, 5.0);
        assert_eq!((ci.lo(), ci.hi()), (5.0, 5.0));
    }

    #[test]
    fn ci_requires_two_samples() {
        let s: RunningStats = [1.0].into_iter().collect();
        assert!(ConfidenceInterval::t95(&s).is_none());
    }

    #[test]
    fn std_error_rule_stops_on_tight_sample() {
        let rule = std_error_rule(0.2);
        // 10 identical observations: std error 0, well within 20%.
        let s: RunningStats = [3.0; 10].into_iter().collect();
        assert_eq!(rule.evaluate(&s), StopDecision::Precise);
    }

    #[test]
    fn std_error_rule_continues_on_wide_sample() {
        let rule = std_error_rule(0.2);
        let s: RunningStats = [0.0, 10.0, 0.0, 10.0, 0.0, 10.0].into_iter().collect();
        assert_eq!(rule.evaluate(&s), StopDecision::Continue);
    }

    #[test]
    fn below_target_early_exit() {
        let rule = StoppingRule::ci_with_target(0.2, 1e-3);
        // Noisy but clearly far below the target.
        let s: RunningStats = [1e-6, 2e-6, 1.5e-6, 0.5e-6, 1e-6, 2e-6, 1e-6, 1.2e-6]
            .into_iter()
            .collect();
        assert_eq!(rule.evaluate(&s), StopDecision::BelowTarget);
    }

    #[test]
    fn budget_exhaustion_wins() {
        let rule = std_error_rule(0.0001).with_max_samples(10);
        let mut k = 0.0;
        let (stats, d) = drive(&rule, || {
            k += 1.0;
            k % 2.0 // alternating 1, 0: never precise
        });
        assert_eq!(d, StopDecision::BudgetExhausted);
        assert_eq!(stats.count(), 10);
    }

    #[test]
    fn all_zero_estimate_defers_to_budget() {
        let rule = StoppingRule::ci_with_target(0.2, 1e-3).with_max_samples(50);
        let (stats, d) = drive(&rule, || 0.0);
        // Zero mean: the relative rule can't fire, but zero is confidently
        // below target once the CI exists... CI is [0,0], hi()=0 < 1e-3.
        assert!(matches!(d, StopDecision::BelowTarget));
        assert!(stats.count() >= 5);
    }

    #[test]
    fn min_samples_is_respected() {
        let rule = StoppingRule {
            min_samples: 20,
            ..std_error_rule(0.5)
        };
        let s: RunningStats = [1.0; 10].into_iter().collect();
        assert_eq!(rule.evaluate(&s), StopDecision::Continue);
    }
}
