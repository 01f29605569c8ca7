//! The four admission controllers of Section VI.

use rcbr_ldt::chernoff::{
    chernoff_failure_probability, max_admissible_calls, min_capacity_per_source,
};
use rcbr_sim::stats::DiscreteDistribution;

use crate::descriptor::distribution_from_observations;
use crate::policy::{AdmissionController, AdmissionSnapshot};

/// The reference controller: perfect a-priori knowledge of the call's
/// marginal bandwidth distribution, applying eq. (12) exactly.
///
/// "The utilization under the scheme with perfect knowledge ... matches
/// the target QoS precisely"; Fig. 8 normalizes by it.
#[derive(Debug, Clone)]
pub struct PerfectKnowledge {
    dist: DiscreteDistribution,
    target: f64,
    cached: Option<(f64, usize)>,
}

impl PerfectKnowledge {
    /// Create the controller from the true marginal and the failure-
    /// probability target.
    ///
    /// # Panics
    /// Panics unless `0 < target < 1`.
    pub fn new(dist: DiscreteDistribution, target: f64) -> Self {
        assert!(target > 0.0 && target < 1.0, "target must be in (0, 1)");
        Self {
            dist,
            target,
            cached: None,
        }
    }

    /// The maximum call count for the given capacity (cached).
    pub fn max_calls(&mut self, capacity: f64) -> usize {
        match self.cached {
            Some((cap, n)) if cap == capacity => n,
            _ => {
                let n = max_admissible_calls(&self.dist, capacity, self.target);
                self.cached = Some((capacity, n));
                n
            }
        }
    }
}

impl AdmissionController for PerfectKnowledge {
    fn admit(&mut self, s: &AdmissionSnapshot<'_>) -> bool {
        let n_max = self.max_calls(s.capacity);
        s.num_calls() < n_max
    }

    fn name(&self) -> &'static str {
        "perfect-knowledge"
    }
}

/// The memoryless certainty-equivalent MBAC: estimate the marginal from
/// the *snapshot* of currently reserved levels and plug it into the
/// Chernoff test for `n + 1` calls.
///
/// With no calls in the system there is no measurement at all; the scheme
/// admits (the paper's controller must bootstrap somehow, and an empty
/// system is trivially safe for one call under peak-rate reasoning — the
/// risk it takes is exactly the non-robustness Section VI demonstrates).
#[derive(Debug, Clone)]
pub struct Memoryless {
    target: f64,
}

impl Memoryless {
    /// Create the controller.
    ///
    /// # Panics
    /// Panics unless `0 < target < 1`.
    pub fn new(target: f64) -> Self {
        assert!(target > 0.0 && target < 1.0, "target must be in (0, 1)");
        Self { target }
    }

    /// The online, windowed form of the memoryless test, for callers that
    /// measure continuously instead of snapshotting per decision: from a
    /// weighted marginal estimate `levels` (`(rate b/s, weight)` pairs,
    /// weights need not be normalized) and the number of `calls` sharing
    /// the port, the aggregate capacity those calls need so that the
    /// Chernoff overflow estimate meets the target —
    /// `n · C_min(estimate, n, target)` via
    /// [`min_capacity_per_source`]. Returns `None` with nothing measured
    /// (`levels` empty or `calls == 0`): the caller must bootstrap, just
    /// as [`AdmissionController::admit`] admits on an empty system.
    pub fn needed_capacity(&self, levels: &[(f64, f64)], calls: usize) -> Option<f64> {
        if levels.is_empty() || calls == 0 {
            return None;
        }
        let est = DiscreteDistribution::from_weights(levels);
        Some(calls as f64 * min_capacity_per_source(&est, calls, self.target))
    }
}

impl AdmissionController for Memoryless {
    fn admit(&mut self, s: &AdmissionSnapshot<'_>) -> bool {
        match distribution_from_observations(s.reservations) {
            Some(est) => {
                let n_new = s.num_calls() + 1;
                chernoff_failure_probability(&est, n_new, s.capacity) <= self.target
            }
            None => true,
        }
    }

    fn name(&self) -> &'static str {
        "memoryless"
    }
}

/// The memory-based MBAC: accumulate a time-weighted histogram of every
/// bandwidth level reserved by any call over the whole past, and use that
/// historical marginal in the Chernoff test.
///
/// "We propose a scheme that relies on more memory about the system's past
/// bandwidth reservations to come up with a more accurate estimate of the
/// marginal distribution ... we accumulate information about the entire
/// history of each call present in the system."
#[derive(Debug, Clone)]
pub struct WithMemory {
    target: f64,
    /// `(rate, accumulated call·seconds at that rate)`.
    history: Vec<(f64, f64)>,
    last_time: Option<f64>,
    /// Minimum accumulated call·seconds before the history is trusted;
    /// below it the controller behaves like [`Memoryless`].
    min_history: f64,
}

impl WithMemory {
    /// Create the controller; `min_history` is in call·seconds.
    ///
    /// # Panics
    /// Panics unless `0 < target < 1` and `min_history >= 0`.
    pub fn new(target: f64, min_history: f64) -> Self {
        assert!(target > 0.0 && target < 1.0, "target must be in (0, 1)");
        assert!(min_history >= 0.0, "min history must be nonnegative");
        Self {
            target,
            history: Vec::new(),
            last_time: None,
            min_history,
        }
    }

    /// Total accumulated call·seconds of history.
    pub fn history_weight(&self) -> f64 {
        self.history.iter().map(|&(_, w)| w).sum()
    }

    fn historical_distribution(&self) -> Option<DiscreteDistribution> {
        if self.history_weight() < self.min_history.max(f64::MIN_POSITIVE) {
            return None;
        }
        Some(DiscreteDistribution::from_weights(&self.history))
    }
}

impl AdmissionController for WithMemory {
    fn admit(&mut self, s: &AdmissionSnapshot<'_>) -> bool {
        let est = self
            .historical_distribution()
            .or_else(|| distribution_from_observations(s.reservations));
        match est {
            Some(est) => {
                let n_new = s.num_calls() + 1;
                chernoff_failure_probability(&est, n_new, s.capacity) <= self.target
            }
            None => true,
        }
    }

    fn observe(&mut self, s: &AdmissionSnapshot<'_>) {
        if let Some(last) = self.last_time {
            let dt = s.time - last;
            if dt > 0.0 {
                for &r in s.reservations {
                    match self.history.iter_mut().find(|(rate, _)| *rate == r) {
                        Some((_, w)) => *w += dt,
                        None => self.history.push((r, dt)),
                    }
                }
            }
        }
        self.last_time = Some(s.time);
    }

    fn name(&self) -> &'static str {
        "with-memory"
    }
}

/// Deterministic peak-rate allocation: the zero-failure baseline.
#[derive(Debug, Clone)]
pub struct PeakRate {
    peak: f64,
}

impl PeakRate {
    /// Create from the (declared) per-call peak rate, bits/second.
    ///
    /// # Panics
    /// Panics unless `peak > 0`.
    pub fn new(peak: f64) -> Self {
        assert!(peak > 0.0 && peak.is_finite(), "peak rate must be positive");
        Self { peak }
    }
}

impl AdmissionController for PeakRate {
    fn admit(&mut self, s: &AdmissionSnapshot<'_>) -> bool {
        (s.num_calls() + 1) as f64 * self.peak <= s.capacity + 1e-9
    }

    fn name(&self) -> &'static str {
        "peak-rate"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dist() -> DiscreteDistribution {
        DiscreteDistribution::from_weights(&[(100_000.0, 0.7), (500_000.0, 0.3)])
    }

    fn snapshot(reservations: &[f64], capacity: f64) -> AdmissionSnapshot<'_> {
        AdmissionSnapshot {
            capacity,
            time: 0.0,
            reservations,
        }
    }

    #[test]
    fn perfect_admits_up_to_chernoff_count() {
        let mut c = PerfectKnowledge::new(dist(), 1e-3);
        let cap = 10_000_000.0;
        let n_max = c.max_calls(cap);
        assert!(n_max > 0);
        let r = vec![100_000.0; n_max - 1];
        assert!(c.admit(&snapshot(&r, cap)));
        let r = vec![100_000.0; n_max];
        assert!(!c.admit(&snapshot(&r, cap)));
    }

    #[test]
    fn perfect_caches_per_capacity() {
        let mut c = PerfectKnowledge::new(dist(), 1e-3);
        let a = c.max_calls(1e7);
        let b = c.max_calls(1e7);
        assert_eq!(a, b);
        let other = c.max_calls(2e7);
        assert!(other > a);
    }

    #[test]
    fn memoryless_admits_empty_system() {
        let mut c = Memoryless::new(1e-3);
        assert!(c.admit(&snapshot(&[], 1e6)));
    }

    #[test]
    fn memoryless_is_fooled_by_a_quiet_snapshot() {
        // Every current call sits at its low level: the snapshot estimate
        // says calls are cheap, so the controller over-admits relative to
        // the true marginal. This is exactly the Section VI failure mode.
        let mut ml = Memoryless::new(1e-3);
        let mut pk = PerfectKnowledge::new(dist(), 1e-3);
        let cap = 4_000_000.0;
        let n_max_true = pk.max_calls(cap);
        // n_max_true calls all at the low level right now.
        let quiet = vec![100_000.0; n_max_true];
        assert!(!pk.admit(&snapshot(&quiet, cap)));
        assert!(
            ml.admit(&snapshot(&quiet, cap)),
            "memoryless should over-admit on a quiet snapshot"
        );
    }

    #[test]
    fn memoryless_needed_capacity_online_form() {
        let ml = Memoryless::new(1e-3);
        assert!(ml.needed_capacity(&[], 5).is_none());
        assert!(ml.needed_capacity(&[(100_000.0, 1.0)], 0).is_none());
        // A constant-rate marginal needs exactly n calls at that rate.
        let flat = ml.needed_capacity(&[(100_000.0, 3.0)], 10).unwrap();
        assert!((flat - 1_000_000.0).abs() < 1.0, "flat {flat}");
        // A bursty marginal needs more than the aggregate mean but never
        // more than the aggregate peak.
        let bursty = ml
            .needed_capacity(&[(0.0, 0.7), (1_000_000.0, 0.3)], 50)
            .unwrap();
        assert!(
            bursty > 50.0 * 300_000.0 && bursty <= 50.0 * 1_000_000.0 + 1e-6,
            "bursty {bursty}"
        );
    }

    #[test]
    fn memoryless_rejects_busy_snapshot() {
        let mut ml = Memoryless::new(1e-3);
        // System nearly full of peak-level calls.
        let busy = vec![500_000.0; 7];
        assert!(!ml.admit(&snapshot(&busy, 4_000_000.0)));
    }

    #[test]
    fn with_memory_converges_to_perfect_decision() {
        let mut wm = WithMemory::new(1e-3, 10.0);
        let mut pk = PerfectKnowledge::new(dist(), 1e-3);
        let cap = 4_000_000.0;
        // Feed history matching the true marginal: 70% of call-time low,
        // 30% high.
        let low = vec![100_000.0; 10];
        let high = vec![500_000.0; 10];
        let mut t = 0.0;
        wm.observe(&AdmissionSnapshot {
            capacity: cap,
            time: t,
            reservations: &low,
        });
        for _ in 0..100 {
            t += 0.7;
            wm.observe(&AdmissionSnapshot {
                capacity: cap,
                time: t,
                reservations: &high,
            });
            t += 0.3;
            wm.observe(&AdmissionSnapshot {
                capacity: cap,
                time: t,
                reservations: &low,
            });
        }
        // Now the quiet-snapshot trick no longer fools it.
        let n_max_true = pk.max_calls(cap);
        let quiet = vec![100_000.0; n_max_true];
        assert!(
            !wm.admit(&snapshot(&quiet, cap)),
            "memory-based controller should resist the quiet snapshot"
        );
        assert!(wm.history_weight() > 10.0);
    }

    #[test]
    fn with_memory_falls_back_when_cold() {
        let mut wm = WithMemory::new(1e-3, 1e9); // absurd history requirement
        assert!(wm.admit(&snapshot(&[], 1e6)));
        // With a snapshot available it behaves like memoryless.
        let busy = vec![500_000.0; 7];
        assert!(!wm.admit(&snapshot(&busy, 4_000_000.0)));
    }

    #[test]
    fn peak_rate_is_deterministic() {
        let mut c = PeakRate::new(500_000.0);
        let cap = 2_000_000.0;
        assert!(c.admit(&snapshot(&[500_000.0; 3], cap)));
        assert!(!c.admit(&snapshot(&[500_000.0; 4], cap)));
    }
}
