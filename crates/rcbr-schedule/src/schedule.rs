//! The piecewise-CBR renegotiation schedule and its metrics.
//!
//! A [`Schedule`] assigns one service rate to every slot of a trace. The
//! paper's figures are all computed from schedule metrics:
//!
//! * **bandwidth efficiency** — "the ratio of the original stream's average
//!   rate to the average of the piecewise constant service rate" (Fig. 2's
//!   y-axis);
//! * **mean renegotiation interval** — session duration divided by the
//!   number of renegotiations (Fig. 2's x-axis);
//! * the **empirical bandwidth distribution** — the fraction of time each
//!   level is reserved, Section VI's traffic descriptor;
//! * **feasibility** — replaying the trace through a `B`-sized buffer
//!   drained at the schedule's rates must lose nothing.

use rcbr_sim::stats::DiscreteDistribution;
use rcbr_sim::FluidQueue;
use rcbr_traffic::FrameTrace;
use serde::{Deserialize, Serialize};

use crate::cost::CostModel;

/// One constant-rate segment: rate `rate` starting at slot `start`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Segment {
    /// First slot of the segment.
    pub start: usize,
    /// Service rate in bits/second.
    pub rate: f64,
}

/// A piecewise-CBR schedule over `num_slots` slots of `slot_duration`
/// seconds each.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Schedule {
    slot_duration: f64,
    num_slots: usize,
    segments: Vec<Segment>,
}

impl Schedule {
    /// Build from per-slot rates, merging equal consecutive rates into
    /// segments.
    ///
    /// # Panics
    /// Panics if `rates` is empty, any rate is negative/non-finite, or
    /// `slot_duration <= 0`.
    pub fn from_rates(slot_duration: f64, rates: &[f64]) -> Self {
        assert!(
            slot_duration > 0.0 && slot_duration.is_finite(),
            "invalid slot duration"
        );
        assert!(!rates.is_empty(), "schedule must cover at least one slot");
        assert!(
            rates.iter().all(|&r| r.is_finite() && r >= 0.0),
            "rates must be finite and nonnegative"
        );
        let mut segments = Vec::new();
        for (t, &r) in rates.iter().enumerate() {
            match segments.last() {
                Some(&Segment { rate, .. }) if rate == r => {}
                _ => segments.push(Segment { start: t, rate: r }),
            }
        }
        Self {
            slot_duration,
            num_slots: rates.len(),
            segments,
        }
    }

    /// A constant-rate (plain CBR) schedule.
    pub fn constant(slot_duration: f64, num_slots: usize, rate: f64) -> Self {
        assert!(num_slots > 0, "schedule must cover at least one slot");
        assert!(
            rate >= 0.0 && rate.is_finite(),
            "rate must be finite and nonnegative"
        );
        assert!(
            slot_duration > 0.0 && slot_duration.is_finite(),
            "invalid slot duration"
        );
        Self {
            slot_duration,
            num_slots,
            segments: vec![Segment { start: 0, rate }],
        }
    }

    /// Slot duration, seconds.
    pub fn slot_duration(&self) -> f64 {
        self.slot_duration
    }

    /// Number of slots covered.
    pub fn num_slots(&self) -> usize {
        self.num_slots
    }

    /// Total duration, seconds.
    pub fn duration(&self) -> f64 {
        self.num_slots as f64 * self.slot_duration
    }

    /// The segments, in order.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Service rate during slot `t`, bits/second.
    ///
    /// # Panics
    /// Panics if `t >= num_slots`.
    pub fn rate_at(&self, t: usize) -> f64 {
        assert!(t < self.num_slots, "slot {t} out of range");
        let i = self.segments.partition_point(|s| s.start <= t);
        self.segments[i - 1].rate
    }

    /// Expand to one rate per slot.
    pub fn to_rates(&self) -> Vec<f64> {
        let mut rates = Vec::with_capacity(self.num_slots);
        for (i, seg) in self.segments.iter().enumerate() {
            let end = self.segments.get(i + 1).map_or(self.num_slots, |s| s.start);
            rates.extend(std::iter::repeat_n(seg.rate, end - seg.start));
        }
        rates
    }

    /// Number of renegotiations (rate changes after the initial choice).
    pub fn num_renegotiations(&self) -> usize {
        self.segments.len() - 1
    }

    /// Mean interval between renegotiations, seconds (the whole session if
    /// there are none).
    pub fn mean_renegotiation_interval(&self) -> f64 {
        let n = self.num_renegotiations();
        if n == 0 {
            self.duration()
        } else {
            self.duration() / n as f64
        }
    }

    /// Time-average of the service rate, bits/second.
    pub fn mean_service_rate(&self) -> f64 {
        let mut total = 0.0;
        for (i, seg) in self.segments.iter().enumerate() {
            let end = self.segments.get(i + 1).map_or(self.num_slots, |s| s.start);
            total += seg.rate * (end - seg.start) as f64;
        }
        total / self.num_slots as f64
    }

    /// Peak reserved rate, bits/second.
    pub fn peak_service_rate(&self) -> f64 {
        self.segments.iter().map(|s| s.rate).fold(0.0f64, f64::max)
    }

    /// Bandwidth efficiency against `trace`: trace mean rate divided by
    /// mean service rate (≤ 1 for any feasible schedule serving the whole
    /// trace).
    pub fn bandwidth_efficiency(&self, trace: &FrameTrace) -> f64 {
        trace.mean_rate() / self.mean_service_rate()
    }

    /// Total cost under `model` (eq. (1)). The initial rate choice is part
    /// of call setup and is not charged as a renegotiation.
    pub fn total_cost(&self, model: &CostModel) -> f64 {
        model.alpha * self.num_renegotiations() as f64
            + model.beta * self.mean_service_rate() * self.duration()
    }

    /// The empirical bandwidth distribution: fraction of time each distinct
    /// level is reserved (Section VI's traffic descriptor).
    pub fn empirical_distribution(&self) -> DiscreteDistribution {
        let mut acc: Vec<(f64, f64)> = Vec::new();
        for (i, seg) in self.segments.iter().enumerate() {
            let end = self.segments.get(i + 1).map_or(self.num_slots, |s| s.start);
            let w = (end - seg.start) as f64;
            match acc.iter_mut().find(|(r, _)| *r == seg.rate) {
                Some((_, wsum)) => *wsum += w,
                None => acc.push((seg.rate, w)),
            }
        }
        acc.sort_by(|a, b| a.0.total_cmp(&b.0));
        DiscreteDistribution::from_weights(&acc)
    }

    /// Replay `trace` through a buffer of `buffer` bits drained at this
    /// schedule's rates; returns the observed metrics.
    ///
    /// # Panics
    /// Panics if the trace length differs from the schedule length.
    pub fn replay(&self, trace: &FrameTrace, buffer: f64) -> ScheduleMetrics {
        assert_eq!(
            trace.len(),
            self.num_slots,
            "trace/schedule length mismatch"
        );
        let mut q = FluidQueue::new(buffer);
        let mut peak = 0.0f64;
        let rates = self.to_rates();
        for (t, &r) in rates.iter().enumerate() {
            let out = q.offer(trace.bits(t), r * self.slot_duration);
            peak = peak.max(out.backlog);
        }
        ScheduleMetrics {
            bandwidth_efficiency: self.bandwidth_efficiency(trace),
            mean_renegotiation_interval: self.mean_renegotiation_interval(),
            num_renegotiations: self.num_renegotiations(),
            loss_fraction: q.loss_fraction(),
            peak_backlog: peak,
            final_backlog: q.backlog(),
        }
    }

    /// Whether replaying `trace` through a `buffer`-bit buffer loses
    /// nothing.
    pub fn is_feasible(&self, trace: &FrameTrace, buffer: f64) -> bool {
        self.replay(trace, buffer).loss_fraction == 0.0
    }
}

/// Metrics of a schedule replayed against a trace.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScheduleMetrics {
    /// Trace mean rate / mean service rate.
    pub bandwidth_efficiency: f64,
    /// Session duration / number of renegotiations, seconds.
    pub mean_renegotiation_interval: f64,
    /// Rate changes after the initial one.
    pub num_renegotiations: usize,
    /// Fraction of bits lost to buffer overflow.
    pub loss_fraction: f64,
    /// Largest backlog observed, bits.
    pub peak_backlog: f64,
    /// Backlog at the end of the session, bits.
    pub final_backlog: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn from_rates_merges_segments() {
        let s = Schedule::from_rates(1.0, &[5.0, 5.0, 7.0, 7.0, 7.0, 5.0]);
        assert_eq!(s.segments().len(), 3);
        assert_eq!(s.num_renegotiations(), 2);
        assert_eq!(s.rate_at(0), 5.0);
        assert_eq!(s.rate_at(4), 7.0);
        assert_eq!(s.rate_at(5), 5.0);
        assert_eq!(s.to_rates(), vec![5.0, 5.0, 7.0, 7.0, 7.0, 5.0]);
    }

    #[test]
    fn constant_schedule_has_no_renegotiations() {
        let s = Schedule::constant(0.5, 10, 100.0);
        assert_eq!(s.num_renegotiations(), 0);
        assert_eq!(s.mean_renegotiation_interval(), 5.0);
        assert_eq!(s.mean_service_rate(), 100.0);
        assert_eq!(s.peak_service_rate(), 100.0);
    }

    #[test]
    fn mean_service_rate_weights_by_time() {
        let s = Schedule::from_rates(2.0, &[10.0, 10.0, 10.0, 40.0]);
        assert_eq!(s.mean_service_rate(), 17.5);
        assert_eq!(s.duration(), 8.0);
        assert_eq!(s.mean_renegotiation_interval(), 8.0);
    }

    #[test]
    fn cost_matches_hand_computation() {
        let s = Schedule::from_rates(1.0, &[10.0, 20.0, 20.0]);
        let m = CostModel::new(5.0, 2.0);
        // 1 renegotiation * 5 + 2 * (10 + 20 + 20) = 5 + 100.
        assert_eq!(s.total_cost(&m), 105.0);
    }

    #[test]
    fn efficiency_of_exact_tracking_is_one() {
        let tr = FrameTrace::new(1.0, vec![100.0, 300.0, 200.0]);
        let rates: Vec<f64> = (0..3).map(|t| tr.rate(t)).collect();
        let s = Schedule::from_rates(1.0, &rates);
        assert!((s.bandwidth_efficiency(&tr) - 1.0).abs() < 1e-12);
        assert!(s.is_feasible(&tr, 0.0));
    }

    #[test]
    fn replay_detects_infeasibility() {
        let tr = FrameTrace::new(1.0, vec![100.0, 100.0]);
        let s = Schedule::constant(1.0, 2, 50.0);
        let m = s.replay(&tr, 30.0);
        assert!(m.loss_fraction > 0.0);
        assert!(!s.is_feasible(&tr, 30.0));
        // A big enough buffer restores feasibility.
        assert!(s.is_feasible(&tr, 100.0));
    }

    #[test]
    fn empirical_distribution_weights_time() {
        let s = Schedule::from_rates(1.0, &[10.0, 10.0, 10.0, 30.0]);
        let d = s.empirical_distribution();
        assert_eq!(d.levels(), &[10.0, 30.0]);
        assert_eq!(d.probs(), &[0.75, 0.25]);
        assert_eq!(d.mean(), 15.0);
    }

    #[test]
    fn distribution_merges_repeated_levels() {
        let s = Schedule::from_rates(1.0, &[10.0, 20.0, 10.0, 20.0]);
        let d = s.empirical_distribution();
        assert_eq!(d.levels(), &[10.0, 20.0]);
        assert_eq!(d.probs(), &[0.5, 0.5]);
        assert_eq!(s.num_renegotiations(), 3);
    }

    proptest! {
        #[test]
        fn roundtrip_rates(
            rates in proptest::collection::vec(0.0..1e6f64, 1..100),
        ) {
            let s = Schedule::from_rates(0.25, &rates);
            prop_assert_eq!(s.to_rates(), rates);
        }

        #[test]
        fn rate_at_matches_expansion(
            rates in proptest::collection::vec(0.0..10.0f64, 1..50),
            t_frac in 0.0..1.0f64,
        ) {
            // Coarse rates so segments actually merge.
            let rates: Vec<f64> = rates.into_iter().map(|r| r.round()).collect();
            let s = Schedule::from_rates(1.0, &rates);
            let t = ((rates.len() - 1) as f64 * t_frac) as usize;
            prop_assert_eq!(s.rate_at(t), rates[t]);
        }

        #[test]
        fn empirical_distribution_mean_is_service_mean(
            rates in proptest::collection::vec(0.0..10.0f64, 1..60),
        ) {
            let rates: Vec<f64> = rates.into_iter().map(|r| r.round()).collect();
            let s = Schedule::from_rates(1.0, &rates);
            let d = s.empirical_distribution();
            prop_assert!((d.mean() - s.mean_service_rate()).abs() < 1e-9);
        }
    }
}
