//! Multi-time-scale trace statistics.
//!
//! Used to validate that synthetic traces have the structure the paper
//! describes (Section II): burstiness at the frame/GoP scale *and* sustained
//! near-peak episodes at the scene scale.

use rcbr_sim::stats::RunningStats;
use serde::{Deserialize, Serialize};

use crate::trace::FrameTrace;

/// Summary statistics of a trace across time scales.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TraceStats {
    /// Slot duration, seconds.
    pub frame_interval: f64,
    /// Number of frames.
    pub frames: usize,
    /// Long-term mean rate, bits/s.
    pub mean_rate: f64,
    /// Per-frame peak rate, bits/s.
    pub peak_rate: f64,
    /// Per-frame rate coefficient of variation.
    pub frame_cv: f64,
    /// Rate CV after aggregating to ~1-second slots.
    pub second_cv: f64,
    /// Rate CV after aggregating to ~10-second slots.
    pub ten_second_cv: f64,
    /// 1-second-aggregated rates, bits/s (kept for sustained-peak queries).
    second_rates: Vec<f64>,
}

impl TraceStats {
    /// Compute statistics for `trace`.
    pub fn compute(trace: &FrameTrace) -> Self {
        let mean_rate = trace.mean_rate();
        let frame_cv = rate_cv(trace, 1);
        let per_second = (trace.frame_rate().round() as usize).max(1);
        let second_cv = rate_cv(trace, per_second);
        let ten_second_cv = rate_cv(trace, per_second * 10);
        let second_rates = aggregated_rates(trace, per_second);
        Self {
            frame_interval: trace.frame_interval(),
            frames: trace.len(),
            mean_rate,
            peak_rate: trace.peak_rate(),
            frame_cv,
            second_cv,
            ten_second_cv,
            second_rates,
        }
    }

    /// Length in seconds of the longest run of 1-second slots whose rate
    /// stays above `threshold_x_mean` times the long-term mean — the
    /// paper's "sustained peak" measure.
    pub fn longest_sustained_peak(&self, threshold_x_mean: f64) -> f64 {
        let thresh = threshold_x_mean * self.mean_rate;
        let mut best = 0usize;
        let mut run = 0usize;
        for &r in &self.second_rates {
            if r > thresh {
                run += 1;
                best = best.max(run);
            } else {
                run = 0;
            }
        }
        best as f64
    }
}

/// Rates of the trace aggregated into `factor`-frame slots, bits/s.
fn aggregated_rates(trace: &FrameTrace, factor: usize) -> Vec<f64> {
    if trace.len() < factor.max(1) {
        return vec![trace.mean_rate()];
    }
    let agg = trace.aggregate(factor.max(1));
    (0..agg.len()).map(|t| agg.rate(t)).collect()
}

/// Coefficient of variation of the rate at the given aggregation level.
fn rate_cv(trace: &FrameTrace, factor: usize) -> f64 {
    let rates = aggregated_rates(trace, factor);
    let stats: RunningStats = rates.into_iter().collect();
    stats.cv()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_trace_has_zero_variability() {
        let tr = FrameTrace::new(1.0 / 24.0, vec![100.0; 1000]);
        let s = TraceStats::compute(&tr);
        assert_eq!(s.frame_cv, 0.0);
        assert_eq!(s.second_cv, 0.0);
        assert_eq!(s.longest_sustained_peak(1.5), 0.0);
    }

    #[test]
    fn sustained_peak_is_detected() {
        // 24 fps; 100 bits/frame background with a 20-second episode at
        // 500 bits/frame.
        let mut bits = vec![100.0; 24 * 120];
        for b in bits.iter_mut().skip(24 * 50).take(24 * 20) {
            *b = 500.0;
        }
        let tr = FrameTrace::new(1.0 / 24.0, bits);
        let s = TraceStats::compute(&tr);
        // Mean ~ 166.7 bits/frame; the episode is ~3x the mean.
        let run = s.longest_sustained_peak(2.0);
        assert!((run - 20.0).abs() <= 1.0, "run {run}");
    }

    #[test]
    fn aggregation_reduces_cv_for_alternating_traffic() {
        // Alternating 0/200 at frame scale has huge frame CV but zero
        // second-scale CV (every second contains the same mix).
        let bits: Vec<f64> = (0..24 * 60)
            .map(|i| if i % 2 == 0 { 0.0 } else { 200.0 })
            .collect();
        let tr = FrameTrace::new(1.0 / 24.0, bits);
        let s = TraceStats::compute(&tr);
        assert!(s.frame_cv > 0.9, "frame cv {}", s.frame_cv);
        assert!(s.second_cv < 0.01, "second cv {}", s.second_cv);
    }

    #[test]
    fn short_trace_aggregation_is_safe() {
        let tr = FrameTrace::new(1.0 / 24.0, vec![10.0; 5]);
        let s = TraceStats::compute(&tr);
        assert!((s.second_cv - 0.0).abs() < 1e-12);
        assert!((s.ten_second_cv - 0.0).abs() < 1e-12);
    }
}
