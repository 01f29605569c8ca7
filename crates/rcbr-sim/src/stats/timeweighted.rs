//! Time-weighted averages of piecewise-constant signals.
//!
//! Utilization and reserved bandwidth in the MBAC experiments are
//! piecewise-constant in time (they change only at call arrivals, departures
//! and renegotiations). [`TimeWeighted`] integrates such a signal exactly.

use serde::{Deserialize, Serialize};

/// Exact integrator for a piecewise-constant signal observed at its change
/// points.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TimeWeighted {
    start: f64,
    last_time: f64,
    value: f64,
    integral: f64,
    min: f64,
    max: f64,
}

impl TimeWeighted {
    /// Start observing at `time` with initial `value`.
    pub fn new(time: f64, value: f64) -> Self {
        Self {
            start: time,
            last_time: time,
            value,
            integral: 0.0,
            min: value,
            max: value,
        }
    }

    /// Record that the signal changed to `value` at `time`.
    ///
    /// # Panics
    /// Panics if `time` moves backwards.
    pub fn set(&mut self, time: f64, value: f64) {
        self.advance(time);
        self.value = value;
        if value < self.min {
            self.min = value;
        }
        if value > self.max {
            self.max = value;
        }
    }

    /// Record that the signal changed by `delta` at `time`.
    pub fn add(&mut self, time: f64, delta: f64) {
        let v = self.value + delta;
        self.set(time, v);
    }

    /// Advance the clock without changing the value.
    pub fn advance(&mut self, time: f64) {
        assert!(
            time >= self.last_time - 1e-9,
            "time must not move backwards: {time} < {}",
            self.last_time
        );
        let time = time.max(self.last_time);
        self.integral += self.value * (time - self.last_time);
        self.last_time = time;
    }

    /// Time average over `[start, time]` (the current value extends to
    /// `time`). Returns the current value if no time has elapsed.
    pub fn average(&mut self, time: f64) -> f64 {
        self.advance(time);
        let span = self.last_time - self.start;
        if span > 0.0 {
            self.integral / span
        } else {
            self.value
        }
    }

    /// Integral of the signal so far (up to the last advance).
    pub fn integral(&self) -> f64 {
        self.integral
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn averages_a_step_signal() {
        let mut tw = TimeWeighted::new(0.0, 1.0);
        tw.set(2.0, 3.0); // value 1 for 2s
        tw.set(4.0, 0.0); // value 3 for 2s
                          // value 0 for 4s
        assert!((tw.average(8.0) - (2.0 + 6.0) / 8.0).abs() < 1e-12);
        assert_eq!(tw.min, 0.0);
        assert_eq!(tw.max, 3.0);
    }

    #[test]
    fn add_tracks_deltas() {
        let mut tw = TimeWeighted::new(10.0, 0.0);
        tw.add(11.0, 5.0);
        tw.add(12.0, -2.0);
        assert_eq!(tw.value, 3.0);
        // 0 for 1s, 5 for 1s, 3 for 1s => avg 8/3.
        assert!((tw.average(13.0) - 8.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn zero_span_average_is_current_value() {
        let mut tw = TimeWeighted::new(5.0, 7.0);
        assert_eq!(tw.average(5.0), 7.0);
    }

    #[test]
    fn repeated_average_is_stable() {
        let mut tw = TimeWeighted::new(0.0, 2.0);
        tw.set(1.0, 4.0);
        let a1 = tw.average(2.0);
        let a2 = tw.average(2.0);
        assert_eq!(a1, a2);
        assert!((a1 - 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "backwards")]
    fn time_reversal_panics() {
        let mut tw = TimeWeighted::new(1.0, 0.0);
        tw.set(0.5, 1.0);
    }
}
