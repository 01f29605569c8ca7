//! One-shot traffic descriptors: token (leaky) buckets.
//!
//! Section II argues that a *static* descriptor — a token bucket chosen once
//! at connection setup — cannot capture multiple-time-scale traffic without
//! giving up statistical multiplexing gain, loss, buffering, or protection.
//! This module provides that baseline machinery: conformance testing and
//! policing.

use serde::{Deserialize, Serialize};

use crate::trace::FrameTrace;

/// A token bucket with token rate `rate` (bits/s) and depth `depth` (bits).
///
/// Tokens accrue continuously at `rate` up to `depth`; sending `b` bits
/// requires `b` tokens.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TokenBucket {
    rate: f64,
    depth: f64,
    tokens: f64,
    last_time: f64,
}

impl TokenBucket {
    /// Create a bucket that starts full at time 0.
    ///
    /// # Panics
    /// Panics unless `rate > 0` and `depth >= 0`.
    pub fn new(rate: f64, depth: f64) -> Self {
        assert!(
            rate > 0.0 && rate.is_finite(),
            "token rate must be positive"
        );
        assert!(
            depth >= 0.0 && depth.is_finite(),
            "bucket depth must be nonnegative"
        );
        Self {
            rate,
            depth,
            tokens: depth,
            last_time: 0.0,
        }
    }

    fn accrue(&mut self, time: f64) {
        assert!(
            time >= self.last_time - 1e-9,
            "time must not move backwards"
        );
        let time = time.max(self.last_time);
        self.tokens = (self.tokens + self.rate * (time - self.last_time)).min(self.depth);
        self.last_time = time;
    }

    /// Attempt to send `bits` at `time`. Returns `true` (and consumes
    /// tokens) iff the burst conforms.
    pub fn try_send(&mut self, time: f64, bits: f64) -> bool {
        assert!(bits >= 0.0, "bits must be nonnegative");
        self.accrue(time);
        if bits <= self.tokens + 1e-9 {
            self.tokens = (self.tokens - bits).max(0.0);
            true
        } else {
            false
        }
    }

    /// Check a whole trace for conformance: returns the number of
    /// non-conformant frames (frames are offered at their slot start
    /// times). Non-conformant frames do *not* consume tokens (policing
    /// semantics: the excess is dropped or tagged).
    pub fn police(&mut self, trace: &FrameTrace) -> usize {
        let mut violations = 0;
        for t in 0..trace.len() {
            let time = t as f64 * trace.frame_interval();
            if !self.try_send(time, trace.bits(t)) {
                violations += 1;
            }
        }
        violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_accrues_and_caps() {
        let mut b = TokenBucket::new(100.0, 500.0);
        assert!(b.try_send(0.0, 500.0)); // full at start
        assert!(!b.try_send(1.0, 200.0)); // only 100 accrued
        assert!(b.try_send(5.0, 500.0)); // refilled (capped at depth)
        assert_eq!(b.tokens, 0.0);
    }

    #[test]
    fn conformant_trace_passes_policing() {
        // 10 frames of 50 bits at 1s spacing; rate 100 b/s, depth 50.
        let tr = FrameTrace::new(1.0, vec![50.0; 10]);
        let mut b = TokenBucket::new(100.0, 50.0);
        assert_eq!(b.police(&tr), 0);
    }

    #[test]
    fn bursty_trace_violates_small_bucket() {
        let tr = FrameTrace::new(1.0, vec![0.0, 0.0, 1000.0, 0.0]);
        let mut b = TokenBucket::new(10.0, 50.0);
        assert_eq!(b.police(&tr), 1);
    }
}
