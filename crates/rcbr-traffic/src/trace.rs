//! Frame traces: per-frame bit counts at a fixed frame interval.
//!
//! This is the workload representation the paper's experiments consume. The
//! natural time slot is one frame (Section IV-A: "for video, a time slot
//! would typically be the duration of a frame"), so every slotted algorithm
//! in the workspace — the trellis optimizer, the fluid-queue scenarios —
//! indexes a [`FrameTrace`] by slot.

use serde::{Deserialize, Serialize};

/// A video (or other slotted) traffic trace: `frame_bits[t]` bits arrive
/// during slot `t`, each slot lasting `frame_interval` seconds.
///
/// ```
/// use rcbr_traffic::FrameTrace;
///
/// let trace = FrameTrace::new(0.5, vec![100.0, 300.0]);
/// assert_eq!(trace.mean_rate(), 400.0);       // 400 bits over 1 second
/// assert_eq!(trace.peak_rate(), 600.0);       // 300 bits in half a second
/// assert_eq!(trace.shifted(1).frames(), &[300.0, 100.0]);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FrameTrace {
    frame_interval: f64,
    frame_bits: Vec<f64>,
}

impl FrameTrace {
    /// Build a trace from per-frame bit counts.
    ///
    /// # Panics
    /// Panics if `frame_interval <= 0`, if the trace is empty, or if any
    /// frame size is negative or non-finite.
    pub fn new(frame_interval: f64, frame_bits: Vec<f64>) -> Self {
        assert!(
            frame_interval > 0.0 && frame_interval.is_finite(),
            "frame interval must be positive and finite"
        );
        assert!(
            !frame_bits.is_empty(),
            "trace must contain at least one frame"
        );
        assert!(
            frame_bits.iter().all(|b| b.is_finite() && *b >= 0.0),
            "frame sizes must be finite and nonnegative"
        );
        Self {
            frame_interval,
            frame_bits,
        }
    }

    /// Slot duration in seconds.
    pub fn frame_interval(&self) -> f64 {
        self.frame_interval
    }

    /// Frames per second.
    pub fn frame_rate(&self) -> f64 {
        1.0 / self.frame_interval
    }

    /// Number of frames (slots).
    pub fn len(&self) -> usize {
        self.frame_bits.len()
    }

    /// Always `false` (construction rejects empty traces); provided for
    /// clippy-idiomatic pairing with [`len`](Self::len).
    pub fn is_empty(&self) -> bool {
        self.frame_bits.is_empty()
    }

    /// Total duration in seconds.
    pub fn duration(&self) -> f64 {
        self.len() as f64 * self.frame_interval
    }

    /// Bits in frame `t`.
    pub fn bits(&self, t: usize) -> f64 {
        self.frame_bits[t]
    }

    /// All frame sizes.
    pub fn frames(&self) -> &[f64] {
        &self.frame_bits
    }

    /// Total bits in the trace.
    pub fn total_bits(&self) -> f64 {
        self.frame_bits.iter().sum()
    }

    /// Long-term average rate in bits/second.
    pub fn mean_rate(&self) -> f64 {
        self.total_bits() / self.duration()
    }

    /// Instantaneous rate of slot `t` in bits/second.
    pub fn rate(&self, t: usize) -> f64 {
        self.frame_bits[t] / self.frame_interval
    }

    /// Largest single-slot rate in bits/second.
    pub fn peak_rate(&self) -> f64 {
        self.frame_bits.iter().fold(0.0f64, |m, &b| m.max(b)) / self.frame_interval
    }

    /// Circularly shift the trace by `offset` frames (the paper's "randomly
    /// shifted versions of this trace" used to build multiplexed source
    /// populations).
    pub fn shifted(&self, offset: usize) -> FrameTrace {
        let n = self.len();
        let k = offset % n;
        let mut bits = Vec::with_capacity(n);
        bits.extend_from_slice(&self.frame_bits[k..]);
        bits.extend_from_slice(&self.frame_bits[..k]);
        FrameTrace {
            frame_interval: self.frame_interval,
            frame_bits: bits,
        }
    }

    /// Bits of frame `t` of the trace circularly shifted by `offset`,
    /// without materializing the shifted copy. Equivalent to
    /// `self.shifted(offset).bits(t)`.
    pub fn bits_shifted(&self, offset: usize, t: usize) -> f64 {
        let n = self.len();
        self.frame_bits[(t + offset % n) % n]
    }

    /// A sub-trace of frames `[start, start + len)`.
    ///
    /// # Panics
    /// Panics if the range exceeds the trace.
    pub fn window(&self, start: usize, len: usize) -> FrameTrace {
        assert!(start + len <= self.len(), "window out of range");
        assert!(len > 0, "window must be nonempty");
        FrameTrace {
            frame_interval: self.frame_interval,
            frame_bits: self.frame_bits[start..start + len].to_vec(),
        }
    }

    /// Aggregate consecutive frames into coarser slots of `factor` frames
    /// (summing bits). A trailing partial slot is dropped. Used by the
    /// trellis optimizer to trade resolution for speed, and by the
    /// multi-time-scale statistics.
    ///
    /// # Panics
    /// Panics if `factor == 0` or the trace is shorter than one full slot.
    pub fn aggregate(&self, factor: usize) -> FrameTrace {
        assert!(factor > 0, "aggregation factor must be positive");
        let n = self.len() / factor;
        assert!(n > 0, "trace shorter than one aggregated slot");
        let bits = (0..n)
            .map(|i| self.frame_bits[i * factor..(i + 1) * factor].iter().sum())
            .collect();
        FrameTrace {
            frame_interval: self.frame_interval * factor as f64,
            frame_bits: bits,
        }
    }

    /// Cumulative arrivals: `A[t] =` bits in frames `0..t` (so `A[0] = 0`
    /// and `A[len] =` total). Length `len + 1`.
    pub fn cumulative(&self) -> Vec<f64> {
        let mut cum = Vec::with_capacity(self.len() + 1);
        let mut acc = 0.0;
        cum.push(0.0);
        for &b in &self.frame_bits {
            acc += b;
            cum.push(acc);
        }
        cum
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn t(bits: &[f64]) -> FrameTrace {
        FrameTrace::new(0.5, bits.to_vec())
    }

    #[test]
    fn basic_rates() {
        let tr = t(&[100.0, 300.0]);
        assert_eq!(tr.len(), 2);
        assert_eq!(tr.duration(), 1.0);
        assert_eq!(tr.total_bits(), 400.0);
        assert_eq!(tr.mean_rate(), 400.0);
        assert_eq!(tr.rate(0), 200.0);
        assert_eq!(tr.peak_rate(), 600.0);
        assert_eq!(tr.frame_rate(), 2.0);
    }

    #[test]
    fn shift_is_circular() {
        let tr = t(&[1.0, 2.0, 3.0, 4.0]);
        let s = tr.shifted(1);
        assert_eq!(s.frames(), &[2.0, 3.0, 4.0, 1.0]);
        let s = tr.shifted(4);
        assert_eq!(s.frames(), tr.frames());
        let s = tr.shifted(6);
        assert_eq!(s.frames(), &[3.0, 4.0, 1.0, 2.0]);
    }

    #[test]
    fn bits_shifted_matches_materialized_shift() {
        let tr = t(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        for off in 0..12 {
            let s = tr.shifted(off);
            for i in 0..tr.len() {
                assert_eq!(tr.bits_shifted(off, i), s.bits(i), "off={off} i={i}");
            }
        }
    }

    #[test]
    fn window_slices() {
        let tr = t(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(tr.window(1, 2).frames(), &[2.0, 3.0]);
    }

    #[test]
    fn aggregate_sums_and_rescales() {
        let tr = t(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        let a = tr.aggregate(2);
        assert_eq!(a.frames(), &[3.0, 7.0]);
        assert_eq!(a.frame_interval(), 1.0);
        // Mean rate is preserved up to the dropped tail.
        let full = t(&[1.0, 2.0, 3.0, 4.0]);
        assert!((full.aggregate(2).mean_rate() - full.mean_rate()).abs() < 1e-12);
    }

    #[test]
    fn cumulative_arrivals() {
        let tr = t(&[1.0, 2.0, 3.0]);
        assert_eq!(tr.cumulative(), vec![0.0, 1.0, 3.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "at least one frame")]
    fn empty_trace_rejected() {
        FrameTrace::new(1.0, vec![]);
    }

    #[test]
    #[should_panic(expected = "nonnegative")]
    fn negative_frame_rejected() {
        FrameTrace::new(1.0, vec![1.0, -2.0]);
    }

    proptest! {
        #[test]
        fn shift_preserves_totals(
            bits in proptest::collection::vec(0.0..1e6f64, 1..100),
            off in 0usize..500,
        ) {
            let tr = FrameTrace::new(1.0 / 24.0, bits);
            let s = tr.shifted(off);
            prop_assert!((s.total_bits() - tr.total_bits()).abs() < 1e-6);
            prop_assert_eq!(s.len(), tr.len());
        }

        #[test]
        fn aggregate_preserves_counted_bits(
            bits in proptest::collection::vec(0.0..1e6f64, 4..100),
            factor in 1usize..8,
        ) {
            let tr = FrameTrace::new(1.0, bits);
            prop_assume!(tr.len() >= factor);
            let a = tr.aggregate(factor);
            let counted = a.len() * factor;
            let expect: f64 = tr.frames()[..counted].iter().sum();
            prop_assert!((a.total_bits() - expect).abs() < 1e-6);
        }
    }
}
