//! Synthetic MPEG video traces with multiple-time-scale burstiness.
//!
//! The paper's experiments all use the MPEG-1 encoding of *Star Wars*
//! (Garrett & Willinger's trace): ~171,000 frames at 24 frames/s (≈ 2 h),
//! long-term mean rate 374 kb/s, and "episodes where a sustained peak of
//! five times the long-term average rate lasts over 10 s". That trace is
//! not redistributable, so this module generates traces with the same
//! multi-time-scale structure:
//!
//! * **Fast time scale** — the MPEG GoP pattern (default `IBBPBBPBBPBB`):
//!   I frames are several times larger than P frames, which are larger than
//!   B frames, giving the strong 12-frame periodicity of real MPEG-1.
//! * **Slow time scale** — a scene process: each scene draws an *activity
//!   level* that scales every frame in the scene, with durations drawn from
//!   a bounded Pareto (scene lengths are heavy-tailed). A small fraction of
//!   scenes are *action* scenes with activity ≈ 3–4.5x normal, producing
//!   the sustained near-peak episodes the paper describes.
//! * **Frame noise** — per-frame lognormal jitter models residual coding
//!   variability within a scene.
//!
//! After generation the trace is rescaled so its long-term mean rate equals
//! the configured target *exactly*, which pins the x-axes of every figure to
//! the paper's units (multiples of the 374 kb/s mean).

use rcbr_sim::SimRng;
use serde::{Deserialize, Serialize};

use crate::trace::FrameTrace;

/// MPEG frame kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FrameKind {
    /// Intra-coded: largest.
    I,
    /// Predicted: medium.
    P,
    /// Bidirectional: smallest.
    B,
}

/// Configuration for the synthetic generator.
///
/// The defaults ([`SyntheticMpegConfig::star_wars_like`]) are calibrated to
/// the statistics the paper reports for its trace; see the module docs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SyntheticMpegConfig {
    /// Frames per second (paper's trace: 24).
    pub frame_rate: f64,
    /// Target long-term mean rate, bits/second (paper's trace: 374 kb/s).
    pub mean_rate: f64,
    /// GoP pattern, repeated cyclically.
    pub gop: Vec<FrameKind>,
    /// Size of an I frame relative to a B frame.
    pub i_to_b: f64,
    /// Size of a P frame relative to a B frame.
    pub p_to_b: f64,
    /// Mean activity of a normal scene (relative units; the final rescale
    /// makes absolute calibration unnecessary).
    pub normal_activity_mean: f64,
    /// Coefficient of variation of normal-scene activity.
    pub normal_activity_cv: f64,
    /// Probability that a scene is a high-action scene.
    pub action_probability: f64,
    /// Activity range of action scenes (uniform), relative to
    /// `normal_activity_mean = 1`.
    pub action_activity: (f64, f64),
    /// Scene duration bounds in seconds (bounded Pareto).
    pub scene_duration: (f64, f64),
    /// Pareto shape for scene durations (smaller = heavier tail).
    pub scene_alpha: f64,
    /// Per-frame lognormal noise CV.
    pub frame_noise_cv: f64,
}

impl SyntheticMpegConfig {
    /// Defaults calibrated to the paper's *Star Wars* statistics.
    pub fn star_wars_like() -> Self {
        Self {
            frame_rate: 24.0,
            mean_rate: 374_000.0,
            gop: vec![
                FrameKind::I,
                FrameKind::B,
                FrameKind::B,
                FrameKind::P,
                FrameKind::B,
                FrameKind::B,
                FrameKind::P,
                FrameKind::B,
                FrameKind::B,
                FrameKind::P,
                FrameKind::B,
                FrameKind::B,
            ],
            i_to_b: 5.0,
            p_to_b: 2.5,
            normal_activity_mean: 0.75,
            normal_activity_cv: 0.45,
            action_probability: 0.05,
            action_activity: (3.0, 4.5),
            scene_duration: (1.0, 90.0),
            scene_alpha: 1.3,
            frame_noise_cv: 0.15,
        }
    }

    /// Relative size of a frame of the given kind (B frame = 1).
    fn kind_size(&self, kind: FrameKind) -> f64 {
        match kind {
            FrameKind::I => self.i_to_b,
            FrameKind::P => self.p_to_b,
            FrameKind::B => 1.0,
        }
    }

    fn validate(&self) {
        assert!(self.frame_rate > 0.0, "frame rate must be positive");
        assert!(self.mean_rate > 0.0, "mean rate must be positive");
        assert!(!self.gop.is_empty(), "GoP pattern must be nonempty");
        assert!(
            self.i_to_b >= 1.0 && self.p_to_b >= 1.0,
            "I/P must not be smaller than B"
        );
        assert!(
            self.normal_activity_mean > 0.0,
            "normal activity mean must be positive"
        );
        assert!(
            self.normal_activity_cv >= 0.0,
            "activity CV must be nonnegative"
        );
        assert!(
            (0.0..=1.0).contains(&self.action_probability),
            "action probability must be in [0, 1]"
        );
        assert!(
            self.action_activity.0 > 0.0 && self.action_activity.1 >= self.action_activity.0,
            "action activity range invalid"
        );
        assert!(
            self.scene_duration.0 > 0.0 && self.scene_duration.1 > self.scene_duration.0,
            "scene duration range invalid"
        );
        assert!(
            self.scene_alpha > 0.0,
            "scene Pareto shape must be positive"
        );
        assert!(
            self.frame_noise_cv >= 0.0,
            "frame noise CV must be nonnegative"
        );
    }
}

/// The synthetic MPEG source. Wraps a config and generates reproducible
/// traces from a seeded RNG.
///
/// ```
/// use rcbr_sim::SimRng;
/// use rcbr_traffic::SyntheticMpegSource;
///
/// let mut rng = SimRng::from_seed(7);
/// let trace = SyntheticMpegSource::star_wars_like().generate(240, &mut rng);
/// assert_eq!(trace.len(), 240);
/// // Calibrated to the paper's 374 kb/s mean rate, exactly.
/// assert!((trace.mean_rate() - 374_000.0).abs() < 1.0);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SyntheticMpegSource {
    config: SyntheticMpegConfig,
}

impl SyntheticMpegSource {
    /// Create a source from a config.
    ///
    /// # Panics
    /// Panics if the config is internally inconsistent (see field docs).
    pub fn new(config: SyntheticMpegConfig) -> Self {
        config.validate();
        Self { config }
    }

    /// A source calibrated to the paper's trace statistics.
    pub fn star_wars_like() -> Self {
        Self::new(SyntheticMpegConfig::star_wars_like())
    }

    /// Generate a trace of `n_frames` frames, rescaled to hit the
    /// configured mean rate exactly.
    ///
    /// # Panics
    /// Panics if `n_frames == 0`.
    pub fn generate(&self, n_frames: usize, rng: &mut SimRng) -> FrameTrace {
        assert!(n_frames > 0, "must generate at least one frame");
        let c = &self.config;
        let frame_interval = 1.0 / c.frame_rate;

        let mut bits = Vec::with_capacity(n_frames);
        let mut frame = 0usize;
        while frame < n_frames {
            // Draw one scene: duration (frames) and activity level.
            let dur_s = rng.bounded_pareto(c.scene_alpha, c.scene_duration.0, c.scene_duration.1);
            let dur_frames = ((dur_s * c.frame_rate).round() as usize).max(1);
            let activity = if rng.chance(c.action_probability) {
                rng.uniform_in(c.action_activity.0, c.action_activity.1)
            } else {
                rng.lognormal_mean_cv(c.normal_activity_mean, c.normal_activity_cv)
            };
            for _ in 0..dur_frames {
                if frame >= n_frames {
                    break;
                }
                // GoP phase continues across scene boundaries, as a real
                // encoder's does.
                let kind = c.gop[frame % c.gop.len()];
                let base = c.kind_size(kind);
                let noise = if c.frame_noise_cv > 0.0 {
                    rng.lognormal_mean_cv(1.0, c.frame_noise_cv)
                } else {
                    1.0
                };
                bits.push(base * activity * noise);
                frame += 1;
            }
        }

        // Rescale so the long-term mean rate is exactly `mean_rate`.
        let total: f64 = bits.iter().sum();
        let duration = n_frames as f64 * frame_interval;
        let scale = c.mean_rate * duration / total;
        for b in bits.iter_mut() {
            *b *= scale;
        }
        FrameTrace::new(frame_interval, bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::TraceStats;

    fn gen(seed: u64, n: usize) -> FrameTrace {
        let src = SyntheticMpegSource::star_wars_like();
        let mut rng = SimRng::from_seed(seed);
        src.generate(n, &mut rng)
    }

    #[test]
    fn mean_rate_is_exact() {
        let tr = gen(1, 50_000);
        assert!((tr.mean_rate() - 374_000.0).abs() < 1e-6 * 374_000.0);
        assert!((tr.frame_interval() - 1.0 / 24.0).abs() < 1e-12);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = gen(7, 5_000);
        let b = gen(7, 5_000);
        assert_eq!(a.frames(), b.frames());
        let c = gen(8, 5_000);
        assert_ne!(a.frames(), c.frames());
    }

    #[test]
    fn peak_to_mean_is_video_like() {
        let tr = gen(2, 100_000);
        let ratio = tr.peak_rate() / tr.mean_rate();
        // Real MPEG-1 traces have instantaneous (per-frame) peak/mean of
        // roughly 8-15; require something clearly in that burstiness class.
        assert!(ratio > 5.0 && ratio < 40.0, "peak/mean ratio {ratio}");
    }

    #[test]
    fn has_sustained_slow_time_scale_peaks() {
        // The paper: "sustained peak ... lasts over 10 s". Aggregate to
        // 1-second slots and look for runs >= 5 s above 2.5x the mean.
        let tr = gen(3, 171_000);
        let stats = TraceStats::compute(&tr);
        let run = stats.longest_sustained_peak(2.5);
        assert!(
            run >= 5.0,
            "longest sustained 2.5x-mean episode only {run:.1}s; trace lacks slow time scale"
        );
    }

    #[test]
    fn gop_structure_is_visible() {
        // The average I-frame must be much bigger than the average B-frame.
        let tr = gen(4, 24_000);
        let gop = 12;
        let mut i_sum = 0.0;
        let mut i_n = 0.0;
        let mut b_sum = 0.0;
        let mut b_n = 0.0;
        for (t, &b) in tr.frames().iter().enumerate() {
            match t % gop {
                0 => {
                    i_sum += b;
                    i_n += 1.0;
                }
                1 | 2 => {
                    b_sum += b;
                    b_n += 1.0;
                }
                _ => {}
            }
        }
        let ratio = (i_sum / i_n) / (b_sum / b_n);
        assert!(ratio > 3.0, "I/B ratio {ratio} too small for MPEG");
    }

    #[test]
    #[should_panic(expected = "at least one frame")]
    fn zero_frames_rejected() {
        let src = SyntheticMpegSource::star_wars_like();
        let mut rng = SimRng::from_seed(0);
        src.generate(0, &mut rng);
    }

    #[test]
    #[should_panic(expected = "GoP")]
    fn empty_gop_rejected() {
        let mut c = SyntheticMpegConfig::star_wars_like();
        c.gop.clear();
        SyntheticMpegSource::new(c);
    }
}
