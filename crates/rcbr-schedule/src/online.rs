//! Causal renegotiation heuristics (Section IV-B).
//!
//! Interactive sources cannot see the future, so renegotiation decisions
//! must come from a causal policy. The paper's heuristic combines:
//!
//! * an AR(1) rate estimator with a buffer-flush term (eq. (6)):
//!   `ĉ_t = a·ĉ_{t−1} + (1−a)·x_t + q_t/T`, where `x_t` is the incoming
//!   rate during the slot, `q_t` the backlog at its end, and `T` a time
//!   constant — the extra term adds "the bandwidth necessary to flush the
//!   current buffer content within T";
//! * quantization to a bandwidth granularity `Δ` (eq. (7)):
//!   `c_new = ⌈ĉ/Δ⌉·Δ`;
//! * hysteresis via buffer thresholds (eq. (8)): request `c_new` only if
//!   `q > B_h` and `c_new > c_cur` (about to overflow) or `q < B_l` and
//!   `c_new < c_cur` (holding more than needed).
//!
//! Fig. 2 uses `B_l = 10 kb`, `B_h = 150 kb`, `T = 5 frames`, and sweeps
//! `Δ` from 25 to 400 kb/s.
//!
//! [`GopAwarePolicy`] is the paper's suggested future-work refinement
//! ("the prediction quality could be improved by taking into account the
//! inherent frame structure of MPEG encoded video"): it runs the same
//! estimator on GoP-aggregated rates, which removes the deterministic
//! I/B/P oscillation from the estimator's input.

use rcbr_traffic::FrameTrace;
use serde::{Deserialize, Serialize};

use crate::schedule::Schedule;
use crate::VcDriver;

/// A renegotiation policy driven one slot at a time.
///
/// A [`VcDriver`] feeds the policy each completed slot and forwards its
/// requests to the network; the network's verdict comes back through
/// [`OnlinePolicy::granted`] — which may differ from the request when a
/// renegotiation fails and the source must "keep whatever bandwidth it
/// already has" (Section III-A).
pub trait OnlinePolicy {
    /// Observe one completed slot: `arrived_bits` entered the buffer and
    /// `backlog_bits` remained at the slot's end under the currently
    /// granted rate. Returns `Some(rate)` to request a renegotiation.
    fn observe_slot(&mut self, arrived_bits: f64, backlog_bits: f64) -> Option<f64>;

    /// The network's response to a request (or the initial grant).
    fn granted(&mut self, rate: f64);

    /// The rate the policy believes is currently granted.
    fn current_rate(&self) -> f64;
}

/// A borrowed policy is a policy, so a caller holding `&mut dyn
/// OnlinePolicy` can lend it to a [`VcDriver`].
impl<P: OnlinePolicy + ?Sized> OnlinePolicy for &mut P {
    fn observe_slot(&mut self, arrived_bits: f64, backlog_bits: f64) -> Option<f64> {
        (**self).observe_slot(arrived_bits, backlog_bits)
    }

    fn granted(&mut self, rate: f64) {
        (**self).granted(rate);
    }

    fn current_rate(&self) -> f64 {
        (**self).current_rate()
    }
}

/// Configuration of the AR(1) heuristic.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Ar1Config {
    /// AR smoothing coefficient `a ∈ [0, 1)`; larger = smoother estimate.
    pub ar_coefficient: f64,
    /// Low buffer threshold `B_l`, bits.
    pub buffer_low: f64,
    /// High buffer threshold `B_h`, bits.
    pub buffer_high: f64,
    /// Flush time constant `T`, seconds.
    pub flush_time: f64,
    /// Bandwidth granularity `Δ`, bits/second.
    pub granularity: f64,
    /// Initially granted rate, bits/second.
    pub initial_rate: f64,
}

impl Ar1Config {
    /// The paper's Fig. 2 parameters for a 24 frame/s source:
    /// `B_l = 10 kb`, `B_h = 150 kb`, `T = 5 frames`, initial rate equal to
    /// the long-term mean; `Δ` is the sweep variable.
    pub fn fig2(granularity: f64, mean_rate: f64, frame_interval: f64) -> Self {
        Self {
            ar_coefficient: 0.9,
            buffer_low: 10_000.0,
            buffer_high: 150_000.0,
            flush_time: 5.0 * frame_interval,
            granularity,
            initial_rate: mean_rate,
        }
    }

    fn validate(&self) {
        assert!(
            (0.0..1.0).contains(&self.ar_coefficient),
            "AR coefficient must be in [0, 1)"
        );
        assert!(
            self.buffer_low >= 0.0 && self.buffer_high > self.buffer_low,
            "thresholds must satisfy 0 <= B_l < B_h"
        );
        assert!(self.flush_time > 0.0, "flush time must be positive");
        assert!(self.granularity > 0.0, "granularity must be positive");
        assert!(self.initial_rate >= 0.0, "initial rate must be nonnegative");
    }
}

/// The paper's AR(1) + threshold policy.
#[derive(Debug, Clone)]
pub struct Ar1Policy {
    config: Ar1Config,
    slot_duration: f64,
    estimate: f64,
    current: f64,
}

impl Ar1Policy {
    /// Create the policy for a source with the given slot duration.
    ///
    /// # Panics
    /// Panics if the config is inconsistent or `slot_duration <= 0`.
    pub fn new(config: Ar1Config, slot_duration: f64) -> Self {
        config.validate();
        assert!(slot_duration > 0.0, "slot duration must be positive");
        Self {
            config,
            slot_duration,
            estimate: config.initial_rate,
            current: config.initial_rate,
        }
    }

    /// The current smoothed rate estimate `ĉ`, bits/second.
    pub fn estimate(&self) -> f64 {
        self.estimate
    }
}

/// [`OnlinePolicy::observe_slot`] in its three parts, for a caller (the
/// [`VcDriver`](crate::VcDriver) slot function) that can tell beforehand
/// that the proposal would go unobserved and skips computing it.
impl Ar1Policy {
    /// Absorb one slot's arrival into the AR(1) estimate.
    #[inline]
    pub(crate) fn absorb(&mut self, arrived_bits: f64) {
        let c = &self.config;
        let x_rate = arrived_bits / self.slot_duration;
        // eq. (6): AR update; the flush term `q_t/T` is applied additively
        // at decision time. (Folding it into the recursion, as a literal
        // reading of eq. (6) would, amplifies it by 1/(1−a) in steady state
        // and contradicts its stated meaning — "the bandwidth necessary to
        // flush the current buffer content within T".)
        self.estimate = c.ar_coefficient * self.estimate + (1.0 - c.ar_coefficient) * x_rate;
    }

    /// Whether `backlog_bits` lies outside `[B_l, B_h]`. Inside the band
    /// eq. (8) asks for nothing whatever the quantised target is.
    #[inline]
    pub(crate) fn outside_band(&self, backlog_bits: f64) -> bool {
        (backlog_bits > self.config.buffer_high) | (backlog_bits < self.config.buffer_low)
    }

    /// The rate to ask for with `backlog_bits` in the buffer, if any. A
    /// pure function of the policy's state.
    // Out of line on purpose: `ceil` is a libm call on baseline x86-64,
    // and inlined into the driver's slot loop its register spills land on
    // every slot, asked or not (8.4 ns a slot against 4.5).
    #[inline(never)]
    pub(crate) fn propose(&self, backlog_bits: f64) -> Option<f64> {
        let c = &self.config;
        let target = self.estimate + backlog_bits / c.flush_time;
        // eq. (7): quantize up to the granularity lattice.
        let c_new = (target / c.granularity).ceil().max(0.0) * c.granularity;
        // eq. (8): threshold-gated request.
        let want_up = backlog_bits > c.buffer_high && c_new > self.current;
        let want_down = backlog_bits < c.buffer_low && c_new < self.current;
        (want_up || want_down).then_some(c_new)
    }
}

impl OnlinePolicy for Ar1Policy {
    #[inline]
    fn observe_slot(&mut self, arrived_bits: f64, backlog_bits: f64) -> Option<f64> {
        self.absorb(arrived_bits);
        if self.outside_band(backlog_bits) {
            self.propose(backlog_bits)
        } else {
            None
        }
    }

    fn granted(&mut self, rate: f64) {
        self.current = rate;
    }

    fn current_rate(&self) -> f64 {
        self.current
    }
}

/// Configuration of the GoP-aware variant.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct GopAwareConfig {
    /// The underlying AR(1)/threshold parameters.
    pub ar1: Ar1Config,
    /// Frames per GoP (12 for `IBBPBBPBBPBB`).
    pub gop_len: usize,
}

/// The GoP-aware policy: identical decision logic, but the estimator runs
/// on GoP-aggregated arrival rates and decisions are made once per GoP.
///
/// Aggregation removes the deterministic I/B/P size oscillation from the
/// estimator's input, so for the same granularity the estimate is less
/// noisy and spurious renegotiations are rarer.
#[derive(Debug, Clone)]
pub struct GopAwarePolicy {
    inner: Ar1Policy,
    gop_len: usize,
    acc_bits: f64,
    phase: usize,
}

impl GopAwarePolicy {
    /// Create the policy for a source with the given slot duration.
    ///
    /// # Panics
    /// Panics if `gop_len == 0` or the inner config is invalid.
    pub fn new(config: GopAwareConfig, slot_duration: f64) -> Self {
        assert!(config.gop_len > 0, "GoP length must be positive");
        Self {
            inner: Ar1Policy::new(config.ar1, slot_duration * config.gop_len as f64),
            gop_len: config.gop_len,
            acc_bits: 0.0,
            phase: 0,
        }
    }
}

impl OnlinePolicy for GopAwarePolicy {
    fn observe_slot(&mut self, arrived_bits: f64, backlog_bits: f64) -> Option<f64> {
        self.acc_bits += arrived_bits;
        self.phase += 1;
        // Emergency path: a burst can overflow the buffer well within one
        // GoP, so a high-threshold breach forces an immediate decision on
        // the partial GoP, extrapolated to a full-GoP rate.
        let emergency = backlog_bits > self.inner.config.buffer_high;
        if self.phase < self.gop_len && !emergency {
            return None;
        }
        let bits = self.acc_bits * self.gop_len as f64 / self.phase as f64;
        self.acc_bits = 0.0;
        self.phase = 0;
        self.inner.observe_slot(bits, backlog_bits)
    }

    fn granted(&mut self, rate: f64) {
        self.inner.granted(rate);
    }

    fn current_rate(&self) -> f64 {
        self.inner.current_rate()
    }
}

/// A stored video's precomputed [`Schedule`] as a policy (Section IV-A):
/// each slot it asks for the schedule's rate one slot ahead whenever that
/// rate differs from the granted one, so a denied step is asked again the
/// next slot.
#[derive(Debug, Clone)]
pub struct SchedulePolicy {
    schedule: Schedule,
    slot: usize,
    current: f64,
}

impl SchedulePolicy {
    /// Follow `schedule` from its first slot, starting at its first rate.
    pub fn new(schedule: Schedule) -> Self {
        Self {
            current: schedule.rate_at(0),
            schedule,
            slot: 0,
        }
    }
}

impl OnlinePolicy for SchedulePolicy {
    fn observe_slot(&mut self, _arrived_bits: f64, _backlog_bits: f64) -> Option<f64> {
        self.slot = (self.slot + 1).min(self.schedule.num_slots() - 1);
        let want = self.schedule.rate_at(self.slot);
        (want != self.current).then_some(want)
    }

    fn granted(&mut self, rate: f64) {
        self.current = rate;
    }

    fn current_rate(&self) -> f64 {
        self.current
    }
}

/// Result of driving a policy over a whole trace with every request
/// granted (the Fig. 2 setting, which isolates the policy's intrinsic
/// tradeoff from network-induced failures).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OnlineRun {
    /// The granted-rate schedule actually followed.
    pub schedule: Schedule,
    /// Fraction of bits lost to end-system buffer overflow.
    pub loss_fraction: f64,
    /// Largest backlog observed, bits.
    pub peak_backlog: f64,
    /// Number of renegotiation requests; each is granted, the last
    /// possibly after the trace ends.
    pub requests: usize,
}

/// Drive `policy` over `trace` with a `buffer`-bit end-system buffer and a
/// perfectly compliant network.
///
/// ```
/// use rcbr_schedule::online::run_online;
/// use rcbr_schedule::{Ar1Config, Ar1Policy};
/// use rcbr_traffic::FrameTrace;
///
/// let trace = FrameTrace::new(1.0, vec![100.0; 50]);
/// let config = Ar1Config {
///     ar_coefficient: 0.9,
///     buffer_low: 10.0,
///     buffer_high: 500.0,
///     flush_time: 5.0,
///     granularity: 50.0,
///     initial_rate: 100.0,
/// };
/// let mut policy = Ar1Policy::new(config, 1.0);
/// let run = run_online(&trace, &mut policy, 1_000.0);
/// assert_eq!(run.loss_fraction, 0.0);
/// ```
///
/// A granted rate takes effect at the next slot (renegotiation signaling
/// proceeds in parallel with data transfer, Section III-A). This is
/// [`run_online_delayed`] with no extra delay.
pub fn run_online(trace: &FrameTrace, policy: &mut dyn OnlinePolicy, buffer: f64) -> OnlineRun {
    run_online_delayed(trace, policy, buffer, 0)
}

/// [`run_online`] over a network whose grants take `delay_slots` more
/// slots to come into effect: a request issued in slot `t` is answered at
/// the start of slot `t + 1 + delay_slots`. While it is in flight the
/// policy's further requests are dropped (one outstanding RM cell), and
/// the policy learns of the grant only when it matures. The returned
/// schedule records the rate in effect in each slot.
pub fn run_online_delayed(
    trace: &FrameTrace,
    policy: &mut dyn OnlinePolicy,
    buffer: f64,
    delay_slots: usize,
) -> OnlineRun {
    let mut driver = VcDriver::new(trace.clone(), policy, buffer);
    // The slot at which the in-flight grant matures.
    let mut due = None;
    let rates: Vec<f64> = (0..trace.len())
        .map(|t| {
            if due == Some(t) {
                driver.on_grant();
                due = None;
            }
            let rate = driver.current_rate();
            if driver.step().is_some() {
                due = Some(t + 1 + delay_slots);
            }
            rate
        })
        .collect();
    OnlineRun {
        schedule: Schedule::from_rates(trace.frame_interval(), &rates),
        loss_fraction: driver.loss_fraction(),
        peak_backlog: driver.peak_backlog(),
        requests: driver.requests() as usize,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcbr_sim::SimRng;
    use rcbr_traffic::SyntheticMpegSource;

    fn video_trace(n: usize) -> FrameTrace {
        let mut rng = SimRng::from_seed(42);
        SyntheticMpegSource::star_wars_like().generate(n, &mut rng)
    }

    #[test]
    fn tracks_a_rate_step() {
        // 100 b/s for 200 slots, then 1000 b/s: the policy must renegotiate
        // upward and keep the buffer bounded.
        let mut bits = vec![100.0; 200];
        bits.extend(vec![1000.0; 200]);
        let trace = FrameTrace::new(1.0, bits);
        let cfg = Ar1Config {
            ar_coefficient: 0.7,
            buffer_low: 50.0,
            buffer_high: 500.0,
            flush_time: 5.0,
            granularity: 100.0,
            initial_rate: 100.0,
        };
        let mut policy = Ar1Policy::new(cfg, 1.0);
        let run = run_online(&trace, &mut policy, 1e9);
        assert!(run.requests >= 1);
        // Final granted rate covers the new workload.
        assert!(
            run.schedule.rate_at(399) >= 1000.0,
            "{}",
            run.schedule.rate_at(399)
        );
        // Buffer drains back: final backlog must be small relative to the
        // burst size.
        assert!(run.peak_backlog < 100_000.0);
        assert_eq!(run.loss_fraction, 0.0);
    }

    #[test]
    fn steps_down_when_idle() {
        let mut bits = vec![1000.0; 100];
        bits.extend(vec![50.0; 300]);
        let trace = FrameTrace::new(1.0, bits);
        let cfg = Ar1Config {
            ar_coefficient: 0.7,
            buffer_low: 100.0,
            buffer_high: 2000.0,
            flush_time: 5.0,
            granularity: 100.0,
            initial_rate: 1000.0,
        };
        let mut policy = Ar1Policy::new(cfg, 1.0);
        let run = run_online(&trace, &mut policy, 1e9);
        let final_rate = run.schedule.rate_at(399);
        assert!(
            final_rate <= 200.0,
            "policy failed to release bandwidth: {final_rate}"
        );
    }

    #[test]
    fn hysteresis_suppresses_requests_in_band() {
        // Constant workload matching the granted rate: no requests ever.
        let trace = FrameTrace::new(1.0, vec![500.0; 500]);
        let cfg = Ar1Config {
            ar_coefficient: 0.9,
            buffer_low: 10.0,
            buffer_high: 1000.0,
            flush_time: 5.0,
            granularity: 50.0,
            initial_rate: 500.0,
        };
        let mut policy = Ar1Policy::new(cfg, 1.0);
        let run = run_online(&trace, &mut policy, 1e9);
        assert_eq!(run.requests, 0);
        assert_eq!(run.schedule.num_renegotiations(), 0);
    }

    #[test]
    fn finer_granularity_means_more_requests_and_better_efficiency() {
        let trace = video_trace(20_000);
        let tau = trace.frame_interval();
        let mean = trace.mean_rate();
        let coarse_cfg = Ar1Config::fig2(400_000.0, mean, tau);
        let fine_cfg = Ar1Config::fig2(25_000.0, mean, tau);
        let mut coarse = Ar1Policy::new(coarse_cfg, tau);
        let mut fine = Ar1Policy::new(fine_cfg, tau);
        let run_coarse = run_online(&trace, &mut coarse, 300_000.0);
        let run_fine = run_online(&trace, &mut fine, 300_000.0);
        assert!(
            run_fine.requests > run_coarse.requests,
            "fine {} vs coarse {}",
            run_fine.requests,
            run_coarse.requests
        );
        let eff_fine = run_fine.schedule.bandwidth_efficiency(&trace);
        let eff_coarse = run_coarse.schedule.bandwidth_efficiency(&trace);
        assert!(
            eff_fine > eff_coarse,
            "fine {eff_fine} vs coarse {eff_coarse}"
        );
        // The paper's ballpark: the heuristic reaches high efficiency with
        // sub-second renegotiation intervals at fine granularity.
        assert!(eff_fine > 0.85, "fine efficiency {eff_fine}");
    }

    #[test]
    fn video_buffer_stays_bounded() {
        let trace = video_trace(20_000);
        let tau = trace.frame_interval();
        let cfg = Ar1Config::fig2(100_000.0, trace.mean_rate(), tau);
        let mut policy = Ar1Policy::new(cfg, tau);
        let run = run_online(&trace, &mut policy, 300_000.0);
        // The paper: "the buffer occupancy never exceeds B = 300 kb".
        assert!(
            run.loss_fraction < 1e-3,
            "loss {} too high for the Fig. 2 setting",
            run.loss_fraction
        );
    }

    #[test]
    fn gop_aware_requests_less_often() {
        let trace = video_trace(20_000);
        let tau = trace.frame_interval();
        let ar1 = Ar1Config::fig2(50_000.0, trace.mean_rate(), tau);
        let mut frame_policy = Ar1Policy::new(ar1, tau);
        let mut gop_policy = GopAwarePolicy::new(GopAwareConfig { ar1, gop_len: 12 }, tau);
        let run_frame = run_online(&trace, &mut frame_policy, 300_000.0);
        let run_gop = run_online(&trace, &mut gop_policy, 300_000.0);
        assert!(
            run_gop.requests < run_frame.requests,
            "gop {} vs frame {}",
            run_gop.requests,
            run_frame.requests
        );
        // And it still serves the stream with modest losses.
        assert!(
            run_gop.loss_fraction < 5e-3,
            "gop loss {}",
            run_gop.loss_fraction
        );
    }

    #[test]
    fn granted_rate_differs_from_request_on_failure() {
        // A burst far above the band asks for more; the network denies and
        // the policy keeps its old rate.
        let cfg = Ar1Config {
            ar_coefficient: 0.5,
            buffer_low: 10.0,
            buffer_high: 100.0,
            flush_time: 2.0,
            granularity: 100.0,
            initial_rate: 100.0,
        };
        let trace = FrameTrace::new(1.0, vec![5000.0]);
        let mut driver = VcDriver::new(trace, Ar1Policy::new(cfg, 1.0), 1e6);
        assert!(driver.step().expect("a burst above B_h asks for more") > 100.0);
        driver.on_deny();
        assert_eq!(driver.current_rate(), 100.0);
    }

    /// A schedule's driver, fed `bits` a slot at a one-second slot.
    fn scheduled(rates: &[f64], bits: Vec<f64>, buffer: f64) -> VcDriver<SchedulePolicy> {
        let policy = SchedulePolicy::new(Schedule::from_rates(1.0, rates));
        VcDriver::new(FrameTrace::new(1.0, bits), policy, buffer)
    }

    #[test]
    fn schedule_policy_follows_the_schedule() {
        let mut source = scheduled(&[100.0, 100.0, 300.0, 300.0], vec![50.0; 4], 1000.0);
        assert_eq!(source.current_rate(), 100.0);
        // Slot 0: the next slot is still at 100, so nothing is asked.
        assert_eq!(source.step(), None);
        // Slot 1: the next slot is at 300, asked one slot ahead.
        assert_eq!(source.step(), Some(300.0));
        source.on_grant();
        assert_eq!(source.current_rate(), 300.0);
        assert_eq!(source.step(), None);
        assert_eq!(source.requests(), 1);
    }

    #[test]
    fn schedule_policy_asks_again_after_a_denial() {
        let mut source = scheduled(&[100.0, 500.0, 500.0], vec![100.0; 3], 1e6);
        assert_eq!(source.step(), Some(500.0));
        source.on_deny();
        assert_eq!(source.current_rate(), 100.0);
        // The schedule still wants 500, so the next slot asks again.
        assert_eq!(source.step(), Some(500.0));
        source.on_grant();
        assert_eq!(source.current_rate(), 500.0);
        assert_eq!(source.requests(), 2);
    }

    #[test]
    fn schedule_policy_counts_buffer_overflow() {
        let mut source = scheduled(&[10.0, 10.0], vec![500.0], 100.0);
        assert_eq!(source.step(), None);
        // 500 bits arrive, 10 drain, the 100-bit buffer keeps 100.
        assert_eq!(source.peak_backlog(), 100.0);
        assert_eq!(source.loss_fraction(), 390.0 / 500.0);
    }

    #[test]
    #[should_panic(expected = "B_l < B_h")]
    fn bad_thresholds_rejected() {
        let cfg = Ar1Config {
            ar_coefficient: 0.5,
            buffer_low: 100.0,
            buffer_high: 50.0,
            flush_time: 1.0,
            granularity: 1.0,
            initial_rate: 0.0,
        };
        Ar1Policy::new(cfg, 1.0);
    }
}
