//! Renegotiation-latency sensitivity — the paper's open question.
//!
//! Section III-C: "the performance of applications with online RCBR
//! decreases with an increase in latency because these applications must
//! predict their future data rate ... We do not yet have analytical
//! expressions or simulation results studying the effect of renegotiation
//! delay on RCBR performance." This module supplies those simulation
//! results:
//!
//! * [`online_with_latency`] — an online source whose requests take a
//!   round-trip `delay` to come into effect (at most one outstanding
//!   request, as with RM-cell signaling). As the paper predicts, loss and
//!   peak backlog grow with the delay, and the damage can be bought back
//!   with end-system buffer (rate headroom does not reliably help).
//! * [`offline_with_latency`] — a stored-video source that *anticipates*:
//!   it issues each scheduled renegotiation `delay` early, so (again as
//!   the paper claims) offline sources are insensitive to path latency.

use rcbr_schedule::online::run_online_delayed;
use rcbr_schedule::{OnlinePolicy, Schedule};
use rcbr_traffic::FrameTrace;
use serde::{Deserialize, Serialize};

/// Outcome of a latency-sensitivity run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatencyOutcome {
    /// Signaling round-trip used, seconds.
    pub delay: f64,
    /// Fraction of bits lost at the end-system buffer.
    pub loss_fraction: f64,
    /// Largest backlog observed, bits.
    pub peak_backlog: f64,
    /// Trace mean rate / mean granted rate.
    pub bandwidth_efficiency: f64,
    /// Renegotiation requests issued.
    pub requests: u64,
}

/// Drive an online `policy` over `trace` with a compliant network whose
/// grants take `delay` seconds (rounded up to whole slots) to come into
/// effect. While a request is in flight the policy's further requests are
/// suppressed (one outstanding RM cell), and the in-flight grant is
/// confirmed to the policy only when it matures.
pub fn online_with_latency(
    trace: &FrameTrace,
    policy: &mut dyn OnlinePolicy,
    buffer: f64,
    delay: f64,
) -> LatencyOutcome {
    assert!(
        delay >= 0.0 && delay.is_finite(),
        "delay must be nonnegative"
    );
    let delay_slots = (delay / trace.frame_interval()).ceil() as usize;
    let run = run_online_delayed(trace, policy, buffer, delay_slots);
    let granted_sum: f64 = run.schedule.to_rates().iter().sum();
    let mean_granted = granted_sum / trace.len() as f64;
    LatencyOutcome {
        delay,
        loss_fraction: run.loss_fraction,
        peak_backlog: run.peak_backlog,
        bandwidth_efficiency: if mean_granted > 0.0 {
            trace.mean_rate() / mean_granted
        } else {
            f64::INFINITY
        },
        requests: run.requests as u64,
    }
}

/// Replay a stored-video `schedule` whose renegotiations are issued
/// `delay` seconds early (the offline anticipation of Section III-A2), so
/// each new rate is in effect exactly at its scheduled slot. Returns the
/// same outcome type for comparison; with a compliant network the result
/// is *independent of the delay* — the offline insensitivity claim.
pub fn offline_with_latency(
    trace: &FrameTrace,
    schedule: &Schedule,
    buffer: f64,
    delay: f64,
) -> LatencyOutcome {
    assert_eq!(
        schedule.num_slots(),
        trace.len(),
        "schedule must cover the trace"
    );
    assert!(
        delay >= 0.0 && delay.is_finite(),
        "delay must be nonnegative"
    );
    // Anticipation makes the granted-rate trajectory equal the scheduled
    // one; replay directly.
    let metrics = schedule.replay(trace, buffer);
    LatencyOutcome {
        delay,
        loss_fraction: metrics.loss_fraction,
        peak_backlog: metrics.peak_backlog,
        bandwidth_efficiency: metrics.bandwidth_efficiency,
        requests: schedule.num_renegotiations() as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcbr_schedule::{Ar1Config, Ar1Policy};
    use rcbr_sim::SimRng;
    use rcbr_traffic::SyntheticMpegSource;

    fn video(seed: u64, frames: usize) -> FrameTrace {
        let mut rng = SimRng::from_seed(seed);
        SyntheticMpegSource::star_wars_like().generate(frames, &mut rng)
    }

    fn policy(trace: &FrameTrace) -> Ar1Policy {
        let tau = trace.frame_interval();
        Ar1Policy::new(Ar1Config::fig2(64_000.0, trace.mean_rate(), tau), tau)
    }

    #[test]
    fn performance_degrades_with_delay() {
        let trace = video(2, 9600);
        let buffer = 300_000.0;
        let mut outcomes = Vec::new();
        for delay in [0.0, 0.25, 1.0, 4.0] {
            let mut p = policy(&trace);
            outcomes.push(online_with_latency(&trace, &mut p, buffer, delay));
        }
        // Loss at 4 s RTT must be clearly worse than at 0 s.
        assert!(
            outcomes[3].loss_fraction > outcomes[0].loss_fraction,
            "4 s delay should lose more: {:?} vs {:?}",
            outcomes[3],
            outcomes[0]
        );
        // And requests fall (one outstanding at a time).
        assert!(outcomes[3].requests <= outcomes[0].requests);
    }

    #[test]
    fn buffer_buys_back_latency_damage() {
        let trace = video(3, 9600);
        let delay = 2.0;
        let mut p1 = policy(&trace);
        let small = online_with_latency(&trace, &mut p1, 300_000.0, delay);
        let mut p2 = policy(&trace);
        let big = online_with_latency(&trace, &mut p2, 3_000_000.0, delay);
        assert!(
            big.loss_fraction < small.loss_fraction || small.loss_fraction == 0.0,
            "10x buffer must not lose more: {big:?} vs {small:?}"
        );
    }

    #[test]
    fn offline_is_insensitive_to_delay() {
        let trace = video(4, 2400);
        let buffer = 300_000.0;
        let grid = rcbr_schedule::RateGrid::uniform(48_000.0, 2_400_000.0, 10);
        let schedule = rcbr_schedule::OfflineOptimizer::new(
            rcbr_schedule::TrellisConfig::new(
                grid,
                rcbr_schedule::CostModel::from_ratio(1e6),
                buffer,
            )
            .with_q_resolution(buffer / 500.0),
        )
        .optimize(&trace)
        .unwrap();
        let a = offline_with_latency(&trace, &schedule, buffer, 0.0);
        let b = offline_with_latency(&trace, &schedule, buffer, 5.0);
        assert_eq!(a.loss_fraction, b.loss_fraction);
        assert_eq!(a.peak_backlog, b.peak_backlog);
        assert_eq!(a.loss_fraction, 0.0);
    }
}
