//! Per-VC renegotiation driver: an RCBR source packaged as a steppable
//! state machine, and the only code in the repo that steps a source slot.
//!
//! [`VcDriver`] owns one VC's trace, end-system buffer ("a fixed-size
//! buffer which is drained at a constant rate", Section III-A) and
//! [`OnlinePolicy`], and emits renegotiation *requests* whose verdicts
//! (grant, deny, or a lost RM cell) its caller answers whenever the
//! network decides: [`run_online_delayed`](crate::online::run_online_delayed)
//! a fixed number of slots later (Fig. 2 and the latency study),
//! `RcbrConnection` over a multi-hop path, the signaling runtime
//! asynchronously.
//!
//! A runtime that steps hundreds of AR(1) drivers a round (some tens of
//! slots) at a time between verdicts uses [`VcDriver::step_round`]
//! instead: the same slot arithmetic as [`VcDriver::step`], run over up to
//! [`LANES`] drivers abreast. DESIGN.md §9, "The source round kernel",
//! says why that is faster and why it cannot show.

use rcbr_traffic::FrameTrace;

use crate::online::{Ar1Policy, OnlinePolicy};

/// How many drivers [`VcDriver::step_round`] advances abreast. One slot's
/// backlog update is six dependent float operations, and a driver's next
/// slot cannot start before the last one's backlog is known; four
/// drivers' chains are independent and overlap in the pipeline.
pub const LANES: usize = 4;

/// What one slot reads and writes — everything but the trace. A round
/// kernel clones it into locals, so that a store to one lane cannot force
/// a reload of another's, and writes it back once.
#[derive(Debug, Clone)]
struct SlotState<P> {
    policy: P,
    queue: rcbr_sim::FluidQueue,
    /// Next frame to play, `slots % frames.len()` kept by wrapping.
    cursor: usize,
    /// A request is in flight; the policy must not issue another until the
    /// verdict arrives.
    pending: Option<f64>,
    requests: u64,
}

/// The slot function, the only copy.
impl<P> SlotState<P> {
    /// The next of `frames` arrives and the buffer drains `service` bits.
    /// Returns the bits that arrived and the backlog left. `service` is
    /// nonnegative and fixed between verdicts, so callers check it once
    /// per call of theirs, not here.
    #[inline(always)]
    fn offer(&mut self, frames: &[f64], service: f64) -> (f64, f64) {
        let bits = frames[self.cursor];
        self.cursor += 1;
        if self.cursor == frames.len() {
            self.cursor = 0;
        }
        (bits, self.queue.offer_prechecked(bits, service).backlog)
    }

    /// Count a request the policy raised; `offer` says whether it then
    /// goes out (and stays in flight) or is abandoned on the spot.
    #[inline(always)]
    fn raise(&mut self, rate: f64, offer: bool) -> Option<f64> {
        self.requests += 1;
        if offer {
            self.pending = Some(rate);
        }
        offer.then_some(rate)
    }
}

/// [`OnlinePolicy::observe_slot`] for AR(1), in the two halves the round
/// kernel runs apart: [`arrive`](Self::arrive) is branch-free and is what
/// lanes overlap; [`ask`](Self::ask) runs only where its answer can be
/// observed. `propose` is pure, so skipping it changes nothing.
impl SlotState<Ar1Policy> {
    /// [`offer`](SlotState::offer), then the estimate absorbs the
    /// arrival. Returns the backlog left.
    #[inline(always)]
    fn arrive(&mut self, frames: &[f64], service: f64) -> f64 {
        let (bits, backlog) = self.offer(frames, service);
        self.policy.absorb(bits);
        backlog
    }

    /// Whether a request could come of this slot: none is in flight
    /// (which would suppress it) and the backlog has left the band.
    #[inline(always)]
    fn may_ask(&self, backlog: f64) -> bool {
        self.pending.is_none() & self.policy.outside_band(backlog)
    }

    /// Ask the policy, given [`may_ask`](Self::may_ask), and
    /// [`raise`](SlotState::raise) what it proposes.
    #[inline(always)]
    fn ask(&mut self, backlog: f64, offer: bool) -> Option<f64> {
        let rate = self.policy.propose(backlog)?;
        self.raise(rate, offer)
    }
}

/// One virtual channel's end-system state: trace playback position,
/// end-system buffer, and the renegotiation policy.
///
/// The trace is played back cyclically, so a driver can be stepped for
/// arbitrarily many slots regardless of trace length — a long-running load
/// generator replays the same (statistically calibrated) source material.
#[derive(Debug)]
pub struct VcDriver<P> {
    trace: FrameTrace,
    state: SlotState<P>,
    slots: usize,
    /// The VC has exhausted a retry budget at least once and fell back to
    /// its last granted rate.
    degraded: bool,
}

impl<P: OnlinePolicy> VcDriver<P> {
    /// Create a driver playing `trace` cyclically through `policy`, with a
    /// `buffer`-bit end-system buffer.
    ///
    /// # Panics
    /// Panics if the trace is empty.
    pub fn new(trace: FrameTrace, policy: P, buffer: f64) -> Self {
        assert!(!trace.is_empty(), "driver needs a nonempty trace");
        Self {
            trace,
            state: SlotState {
                policy,
                queue: rcbr_sim::FluidQueue::new(buffer),
                cursor: 0,
                pending: None,
                requests: 0,
            },
            slots: 0,
            degraded: false,
        }
    }

    /// Bits one slot drains at the currently granted rate. It moves only
    /// when a grant lands, never while slots are being stepped.
    fn service(&self) -> f64 {
        let service = self.state.policy.current_rate() * self.trace.frame_interval();
        assert!(service >= 0.0, "service must be nonnegative, got {service}");
        service
    }

    /// Advance one slot: the next frame's bits arrive, the buffer drains at
    /// the currently granted rate, and the policy observes the outcome.
    ///
    /// Returns `Some(rate)` when the policy wants to renegotiate to `rate`
    /// and no earlier request is still in flight; the policy's answer is
    /// dropped while one is. The caller must eventually answer with
    /// [`on_grant`](Self::on_grant), [`on_deny`](Self::on_deny), or
    /// [`on_lost`](Self::on_lost); until then further requests are
    /// suppressed (the source has one outstanding RM cell at a time).
    pub fn step(&mut self) -> Option<f64> {
        let service = self.service();
        self.slots += 1;
        let (bits, backlog) = self.state.offer(self.trace.frames(), service);
        let rate = self.state.policy.observe_slot(bits, backlog)?;
        if self.state.pending.is_some() {
            return None;
        }
        self.state.raise(rate, true)
    }

    /// The network granted the outstanding request.
    pub fn on_grant(&mut self) {
        let rate = self
            .state
            .pending
            .take()
            .expect("grant without an outstanding request");
        self.state.policy.granted(rate);
    }

    /// The network denied the outstanding request: the source "can keep
    /// whatever bandwidth it already has" (Section III-A).
    pub fn on_deny(&mut self) {
        self.state
            .pending
            .take()
            .expect("deny without an outstanding request");
    }

    /// The RM cell was lost in flight. Indistinguishable from a denial at
    /// the source (a timeout), but the network may have partially applied
    /// the delta — which is exactly the drift that absolute resync repairs.
    pub fn on_lost(&mut self) {
        self.state
            .pending
            .take()
            .expect("loss without an outstanding request");
    }

    /// Give up on the outstanding request (retry budget exhausted): the
    /// source keeps its last granted rate and the request is abandoned.
    /// Unlike [`on_deny`](Self::on_deny) this is the *terminal* verdict of
    /// a retry loop, typically paired with
    /// [`mark_degraded`](Self::mark_degraded).
    pub fn abandon(&mut self) {
        self.state
            .pending
            .take()
            .expect("abandon without an outstanding request");
    }

    /// Record that this VC degraded (kept a stale rate after exhausting
    /// its retry budget).
    pub fn mark_degraded(&mut self) {
        self.degraded = true;
    }

    /// Whether this VC ever exhausted a retry budget.
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }

    /// The rate the outstanding request asks for, if one is in flight —
    /// what a retry must re-request.
    pub fn pending_rate(&self) -> Option<f64> {
        self.state.pending
    }

    /// The rate the source currently believes is reserved end to end.
    pub fn current_rate(&self) -> f64 {
        self.state.policy.current_rate()
    }

    /// Whether a request is awaiting its verdict.
    pub fn has_pending(&self) -> bool {
        self.state.pending.is_some()
    }

    /// Slots stepped so far.
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Renegotiation requests issued so far.
    pub fn requests(&self) -> u64 {
        self.state.requests
    }

    /// Fraction of arrived bits lost to end-system buffer overflow.
    pub fn loss_fraction(&self) -> f64 {
        self.state.queue.loss_fraction()
    }

    /// Largest end-system backlog so far, bits.
    pub fn peak_backlog(&self) -> f64 {
        self.state.queue.peak_backlog()
    }

    /// The underlying policy (for inspection).
    pub fn policy(&self) -> &P {
        &self.state.policy
    }
}

/// One driver of a round and whether a request it raises goes out.
pub type Lane<'a> = (&'a mut VcDriver<Ar1Policy>, bool);

impl VcDriver<Ar1Policy> {
    /// The round kernel: advance up to [`LANES`] drivers `n` slots each,
    /// slot by slot together, and return each one's emission as
    /// `(slot within the round, rate)`. Lanes fill from the front.
    ///
    /// Per driver this is `n` calls of [`step`](Self::step), bit for bit:
    /// the same float expressions run in the same order (`propose`, which
    /// is pure, only where its answer can be seen), and only the
    /// interleaving across drivers differs. A lane
    /// whose flag is `false` abandons a request the moment it raises it —
    /// `step` followed at once by [`abandon`](Self::abandon) — so it
    /// returns `None` and may count several requests in one round; a lane
    /// that offers raises at most one, which is then in flight.
    ///
    /// # Panics
    /// Panics if a `Some` lane follows a `None`.
    pub fn step_round(lanes: [Option<Lane<'_>>; LANES], n: usize) -> [Option<(usize, f64)>; LANES] {
        let mut emitted = [None; LANES];
        match lanes {
            [Some(a), Some(b), Some(c), Some(d)] => emitted = abreast([a, b, c, d], n),
            [Some(a), Some(b), Some(c), None] => {
                emitted[..3].copy_from_slice(&abreast([a, b, c], n))
            }
            [Some(a), Some(b), None, None] => emitted[..2].copy_from_slice(&abreast([a, b], n)),
            [Some(a), None, None, None] => emitted[..1].copy_from_slice(&abreast([a], n)),
            [None, None, None, None] => {}
            _ => panic!("lanes must fill from the front"),
        }
        emitted
    }
}

/// [`VcDriver::step_round`] at a fixed lane count, so the lane loop
/// unrolls and each lane's state lives in registers or on the stack.
fn abreast<const N: usize>(mut lanes: [Lane<'_>; N], n: usize) -> [Option<(usize, f64)>; N] {
    let frames: [&[f64]; N] = std::array::from_fn(|l| lanes[l].0.trace.frames());
    let service: [f64; N] = std::array::from_fn(|l| lanes[l].0.service());
    let mut state: [SlotState<Ar1Policy>; N] = std::array::from_fn(|l| lanes[l].0.state.clone());
    let mut emitted = [None; N];
    for slot in 0..n {
        // Two lane loops, not one: the first is straight-line code, which
        // the compiler unrolls into four interleaved chains; folded into
        // the second, each lane's branches fence its chain off from the
        // next lane's (measured: 9.3 ns a slot against 4.5).
        let backlog: [f64; N] = std::array::from_fn(|l| state[l].arrive(frames[l], service[l]));
        for l in 0..N {
            if state[l].may_ask(backlog[l]) {
                if let Some(rate) = state[l].ask(backlog[l], lanes[l].1) {
                    emitted[l] = Some((slot, rate));
                }
            }
        }
    }
    for (lane, state) in lanes.iter_mut().zip(state) {
        lane.0.state = state;
        lane.0.slots += n;
    }
    emitted
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::online::{run_online, Ar1Config, Ar1Policy};

    fn step_trace() -> FrameTrace {
        let mut bits = vec![100.0; 200];
        bits.extend(vec![1000.0; 200]);
        FrameTrace::new(1.0, bits)
    }

    fn cfg() -> Ar1Config {
        Ar1Config {
            ar_coefficient: 0.7,
            buffer_low: 50.0,
            buffer_high: 500.0,
            flush_time: 5.0,
            granularity: 100.0,
            initial_rate: 100.0,
        }
    }

    #[test]
    fn all_grants_matches_run_online() {
        // With every request granted immediately, the steppable driver must
        // reproduce run_online to the bit; only the small buffer overflows.
        let trace = step_trace();
        for buffer in [1e9, 600.0] {
            let r = run_online(&trace, &mut Ar1Policy::new(cfg(), 1.0), buffer);
            assert_eq!(r.loss_fraction > 0.0, buffer < 1e9);
            let mut driver = VcDriver::new(trace.clone(), Ar1Policy::new(cfg(), 1.0), buffer);
            for _ in 0..trace.len() {
                if driver.step().is_some() {
                    driver.on_grant();
                }
            }
            let got = (
                driver.loss_fraction(),
                driver.peak_backlog(),
                driver.requests(),
            );
            let want = (r.loss_fraction, r.peak_backlog, r.requests as u64);
            assert_eq!(format!("{got:?}"), format!("{want:?}"));
            assert_eq!(driver.slots(), trace.len());
        }
    }

    #[test]
    fn pending_suppresses_further_requests() {
        let trace = step_trace();
        let mut driver = VcDriver::new(trace.clone(), Ar1Policy::new(cfg(), 1.0), 1e9);
        let mut first = None;
        for _ in 0..trace.len() {
            if let Some(rate) = driver.step() {
                first = Some(rate);
                break;
            }
        }
        let first = first.expect("the rate step must trigger a request");
        assert!(driver.has_pending());
        // Leave the request unanswered: no further requests may surface.
        for _ in 0..50 {
            assert_eq!(driver.step(), None);
        }
        // Denial keeps the old rate.
        driver.on_deny();
        assert!(!driver.has_pending());
        assert_eq!(driver.current_rate(), 100.0);
        assert!(first > 100.0);
    }

    #[test]
    fn trace_playback_is_cyclic() {
        let trace = FrameTrace::new(1.0, vec![10.0, 20.0, 30.0]);
        let mut driver = VcDriver::new(trace, Ar1Policy::new(cfg(), 1.0), 1e9);
        for _ in 0..10 {
            driver.step();
        }
        assert_eq!(driver.slots(), 10);
    }

    #[test]
    fn abandon_keeps_rate_and_marks_degradation() {
        let trace = step_trace();
        let mut driver = VcDriver::new(trace.clone(), Ar1Policy::new(cfg(), 1.0), 1e9);
        let mut asked = None;
        for _ in 0..trace.len() {
            if let Some(rate) = driver.step() {
                asked = Some(rate);
                break;
            }
        }
        let asked = asked.expect("the rate step must trigger a request");
        assert_eq!(driver.pending_rate(), Some(asked));
        // Retry budget exhausted: the source keeps what it has.
        driver.abandon();
        driver.mark_degraded();
        assert!(!driver.has_pending());
        assert_eq!(driver.pending_rate(), None);
        assert_eq!(driver.current_rate(), 100.0);
        assert!(driver.is_degraded());
        // The driver keeps running after degradation.
        for _ in 0..20 {
            if driver.step().is_some() {
                driver.on_grant();
            }
        }
    }

    #[test]
    #[should_panic(expected = "grant without an outstanding request")]
    fn grant_without_request_panics() {
        let trace = FrameTrace::new(1.0, vec![10.0]);
        let mut driver = VcDriver::new(trace, Ar1Policy::new(cfg(), 1.0), 1e9);
        driver.on_grant();
    }
}
