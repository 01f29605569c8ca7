//! The dynamic call-level simulation of Section VI.
//!
//! "Each call is a randomly shifted version of a Star Wars RCBR schedule.
//! Calls arrive according to a Poisson process of rate λ." Because every
//! call follows a piecewise-CBR schedule, only *renegotiation events* need
//! simulating (footnote 4), which is what makes these experiments cheap.
//!
//! Semantics of a failed upward renegotiation follow Section V-B: "the
//! source has to temporarily settle for whatever bandwidth remaining in
//! the link until more bandwidth becomes available" — so a failed call is
//! granted the link's remaining headroom, and freed capacity (departures,
//! downward renegotiations) is redistributed to calls still short of their
//! demand.
//!
//! Measurements follow the paper: each window of one trace duration yields
//! one sample of the renegotiation failure probability and of the
//! utilization; sampling stops when the 95% confidence intervals are
//! within 20% of the estimates, or once the failure CI lies entirely below
//! the target.

use rcbr_schedule::Schedule;
use rcbr_sim::stats::{RunningStats, StopDecision, StoppingRule};
use rcbr_sim::{Scheduler, SimRng, TimeWeighted};
use serde::{Deserialize, Serialize};

use crate::policy::{AdmissionController, AdmissionSnapshot};

/// Configuration of the call-level simulation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CallSimConfig {
    /// Link capacity, bits/second.
    pub capacity: f64,
    /// Poisson call arrival rate, calls/second.
    pub arrival_rate: f64,
    /// QoS target on the renegotiation failure probability (drives the
    /// early-exit stopping rule).
    pub target_failure: f64,
    /// RNG seed.
    pub seed: u64,
    /// Measurement windows to discard as warm-up.
    pub warmup_windows: u64,
    /// Hard cap on measurement windows.
    pub max_windows: u64,
    /// Required relative half-width of the 95% CIs (the paper uses 0.2).
    pub relative_precision: f64,
}

impl CallSimConfig {
    /// A configuration with the paper's measurement rules.
    ///
    /// # Panics
    /// Panics on non-positive capacity/arrival rate or a target outside
    /// `(0, 1)`.
    pub fn new(capacity: f64, arrival_rate: f64, target_failure: f64, seed: u64) -> Self {
        assert!(capacity > 0.0, "capacity must be positive");
        assert!(arrival_rate > 0.0, "arrival rate must be positive");
        assert!(
            target_failure > 0.0 && target_failure < 1.0,
            "target must be in (0, 1)"
        );
        Self {
            capacity,
            arrival_rate,
            target_failure,
            seed,
            warmup_windows: 1,
            max_windows: 200,
            relative_precision: 0.2,
        }
    }

    /// Replace the window cap.
    pub fn with_max_windows(mut self, n: u64) -> Self {
        self.max_windows = n;
        self
    }
}

/// Results of one simulation run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CallSimReport {
    /// Steady-state renegotiation failure probability (failed upward
    /// attempts / upward attempts; the initial allocation counts as an
    /// upward attempt from zero).
    pub failure_probability: f64,
    /// Time-average of reserved bandwidth divided by capacity.
    pub utilization: f64,
    /// Fraction of arrivals rejected by the controller.
    pub blocking_probability: f64,
    /// Time-average number of calls in the system.
    pub mean_calls: f64,
    /// Measurement windows used (after warm-up).
    pub windows: u64,
    /// Why sampling stopped.
    pub decision: StopDecision,
}

#[derive(Debug, Clone, Copy)]
enum Event {
    Arrival,
    Departure { call: usize },
    Renegotiate { call: usize, event_idx: usize },
    WindowEnd,
}

#[derive(Debug, Clone)]
struct Call {
    granted: f64,
    demanded: f64,
    /// Precomputed (local time, new rate) renegotiation events.
    events: Vec<(f64, f64)>,
    alive: bool,
}

/// One class of calls: a base schedule plus a mixing weight.
#[derive(Debug, Clone)]
struct CallClass {
    segments: Vec<(usize, f64)>,
    num_slots: usize,
    slot: f64,
    weight: f64,
}

impl CallClass {
    fn from_schedule(schedule: &Schedule, weight: f64) -> Self {
        Self {
            segments: schedule
                .segments()
                .iter()
                .map(|s| (s.start, s.rate))
                .collect(),
            num_slots: schedule.num_slots(),
            slot: schedule.slot_duration(),
            weight,
        }
    }

    fn duration(&self) -> f64 {
        self.num_slots as f64 * self.slot
    }

    /// Initial demanded rate and the renegotiation events of a call with
    /// circular shift `offset` slots: each event is `(local time s, new
    /// rate)`, strictly increasing in time.
    fn shifted_events(&self, offset: usize) -> (f64, Vec<(f64, f64)>) {
        let n = self.num_slots;
        let offset = offset % n;
        let segs = &self.segments;
        // Segment containing slot `offset`.
        let i0 = segs.partition_point(|&(start, _)| start <= offset) - 1;
        let initial_rate = segs[i0].1;
        let mut events: Vec<(f64, f64)> = Vec::with_capacity(segs.len());
        for (k, &(start, rate)) in segs.iter().enumerate() {
            let local_slot = (start + n - offset) % n;
            if local_slot == 0 {
                debug_assert_eq!(k, i0, "only the initial segment maps to local slot 0");
                continue;
            }
            events.push((local_slot as f64 * self.slot, rate));
        }
        events.sort_by(|a, b| a.0.total_cmp(&b.0));
        (initial_rate, events)
    }
}

/// The call-level simulator. Calls are random circular shifts of one or
/// more base schedules (a heterogeneous mix, e.g. pristine playback vs.
/// interactive sessions).
#[derive(Debug, Clone)]
pub struct CallSim {
    classes: Vec<CallClass>,
    config: CallSimConfig,
}

impl CallSim {
    /// Create a simulator whose calls are random circular shifts of
    /// `schedule`.
    pub fn new(schedule: &Schedule, config: CallSimConfig) -> Self {
        Self {
            classes: vec![CallClass::from_schedule(schedule, 1.0)],
            config,
        }
    }

    /// Create a simulator over a weighted mix of call classes: an arriving
    /// call is of class `i` with probability proportional to its weight.
    ///
    /// # Panics
    /// Panics if `mix` is empty or any weight is nonpositive.
    pub fn new_mixed(mix: &[(Schedule, f64)], config: CallSimConfig) -> Self {
        assert!(!mix.is_empty(), "need at least one call class");
        assert!(
            mix.iter().all(|&(_, w)| w > 0.0),
            "class weights must be positive"
        );
        Self {
            classes: mix
                .iter()
                .map(|(s, w)| CallClass::from_schedule(s, *w))
                .collect(),
            config,
        }
    }

    /// Duration of the longest call class (= one measurement window),
    /// seconds.
    pub fn call_duration(&self) -> f64 {
        self.classes
            .iter()
            .map(|c| c.duration())
            .fold(0.0f64, f64::max)
    }

    #[cfg(test)]
    fn shifted_events(&self, offset: usize) -> (f64, Vec<(f64, f64)>) {
        self.classes[0].shifted_events(offset)
    }

    /// Run the simulation under `controller`.
    pub fn run(&self, controller: &mut dyn AdmissionController) -> CallSimReport {
        let cfg = &self.config;
        let mut rng = SimRng::from_seed(cfg.seed);
        let mut sched: Scheduler<Event> = Scheduler::new();
        let mut calls: Vec<Call> = Vec::new();
        let window = self.call_duration();

        let mut total_granted = 0.0f64;
        let mut reserved_tw = TimeWeighted::new(0.0, 0.0);
        let mut calls_tw = TimeWeighted::new(0.0, 0.0);

        // Per-window counters.
        let mut win_attempts = 0u64;
        let mut win_failures = 0u64;
        let mut win_start = 0.0f64;
        let mut reserved_integral_mark = 0.0f64;

        // Aggregates.
        let mut arrivals_total = 0u64;
        let mut blocked_total = 0u64;

        let mut failure_stats = RunningStats::new();
        let mut util_stats = RunningStats::new();
        let failure_rule = StoppingRule::ci_with_target(cfg.relative_precision, cfg.target_failure)
            .with_max_samples(cfg.max_windows);
        let util_rule = StoppingRule {
            below_target: None,
            ..failure_rule.clone()
        };

        sched.schedule_in(rng.exponential(cfg.arrival_rate), Event::Arrival);
        sched.schedule_in(window, Event::WindowEnd);

        let mut windows_done = 0u64;
        let mut decision = StopDecision::BudgetExhausted;

        while let Some((now, event)) = sched.next_event() {
            match event {
                Event::Arrival => {
                    sched.schedule_in(rng.exponential(cfg.arrival_rate), Event::Arrival);
                    arrivals_total += 1;
                    let reservations: Vec<f64> = calls
                        .iter()
                        .filter(|c| c.alive)
                        .map(|c| c.granted)
                        .collect();
                    let snapshot = AdmissionSnapshot {
                        capacity: cfg.capacity,
                        time: now,
                        reservations: &reservations,
                    };
                    controller.observe(&snapshot);
                    if !controller.admit(&snapshot) {
                        blocked_total += 1;
                        continue;
                    }
                    let weights: Vec<f64> = self.classes.iter().map(|c| c.weight).collect();
                    let class = &self.classes[rng.discrete(&weights)];
                    let offset = rng.index(class.num_slots);
                    let (initial_rate, events) = class.shifted_events(offset);
                    // Initial allocation is an upward attempt from zero.
                    win_attempts += 1;
                    let headroom = (cfg.capacity - total_granted).max(0.0);
                    let granted = initial_rate.min(headroom);
                    if granted + 1e-9 < initial_rate {
                        win_failures += 1;
                    }
                    let id = calls.len();
                    for (k, &(lt, _)) in events.iter().enumerate() {
                        sched.schedule_at(
                            now + lt,
                            Event::Renegotiate {
                                call: id,
                                event_idx: k,
                            },
                        );
                    }
                    sched.schedule_at(now + class.duration(), Event::Departure { call: id });
                    calls.push(Call {
                        granted,
                        demanded: initial_rate,
                        events,
                        alive: true,
                    });
                    total_granted += granted;
                    reserved_tw.set(now, total_granted);
                    calls_tw.add(now, 1.0);
                }
                Event::Departure { call } => {
                    let c = &mut calls[call];
                    debug_assert!(c.alive, "departure of a dead call");
                    c.alive = false;
                    total_granted -= c.granted;
                    c.granted = 0.0;
                    c.demanded = 0.0;
                    self.redistribute(&mut calls, &mut total_granted);
                    reserved_tw.set(now, total_granted);
                    calls_tw.add(now, -1.0);
                    self.notify(controller, &calls, now, cfg.capacity);
                }
                Event::Renegotiate { call, event_idx } => {
                    let (new_rate, old_granted, old_demanded) = {
                        let c = &calls[call];
                        if !c.alive {
                            continue;
                        }
                        (c.events[event_idx].1, c.granted, c.demanded)
                    };
                    if new_rate == old_demanded {
                        // Wrap-around boundary with no real change.
                        continue;
                    }
                    let c = &mut calls[call];
                    c.demanded = new_rate;
                    if new_rate < old_granted {
                        // Downward: always succeeds, frees capacity.
                        total_granted += new_rate - old_granted;
                        c.granted = new_rate;
                        self.redistribute(&mut calls, &mut total_granted);
                    } else if new_rate > old_granted {
                        win_attempts += 1;
                        let headroom = (cfg.capacity - total_granted).max(0.0);
                        let grant = (new_rate - old_granted).min(headroom);
                        let c = &mut calls[call];
                        c.granted = old_granted + grant;
                        total_granted += grant;
                        if c.granted + 1e-9 < new_rate {
                            win_failures += 1;
                        }
                    }
                    reserved_tw.set(now, total_granted);
                    self.notify(controller, &calls, now, cfg.capacity);
                }
                Event::WindowEnd => {
                    reserved_tw.advance(now);
                    let mean_reserved =
                        (reserved_tw.integral() - reserved_integral_mark) / (now - win_start);
                    reserved_integral_mark = reserved_tw.integral();
                    win_start = now;
                    let failure_sample = if win_attempts > 0 {
                        win_failures as f64 / win_attempts as f64
                    } else {
                        0.0
                    };
                    let util_sample = mean_reserved / cfg.capacity;
                    win_attempts = 0;
                    win_failures = 0;
                    if windows_done >= cfg.warmup_windows {
                        failure_stats.push(failure_sample);
                        util_stats.push(util_sample);
                        let fd = failure_rule.evaluate(&failure_stats);
                        let ud = util_rule.evaluate(&util_stats);
                        if fd.should_stop() && ud.should_stop() {
                            decision = fd;
                            break;
                        }
                    }
                    windows_done += 1;
                    if windows_done >= cfg.max_windows + cfg.warmup_windows {
                        decision = StopDecision::BudgetExhausted;
                        break;
                    }
                    sched.schedule_in(window, Event::WindowEnd);
                }
            }
        }

        let end = sched.now();
        CallSimReport {
            failure_probability: failure_stats.mean(),
            utilization: util_stats.mean(),
            blocking_probability: if arrivals_total > 0 {
                blocked_total as f64 / arrivals_total as f64
            } else {
                0.0
            },
            mean_calls: calls_tw.average(end),
            windows: failure_stats.count(),
            decision,
        }
    }

    /// Hand freed capacity to calls still short of their demand, in call
    /// order (recovery is not counted as renegotiation attempts).
    fn redistribute(&self, calls: &mut [Call], total_granted: &mut f64) {
        let mut headroom = (self.config.capacity - *total_granted).max(0.0);
        if headroom <= 0.0 {
            return;
        }
        for c in calls.iter_mut() {
            if !c.alive || c.granted >= c.demanded {
                continue;
            }
            let need = c.demanded - c.granted;
            let take = need.min(headroom);
            c.granted += take;
            *total_granted += take;
            headroom -= take;
            if headroom <= 0.0 {
                break;
            }
        }
    }

    fn notify(
        &self,
        controller: &mut dyn AdmissionController,
        calls: &[Call],
        now: f64,
        capacity: f64,
    ) {
        let reservations: Vec<f64> = calls
            .iter()
            .filter(|c| c.alive)
            .map(|c| c.granted)
            .collect();
        controller.observe(&AdmissionSnapshot {
            capacity,
            time: now,
            reservations: &reservations,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controllers::{Memoryless, PeakRate, PerfectKnowledge};
    use proptest::prelude::*;

    /// A short schedule: 60 slots of 1 s, alternating 100 kb/s (45 s) and
    /// 500 kb/s (15 s) — mean 200 kb/s, peak 500 kb/s.
    fn base_schedule() -> Schedule {
        let mut rates = vec![100_000.0; 45];
        rates.extend(vec![500_000.0; 15]);
        Schedule::from_rates(1.0, &rates)
    }

    #[test]
    fn shifted_events_cover_all_boundaries() {
        let s = base_schedule();
        let sim = CallSim::new(&s, CallSimConfig::new(1e6, 0.1, 1e-3, 1));
        // Offset 0: initial 100k, events at t=45 (500k) and t=... wrap at 60
        // is the call end, boundary at slot 0 maps to local 0 (skipped).
        let (r0, ev0) = sim.shifted_events(0);
        assert_eq!(r0, 100_000.0);
        assert_eq!(ev0, vec![(45.0, 500_000.0)]);
        // Offset 50: starts inside the high period.
        let (r1, ev1) = sim.shifted_events(50);
        assert_eq!(r1, 500_000.0);
        // Events: back to 100k at local (0+60-50)%60=10, up at (45-50+60)%60=55.
        assert_eq!(ev1, vec![(10.0, 100_000.0), (55.0, 500_000.0)]);
    }

    #[test]
    fn peak_rate_controller_never_fails() {
        let s = base_schedule();
        let cfg = CallSimConfig::new(5_000_000.0, 0.2, 1e-3, 7).with_max_windows(20);
        let sim = CallSim::new(&s, cfg);
        let mut ctl = PeakRate::new(500_000.0);
        let report = sim.run(&mut ctl);
        assert_eq!(report.failure_probability, 0.0, "{report:?}");
        // Peak allocation caps utilization at mean/peak = 0.4 of capacity.
        assert!(report.utilization <= 0.45, "{report:?}");
        assert!(report.mean_calls > 0.0);
    }

    #[test]
    fn perfect_knowledge_respects_target_and_beats_peak_utilization() {
        let s = base_schedule();
        let dist = s.empirical_distribution();
        let target = 1e-2;
        let cfg = CallSimConfig::new(5_000_000.0, 0.5, target, 11).with_max_windows(60);
        let sim = CallSim::new(&s, cfg.clone());
        let mut pk = PerfectKnowledge::new(dist, target);
        let report_pk = sim.run(&mut pk);
        let mut peak = PeakRate::new(500_000.0);
        let report_peak = CallSim::new(&s, cfg).run(&mut peak);
        assert!(
            report_pk.utilization > report_peak.utilization,
            "statistical admission should beat peak allocation: {} vs {}",
            report_pk.utilization,
            report_peak.utilization
        );
        // Failures bounded near the target (sampling noise allowed).
        assert!(
            report_pk.failure_probability <= 10.0 * target,
            "failure probability {} far above target {target}",
            report_pk.failure_probability
        );
    }

    #[test]
    fn memoryless_overshoots_on_small_links() {
        // Small capacity (10x the call mean): the regime where Fig. 7 shows
        // the memoryless scheme misses the target by orders of magnitude.
        let s = base_schedule();
        let target = 1e-3;
        let capacity = 10.0 * 200_000.0;
        let cfg = CallSimConfig::new(capacity, 0.5, target, 13).with_max_windows(60);
        let sim = CallSim::new(&s, cfg);
        let mut ml = Memoryless::new(target);
        let report = sim.run(&mut ml);
        assert!(
            report.failure_probability > 10.0 * target,
            "expected gross QoS violation, got {}",
            report.failure_probability
        );
    }

    #[test]
    fn saturated_link_blocks_calls() {
        let s = base_schedule();
        // Tiny capacity and high load: the perfect controller must block.
        let dist = s.empirical_distribution();
        let cfg = CallSimConfig::new(600_000.0, 1.0, 1e-3, 17).with_max_windows(20);
        let sim = CallSim::new(&s, cfg);
        let mut pk = PerfectKnowledge::new(dist, 1e-3);
        let report = sim.run(&mut pk);
        assert!(report.blocking_probability > 0.5, "{report:?}");
    }

    #[test]
    fn deterministic_given_seed() {
        let s = base_schedule();
        let cfg = CallSimConfig::new(2_000_000.0, 0.3, 1e-3, 23).with_max_windows(10);
        let mut a = Memoryless::new(1e-3);
        let mut b = Memoryless::new(1e-3);
        let ra = CallSim::new(&s, cfg.clone()).run(&mut a);
        let rb = CallSim::new(&s, cfg).run(&mut b);
        assert_eq!(ra.failure_probability, rb.failure_probability);
        assert_eq!(ra.utilization, rb.utilization);
        assert_eq!(ra.blocking_probability, rb.blocking_probability);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The shifted-event expansion reproduces the base schedule: for
        /// any offset, walking the initial rate through the events must
        /// visit exactly the base schedule's rate trajectory.
        #[test]
        fn shifted_events_reproduce_the_rotation(
            raw in proptest::collection::vec(0u8..4, 4..60),
            offset in 0usize..200,
        ) {
            // Coarse levels so segments merge.
            let rates: Vec<f64> = raw.iter().map(|&r| 100.0 * (r as f64 + 1.0)).collect();
            let schedule = Schedule::from_rates(1.0, &rates);
            let sim = CallSim::new(&schedule, CallSimConfig::new(1e6, 0.1, 1e-3, 1));
            let n = rates.len();
            let offset = offset % n;
            let (initial, events) = sim.shifted_events(offset);
            // Expand back to a per-slot trajectory.
            let mut rebuilt = vec![initial; n];
            for &(time, rate) in &events {
                let slot = time as usize;
                prop_assert!(slot > 0 && slot < n, "event time {time} out of range");
                for r in rebuilt.iter_mut().skip(slot) {
                    *r = rate;
                }
            }
            for (t, r) in rebuilt.iter().enumerate() {
                prop_assert_eq!(*r, rates[(t + offset) % n], "slot {}", t);
            }
            // Event times strictly increase.
            for w in events.windows(2) {
                prop_assert!(w[0].0 < w[1].0);
            }
        }
    }

    #[test]
    fn conservation_under_load() {
        // Drive the system hard and verify the report is sane.
        let s = base_schedule();
        let cfg = CallSimConfig::new(1_000_000.0, 2.0, 1e-2, 29).with_max_windows(15);
        let sim = CallSim::new(&s, cfg);
        let mut ml = Memoryless::new(1e-2);
        let report = sim.run(&mut ml);
        assert!(report.utilization <= 1.0 + 1e-9, "{report:?}");
        assert!(report.utilization >= 0.0);
        assert!((0.0..=1.0).contains(&report.failure_probability));
        assert!((0.0..=1.0).contains(&report.blocking_probability));
    }
}
