//! The open-loop load generator: one [`VcRunner`] per virtual channel,
//! now with a failure-handling state machine.
//!
//! Each VC owns a synthetic MPEG trace (derived from the master seed and
//! its VCI, so generation is identical no matter which shard hosts it), an
//! end-system buffer, and the AR(1) renegotiation heuristic, packaged in
//! [`rcbr_schedule::VcDriver`]. Stepping a runner produces [`Job`]s tagged
//! with globally unique, shard-invariant sequence numbers.
//!
//! A round top drives every runner through phase A
//! ([`VcRunner::begin_round`]: last round's verdict, then route liveness)
//! and the three parts of phase B: control traffic
//! ([`VcRunner::emit_control`]: a due reroute walk, a due retry), the
//! round's traffic slots ([`VcRunner::step_slots`]: the Settled VCs,
//! [`LANES`] at a time through the source round kernel), and the queued
//! teardown walks ([`VcRunner::emit_tears`]).
//!
//! ## The request state machine
//!
//! ```text
//!            step() emits             verdict = Granted
//!   Idle ────────────────▶ Await ───────────────────────▶ Idle
//!                            │ verdict = Denied, or timeout
//!                            ▼
//!                         Backoff ──(due)──▶ Await  (retry as resync)
//!                            │ budget exhausted
//!                            ▼
//!                          Idle  (abandon: keep last granted rate,
//!                                 mark the VC degraded)
//! ```
//!
//! A killed cell (dropped, corrupted, crash-killed) never reports back, so
//! `Await` is exited by a per-request timeout measured in supersteps.
//! Retries re-request the *pending* rate as an absolute resync cell: the
//! failed attempt may have half-applied its delta along the path, and an
//! absolute cell both retries the request and repairs that drift in one
//! traversal. Backoff doubles per failure with seeded per-VC jitter so
//! synchronized failures don't retry in lockstep — yet every schedule is
//! deterministic, keeping the sharded engine and the sequential replay
//! bit-identical.
//!
//! The state machine is admission-policy agnostic: a `Denied` verdict is
//! handled identically whether a switch's static peak-rate check or a live
//! measurement-based policy (see [`crate::admission`]) refused the
//! booking. MBAC denials simply arrive as ordinary denials and ride the
//! same backoff / retry / degrade path above, unchanged.

use rcbr_net::{ActiveFaults, PriorityClass, Topology, SALT_PRIMARY, SALT_TEARDOWN_BASE};
use rcbr_schedule::online::{Ar1Config, Ar1Policy};
use rcbr_schedule::{RetryBudget, RetryPolicy, VcDriver, LANES};
use rcbr_sim::SimRng;
use rcbr_traffic::SyntheticMpegSource;

use std::sync::Mutex;

use crate::config::RuntimeConfig;
use crate::core::{CounterSnapshot as Counts, Job, JobKind, Outcome, Route, MAX_ROUTE};

/// Supersteps a break-before-make teardown round occupies before the
/// replacement reservation walk goes out: exactly one round, so the
/// teardown has fully drained when the new walk is injected.
const BBM_TEAR_SUPERSTEPS: u64 = 1;

/// Where the VC's outstanding request stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReqPhase {
    /// No request outstanding.
    Idle,
    /// An attempt is in flight (or was killed and will time out).
    Await {
        /// Superstep the attempt was injected at.
        injected_at: u64,
        /// Failed attempts so far for this request.
        failures: u32,
    },
    /// Waiting out a backoff before the next retry.
    Backoff {
        /// First superstep the retry may be injected at.
        until: u64,
        /// Failed attempts so far for this request.
        failures: u32,
    },
}

/// How a reroute sequences reservation against teardown.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RerouteMode {
    /// Reserve the candidate route end to end first; tear the old hops
    /// down only after the commit. The default — service never gaps.
    MakeBeforeBreak,
    /// Tear the old route down first, then reserve fresh. The fallback
    /// under capacity pressure: a denied make-before-break attempt means
    /// old + new do not fit side by side, so the retry releases the old
    /// reservation (believed rate drops to 0 for the gap) before asking.
    BreakBeforeMake,
}

/// Where the VC stands with respect to its route's liveness.
#[derive(Debug, Clone, PartialEq)]
enum RouteState {
    /// The active route is live (as of the last check).
    Settled,
    /// A reroute walk is in flight along `candidate`.
    RerouteAwait {
        /// Superstep the walk was injected at.
        injected_at: u64,
        /// The route being reserved.
        candidate: Vec<usize>,
        /// The sequencing mode of this attempt.
        mode: RerouteMode,
    },
    /// Waiting out a backoff (or the teardown round of break-before-make)
    /// before the next reroute attempt.
    RerouteBackoff {
        /// First superstep the attempt may be injected at.
        until: u64,
        /// The sequencing mode of the next attempt.
        mode: RerouteMode,
    },
    /// No live route to the destination exists. The VC holds nothing and
    /// believes rate 0, and rechecks the topology every round — degraded,
    /// never deadlocked.
    Stranded,
}

/// Whether every switch on `route` is unkilled and every link between
/// consecutive hops is up under `active`, the round top's outages.
/// Transient crashes do *not* fail this check: they end on their own and
/// the retry machinery rides them out.
fn route_alive(route: &[usize], active: &ActiveFaults) -> bool {
    active.routes_intact()
        || (route.iter().all(|&h| !active.switch_killed(h))
            && route.windows(2).all(|w| !active.link_down(w[0], w[1])))
}

/// One VC's source-side state.
pub(crate) struct VcRunner {
    vci: u32,
    driver: VcDriver<Ar1Policy>,
    /// Requests emitted so far (drives the resync cadence).
    emitted: u64,
    phase: ReqPhase,
    retry: RetryPolicy,
    /// The VC's fixed endpoints (reroutes preserve them).
    src: usize,
    dst: usize,
    /// The route the VC's reservations currently live on.
    active_route: Vec<usize>,
    route_state: RouteState,
    /// The old route is torn down (break-before-make window, or
    /// stranded): the VC holds no reservations and believes rate 0.
    torn: bool,
    /// `active_route` or `torn` changed since the route was last
    /// published for the auditor.
    route_moved: bool,
    /// Monotone failure count, for deterministic candidate rotation.
    route_failures: u64,
    /// Consecutive-failure account for reroute attempts; refilled by any
    /// committed reroute.
    budget: RetryBudget,
    /// Teardown walks queued at phase A for emission at phase B.
    pending_tear: Vec<Vec<usize>>,
    /// The VC stranded and has not yet recovered (drives the
    /// `unstranded_events` counter).
    stranded_sticky: bool,
    /// The VC's priority class — stamped on every job it emits, so
    /// over-budget signaling queues shed in class order.
    class: PriorityClass,
    /// Consecutive-shed account, deliberately separate from the failure
    /// budget: sheds are congestion push-back, not verdicts.
    sheds: RetryBudget,
    /// BestEffort brownout: the VC holds its last granted rate and stops
    /// offering slot renegotiations until pressure clears (a clean grant)
    /// or the hold timer lapses.
    brownout: bool,
    /// Superstep at which a brownout's hold timer lapses.
    brownout_clear_at: u64,
}

impl VcRunner {
    /// Build the runner for `vci`. Deterministic in `(cfg.seed, vci)`.
    pub fn new(cfg: &RuntimeConfig, vci: u32) -> Self {
        let mut rng = SimRng::from_seed(cfg.seed).substream(vci as u64 + 1);
        let trace = SyntheticMpegSource::star_wars_like().generate(cfg.trace_frames, &mut rng);
        let tau = trace.frame_interval();
        let policy_cfg = Ar1Config::fig2(cfg.granularity, cfg.initial_rate, tau);
        let policy = Ar1Policy::new(policy_cfg, tau);
        let active_route = cfg.path_of(vci);
        Self {
            vci,
            driver: VcDriver::new(trace, policy, cfg.buffer),
            emitted: 0,
            phase: ReqPhase::Idle,
            retry: cfg.retry_policy(),
            src: active_route[0],
            dst: *active_route.last().expect("routes are nonempty"),
            active_route,
            route_state: RouteState::Settled,
            torn: false,
            route_moved: false,
            route_failures: 0,
            budget: RetryBudget::new(cfg.retry_budget),
            pending_tear: Vec::new(),
            stranded_sticky: false,
            class: cfg.class_of(vci),
            sheds: RetryBudget::new(cfg.shed_budget),
            brownout: false,
            brownout_clear_at: 0,
        }
    }

    /// Round boundary, phase A: consume the outstanding attempt's verdict
    /// if one arrived, otherwise check it for timeout; then check the
    /// active route's liveness against `active`, the outages in force at
    /// `now`, the engine's superstep clock. The pipeline is quiescent
    /// here, which is what makes route decisions race-free: no cell is in
    /// flight to observe a half-switched route.
    #[allow(clippy::too_many_arguments)]
    pub fn begin_round(
        &mut self,
        cfg: &RuntimeConfig,
        topo: &Topology,
        active: &ActiveFaults,
        outcome: Option<Outcome>,
        pressured: bool,
        now: u64,
        counts: &mut Counts,
    ) {
        // Brownout timer fallback: probe again once the hold lapses (not
        // counted as an exit — only a clean grant proves pressure cleared).
        if self.brownout && now >= self.brownout_clear_at {
            self.brownout = false;
        }
        if matches!(self.route_state, RouteState::RerouteAwait { .. }) {
            // The outstanding attempt is a reroute walk; its verdict (or
            // timeout) belongs to the route machinery.
            self.reroute_verdict(outcome, now, counts);
        } else {
            match outcome {
                Some(Outcome::Granted) => {
                    self.driver.on_grant();
                    self.phase = ReqPhase::Idle;
                    self.sheds.on_success();
                    if self.brownout {
                        if pressured {
                            // The response still carried a hop's pressure
                            // flag: hold the brownout, refresh the timer.
                            self.brownout_clear_at = now + cfg.brownout_hold_supersteps;
                        } else {
                            self.brownout = false;
                            counts.brownout_exits += 1;
                        }
                    }
                }
                Some(Outcome::Shed) => self.shed(cfg, now, counts),
                Some(Outcome::Denied) => {
                    let ReqPhase::Await { failures, .. } = self.phase else {
                        unreachable!("a verdict implies an attempt in flight");
                    };
                    self.fail(failures + 1, now, counts);
                }
                None => {
                    if let ReqPhase::Await {
                        injected_at,
                        failures,
                    } = self.phase
                    {
                        if self.retry.timed_out(injected_at, now) {
                            // The cell was killed (dropped, corrupted, or
                            // crash-killed): no verdict will ever arrive.
                            counts.timeouts += 1;
                            self.fail(failures + 1, now, counts);
                        }
                    }
                }
            }
        }
        self.check_route(cfg, topo, active, now);
    }

    /// Process the verdict (or timeout) of an in-flight reroute walk.
    fn reroute_verdict(&mut self, outcome: Option<Outcome>, now: u64, counts: &mut Counts) {
        let RouteState::RerouteAwait {
            injected_at,
            candidate,
            mode,
        } = std::mem::replace(&mut self.route_state, RouteState::Settled)
        else {
            unreachable!("caller checked the state");
        };
        match outcome {
            Some(Outcome::Shed) => {
                unreachable!("reroute walks are exempt from signaling-queue shedding")
            }
            Some(Outcome::Granted) => {
                // Commit: the candidate is reserved end to end, so switch
                // over *before* tearing down — hops the candidate does not
                // share with the old route become stale and are reclaimed
                // by an explicit teardown walk this round.
                counts.reroutes_committed += 1;
                let stale: Vec<usize> = self
                    .active_route
                    .iter()
                    .copied()
                    .filter(|h| !candidate.contains(h))
                    .collect();
                if !self.torn && !stale.is_empty() {
                    self.queue_tear(stale);
                }
                self.active_route = candidate;
                self.torn = false;
                self.route_moved = true;
                // A successful renegotiation refills the retry account.
                self.budget.on_success();
                if self.stranded_sticky {
                    self.stranded_sticky = false;
                    counts.unstranded_events += 1;
                }
            }
            Some(Outcome::Denied) => {
                // Capacity: old + new do not fit side by side. The retry
                // goes break-before-make.
                counts.reroutes_denied += 1;
                self.reroute_failed(candidate, RerouteMode::BreakBeforeMake, now, counts);
            }
            None => {
                if self.retry.timed_out(injected_at, now) {
                    counts.timeouts += 1;
                    self.reroute_failed(candidate, mode, now, counts);
                } else {
                    self.route_state = RouteState::RerouteAwait {
                        injected_at,
                        candidate,
                        mode,
                    };
                }
            }
        }
    }

    /// Record a failed reroute attempt: compensate partial installs, then
    /// back off for a retry or strand.
    fn reroute_failed(
        &mut self,
        candidate: Vec<usize>,
        mode: RerouteMode,
        now: u64,
        counts: &mut Counts,
    ) {
        self.budget.on_failure();
        self.route_failures += 1;
        // Compensate: clear whatever the failed walk installed on hops
        // the active route does not cover. Uninstall is idempotent, so
        // hops the walk never reached are no-ops — the exact install
        // prefix need not be known.
        let comp: Vec<usize> = if self.torn {
            candidate
        } else {
            candidate
                .into_iter()
                .filter(|h| !self.active_route.contains(h))
                .collect()
        };
        if !comp.is_empty() {
            self.queue_tear(comp);
        }
        if self.budget.exhausted() {
            self.strand(counts);
        } else {
            let mode = if self.torn {
                // No reservations left to keep alive: stay break-first.
                RerouteMode::BreakBeforeMake
            } else {
                mode
            };
            self.route_state = RouteState::RerouteBackoff {
                until: now + self.retry.backoff(self.vci, self.budget.failures()),
                mode,
            };
        }
    }

    /// Out of live routes (or out of budget): release everything, mark
    /// degraded, and park in [`RouteState::Stranded`] — which rechecks
    /// the topology every round, so the VC is degraded but never
    /// deadlocked.
    fn strand(&mut self, counts: &mut Counts) {
        if !self.torn {
            self.queue_tear(self.active_route.clone());
            self.torn = true;
            self.route_moved = true;
        }
        counts.stranded_events += 1;
        counts.exhausted += 1;
        counts.completed += 1;
        if !self.driver.is_degraded() {
            self.driver.mark_degraded();
            counts.degraded_events += 1;
        }
        self.stranded_sticky = true;
        self.route_state = RouteState::Stranded;
    }

    fn queue_tear(&mut self, hops: Vec<usize>) {
        debug_assert!(
            self.pending_tear.len() < 2,
            "at most two teardown walks per round"
        );
        self.pending_tear.push(hops);
    }

    /// Phase A route-liveness check: a Settled VC whose route died starts
    /// a reroute; a Stranded VC re-arms when the topology heals.
    fn check_route(
        &mut self,
        cfg: &RuntimeConfig,
        topo: &Topology,
        active: &ActiveFaults,
        now: u64,
    ) {
        match self.route_state {
            RouteState::Settled if !route_alive(&self.active_route, active) => {
                // Cancel any outstanding normal request: the pipeline
                // is quiescent, so an attempt without a verdict is
                // already dead, and the reroute preempts retries.
                if self.driver.pending_rate().is_some() {
                    self.driver.on_deny();
                }
                self.phase = ReqPhase::Idle;
                self.route_state = RouteState::RerouteBackoff {
                    until: now,
                    mode: RerouteMode::MakeBeforeBreak,
                };
            }
            RouteState::Stranded if !self.candidates(cfg, topo, active).is_empty() => {
                // A path reopened (e.g. a flapped link restored): start a
                // fresh failure episode from the torn state.
                self.budget = RetryBudget::new(cfg.retry_budget);
                self.route_state = RouteState::RerouteBackoff {
                    until: now,
                    mode: RerouteMode::BreakBeforeMake,
                };
            }
            _ => {}
        }
    }

    /// The live candidate routes between this VC's endpoints under
    /// `active`, in the deterministic `(length, lexicographic)` order of
    /// [`Topology::alive_routes`].
    fn candidates(
        &self,
        cfg: &RuntimeConfig,
        topo: &Topology,
        active: &ActiveFaults,
    ) -> Vec<Vec<usize>> {
        topo.alive_routes(
            self.src,
            self.dst,
            cfg.reroute_k,
            MAX_ROUTE,
            &|s| !active.switch_killed(s),
            &|a, b| !active.link_down(a, b),
        )
    }

    /// Record the `failures`-th failure of the outstanding request:
    /// either back off for a retry, or exhaust the budget and degrade —
    /// the source keeps its last granted rate (the paper's fallback) and
    /// the request completes as abandoned.
    fn fail(&mut self, failures: u32, now: u64, counts: &mut Counts) {
        if self.retry.exhausted(failures) {
            counts.exhausted += 1;
            counts.completed += 1;
            self.driver.abandon();
            if !self.driver.is_degraded() {
                self.driver.mark_degraded();
                counts.degraded_events += 1;
            }
            self.phase = ReqPhase::Idle;
        } else {
            self.phase = ReqPhase::Backoff {
                until: now + self.retry.backoff(self.vci, failures),
                failures,
            };
        }
    }

    /// The outstanding attempt was shed by an over-budget signaling
    /// queue. Retryable on its own account — never the failure budget —
    /// with the decorrelated widening shed backoff; a BestEffort VC also
    /// enters brownout. An exhausted shed account abandons the request
    /// (the source keeps its granted rate) *without* degrading the VC:
    /// shedding is congestion push-back, not a failure.
    fn shed(&mut self, cfg: &RuntimeConfig, now: u64, counts: &mut Counts) {
        let ReqPhase::Await { failures, .. } = self.phase else {
            unreachable!("a shed verdict implies an attempt in flight");
        };
        let sheds = self.sheds.on_failure();
        if self.class == PriorityClass::BestEffort && !self.brownout {
            self.brownout = true;
            self.brownout_clear_at = now + cfg.brownout_hold_supersteps;
            counts.brownout_entries += 1;
        } else if self.brownout {
            self.brownout_clear_at = now + cfg.brownout_hold_supersteps;
        }
        if self.sheds.exhausted() {
            counts.exhausted += 1;
            counts.completed += 1;
            self.driver.abandon();
            self.phase = ReqPhase::Idle;
            // A fresh account for the next request.
            self.sheds.on_success();
        } else {
            self.phase = ReqPhase::Backoff {
                until: now + self.retry.shed_backoff(self.vci, sheds),
                failures,
            };
        }
    }

    /// The slot-0 sequence number of `round`: free for control traffic
    /// whenever no traffic-slot attempt claims it (a pending request or an
    /// in-progress reroute suppresses slot emissions), and teardown walks
    /// use distinct salts besides. `slot_base` accounts for storm rounds'
    /// widened slot windows; without a storm it is exactly
    /// `round * slots_per_round`, the legacy layout.
    fn base_seq(&self, cfg: &RuntimeConfig, round: u64) -> u64 {
        cfg.slot_base(round) * cfg.num_vcs as u64 + self.vci as u64
    }

    /// Round boundary, phase B, first of three parts: the control
    /// traffic. Runs the reroute engine's emission half (a due reroute
    /// walk; teardowns only get queued here), then — only while Settled —
    /// injects a due retry. A reroute in progress pauses all normal
    /// emission: the source is busy re-establishing connectivity.
    #[allow(clippy::too_many_arguments)]
    pub fn emit_control(
        &mut self,
        cfg: &RuntimeConfig,
        topo: &Topology,
        active: &ActiveFaults,
        round: u64,
        now: u64,
        out: &mut Vec<Job>,
        counts: &mut Counts,
    ) {
        let base_seq = self.base_seq(cfg, round);

        if let RouteState::RerouteBackoff { until, mode } = self.route_state {
            if now >= until {
                if !self.pending_tear.is_empty() {
                    // Teardown walks queued this round overlap any
                    // candidate on the shared endpoints at minimum (a
                    // stranding tear covers the whole active route, a
                    // compensation tear the whole failed candidate).
                    // Launching a walk now would race them on those
                    // hops: sorted after the walk at a shared switch,
                    // the teardown uninstalls the entry the walk just
                    // reserved, and a later grant commits a route with
                    // holes in it. Same discipline as break-before-make:
                    // let the tears drain, walk next round.
                    self.route_state = RouteState::RerouteBackoff {
                        until: now + BBM_TEAR_SUPERSTEPS,
                        mode,
                    };
                } else if mode == RerouteMode::BreakBeforeMake && !self.torn {
                    // Break first: tear the old route down completely; the
                    // fresh reservation walk goes out next round, after
                    // the teardown has drained.
                    self.queue_tear(self.active_route.clone());
                    self.torn = true;
                    self.route_moved = true;
                    self.route_state = RouteState::RerouteBackoff {
                        until: now + BBM_TEAR_SUPERSTEPS,
                        mode,
                    };
                } else {
                    let cands = self.candidates(cfg, topo, active);
                    if cands.is_empty() {
                        self.strand(counts);
                    } else {
                        // Deterministic rotation: successive failures try
                        // successive candidates of the (len, lex)-ordered
                        // list — a pure function of (failure count,
                        // topology, fault schedule).
                        let pick = (self.route_failures % cands.len() as u64) as usize;
                        let candidate = cands.into_iter().nth(pick).expect("pick < len");
                        out.push(Job {
                            seq: base_seq,
                            vci: self.vci,
                            hop: 0,
                            kind: JobKind::Reroute {
                                rate: self.driver.current_rate(),
                            },
                            salt: SALT_PRIMARY,
                            origin: 0,
                            cleared: false,
                            class: self.class,
                            pressured: false,
                            route: Route::from_slice(&candidate),
                        });
                        self.route_state = RouteState::RerouteAwait {
                            injected_at: now,
                            candidate,
                            mode,
                        };
                    }
                }
            }
        }

        if let (RouteState::Settled, ReqPhase::Backoff { until, failures }) =
            (&self.route_state, self.phase)
        {
            if now >= until {
                // Retry the pending rate as an absolute resync: the
                // failed attempt may have half-applied its delta, and
                // an absolute cell repairs that drift while re-asking.
                let rate = self
                    .driver
                    .pending_rate()
                    .expect("backoff implies a pending request");
                counts.retries += 1;
                out.push(Job {
                    seq: base_seq,
                    vci: self.vci,
                    hop: 0,
                    kind: JobKind::Resync {
                        rate,
                        expected_prior: self.driver.current_rate(),
                    },
                    salt: SALT_PRIMARY,
                    origin: 0,
                    cleared: false,
                    class: self.class,
                    pressured: false,
                    route: Route::from_slice(&self.active_route),
                });
                self.phase = ReqPhase::Await {
                    injected_at: now,
                    failures,
                };
            }
        }
    }

    /// Whether phase B's second part steps this VC's traffic slots: only
    /// while Settled — a VC re-establishing connectivity plays no frames.
    pub fn steps_slots(&self) -> bool {
        matches!(self.route_state, RouteState::Settled)
    }

    /// Phase B, second part: step up to [`LANES`] Settled VCs (filled from
    /// the front) through `round`'s traffic slots abreast, and inject
    /// what each one's first request of the round asks for. Which VCs
    /// share a call is unobservable: each is stepped exactly as alone.
    pub fn step_slots(
        mut group: [Option<&mut VcRunner>; LANES],
        cfg: &RuntimeConfig,
        round: u64,
        now: u64,
        out: &mut Vec<Job>,
    ) {
        let mut runners = group.iter_mut();
        // Browned out: hold the granted rate and never offer a request to
        // the network — the shed-backoff probe is the only signaling
        // until pressure clears. The driver raises and abandons it on the
        // spot; no counts move, the request was never injected.
        let lanes = std::array::from_fn(|_| {
            let r = runners.next()?.as_mut()?;
            debug_assert!(r.steps_slots());
            Some((&mut r.driver, !r.brownout))
        });
        let emitted = VcDriver::step_round(lanes, cfg.slots_in_round(round));
        for (r, hit) in group.into_iter().zip(emitted) {
            let (Some(r), Some((slot, rate))) = (r, hit) else {
                continue;
            };
            let global_slot = cfg.slot_base(round) + slot as u64;
            // The driver's current rate is still the pre-grant rate: the
            // delta below is what the network must add (or return).
            let current = r.driver.current_rate();
            r.emitted += 1;
            let kind = if cfg.resync_interval > 0 && r.emitted.is_multiple_of(cfg.resync_interval) {
                JobKind::Resync {
                    rate,
                    expected_prior: current,
                }
            } else {
                JobKind::Delta(rate - current)
            };
            out.push(Job {
                seq: global_slot * cfg.num_vcs as u64 + r.vci as u64,
                vci: r.vci,
                hop: 0,
                kind,
                salt: SALT_PRIMARY,
                origin: 0,
                cleared: false,
                class: r.class,
                pressured: false,
                route: Route::from_slice(&r.active_route),
            });
            r.phase = ReqPhase::Await {
                injected_at: now,
                failures: 0,
            };
        }
    }

    /// Phase B, third part: the teardown walks queued since the last
    /// round top (stale hops after a commit, compensation after a failed
    /// walk, break-before-make, or stranding). Distinct salts keep
    /// same-seq control jobs totally ordered — partition-independently.
    pub fn emit_tears(&mut self, cfg: &RuntimeConfig, round: u64, out: &mut Vec<Job>) {
        let base_seq = self.base_seq(cfg, round);
        for (i, tear) in self.pending_tear.drain(..).enumerate() {
            out.push(Job {
                seq: base_seq,
                vci: self.vci,
                hop: 0,
                kind: JobKind::Teardown,
                salt: SALT_TEARDOWN_BASE + i as u8,
                origin: 0,
                cleared: true,
                class: self.class,
                pressured: false,
                route: Route::from_slice(&tear),
            });
        }
    }

    /// End of run: apply a verdict that arrived in the final round so the
    /// driver's believed rate (and route) reflects it — no retry
    /// processing, the run is over.
    pub fn apply_final(&mut self, outcome: Outcome) {
        if let RouteState::RerouteAwait { candidate, .. } = &self.route_state {
            // A granted reroute commits the route switch (its
            // reservations are already placed); a denial leaves residue
            // on the candidate hops for the end-of-run audit to reclaim.
            if outcome == Outcome::Granted {
                self.active_route = candidate.clone();
                self.torn = false;
            }
            self.route_state = RouteState::Settled;
            return;
        }
        match outcome {
            Outcome::Granted => self.driver.on_grant(),
            Outcome::Denied => self.driver.on_deny(),
            // The run is over: a final shed is just an unserved request —
            // the source keeps what it has.
            Outcome::Shed => self.driver.abandon(),
        }
        self.phase = ReqPhase::Idle;
    }

    /// Whether the run is ending with this VC's route machinery still in
    /// motion: a reroute walk awaiting its verdict, a backoff pending the
    /// next attempt, or teardown walks queued but not yet emitted. Such a
    /// VC can legitimately leave bandwidth on candidate or stale hops for
    /// the end-of-run audit to reclaim (`off_route_residue`), so the
    /// residue invariant only binds when every VC reports settled.
    ///
    /// Must be read *before* [`apply_final`](Self::apply_final): applying
    /// a final reroute verdict collapses the state to `Settled` while the
    /// residue it documents is still on the hops.
    pub fn unsettled_at_exit(&self) -> bool {
        !self.pending_tear.is_empty()
            || matches!(
                self.route_state,
                RouteState::RerouteAwait { .. } | RouteState::RerouteBackoff { .. }
            )
    }

    /// The VCI this runner drives.
    pub fn vci(&self) -> u32 {
        self.vci
    }

    /// The rate the source currently believes is reserved end to end —
    /// 0 while the VC holds nothing (torn down or stranded).
    pub fn believed_rate(&self) -> f64 {
        if self.torn {
            0.0
        } else {
            self.driver.current_rate()
        }
    }

    /// Bring `published`, the route the auditor cross-checks this VC's
    /// reservations against, up to date — empty while the VC holds
    /// nothing, so every entry it may still be leaving behind is treated
    /// as off-route residue. A route moves on a reroute commit, a tear or
    /// a strand; on every other round the lock is not taken.
    pub fn publish_route(&mut self, published: &Mutex<Vec<u16>>) {
        let route: &[usize] = if self.torn { &[] } else { &self.active_route };
        let route = route.iter().map(|&h| h as u16);
        if std::mem::take(&mut self.route_moved) {
            let mut published = published.lock().expect("route lock");
            published.clear();
            published.extend(route);
        } else {
            debug_assert!(published
                .lock()
                .expect("route lock")
                .iter()
                .copied()
                .eq(route));
        }
    }

    /// The route this VC's reservations should live on at end of run
    /// (empty if it holds nothing).
    pub fn final_route(&self) -> Vec<usize> {
        if self.torn {
            Vec::new()
        } else {
            self.active_route.clone()
        }
    }

    /// Whether this VC ever exhausted a retry budget (or was floored by
    /// the end-of-run auditor).
    pub fn is_degraded(&self) -> bool {
        self.driver.is_degraded()
    }

    /// Whether this VC is ending the run browned out (holding its granted
    /// rate, not renegotiating, waiting for pressure to clear).
    pub fn in_brownout(&self) -> bool {
        self.brownout
    }

    /// Fraction of arrived bits this VC lost to end-system buffer
    /// overflow.
    pub fn loss_fraction(&self) -> f64 {
        self.driver.loss_fraction()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcbr_net::FaultPlane;

    fn quiet_cfg() -> RuntimeConfig {
        let mut cfg = RuntimeConfig::balanced(1, 8);
        cfg.fault = rcbr_net::FaultConfig::transparent();
        cfg
    }

    /// The outages `plane` schedules at `now`, as a round top holds them.
    fn faults_at(plane: &FaultPlane, now: u64) -> ActiveFaults {
        let mut active = ActiveFaults::default();
        plane.active_at(now, &mut active);
        active
    }

    /// Phase B for a lone runner: the three parts in the kernel's order.
    #[allow(clippy::too_many_arguments)]
    fn emit_round(
        r: &mut VcRunner,
        cfg: &RuntimeConfig,
        topo: &Topology,
        active: &ActiveFaults,
        round: u64,
        now: u64,
        out: &mut Vec<Job>,
        counters: &mut Counts,
    ) {
        r.emit_control(cfg, topo, active, round, now, out, counters);
        if r.steps_slots() {
            VcRunner::step_slots([Some(&mut *r), None, None, None], cfg, round, now, out);
        }
        r.emit_tears(cfg, round, out);
    }

    /// Drive `r` for `rounds` rounds against a synthetic network that
    /// answers every attempt with `verdict` (or, with `verdict == None`,
    /// kills every cell so only timeouts answer).
    fn drive(
        r: &mut VcRunner,
        cfg: &RuntimeConfig,
        rounds: u64,
        verdict: Option<Outcome>,
        counters: &mut Counts,
    ) -> Vec<Job> {
        let topo = cfg.topology();
        let plane = FaultPlane::new(cfg.fault.clone());
        let mut jobs = Vec::new();
        let mut superstep = 0u64;
        let mut outstanding = false;
        for round in 0..rounds {
            let outcome = if outstanding { verdict } else { None };
            if outcome.is_some() {
                outstanding = false;
            }
            let active = faults_at(&plane, superstep);
            r.begin_round(cfg, &topo, &active, outcome, false, superstep, counters);
            let before = jobs.len();
            emit_round(
                r, cfg, &topo, &active, round, superstep, &mut jobs, counters,
            );
            assert!(jobs.len() - before <= 1, "multiple attempts in one round");
            if jobs.len() > before {
                outstanding = true;
            }
            superstep += 8; // a plausible per-round superstep budget
        }
        jobs
    }

    #[test]
    fn construction_is_deterministic() {
        let cfg = quiet_cfg();
        let mut ca = Counts::default();
        let mut cb = Counts::default();
        let mut a = VcRunner::new(&cfg, 3);
        let mut b = VcRunner::new(&cfg, 3);
        let ja = drive(&mut a, &cfg, 50, Some(Outcome::Granted), &mut ca);
        let jb = drive(&mut b, &cfg, 50, Some(Outcome::Granted), &mut cb);
        assert!(
            !ja.is_empty(),
            "the MPEG source must trigger renegotiations"
        );
        assert_eq!(ja.len(), jb.len());
        for (x, y) in ja.iter().zip(&jb) {
            assert_eq!(x.seq, y.seq);
            assert_eq!(x.kind, y.kind);
        }
    }

    #[test]
    fn denials_are_retried_then_exhausted() {
        let mut cfg = quiet_cfg();
        cfg.retry_budget = 2;
        cfg.backoff_base = 1;
        cfg.backoff_jitter = 0;
        let mut counters = Counts::default();
        let mut r = VcRunner::new(&cfg, 0);
        let jobs = drive(&mut r, &cfg, 300, Some(Outcome::Denied), &mut counters);
        assert!(!jobs.is_empty());
        let snap = counters;
        assert!(snap.retries > 0, "denials must trigger retries");
        assert!(snap.exhausted > 0, "the budget must run out");
        assert_eq!(snap.completed, snap.exhausted);
        assert_eq!(snap.degraded_events, 1, "degradation is marked once");
        assert!(r.is_degraded());
        // Retries go out as absolute resync cells.
        assert!(jobs
            .iter()
            .any(|j| matches!(j.kind, JobKind::Resync { .. })));
    }

    #[test]
    fn killed_cells_time_out() {
        let mut cfg = quiet_cfg();
        cfg.timeout_supersteps = 16;
        cfg.retry_budget = 1;
        let mut counters = Counts::default();
        let mut r = VcRunner::new(&cfg, 2);
        drive(&mut r, &cfg, 300, None, &mut counters);
        let snap = counters;
        assert!(snap.timeouts > 0, "unanswered attempts must time out");
        assert!(snap.exhausted > 0);
        assert!(r.is_degraded());
    }

    #[test]
    fn killed_route_triggers_mbb_reroute_commit_and_stale_teardown() {
        let mut cfg = quiet_cfg();
        cfg.extra_links = vec![(2, 4)];
        // VC 1's default route is [1, 2, 3, 4]; killing switch 3 leaves
        // the chord detour [1, 2, 4] as the shortest live candidate.
        cfg.fault.kills = vec![rcbr_net::KillSpec {
            switch: 3,
            at_superstep: 1,
        }];
        let topo = cfg.topology();
        // The kill is in force from superstep 1 on.
        let active = faults_at(&FaultPlane::new(cfg.fault.clone()), 2);
        let mut counters = Counts::default();
        let mut r = VcRunner::new(&cfg, 1);

        let mut jobs = Vec::new();
        r.begin_round(&cfg, &topo, &active, None, false, 2, &mut counters);
        emit_round(&mut r, &cfg, &topo, &active, 0, 2, &mut jobs, &mut counters);
        assert_eq!(jobs.len(), 1, "a dead route emits exactly the reroute walk");
        assert!(matches!(jobs[0].kind, JobKind::Reroute { .. }));
        let walked: Vec<usize> = (0..jobs[0].route.len())
            .map(|i| jobs[0].route.hop(i))
            .collect();
        assert_eq!(walked, vec![1, 2, 4], "make-before-break takes the chord");
        // Believed rate stays up through the make-before-break window.
        assert!(r.believed_rate() > 0.0);

        jobs.clear();
        r.begin_round(
            &cfg,
            &topo,
            &active,
            Some(Outcome::Granted),
            false,
            8,
            &mut counters,
        );
        assert_eq!(r.final_route(), vec![1, 2, 4]);
        emit_round(&mut r, &cfg, &topo, &active, 1, 8, &mut jobs, &mut counters);
        let tears: Vec<&Job> = jobs
            .iter()
            .filter(|j| matches!(j.kind, JobKind::Teardown))
            .collect();
        assert_eq!(tears.len(), 1, "the stale hop gets one teardown walk");
        assert_eq!(tears[0].route.len(), 1);
        assert_eq!(tears[0].route.hop(0), 3);
        let snap = counters;
        assert_eq!(snap.reroutes_committed, 1);
        assert_eq!(snap.stranded_events, 0);
    }

    #[test]
    fn denied_reroute_falls_back_to_break_before_make() {
        let mut cfg = quiet_cfg();
        cfg.backoff_base = 1;
        cfg.backoff_jitter = 0;
        cfg.extra_links = vec![(2, 4)];
        cfg.fault.kills = vec![rcbr_net::KillSpec {
            switch: 3,
            at_superstep: 1,
        }];
        let topo = cfg.topology();
        // The kill is in force from superstep 1 on.
        let active = faults_at(&FaultPlane::new(cfg.fault.clone()), 2);
        let mut counters = Counts::default();
        let mut r = VcRunner::new(&cfg, 1);

        // Round 0: make-before-break walk along the chord goes out.
        let mut jobs = Vec::new();
        r.begin_round(&cfg, &topo, &active, None, false, 2, &mut counters);
        emit_round(&mut r, &cfg, &topo, &active, 0, 2, &mut jobs, &mut counters);
        assert!(matches!(jobs[0].kind, JobKind::Reroute { .. }));

        // The walk is denied (capacity): the retry must go break-first.
        jobs.clear();
        r.begin_round(
            &cfg,
            &topo,
            &active,
            Some(Outcome::Denied),
            false,
            10,
            &mut counters,
        );
        assert_eq!(counters.reroutes_denied, 1);
        assert!(r.believed_rate() > 0.0, "nothing torn yet");
        // Backoff elapses: the break round tears the whole old route.
        emit_round(
            &mut r,
            &cfg,
            &topo,
            &active,
            1,
            20,
            &mut jobs,
            &mut counters,
        );
        let tears: Vec<&Job> = jobs
            .iter()
            .filter(|j| matches!(j.kind, JobKind::Teardown))
            .collect();
        assert_eq!(tears.len(), 1);
        assert_eq!(
            tears[0].route.len(),
            4,
            "break-before-make tears everything"
        );
        assert_eq!(r.believed_rate(), 0.0, "service gaps during the break");

        // Next round: the fresh reservation walk goes out, and a grant
        // restores service on the new route.
        jobs.clear();
        r.begin_round(&cfg, &topo, &active, None, false, 28, &mut counters);
        emit_round(
            &mut r,
            &cfg,
            &topo,
            &active,
            2,
            28,
            &mut jobs,
            &mut counters,
        );
        assert!(jobs
            .iter()
            .any(|j| matches!(j.kind, JobKind::Reroute { .. })));
        r.begin_round(
            &cfg,
            &topo,
            &active,
            Some(Outcome::Granted),
            false,
            36,
            &mut counters,
        );
        assert_eq!(counters.reroutes_committed, 1);
        assert!(r.believed_rate() > 0.0);
        assert!(!r.final_route().contains(&3));
    }

    #[test]
    fn unreachable_destination_strands_then_recovers_when_links_heal() {
        let mut cfg = quiet_cfg();
        cfg.retry_budget = 1;
        cfg.backoff_base = 1;
        cfg.backoff_jitter = 0;
        // Cut both ring links around VC 1's destination (switch 4) for a
        // window: no candidate survives, so the VC must strand — and then
        // re-arm once the links come back.
        for (a, b) in [(3usize, 4usize), (4, 5)] {
            cfg.fault.link_downs.push(rcbr_net::LinkDownSpec {
                a,
                b,
                at_superstep: 1,
                down_supersteps: 100,
            });
        }
        let topo = cfg.topology();
        let plane = FaultPlane::new(cfg.fault.clone());
        let (cut, healed) = (faults_at(&plane, 2), faults_at(&plane, 101));
        let mut counters = Counts::default();
        let mut r = VcRunner::new(&cfg, 1);

        let mut jobs = Vec::new();
        r.begin_round(&cfg, &topo, &cut, None, false, 2, &mut counters);
        emit_round(&mut r, &cfg, &topo, &cut, 0, 2, &mut jobs, &mut counters);
        assert_eq!(counters.stranded_events, 1);
        assert_eq!(r.believed_rate(), 0.0, "a stranded VC holds nothing");
        assert!(r.final_route().is_empty());
        let tears = jobs
            .iter()
            .filter(|j| matches!(j.kind, JobKind::Teardown))
            .count();
        assert_eq!(tears, 1, "stranding tears the whole active route down");

        // Links heal at superstep 101: the recheck re-arms, the walk goes
        // out, and a grant un-strands the VC.
        jobs.clear();
        r.begin_round(&cfg, &topo, &healed, None, false, 101, &mut counters);
        emit_round(
            &mut r,
            &cfg,
            &topo,
            &healed,
            1,
            101,
            &mut jobs,
            &mut counters,
        );
        assert!(
            jobs.iter()
                .any(|j| matches!(j.kind, JobKind::Reroute { .. })),
            "a revived topology re-arms the stranded VC"
        );
        r.begin_round(
            &cfg,
            &topo,
            &healed,
            Some(Outcome::Granted),
            false,
            108,
            &mut counters,
        );
        let snap = counters;
        assert_eq!(snap.unstranded_events, 1);
        assert_eq!(r.final_route(), vec![1, 2, 3, 4]);
        assert!(r.believed_rate() > 0.0);
    }

    #[test]
    fn sheds_exhaust_their_own_account_without_degrading() {
        let mut cfg = quiet_cfg();
        cfg.shed_budget = 2;
        cfg.backoff_base = 1;
        cfg.backoff_jitter = 0;
        let mut counters = Counts::default();
        // VC 1 is Gold under the default 25/25 mix: sheds must never
        // brown it out, only back it off and eventually abandon.
        let mut r = VcRunner::new(&cfg, 1);
        drive(&mut r, &cfg, 300, Some(Outcome::Shed), &mut counters);
        let snap = counters;
        assert!(snap.exhausted > 0, "the shed account must run out");
        assert_eq!(snap.completed, snap.exhausted);
        assert_eq!(
            snap.degraded_events, 0,
            "sheds are push-back, not failures: no degradation"
        );
        assert!(!r.is_degraded());
        assert!(!r.in_brownout(), "Gold VCs never brown out");
        assert_eq!(snap.brownout_entries, 0);
    }

    #[test]
    fn best_effort_shed_enters_brownout_and_a_clean_grant_exits() {
        let mut cfg = quiet_cfg();
        cfg.backoff_base = 1;
        cfg.backoff_jitter = 0;
        cfg.brownout_hold_supersteps = 10_000;
        let topo = cfg.topology();
        let active = ActiveFaults::default();
        let mut counters = Counts::default();
        // vci % 100 = 51 falls past the Gold + Silver bands.
        assert_eq!(cfg.class_of(51), rcbr_net::PriorityClass::BestEffort);
        let mut r = VcRunner::new(&cfg, 51);

        // Step rounds until the driver offers an attempt.
        let mut jobs = Vec::new();
        let mut round = 0u64;
        let mut now = 0u64;
        while jobs.is_empty() {
            r.begin_round(&cfg, &topo, &active, None, false, now, &mut counters);
            emit_round(
                &mut r,
                &cfg,
                &topo,
                &active,
                round,
                now,
                &mut jobs,
                &mut counters,
            );
            round += 1;
            now += 8;
        }

        // Shed it: the BestEffort VC browns out and schedules the probe.
        r.begin_round(
            &cfg,
            &topo,
            &active,
            Some(Outcome::Shed),
            false,
            now,
            &mut counters,
        );
        assert!(r.in_brownout());
        assert_eq!(counters.brownout_entries, 1);
        jobs.clear();
        now += 8;
        r.begin_round(&cfg, &topo, &active, None, false, now, &mut counters);
        emit_round(
            &mut r,
            &cfg,
            &topo,
            &active,
            round,
            now,
            &mut jobs,
            &mut counters,
        );
        assert_eq!(
            jobs.len(),
            1,
            "brownout allows exactly the shed-backoff probe, no slot traffic"
        );
        assert!(matches!(jobs[0].kind, JobKind::Resync { .. }));

        // The probe comes back granted and clean: the brownout ends.
        now += 8;
        r.begin_round(
            &cfg,
            &topo,
            &active,
            Some(Outcome::Granted),
            false,
            now,
            &mut counters,
        );
        assert!(!r.in_brownout(), "a clean grant ends the brownout");
        assert_eq!(counters.brownout_exits, 1);
    }

    #[test]
    fn pressured_grant_keeps_the_brownout() {
        let mut cfg = quiet_cfg();
        cfg.backoff_base = 1;
        cfg.backoff_jitter = 0;
        cfg.brownout_hold_supersteps = 10_000;
        let topo = cfg.topology();
        let active = ActiveFaults::default();
        let mut counters = Counts::default();
        let mut r = VcRunner::new(&cfg, 51);
        let mut jobs = Vec::new();
        let mut round = 0u64;
        let mut now = 0u64;
        while jobs.is_empty() {
            r.begin_round(&cfg, &topo, &active, None, false, now, &mut counters);
            emit_round(
                &mut r,
                &cfg,
                &topo,
                &active,
                round,
                now,
                &mut jobs,
                &mut counters,
            );
            round += 1;
            now += 8;
        }
        r.begin_round(
            &cfg,
            &topo,
            &active,
            Some(Outcome::Shed),
            false,
            now,
            &mut counters,
        );
        assert!(r.in_brownout());
        // The probe's grant still carries a hop's pressure flag: the VC
        // stays browned out (timer refreshed) and no exit is counted.
        r.begin_round(
            &cfg,
            &topo,
            &active,
            Some(Outcome::Granted),
            true,
            now + 8,
            &mut counters,
        );
        assert!(r.in_brownout(), "a pressured grant refreshes the brownout");
        assert_eq!(counters.brownout_exits, 0);
        // And while browned out with nothing pending, no slot traffic.
        jobs.clear();
        emit_round(
            &mut r,
            &cfg,
            &topo,
            &active,
            round,
            now + 8,
            &mut jobs,
            &mut counters,
        );
        assert!(jobs.is_empty(), "brownout suppresses slot renegotiation");
    }

    #[test]
    fn brownout_counts_requests_as_step_then_abandon() {
        let mut cfg = quiet_cfg();
        cfg.backoff_base = 1;
        cfg.backoff_jitter = 0;
        cfg.brownout_hold_supersteps = 10_000;
        let topo = cfg.topology();
        let active = ActiveFaults::default();
        let mut counters = Counts::default();
        let mut r = VcRunner::new(&cfg, 51);
        // The same source, stepped one slot at a time beside the runner.
        let mut twin = VcRunner::new(&cfg, 51).driver;
        let mut jobs = Vec::new();
        let mut round = 0u64;
        let mut now = 0u64;
        while jobs.is_empty() {
            r.begin_round(&cfg, &topo, &active, None, false, now, &mut counters);
            emit_round(
                &mut r,
                &cfg,
                &topo,
                &active,
                round,
                now,
                &mut jobs,
                &mut counters,
            );
            for _ in 0..cfg.slots_in_round(round) {
                twin.step();
            }
            round += 1;
            now += 8;
        }
        // Shed, then granted under pressure: browned out, nothing pending.
        r.begin_round(
            &cfg,
            &topo,
            &active,
            Some(Outcome::Shed),
            false,
            now,
            &mut counters,
        );
        r.begin_round(
            &cfg,
            &topo,
            &active,
            Some(Outcome::Granted),
            true,
            now + 8,
            &mut counters,
        );
        twin.on_grant();
        assert!(r.in_brownout());
        assert_eq!(r.driver.requests(), twin.requests());

        // Rounds in which the source raises several requests: each is
        // counted and abandoned on the spot, none is injected.
        jobs.clear();
        let injected = counters;
        let mut most_in_a_round = 0;
        for _ in 0..40 {
            now += 8;
            r.begin_round(&cfg, &topo, &active, None, false, now, &mut counters);
            emit_round(
                &mut r,
                &cfg,
                &topo,
                &active,
                round,
                now,
                &mut jobs,
                &mut counters,
            );
            let before = twin.requests();
            for _ in 0..cfg.slots_in_round(round) {
                if twin.step().is_some() {
                    twin.abandon();
                }
            }
            most_in_a_round = most_in_a_round.max(twin.requests() - before);
            assert_eq!(r.driver.requests(), twin.requests(), "round {round}");
            round += 1;
        }
        assert!(most_in_a_round > 1, "the trace never asks twice in a round");
        assert!(jobs.is_empty(), "a browned-out VC injected {jobs:?}");
        assert_eq!(counters, injected, "no counter may move");
        assert_eq!(r.loss_fraction().to_bits(), twin.loss_fraction().to_bits());
    }

    #[test]
    fn brownout_hold_timer_lapses_into_probing() {
        let mut cfg = quiet_cfg();
        cfg.backoff_base = 1;
        cfg.backoff_jitter = 0;
        cfg.brownout_hold_supersteps = 16;
        let topo = cfg.topology();
        let active = ActiveFaults::default();
        let mut counters = Counts::default();
        let mut r = VcRunner::new(&cfg, 51);
        let mut jobs = Vec::new();
        let mut round = 0u64;
        let mut now = 0u64;
        while jobs.is_empty() {
            r.begin_round(&cfg, &topo, &active, None, false, now, &mut counters);
            emit_round(
                &mut r,
                &cfg,
                &topo,
                &active,
                round,
                now,
                &mut jobs,
                &mut counters,
            );
            round += 1;
            now += 8;
        }
        r.begin_round(
            &cfg,
            &topo,
            &active,
            Some(Outcome::Shed),
            false,
            now,
            &mut counters,
        );
        assert!(r.in_brownout());
        // The timer lapses: the VC resumes renegotiating without a grant,
        // and the lapse is not counted as a pressure-cleared exit.
        r.begin_round(&cfg, &topo, &active, None, false, now + 17, &mut counters);
        assert!(!r.in_brownout());
        assert_eq!(counters.brownout_exits, 0);
    }

    #[test]
    fn storm_rounds_widen_the_slot_window_deterministically() {
        let mut cfg = quiet_cfg();
        cfg.storm = Some(crate::config::StormSpec {
            at_round: 2,
            rounds: 2,
            burst: 3,
        });
        cfg.validate();
        let spr = cfg.slots_per_round as u64;
        assert_eq!(cfg.slots_in_round(0), cfg.slots_per_round);
        assert_eq!(cfg.slots_in_round(2), cfg.slots_per_round * 3);
        assert_eq!(cfg.slots_in_round(3), cfg.slots_per_round * 3);
        assert_eq!(cfg.slots_in_round(4), cfg.slots_per_round);
        // slot_base is the running sum of slots_in_round.
        let mut acc = 0u64;
        for round in 0..8 {
            assert_eq!(cfg.slot_base(round), acc, "round {round}");
            acc += cfg.slots_in_round(round) as u64;
        }
        // And without a storm it reduces to the legacy layout bit for bit.
        cfg.storm = None;
        for round in 0..8 {
            assert_eq!(cfg.slot_base(round), round * spr);
        }
    }

    #[test]
    fn resync_cadence() {
        let mut cfg = quiet_cfg();
        cfg.resync_interval = 2;
        let mut counters = Counts::default();
        let mut r = VcRunner::new(&cfg, 1);
        let jobs = drive(&mut r, &cfg, 400, Some(Outcome::Granted), &mut counters);
        let resyncs = jobs
            .iter()
            .filter(|j| matches!(j.kind, JobKind::Resync { .. }))
            .count();
        assert!(resyncs > 0, "no resync cells emitted");
        // Every second request is a resync (no retries here: all granted).
        assert_eq!(resyncs, jobs.len() / 2);
    }
}
