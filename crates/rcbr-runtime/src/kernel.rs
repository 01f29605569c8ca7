//! The superstep kernel: one shard's state, one method per phase.
//!
//! A [`ShardState`] owns the switches `h` with `h % shards == shard` and
//! the load generators of the VCs `v` with `v % shards == shard`. The two
//! drivers differ only in how many of them exist and how a job batch gets
//! from one's outbox to another's inbox: [`run`](crate::run) steps one per
//! worker thread over `mpsc` channels and a `Barrier`,
//! [`run_sequential`](crate::run_sequential) steps a single `(0, 1)` shard
//! that owns everything and swaps its outbox back in as its inbox. Every
//! sweep, sort, shed plan, hop advance and report reduction is here, once.
//!
//! Public (and hidden from the docs) for one outside caller: the
//! `per_hop` bench, which feeds a shard batches of its own making.

use std::sync::Mutex;

use rcbr_net::{ActiveFaults, FaultPlane, ShedKey, SignalingQueue, Switch, Topology};
use rcbr_schedule::LANES;
use rcbr_sim::Histogram;

use crate::admission::{reduce_admission, SwitchAdmission};
use crate::audit::{audit_shard, finalize, reduce_source_loss};
use crate::config::RuntimeConfig;
use crate::core::{
    advance_job, shed_job, BeliefCell, Counters, DrainSnapshot, Hop, HopCtx, Job, JobKind, Tally,
    VerdictCell,
};
use crate::gen::VcRunner;
use crate::report::{
    latency_histogram, summarize_latency, RttStats, RunReport, ShardReport, VcOutcome,
};

/// What every shard of one run reads (and, through the atomics and
/// mutexes, writes): built once by the driver, borrowed by each
/// [`ShardState`].
pub struct Shared<'a> {
    pub(crate) cfg: &'a RuntimeConfig,
    pub(crate) plane: FaultPlane,
    pub(crate) topo: Topology,
    /// Folded into by every shard before a barrier, read after it.
    pub(crate) counters: Counters,
    /// Per-VC verdict cells: the pipeline stores a verdict, the VC's
    /// owner shard takes it at the next round top.
    pub(crate) verdicts: Vec<VerdictCell>,
    /// Each VC's believed end-to-end rate, published by its owner shard
    /// every round for the auditor.
    pub(crate) believed: Vec<BeliefCell>,
    /// Each VC's published route, for the auditor's off-route skip. Only
    /// the owner shard writes (at a round top, and only when the route
    /// moved); other shards read on audit rounds, after the injection
    /// hand-off.
    pub(crate) routes: Vec<Mutex<Vec<u16>>>,
}

impl<'a> Shared<'a> {
    /// Validate `cfg` and build the run's shared state.
    pub fn new(cfg: &'a RuntimeConfig) -> Self {
        cfg.validate();
        Self {
            cfg,
            plane: FaultPlane::new(cfg.fault.clone()),
            topo: cfg.topology(),
            counters: Counters::default(),
            verdicts: (0..cfg.num_vcs).map(|_| VerdictCell::default()).collect(),
            believed: (0..cfg.num_vcs)
                .map(|_| BeliefCell::new(cfg.initial_rate))
                .collect(),
            routes: (0..cfg.num_vcs as u32)
                .map(|vci| Mutex::new(cfg.path_of(vci).iter().map(|&h| h as u16).collect()))
                .collect(),
        }
    }
}

/// One shard of the signaling plane. Local index `li` is global switch
/// `shard + li * shards`.
pub struct ShardState<'a> {
    sh: &'a Shared<'a>,
    shard: usize,
    shards: usize,
    switches: Vec<Switch>,
    /// Per-switch admission state, parallel to `switches`.
    admission: Vec<SwitchAdmission>,
    /// Per-switch bounded signaling queues (budget 0 = unbounded). Queue
    /// state evolves from the shard-invariant meeting sets, so it is
    /// identical at every shard count.
    queues: Vec<SignalingQueue>,
    runners: Vec<VcRunner>,
    /// Fault-delayed cells and spawned ghosts, keyed by release superstep.
    /// Both stay at their current hop, so they never cross shards.
    delayed: Vec<(u64, Job)>,
    /// Cells held because their switch is stalled; retried every superstep.
    held: Vec<Job>,
    /// Crash-restart wipes already applied, per local switch.
    wiped: Vec<bool>,
    /// The fault plane's scheduled outages at `superstep`.
    active: ActiveFaults,
    /// Per local switch, this superstep's shed-eligible meeting set, then
    /// — ranked by its queue — the keys to shed. Unused without a budget.
    shed_sets: Vec<Vec<ShedKey>>,
    /// Every count since the last fold into `sh.counters`.
    tally: Tally,
    latency: Histogram,
    moments: RttStats,
    report: ShardReport,
    rounds: u64,
    /// The global logical clock: +1 per superstep, in lockstep across
    /// shards.
    superstep: u64,
    staging: Vec<Job>,
    /// Follow-up jobs by destination shard, filled by the round top and
    /// by every superstep; the driver empties it.
    outbox: Vec<Vec<Job>>,
}

impl<'a> ShardState<'a> {
    /// Set up shard `shard` of `shards`: its switches with every VC's base
    /// rate reserved on each local hop, in ascending VCI order per switch
    /// (so per-port float accumulation is partition-independent), then its
    /// VCs' load generators. `None` when that initial admission does not
    /// fit — found before the (expensive) generators are built.
    pub fn new(sh: &'a Shared<'a>, shard: usize, shards: usize) -> Option<Self> {
        let cfg = sh.cfg;
        let mut switches: Vec<Switch> = (shard..cfg.num_switches)
            .step_by(shards)
            .map(|_| Switch::new(&[cfg.port_capacity]))
            .collect();
        for vci in 0..cfg.num_vcs as u32 {
            for &h in &cfg.path_of(vci) {
                if h % shards == shard
                    && !switches[h / shards]
                        .setup(vci, 0, cfg.initial_rate)
                        .expect("fresh VCI")
                {
                    return None;
                }
            }
        }
        let mut active = ActiveFaults::default();
        sh.plane.active_at(0, &mut active);
        Some(Self {
            sh,
            shard,
            shards,
            active,
            shed_sets: vec![Vec::new(); switches.len()],
            tally: Tally::default(),
            admission: switches.iter().map(|_| SwitchAdmission::new(cfg)).collect(),
            queues: switches
                .iter()
                .map(|_| SignalingQueue::new(cfg.signaling_budget_per_round))
                .collect(),
            runners: (shard as u32..cfg.num_vcs as u32)
                .step_by(shards)
                .map(|v| VcRunner::new(cfg, v))
                .collect(),
            delayed: Vec::new(),
            held: Vec::new(),
            wiped: vec![false; switches.len()],
            switches,
            latency: latency_histogram(cfg),
            moments: RttStats::new(),
            report: ShardReport {
                shard,
                processed: 0,
                injected: 0,
                max_batch: 0,
            },
            rounds: 0,
            superstep: 0,
            staging: Vec::new(),
            outbox: (0..shards).map(|_| Vec::new()).collect(),
        })
    }

    /// The quiescent top of round `round`, everything up to the hand-off:
    /// the lease and admission sweep over the local switches, verdict
    /// delivery to the local VCs (phase A, publishing their beliefs), and
    /// this round's attempts (phase B: control traffic, the traffic slots
    /// through the source round kernel, teardowns) into the outbox. The
    /// only place phase-locked state moves mid-run (`phase-discipline` in
    /// lint.toml).
    pub fn round_top(&mut self, round: u64) {
        let sh = self.sh;
        let cfg = sh.cfg;
        let counts = &mut self.tally.counts;
        let now = self.superstep;
        self.rounds = round + 1;
        debug_assert!(
            {
                let mut fresh = ActiveFaults::default();
                sh.plane.active_at(now, &mut fresh);
                fresh == self.active
            },
            "the outages held at a round top are the clock's"
        );
        // The pipeline is quiescent, so every sweep observes a settled
        // switch. Down switches skip theirs — their soft state is
        // mid-crash and wiped on restart anyway.
        for (li, sw) in self.switches.iter_mut().enumerate() {
            if self.active.switch_down(self.shard + li * self.shards) {
                continue;
            }
            // Lease sweep: reclaim expired reservations.
            if cfg.lease_supersteps > 0 {
                counts.leases_expired += sw.expire_leases(now, cfg.lease_supersteps);
            }
            // Admission sweep. Sampling runs under every policy (the
            // frontier sweep needs the PeakRate baseline's utilization);
            // rolls only when a measurement-based policy is live and the
            // schedule is due.
            let sa = &mut self.admission[li];
            sa.sample(sw);
            if cfg.admission.measures() && now >= sa.next_roll_at {
                sa.roll(cfg, now, sw);
            }
        }
        // Pressure accounting: one count per (round, local switch) still
        // advertising overload pressure at the round top.
        if cfg.signaling_budget_per_round > 0 {
            let pressured = self.queues.iter().filter(|q| q.under_pressure(now));
            counts.pressure_rounds += pressured.count() as u64;
        }
        // Phase A: deliver last round's verdicts (grant / deny / timeout),
        // check routes against the outages in force, and publish believed
        // rates and routes for the auditor.
        for runner in &mut self.runners {
            let vci = runner.vci() as usize;
            let (outcome, pressured) = sh.verdicts[vci].snapshot_take();
            runner.begin_round(cfg, &sh.topo, &self.active, outcome, pressured, now, counts);
            sh.believed[vci].publish(runner.believed_rate());
            runner.publish_route(&sh.routes[vci]);
        }
        // Phase B: generate this round's attempts, in three parts — control
        // traffic (a due reroute walk, a due retry), then the traffic
        // slots of the Settled VCs, `LANES` abreast, then the teardown
        // walks queued since the last round top. The order jobs enter
        // `staging` in is unobservable: every superstep sorts its batch by
        // a total order.
        let out = &mut self.staging;
        for runner in &mut self.runners {
            runner.emit_control(cfg, &sh.topo, &self.active, round, now, out, counts);
        }
        let mut settled = self.runners.iter_mut().filter(|r| r.steps_slots());
        loop {
            let group: [Option<&mut VcRunner>; LANES] = std::array::from_fn(|_| settled.next());
            if group[0].is_none() {
                break;
            }
            VcRunner::step_slots(group, cfg, round, now, out);
        }
        for runner in &mut self.runners {
            runner.emit_tears(cfg, round, out);
        }
        let injected = self.staging.len() as u64;
        counts.injected += injected;
        self.tally.in_flight += injected as i64;
        self.report.injected += injected;
        for job in self.staging.drain(..) {
            match job.kind {
                JobKind::Resync { .. } => counts.resyncs += 1,
                JobKind::Reroute { .. } => counts.reroutes += 1,
                JobKind::Teardown => counts.teardown_cells += 1,
                _ => {}
            }
            self.outbox[job.route.hop(0) % self.shards].push(job);
        }
        sh.counters.fold(&mut self.tally);
    }

    /// On audit rounds, audit the local switches against the published
    /// beliefs. Call after the injection hand-off: by then every shard's
    /// round top has published, nobody writes a belief or a route before
    /// the next round top, and the local switches stay untouched until
    /// this shard's own next [`advance_superstep`](Self::advance_superstep).
    ///
    /// What it counts stays in the shard's tally until the next fold: no
    /// read window looks at an audit counter before the run's end.
    pub fn audit_if_due(&mut self, round: u64) {
        let every = self.sh.cfg.audit_interval;
        if every > 0 && round > 0 && round.is_multiple_of(every) {
            let (shard, shards) = (self.shard, self.shards);
            let counts = &mut self.tally.counts;
            audit_shard(self.sh, &self.switches, shard, shards, &self.active, counts);
        }
    }

    /// The per-destination-shard batches awaiting hand-off.
    pub fn outbox(&mut self) -> &mut [Vec<Job>] {
        &mut self.outbox
    }

    /// Open a superstep: tick the clock, add the due fault-delayed cells
    /// and every stall-held cell to `jobs` (what the driver took from the
    /// inbox), and snapshot the drain decision.
    ///
    /// This is `snapshot_drain`'s safe read window: every shard is
    /// collecting right now, and the driver's barrier after this call
    /// makes sure everyone has read before anyone can write again. Delayed
    /// and held cells keep `in_flight` nonzero, so rounds only end once
    /// every fault-induced straggler has resolved.
    pub fn open_superstep(&mut self, jobs: &mut Vec<Job>) -> DrainSnapshot {
        self.superstep += 1;
        self.sh.plane.active_at(self.superstep, &mut self.active);
        let mut i = 0;
        while i < self.delayed.len() {
            if self.delayed[i].0 <= self.superstep {
                jobs.push(self.delayed.swap_remove(i).1);
            } else {
                i += 1;
            }
        }
        jobs.append(&mut self.held);
        self.report.max_batch = self.report.max_batch.max(jobs.len() as u64);
        self.sh.counters.snapshot_drain()
    }

    /// Advance every job in `jobs` one hop at the local switches, leaving
    /// `jobs` empty and the follow-ups in the outbox.
    pub fn advance_superstep(&mut self, jobs: &mut Vec<Job>) {
        let sh = self.sh;
        let (cfg, plane) = (sh.cfg, &sh.plane);
        let (shards, superstep) = (self.shards, self.superstep);
        let budget = cfg.signaling_budget_per_round;
        let measuring = cfg.admission.measures();
        // Crash restarts due by this superstep wipe soft state — the
        // admission measurements with it (the EB cache survives).
        for &h in self.active.restarted() {
            let li = h / shards;
            if h % shards == self.shard && self.wiped.get(li) == Some(&false) {
                self.switches[li].wipe_soft_state();
                self.admission[li].wipe_measurements();
                self.wiped[li] = true;
            }
        }
        jobs.sort_unstable_by_key(Job::order_key);
        // Signaling-queue admission: with a budget configured, each
        // switch serves at most `budget` renegotiation cells this
        // superstep; overflow is chosen by the pure (class, seq, salt)
        // order over the switch's whole meeting set — never by arrival
        // order — so the plan is identical at every shard count.
        // Stall-held cells never meet the switch, and rollback / reroute /
        // teardown walks are exempt: undo and repair traffic must not be
        // shed.
        let sheddable = |job: &Job| matches!(job.kind, JobKind::Delta(_) | JobKind::Resync { .. });
        if budget > 0 {
            self.shed_sets.iter_mut().for_each(Vec::clear);
            for job in jobs.iter() {
                let h = job.route.hop(job.hop);
                if sheddable(job) && !plane.stalled(h, superstep) {
                    self.shed_sets[h / shards].push(ShedKey {
                        class: job.class,
                        seq: job.seq,
                        salt: job.salt,
                    });
                }
            }
            for (keys, queue) in self.shed_sets.iter_mut().zip(&mut self.queues) {
                let set = std::mem::take(keys);
                *keys = queue.admit_superstep(set, superstep, cfg.pressure_hold_supersteps);
            }
        }
        let mut ctx = HopCtx {
            sh,
            active: &self.active,
            superstep,
            tally: &mut self.tally,
            latency: &mut self.latency,
            moments: &mut self.moments,
        };
        for job in jobs.iter_mut() {
            let h = job.route.hop(job.hop);
            if plane.stalled(h, superstep) {
                // The switch is stalled: hold the cell, retry next
                // superstep (pure latency, no loss).
                self.held.push(*job);
                continue;
            }
            let li = h / shards;
            self.report.processed += 1;
            if budget > 0 && sheddable(job) {
                let shed = &self.shed_sets[li];
                let key = (job.seq, job.salt);
                if shed.binary_search_by_key(&key, |k| (k.seq, k.salt)).is_ok() {
                    shed_job(job, &mut ctx);
                    continue;
                }
            }
            let adm = measuring.then(|| &mut self.admission[li]);
            let under_pressure = budget > 0 && self.queues[li].under_pressure(superstep);
            let sw = &mut self.switches[li];
            let (hop, ghost) = advance_job(job, sw, h, adm, under_pressure, &mut ctx);
            match hop {
                Hop::Done => {}
                Hop::Forward => self.outbox[job.route.hop(job.hop) % shards].push(*job),
                Hop::Hold(until) => self.delayed.push((until, *job)),
            }
            if let Some(ghost) = ghost {
                self.delayed.push((superstep + 1, ghost));
            }
        }
        jobs.clear();
        sh.counters.fold(&mut self.tally);
    }
}

/// Undo a strided partition: element `i` of the whole is element `i / n`
/// of part `i % n`. Puts switches (and VCs) back in ascending global
/// order, so the report's float reductions are shard-invariant.
fn interleave<T>(parts: impl Iterator<Item = Vec<T>>) -> Vec<T> {
    let mut parts: Vec<_> = parts.map(Vec::into_iter).collect();
    let (n, mut whole) = (parts.len(), Vec::new());
    while let Some(next) = parts[whole.len() % n].next() {
        whole.push(next);
    }
    debug_assert!(
        parts.iter().all(|p| p.len() == 0),
        "not a strided partition"
    );
    whole
}

/// Reduce the finished shards (one per shard, any order) to the run's
/// report, running the end-of-run audit on the way. `wall` is the
/// pipeline's wall-clock time, the audit excluded.
pub(crate) fn assemble_report(
    sh: &Shared<'_>,
    mut results: Vec<ShardState<'_>>,
    wall: f64,
) -> RunReport {
    let cfg = sh.cfg;
    results.sort_by_key(|r| r.report.shard);
    for r in &mut results {
        // What the last audit counted, if no superstep followed it.
        sh.counters.fold(&mut r.tally);
    }
    let (rounds, superstep) = (results[0].rounds, results[0].superstep);
    let mut latency = latency_histogram(cfg);
    let mut moments = RttStats::new();
    for r in &results {
        debug_assert_eq!(r.rounds, rounds, "shards disagree on round count");
        debug_assert_eq!(r.superstep, superstep, "shards disagree on the clock");
        latency.merge(&r.latency);
        moments.merge(&r.moments);
    }
    let shard_reports: Vec<ShardReport> = results.iter().map(|r| r.report).collect();
    let mut switches = interleave(results.iter_mut().map(|r| std::mem::take(&mut r.switches)));
    let admission = interleave(results.iter_mut().map(|r| std::mem::take(&mut r.admission)));
    let runners = interleave(results.into_iter().map(|r| r.runners));

    let (audit, finals) = finalize(sh, &mut switches, runners, superstep);
    let (mean_source_loss, max_source_loss) = reduce_source_loss(&finals, cfg.num_vcs);
    let counters = sh.counters.snapshot();
    debug_assert_eq!(counters.completed, counters.accepted + counters.exhausted);
    RunReport {
        num_shards: shard_reports.len(),
        num_vcs: cfg.num_vcs,
        num_switches: cfg.num_switches,
        hops_per_vc: cfg.hops_per_vc,
        rounds,
        supersteps: superstep,
        wall_seconds: wall,
        throughput_per_sec: if wall > 0.0 {
            counters.completed as f64 / wall
        } else {
            0.0
        },
        counters,
        audit,
        admission: reduce_admission(cfg.admission, &counters, &admission),
        degraded_vcs: finals.iter().filter(|f| f.degraded).count() as u64,
        unsettled_vcs: finals.iter().filter(|f| f.unsettled).count() as u64,
        brownout_vcs: finals.iter().filter(|f| f.brownout).count() as u64,
        mean_source_loss,
        max_source_loss,
        vcs: finals
            .into_iter()
            .map(|f| VcOutcome {
                vci: f.vci,
                believed: f.believed,
                degraded: f.degraded,
                loss: f.loss,
                route: f.route,
            })
            .collect(),
        latency: summarize_latency(&latency, &moments, cfg.hop_latency),
        shards: shard_reports,
    }
}
