//! The hop-by-hop job state machine the superstep kernel steps.
//!
//! A renegotiation request is a [`Job`] that visits its path's switches
//! one hop per superstep. All visible effects of one hop — fault
//! decisions, reservation updates, counter increments, outcome delivery,
//! latency recording — live in [`advance_job`]; *where* switches live and
//! *how* jobs travel between hops is the drivers' business.
//!
//! ## Faults at a hop
//!
//! Before a cell is processed at a hop, the [`FaultPlane`] decides its
//! fate — a pure function of `(seed, seq, hop, salt)`, so every shard
//! count and the sequential replay agree. Dropped, corrupted, and
//! crash-killed cells die *without a verdict*: the source's retry state
//! machine (in the load generator) times the request out. Delayed cells
//! stay in flight and are re-presented `1..=max_delay` supersteps later,
//! already `cleared` so the fate is not re-decided. Duplicated cells spawn
//! a ghost (`salt = 1`) that re-traverses the path from the current hop
//! one superstep later, double-applying the cell's effect — the
//! over-reservation drift that absolute resync repairs. Ghosts mutate
//! switch state but never touch request-level counters or report a
//! verdict; a denied ghost unwinds only the hops the ghost itself
//! touched (its `origin` floor).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use rcbr_net::{
    FaultAction, FaultPlane, PriorityClass, RateField, RmCell, Switch, SALT_GHOST, SALT_PRIMARY,
};
use rcbr_sim::Histogram;
use serde::{Deserialize, Serialize};

use crate::admission::SwitchAdmission;
use crate::config::RuntimeConfig;

/// Longest route a job can carry inline, in switches.
pub const MAX_ROUTE: usize = 16;

/// A route carried *inside* every [`Job`], so resolving a hop to a switch
/// never consults shared routing state mid-drain. Routes only change at
/// round boundaries (the pipeline is quiescent at phase A), so a job's
/// inline copy can never be stale — and two drivers stepping the same
/// job necessarily walk the same switches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Route {
    len: u8,
    hops: [u16; MAX_ROUTE],
}

impl Route {
    /// Pack a switch-index route.
    ///
    /// # Panics
    /// Panics on an empty route, more than [`MAX_ROUTE`] hops, or a
    /// switch index that does not fit `u16`.
    pub fn from_slice(hops: &[usize]) -> Self {
        assert!(
            !hops.is_empty() && hops.len() <= MAX_ROUTE,
            "route must have 1..={MAX_ROUTE} hops"
        );
        let mut packed = [0u16; MAX_ROUTE];
        for (i, &h) in hops.iter().enumerate() {
            packed[i] = u16::try_from(h).expect("switch index fits u16");
        }
        Self {
            len: hops.len() as u8,
            hops: packed,
        }
    }

    /// The switch at hop `i`.
    pub fn hop(&self, i: usize) -> usize {
        assert!(i < self.len(), "hop index out of route");
        self.hops[i] as usize
    }

    /// Hops in the route.
    #[allow(clippy::len_without_is_empty)] // routes are never empty
    pub fn len(&self) -> usize {
        self.len as usize
    }
}

/// What kind of RM cell a job carries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum JobKind {
    /// Fast path: a signed rate change.
    Delta(f64),
    /// Slow path: absolute-rate resync. `expected_prior` is the rate the
    /// source believes every hop currently holds; a hop holding anything
    /// else has drifted (a lost delta upstream) and gets repaired here.
    Resync {
        /// The absolute rate being installed.
        rate: f64,
        /// The source's belief of the current end-to-end reservation.
        expected_prior: f64,
    },
    /// A denial is unwinding previously granted hops, one per superstep.
    Rollback(f64),
    /// Establish the VC on the job's route at an absolute rate: each hop
    /// installs a routing entry if it has none, then reserves. The
    /// make-before-break walk of the reroute engine — idempotent, so a
    /// retry (or a duplicate ghost) re-walking the route is harmless.
    Reroute {
        /// The absolute rate to reserve on every hop of the new route.
        rate: f64,
    },
    /// Remove the VC from each switch on the job's route: release its
    /// reservation and drop its routing entry. Fire-and-forget control
    /// traffic — no verdict — and modeled as reliable (exempt from the
    /// fault plane): teardown correctness is additionally backstopped by
    /// lease expiry, and the end-of-run audit asserts nothing survives.
    Teardown,
}

/// One in-flight signaling operation.
#[derive(Debug, Clone, Copy)]
pub struct Job {
    /// Global sequence number: `slot * num_vcs + vci`. Unique per request,
    /// and the head of [`order_key`](Self::order_key), the total order
    /// switches process concurrent cells in — regardless of how switches
    /// are partitioned into shards.
    pub seq: u64,
    /// The VC being renegotiated.
    pub vci: u32,
    /// Index into the VC's path (for [`JobKind::Rollback`] it walks
    /// backwards).
    pub hop: usize,
    /// The cell being carried.
    pub kind: JobKind,
    /// `0` for the original cell, `1` for a fault-plane duplicate ghost.
    /// Second in the order key, and ghosts skip all request-level
    /// bookkeeping.
    pub salt: u8,
    /// The hop this job entered the pipeline at — the floor a rollback
    /// unwinds down to. `0` for originals; a ghost's spawn hop. Last in
    /// the order key: it is all that tells twin ghosts apart.
    pub origin: u8,
    /// The fault plane already ruled on this hop visit (set on delayed
    /// cells when they are re-presented, so the fate is decided once).
    pub cleared: bool,
    /// The VC's priority class — part of the deterministic shed order when
    /// a switch's signaling queue overflows (Gold sheds last).
    pub class: PriorityClass,
    /// Some hop this job visited was advertising overload pressure; the
    /// flag rides the cell back to the source (wire flags bit 1).
    pub pressured: bool,
    /// The switch route this job walks (`hop` indexes into it).
    pub route: Route,
}

impl Job {
    /// The key the kernel sorts a superstep's batch by. `(seq, salt)` alone
    /// is not a total order: a primary can be duplicated at two different
    /// hops, and the two ghosts — same `seq`, both `SALT_GHOST` — can meet
    /// at one switch in one superstep (the ghost spawned at hop 0 reaches
    /// hop 2 at `t + 3`; the primary, duplicated again at hop 2 at `t + 2`,
    /// releases its second ghost there at `t + 3`). They differ in
    /// `origin`, hence in how far a denial unwinds, and an unstable sort
    /// orders equal keys by what else is in the batch — by the partition.
    pub(crate) fn order_key(&self) -> (u64, u8, u8) {
        (self.seq, self.salt, self.origin)
    }
}

/// Terminal verdict of a signaling attempt, reported back to the source.
/// A killed cell (dropped, corrupted, crash-killed) produces *no* verdict;
/// the source times out and retries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Every hop granted.
    Granted,
    /// Some hop denied (already-granted hops are rolled back for deltas;
    /// resyncs keep their partial progress).
    Denied,
    /// A hop's signaling queue was over budget and dropped the cell before
    /// processing it. Unlike a denial this is not a capacity verdict — the
    /// request is retryable after backoff — and unlike a fault-plane drop
    /// the source is told immediately (the shed notification models the
    /// switch's local push-back).
    Shed,
}

/// Per-VCI slow-path state, guarded by a mutex: the pipeline's completion
/// side writes the outcome here and the load generator consumes it at the
/// next round boundary.
#[derive(Debug, Default)]
pub struct VciSlot {
    /// The fate of the VC's outstanding attempt, if it completed.
    pub outcome: Option<Outcome>,
    /// The attempt's response carried a hop's overload-pressure flag
    /// (wire flags bit 1). Consumed alongside `outcome` at the round
    /// boundary; keeps browned-out BestEffort VCs from renegotiating
    /// until a response comes back clean.
    pub pressure: bool,
}

/// Shared atomic counters. All increments use relaxed ordering — the
/// engine's barriers provide the synchronization; the atomics only make
/// the increments themselves race-free.
///
/// Request-level counters (`accepted`, `denied`, `rollbacks`,
/// `rolled_back_hops`, `resync_repairs`, `completed`, and the retry
/// family) describe salt-0 attempts only; the cell-level fault counters
/// (`cells_*`, `crash_killed`) count ghosts too.
#[derive(Debug, Default)]
pub struct Counters {
    /// Signaling attempts injected into the pipeline (initial + retries).
    pub injected: AtomicU64,
    /// Requests granted at every hop.
    pub accepted: AtomicU64,
    /// Attempts denied at some hop.
    pub denied: AtomicU64,
    /// Denied attempts that had upstream reservations to unwind.
    pub rollbacks: AtomicU64,
    /// Individual hop reservations unwound by rollback.
    pub rolled_back_hops: AtomicU64,
    /// Absolute-rate resync cells injected (periodic + retries).
    pub resyncs: AtomicU64,
    /// Hops whose reservation disagreed with the source's belief when a
    /// resync cell arrived — i.e. drift actually repaired.
    pub resync_repairs: AtomicU64,
    /// Requests that reached a terminal fate (granted or abandoned after
    /// retry exhaustion): `completed == accepted + exhausted`.
    pub completed: AtomicU64,
    /// Cells dropped by the fault plane.
    pub cells_dropped: AtomicU64,
    /// Cells delayed by the fault plane.
    pub cells_delayed: AtomicU64,
    /// Ghost duplicates spawned by the fault plane.
    pub cells_duplicated: AtomicU64,
    /// Cells bit-corrupted by the fault plane (caught by the checksum and
    /// discarded).
    pub cells_corrupted: AtomicU64,
    /// Cells that arrived at a crashed (down) switch.
    pub crash_killed: AtomicU64,
    /// Attempts that timed out waiting for a verdict.
    pub timeouts: AtomicU64,
    /// Retry attempts injected after a timeout or denial.
    pub retries: AtomicU64,
    /// Requests abandoned after exhausting the retry budget.
    pub exhausted: AtomicU64,
    /// VCs that newly entered the degraded state (kept a stale rate).
    pub degraded_events: AtomicU64,
    /// Cells killed in flight crossing a down link.
    pub cells_link_killed: AtomicU64,
    /// Per-hop reservations reclaimed use-it-or-lose-it because no RM
    /// cell refreshed the lease in time.
    pub leases_expired: AtomicU64,
    /// Reroute attempts injected (initial + retries).
    pub reroutes: AtomicU64,
    /// Reroutes granted end to end (the VC committed to the new route).
    pub reroutes_committed: AtomicU64,
    /// Reroute attempts denied at some hop (capacity on the new route).
    pub reroutes_denied: AtomicU64,
    /// Teardown walks injected (route switches, stale-hop cleanup, and
    /// break-before-make compensation).
    pub teardown_cells: AtomicU64,
    /// Individual switch entries removed by teardown walks.
    pub teardown_hops: AtomicU64,
    /// VCs that ran out of live routes and released everything (stranded).
    pub stranded_events: AtomicU64,
    /// Stranded VCs that later re-established service on a revived route.
    pub unstranded_events: AtomicU64,
    /// Periodic invariant audits executed.
    pub audit_runs: AtomicU64,
    /// (switch, VC) reservation pairs the periodic auditor found drifted
    /// from the source's believed rate.
    pub audit_drift: AtomicU64,
    /// Per-hop booking checks that admitted an RM cell (delta, resync, or
    /// reroute; ghosts included — every cell that reaches a port faces the
    /// admission test).
    pub admission_grants: AtomicU64,
    /// Per-hop booking checks that denied an RM cell. These are admission
    /// losses, as distinct from the fault plane's `cells_*` destruction.
    pub admission_denials: AtomicU64,
    /// Cells shed by over-budget signaling queues (ghosts included):
    /// `cells_shed == sheds_gold + sheds_silver + sheds_best_effort`.
    pub cells_shed: AtomicU64,
    /// Shed cells whose VC is Gold class.
    pub sheds_gold: AtomicU64,
    /// Shed cells whose VC is Silver class.
    pub sheds_silver: AtomicU64,
    /// Shed cells whose VC is BestEffort class.
    pub sheds_best_effort: AtomicU64,
    /// BestEffort VCs that entered brownout (held their granted rate and
    /// stopped renegotiating under pressure).
    pub brownout_entries: AtomicU64,
    /// Brownouts that ended on a clean (pressure-free) grant, as opposed
    /// to the hold timer lapsing.
    pub brownout_exits: AtomicU64,
    /// (round, switch) pairs where the switch was still advertising
    /// overload pressure at the round top.
    pub pressure_rounds: AtomicU64,
    /// Jobs currently in the pipeline (including rollbacks still
    /// unwinding, delayed cells, and ghosts).
    pub in_flight: AtomicU64,
}

/// A point-in-time copy of [`Counters`], comparable and serializable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CounterSnapshot {
    /// Signaling attempts injected into the pipeline (initial + retries).
    pub injected: u64,
    /// Requests granted at every hop.
    pub accepted: u64,
    /// Attempts denied at some hop.
    pub denied: u64,
    /// Denied attempts that required rollback.
    pub rollbacks: u64,
    /// Individual hop reservations unwound.
    pub rolled_back_hops: u64,
    /// Resync cells injected.
    pub resyncs: u64,
    /// Drifted hops repaired by resync.
    pub resync_repairs: u64,
    /// Requests that reached a terminal fate (`accepted + exhausted`).
    pub completed: u64,
    /// Cells dropped by the fault plane.
    pub cells_dropped: u64,
    /// Cells delayed by the fault plane.
    pub cells_delayed: u64,
    /// Ghost duplicates spawned.
    pub cells_duplicated: u64,
    /// Cells bit-corrupted (detected and discarded).
    pub cells_corrupted: u64,
    /// Cells killed at a crashed switch.
    pub crash_killed: u64,
    /// Attempts that timed out.
    pub timeouts: u64,
    /// Retry attempts injected.
    pub retries: u64,
    /// Requests abandoned after retry exhaustion.
    pub exhausted: u64,
    /// VCs that newly degraded.
    pub degraded_events: u64,
    /// Cells killed crossing a down link.
    pub cells_link_killed: u64,
    /// Hop reservations reclaimed by lease expiry.
    pub leases_expired: u64,
    /// Reroute attempts injected.
    pub reroutes: u64,
    /// Reroutes committed end to end.
    pub reroutes_committed: u64,
    /// Reroute attempts denied at some hop.
    pub reroutes_denied: u64,
    /// Teardown walks injected.
    pub teardown_cells: u64,
    /// Switch entries removed by teardown walks.
    pub teardown_hops: u64,
    /// VCs stranded with no live route.
    pub stranded_events: u64,
    /// Stranded VCs that recovered onto a revived route.
    pub unstranded_events: u64,
    /// Periodic audits executed.
    pub audit_runs: u64,
    /// Drifted reservation pairs detected by periodic audits.
    pub audit_drift: u64,
    /// Per-hop booking checks that admitted an RM cell.
    pub admission_grants: u64,
    /// Per-hop booking checks that denied an RM cell.
    pub admission_denials: u64,
    /// Cells shed by over-budget signaling queues (sum of the per-class
    /// counters below).
    pub cells_shed: u64,
    /// Shed cells whose VC is Gold class.
    pub sheds_gold: u64,
    /// Shed cells whose VC is Silver class.
    pub sheds_silver: u64,
    /// Shed cells whose VC is BestEffort class.
    pub sheds_best_effort: u64,
    /// BestEffort VCs that entered brownout.
    pub brownout_entries: u64,
    /// Brownouts that ended on a clean grant.
    pub brownout_exits: u64,
    /// (round, switch) pairs still under pressure at the round top.
    pub pressure_rounds: u64,
}

/// The pair of reads that decides a drain loop's fate, taken together in
/// the safe window between barriers.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DrainSnapshot {
    /// No job is in the pipeline: the round can end.
    pub quiescent: bool,
    /// Completed-request total as of the same instant, so every shard
    /// takes the same stop-run branch.
    pub completed: u64,
}

impl Counters {
    /// Snapshot the drain-loop decision state. Must be called in a window
    /// where no shard can write these counters — in the engine, after a
    /// shard drained its inbox and *before* the end-of-superstep barrier
    /// releases anyone into the next round's phases (the PR 2 deadlock:
    /// reading after that barrier races the next round's timeout writes
    /// and desynchronizes the shards' break decisions).
    pub(crate) fn snapshot_drain(&self) -> DrainSnapshot {
        DrainSnapshot {
            quiescent: self.in_flight.load(Ordering::Relaxed) == 0,
            completed: self.completed.load(Ordering::Relaxed),
        }
    }

    /// Copy the current values.
    pub fn snapshot(&self) -> CounterSnapshot {
        let ld = |a: &AtomicU64| a.load(Ordering::Relaxed);
        CounterSnapshot {
            injected: ld(&self.injected),
            accepted: ld(&self.accepted),
            denied: ld(&self.denied),
            rollbacks: ld(&self.rollbacks),
            rolled_back_hops: ld(&self.rolled_back_hops),
            resyncs: ld(&self.resyncs),
            resync_repairs: ld(&self.resync_repairs),
            completed: ld(&self.completed),
            cells_dropped: ld(&self.cells_dropped),
            cells_delayed: ld(&self.cells_delayed),
            cells_duplicated: ld(&self.cells_duplicated),
            cells_corrupted: ld(&self.cells_corrupted),
            crash_killed: ld(&self.crash_killed),
            timeouts: ld(&self.timeouts),
            retries: ld(&self.retries),
            exhausted: ld(&self.exhausted),
            degraded_events: ld(&self.degraded_events),
            cells_link_killed: ld(&self.cells_link_killed),
            leases_expired: ld(&self.leases_expired),
            reroutes: ld(&self.reroutes),
            reroutes_committed: ld(&self.reroutes_committed),
            reroutes_denied: ld(&self.reroutes_denied),
            teardown_cells: ld(&self.teardown_cells),
            teardown_hops: ld(&self.teardown_hops),
            stranded_events: ld(&self.stranded_events),
            unstranded_events: ld(&self.unstranded_events),
            audit_runs: ld(&self.audit_runs),
            audit_drift: ld(&self.audit_drift),
            admission_grants: ld(&self.admission_grants),
            admission_denials: ld(&self.admission_denials),
            cells_shed: ld(&self.cells_shed),
            sheds_gold: ld(&self.sheds_gold),
            sheds_silver: ld(&self.sheds_silver),
            sheds_best_effort: ld(&self.sheds_best_effort),
            brownout_entries: ld(&self.brownout_entries),
            brownout_exits: ld(&self.brownout_exits),
            pressure_rounds: ld(&self.pressure_rounds),
        }
    }
}

/// Where a completing job records its modeled latency.
pub(crate) struct CompletionSink<'a> {
    pub latency: &'a mut Histogram,
    pub moments: &'a mut crate::report::RttStats,
}

/// The fault plane plus the logical clock a hop is processed at.
pub(crate) struct FaultCtx<'a> {
    pub plane: &'a FaultPlane,
    pub superstep: u64,
}

/// Record a booking-check verdict: bump the admission grant/denial
/// counters and, when a measurement-based policy is live, fold the VC's
/// post-decision reservation at this switch into the estimator. Ghosts are
/// observed too — they are real cells that mutated real switch state, and
/// the estimator measures the switch, not the load generator.
fn record_admission(
    cell: &RmCell,
    vci: u32,
    sw: &Switch,
    counters: &Counters,
    adm: Option<&mut SwitchAdmission>,
) {
    if cell.denied {
        counters.admission_denials.fetch_add(1, Ordering::Relaxed);
    } else {
        counters.admission_grants.fetch_add(1, Ordering::Relaxed);
    }
    if let Some(sa) = adm {
        sa.observe(vci, sw.vci_rate(vci).unwrap_or(0.0));
    }
}

/// The RM cell a forward job would put on the wire (used to corrupt real
/// bytes and prove the checksum catches them).
fn wire_cell(job: &Job) -> RmCell {
    match job.kind {
        JobKind::Delta(d) => RmCell::delta(job.vci, d),
        JobKind::Resync { rate, .. } | JobKind::Reroute { rate } => RmCell::resync(job.vci, rate),
        JobKind::Rollback(_) | JobKind::Teardown => {
            unreachable!("rollback and teardown cells are never corrupted")
        }
    }
}

/// Drop `job` at its current hop because the switch's signaling queue is
/// over budget this superstep. The cell dies here — partial upstream
/// deltas stay applied (drift, repaired by the retry-as-resync path or the
/// audit) — and, for salt-0 attempts, the source is told immediately via
/// the retryable [`Outcome::Shed`] with the pressure flag set. Ghosts shed
/// silently but still count: `cells_shed` and the per-class counters see
/// every cell the queue refused.
pub(crate) fn shed_job(
    job: &Job,
    cfg: &RuntimeConfig,
    counters: &Counters,
    vci_states: &[Mutex<VciSlot>],
    sink: &mut CompletionSink<'_>,
) {
    counters.cells_shed.fetch_add(1, Ordering::Relaxed);
    match job.class {
        PriorityClass::Gold => &counters.sheds_gold,
        PriorityClass::Silver => &counters.sheds_silver,
        PriorityClass::BestEffort => &counters.sheds_best_effort,
    }
    .fetch_add(1, Ordering::Relaxed);
    counters.in_flight.fetch_sub(1, Ordering::Relaxed);
    if job.salt == SALT_PRIMARY {
        // The shed notification rides back from the refusing hop.
        let rtt = cfg.hop_latency * 2.0 * (job.hop + 1) as f64;
        sink.latency.record(rtt);
        sink.moments.record(job.hop + 1);
        let mut slot = vci_states[job.vci as usize].lock().expect("vci lock");
        slot.outcome = Some(Outcome::Shed);
        slot.pressure = true;
    }
}

/// Process `job` at the switch for its current hop.
///
/// Returns `(forward, delayed)`: `forward` is the follow-up job to route
/// this superstep (next hop, or the previous hop of a rollback);
/// `delayed` is a `(release_superstep, job)` pair the owner must hold —
/// either the job itself (fault-delayed) or a freshly spawned duplicate
/// ghost.
///
/// `sw` must be the switch at `job.route.hop(job.hop)` for this job, and
/// `switch_global` its global index. `adm` is the switch's admission
/// state when a measurement-based policy is live (`None` under the
/// default `PeakRate`, which keeps the legacy fast path untouched).
/// `under_pressure` is the switch's signaling queue still advertising a
/// recent shed; it stamps the job's pressure flag, which rides the
/// response back to the source.
#[allow(clippy::too_many_arguments)]
pub(crate) fn advance_job(
    job: Job,
    sw: &mut Switch,
    switch_global: usize,
    cfg: &RuntimeConfig,
    fx: &FaultCtx<'_>,
    counters: &Counters,
    vci_states: &[Mutex<VciSlot>],
    sink: &mut CompletionSink<'_>,
    adm: Option<&mut SwitchAdmission>,
    under_pressure: bool,
) -> (Option<Job>, Option<(u64, Job)>) {
    let mut job = job;
    job.pressured |= under_pressure;
    let job = job;
    let is_ghost = job.salt != SALT_PRIMARY;
    let path_len = job.route.len();
    let gone = |counters: &Counters| {
        counters.in_flight.fetch_sub(1, Ordering::Relaxed);
    };
    // A forward cell reaching hop `k` just crossed the link
    // `(route[k-1], route[k])`; if that link is down the cell died in
    // flight — no verdict, the source times out. Rollbacks are exempt
    // (like their drop-only fault treatment: an undo must not be lost to
    // the same failure it is compensating), and teardown is reliable
    // control traffic.
    if matches!(
        job.kind,
        JobKind::Delta(_) | JobKind::Resync { .. } | JobKind::Reroute { .. }
    ) && job.hop > 0
        && fx.plane.link_down(
            job.route.hop(job.hop - 1),
            job.route.hop(job.hop),
            fx.superstep,
        )
    {
        counters.cells_link_killed.fetch_add(1, Ordering::Relaxed);
        gone(counters);
        return (None, None);
    }
    // A crashed (or permanently killed) switch kills every arriving cell
    // — no verdict, so the source's retry machinery must time the attempt
    // out. Teardown walks continue past it: the down switch's soft state
    // is wiped on restart (or at end of run) anyway, and the walk must
    // still clean the live switches beyond it.
    let down = fx.plane.switch_down(switch_global, fx.superstep);
    if down && !matches!(job.kind, JobKind::Teardown) {
        counters.crash_killed.fetch_add(1, Ordering::Relaxed);
        gone(counters);
        return (None, None);
    }

    // Decide this hop visit's fate exactly once (delayed cells come back
    // `cleared`; teardown is exempt from the fault plane entirely).
    let mut spawned: Option<(u64, Job)> = None;
    if !job.cleared && !matches!(job.kind, JobKind::Teardown) {
        let action = if matches!(job.kind, JobKind::Rollback(_)) {
            // An undo must not be re-applied: rollback cells only drop.
            fx.plane.decide_rollback(job.seq, job.hop, job.salt)
        } else {
            fx.plane.decide(job.seq, job.hop, job.salt)
        };
        match action {
            FaultAction::Deliver => {}
            FaultAction::Drop => {
                counters.cells_dropped.fetch_add(1, Ordering::Relaxed);
                gone(counters);
                return (None, None);
            }
            FaultAction::Corrupt => {
                // Put the real bytes on the wire, flip bits, and let the
                // checksum reject them — the cell dies detected, not by
                // silently applying a garbled rate.
                let mut wire = wire_cell(&job).encode();
                fx.plane.corrupt_wire(&mut wire, job.seq, job.hop);
                debug_assert!(
                    RmCell::decode(&wire).is_none(),
                    "the checksum must catch fault-plane corruption"
                );
                counters.cells_corrupted.fetch_add(1, Ordering::Relaxed);
                gone(counters);
                return (None, None);
            }
            FaultAction::Delay(d) => {
                counters.cells_delayed.fetch_add(1, Ordering::Relaxed);
                return (
                    None,
                    Some((
                        fx.superstep + d,
                        Job {
                            cleared: true,
                            ..job
                        },
                    )),
                );
            }
            FaultAction::Duplicate => {
                // Process the original now; a ghost copy re-traverses from
                // this hop one superstep later, double-applying the cell.
                counters.cells_duplicated.fetch_add(1, Ordering::Relaxed);
                counters.in_flight.fetch_add(1, Ordering::Relaxed);
                spawned = Some((
                    fx.superstep + 1,
                    Job {
                        salt: SALT_GHOST,
                        origin: job.hop as u8,
                        cleared: false,
                        ..job
                    },
                ));
            }
        }
    }

    // Any RM cell that actually reached the switch refreshes the VC's
    // reservation lease there — ghosts included, they are real cells on
    // the wire. Dropped / corrupted / link-killed cells never arrive, so
    // they refresh nothing: that is exactly the signal loss that lets
    // leases expire.
    if cfg.lease_supersteps > 0 && !matches!(job.kind, JobKind::Teardown) {
        sw.touch_lease(job.vci, fx.superstep);
    }

    // Deliver the attempt's verdict to the source (salt-0 only: ghosts
    // are network artifacts, invisible to the load generator).
    let deliver = |outcome: Outcome,
                   hops_touched: usize,
                   counters: &Counters,
                   sink: &mut CompletionSink<'_>| {
        let rtt = cfg.hop_latency * 2.0 * hops_touched as f64;
        sink.latency.record(rtt);
        sink.moments.record(hops_touched);
        if outcome == Outcome::Granted {
            counters.accepted.fetch_add(1, Ordering::Relaxed);
            counters.completed.fetch_add(1, Ordering::Relaxed);
        } else {
            counters.denied.fetch_add(1, Ordering::Relaxed);
        }
        let mut slot = vci_states[job.vci as usize].lock().expect("vci lock");
        slot.outcome = Some(outcome);
        slot.pressure = job.pressured;
    };

    match job.kind {
        JobKind::Delta(delta) => {
            let cell = sw
                .process_rm(RmCell {
                    vci: job.vci,
                    rate: RateField::Delta(delta),
                    denied: false,
                    pressure: false,
                })
                .expect("VC is routed through this switch");
            record_admission(&cell, job.vci, sw, counters, adm);
            if !cell.denied {
                if job.hop + 1 == path_len {
                    if !is_ghost {
                        deliver(Outcome::Granted, path_len, counters, sink);
                    }
                    gone(counters);
                    (None, spawned)
                } else {
                    (
                        Some(Job {
                            hop: job.hop + 1,
                            cleared: false,
                            ..job
                        }),
                        spawned,
                    )
                }
            } else {
                // The source learns of the denial now (round trip to the
                // denying hop); the unwind continues in-pipeline down to
                // this job's origin hop.
                if !is_ghost {
                    deliver(Outcome::Denied, job.hop + 1, counters, sink);
                }
                if job.hop == job.origin as usize {
                    gone(counters);
                    (None, spawned)
                } else {
                    if !is_ghost {
                        counters.rollbacks.fetch_add(1, Ordering::Relaxed);
                    }
                    (
                        Some(Job {
                            hop: job.hop - 1,
                            kind: JobKind::Rollback(delta),
                            cleared: false,
                            ..job
                        }),
                        spawned,
                    )
                }
            }
        }
        JobKind::Resync {
            rate,
            expected_prior,
        } => {
            let prior = sw
                .vci_rate(job.vci)
                .expect("VC is routed through this switch");
            if prior != expected_prior && !is_ghost {
                counters.resync_repairs.fetch_add(1, Ordering::Relaxed);
            }
            let cell = sw
                .process_rm(RmCell {
                    vci: job.vci,
                    rate: RateField::Absolute(rate),
                    denied: false,
                    pressure: false,
                })
                .expect("VC is routed through this switch");
            record_admission(&cell, job.vci, sw, counters, adm);
            if cell.denied {
                // No rollback for resync (Path::resync semantics): hops
                // already synchronized stay synchronized.
                if !is_ghost {
                    deliver(Outcome::Denied, job.hop + 1, counters, sink);
                }
                gone(counters);
                (None, spawned)
            } else if job.hop + 1 == path_len {
                if !is_ghost {
                    deliver(Outcome::Granted, path_len, counters, sink);
                }
                gone(counters);
                (None, spawned)
            } else {
                (
                    Some(Job {
                        hop: job.hop + 1,
                        cleared: false,
                        ..job
                    }),
                    spawned,
                )
            }
        }
        JobKind::Rollback(delta) => {
            // Best-effort: the grant being unwound may have been wiped by
            // a crash-restart, in which case there is nothing to undo.
            let unwound = sw
                .try_rollback_delta(job.vci, delta)
                .expect("VC is routed through this switch");
            if unwound && !is_ghost {
                counters.rolled_back_hops.fetch_add(1, Ordering::Relaxed);
            }
            if job.hop == job.origin as usize {
                gone(counters);
                (None, None)
            } else {
                (
                    Some(Job {
                        hop: job.hop - 1,
                        cleared: false,
                        ..job
                    }),
                    None,
                )
            }
        }
        JobKind::Reroute { rate } => {
            // Establish-or-repair: hops of the new route that never saw
            // this VC get a routing entry first, then every hop reserves
            // the absolute rate. On hops shared with the old route this
            // resyncs to the rate the VC already holds — a no-op that can
            // never be denied — so partial failures only ever leave
            // residue on *new* hops, which the runner's compensating
            // teardown (and ultimately the end-of-run audit) reclaims.
            sw.install(job.vci, 0);
            let cell = sw
                .process_rm(RmCell {
                    vci: job.vci,
                    rate: RateField::Absolute(rate),
                    denied: false,
                    pressure: false,
                })
                .expect("installed above");
            record_admission(&cell, job.vci, sw, counters, adm);
            if cell.denied {
                if !is_ghost {
                    deliver(Outcome::Denied, job.hop + 1, counters, sink);
                }
                gone(counters);
                (None, spawned)
            } else if job.hop + 1 == path_len {
                if !is_ghost {
                    deliver(Outcome::Granted, path_len, counters, sink);
                }
                gone(counters);
                (None, spawned)
            } else {
                (
                    Some(Job {
                        hop: job.hop + 1,
                        cleared: false,
                        ..job
                    }),
                    spawned,
                )
            }
        }
        JobKind::Teardown => {
            // Remove the VC from this switch: release the reservation and
            // drop the routing entry. Idempotent — a hop that never held
            // the VC (or was already torn) is a no-op — and skipped at a
            // down switch, whose soft state is wiped on restart or at end
            // of run anyway.
            if !down && sw.uninstall(job.vci).is_some() {
                counters.teardown_hops.fetch_add(1, Ordering::Relaxed);
            }
            if job.hop + 1 == path_len {
                gone(counters);
                (None, None)
            } else {
                (
                    Some(Job {
                        hop: job.hop + 1,
                        cleared: false,
                        ..job
                    }),
                    None,
                )
            }
        }
    }
}
