//! The hop-by-hop job state machine the superstep kernel steps.
//!
//! A renegotiation request is a [`Job`] that visits its path's switches
//! one hop per superstep. All visible effects of one hop — fault
//! decisions, reservation updates, counter increments, outcome delivery,
//! latency recording — live in [`advance_job`]; *where* switches live and
//! *how* jobs travel between hops is the drivers' business.
//!
//! A visit is Section III-B's fast path and little else: the fault checks
//! against the outages in force this superstep (an empty list, mostly),
//! one [`Switch::slot`] resolve, the booking arithmetic, and plain
//! integer bumps. The job is advanced in place and copied once, by the
//! kernel, into wherever it goes next.
//!
//! ## Who writes what, between which barriers
//!
//! A visit touches only what its shard owns — the switch, the shard's
//! `Tally`, latency histogram and hold lists — plus one `VerdictCell`.
//! The shared [`Counters`] are written by `Counters::fold` alone: once
//! at the end of a shard's round top and once at the end of each
//! superstep's hop loop, so always before the barrier that opens the next
//! `Counters::snapshot_drain` window, which therefore reads what it
//! would have read had every event been counted in place. A verdict cell
//! is stored by whichever shard owns the hop that completes the VC's one
//! outstanding attempt, and taken by the VC's owner at the next round
//! top, two barriers later.
//!
//! ## Faults at a hop
//!
//! Before a cell is processed at a hop, the
//! [`FaultPlane`](rcbr_net::FaultPlane) decides its fate — a pure function of `(seed, seq, hop, salt)`, so every shard
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

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};

use rcbr_net::{
    ActiveFaults, FaultAction, PriorityClass, RateField, RmCell, Switch, SALT_GHOST, SALT_PRIMARY,
};
use rcbr_sim::Histogram;
use serde::{Deserialize, Serialize};

use crate::admission::SwitchAdmission;
use crate::kernel::Shared;

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

/// One VC's verdict cell: the fate of its outstanding attempt and the
/// pressure flag its response carried (wire flags bit 1), packed into one
/// byte — `0` while nothing has arrived. The pipeline's completion side
/// stores it, the VC's owner shard takes it at the next round top, and
/// the end-of-run audit takes what the last round left.
///
/// All accesses are `Relaxed`: the byte publishes nothing but itself, a
/// VC has at most one verdict-bearing cell in flight per round so there
/// is one store between two takes, and the two barriers every driver
/// puts between a superstep's hop loop and the next round top (the
/// sequential driver runs both on one thread) order the store before the
/// take.
#[derive(Debug, Default)]
pub(crate) struct VerdictCell(AtomicU8);

impl VerdictCell {
    const PRESSURE: u8 = 4;
    /// Verdict `OUTCOMES[i]` is stored as `i + 1`.
    const OUTCOMES: [Outcome; 3] = [Outcome::Granted, Outcome::Denied, Outcome::Shed];

    /// Record the attempt's verdict and whether its response was
    /// pressure-flagged.
    pub fn deliver(&self, outcome: Outcome, pressured: bool) {
        let code = 1 + Self::OUTCOMES
            .iter()
            .position(|&o| o == outcome)
            .expect("listed") as u8;
        let flag = if pressured { Self::PRESSURE } else { 0 };
        self.0.store(code | flag, Ordering::Relaxed);
    }

    /// Read and clear. Call only where the pipeline is quiescent — a round
    /// top, or after the run — so no store can be racing the take.
    pub fn snapshot_take(&self) -> (Option<Outcome>, bool) {
        let packed = self.0.swap(0, Ordering::Relaxed);
        let code = (packed & !Self::PRESSURE) as usize;
        let outcome = code.checked_sub(1).map(|i| Self::OUTCOMES[i]);
        (outcome, packed & Self::PRESSURE != 0)
    }
}

/// One VC's believed end-to-end rate (`f64` bits), published by its owner
/// shard at every round top for the auditor. Like [`VerdictCell`], all
/// accesses are `Relaxed`: the owner publishes at a round top and the
/// audit reads after the injection hand-off's barrier, before any shard
/// can publish again.
#[derive(Debug)]
pub(crate) struct BeliefCell(AtomicU64);

impl BeliefCell {
    pub fn new(rate: f64) -> Self {
        Self(AtomicU64::new(rate.to_bits()))
    }

    /// Record the owner's current belief. Round tops only.
    pub fn publish(&self, rate: f64) {
        self.0.store(rate.to_bits(), Ordering::Relaxed);
    }

    /// The last published belief. Call only between the hand-off barrier
    /// and the next round top, the window `Counters::snapshot_drain` also
    /// reads in.
    pub fn snapshot(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// The run's counters, declared once: the shared [`Counters`] every shard
/// folds into, the plain [`CounterSnapshot`] a report carries (and a
/// shard's [`Tally`] counts in), and the two functions between them.
macro_rules! counters {
    ($($(#[$doc:meta])* $field:ident,)*) => {
        /// Shared atomic counters. Nobody increments them one event at a
        /// time: every shard counts into its own `Tally` and
        /// `Counters::fold`s it in before each barrier that opens a read
        /// window. The adds use relaxed ordering — the barriers provide
        /// the synchronization; the atomics only make the adds themselves
        /// race-free.
        ///
        /// Request-level counters (`accepted`, `denied`, `rollbacks`,
        /// `rolled_back_hops`, `resync_repairs`, `completed`, and the
        /// retry family) describe salt-0 attempts only; the cell-level
        /// fault counters (`cells_*`, `crash_killed`) count ghosts too.
        ///
        /// The atomics are private to this module: a write goes through
        /// `fold`, a read through [`snapshot`](Self::snapshot) or
        /// `snapshot_drain`, each documented with the barrier window it
        /// belongs in. A load anywhere else does not compile:
        ///
        /// ```compile_fail,E0616
        /// use std::sync::atomic::Ordering;
        /// let counters = rcbr_runtime::core::Counters::default();
        /// counters.completed.load(Ordering::Relaxed);
        /// ```
        #[derive(Debug, Default)]
        pub struct Counters {
            $($(#[$doc])* $field: AtomicU64,)*
            /// Jobs currently in the pipeline (including rollbacks still
            /// unwinding, delayed cells, and ghosts).
            in_flight: AtomicU64,
        }

        /// A point-in-time copy of [`Counters`], comparable and
        /// serializable.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
        pub struct CounterSnapshot {
            $($(#[$doc])* pub $field: u64,)*
        }

        impl Counters {
            /// Copy the current values.
            pub fn snapshot(&self) -> CounterSnapshot {
                CounterSnapshot {
                    $($field: self.$field.load(Ordering::Relaxed),)*
                }
            }

            /// Add `tally` in and zero it. A shard folds at the end of its
            /// round top and at the end of each superstep's hop loop, i.e.
            /// before the barrier that opens the next
            /// [`snapshot_drain`](Self::snapshot_drain) window, so a read
            /// window sees every event that happened before it.
            /// `in_flight` is a wrapping sum of signed deltas: it may
            /// pass through "negative" while shards fold in turn and is
            /// exact once all have.
            pub(crate) fn fold(&self, tally: &mut Tally) {
                let Tally { counts, in_flight } = std::mem::take(tally);
                $(if counts.$field != 0 {
                    self.$field.fetch_add(counts.$field, Ordering::Relaxed);
                })*
                if in_flight != 0 {
                    self.in_flight.fetch_add(in_flight as u64, Ordering::Relaxed);
                }
            }
        }
    };
}

counters! {
    /// Signaling attempts injected into the pipeline (initial + retries).
    injected,
    /// Requests granted at every hop.
    accepted,
    /// Attempts denied at some hop.
    denied,
    /// Denied attempts that had upstream reservations to unwind.
    rollbacks,
    /// Individual hop reservations unwound by rollback.
    rolled_back_hops,
    /// Absolute-rate resync cells injected (periodic + retries).
    resyncs,
    /// Hops whose reservation disagreed with the source's belief when a
    /// resync cell arrived — i.e. drift actually repaired.
    resync_repairs,
    /// Requests that reached a terminal fate (granted or abandoned after
    /// retry exhaustion): `completed == accepted + exhausted`.
    completed,
    /// Cells dropped by the fault plane.
    cells_dropped,
    /// Cells delayed by the fault plane.
    cells_delayed,
    /// Ghost duplicates spawned by the fault plane.
    cells_duplicated,
    /// Cells bit-corrupted by the fault plane (caught by the checksum and
    /// discarded).
    cells_corrupted,
    /// Cells that arrived at a crashed (down) switch.
    crash_killed,
    /// Attempts that timed out waiting for a verdict.
    timeouts,
    /// Retry attempts injected after a timeout or denial.
    retries,
    /// Requests abandoned after exhausting the retry budget.
    exhausted,
    /// VCs that newly entered the degraded state (kept a stale rate).
    degraded_events,
    /// Cells killed in flight crossing a down link.
    cells_link_killed,
    /// Per-hop reservations reclaimed use-it-or-lose-it because no RM
    /// cell refreshed the lease in time.
    leases_expired,
    /// Reroute attempts injected (initial + retries).
    reroutes,
    /// Reroutes granted end to end (the VC committed to the new route).
    reroutes_committed,
    /// Reroute attempts denied at some hop (capacity on the new route).
    reroutes_denied,
    /// Teardown walks injected (route switches, stale-hop cleanup, and
    /// break-before-make compensation).
    teardown_cells,
    /// Individual switch entries removed by teardown walks.
    teardown_hops,
    /// VCs that ran out of live routes and released everything (stranded).
    stranded_events,
    /// Stranded VCs that later re-established service on a revived route.
    unstranded_events,
    /// Periodic invariant audits executed.
    audit_runs,
    /// (switch, VC) reservation pairs the periodic auditor found drifted
    /// from the source's believed rate.
    audit_drift,
    /// Per-hop booking checks that admitted an RM cell (delta, resync, or
    /// reroute; ghosts included — every cell that reaches a port faces the
    /// admission test).
    admission_grants,
    /// Per-hop booking checks that denied an RM cell. These are admission
    /// losses, as distinct from the fault plane's `cells_*` destruction.
    admission_denials,
    /// Cells shed by over-budget signaling queues (ghosts included):
    /// `cells_shed == sheds_gold + sheds_silver + sheds_best_effort`.
    cells_shed,
    /// Shed cells whose VC is Gold class.
    sheds_gold,
    /// Shed cells whose VC is Silver class.
    sheds_silver,
    /// Shed cells whose VC is BestEffort class.
    sheds_best_effort,
    /// BestEffort VCs that entered brownout (held their granted rate and
    /// stopped renegotiating under pressure).
    brownout_entries,
    /// Brownouts that ended on a clean (pressure-free) grant, as opposed
    /// to the hold timer lapsing.
    brownout_exits,
    /// (round, switch) pairs where the switch was still advertising
    /// overload pressure at the round top.
    pressure_rounds,
}

/// One shard's counts since its last [`Counters::fold`]: plain integers
/// only that shard touches.
#[derive(Debug, Default)]
pub(crate) struct Tally {
    /// Increments, field for field.
    pub counts: CounterSnapshot,
    /// Net change of `Counters::in_flight`: jobs this shard injected or
    /// spawned, minus jobs that ended at its switches.
    pub in_flight: i64,
}

/// The pair of reads that decides a drain loop's fate, taken together in
/// the safe window between barriers.
#[derive(Debug, Clone, Copy)]
pub struct DrainSnapshot {
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
}

/// What a hop visit works with besides its switch: the run's constants,
/// the clock and the outages in force at it, the verdict cells, and the
/// shard-owned sinks — counts, latency — the visit records into.
pub(crate) struct HopCtx<'a> {
    pub sh: &'a Shared<'a>,
    /// The fault plane's scheduled outages at `superstep`.
    pub active: &'a ActiveFaults,
    pub superstep: u64,
    pub tally: &'a mut Tally,
    pub latency: &'a mut Histogram,
    pub moments: &'a mut crate::report::RttStats,
}

impl HopCtx<'_> {
    /// The job's walk ended at this hop.
    fn gone(&mut self) -> Hop {
        self.tally.in_flight -= 1;
        Hop::Done
    }

    /// Deliver the attempt's verdict to the source (salt-0 only: ghosts
    /// are network artifacts, invisible to the load generator), with the
    /// modeled round trip to the `hops_touched`-th hop.
    fn deliver(&mut self, job: &Job, outcome: Outcome, hops_touched: usize, pressured: bool) {
        if job.salt != SALT_PRIMARY {
            return;
        }
        let rtt = self.sh.cfg.hop_latency * 2.0 * hops_touched as f64;
        self.latency.record(rtt);
        self.moments.record(hops_touched);
        match outcome {
            Outcome::Granted => {
                self.tally.counts.accepted += 1;
                self.tally.counts.completed += 1;
            }
            Outcome::Denied => self.tally.counts.denied += 1,
            Outcome::Shed => {}
        }
        self.sh.verdicts[job.vci as usize].deliver(outcome, pressured);
    }
}

/// What became of a job at a hop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Hop {
    /// Its walk ended here: delivered, denied with nothing left to
    /// unwind, unwound, torn down, or killed in flight.
    Done,
    /// The job now names its next hop (the previous one, for a rollback):
    /// route it this superstep.
    Forward,
    /// Fault-delayed: the job, now `cleared`, stays at this hop and is to
    /// be presented again at this superstep.
    Hold(u64),
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
/// the retryable [`Outcome::Shed`] with the pressure flag set: the shed
/// notification rides back from the refusing hop. Ghosts shed silently
/// but still count: `cells_shed` and the per-class counters see every
/// cell the queue refused.
pub(crate) fn shed_job(job: &Job, ctx: &mut HopCtx<'_>) {
    let counts = &mut ctx.tally.counts;
    counts.cells_shed += 1;
    match job.class {
        PriorityClass::Gold => counts.sheds_gold += 1,
        PriorityClass::Silver => counts.sheds_silver += 1,
        PriorityClass::BestEffort => counts.sheds_best_effort += 1,
    }
    ctx.deliver(job, Outcome::Shed, job.hop + 1, true);
    ctx.gone();
}

/// Process `job` at the switch for its current hop, in place: on
/// [`Hop::Forward`] and [`Hop::Hold`] `job` is the follow-up. Also
/// returns the duplicate ghost the fault plane spawned, if any, which the
/// owner must hold and present at this hop one superstep later.
///
/// `sw` must be the switch at `job.route.hop(job.hop)` for this job, and
/// `switch_global` its global index. `adm` is the switch's admission
/// state when a measurement-based policy is live (`None` under the
/// default `PeakRate`, which keeps the legacy fast path untouched).
/// `under_pressure` is the switch's signaling queue still advertising a
/// recent shed; it stamps the job's pressure flag, which rides the
/// response back to the source.
pub(crate) fn advance_job(
    job: &mut Job,
    sw: &mut Switch,
    switch_global: usize,
    adm: Option<&mut SwitchAdmission>,
    under_pressure: bool,
    ctx: &mut HopCtx<'_>,
) -> (Hop, Option<Job>) {
    job.pressured |= under_pressure;
    let path_len = job.route.len();
    let teardown = matches!(job.kind, JobKind::Teardown);
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
        && ctx
            .active
            .link_down(job.route.hop(job.hop - 1), job.route.hop(job.hop))
    {
        ctx.tally.counts.cells_link_killed += 1;
        return (ctx.gone(), None);
    }
    // A crashed (or permanently killed) switch kills every arriving cell
    // — no verdict, so the source's retry machinery must time the attempt
    // out. Teardown walks continue past it: the down switch's soft state
    // is wiped on restart (or at end of run) anyway, and the walk must
    // still clean the live switches beyond it.
    let down = ctx.active.switch_down(switch_global);
    if down && !teardown {
        ctx.tally.counts.crash_killed += 1;
        return (ctx.gone(), None);
    }

    // Decide this hop visit's fate exactly once (delayed cells come back
    // `cleared`; teardown is exempt from the fault plane entirely).
    let mut ghost = None;
    if !job.cleared && !teardown {
        let action = if matches!(job.kind, JobKind::Rollback(_)) {
            // An undo must not be re-applied: rollback cells only drop.
            ctx.sh.plane.decide_rollback(job.seq, job.hop, job.salt)
        } else {
            ctx.sh.plane.decide(job.seq, job.hop, job.salt)
        };
        match action {
            FaultAction::Deliver => {}
            FaultAction::Drop => {
                ctx.tally.counts.cells_dropped += 1;
                return (ctx.gone(), None);
            }
            FaultAction::Corrupt => {
                // Put the real bytes on the wire, flip bits, and let the
                // checksum reject them — the cell dies detected, not by
                // silently applying a garbled rate.
                let mut wire = wire_cell(job).encode();
                ctx.sh.plane.corrupt_wire(&mut wire, job.seq, job.hop);
                debug_assert!(
                    RmCell::decode(&wire).is_none(),
                    "the checksum must catch fault-plane corruption"
                );
                ctx.tally.counts.cells_corrupted += 1;
                return (ctx.gone(), None);
            }
            FaultAction::Delay(d) => {
                ctx.tally.counts.cells_delayed += 1;
                job.cleared = true;
                return (Hop::Hold(ctx.superstep + d), None);
            }
            FaultAction::Duplicate => {
                // Process the original now; a ghost copy re-traverses from
                // this hop one superstep later, double-applying the cell.
                ctx.tally.counts.cells_duplicated += 1;
                ctx.tally.in_flight += 1;
                ghost = Some(Job {
                    salt: SALT_GHOST,
                    origin: job.hop as u8,
                    cleared: false,
                    ..*job
                });
            }
        }
    }
    // Whatever happens below, a follow-up faces the fault plane afresh.
    job.cleared = false;

    if teardown {
        // Remove the VC from this switch: release the reservation and
        // drop the routing entry. Idempotent — a hop that never held
        // the VC (or was already torn) is a no-op — and skipped at a
        // down switch, whose soft state is wiped on restart or at end
        // of run anyway.
        if !down && sw.uninstall(job.vci).is_some() {
            ctx.tally.counts.teardown_hops += 1;
        }
        job.hop += 1;
        let hop = if job.hop == path_len {
            ctx.gone()
        } else {
            Hop::Forward
        };
        return (hop, None);
    }

    // The one resolve of this visit. A reroute walk establishes-or-repairs:
    // hops of the new route that never saw this VC get a routing entry
    // first, then every hop reserves the absolute rate. On hops shared
    // with the old route this resyncs to the rate the VC already holds —
    // a no-op that can never be denied — so partial failures only ever
    // leave residue on *new* hops, which the runner's compensating
    // teardown (and ultimately the end-of-run audit) reclaims.
    let mut slot = match job.kind {
        JobKind::Reroute { .. } => sw.install(job.vci, 0),
        _ => sw.slot(job.vci).expect("VC is routed through this switch"),
    };
    // Any RM cell that actually reached the switch refreshes the VC's
    // reservation lease there — ghosts included, they are real cells on
    // the wire. Dropped / corrupted / link-killed cells never arrive, so
    // they refresh nothing: that is exactly the signal loss that lets
    // leases expire.
    if ctx.sh.cfg.lease_supersteps > 0 {
        slot.touch_lease(ctx.superstep);
    }

    let (request, delta) = match job.kind {
        JobKind::Rollback(delta) => {
            // Best-effort: the grant being unwound may have been wiped by
            // a crash-restart, in which case there is nothing to undo.
            if slot.try_reserve_delta(-delta) && job.salt == SALT_PRIMARY {
                ctx.tally.counts.rolled_back_hops += 1;
            }
            let hop = if job.hop == job.origin as usize {
                ctx.gone()
            } else {
                job.hop -= 1;
                Hop::Forward
            };
            return (hop, None);
        }
        JobKind::Delta(delta) => (RateField::Delta(delta), Some(delta)),
        JobKind::Resync {
            rate,
            expected_prior,
        } => {
            if slot.rate() != expected_prior && job.salt == SALT_PRIMARY {
                ctx.tally.counts.resync_repairs += 1;
            }
            (RateField::Absolute(rate), None)
        }
        JobKind::Reroute { rate } => (RateField::Absolute(rate), None),
        JobKind::Teardown => unreachable!("handled above"),
    };
    // The booking check: bump the admission grant/denial counters and,
    // when a measurement-based policy is live, fold the VC's post-decision
    // reservation at this switch into the estimator. Ghosts are observed
    // too — they are real cells that mutated real switch state, and the
    // estimator measures the switch, not the load generator.
    let granted = slot.book(request);
    if granted {
        ctx.tally.counts.admission_grants += 1;
    } else {
        ctx.tally.counts.admission_denials += 1;
    }
    if let Some(sa) = adm {
        sa.observe(job.vci, slot.rate());
    }
    let hop = if granted {
        job.hop += 1;
        if job.hop == path_len {
            ctx.deliver(job, Outcome::Granted, path_len, job.pressured);
            ctx.gone()
        } else {
            Hop::Forward
        }
    } else {
        // The source learns of the denial now (round trip to the denying
        // hop). A denied delta then unwinds in-pipeline, one hop per
        // superstep, down to this job's origin hop; resync and reroute
        // walks do not roll back (`Path::resync` semantics): hops already
        // synchronized stay synchronized.
        ctx.deliver(job, Outcome::Denied, job.hop + 1, job.pressured);
        match delta {
            Some(delta) if job.hop != job.origin as usize => {
                if job.salt == SALT_PRIMARY {
                    ctx.tally.counts.rollbacks += 1;
                }
                job.hop -= 1;
                job.kind = JobKind::Rollback(delta);
                Hop::Forward
            }
            _ => ctx.gone(),
        }
    };
    (hop, ghost)
}
