//! The runtime invariant auditor.
//!
//! Drift is the failure mode delta-encoded signaling pays for its speed
//! with (the paper's footnote 2): a dropped, corrupted, duplicated, or
//! crash-killed RM cell leaves some hops holding a different rate than
//! the source believes. The auditor makes that drift *observable* and —
//! at end of run — *repairable*:
//!
//! * **Periodic** ([`audit_shard`]): every `audit_interval` rounds, before
//!   the round's first superstep, each shard walks its switches and counts
//!   every `(switch, VC)` reservation that disagrees with the owning
//!   source's believed rate by more than [`DRIFT_EPS`]. Runs and counts
//!   are deterministic, so they are part of the cross-shard bit-identity
//!   contract.
//! * **End of run** ([`finalize`]): one full absolute-rate resync per
//!   drifted VC repairs every hop to the source's believed rate. If the
//!   believed rate no longer fits (another VC's over-reservation, or a
//!   crash wiped the port and contention refilled it), the VC falls back
//!   use-it-or-lose-it style to the *minimum* rate any hop still holds —
//!   a reduction everywhere, so recovery itself can never be denied —
//!   and is marked degraded. Afterwards the residual drift must be zero.

use rcbr_net::{ActiveFaults, Switch};
use serde::{Deserialize, Serialize};

use crate::core::CounterSnapshot;
use crate::gen::{Quiescent, VcRunner};
use crate::kernel::Shared;

/// Reservations within this many bits/second of the believed rate count
/// as synchronized: real drift is at least one granularity step (tens of
/// kb/s), while float accumulation noise is many orders smaller.
pub(crate) const DRIFT_EPS: f64 = 1.0;

/// What the end-of-run audit found and did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AuditReport {
    /// `(switch, VC)` reservation pairs drifted from the source's
    /// believed rate before recovery.
    pub final_drift_before: u64,
    /// Hop reservations rewritten during recovery.
    pub drift_repaired: u64,
    /// VCs whose believed rate no longer fit and were floored to the
    /// minimum rate any of their hops still held (use-it-or-lose-it).
    pub lose_it_vcs: u64,
    /// Drifted pairs remaining after recovery — the headline invariant:
    /// this must be 0.
    pub final_drift: u64,
    /// Ports whose aggregate disagreed with the sum of their per-VCI
    /// reservations after recovery (0 unless the switch itself is buggy).
    pub port_inconsistencies: u64,
    /// Switch entries found off their VC's final route and removed
    /// (teardown leftovers at down switches, expired-lease stubs, hops of
    /// a reroute that was still in flight at exit).
    pub stale_reclaimed: u64,
    /// Of those, entries that still held bandwidth above [`DRIFT_EPS`] —
    /// real residue a clean teardown should not leave. Nonzero only when
    /// the run ended mid-reroute.
    pub off_route_residue: u64,
}

/// One VC's end-of-run source state, collected from its runner.
#[derive(Debug, Clone)]
pub(crate) struct VcFinal {
    pub vci: u32,
    /// The rate the source believes is reserved end to end.
    pub believed: f64,
    /// The VC exhausted a retry budget mid-run (or is floored below).
    pub degraded: bool,
    /// The VC's end-system buffer loss fraction.
    pub loss: f64,
    /// The route the VC's reservations should live on (empty if the VC
    /// was torn down / stranded and holds nothing).
    pub route: Vec<usize>,
    /// The run ended with this VC's route machinery still in motion
    /// (reroute in flight or teardowns queued) — see
    /// `VcRunner::unsettled_at_exit`. Read before `apply_final`.
    pub unsettled: bool,
    /// The VC ended the run browned out — holding its granted rate under
    /// overload pressure instead of renegotiating.
    pub brownout: bool,
}

/// Reduce per-VC source loss fractions to `(mean, max)`. The input order
/// is partition-independent: `finals` is in ascending VCI order, so the
/// float sum accumulates in the same order no matter how many shards
/// produced the entries.
pub(crate) fn reduce_source_loss(finals: &[VcFinal], num_vcs: usize) -> (f64, f64) {
    debug_assert!(finals.windows(2).all(|w| w[0].vci < w[1].vci));
    let mean = finals.iter().map(|f| f.loss).sum::<f64>() / num_vcs as f64;
    let max = finals.iter().fold(0.0f64, |m, f| m.max(f.loss));
    (mean, max)
}

/// The periodic mid-run audit over one shard's switches. Must be called
/// after every shard published its VCs' believed rates (the round top)
/// and before these switches see the round's first superstep.
///
/// Counts drifted `(switch, VC)` pairs into `counts.audit_drift`.
/// `audit_runs` is bumped by shard 0 only, so the count is independent of
/// the shard count. `active` is the fault plane's outages at the current
/// superstep.
pub(crate) fn audit_shard(
    sh: &Shared<'_>,
    local_switches: &[Switch],
    shard: usize,
    num_shards: usize,
    active: &ActiveFaults,
    counts: &mut CounterSnapshot,
) {
    let Shared {
        believed, routes, ..
    } = sh;
    if shard == 0 {
        counts.audit_runs += 1;
    }
    for (li, sw) in local_switches.iter().enumerate() {
        let h = shard + li * num_shards;
        if active.switch_down(h) {
            // A crashed switch cannot answer an audit probe.
            continue;
        }
        for vci in sw.vcis() {
            // Only reservations on the VC's *published* route are held
            // against the believed rate: an entry off that route is a
            // known transient (a reroute's partial install awaiting
            // commit or compensation, or a teardown leftover at a switch
            // that was down when the walk passed) and is reclaimed by the
            // end-of-run audit if it survives that long.
            let on_route = routes[vci as usize]
                .lock()
                .expect("route lock")
                .contains(&(h as u16));
            if !on_route {
                continue;
            }
            let b = believed[vci as usize].snapshot();
            let r = sw.vci_rate(vci).expect("routed VCI has a rate");
            if (r - b).abs() > DRIFT_EPS {
                counts.audit_drift += 1;
            }
        }
        debug_assert!(
            sw.is_consistent(),
            "port aggregate drifted from its per-VCI sum at switch {h}"
        );
    }
}

/// Count `(hop, VC)` pairs on each VC's final route whose reservation
/// disagrees with the source's believed rate. A hop with no entry (e.g. a
/// teardown raced a kill) counts as holding 0.
fn count_drift(switches: &[Switch], finals: &[VcFinal]) -> u64 {
    let mut n = 0;
    for f in finals {
        for &h in &f.route {
            let r = switches[h].vci_rate(f.vci).unwrap_or(0.0);
            if (r - f.believed).abs() > DRIFT_EPS {
                n += 1;
            }
        }
    }
    n
}

/// The end-of-run audit and recovery pass. `switches` is the full global
/// switch population and `runners` every VC's load generator in ascending
/// VCI order (both reassembled from the shards), `final_superstep` the
/// clock at exit. Returns the audit with the per-VC final source states.
///
/// Recovery is exactly what a real deployment would do: one absolute-rate
/// resync per drifted VC, with the use-it-or-lose-it floor as the
/// fallback when the believed rate no longer fits (floored VCs get their
/// new believed rate and a degraded mark).
pub(crate) fn finalize(
    sh: &Shared<'_>,
    switches: &mut [Switch],
    runners: Vec<VcRunner>,
    final_superstep: u64,
) -> (AuditReport, Vec<VcFinal>) {
    // Every shard has finished: nothing is in flight, and route state may
    // take its final verdicts.
    #[expect(clippy::disallowed_methods, reason = "the run is over")]
    let q = Quiescent::new();
    // Apply verdicts delivered in the final round so believed rates are
    // current, then snapshot each VC's source state.
    let mut finals = Vec::with_capacity(runners.len());
    for mut runner in runners {
        // Read before apply_final: the final verdict collapses a
        // mid-flight reroute to Settled while its residue stays behind.
        let unsettled = runner.unsettled_at_exit();
        if let (Some(o), _) = sh.verdicts[runner.vci() as usize].snapshot_take() {
            runner.apply_final(&q, o);
        }
        finals.push(VcFinal {
            vci: runner.vci(),
            believed: runner.believed_rate(),
            degraded: runner.is_degraded(),
            loss: runner.loss_fraction(),
            route: runner.final_route(),
            unsettled,
            brownout: runner.in_brownout(),
        });
    }

    // A switch still inside its crash window at exit — transient or
    // permanently killed — loses its soft state just as a restarting one
    // does.
    for (h, sw) in switches.iter_mut().enumerate() {
        if sh.plane.switch_down(h, final_superstep) {
            sw.wipe_soft_state();
        }
    }

    // Recovery reconciles against *physical* capacity, not against
    // whatever booking ceiling a measurement-based admission policy last
    // rolled: the run is over, the policy with it. A no-op under the
    // default PeakRate, whose ceilings never move.
    for sw in switches.iter_mut() {
        #[expect(clippy::disallowed_methods, reason = "the audit's ceiling reset")]
        sw.reset_admit_ceilings();
    }

    // Stale reclaim: remove every entry that is not on its VC's final
    // route. Torn-down and expired VCs leave zero-rate stubs (counted but
    // harmless); a reroute caught mid-flight by the end of the run can
    // leave real bandwidth on candidate hops — that is the off-route
    // residue, reclaimed here exactly as the compensating teardown would
    // have.
    let mut stale_reclaimed = 0u64;
    let mut off_route_residue = 0u64;
    for (h, sw) in switches.iter_mut().enumerate() {
        for vci in sw.vcis() {
            let f = &finals[vci as usize];
            debug_assert_eq!(f.vci, vci, "finals indexed by VCI");
            if f.route.contains(&h) {
                continue;
            }
            if let Some(rate) = sw.uninstall(vci) {
                stale_reclaimed += 1;
                if rate > DRIFT_EPS {
                    off_route_residue += 1;
                }
            }
        }
    }

    let final_drift_before = count_drift(switches, &finals);
    let mut drift_repaired = 0u64;
    let mut lose_it_vcs = 0u64;

    for f in finals.iter_mut() {
        let vci = f.vci;
        let path = &f.route;
        let drifted = move |switches: &[Switch], h: usize, target: f64| {
            (switches[h].vci_rate(vci).unwrap_or(0.0) - target).abs() > DRIFT_EPS
        };
        if !path.iter().any(|&h| drifted(switches, h, f.believed)) {
            continue;
        }
        // Fast path: resync every drifted hop to the believed rate.
        let mut denied = false;
        for &h in path {
            if !drifted(switches, h, f.believed) {
                continue;
            }
            // A hop that lost its entry (teardown raced a restart) is
            // re-installed first; resync then rebuilds the reservation.
            if !switches[h].install(vci, 0).try_set_absolute(f.believed) {
                denied = true;
                break;
            }
            drift_repaired += 1;
        }
        if denied {
            // Use-it-or-lose-it: the believed rate no longer fits
            // somewhere, so fall back to the minimum rate any hop still
            // holds. The write goes through the administrative
            // `set_unchecked` path: reducing to the floor is always the right
            // repair, but the *checked* path can still refuse it at a
            // port an admission policy left overbooked past the physical
            // capacity (the aggregate stays above the limit even after
            // this VC shrinks). Identical state mutation to the checked
            // path wherever that path would have succeeded.
            let floor = path
                .iter()
                .map(|&h| switches[h].vci_rate(vci).unwrap_or(0.0))
                .fold(f.believed, f64::min);
            for &h in path {
                if !drifted(switches, h, floor) {
                    continue;
                }
                switches[h].install(vci, 0).set_unchecked(floor);
                drift_repaired += 1;
            }
            f.believed = floor;
            f.degraded = true;
            lose_it_vcs += 1;
        }
    }

    let final_drift = count_drift(switches, &finals);
    let port_inconsistencies = switches.iter().filter(|s| !s.is_consistent()).count() as u64;
    let audit = AuditReport {
        final_drift_before,
        drift_repaired,
        lose_it_vcs,
        final_drift,
        port_inconsistencies,
        stale_reclaimed,
        off_route_residue,
    };
    (audit, finals)
}
