//! The invariant oracle suite.
//!
//! [`run_everywhere`](crate::run_everywhere) runs one configuration
//! through the sequential replay and the sharded engine at shard counts
//! {1, 2, 4}; [`run_oracles`] then checks every invariant the repo has
//! established:
//!
//! - **shard-identity** — `RunReport::outcome()` is bit-identical at
//!   every shard count and against the sequential replay.
//! - **final-drift-zero** — the end-of-run audit closes at zero drift.
//! - **quiescent-residue** — when no VC ended mid-reroute
//!   (`unsettled_vcs == 0`), torn-down VCs left no bandwidth behind.
//! - **port-consistency** — reserved equals granted at quiescence: the
//!   auditor found no port whose book disagrees with its entries.
//! - **fate-accounting** — every completed request was accepted or
//!   exhausted, exactly.
//! - **denial-loss-split** — admission's loss split is exhaustive:
//!   fault losses are exactly the four fault-plane kill modes, and the
//!   admission cells match the counters they were derived from.
//! - **counter-subsets** — subset counters never exceed their supersets
//!   (committed/denied reroutes vs. attempts, unstranded vs. stranded).
//! - **peak-rate-passivity** — under the legacy `PeakRate` policy the
//!   measurement pipeline never runs: no rolls, no observations, no
//!   cache traffic.
//! - **vc-outcome-sanity** — per-VC loss fractions are in [0, 1] and
//!   believed rates are finite and nonnegative.
//! - **shed-accounting** — overload shedding is exhaustive and gated:
//!   per-class shed counters sum to `cells_shed`, brownout exits never
//!   exceed entries, brownouts only happen after sheds, and a zero
//!   signaling budget (the legacy default) sheds nothing and counts no
//!   pressure.
//!
//! Oracles are pure functions of [`Everywhere`]; a failure names the
//! oracle and carries a human-readable detail line, which is what the
//! shrinker keys on ("still fails the *same* oracle").

use rcbr_runtime::{AdmissionPolicy, RunReport, RuntimeConfig};
use serde::{Deserialize, Serialize};

use crate::Everywhere;

/// One oracle violation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OracleFailure {
    /// Which oracle tripped (one of the `ORACLE_*` ids).
    pub oracle: String,
    /// Human-readable description of the violation.
    pub detail: String,
}

pub const ORACLE_SHARD_IDENTITY: &str = "shard-identity";
pub const ORACLE_FINAL_DRIFT: &str = "final-drift-zero";
pub const ORACLE_QUIESCENT_RESIDUE: &str = "quiescent-residue";
pub const ORACLE_PORT_CONSISTENCY: &str = "port-consistency";
pub const ORACLE_FATE_ACCOUNTING: &str = "fate-accounting";
pub const ORACLE_DENIAL_LOSS_SPLIT: &str = "denial-loss-split";
pub const ORACLE_COUNTER_SUBSETS: &str = "counter-subsets";
pub const ORACLE_PEAK_RATE_PASSIVITY: &str = "peak-rate-passivity";
pub const ORACLE_VC_SANITY: &str = "vc-outcome-sanity";
pub const ORACLE_SHED_ACCOUNTING: &str = "shed-accounting";
/// Test-only: trips whenever the fault plane killed a cell on a downed
/// link. Not a real invariant — it exists so the shrinker's soundness
/// and 1-minimality properties have a deterministic, cheap-to-evaluate
/// violation to minimize (see `tests/fuzz_shrink.rs`).
pub const ORACLE_SYNTHETIC_LINK_KILL: &str = "synthetic-link-kill";

/// Run the full oracle suite over one execution. Returns every
/// violation found (empty = the schedule is clean).
pub fn run_oracles(cfg: &RuntimeConfig, ex: &Everywhere) -> Vec<OracleFailure> {
    let mut failures = Vec::new();
    let fail = |failures: &mut Vec<OracleFailure>, oracle: &str, detail: String| {
        failures.push(OracleFailure {
            oracle: oracle.to_string(),
            detail,
        });
    };

    let mut labeled = vec![("seq".to_string(), &ex.sequential)];
    for (shards, report, diverges) in &ex.sharded {
        if let Some(at) = diverges {
            fail(
                &mut failures,
                ORACLE_SHARD_IDENTITY,
                format!("shards={shards} diverges from sequential: {at}"),
            );
        }
        labeled.push((format!("shards={shards}"), report));
    }

    for (label, r) in &labeled {
        let c = &r.counters;
        if r.audit.final_drift != 0 {
            fail(
                &mut failures,
                ORACLE_FINAL_DRIFT,
                format!("[{label}] final_drift = {}", r.audit.final_drift),
            );
        }
        if r.unsettled_vcs == 0 && r.audit.off_route_residue != 0 {
            fail(
                &mut failures,
                ORACLE_QUIESCENT_RESIDUE,
                format!(
                    "[{label}] every VC settled yet off_route_residue = {}",
                    r.audit.off_route_residue
                ),
            );
        }
        if r.audit.port_inconsistencies != 0 {
            fail(
                &mut failures,
                ORACLE_PORT_CONSISTENCY,
                format!(
                    "[{label}] port_inconsistencies = {}",
                    r.audit.port_inconsistencies
                ),
            );
        }
        if c.completed != c.accepted + c.exhausted {
            fail(
                &mut failures,
                ORACLE_FATE_ACCOUNTING,
                format!(
                    "[{label}] completed {} != accepted {} + exhausted {}",
                    c.completed, c.accepted, c.exhausted
                ),
            );
        }
        let a = &r.admission;
        let fault_lost = c.cells_dropped + c.cells_corrupted + c.crash_killed + c.cells_link_killed;
        if a.fault_lost_cells != fault_lost
            || a.admitted_cells != c.admission_grants
            || a.denied_cells != c.admission_denials
        {
            fail(
                &mut failures,
                ORACLE_DENIAL_LOSS_SPLIT,
                format!(
                    "[{label}] admission split drifted from counters: \
                     fault_lost {} vs {}, admitted {} vs {}, denied {} vs {}",
                    a.fault_lost_cells,
                    fault_lost,
                    a.admitted_cells,
                    c.admission_grants,
                    a.denied_cells,
                    c.admission_denials
                ),
            );
        }
        // Note `resync_repairs` has no subset relation to `resyncs`:
        // repairs are per *hop*, injections per *cell*, and one resync
        // cell can repair every drifted hop it crosses.
        for (name, sub, sup) in [
            (
                "reroutes_committed+denied vs reroutes",
                c.reroutes_committed + c.reroutes_denied,
                c.reroutes,
            ),
            (
                "unstranded vs stranded",
                c.unstranded_events,
                c.stranded_events,
            ),
        ] {
            if sub > sup {
                fail(
                    &mut failures,
                    ORACLE_COUNTER_SUBSETS,
                    format!("[{label}] {name}: {sub} > {sup}"),
                );
            }
        }
        if matches!(cfg.admission, AdmissionPolicy::PeakRate)
            && (a.rolls != 0
                || a.estimator_observations != 0
                || a.eb_cache_hits != 0
                || a.eb_cache_misses != 0
                || a.policy != "peak-rate")
        {
            fail(
                &mut failures,
                ORACLE_PEAK_RATE_PASSIVITY,
                format!(
                    "[{label}] measurement pipeline ran under PeakRate: \
                     rolls {} observations {} cache {}/{} policy {:?}",
                    a.rolls, a.estimator_observations, a.eb_cache_hits, a.eb_cache_misses, a.policy
                ),
            );
        }
        let class_sheds = c.sheds_gold + c.sheds_silver + c.sheds_best_effort;
        if class_sheds != c.cells_shed {
            fail(
                &mut failures,
                ORACLE_SHED_ACCOUNTING,
                format!(
                    "[{label}] per-class sheds {} (gold {} + silver {} + best-effort {}) \
                     != cells_shed {}",
                    class_sheds, c.sheds_gold, c.sheds_silver, c.sheds_best_effort, c.cells_shed
                ),
            );
        }
        if c.brownout_exits > c.brownout_entries {
            fail(
                &mut failures,
                ORACLE_SHED_ACCOUNTING,
                format!(
                    "[{label}] brownout_exits {} > brownout_entries {}",
                    c.brownout_exits, c.brownout_entries
                ),
            );
        }
        if c.brownout_entries > 0 && c.cells_shed == 0 {
            fail(
                &mut failures,
                ORACLE_SHED_ACCOUNTING,
                format!(
                    "[{label}] {} brownout entries without a single shed",
                    c.brownout_entries
                ),
            );
        }
        if cfg.signaling_budget_per_round == 0
            && (c.cells_shed != 0
                || c.brownout_entries != 0
                || c.brownout_exits != 0
                || c.pressure_rounds != 0)
        {
            fail(
                &mut failures,
                ORACLE_SHED_ACCOUNTING,
                format!(
                    "[{label}] zero signaling budget yet shed machinery ran: \
                     cells_shed {} brownout {}/{} pressure_rounds {}",
                    c.cells_shed, c.brownout_entries, c.brownout_exits, c.pressure_rounds
                ),
            );
        }
        for vc in &r.vcs {
            let bad_loss = !(0.0..=1.0).contains(&vc.loss) || !vc.loss.is_finite();
            let bad_rate = !vc.believed.is_finite() || vc.believed < 0.0;
            if bad_loss || bad_rate {
                fail(
                    &mut failures,
                    ORACLE_VC_SANITY,
                    format!(
                        "[{label}] VC {} ended with loss {} believed {}",
                        vc.vci, vc.loss, vc.believed
                    ),
                );
            }
        }
    }

    failures
}

/// The test-only synthetic oracle (see [`ORACLE_SYNTHETIC_LINK_KILL`]):
/// needs only the sequential report, so shrinker properties stay cheap.
pub fn synthetic_link_kill(report: &RunReport) -> Option<OracleFailure> {
    (report.counters.cells_link_killed >= 1).then(|| OracleFailure {
        oracle: ORACLE_SYNTHETIC_LINK_KILL.to_string(),
        detail: format!("cells_link_killed = {}", report.counters.cells_link_killed),
    })
}
