//! Satellite: live admission determinism across shard counts.
//!
//! For every admission policy — the legacy static peak-rate check and
//! both measurement-based policies — the sharded engine at shard counts
//! {1, 2, 4} must reproduce the sequential replay bit for bit: counters,
//! per-VC outcomes, the admission report (including its float
//! utilization reduction), and the audit. The measured policies must
//! actually measure (windows roll, estimators observe, the EB cache
//! fills), and `PeakRate` must behave exactly like the runtime before
//! live admission existed: ceilings never move, nothing is estimated.

mod common;

use rcbr_runtime::{run, AdmissionPolicy, RuntimeConfig};

const POLICIES: [AdmissionPolicy; 3] = [
    AdmissionPolicy::PeakRate,
    AdmissionPolicy::Memoryless { target: 1e-3 },
    AdmissionPolicy::ChernoffEb { epsilon: 1e-6 },
];

/// A contended configuration where the booking ceilings decide outcomes:
/// ~1.08x headroom over the initial admission load, short measurement
/// windows so each policy rolls many times, and the default mild fault
/// mix so admission interacts with retries and resync.
fn measured_cfg(policy: AdmissionPolicy, num_shards: usize) -> RuntimeConfig {
    let mut cfg = RuntimeConfig::balanced(num_shards, 32);
    cfg.target_requests = 3_000;
    let flows_per_switch = (cfg.num_vcs * cfg.hops_per_vc) as f64 / cfg.num_switches as f64;
    cfg.port_capacity = flows_per_switch * cfg.initial_rate * 1.08;
    cfg.resync_interval = 8;
    cfg.audit_interval = 16;
    cfg.admission = policy;
    cfg.measurement_window_supersteps = 16;
    cfg
}

#[test]
fn every_policy_is_shard_count_invariant() {
    for policy in POLICIES {
        common::same_run_everywhere(&measured_cfg(policy, 1));
    }
}

#[test]
fn measured_policies_measure_and_peak_rate_does_not() {
    for policy in POLICIES {
        let r = run(&measured_cfg(policy, 2));
        let a = &r.admission;
        assert_eq!(a.policy, policy.name());
        assert_eq!(
            a.admitted_cells + a.denied_cells,
            r.counters.admission_grants + r.counters.admission_denials,
            "[{}] admission split must mirror the counters",
            policy.name()
        );
        assert!(
            a.mean_port_utilization > 0.0,
            "[{}] utilization is sampled under every policy",
            policy.name()
        );
        if policy.measures() {
            assert!(a.rolls > 0, "[{}] windows never rolled", policy.name());
            assert!(
                a.estimator_observations > 0,
                "[{}] the estimator never observed a delivered cell",
                policy.name()
            );
        } else {
            assert_eq!(a.rolls, 0, "peak-rate must never roll a window");
            assert_eq!(
                a.estimator_observations, 0,
                "peak-rate must not estimate anything"
            );
            assert_eq!(
                a.eb_cache_misses, 0,
                "peak-rate must not touch the EB cache"
            );
        }
        if matches!(policy, AdmissionPolicy::ChernoffEb { .. }) {
            assert!(
                a.eb_cache_misses > 0,
                "chernoff-eb rolls must compute equivalent bandwidths"
            );
        }
    }
}

#[test]
fn denial_loss_split_is_exhaustive() {
    // Every unhappy outcome is attributed exactly once: a cell is either
    // denied at an admission check or lost to the fault plane, never both
    // and never unaccounted.
    let r = run(&measured_cfg(
        AdmissionPolicy::Memoryless { target: 1e-3 },
        2,
    ));
    let a = &r.admission;
    let c = &r.counters;
    assert!(a.denied_cells > 0, "tight ports must deny someone: {a:?}");
    assert_eq!(
        a.fault_lost_cells,
        c.cells_dropped + c.cells_corrupted + c.crash_killed + c.cells_link_killed,
        "fault-plane losses must be the sum of the fault counters"
    );
    assert!(
        a.fault_lost_cells > 0,
        "the default fault mix must lose cells: {a:?}"
    );
}
