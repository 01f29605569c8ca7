//! Satellite property tests for the fault plane contract:
//!
//! 1. Any seed and any fault mix keep the sharded engine bit-identical to
//!    the sequential replay, at every shard count.
//! 2. Any drop/delay/duplicate/corrupt pattern, followed by end-of-run
//!    recovery (one absolute resync per drifted VC), leaves zero residual
//!    drift.
//!
//! Five cases per property — each case is four full engine runs, and the
//! space being sampled (seed x four fault intensities) is exactly where a
//! partition-dependent bug would show as a counter mismatch.

mod common;

use proptest::prelude::*;
use rcbr_runtime::{run_sequential, RuntimeConfig};

fn chaos_cfg(
    seed: u64,
    drop_bp: u32,
    delay_bp: u32,
    dup_bp: u32,
    corrupt_bp: u32,
) -> RuntimeConfig {
    let mut cfg = RuntimeConfig::balanced(1, 8);
    cfg.target_requests = 300;
    cfg.seed = seed;
    // Moderate contention so denials/rollbacks are part of the mix.
    let flows_per_switch = (cfg.num_vcs * cfg.hops_per_vc) as f64 / cfg.num_switches as f64;
    cfg.port_capacity = flows_per_switch * cfg.initial_rate * 1.2;
    cfg.resync_interval = 4;
    cfg.audit_interval = 8;
    cfg.fault.seed = seed ^ 0xc4a05;
    cfg.fault.drop_bp = drop_bp;
    cfg.fault.delay_bp = delay_bp;
    cfg.fault.max_delay = 3;
    cfg.fault.dup_bp = dup_bp;
    cfg.fault.corrupt_bp = corrupt_bp;
    cfg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Same seed + same fault config => bit-identical counters across
    /// shard counts {1, 2, 4} and vs the sequential replay.
    #[test]
    fn any_fault_mix_is_shard_count_invariant(
        seed in 0u64..512,
        drop_bp in 0u32..500,
        delay_bp in 0u32..300,
        dup_bp in 0u32..200,
        corrupt_bp in 0u32..200,
    ) {
        common::same_run_everywhere(&chaos_cfg(seed, drop_bp, delay_bp, dup_bp, corrupt_bp));
    }

    /// Any drop/delay/duplicate/corrupt pattern + final recovery =>
    /// zero residual drift between sources and switches.
    #[test]
    fn recovery_always_reaches_zero_drift(
        seed in 0u64..512,
        drop_bp in 0u32..500,
        delay_bp in 0u32..300,
        dup_bp in 0u32..200,
        corrupt_bp in 0u32..200,
    ) {
        let cfg = chaos_cfg(seed, drop_bp, delay_bp, dup_bp, corrupt_bp);
        let report = run_sequential(&cfg);
        prop_assert_eq!(
            report.audit.final_drift, 0,
            "residual drift after recovery: {:?}", report.audit
        );
        prop_assert_eq!(report.audit.port_inconsistencies, 0);
        prop_assert_eq!(
            report.counters.completed,
            report.counters.accepted + report.counters.exhausted
        );
    }
}
