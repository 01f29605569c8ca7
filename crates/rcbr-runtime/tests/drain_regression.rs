//! Regression coverage for the drain-loop barrier discipline.
//!
//! The hazard (PR 2's deadlock, now also encoded as the linter's
//! `barrier-discipline` rule): the quiescence/stop decision in the drain
//! loop must come from a single snapshot taken between barriers, where no
//! shard can write the counters. Reading `completed` after the drain
//! barrier races the next round's phase-A timeout writes; shards then
//! disagree on the stop-run branch and one of them waits forever on a
//! barrier the others have abandoned.
//!
//! The configurations here maximize the racy window the snapshot has to
//! protect against: heavy fault delays at the maximum bound keep cells in
//! flight across many supersteps (so drain loops iterate often), while a
//! tight timeout plus a tiny retry budget makes verdict phases complete
//! requests via timeouts — the exact writes a misplaced read would race.
//! Each run must terminate (a deadlock hangs the test harness's timeout)
//! and stay bit-identical to the sequential replay.

mod common;

use rcbr_runtime::{run, run_sequential, RuntimeConfig};

fn max_delay_cfg(seed: u64) -> RuntimeConfig {
    let mut cfg = RuntimeConfig::balanced(1, 8);
    cfg.target_requests = 150;
    cfg.seed = seed;
    cfg.timeout_supersteps = 4; // tight: delayed cells overshoot it
    cfg.retry_budget = 1; // exhaustion completes requests in phase A
    cfg.audit_interval = 4;
    cfg.fault.seed = seed ^ 0xd7a1;
    cfg.fault.drop_bp = 1500; // many timeouts
    cfg.fault.delay_bp = 3000; // a third of surviving cells delayed...
    cfg.fault.max_delay = 8; // ...well past the timeout bound
    cfg
}

/// Max-delay fault scheduling with timeout-driven completions: the drain
/// loop must terminate and agree with the replay at every shard count.
#[test]
fn drain_terminates_under_max_delay_faults() {
    for seed in [3u64, 11, 42] {
        let reference = common::same_run_everywhere(&max_delay_cfg(seed));
        assert_eq!(
            reference.audit.final_drift, 0,
            "recovery leaves no residual drift (seed {seed})"
        );
    }
}

/// The degenerate corner: half of all cells are dropped — their requests
/// can only complete via a phase-A timeout verdict, the write a misplaced
/// read would race — and the other half are delayed toward the maximum,
/// stretching every drain loop across many supersteps. If any shard's
/// stop decision read `completed` outside the snapshot window, this
/// workload would hang rather than converge.
#[test]
fn drain_terminates_when_all_completions_are_timeouts() {
    let mut cfg = RuntimeConfig::balanced(2, 6);
    cfg.target_requests = 60;
    cfg.max_rounds = 200;
    cfg.timeout_supersteps = 2;
    cfg.retry_budget = 0; // first timeout exhausts: completions land in phase A
    cfg.fault.seed = 0x5eed;
    cfg.fault.dup_bp = 0;
    cfg.fault.corrupt_bp = 0;
    cfg.fault.drop_bp = 5_000; // half of all cells dropped
    cfg.fault.delay_bp = 5_000; // the other half delayed
    cfg.fault.max_delay = 6;
    let reference = run_sequential(&cfg);
    assert!(
        reference.counters.timeouts > 0,
        "the workload must actually exercise timeout verdicts"
    );
    let parallel = run(&cfg);
    assert_eq!(parallel.counters, reference.counters);
}
