//! Satellite: flash-crowd storm survival and shed determinism.
//!
//! A `x10` one-round renegotiation storm against a bounded signaling
//! queue must (a) keep the engine live — requests keep completing and
//! the run terminates, (b) shed deterministically — every counter,
//! including the new shed/brownout families, bit-identical at shard
//! counts {1, 2, 4} and against the sequential replay, and (c) settle
//! every non-shed VC — the end-of-run audit closes at zero drift. And
//! the other direction: a zero signaling budget (the default) must
//! reproduce the pre-shedding runtime exactly, storm or no storm.

mod common;

use common::same_run_everywhere;
use rcbr_runtime::{run_sequential, RuntimeConfig, StormSpec};

/// A contended storm scenario: 64 VCs on 8 switches with a per-switch
/// budget small enough that the storm window must shed, and generous
/// port headroom so shedding (not admission denial) is the binding
/// constraint.
fn storm_cfg(num_shards: usize, budget: u64, storm: Option<StormSpec>) -> RuntimeConfig {
    let mut cfg = RuntimeConfig::balanced(num_shards, 64);
    cfg.target_requests = 1_500;
    let flows_per_switch = (cfg.num_vcs * cfg.hops_per_vc) as f64 / cfg.num_switches as f64;
    cfg.port_capacity = flows_per_switch * cfg.initial_rate * 2.5;
    cfg.resync_interval = 8;
    cfg.audit_interval = 16;
    cfg.signaling_budget_per_round = budget;
    cfg.storm = storm;
    cfg
}

const X10: StormSpec = StormSpec {
    at_round: 2,
    rounds: 1,
    burst: 10,
};

#[test]
fn a_x10_storm_sheds_deterministically_and_still_settles() {
    // Determinism: the shed plan is a pure function of the per-switch
    // meeting sets, so the partition must not show.
    let reference = same_run_everywhere(&storm_cfg(1, 4, Some(X10)));
    // Live under overload: the storm shed real cells, yet requests kept
    // completing and every surviving reservation settled.
    assert!(
        reference.counters.cells_shed > 0,
        "a x10 storm against budget 4 never shed"
    );
    assert!(
        reference.counters.completed > 0,
        "the engine went dead under the storm"
    );
    assert_eq!(
        reference.audit.final_drift, 0,
        "the storm left unrepaired drift behind"
    );
    // Shed accounting is exhaustive and fate accounting still closes.
    let c = &reference.counters;
    assert_eq!(
        c.sheds_gold + c.sheds_silver + c.sheds_best_effort,
        c.cells_shed
    );
    assert_eq!(c.completed, c.accepted + c.exhausted);
}

#[test]
fn a_zero_budget_reproduces_the_unbounded_runtime_bit_for_bit() {
    // The legacy-parity claim: budget 0 must not merely shed nothing —
    // it must leave every counter exactly where the pre-shedding
    // runtime put it. The storm only widens the traffic window, so a
    // stormless budget-0 run and the defaults must agree too.
    let legacy = same_run_everywhere(&storm_cfg(1, 0, None));
    assert_eq!(legacy.counters.cells_shed, 0);
    assert_eq!(legacy.counters.pressure_rounds, 0);
    assert_eq!(legacy.counters.brownout_entries, 0);
    assert_eq!(legacy.brownout_vcs, 0);
    // An unbounded queue under a storm sheds nothing either: heavier
    // traffic alone must never trip the shed machinery.
    let stormy = run_sequential(&storm_cfg(1, 0, Some(X10)));
    assert_eq!(stormy.counters.cells_shed, 0);
    assert_eq!(stormy.counters.brownout_entries, 0);
    assert_eq!(stormy.audit.final_drift, 0);
}
