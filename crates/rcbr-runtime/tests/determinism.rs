//! Satellite: concurrency correctness under chaos.
//!
//! With a fixed seed and a fixed fault configuration — drops, delays,
//! duplicates, corruption, a switch crash/restart, and a shard-group
//! stall, all at once — running N threads x M renegotiations must yield
//! the same counters as a sequential replay of the same request log, and
//! re-running the sharded engine must be bit-identical.

mod common;

use common::same_run_everywhere;
use rcbr_net::{CrashSpec, KillSpec, StallSpec};
use rcbr_runtime::{run, run_sequential, RuntimeConfig};

/// A config small enough for tests but busy enough to exercise every
/// counter: tight capacity forces denials and rollbacks, and every fault
/// mode is armed at once.
fn contended_cfg(num_shards: usize) -> RuntimeConfig {
    let mut cfg = RuntimeConfig::balanced(num_shards, 32);
    cfg.target_requests = 4_000;
    // ~1.08x headroom over the initial admission load: grants are common
    // but upward renegotiations regularly collide.
    let flows_per_switch = (cfg.num_vcs * cfg.hops_per_vc) as f64 / cfg.num_switches as f64;
    cfg.port_capacity = flows_per_switch * cfg.initial_rate * 1.08;
    cfg.resync_interval = 8;
    cfg.audit_interval = 16;
    cfg.timeout_supersteps = 24;
    cfg.retry_budget = 3;
    cfg.backoff_base = 2;
    cfg.backoff_jitter = 3;
    cfg.fault.drop_bp = 200;
    cfg.fault.delay_bp = 150;
    cfg.fault.max_delay = 3;
    cfg.fault.dup_bp = 100;
    cfg.fault.corrupt_bp = 100;
    cfg.fault.crashes = vec![CrashSpec {
        switch: 1,
        at_superstep: 40,
        down_supersteps: 30,
    }];
    cfg.fault.stall = Some(StallSpec {
        groups: 3,
        group: 1,
        at_superstep: 25,
        supersteps: 12,
    });
    cfg
}

#[test]
fn sharded_counters_match_sequential_replay_under_chaos() {
    same_run_everywhere(&contended_cfg(1));
}

#[test]
fn same_seed_runs_are_bit_identical() {
    let a = run(&contended_cfg(4));
    let b = run(&contended_cfg(4));
    assert_eq!(a.counters, b.counters);
    assert_eq!(a.audit, b.audit);
    assert_eq!(a.latency.count, b.latency.count);
    assert_eq!(a.latency.p50.to_bits(), b.latency.p50.to_bits());
    assert_eq!(a.latency.p99.to_bits(), b.latency.p99.to_bits());
    assert_eq!(a.mean_source_loss.to_bits(), b.mean_source_loss.to_bits());
}

#[test]
fn chaotic_workload_exercises_every_path_and_recovers() {
    let report = run(&contended_cfg(2));
    let c = &report.counters;
    assert!(c.completed >= 4_000, "target not reached: {c:?}");
    assert_eq!(
        c.completed,
        c.accepted + c.exhausted,
        "fate accounting broken: {c:?}"
    );
    assert_eq!(
        report.latency.count,
        c.accepted + c.denied,
        "latency sample accounting broken: {c:?}"
    );
    assert!(c.accepted > 0, "no grants: {c:?}");
    assert!(c.denied > 0, "capacity never contended: {c:?}");
    assert!(
        c.rollbacks > 0,
        "no multi-hop denial ever rolled back: {c:?}"
    );
    assert!(
        c.rolled_back_hops >= c.rollbacks,
        "rollback hop accounting broken: {c:?}"
    );
    // Every fault mode must actually have fired.
    assert!(c.cells_dropped > 0, "no drops: {c:?}");
    assert!(c.cells_delayed > 0, "no delays: {c:?}");
    assert!(c.cells_duplicated > 0, "no duplicates: {c:?}");
    assert!(c.cells_corrupted > 0, "no corruption: {c:?}");
    assert!(
        c.crash_killed > 0,
        "the crash window never killed a cell: {c:?}"
    );
    // ... and the recovery machinery must have answered.
    assert!(c.timeouts > 0, "killed cells never timed out: {c:?}");
    assert!(c.retries > 0, "no retries: {c:?}");
    assert!(c.resyncs > 0, "no resync cells injected: {c:?}");
    assert!(c.resync_repairs > 0, "drift never repaired: {c:?}");
    assert!(c.audit_runs > 0, "the periodic auditor never ran: {c:?}");
    assert_eq!(
        report.audit.final_drift, 0,
        "end-of-run recovery left residual drift: {:?}",
        report.audit
    );
    assert_eq!(report.audit.port_inconsistencies, 0);
    assert!(report.latency.count > 0 && report.latency.p99 > 0.0);
}

#[test]
fn different_seeds_diverge() {
    let mut a_cfg = contended_cfg(2);
    let mut b_cfg = contended_cfg(2);
    a_cfg.seed = 1;
    b_cfg.seed = 2;
    let a = run(&a_cfg);
    let b = run(&b_cfg);
    assert_ne!(
        a.counters, b.counters,
        "different seeds should produce different workloads"
    );
}

/// The twin-ghost ordering regression. At 5000 VCs under the default fault
/// mix a primary is now and then duplicated at two hops, and the two
/// ghosts — same `(seq, salt)`, different `origin` — meet at one switch in
/// one superstep. Sorting on `(seq, salt)` alone left their order to the
/// unstable sort, i.e. to what else was in the batch, i.e. to the
/// partition.
#[test]
fn twin_ghosts_process_in_the_same_order_at_every_shard_count() {
    let mut cfg = RuntimeConfig::balanced(1, 5000);
    let flows_per_switch = (cfg.num_vcs * cfg.hops_per_vc) as f64 / cfg.num_switches as f64;
    cfg.port_capacity = flows_per_switch * cfg.initial_rate * 2.5;
    cfg.target_requests = 100_000;
    cfg.seed = 7;
    same_run_everywhere(&cfg);
}

/// Phase B steps the Settled VCs of a shard `LANES` (4) abreast. VC counts
/// that never fill a shard's last group — and leave some shards with
/// fewer VCs than lanes, or none — under the default fault mix plus one
/// kill, so that Settled, rerouting and stranded runners mix inside a
/// group: which VCs share a group depends on the partition and must not
/// show.
#[test]
fn ragged_lane_groups_are_shard_invariant() {
    for num_vcs in [1usize, 3, 5, 13] {
        let mut cfg = RuntimeConfig::balanced(1, num_vcs);
        // A stranded VC completes nothing more: bound by rounds.
        cfg.max_rounds = 300;
        cfg.extra_links = vec![(2, 4)];
        cfg.fault.kills = vec![KillSpec {
            switch: 3,
            at_superstep: 40,
        }];
        let reference = same_run_everywhere(&cfg);
        assert!(
            reference.counters.stranded_events > 0,
            "{num_vcs} VCs: VC 0 ends on the killed switch"
        );
        assert_eq!(reference.counters.reroutes > 0, num_vcs > 1);
    }
}

/// A run stops on the `completed` total it reads in a drain window, and
/// shards count into tallies of their own that are folded into the shared
/// counters only at the end of a round top and of a superstep's hop loop.
/// A fold that came late — after the barrier the read sits behind — would
/// hide the last completions from that read and let the run go one round
/// too far, at some shard counts and not at others. Two runs whose target
/// is met exactly at a fold point: by grants delivered in a round's last
/// superstep, and by retry budgets exhausted in phase A of a round top
/// (every cell dropped, so timeouts are all there is).
#[test]
fn a_target_met_at_a_tally_fold_stops_every_driver_in_the_same_round() {
    let calm = || {
        let mut cfg = RuntimeConfig::balanced(1, 32);
        cfg.fault = rcbr_net::FaultConfig::transparent();
        cfg.port_capacity *= 2.0;
        cfg
    };
    let black_hole = || {
        let mut cfg = calm();
        cfg.fault.drop_bp = rcbr_net::FAULT_BP_SCALE;
        cfg.timeout_supersteps = 3;
        cfg.retry_budget = 1;
        cfg.backoff_base = 1;
        cfg
    };
    let cases: [(&str, &dyn Fn() -> RuntimeConfig); 2] =
        [("grants", &calm), ("exhaustions", &black_hole)];
    for (what, base) in cases {
        // The completions of exactly `rounds` rounds, the last of which
        // added some.
        let capped = |rounds| {
            let mut cfg = base();
            cfg.target_requests = u64::MAX;
            cfg.max_rounds = rounds;
            run_sequential(&cfg)
        };
        let mut before = capped(11);
        let mut at = capped(12);
        while at.counters.completed == before.counters.completed {
            assert!(at.rounds < 400, "{what}: nothing ever completes");
            before = at;
            at = capped(before.rounds + 1);
        }
        let c = &at.counters;
        if what == "grants" {
            assert_eq!((c.accepted, c.exhausted), (c.completed, 0), "{what}");
            // An all-zero fault plan and no signaling budget lose nothing.
            let lost = c.cells_dropped
                + c.cells_delayed
                + c.cells_duplicated
                + c.cells_corrupted
                + c.crash_killed
                + c.cells_link_killed
                + c.timeouts
                + c.cells_shed;
            assert_eq!(lost, 0, "{c:?}");
        } else {
            assert_eq!((c.accepted, c.exhausted), (0, c.completed), "{what}");
        }
        let mut cfg = base();
        cfg.target_requests = c.completed;
        let stops = |r: &rcbr_runtime::RunReport| (r.rounds, r.supersteps, r.counters.completed);
        assert_eq!(stops(&same_run_everywhere(&cfg)), stops(&at), "{what}");
    }
}

/// One hop per VC and room for 8.5 base rates per port: 65 VCs overflow a
/// switch that only one of the 2 shards owns.
fn one_shard_overflows_cfg() -> RuntimeConfig {
    let mut cfg = RuntimeConfig::balanced(2, 65);
    cfg.hops_per_vc = 1;
    cfg.port_capacity = 8.5 * cfg.initial_rate;
    cfg.target_requests = 100;
    cfg
}

/// A set-up that overflows only one shard's switches used to panic inside
/// that worker and leave the others on the barrier forever. `run` must
/// raise it on the caller instead; the watchdog turns a regression into a
/// failure rather than a hung test run.
#[test]
#[should_panic(expected = "raise port_capacity")]
fn initial_admission_overflow_on_one_shard_panics_instead_of_hanging() {
    let cfg = one_shard_overflows_cfg();
    let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
    std::thread::spawn(move || {
        if done_rx.recv_timeout(std::time::Duration::from_secs(20))
            == Err(std::sync::mpsc::RecvTimeoutError::Timeout)
        {
            eprintln!("run() hung on a failed set-up");
            std::process::exit(1);
        }
    });
    let _done = done_tx; // dropped when `run` unwinds, releasing the watchdog
    run(&cfg);
}

#[test]
#[should_panic(expected = "raise port_capacity")]
fn initial_admission_overflow_panics_in_the_sequential_driver() {
    run_sequential(&one_shard_overflows_cfg());
}
