//! Survivable-signaling integration tests: permanent kills, link flaps,
//! lease expiry — always with the bit-identity contract (counters equal
//! across shard counts and the sequential replay) and a clean end-of-run
//! audit (`final_drift == 0`).

mod common;

use common::same_run_everywhere;
use rcbr_net::{FaultConfig, KillSpec, LinkDownSpec};
use rcbr_runtime::{run, run_sequential, RuntimeConfig};

/// A quiet (no random cell faults) base scenario with enough capacity
/// that rerouted load never causes denials — failures come only from the
/// scheduled topology events each test adds.
fn survivable_cfg(num_vcs: usize) -> RuntimeConfig {
    let mut cfg = RuntimeConfig::balanced(4, num_vcs);
    cfg.fault = FaultConfig::transparent();
    cfg.port_capacity *= 8.0;
    cfg.target_requests = 1_500;
    cfg
}

#[test]
fn permanent_kill_reroutes_survivors_and_strands_endpoint_vcs() {
    let mut cfg = survivable_cfg(16); // 8 switches, 4-hop paths
    cfg.extra_links = vec![(2, 4)];
    cfg.fault.kills = vec![KillSpec {
        switch: 3,
        at_superstep: 40,
    }];
    let r = same_run_everywhere(&cfg);

    assert!(r.counters.reroutes_committed > 0, "survivors must reroute");
    assert!(r.counters.stranded_events > 0, "endpoint VCs must strand");
    assert_eq!(r.counters.unstranded_events, 0, "kills are permanent");
    assert!(r.counters.teardown_cells > 0);
    assert_eq!(r.audit.final_drift, 0);
    assert_eq!(r.audit.port_inconsistencies, 0);
    // Torn-down VCs leave only zero-rate stubs behind: anything the
    // end-of-run audit reclaims off-route must hold no bandwidth.
    assert_eq!(r.audit.off_route_residue, 0);

    for vc in &r.vcs {
        let start = vc.vci as usize % 8;
        let endpoint_killed = start == 3 || start == 0;
        if endpoint_killed {
            // src == 3 (vci % 8 == 3) or dst == 3 (start 0 -> 0,1,2,3):
            // no alternate path can avoid a dead endpoint.
            assert!(vc.degraded, "VC {} lost an endpoint", vc.vci);
            assert_eq!(vc.believed, 0.0);
            assert!(vc.route.is_empty());
        } else {
            assert!(
                !vc.route.is_empty() && !vc.route.contains(&3),
                "VC {} must end on a live route, got {:?}",
                vc.vci,
                vc.route
            );
            assert!(vc.believed > 0.0);
        }
    }
}

#[test]
fn link_flap_reroutes_around_the_outage_without_stranding() {
    let mut cfg = survivable_cfg(16);
    // Chords covering both path families that cross ring link (1, 2).
    cfg.extra_links = vec![(1, 3), (0, 2)];
    // Two flapping windows on the same link.
    cfg.fault.link_downs = vec![
        LinkDownSpec {
            a: 1,
            b: 2,
            at_superstep: 40,
            down_supersteps: 120,
        },
        LinkDownSpec {
            a: 1,
            b: 2,
            at_superstep: 400,
            down_supersteps: 120,
        },
    ];
    let r = same_run_everywhere(&cfg);

    assert!(
        r.counters.reroutes_committed > 0,
        "flapped VCs must reroute"
    );
    assert_eq!(
        r.counters.stranded_events, 0,
        "a chord detour always survives the flap"
    );
    assert_eq!(r.audit.final_drift, 0);
    assert_eq!(r.audit.off_route_residue, 0);
    for vc in &r.vcs {
        assert!(!vc.route.is_empty(), "no VC loses service to a link flap");
        assert!(vc.believed > 0.0);
        assert!(
            !vc.route
                .windows(2)
                .any(|w| (w[0] == 1 && w[1] == 2) || (w[0] == 2 && w[1] == 1))
                || r.counters.cells_link_killed == 0,
            "VC {} still crosses the flapped link it was rerouted off",
            vc.vci
        );
    }
}

/// Satellite regression: a VC torn down mid-run (stranded by a kill with
/// no surviving alternate path) must contribute zero to every port's
/// reserved sum at end of run — the audit sees only zero-rate stubs
/// off-route and no residual drift anywhere.
#[test]
fn mid_run_teardown_leaves_zero_reserved_contribution() {
    let mut cfg = survivable_cfg(8); // 8 switches, one VC per start
    cfg.num_shards = 1;
    // No chords: VCs 0 (dst = 3... start 0) — recompute: path_of(v) is 4
    // consecutive switches from v % 8. Killing switch 0 strands VC 0
    // (src) and VC 5 (dst = 5+3 = 0); VCs 6 and 7 cross 0 internally and
    // reroute the long way around the ring.
    cfg.fault.kills = vec![KillSpec {
        switch: 0,
        at_superstep: 30,
    }];
    let r = same_run_everywhere(&cfg);

    for vc in &r.vcs {
        match vc.vci {
            0 | 5 => {
                assert!(vc.degraded, "VC {} lost an endpoint", vc.vci);
                assert_eq!(vc.believed, 0.0, "torn down VCs hold nothing");
                assert!(vc.route.is_empty());
            }
            6 | 7 => {
                assert!(
                    !vc.route.contains(&0),
                    "VC {} must route around the kill, got {:?}",
                    vc.vci,
                    vc.route
                );
                assert!(vc.believed > 0.0);
            }
            _ => {
                assert!(vc.believed > 0.0);
                assert!(!vc.route.is_empty());
            }
        }
    }
    // The torn-down VCs' former reservations are gone: every reclaimed
    // off-route stub held zero bandwidth, and the drift + port-sum
    // cross-checks both close at zero.
    assert_eq!(r.audit.off_route_residue, 0);
    assert_eq!(r.audit.final_drift, 0);
    assert_eq!(r.audit.port_inconsistencies, 0);
    assert!(r.counters.stranded_events >= 2);
}

/// Under genuine capacity pressure the reroute engine may be denied and
/// must stay deterministic: whatever mix of committed reroutes,
/// break-before-make fallbacks, and clean stranding results, it is
/// bit-identical at every shard count and the audit still closes at zero.
#[test]
fn capacity_pressure_reroutes_stay_deterministic_and_clean() {
    let mut cfg = RuntimeConfig::balanced(4, 8);
    cfg.fault = FaultConfig::transparent();
    // No chords: the only detour around a killed switch is the long way
    // round the ring — through switches the VC never reserved on, whose
    // ports have almost no headroom. Make-before-break gets denied there,
    // the break-before-make fallback retries, and a VC that still cannot
    // fit must strand cleanly.
    let flows_per_switch = (cfg.num_vcs * cfg.hops_per_vc) as f64 / cfg.num_switches as f64;
    cfg.port_capacity = flows_per_switch * cfg.initial_rate * 1.05;
    cfg.target_requests = 1_000;
    cfg.fault.kills = vec![KillSpec {
        switch: 0,
        at_superstep: 40,
    }];
    let r = same_run_everywhere(&cfg);

    assert!(
        r.counters.reroutes_denied > 0,
        "full detour ports must deny at least one walk: {:?}",
        r.counters
    );
    assert_eq!(r.audit.final_drift, 0);
    assert_eq!(r.audit.port_inconsistencies, 0);
    for vc in &r.vcs {
        // Every VC ends in exactly one of the two sanctioned states:
        // holding a live route, or cleanly torn down — never half-done.
        if vc.route.is_empty() {
            assert_eq!(vc.believed, 0.0, "VC {} holds rate without a route", vc.vci);
            assert!(vc.degraded);
        } else {
            assert!(!vc.route.contains(&0), "VC {} routes over the kill", vc.vci);
        }
    }
}

/// Leases: when every RM cell is lost, refreshes stop and every hop
/// reclaims its bandwidth use-it-or-lose-it; the end-of-run audit then
/// rebuilds the believed rates and still closes at zero drift.
#[test]
fn lease_expiry_reclaims_when_rm_cells_stop_arriving() {
    let mut cfg = RuntimeConfig::balanced(2, 8);
    cfg.fault = FaultConfig::transparent();
    cfg.fault.drop_bp = 10_000; // every cell dies at its first hop
    cfg.lease_supersteps = 48;
    cfg.retry_budget = 1;
    cfg.timeout_supersteps = 8;
    cfg.target_requests = 200;
    let r = same_run_everywhere(&cfg);

    assert!(
        r.counters.leases_expired > 0,
        "stopped refreshes must expire leases"
    );
    assert!(r.counters.timeouts > 0);
    assert_eq!(r.audit.final_drift, 0);
    assert_eq!(r.audit.port_inconsistencies, 0);
}

/// Leases stay inert while disabled: the flag default (0) reproduces the
/// legacy counters bit for bit.
#[test]
fn disabled_leases_change_nothing() {
    let mut cfg = RuntimeConfig::balanced(2, 8);
    cfg.target_requests = 400;
    let base = run_sequential(&cfg);
    assert_eq!(base.counters.leases_expired, 0);
    assert_eq!(base.counters.reroutes, 0);
    let sharded = run(&cfg);
    assert_eq!(sharded.counters, base.counters);
}
