//! The stranded-recheck path, pinned to the bit.
//!
//! A VC whose route dies rechecks the topology at every round top:
//! `Topology::alive_routes` under the round's outages, with the answer
//! deciding whether it reroutes, strands, or re-arms. This test runs one
//! small configuration that takes every branch of that machinery — a
//! kill that strands the VCs ending on the dead switch for good and
//! sends the ones crossing it round a chord, a pair of link windows that
//! cut a switch off and then heal (its VCs strand, then recover), and a
//! transient crash that route liveness must ride out rather than reroute
//! around — and compares the route counters and a fingerprint of
//! `RunReport::outcome()` with what the commit before the two-stage route
//! search computed.

use rcbr_net::{CrashSpec, FaultConfig, KillSpec, LinkDownSpec};
use rcbr_runtime::{run, run_sequential, RunReport, RuntimeConfig};

/// 96 VCs on a 12-switch ring, 4-hop paths, chords `0-2` and `4-6`.
fn pinned_cfg(shards: usize) -> RuntimeConfig {
    let mut cfg = RuntimeConfig::balanced(shards, 96);
    cfg.fault = FaultConfig::transparent();
    cfg.port_capacity *= 4.0;
    cfg.target_requests = 4_000;
    cfg.backoff_base = 2;
    cfg.extra_links = vec![(0, 2), (4, 6)];
    // Switch 5 dies: VCs starting at 2 (ending on it) and at 5 strand for
    // good; those crossing it take the 4-6 chord.
    cfg.fault.kills = vec![KillSpec {
        switch: 5,
        at_superstep: 60,
    }];
    // Both ring links of switch 9 go down for a while, and no chord
    // reaches it: its VCs strand, then recover when the links heal.
    cfg.fault.link_downs = [(8, 9), (9, 10)]
        .map(|(a, b)| LinkDownSpec {
            a,
            b,
            at_superstep: 120,
            down_supersteps: 100,
        })
        .to_vec();
    // Down, not killed: no reroute.
    cfg.fault.crashes = vec![CrashSpec {
        switch: 1,
        at_superstep: 250,
        down_supersteps: 30,
    }];
    cfg
}

/// FNV-1a over the `Debug` text of the report's deterministic part.
fn digest(report: &RunReport) -> u64 {
    format!("{:?}", report.outcome())
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325u64, |d, b| {
            (d ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// The route machinery's counters, in [`PARENT_COUNTS`]' order.
fn route_counts(report: &RunReport) -> [u64; 7] {
    let c = &report.counters;
    [
        c.completed,
        c.reroutes,
        c.reroutes_committed,
        c.reroutes_denied,
        c.stranded_events,
        c.unstranded_events,
        c.teardown_cells,
    ]
}

#[test]
fn strands_recover_and_reroute_as_the_parent_commit_did() {
    let reference = run_sequential(&pinned_cfg(1));
    let c = &reference.counters;
    eprintln!(
        "rounds {} supersteps {} {:?} digest {:#018x}",
        reference.rounds,
        reference.supersteps,
        route_counts(&reference),
        digest(&reference)
    );
    assert!(
        c.stranded_events > 0,
        "the kill and the cut must strand VCs"
    );
    assert!(c.unstranded_events > 0, "the healed links must re-arm some");
    assert!(
        c.reroutes_committed > 0,
        "VCs crossing the kill must reroute"
    );
    assert_eq!(reference.audit.final_drift, 0);
    for shards in [1, 2] {
        let got = run(&pinned_cfg(shards));
        assert_eq!(route_counts(&got), PARENT_COUNTS, "{shards} shards");
        assert_eq!(digest(&got), PARENT_DIGEST, "{shards} shards");
    }
    assert_eq!(route_counts(&reference), PARENT_COUNTS, "sequential");
    assert_eq!(digest(&reference), PARENT_DIGEST, "sequential");
}

/// [`route_counts`] and [`digest`] of the run at the parent commit.
const PARENT_COUNTS: [u64; 7] = [4028, 48, 48, 0, 32, 16, 64];
const PARENT_DIGEST: u64 = 0x16ce_45cc_2bc8_85b0;
