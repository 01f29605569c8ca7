//! The per-hop path, pinned to the bit.
//!
//! Every engine steps the one copy of `advance_job`, the one `VcSlot`
//! arithmetic and the one lease sweep, so agreement among them cannot see
//! a float expression rearranged or two updates swapped. This test can:
//! it runs one small configuration with everything switched on — the
//! default fault mix plus a kill, a crash, a stall and four link outages,
//! leases short enough to lapse, a signaling budget and a storm that
//! overruns it, chords to reroute over, tight capacity — and compares a
//! fingerprint of the whole deterministic `RunReport` with what the
//! commit before the switch got its VC table computed.

use rcbr_net::{CrashSpec, KillSpec, LinkDownSpec, StallSpec};
use rcbr_runtime::{run, run_sequential, AdmissionPolicy, RunReport, RuntimeConfig, StormSpec};

fn pinned_cfg(shards: usize, admission: AdmissionPolicy) -> RuntimeConfig {
    let mut cfg = RuntimeConfig::balanced(shards, 96);
    cfg.target_requests = 6_000;
    let flows_per_switch = (cfg.num_vcs * cfg.hops_per_vc) as f64 / cfg.num_switches as f64;
    cfg.port_capacity = flows_per_switch * cfg.initial_rate * 1.9;
    cfg.audit_interval = 8;
    cfg.timeout_supersteps = 24;
    cfg.lease_supersteps = 90;
    cfg.signaling_budget_per_round = 6;
    cfg.extra_links = vec![(0, 2), (4, 6), (8, 10)];
    cfg.admission = admission;
    cfg.measurement_window_supersteps = 48;
    cfg.storm = Some(StormSpec {
        at_round: 20,
        rounds: 3,
        burst: 6,
    });
    cfg.fault.kills = vec![KillSpec {
        switch: 5,
        at_superstep: 150,
    }];
    cfg.fault.crashes = vec![CrashSpec {
        switch: 9,
        at_superstep: 60,
        down_supersteps: 30,
    }];
    cfg.fault.link_downs = [
        (1, 2, 100, 90),
        (7, 6, 261, 60),
        (10, 11, 402, 45),
        (3, 2, 523, 70),
    ]
    .map(|(a, b, at_superstep, down_supersteps)| LinkDownSpec {
        a,
        b,
        at_superstep,
        down_supersteps,
    })
    .to_vec();
    cfg.fault.stall = Some(StallSpec {
        groups: 3,
        group: 1,
        at_superstep: 25,
        supersteps: 12,
    });
    cfg
}

/// FNV-1a over the `Debug` text of everything but the wall-clock and
/// shard-shape fields (`f64`s print shortest-round-trip, so to the bit).
fn digest(mut report: RunReport) -> u64 {
    report.num_shards = 0;
    report.wall_seconds = 0.0;
    report.throughput_per_sec = 0.0;
    report.shards.clear();
    format!("{report:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325u64, |d, b| {
            (d ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// Under the static `PeakRate` check and under a `Memoryless` policy that
/// moves the booking ceilings, on the sequential driver and at 1, 2 and 4
/// shards.
#[test]
fn pinned_to_the_parent_commit() {
    let policies = [
        AdmissionPolicy::PeakRate,
        AdmissionPolicy::Memoryless { target: 1e-2 },
    ];
    for (policy, parent) in policies.into_iter().zip(PARENT) {
        let reference = run_sequential(&pinned_cfg(1, policy));
        let c = &reference.counters;
        eprintln!(
            "{policy:?}: rounds {} supersteps {} {c:?} {:?}",
            reference.rounds, reference.supersteps, reference.audit
        );
        let got = digest(reference);
        eprintln!("{policy:?}: {got:#018x}");
        for shards in [1, 2, 4] {
            assert_eq!(
                digest(run(&pinned_cfg(shards, policy))),
                got,
                "{shards} shards"
            );
        }
        assert_eq!(got, parent, "{policy:?}: got {got:#018x}");
    }
}

/// [`digest`] of the two runs at the parent commit.
const PARENT: [u64; 2] = [0xf6e6_ec0d_38b5_6a71, 0xbdf4_745d_d0d6_21c4];
