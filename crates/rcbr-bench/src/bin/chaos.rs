//! Chaos sweep — recovery behavior vs. fault intensity.
//!
//! Sweeps the deterministic fault plane's intensity against the recovery
//! knobs (resync cadence, retry budget, backoff base) and records, per
//! cell, what the signaling plane did about it: grants, denials, retries,
//! timeouts, degraded VCs, and drift detected/repaired. A determinism
//! probe then arms *every* fault mode at once — drop + delay + duplicate +
//! corrupt + a switch crash/restart + a shard-group stall — and checks
//! that 1/2/4-shard runs and the sequential replay are still the same
//! run (`RunReport::outcome()` equal), with zero residual drift.
//!
//! A second mode, `--survivability`, soaks the *survivable* signaling
//! plane instead: one permanent switch kill plus two flapping links over
//! a chorded ring, leases enabled, no random cell faults. It asserts the
//! headline survivability contract — VCs with a surviving alternate path
//! end non-degraded on valid live routes, no-path VCs end cleanly
//! degraded (torn down, never deadlocked), the end-of-run audit closes at
//! zero drift, and the run is the same run at shard counts {1, 2, 4} and
//! on the sequential replay — and writes `chaos_survivability.json`.
//!
//! Usage: `chaos [--survivability] [--seed 7] [--out results/]`
//!        `chaos --smoke [--survivability] [--update-baseline]`
//! The full sweep writes `chaos_sweep.json`. `--smoke` runs a small
//! subset (for CI) and writes nothing: its record — no wall-clock field in
//! it — is gated against the committed `results/chaos_smoke.json`
//! (`chaos_survivability_smoke.json`); any drift is a non-zero exit.

use rcbr_bench::{
    run_everywhere, smoke_gate, write_json, Args, ScenarioBuilder, CHAOS_FAULT_SEED_SALT,
};
use rcbr_net::StallSpec;
use rcbr_runtime::{run, RuntimeConfig};
use serde::Serialize;
use std::path::PathBuf;

/// One (fault intensity x recovery parameters) sweep cell.
#[derive(Debug, Serialize)]
struct Cell {
    /// Total fault probability in basis points, split 40% drop / 30%
    /// delay / 15% duplicate / 15% corrupt.
    intensity_bp: u32,
    resync_interval: u64,
    retry_budget: u32,
    backoff_base: u64,
    completed: u64,
    accepted: u64,
    denied: u64,
    retries: u64,
    timeouts: u64,
    exhausted: u64,
    degraded_vcs: u64,
    cells_dropped: u64,
    cells_delayed: u64,
    cells_duplicated: u64,
    cells_corrupted: u64,
    resync_repairs: u64,
    audit_drift: u64,
    drift_repaired: u64,
    final_drift: u64,
    mean_source_loss: f64,
}

/// The all-modes-at-once determinism check.
#[derive(Debug, Serialize)]
struct Probe {
    shard_counts: Vec<usize>,
    counters_identical_with_sequential: bool,
    final_drift_zero: bool,
    completed: u64,
}

#[derive(Debug, Serialize)]
struct Report {
    smoke: bool,
    seed: u64,
    requests_per_cell: u64,
    total_requests: u64,
    cells: Vec<Cell>,
    probe: Probe,
}

/// (resync_interval, retry_budget, backoff_base).
type Recovery = (u64, u32, u64);

fn sweep_cfg(seed: u64, target: u64, intensity_bp: u32) -> RuntimeConfig {
    // Capacity tight enough that contention and fault recovery interact,
    // loose enough that grants stay common.
    ScenarioBuilder::balanced(2, 64)
        .seed(seed)
        .target_requests(target)
        .mean_flow_capacity(2.0)
        .audit_interval(32)
        .fault_seed_salt(CHAOS_FAULT_SEED_SALT)
        .intensity_bp(intensity_bp)
        .build()
}

fn cell(cfg: &RuntimeConfig, intensity_bp: u32) -> Cell {
    let report = run(cfg);
    let c = &report.counters;
    assert_eq!(
        c.completed,
        c.accepted + c.exhausted,
        "fate accounting broken: {c:?}"
    );
    assert_eq!(
        report.audit.final_drift, 0,
        "recovery left residual drift: {:?}",
        report.audit
    );
    Cell {
        intensity_bp,
        resync_interval: cfg.resync_interval,
        retry_budget: cfg.retry_budget,
        backoff_base: cfg.backoff_base,
        completed: c.completed,
        accepted: c.accepted,
        denied: c.denied,
        retries: c.retries,
        timeouts: c.timeouts,
        exhausted: c.exhausted,
        degraded_vcs: report.degraded_vcs,
        cells_dropped: c.cells_dropped,
        cells_delayed: c.cells_delayed,
        cells_duplicated: c.cells_duplicated,
        cells_corrupted: c.cells_corrupted,
        resync_repairs: c.resync_repairs,
        audit_drift: c.audit_drift,
        drift_repaired: report.audit.drift_repaired,
        final_drift: report.audit.final_drift,
        mean_source_loss: report.mean_source_loss,
    }
}

/// Arm every fault mode at once and compare 1/2/4 shards + sequential.
fn probe(seed: u64, target: u64) -> Probe {
    let cfg = ScenarioBuilder::balanced(2, 64)
        .seed(seed)
        .target_requests(target)
        .mean_flow_capacity(2.0)
        .audit_interval(32)
        .fault_seed_salt(CHAOS_FAULT_SEED_SALT)
        .intensity_bp(500)
        .timeout_supersteps(24)
        .crash(1, 40, 30)
        .stall(StallSpec {
            groups: 3,
            group: 1,
            at_superstep: 25,
            supersteps: 12,
        })
        .build();

    let ex = run_everywhere(&cfg);
    let shard_counts = ex.sharded.iter().map(|(shards, ..)| *shards).collect();
    let reference = ex.same("all-modes probe");
    assert_eq!(
        reference.audit.final_drift, 0,
        "the all-modes probe left residual drift"
    );
    Probe {
        shard_counts,
        counters_identical_with_sequential: true,
        final_drift_zero: true,
        completed: reference.counters.completed,
    }
}

/// What the survivability soak measured and asserted.
#[derive(Debug, Serialize)]
struct SurvivabilityReport {
    smoke: bool,
    seed: u64,
    target_requests: u64,
    killed_switch: usize,
    flapped_links: Vec<(usize, usize)>,
    supersteps: u64,
    completed: u64,
    reroutes: u64,
    reroutes_committed: u64,
    reroutes_denied: u64,
    teardown_cells: u64,
    leases_expired: u64,
    cells_link_killed: u64,
    crash_killed: u64,
    stranded_events: u64,
    unstranded_events: u64,
    degraded_vcs: u64,
    surviving_vcs: u64,
    final_drift: u64,
    off_route_residue: u64,
    counters_identical_with_sequential: bool,
}

/// The survivability soak: a chorded 8-ring under one permanent kill and
/// two flapping links, with per-hop leases armed. Every departure from
/// the survivability contract is a panic, so CI fails loudly.
fn survivability(seed: u64, smoke: bool) -> SurvivabilityReport {
    // The scenario lives in the library so the admission parity tests can
    // replay the exact committed configuration.
    let scenario = rcbr_bench::survivability_scenario(seed, smoke);
    let (cfg, killed, flapped) = (scenario.cfg, scenario.killed_switch, scenario.flapped_links);

    let reference = run_everywhere(&cfg).same("survivability soak");
    assert_eq!(reference.audit.final_drift, 0, "audit must close at zero");
    assert_eq!(
        reference.audit.off_route_residue, 0,
        "torn-down VCs must leave no bandwidth behind"
    );
    assert!(reference.counters.reroutes_committed > 0, "nobody rerouted");
    assert!(reference.counters.stranded_events > 0, "nobody stranded");

    // Per-VC contract: a VC whose endpoint died has no alternate path and
    // must end cleanly degraded holding nothing; everyone else must end
    // non-degraded on a valid, live route.
    let topo = cfg.topology();
    let mut surviving = 0u64;
    for vc in &reference.vcs {
        let endpoint_killed =
            vc.vci as usize % 8 == killed || (vc.vci as usize + cfg.hops_per_vc - 1) % 8 == killed;
        if endpoint_killed {
            assert!(vc.degraded, "VC {} lost an endpoint, must degrade", vc.vci);
            assert_eq!(vc.believed, 0.0, "a stranded VC holds nothing");
            assert!(vc.route.is_empty());
        } else {
            assert!(!vc.degraded, "VC {} had an alternate path", vc.vci);
            assert!(vc.believed > 0.0);
            assert!(
                !vc.route.contains(&killed),
                "VC {} routes over the kill",
                vc.vci
            );
            assert!(
                vc.route
                    .windows(2)
                    .all(|w| topo.links(w[0]).iter().any(|l| l.to == w[1])),
                "VC {} ended on a non-route {:?}",
                vc.vci,
                vc.route
            );
        }
        if !vc.degraded {
            surviving += 1;
        }
    }

    let c = &reference.counters;
    SurvivabilityReport {
        smoke,
        seed,
        target_requests: cfg.target_requests,
        killed_switch: killed,
        flapped_links: flapped,
        supersteps: reference.supersteps,
        completed: c.completed,
        reroutes: c.reroutes,
        reroutes_committed: c.reroutes_committed,
        reroutes_denied: c.reroutes_denied,
        teardown_cells: c.teardown_cells,
        leases_expired: c.leases_expired,
        cells_link_killed: c.cells_link_killed,
        crash_killed: c.crash_killed,
        stranded_events: c.stranded_events,
        unstranded_events: c.unstranded_events,
        degraded_vcs: reference.degraded_vcs,
        surviving_vcs: surviving,
        final_drift: reference.audit.final_drift,
        off_route_residue: reference.audit.off_route_residue,
        counters_identical_with_sequential: true,
    }
}

fn main() {
    let args = Args::parse();
    let smoke = args.flag("smoke");
    let seed: u64 = args.get("seed", 7);
    let out = args.out_dir().or_else(|| Some(PathBuf::from("results")));

    if args.flag("survivability") {
        let report = survivability(seed, smoke);
        println!(
            "# survivability soak: {} requests, {} reroutes committed, {} stranded, \
             {} surviving VCs, final drift {}, shard-identical {}",
            report.completed,
            report.reroutes_committed,
            report.stranded_events,
            report.surviving_vcs,
            report.final_drift,
            report.counters_identical_with_sequential
        );
        if smoke {
            std::process::exit(smoke_gate(
                &args,
                "results/chaos_survivability_smoke.json",
                &report,
            ));
        }
        write_json(&out, "chaos_survivability.json", &report);
        return;
    }

    let (intensities, recoveries, target, probe_target): (&[u32], &[Recovery], u64, u64) = if smoke
    {
        (&[0, 400], &[(8, 3, 4)], 1_500, 800)
    } else {
        (
            &[0, 150, 400, 800],
            &[(8, 3, 4), (2, 3, 4), (8, 1, 4), (8, 5, 1)],
            12_000,
            4_000,
        )
    };

    println!("# Chaos sweep — fault intensity x recovery parameters, seed {seed}");
    println!(
        "{:>9} {:>6} {:>6} {:>7} {:>9} {:>8} {:>8} {:>8} {:>8} {:>9} {:>9}",
        "intensity",
        "resync",
        "budget",
        "backoff",
        "accepted",
        "denied",
        "retries",
        "timeouts",
        "degraded",
        "repaired",
        "drift_end"
    );

    let mut cells = Vec::new();
    for &bp in intensities {
        for &(resync_interval, retry_budget, backoff_base) in recoveries {
            let mut cfg = sweep_cfg(seed, target, bp);
            cfg.resync_interval = resync_interval;
            cfg.retry_budget = retry_budget;
            cfg.backoff_base = backoff_base;
            let c = cell(&cfg, bp);
            println!(
                "{:>9} {:>6} {:>6} {:>7} {:>9} {:>8} {:>8} {:>8} {:>8} {:>9} {:>9}",
                c.intensity_bp,
                c.resync_interval,
                c.retry_budget,
                c.backoff_base,
                c.accepted,
                c.denied,
                c.retries,
                c.timeouts,
                c.degraded_vcs,
                c.drift_repaired,
                c.final_drift
            );
            cells.push(c);
        }
    }

    let probe = probe(seed, probe_target);
    println!(
        "# all-modes probe over shards {:?}: counters identical = {}, final drift zero = {}",
        probe.shard_counts, probe.counters_identical_with_sequential, probe.final_drift_zero
    );

    let total: u64 = cells.iter().map(|c| c.completed).sum::<u64>() + probe.completed;
    println!("# total requests swept: {total}");

    let report = Report {
        smoke,
        seed,
        requests_per_cell: target,
        total_requests: total,
        cells,
        probe,
    };
    if smoke {
        std::process::exit(smoke_gate(&args, "results/chaos_smoke.json", &report));
    }
    write_json(&out, "chaos_sweep.json", &report);
}
