//! Admission frontier sweep — utilization vs. loss per policy.
//!
//! Sweeps the live admission subsystem over policy x measurement window
//! x population size and records, per point, the mean port utilization
//! the policy sustained against the end-system loss it induced. The
//! faults are transparent and the ports tight, so every difference
//! between points is the admission policy's doing: `peak-rate` books
//! against raw capacity (the legacy static check), `memoryless` and
//! `chernoff-eb` move per-port booking ceilings at each measurement
//! window roll and trade a little loss for utilization — the paper's
//! Section VI frontier, measured live in the signaling plane.
//!
//! Two modes:
//!
//! * default — the full sweep; rows to stdout, frontier points to
//!   `--out <dir>/admission_frontier.json`;
//! * `--smoke` — all three policies on a small fixed instance. Each
//!   policy first proves shard-count invariance (counters, per-VC
//!   outcomes, and the admission report bit-identical at shard counts
//!   {1, 2, 4} vs. the sequential replay), then its deterministic
//!   counters are compared against the committed baseline
//!   (`results/admission_frontier_smoke_baseline.json`); any drift is a
//!   non-zero exit. Use `--update-baseline` after an *intentional*
//!   admission change.
//!
//! Usage: `admission_frontier [--seed 7] [--out results/]`
//!        `admission_frontier --smoke [--update-baseline]`

use rcbr_bench::{
    run_everywhere, smoke_gate, write_json, Args, ScenarioBuilder, ADMISSION_FAULT_SEED_SALT,
    PAPER_FAILURE_TARGET, PAPER_LOSS_TARGET,
};
use rcbr_runtime::{run, AdmissionPolicy, AdmissionReport, RunReport, RuntimeConfig};
use serde::Serialize;

/// The swept policies: the legacy static check plus both
/// measurement-based policies at the paper's QoS targets.
const POLICIES: [AdmissionPolicy; 3] = [
    AdmissionPolicy::PeakRate,
    AdmissionPolicy::Memoryless {
        target: PAPER_FAILURE_TARGET,
    },
    AdmissionPolicy::ChernoffEb {
        epsilon: PAPER_LOSS_TARGET,
    },
];

/// One frontier configuration: transparent faults (loss is the policy's
/// doing, not the fault plane's) and `headroom`x capacity over the mean
/// initial admission load, so the booking ceilings decide who gets
/// capacity. Sweeping `headroom` traces each policy's frontier from
/// starvation (1.05) to mild contention (1.5).
fn frontier_cfg(
    policy: AdmissionPolicy,
    window_supersteps: u64,
    num_vcs: usize,
    target_requests: u64,
    headroom: f64,
    seed: u64,
) -> RuntimeConfig {
    ScenarioBuilder::balanced(2, num_vcs)
        .seed(seed)
        .target_requests(target_requests)
        .transparent_faults()
        .fault_seed_salt(ADMISSION_FAULT_SEED_SALT)
        .mean_flow_capacity(headroom)
        .audit_interval(32)
        .admission(policy, window_supersteps)
        .build()
}

/// One utilization-vs-loss frontier point.
#[derive(Debug, Serialize)]
struct FrontierPoint {
    policy: String,
    window_supersteps: u64,
    num_vcs: usize,
    headroom: f64,
    target_requests: u64,
    supersteps: u64,
    completed: u64,
    accepted: u64,
    denied: u64,
    degraded_vcs: u64,
    mean_port_utilization: f64,
    overbooked_samples: u64,
    mean_source_loss: f64,
    max_source_loss: f64,
    admission: AdmissionReport,
    wall_seconds: f64,
}

fn point(cfg: &RuntimeConfig, headroom: f64, report: &RunReport) -> FrontierPoint {
    let c = &report.counters;
    FrontierPoint {
        policy: report.admission.policy.clone(),
        window_supersteps: cfg.measurement_window_supersteps,
        num_vcs: cfg.num_vcs,
        headroom,
        target_requests: cfg.target_requests,
        supersteps: report.supersteps,
        completed: c.completed,
        accepted: c.accepted,
        denied: c.denied,
        degraded_vcs: report.degraded_vcs,
        mean_port_utilization: report.admission.mean_port_utilization,
        overbooked_samples: report.admission.overbooked_samples,
        mean_source_loss: report.mean_source_loss,
        max_source_loss: report.max_source_loss,
        admission: report.admission.clone(),
        wall_seconds: report.wall_seconds,
    }
}

/// A smoke instance's deterministic counters. Everything here is a pure
/// function of the configuration — no wall-clock fields — so CI gates on
/// exact equality with the committed baseline.
#[derive(Debug, Serialize)]
struct SmokeRecord {
    policy: String,
    window_supersteps: u64,
    num_vcs: usize,
    seed: u64,
    supersteps: u64,
    completed: u64,
    accepted: u64,
    denied: u64,
    degraded_vcs: u64,
    final_drift: u64,
    admission: AdmissionReport,
}

fn run_smoke(args: &Args) -> i32 {
    let seed: u64 = args.get("seed", 7);
    let mut records = Vec::new();
    for policy in POLICIES {
        let cfg = frontier_cfg(policy, 16, 64, 2_000, 1.05, seed);
        let reference = run_everywhere(&cfg).same(policy.name());
        if policy.measures() {
            assert!(
                reference.admission.rolls > 0,
                "[{}] smoke instance never rolled a window",
                policy.name()
            );
        }
        records.push(SmokeRecord {
            policy: reference.admission.policy.clone(),
            window_supersteps: cfg.measurement_window_supersteps,
            num_vcs: cfg.num_vcs,
            seed,
            supersteps: reference.supersteps,
            completed: reference.counters.completed,
            accepted: reference.counters.accepted,
            denied: reference.counters.denied,
            degraded_vcs: reference.degraded_vcs,
            final_drift: reference.audit.final_drift,
            admission: reference.admission.clone(),
        });
    }

    smoke_gate(
        args,
        "results/admission_frontier_smoke_baseline.json",
        &records,
    )
}

fn main() {
    let args = Args::parse();
    if args.flag("smoke") {
        std::process::exit(run_smoke(&args));
    }

    let seed: u64 = args.get("seed", 7);
    let populations = [2_000usize, 10_000];
    let headrooms = [1.05f64, 1.25, 1.5];

    println!("# admission_frontier — utilization vs. loss, policy x window x population x load");
    println!(
        "{:>12} {:>7} {:>7} {:>5} {:>10} {:>9} {:>11} {:>12} {:>12} {:>8}",
        "policy",
        "window",
        "vcs",
        "load",
        "accepted",
        "denied",
        "util",
        "mean_loss",
        "max_loss",
        "rolls"
    );

    let mut points = Vec::new();
    for &num_vcs in &populations {
        // Enough requests per VC that the run spans many measurement
        // windows; the loss numbers are steady-state, not warm-up.
        let target = num_vcs as u64 * 20;
        let mut cases = vec![(AdmissionPolicy::PeakRate, 64u64)];
        for policy in &POLICIES[1..] {
            for window_supersteps in [16u64, 64] {
                cases.push((*policy, window_supersteps));
            }
        }
        for &headroom in &headrooms {
            for &(policy, window_supersteps) in &cases {
                let cfg = frontier_cfg(policy, window_supersteps, num_vcs, target, headroom, seed);
                let report = run(&cfg);
                let p = point(&cfg, headroom, &report);
                println!(
                    "{:>12} {:>7} {:>7} {:>5.2} {:>10} {:>9} {:>11.4} {:>12.3e} {:>12.3e} {:>8}",
                    p.policy,
                    p.window_supersteps,
                    p.num_vcs,
                    p.headroom,
                    p.accepted,
                    p.denied,
                    p.mean_port_utilization,
                    p.mean_source_loss,
                    p.max_source_loss,
                    p.admission.rolls
                );
                points.push(p);
            }
        }
    }

    println!("#\n# Counters and per-VC outcomes are deterministic at every shard count");
    println!("# (asserted continuously in --smoke and in the runtime's admission tests);");
    println!("# only the timings vary between reruns.");
    write_json(&args.out_dir(), "admission_frontier.json", &points);
}
