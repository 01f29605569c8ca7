//! Flash-crowd storm sweep — overload protection under renegotiation storms.
//!
//! Sweeps storm intensity x signaling budget x priority-class mix and
//! records, per point, how the bounded signaling queues coped: cells
//! shed per class, brownout traffic, pressure rounds, and whether the
//! run still settled every non-shed VC (`final_drift == 0`). The faults
//! are transparent, so every shed is the storm's doing: a `burst x`
//! storm window multiplies every VC's renegotiation traffic for two
//! rounds, and the per-switch budget decides who gets through —
//! deterministically, by `(priority_class, seq, salt)`, never by
//! arrival order.
//!
//! Two modes:
//!
//! * default — the full sweep; rows to stdout, points to
//!   `--out <dir>/storm_sweep.json`;
//! * `--smoke` — a calm and a `x10`-storm instance on a small fixed
//!   configuration. Each first proves shard-count invariance (counters
//!   and per-VC outcomes bit-identical at shard counts {1, 2, 4} vs.
//!   the sequential replay — the shed plans are pure functions of the
//!   meeting sets, so shedding must not break this), then the
//!   deterministic counters are compared against the committed baseline
//!   (`results/storm_smoke_baseline.json`); any drift is a non-zero
//!   exit. Use `--update-baseline` after an *intentional* change to the
//!   overload-protection plane.
//!
//! Usage: `storm [--seed 7] [--out results/]`
//!        `storm --smoke [--update-baseline]`

use rcbr_bench::{
    run_everywhere, smoke_gate, write_json, Args, ScenarioBuilder, STORM_FAULT_SEED_SALT,
};
use rcbr_runtime::{run, RunReport, RuntimeConfig, StormSpec};
use serde::Serialize;

/// The swept storm intensities (`1` = no storm window at all).
const BURSTS: [u64; 3] = [1, 3, 10];
/// The swept per-switch signaling budgets (`0` = unbounded, the legacy
/// behavior — the control row every budgeted column is read against).
const BUDGETS: [u64; 4] = [0, 2, 4, 8];
/// The swept `(gold_pct, silver_pct)` class mixes: all best-effort,
/// the balanced default, and a gold-heavy plane.
const MIXES: [(u32, u32); 3] = [(0, 0), (25, 25), (50, 30)];

/// One storm configuration: transparent faults and modest headroom, so
/// the signaling budget (not the fault plane or port capacity) is the
/// binding constraint during the storm window.
fn storm_cfg(burst: u64, budget: u64, gold_pct: u32, silver_pct: u32, seed: u64) -> RuntimeConfig {
    let mut cfg = ScenarioBuilder::balanced(2, 64)
        .seed(seed)
        .target_requests(2_000)
        .transparent_faults()
        .fault_seed_salt(STORM_FAULT_SEED_SALT)
        .mean_flow_capacity(2.5)
        .audit_interval(32)
        .build();
    cfg.signaling_budget_per_round = budget;
    cfg.gold_pct = gold_pct;
    cfg.silver_pct = silver_pct;
    if burst > 1 {
        cfg.storm = Some(StormSpec {
            at_round: 2,
            rounds: 2,
            burst,
        });
    }
    cfg.validate();
    cfg
}

/// One storm sweep point.
#[derive(Debug, Serialize)]
struct StormPoint {
    burst: u64,
    signaling_budget_per_round: u64,
    gold_pct: u32,
    silver_pct: u32,
    supersteps: u64,
    completed: u64,
    accepted: u64,
    denied: u64,
    exhausted: u64,
    cells_shed: u64,
    sheds_gold: u64,
    sheds_silver: u64,
    sheds_best_effort: u64,
    brownout_entries: u64,
    brownout_exits: u64,
    brownout_vcs: u64,
    pressure_rounds: u64,
    retries: u64,
    degraded_vcs: u64,
    final_drift: u64,
    mean_source_loss: f64,
    max_source_loss: f64,
    wall_seconds: f64,
}

fn point(cfg: &RuntimeConfig, burst: u64, report: &RunReport) -> StormPoint {
    let c = &report.counters;
    StormPoint {
        burst,
        signaling_budget_per_round: cfg.signaling_budget_per_round,
        gold_pct: cfg.gold_pct,
        silver_pct: cfg.silver_pct,
        supersteps: report.supersteps,
        completed: c.completed,
        accepted: c.accepted,
        denied: c.denied,
        exhausted: c.exhausted,
        cells_shed: c.cells_shed,
        sheds_gold: c.sheds_gold,
        sheds_silver: c.sheds_silver,
        sheds_best_effort: c.sheds_best_effort,
        brownout_entries: c.brownout_entries,
        brownout_exits: c.brownout_exits,
        brownout_vcs: report.brownout_vcs,
        pressure_rounds: c.pressure_rounds,
        retries: c.retries,
        degraded_vcs: report.degraded_vcs,
        final_drift: report.audit.final_drift,
        mean_source_loss: report.mean_source_loss,
        max_source_loss: report.max_source_loss,
        wall_seconds: report.wall_seconds,
    }
}

/// A smoke instance's deterministic counters — no wall-clock fields, so
/// CI gates on exact equality with the committed baseline.
#[derive(Debug, Serialize)]
struct SmokeRecord {
    burst: u64,
    signaling_budget_per_round: u64,
    gold_pct: u32,
    silver_pct: u32,
    seed: u64,
    supersteps: u64,
    completed: u64,
    accepted: u64,
    denied: u64,
    exhausted: u64,
    cells_shed: u64,
    sheds_gold: u64,
    sheds_silver: u64,
    sheds_best_effort: u64,
    brownout_entries: u64,
    brownout_exits: u64,
    brownout_vcs: u64,
    pressure_rounds: u64,
    degraded_vcs: u64,
    final_drift: u64,
}

fn smoke_record(cfg: &RuntimeConfig, burst: u64, seed: u64, r: &RunReport) -> SmokeRecord {
    let c = &r.counters;
    SmokeRecord {
        burst,
        signaling_budget_per_round: cfg.signaling_budget_per_round,
        gold_pct: cfg.gold_pct,
        silver_pct: cfg.silver_pct,
        seed,
        supersteps: r.supersteps,
        completed: c.completed,
        accepted: c.accepted,
        denied: c.denied,
        exhausted: c.exhausted,
        cells_shed: c.cells_shed,
        sheds_gold: c.sheds_gold,
        sheds_silver: c.sheds_silver,
        sheds_best_effort: c.sheds_best_effort,
        brownout_entries: c.brownout_entries,
        brownout_exits: c.brownout_exits,
        brownout_vcs: r.brownout_vcs,
        pressure_rounds: c.pressure_rounds,
        degraded_vcs: r.degraded_vcs,
        final_drift: r.audit.final_drift,
    }
}

fn run_smoke(args: &Args) -> i32 {
    let seed: u64 = args.get("seed", 7);
    // Three instances: a calm legacy run, a x10 storm against unbounded
    // queues (sheds nothing — heavier traffic alone must not change the
    // shed counters), and the headline x10 storm against a budget of 4.
    let instances: [(u64, u64); 3] = [(1, 0), (10, 0), (10, 4)];
    let mut records = Vec::new();
    for (burst, budget) in instances {
        let cfg = storm_cfg(burst, budget, 25, 25, seed);
        let label = format!("burst={burst} budget={budget}");
        // Shedding must not show the partition: the shed plans are pure
        // functions of the per-switch meeting sets.
        let reference = run_everywhere(&cfg).same(&label);
        assert_eq!(
            reference.audit.final_drift, 0,
            "[{label}] the storm left unrepaired drift behind"
        );
        if budget == 0 {
            assert_eq!(
                reference.counters.cells_shed, 0,
                "[{label}] an unbounded queue shed cells"
            );
        } else {
            assert!(
                reference.counters.cells_shed > 0,
                "[{label}] a x{burst} storm against budget {budget} never shed"
            );
            assert!(
                reference.counters.completed > 0,
                "[{label}] the engine went dead under the storm"
            );
        }
        records.push(smoke_record(&cfg, burst, seed, &reference));
    }

    smoke_gate(args, "results/storm_smoke_baseline.json", &records)
}

fn main() {
    let args = Args::parse();
    if args.flag("smoke") {
        std::process::exit(run_smoke(&args));
    }

    let seed: u64 = args.get("seed", 7);
    println!("# storm — flash-crowd survival, burst x budget x class mix");
    println!(
        "{:>6} {:>7} {:>7} {:>10} {:>9} {:>9} {:>7} {:>7} {:>9} {:>9} {:>9} {:>6}",
        "burst",
        "budget",
        "mix",
        "completed",
        "accepted",
        "shed",
        "gold",
        "silver",
        "besteff",
        "brownout",
        "pressure",
        "drift"
    );

    let mut points = Vec::new();
    for &burst in &BURSTS {
        for &budget in &BUDGETS {
            for &(gold, silver) in &MIXES {
                let cfg = storm_cfg(burst, budget, gold, silver, seed);
                let report = run(&cfg);
                let p = point(&cfg, burst, &report);
                println!(
                    "{:>6} {:>7} {:>3}/{:<3} {:>10} {:>9} {:>9} {:>7} {:>7} {:>9} {:>4}/{:<4} {:>9} {:>6}",
                    p.burst,
                    p.signaling_budget_per_round,
                    p.gold_pct,
                    p.silver_pct,
                    p.completed,
                    p.accepted,
                    p.cells_shed,
                    p.sheds_gold,
                    p.sheds_silver,
                    p.sheds_best_effort,
                    p.brownout_entries,
                    p.brownout_exits,
                    p.pressure_rounds,
                    p.final_drift
                );
                assert_eq!(
                    p.final_drift, 0,
                    "burst {burst} budget {budget} left drift behind"
                );
                points.push(p);
            }
        }
    }

    println!("#\n# Shedding is deterministic: counters are bit-identical at every shard");
    println!("# count and against the sequential replay (asserted in --smoke and in the");
    println!("# runtime's storm tests); only the timings vary between reruns.");
    write_json(&args.out_dir(), "storm_sweep.json", &points);
}
