//! Trellis kernel performance harness.
//!
//! Sweeps the offline optimizer over rate-grid sizes `M ∈ {10, 20, 50,
//! 100}` and trace lengths, timing the data-oriented kernel against the
//! retained pre-optimization reference **in the same run, on the same
//! instances**, and recording the kernel's deterministic work counters
//! and peak arena size. The paper reports this optimization as its
//! evaluation's bottleneck: ~20 minutes at `M = 20` and "more than a day"
//! at `M = 100` (1996 hardware, full-movie traces).
//!
//! Two modes:
//!
//! * default — the full sweep; rows to stdout, JSON (with both timings,
//!   the speedup, and the counters) to `--out <dir>/trellis_bench.json`;
//! * `--smoke` — a small fixed instance whose deterministic work counters
//!   are compared against the committed baseline
//!   (`results/trellis_smoke_baseline.json`); any drift is a non-zero
//!   exit. Counters are pure functions of the algorithm and the instance
//!   — no wall-clock noise — so CI can gate on exact equality. Use
//!   `--update-baseline` after an *intentional* algorithm change.
//!
//! Usage: `trellis_bench [--frames 20000] [--seed 1] [--out results/]`
//!        `trellis_bench --smoke [--update-baseline]`

use std::time::Instant;

use rcbr_bench::{smoke_gate, write_json, Args, PAPER_BUFFER};
use rcbr_schedule::trellis::reference;
use rcbr_schedule::{CostModel, OfflineOptimizer, RateGrid, TrellisConfig, TrellisStats};
use rcbr_traffic::FrameTrace;
use serde::Serialize;

/// One benchmark instance: the paper's Fig. 6 configuration at a given
/// grid size (quantized buffer axis, drain at end).
fn paper_config(m: usize, buffer: f64) -> TrellisConfig {
    let grid = RateGrid::uniform(48_000.0, 2_400_000.0, m);
    TrellisConfig::new(grid, CostModel::from_ratio(1e6), buffer)
        .with_drain_at_end()
        .with_q_resolution(buffer / 1000.0)
}

#[derive(Debug, Serialize)]
struct SweepRow {
    m: usize,
    frames: usize,
    kernel_ms: f64,
    reference_ms: f64,
    speedup: f64,
    /// Kernel cost as raw bits — must equal the reference's exactly.
    cost_bits: u64,
    renegotiations: usize,
    stats: TrellisStats,
}

/// A smoke instance and its expected counters. The instance parameters
/// are committed alongside the counters so drift in either is visible.
#[derive(Debug, Serialize)]
struct SmokeRecord {
    m: usize,
    frames: usize,
    seed: u64,
    quantized: bool,
    cost_bits: u64,
    stats: TrellisStats,
}

fn smoke_config(m: usize, quantized: bool, buffer: f64) -> TrellisConfig {
    let cfg = paper_config(m, buffer);
    if quantized {
        cfg
    } else {
        TrellisConfig {
            q_resolution: None,
            ..cfg
        }
    }
}

/// The fixed smoke instances: one quantized paper-shaped run, one exact
/// run, both small enough for CI.
const SMOKE_CASES: [(usize, usize, u64, bool); 3] =
    [(20, 1500, 1, true), (50, 600, 2, true), (10, 400, 3, false)];

fn run_smoke(args: &Args) -> i32 {
    let mut records = Vec::new();
    for (m, frames, seed, quantized) in SMOKE_CASES {
        let trace = rcbr_bench::paper_trace(frames, seed);
        let cfg = smoke_config(m, quantized, PAPER_BUFFER);
        let (_, cost, stats) = OfflineOptimizer::new(cfg)
            .optimize_with_stats(&trace)
            .expect("smoke instance must be feasible");
        records.push(SmokeRecord {
            m,
            frames,
            seed,
            quantized,
            cost_bits: cost.to_bits(),
            stats,
        });
    }

    smoke_gate(args, "results/trellis_smoke_baseline.json", &records)
}

fn time_kernel(
    cfg: &TrellisConfig,
    trace: &FrameTrace,
) -> (f64, rcbr_schedule::Schedule, f64, TrellisStats) {
    let opt = OfflineOptimizer::new(cfg.clone());
    let start = Instant::now();
    let (schedule, cost, stats) = opt
        .optimize_with_stats(trace)
        .expect("bench instance must be feasible");
    (start.elapsed().as_secs_f64() * 1e3, schedule, cost, stats)
}

fn time_reference(cfg: &TrellisConfig, trace: &FrameTrace) -> (f64, f64) {
    let start = Instant::now();
    let (_, cost) =
        reference::optimize_with_cost(cfg, trace).expect("bench instance must be feasible");
    (start.elapsed().as_secs_f64() * 1e3, cost)
}

fn main() {
    let args = Args::parse();
    if args.flag("smoke") {
        std::process::exit(run_smoke(&args));
    }

    let frames: usize = args.get("frames", 20_000);
    let seed: u64 = args.get("seed", 1);
    let lengths = [frames / 4, frames];
    let grid_sizes = [10usize, 20, 50, 100];

    println!("# trellis_bench — kernel vs. reference, paper config (quantized, drain-at-end)");
    println!(
        "{:>5} {:>8} {:>12} {:>12} {:>8} {:>10} {:>12}",
        "M", "frames", "kernel (ms)", "ref (ms)", "speedup", "peak arena", "nodes kept"
    );

    let mut rows = Vec::new();
    for &n in &lengths {
        let trace = rcbr_bench::paper_trace(n, seed);
        for &m in &grid_sizes {
            let cfg = paper_config(m, PAPER_BUFFER);
            eprintln!("running M = {m}, frames = {n}…");
            let (kernel_ms, schedule, cost, stats) = time_kernel(&cfg, &trace);
            let (reference_ms, ref_cost) = time_reference(&cfg, &trace);
            assert_eq!(
                cost.to_bits(),
                ref_cost.to_bits(),
                "kernel and reference disagree at M = {m}, frames = {n}"
            );
            let row = SweepRow {
                m,
                frames: n,
                kernel_ms,
                reference_ms,
                speedup: reference_ms / kernel_ms,
                cost_bits: cost.to_bits(),
                renegotiations: schedule.num_renegotiations(),
                stats,
            };
            println!(
                "{:>5} {:>8} {:>12.1} {:>12.1} {:>7.1}x {:>10} {:>12}",
                m, n, kernel_ms, reference_ms, row.speedup, stats.peak_arena, stats.nodes_kept
            );
            rows.push(row);
        }
    }

    println!("#\n# Counters are deterministic: reruns reproduce them");
    println!("# exactly; only the timings vary. cost_bits is identical between kernel");
    println!("# and reference on every row (asserted).");
    write_json(&args.out_dir(), "trellis_bench.json", &rows);
}
