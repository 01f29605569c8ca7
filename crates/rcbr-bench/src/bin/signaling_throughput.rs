//! Signaling-plane throughput — renegotiations per second vs. shard count.
//!
//! The paper's claim is that RCBR renegotiation is cheap enough to run in
//! a switch's signaling processor (two table lookups on the fast path).
//! This harness measures the sharded runtime's sustained renegotiation
//! throughput across a shard-count × VC-count sweep, and double-checks the
//! engine's two invariants on the way:
//!
//! * the accept/deny/rollback counters are bit-identical at every shard
//!   count (the workload is fixed by the seed, not by the partition);
//! * re-running the same configuration is bit-identical.
//!
//! Usage: `signaling_throughput [--target 1000000] [--vcs 768] [--seed 7]
//! [--out results/]` (the report defaults to `results/`).

use rcbr_bench::{write_json, Args};
use rcbr_runtime::{run, CounterSnapshot, RunReport, RuntimeConfig};
use serde::Serialize;
use std::path::PathBuf;

#[derive(Debug, Serialize)]
struct Cell {
    num_shards: usize,
    num_vcs: usize,
    completed: u64,
    wall_seconds: f64,
    throughput_per_sec: f64,
    speedup_vs_one_shard: f64,
    report: RunReport,
}

#[derive(Debug, Serialize)]
struct Report {
    target_requests: u64,
    seed: u64,
    /// Cores available to this process. Sharding can only raise wall-clock
    /// throughput when this exceeds 1; on a single-core host the sweep
    /// still validates determinism but every shard count time-slices the
    /// same CPU.
    available_parallelism: usize,
    counters_identical_across_shard_counts: bool,
    rerun_bit_identical: bool,
    cells: Vec<Cell>,
}

fn config(shards: usize, vcs: usize, target: u64, seed: u64) -> RuntimeConfig {
    let mut cfg = RuntimeConfig::balanced(shards, vcs);
    cfg.target_requests = target;
    cfg.seed = seed;
    cfg
}

fn main() {
    let args = Args::parse();
    let target: u64 = args.get("target", 1_000_000);
    let vc_counts: Vec<usize> = vec![args.get("vcs", 768)];
    let seed: u64 = args.get("seed", 7);
    let out = args.out_dir().or_else(|| Some(PathBuf::from("results")));
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    println!("# Signaling-plane throughput — {target} renegotiations per cell, seed {seed}");
    println!("# available cores: {cores} (sharding needs >1 to beat the 1-shard wall clock)");
    println!(
        "{:>6} {:>6} {:>12} {:>10} {:>14} {:>9}",
        "shards", "vcs", "completed", "wall (s)", "renegs/s", "speedup"
    );

    let mut cells: Vec<Cell> = Vec::new();
    let mut counters_identical = true;
    for &vcs in &vc_counts {
        let mut baseline: Option<(f64, CounterSnapshot)> = None;
        for shards in [1usize, 2, 4, 8] {
            let mut report = run(&config(shards, vcs, target, seed));
            // The per-VC outcomes are the determinism tests' business;
            // four cells of them are 800 KB of artifact.
            report.vcs.clear();
            let (base_tput, base_counters) =
                *baseline.get_or_insert((report.throughput_per_sec, report.counters));
            if report.counters != base_counters {
                counters_identical = false;
                eprintln!("!! {shards}-shard counters diverge from the 1-shard run");
            }
            let speedup = report.throughput_per_sec / base_tput;
            println!(
                "{:>6} {:>6} {:>12} {:>10.2} {:>14.0} {:>8.2}x",
                shards,
                vcs,
                report.counters.completed,
                report.wall_seconds,
                report.throughput_per_sec,
                speedup
            );
            cells.push(Cell {
                num_shards: shards,
                num_vcs: vcs,
                completed: report.counters.completed,
                wall_seconds: report.wall_seconds,
                throughput_per_sec: report.throughput_per_sec,
                speedup_vs_one_shard: speedup,
                report,
            });
        }
    }

    // Same seed, same config, run twice: the counters must be bit-identical.
    let probe = config(4, vc_counts[0], target.min(100_000), seed);
    let rerun_identical = run(&probe).counters == run(&probe).counters;
    println!("# counters identical across shard counts: {counters_identical}");
    println!("# same-seed rerun bit-identical: {rerun_identical}");

    let report = Report {
        target_requests: target,
        seed,
        available_parallelism: cores,
        counters_identical_across_shard_counts: counters_identical,
        rerun_bit_identical: rerun_identical,
        cells,
    };
    write_json(&out, "signaling_throughput.json", &report);
}
