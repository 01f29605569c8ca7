//! Ablation of the offline optimizer's design choices (DESIGN.md §5).
//!
//! The exact trellis — like the paper's original — slows dramatically when
//! renegotiations are cheap, because the survivor frontier grows with the
//! trace. Two bounded modes trade optimality for tractability: a quantized
//! buffer axis and a beam. This table measures both sides of the trade on
//! one workload, against the optimal-smoothing baseline (minimum peak
//! rate, but no pricing objective).
//!
//! Usage: `ablation [--frames 7200] [--seed 1] [--ratio 1e5] [--out results/]`

use rcbr_bench::{paper_trace, timed_ms, write_json, Args, PAPER_BUFFER};
use rcbr_schedule::{
    optimal_smoothing, CostModel, OfflineOptimizer, RateGrid, Schedule, TrellisConfig,
};
use rcbr_traffic::FrameTrace;
use serde::Serialize;

#[derive(Debug, Serialize)]
struct Row {
    variant: String,
    runtime_ms: f64,
    cost: f64,
    cost_vs_exact_percent: f64,
    bandwidth_efficiency: f64,
    renegotiations: usize,
    peak_rate_bps: f64,
}

fn measure(
    name: String,
    trace: &FrameTrace,
    cost_model: &CostModel,
    build: impl FnOnce() -> Schedule,
) -> Row {
    let (schedule, runtime_ms) = timed_ms(build);
    Row {
        variant: name,
        runtime_ms,
        cost: schedule.total_cost(cost_model),
        cost_vs_exact_percent: f64::NAN, // filled in afterwards
        bandwidth_efficiency: schedule.bandwidth_efficiency(trace),
        renegotiations: schedule.num_renegotiations(),
        peak_rate_bps: schedule.peak_service_rate(),
    }
}

fn main() {
    let args = Args::parse();
    let frames: usize = args.get("frames", 2400); // 100 s (the exact variant is slow by design)
    let seed: u64 = args.get("seed", 1);
    let ratio: f64 = args.get("ratio", 1e5); // cheap renegotiations: the hard regime
    let trace = paper_trace(frames, seed);
    let buffer = PAPER_BUFFER;
    let grid = RateGrid::uniform(48_000.0, 2_400_000.0, 20);
    let cost_model = CostModel::from_ratio(ratio);

    let base = TrellisConfig::new(grid.clone(), cost_model, buffer);
    let mut rows = vec![measure("exact".into(), &trace, &cost_model, || {
        OfflineOptimizer::new(base.clone())
            .optimize(&trace)
            .expect("feasible")
    })];
    for res_div in [100.0, 1000.0, 10_000.0] {
        rows.push(measure(
            format!("quantized B/{res_div}"),
            &trace,
            &cost_model,
            || {
                OfflineOptimizer::new(base.clone().with_q_resolution(buffer / res_div))
                    .optimize(&trace)
                    .expect("feasible")
            },
        ));
    }
    for beam in [64usize, 512] {
        rows.push(measure(format!("beam {beam}"), &trace, &cost_model, || {
            OfflineOptimizer::new(base.clone().with_beam(beam))
                .optimize(&trace)
                .expect("feasible")
        }));
    }
    rows.push(measure(
        "smoothing (baseline)".into(),
        &trace,
        &cost_model,
        || optimal_smoothing(&trace, buffer),
    ));

    let exact_cost = rows[0].cost;
    for r in rows.iter_mut() {
        r.cost_vs_exact_percent = 100.0 * (r.cost / exact_cost - 1.0);
    }

    println!("# Trellis ablation (alpha/beta = {ratio:.0}, {frames} frames, B = 300 kb)");
    println!(
        "{:<22} {:>12} {:>14} {:>10} {:>12} {:>8} {:>12}",
        "variant", "runtime ms", "cost vs exact", "efficiency", "renegs", "", "peak rate"
    );
    for r in &rows {
        println!(
            "{:<22} {:>12.1} {:>+13.3}% {:>9.1}% {:>12} {:>8} {:>12}",
            r.variant,
            r.runtime_ms,
            r.cost_vs_exact_percent,
            100.0 * r.bandwidth_efficiency,
            r.renegotiations,
            "",
            rcbr_sim::units::fmt_rate(r.peak_rate_bps)
        );
    }
    println!("#\n# Reading: quantization at B/1000 should be within a fraction of a percent of");
    println!("# exact at a fraction of the runtime; the smoother has the lowest peak rate but");
    println!("# (being price-blind) not the lowest cost.");
    write_json(&args.out_dir(), "ablation.json", &rows);
}
