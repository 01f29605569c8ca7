//! Renegotiation-latency sensitivity — results for the question the paper
//! leaves open (Section III-C: "We do not yet have analytical expressions
//! or simulation results studying the effect of renegotiation delay on
//! RCBR performance").
//!
//! Sweeps the signaling round-trip for an online AR(1) source (one
//! outstanding request at a time) and shows the two compensations the
//! paper predicts: more end-system buffer, or more rate headroom
//! (a coarser granularity that over-reserves). Offline sources anticipate
//! and are delay-insensitive.
//!
//! Usage: `latency [--frames 28800] [--seed 1] [--out results/]`

use rcbr::latency::{offline_with_latency, online_with_latency};
use rcbr_bench::{paper_schedule, paper_trace, write_json, Args, PAPER_BUFFER};
use rcbr_schedule::{Ar1Config, Ar1Policy};
use serde::Serialize;

#[derive(Debug, Serialize)]
struct Row {
    mode: &'static str,
    delay_s: f64,
    buffer_bits: f64,
    granularity_bps: f64,
    loss_fraction: f64,
    bandwidth_efficiency: f64,
    requests: u64,
}

fn main() {
    let args = Args::parse();
    let frames: usize = args.get("frames", 28_800); // 20 minutes
    let seed: u64 = args.get("seed", 1);
    let trace = paper_trace(frames, seed);
    let tau = trace.frame_interval();
    let mean = trace.mean_rate();
    let mut rows = Vec::new();

    println!("# Renegotiation-latency sensitivity (extension experiment)");
    println!(
        "{:<22} {:>8} {:>10} {:>10} {:>10} {:>10} {:>8}",
        "mode", "RTT (s)", "buffer", "delta", "loss", "efficiency", "reqs"
    );

    let mut emit = |row: Row| {
        println!(
            "{:<22} {:>8.2} {:>10} {:>10} {:>10.2e} {:>9.1}% {:>8}",
            row.mode,
            row.delay_s,
            rcbr_sim::units::fmt_bits(row.buffer_bits),
            rcbr_sim::units::fmt_rate(row.granularity_bps),
            row.loss_fraction,
            100.0 * row.bandwidth_efficiency,
            row.requests
        );
        rows.push(row);
    };

    // 1. Baseline sweep: delay grows, everything else fixed.
    for delay in [0.0, 0.1, 0.25, 0.5, 1.0, 2.0, 4.0] {
        let mut policy = Ar1Policy::new(Ar1Config::fig2(64_000.0, mean, tau), tau);
        let out = online_with_latency(&trace, &mut policy, PAPER_BUFFER, delay);
        emit(Row {
            mode: "online",
            delay_s: delay,
            buffer_bits: PAPER_BUFFER,
            granularity_bps: 64_000.0,
            loss_fraction: out.loss_fraction,
            bandwidth_efficiency: out.bandwidth_efficiency,
            requests: out.requests,
        });
    }

    // 2. Compensation by buffer at a fixed 2 s RTT.
    for buffer in [PAPER_BUFFER, 3.0 * PAPER_BUFFER, 10.0 * PAPER_BUFFER] {
        let mut policy = Ar1Policy::new(Ar1Config::fig2(64_000.0, mean, tau), tau);
        let out = online_with_latency(&trace, &mut policy, buffer, 2.0);
        emit(Row {
            mode: "online+buffer",
            delay_s: 2.0,
            buffer_bits: buffer,
            granularity_bps: 64_000.0,
            loss_fraction: out.loss_fraction,
            bandwidth_efficiency: out.bandwidth_efficiency,
            requests: out.requests,
        });
    }

    // 3. Compensation by rate headroom (coarser granularity over-reserves).
    for delta in [64_000.0, 200_000.0, 400_000.0] {
        let mut policy = Ar1Policy::new(Ar1Config::fig2(delta, mean, tau), tau);
        let out = online_with_latency(&trace, &mut policy, PAPER_BUFFER, 2.0);
        emit(Row {
            mode: "online+headroom",
            delay_s: 2.0,
            buffer_bits: PAPER_BUFFER,
            granularity_bps: delta,
            loss_fraction: out.loss_fraction,
            bandwidth_efficiency: out.bandwidth_efficiency,
            requests: out.requests,
        });
    }

    // 4. Offline anticipation: delay-insensitive by construction.
    let schedule = paper_schedule(&trace, PAPER_BUFFER);
    for delay in [0.0, 4.0] {
        let out = offline_with_latency(&trace, &schedule, PAPER_BUFFER, delay);
        emit(Row {
            mode: "offline",
            delay_s: delay,
            buffer_bits: PAPER_BUFFER,
            granularity_bps: 0.0,
            loss_fraction: out.loss_fraction,
            bandwidth_efficiency: out.bandwidth_efficiency,
            requests: out.requests,
        });
    }

    println!("#\n# Expected shape: online loss grows with RTT; buying buffer restores it,");
    println!("# headroom does not reliably help; offline rows are identical.");
    write_json(&args.out_dir(), "latency.json", &rows);
}
