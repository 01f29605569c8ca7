//! Bit-exactness of the trellis kernel on paper-shaped instances.
//!
//! `rcbr-schedule`'s equivalence proptests draw traces of at most 60
//! frames on grids of at most 13 levels, where a column's front (the
//! survivors allowed to change rate) is a handful of nodes and front
//! pruning skips little. Here the inputs are what the figures optimize:
//! 150–300-frame windows of the paper's MPEG trace, at the paper's buffer
//! and price ratio, on grids of 10–30 levels — every configuration shape
//! against `trellis::reference`, cost and schedule bit for bit.

use proptest::prelude::*;
use rcbr_bench::{paper_trace, PAPER_BUFFER};
use rcbr_schedule::trellis::reference;
use rcbr_schedule::{CostModel, OfflineOptimizer, RateGrid, TrellisConfig};
use rcbr_sim::SimRng;
use rcbr_traffic::{FrameTrace, SyntheticMpegSource};

/// Every config shape the optimizer supports, as in
/// `rcbr-schedule/tests/trellis_equivalence.rs`.
fn config_variants(grid: RateGrid, cost: CostModel, buffer: f64) -> Vec<TrellisConfig> {
    let base = TrellisConfig::new(grid, cost, buffer);
    vec![
        base.clone(),
        base.clone().with_q_resolution(buffer / 64.0),
        base.clone().with_q_resolution(buffer / 997.0),
        base.clone().with_beam(5),
        base.clone().with_drain_at_end(),
        base.clone().with_delay_bound(2),
        base.clone()
            .with_q_resolution(buffer / 100.0)
            .with_drain_at_end(),
        base.with_q_resolution(buffer / 50.0).with_beam(7),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn kernel_matches_reference_on_paper_windows(
        frames in 150usize..301,
        start in 0usize..4000,
        m in 10usize..31,
        seed in 1u64..5,
    ) {
        let trace = paper_trace(start + frames, seed).window(start, frames);
        let grid = RateGrid::uniform(48_000.0, 2_400_000.0, m);
        for cfg in config_variants(grid, CostModel::from_ratio(1e6), PAPER_BUFFER) {
            let got = OfflineOptimizer::new(cfg.clone()).optimize_with_cost(&trace);
            let want = reference::optimize_with_cost(&cfg, &trace);
            match (got, want) {
                (Ok((s_k, w_k)), Ok((s_r, w_r))) => {
                    prop_assert_eq!(w_k.to_bits(), w_r.to_bits(), "cost diverged for {:?}", cfg);
                    prop_assert_eq!(s_k.to_rates(), s_r.to_rates(), "schedule diverged: {:?}", cfg);
                }
                (Err(e_k), Err(e_r)) => prop_assert_eq!(e_k, e_r),
                (got, want) => {
                    return Err(TestCaseError::fail(format!(
                        "feasibility diverged for {cfg:?}: kernel {got:?} vs reference {want:?}"
                    )))
                }
            }
        }
    }
}

/// The movie the benchmark's `offline_trellis` workload optimizes — 10 000
/// frames of `star_wars_like` from seed 7 — started where that workload's
/// seeds 3, 7 and 11 start it (`seed · 7919 mod 10 000`), cut to its
/// first 800 frames.
fn offline_trellis_windows() -> Vec<(u64, FrameTrace)> {
    let frames = 10_000;
    let movie = SyntheticMpegSource::star_wars_like().generate(frames, &mut SimRng::from_seed(7));
    [3u64, 7, 11]
        .into_iter()
        .map(|seed| {
            let rotation = (seed * 7919 % frames as u64) as usize;
            (seed, movie.shifted(rotation).window(0, 800))
        })
        .collect()
}

/// `offline_trellis`'s configuration: M = 50, quantized at B/1000.
fn offline_trellis_config() -> TrellisConfig {
    TrellisConfig::new(
        RateGrid::uniform(48_000.0, 2_400_000.0, 50),
        CostModel::from_ratio(1e6),
        PAPER_BUFFER,
    )
    .with_drain_at_end()
    .with_q_resolution(PAPER_BUFFER / 1000.0)
}

/// Kernel against reference on every window: cost bits and schedule, or
/// the same infeasibility (a window can end mid-burst, where no schedule
/// drains). Returns the feasible windows and the kernel's beam drops.
fn check_offline_trellis(cfg: &TrellisConfig) -> (usize, u64) {
    let (mut feasible, mut dropped) = (0, 0);
    for (seed, trace) in offline_trellis_windows() {
        let got = OfflineOptimizer::new(cfg.clone()).optimize_with_stats(&trace);
        let want = reference::optimize_with_cost(cfg, &trace);
        match (got, want) {
            (Ok((s_k, w_k, stats)), Ok((s_r, w_r))) => {
                assert_eq!(w_k.to_bits(), w_r.to_bits(), "seed {seed}: cost diverged");
                assert_eq!(
                    s_k.to_rates(),
                    s_r.to_rates(),
                    "seed {seed}: schedule diverged"
                );
                feasible += 1;
                dropped += stats.beam_dropped;
            }
            (Err(e_k), Err(e_r)) => assert_eq!(e_k, e_r, "seed {seed}"),
            (got, want) => panic!("seed {seed}: kernel {got:?} vs reference {want:?}"),
        }
    }
    (feasible, dropped)
}

/// At M = 50 many buckets hold a dozen or more kept survivors of different
/// rates, often with equal `(q, w)`, so only `gen` orders them: the shape
/// the proptest above, at M ≤ 30 and 300 frames, reaches least.
#[test]
fn kernel_matches_reference_at_the_benchmark_shape() {
    let (feasible, _) = check_offline_trellis(&offline_trellis_config());
    assert!(feasible >= 2, "only {feasible} windows drain");
}

#[test]
fn kernel_matches_reference_at_the_benchmark_shape_with_a_beam() {
    let (feasible, dropped) = check_offline_trellis(&offline_trellis_config().with_beam(300));
    assert!(feasible >= 2, "only {feasible} windows drain");
    assert!(dropped > 0, "the beam must truncate");
}
