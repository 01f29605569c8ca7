//! Bit-exactness of the data-oriented trellis kernel.
//!
//! The kernel (`OfflineOptimizer`) must reproduce the retained reference
//! implementation (`trellis::reference`) *bit for bit* — same `Schedule`,
//! same cost down to the last mantissa bit, same feasibility verdict — on
//! random traces, random grids, and every configuration axis: exact,
//! quantized buffer, beam, `drain_at_end`, and delay bounds.

use proptest::prelude::*;
use rcbr_schedule::trellis::reference;
use rcbr_schedule::{CostModel, OfflineOptimizer, RateGrid, TrellisConfig};
use rcbr_traffic::FrameTrace;

/// Every config shape the optimizer supports, derived from one base.
fn config_variants(grid: RateGrid, cost: CostModel, buffer: f64) -> Vec<TrellisConfig> {
    let base = TrellisConfig::new(grid, cost, buffer);
    vec![
        base.clone(),
        base.clone().with_q_resolution((buffer / 64.0).max(1e-6)),
        base.clone().with_q_resolution((buffer / 997.0).max(1e-6)),
        base.clone().with_beam(5),
        base.clone().with_drain_at_end(),
        base.clone().with_delay_bound(2),
        base.clone()
            .with_q_resolution((buffer / 100.0).max(1e-6))
            .with_drain_at_end(),
        base.with_q_resolution((buffer / 50.0).max(1e-6))
            .with_beam(7),
    ]
}

/// Assert the kernel and the reference agree bit-for-bit on `cfg`.
fn assert_equivalent(cfg: &TrellisConfig, trace: &FrameTrace) -> Result<(), TestCaseError> {
    let got = OfflineOptimizer::new(cfg.clone()).optimize_with_cost(trace);
    let want = reference::optimize_with_cost(cfg, trace);
    match (got, want) {
        (Ok((s_k, w_k)), Ok((s_r, w_r))) => {
            prop_assert_eq!(
                w_k.to_bits(),
                w_r.to_bits(),
                "cost diverged ({} vs {}) for {:?}",
                w_k,
                w_r,
                cfg
            );
            prop_assert_eq!(
                s_k.to_rates(),
                s_r.to_rates(),
                "schedule diverged: {:?}",
                cfg
            );
        }
        (Err(e_k), Err(e_r)) => prop_assert_eq!(e_k, e_r),
        (got, want) => {
            return Err(TestCaseError::fail(format!(
                "feasibility diverged for {cfg:?}: kernel {got:?} vs reference {want:?}"
            )))
        }
    }
    Ok(())
}

/// Random strictly-increasing rate grid from positive step sizes.
fn build_grid(steps: &[f64], with_zero: bool) -> RateGrid {
    let mut levels: Vec<f64> = Vec::with_capacity(steps.len() + 1);
    let mut r = if with_zero { 0.0 } else { 13.0 };
    levels.push(r);
    for &s in steps {
        r += s;
        levels.push(r);
    }
    RateGrid::new(levels)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Kernel ≡ reference on random traces × grids × config variants.
    #[test]
    fn kernel_matches_reference_bit_for_bit(
        bits in collection::vec(0.0..500.0f64, 2..60),
        steps in collection::vec(1.0..400.0f64, 1..12),
        with_zero in any::<bool>(),
        alpha in 0.01..500.0f64,
        buffer in 0.0..800.0f64,
        tau_pick in 0usize..3,
    ) {
        let grid = build_grid(&steps, with_zero);
        let tau = [0.5f64, 1.0, 1.0 / 24.0][tau_pick];
        let trace = FrameTrace::new(tau, bits);
        let cost = CostModel::new(alpha, 1.0);
        for cfg in config_variants(grid.clone(), cost, buffer) {
            assert_equivalent(&cfg, &trace)?;
        }
    }

    /// Tie-heavy workloads: integer arrivals on an integer grid generate
    /// many exactly-equal q and w values, stressing the `gen` tie order.
    #[test]
    fn kernel_matches_reference_under_heavy_ties(
        bits in collection::vec(0u32..6u32, 2..40),
        alpha_pick in 0usize..3,
        buffer in 0u32..12u32,
    ) {
        let alpha = [1.0f64, 10.0, 100.0][alpha_pick];
        let bits: Vec<f64> = bits.into_iter().map(|b| b as f64 * 10.0).collect();
        let trace = FrameTrace::new(1.0, bits);
        let grid = RateGrid::new(vec![0.0, 10.0, 20.0, 30.0, 40.0, 50.0]);
        let cost = CostModel::new(alpha, 1.0);
        let buffer = buffer as f64 * 10.0;
        for cfg in config_variants(grid.clone(), cost, buffer) {
            assert_equivalent(&cfg, &trace)?;
        }
    }
}
