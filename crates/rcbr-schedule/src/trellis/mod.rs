//! The offline optimal renegotiation schedule (Section IV-A).
//!
//! Given full knowledge of the arrival sequence `x_1..x_T`, a finite rate
//! set `R`, a buffer of `B` bits (and optionally a delay bound of `D`
//! slots, eq. (5)), and prices `(α, β)`, find the service-rate sequence
//! `s_1..s_T ∈ R^T` minimizing
//!
//! ```text
//! Σ_t [ α·1{s_t ≠ s_{t−1}} + β·s_t·τ ]
//! ```
//!
//! subject to the queue `q_t = max(q_{t−1} + x_t − s_t·τ, 0)` never
//! exceeding the buffer bound. The paper solves this with a Viterbi-like
//! algorithm over a trellis of `(time, rate, buffer occupancy, weight)`
//! nodes, pruned by its Lemma 1:
//!
//! > A path through node `(t, v, q, w)` is not optimal if there exists a
//! > path through `(t, v', q', w')` with `q' ≤ q` and `w' + Δ ≤ w`, where
//! > `Δ = 0` if `v' = v` and `Δ = α` otherwise.
//!
//! The paper reports this optimizer as the bottleneck of its whole
//! evaluation: ~20 minutes at `M = 20` rate levels and "more than a day"
//! at `M = 100`. The implementation here is a data-oriented kernel
//! (see `DESIGN.md` §8) that removes the super-linear term from the inner
//! loop:
//!
//! * survivors are stored in struct-of-arrays columns ([`soa`]), kept
//!   sorted by buffer occupancy, with every per-slot buffer reused;
//! * because a fixed target rate maps a `q`-sorted survivor column to a
//!   `q`-sorted candidate stream, Lemma 1 pruning is an `M`-way linear
//!   merge plus sweep ([`exact`]) — or, with a quantized buffer axis, a
//!   per-`(rate, bucket)` reduction ([`quantized`]) — instead of a global
//!   `O(n·M·log(n·M))` sort;
//! * a survivor that an earlier one in its column dominates can never win
//!   a rate change, so only the column's front `G` expands to every rate
//!   and the rest only to their own ([`front`]): a slot evaluates at most
//!   `n + M·|G|` candidates instead of `n·M`;
//! * parent pointers for path reconstruction live in a mark-and-compacted
//!   arena ([`arena`]) whose common path prefix is committed and truncated,
//!   bounding memory by the live survivor set instead of the trace length.
//!
//! The straightforward implementation this kernel replaced is retained in
//! [`reference`] as the oracle for equivalence tests and the baseline for
//! `trellis_bench`; the kernel reproduces its output — schedule *and*
//! cost — bit for bit, including every floating-point tie-break.
//!
//! An optional beam width (`max_survivors`) turns the exact search into a
//! bounded-memory approximation for very fine rate grids.
//!
//! The initial rate choice at `t = 1` is part of call setup and is not
//! charged as a renegotiation; this matches [`Schedule::total_cost`].

mod arena;
mod exact;
mod front;
mod kernel;
mod quantized;
#[doc(hidden)]
pub mod reference;
mod soa;
mod stats;

use rcbr_traffic::FrameTrace;
use serde::{Deserialize, Serialize};

use crate::cost::CostModel;
use crate::grid::RateGrid;
use crate::schedule::Schedule;

pub use stats::TrellisStats;

/// Configuration of the offline optimizer.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrellisConfig {
    /// Allowed service rates.
    pub grid: RateGrid,
    /// Pricing (α per renegotiation, β per bit of allocated volume).
    pub cost: CostModel,
    /// End-system buffer size, bits.
    pub buffer: f64,
    /// Optional delay bound in slots: data entering during slot `t` must
    /// have left by the end of slot `t + D` (eq. (5)).
    pub delay_slots: Option<usize>,
    /// Optional beam width: keep at most this many lowest-weight survivors
    /// per slot. `None` is the exact algorithm.
    pub max_survivors: Option<usize>,
    /// Require the buffer to be empty at the end of the session.
    ///
    /// Experiments that multiplex circularly shifted copies of one
    /// schedule (Fig. 6's scenario (c), the Section VI call simulations)
    /// need this: a nonzero final backlog would otherwise spill over the
    /// wrap-around point of every shifted replica.
    pub drain_at_end: bool,
    /// Optional buffer-occupancy quantum: keep at most one survivor per
    /// `(rate, ⌊q/resolution⌋)` bucket (the cheapest one).
    ///
    /// The exact algorithm's survivor set — like the paper's original —
    /// can grow with the trace length when renegotiations are cheap (the
    /// paper saw 20-minute runs at M = 20 and >1 day at M = 100).
    /// Quantizing the buffer axis bounds it: with resolution `B/1000` the
    /// schedule cost is within a fraction of a percent of optimal in
    /// practice, and any returned schedule is still *exactly* feasible
    /// (occupancies along kept paths are never approximated).
    pub q_resolution: Option<f64>,
}

impl TrellisConfig {
    /// A buffer-constrained configuration (the paper's main setting).
    pub fn new(grid: RateGrid, cost: CostModel, buffer: f64) -> Self {
        assert!(
            buffer >= 0.0 && buffer.is_finite(),
            "buffer must be nonnegative"
        );
        Self {
            grid,
            cost,
            buffer,
            delay_slots: None,
            max_survivors: None,
            drain_at_end: false,
            q_resolution: None,
        }
    }

    /// Require an empty buffer at the end of the session (see the field
    /// docs for why circular-shift experiments need this).
    pub fn with_drain_at_end(mut self) -> Self {
        self.drain_at_end = true;
        self
    }

    /// Quantize the buffer axis (see the field docs); a good default is
    /// `buffer / 1000`.
    ///
    /// # Panics
    /// Panics if `resolution <= 0`.
    pub fn with_q_resolution(mut self, resolution: f64) -> Self {
        assert!(
            resolution > 0.0 && resolution.is_finite(),
            "resolution must be positive"
        );
        self.q_resolution = Some(resolution);
        self
    }

    /// Add a delay bound of `d` slots.
    pub fn with_delay_bound(mut self, d: usize) -> Self {
        self.delay_slots = Some(d);
        self
    }

    /// Bound the survivor set (beam search).
    ///
    /// # Panics
    /// Panics if `width == 0`.
    pub fn with_beam(mut self, width: usize) -> Self {
        assert!(width > 0, "beam width must be positive");
        self.max_survivors = Some(width);
        self
    }
}

/// Why no feasible schedule exists.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum TrellisError {
    /// Even draining at the maximum grid rate, the buffer (or delay) bound
    /// is violated at this slot.
    Infeasible {
        /// First slot at which every path dies.
        slot: usize,
    },
}

impl std::fmt::Display for TrellisError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrellisError::Infeasible { slot } => write!(
                f,
                "no feasible schedule: buffer/delay bound violated at slot {slot} even at the \
                 maximum rate level"
            ),
        }
    }
}

impl std::error::Error for TrellisError {}

/// The offline optimizer.
///
/// ```
/// use rcbr_schedule::{CostModel, OfflineOptimizer, RateGrid, TrellisConfig};
/// use rcbr_traffic::FrameTrace;
///
/// // A 6-slot workload with one burst, a 60-bit buffer, three rates.
/// let trace = FrameTrace::new(1.0, vec![80.0, 10.0, 10.0, 90.0, 0.0, 40.0]);
/// let grid = RateGrid::new(vec![0.0, 50.0, 100.0]);
/// let config = TrellisConfig::new(grid, CostModel::new(30.0, 1.0), 60.0);
/// let schedule = OfflineOptimizer::new(config).optimize(&trace).unwrap();
/// assert!(schedule.is_feasible(&trace, 60.0));
/// ```
#[derive(Debug, Clone)]
pub struct OfflineOptimizer {
    config: TrellisConfig,
}

impl OfflineOptimizer {
    /// Create an optimizer.
    ///
    /// # Panics
    /// Panics if the grid has more than `u16::MAX` levels (the arena packs
    /// rate indices into 16 bits).
    pub fn new(config: TrellisConfig) -> Self {
        assert!(
            config.grid.len() <= u16::MAX as usize,
            "rate grid too fine for the trellis arena"
        );
        Self { config }
    }

    /// Compute the optimal schedule for `trace`.
    pub fn optimize(&self, trace: &FrameTrace) -> Result<Schedule, TrellisError> {
        self.optimize_with_cost(trace).map(|(s, _)| s)
    }

    /// Compute the optimal schedule and its cost.
    pub fn optimize_with_cost(&self, trace: &FrameTrace) -> Result<(Schedule, f64), TrellisError> {
        self.optimize_with_stats(trace)
            .map(|(s, cost, _)| (s, cost))
    }

    /// Compute the optimal schedule, its cost, and the kernel's
    /// deterministic work counters.
    pub fn optimize_with_stats(
        &self,
        trace: &FrameTrace,
    ) -> Result<(Schedule, f64, TrellisStats), TrellisError> {
        kernel::run(&self.config, trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Exhaustive reference: enumerate every rate sequence.
    fn brute_force(
        trace: &FrameTrace,
        grid: &RateGrid,
        cost: &CostModel,
        buffer: f64,
    ) -> Option<(Vec<f64>, f64)> {
        let m = grid.len();
        let t_len = trace.len();
        let tau = trace.frame_interval();
        let mut best: Option<(Vec<f64>, f64)> = None;
        let total = m.pow(t_len as u32);
        for code in 0..total {
            let mut c = code;
            let mut rates = Vec::with_capacity(t_len);
            for _ in 0..t_len {
                rates.push(grid.level(c % m));
                c /= m;
            }
            // Evaluate feasibility + cost.
            let mut q = 0.0;
            let mut w = 0.0;
            let mut feasible = true;
            for (t, &r) in rates.iter().enumerate() {
                q = (q + trace.bits(t) - r * tau).max(0.0);
                if q > buffer {
                    feasible = false;
                    break;
                }
                w += cost.beta * r * tau;
                if t > 0 && rates[t] != rates[t - 1] {
                    w += cost.alpha;
                }
            }
            if feasible && best.as_ref().is_none_or(|(_, bw)| w < *bw) {
                best = Some((rates, w));
            }
        }
        best
    }

    #[test]
    fn matches_brute_force_on_small_instances() {
        let grid = RateGrid::new(vec![0.0, 50.0, 100.0]);
        let cost = CostModel::new(30.0, 1.0);
        let trace = FrameTrace::new(1.0, vec![80.0, 10.0, 10.0, 90.0, 0.0, 40.0]);
        let buffer = 60.0;
        let opt = OfflineOptimizer::new(TrellisConfig::new(grid.clone(), cost, buffer));
        let (sched, w) = opt.optimize_with_cost(&trace).unwrap();
        let (_, bf_w) = brute_force(&trace, &grid, &cost, buffer).unwrap();
        assert!((w - bf_w).abs() < 1e-9, "trellis {w} vs brute force {bf_w}");
        assert!(sched.is_feasible(&trace, buffer));
        assert!((sched.total_cost(&cost) - w).abs() < 1e-9);
    }

    #[test]
    fn constant_workload_yields_constant_schedule() {
        let grid = RateGrid::new(vec![50.0, 100.0, 150.0]);
        let cost = CostModel::new(10.0, 1.0);
        let trace = FrameTrace::new(1.0, vec![100.0; 20]);
        let opt = OfflineOptimizer::new(TrellisConfig::new(grid, cost, 10.0));
        let sched = opt.optimize(&trace).unwrap();
        assert_eq!(sched.num_renegotiations(), 0);
        assert_eq!(sched.rate_at(0), 100.0);
    }

    #[test]
    fn infeasible_when_peak_exceeds_grid() {
        let grid = RateGrid::new(vec![10.0, 20.0]);
        let cost = CostModel::new(1.0, 1.0);
        // 1000 bits/slot forever: overflows any 50-bit buffer at rate 20.
        let trace = FrameTrace::new(1.0, vec![1000.0; 5]);
        let opt = OfflineOptimizer::new(TrellisConfig::new(grid, cost, 50.0));
        match opt.optimize(&trace) {
            Err(TrellisError::Infeasible { slot }) => assert_eq!(slot, 0),
            other => panic!("expected infeasibility, got {other:?}"),
        }
    }

    #[test]
    fn large_alpha_suppresses_renegotiations() {
        let grid = RateGrid::new(vec![0.0, 100.0, 200.0]);
        let trace = FrameTrace::new(1.0, vec![200.0, 0.0, 0.0, 200.0, 0.0, 0.0, 200.0, 0.0, 0.0]);
        let buffer = 150.0;
        // Cheap renegotiation: the optimum tracks the workload.
        let cheap = OfflineOptimizer::new(TrellisConfig::new(
            grid.clone(),
            CostModel::new(0.001, 1.0),
            buffer,
        ));
        let s_cheap = cheap.optimize(&trace).unwrap();
        // Expensive renegotiation: the optimum holds one rate.
        let dear =
            OfflineOptimizer::new(TrellisConfig::new(grid, CostModel::new(1e9, 1.0), buffer));
        let s_dear = dear.optimize(&trace).unwrap();
        assert!(s_cheap.num_renegotiations() > 0);
        assert_eq!(s_dear.num_renegotiations(), 0);
        assert!(s_cheap.mean_service_rate() < s_dear.mean_service_rate());
    }

    #[test]
    fn delay_bound_tightens_the_schedule() {
        let grid = RateGrid::new(vec![0.0, 50.0, 100.0, 200.0]);
        let cost = CostModel::new(1.0, 1.0);
        let trace = FrameTrace::new(1.0, vec![200.0, 0.0, 0.0, 0.0, 0.0, 0.0]);
        // Large buffer, no delay bound: can drain the burst slowly.
        let lax = OfflineOptimizer::new(TrellisConfig::new(grid.clone(), cost, 1e9));
        let s_lax = lax.optimize(&trace).unwrap();
        // Delay bound of 1 slot: burst must leave within the next slot.
        let strict = OfflineOptimizer::new(TrellisConfig::new(grid, cost, 1e9).with_delay_bound(1));
        let s_strict = strict.optimize(&trace).unwrap();
        assert!(s_strict.mean_service_rate() >= s_lax.mean_service_rate());
        // Verify the delay semantics directly: cumulative service through
        // slot t+1 covers cumulative arrivals through slot t.
        let rates = s_strict.to_rates();
        let mut served = 0.0;
        let mut q: f64 = 0.0;
        let mut cum_arr = 0.0;
        let mut arr_hist = vec![0.0];
        for (t, &r) in rates.iter().enumerate() {
            cum_arr += trace.bits(t);
            let avail = q + trace.bits(t);
            let s = avail.min(r);
            served += s;
            q = avail - s;
            arr_hist.push(cum_arr);
            if t >= 1 {
                assert!(
                    served >= arr_hist[t] - 1e-9,
                    "slot {t}: served {served} < arrivals-through-{} {}",
                    t - 1,
                    arr_hist[t]
                );
            }
        }
    }

    #[test]
    fn q_resolution_preserves_drain_at_end() {
        // A workload whose drained optimum requires surviving an exact
        // q = 0 node distinct from the rest of its bucket.
        let grid = RateGrid::uniform(10.0, 300.0, 10);
        let cost = CostModel::new(20.0, 1.0);
        let bits: Vec<f64> = (0..300)
            .map(|i| {
                if i % 31 < 7 {
                    260.0
                } else {
                    35.0 + (i % 5) as f64
                }
            })
            .collect();
        let trace = FrameTrace::new(1.0, bits);
        let buffer = 400.0;
        let opt = OfflineOptimizer::new(
            TrellisConfig::new(grid, cost, buffer)
                .with_drain_at_end()
                .with_q_resolution(buffer / 50.0),
        );
        let sched = opt.optimize(&trace).expect("drained optimum must exist");
        assert!(sched.replay(&trace, buffer).final_backlog <= 1e-9);
    }

    #[test]
    fn q_resolution_is_feasible_and_close_to_exact() {
        let grid = RateGrid::uniform(0.0, 300.0, 7);
        let cost = CostModel::new(5.0, 1.0);
        let bits: Vec<f64> = (0..200)
            .map(|i| {
                if i % 17 < 5 {
                    220.0
                } else {
                    40.0 + (i % 7) as f64
                }
            })
            .collect();
        let trace = FrameTrace::new(1.0, bits);
        let buffer = 150.0;
        let exact = OfflineOptimizer::new(TrellisConfig::new(grid.clone(), cost, buffer));
        let (_, w_exact) = exact.optimize_with_cost(&trace).unwrap();
        let quantized = OfflineOptimizer::new(
            TrellisConfig::new(grid, cost, buffer).with_q_resolution(buffer / 1000.0),
        );
        let (s_q, w_q) = quantized.optimize_with_cost(&trace).unwrap();
        assert!(s_q.is_feasible(&trace, buffer + 1e-9));
        assert!(w_q >= w_exact - 1e-9, "quantized cannot beat exact");
        assert!(
            w_q <= 1.02 * w_exact,
            "quantized {w_q} too far above exact {w_exact}"
        );
    }

    #[test]
    fn beam_search_is_feasible_and_close() {
        let grid = RateGrid::uniform(0.0, 300.0, 7);
        let cost = CostModel::new(20.0, 1.0);
        let bits: Vec<f64> = (0..40)
            .map(|i| if i % 10 < 3 { 250.0 } else { 30.0 })
            .collect();
        let trace = FrameTrace::new(1.0, bits);
        let exact = OfflineOptimizer::new(TrellisConfig::new(grid.clone(), cost, 100.0));
        let (_, w_exact) = exact.optimize_with_cost(&trace).unwrap();
        let beam = OfflineOptimizer::new(TrellisConfig::new(grid, cost, 100.0).with_beam(4));
        let (s_beam, w_beam) = beam.optimize_with_cost(&trace).unwrap();
        assert!(s_beam.is_feasible(&trace, 100.0));
        assert!(w_beam >= w_exact - 1e-9);
        assert!(w_beam <= 1.5 * w_exact, "beam {w_beam} vs exact {w_exact}");
    }

    #[test]
    fn drain_at_end_empties_the_buffer() {
        let grid = RateGrid::new(vec![10.0, 50.0, 100.0]);
        let cost = CostModel::new(5.0, 1.0);
        // Ends with a burst the lazy schedule would leave in the buffer.
        let trace = FrameTrace::new(1.0, vec![10.0, 10.0, 10.0, 90.0]);
        let lazy = OfflineOptimizer::new(TrellisConfig::new(grid.clone(), cost, 100.0));
        let (s_lazy, w_lazy) = lazy.optimize_with_cost(&trace).unwrap();
        assert!(s_lazy.replay(&trace, 100.0).final_backlog > 0.0);
        let drained =
            OfflineOptimizer::new(TrellisConfig::new(grid, cost, 100.0).with_drain_at_end());
        let (s_drained, w_drained) = drained.optimize_with_cost(&trace).unwrap();
        assert!(s_drained.replay(&trace, 100.0).final_backlog <= 1e-9);
        // Draining can only cost more.
        assert!(w_drained >= w_lazy - 1e-9);
    }

    #[test]
    fn drain_at_end_can_be_infeasible() {
        // Max rate 10 b/s cannot drain a 100-bit final burst in its slot.
        let grid = RateGrid::new(vec![0.0, 10.0]);
        let cost = CostModel::new(1.0, 1.0);
        let trace = FrameTrace::new(1.0, vec![0.0, 100.0]);
        let opt = OfflineOptimizer::new(TrellisConfig::new(grid, cost, 1000.0).with_drain_at_end());
        assert_eq!(
            opt.optimize(&trace),
            Err(TrellisError::Infeasible { slot: 2 })
        );
    }

    #[test]
    fn zero_buffer_forces_per_slot_covering() {
        let grid = RateGrid::new(vec![0.0, 100.0, 200.0]);
        let cost = CostModel::new(0.1, 1.0);
        let trace = FrameTrace::new(1.0, vec![100.0, 200.0, 100.0]);
        let opt = OfflineOptimizer::new(TrellisConfig::new(grid, cost, 0.0));
        let sched = opt.optimize(&trace).unwrap();
        assert_eq!(sched.to_rates(), vec![100.0, 200.0, 100.0]);
    }

    /// A bursty deterministic workload for the equivalence checks below.
    fn bursty_trace(len: usize) -> FrameTrace {
        let bits: Vec<f64> = (0..len)
            .map(|i| {
                if i % 13 < 4 {
                    230.0 + (i % 3) as f64 * 7.0
                } else {
                    30.0 + (i % 11) as f64
                }
            })
            .collect();
        FrameTrace::new(1.0, bits)
    }

    fn equivalence_configs() -> Vec<TrellisConfig> {
        let grid = RateGrid::uniform(0.0, 300.0, 9);
        let cost = CostModel::new(12.0, 1.0);
        let buffer = 250.0;
        let base = TrellisConfig::new(grid, cost, buffer);
        vec![
            base.clone(),
            base.clone().with_q_resolution(buffer / 200.0),
            base.clone().with_beam(6),
            base.clone().with_drain_at_end(),
            base.clone().with_delay_bound(3),
            base.with_q_resolution(buffer / 100.0).with_drain_at_end(),
        ]
    }

    #[test]
    fn kernel_is_bit_identical_to_reference() {
        let trace = bursty_trace(300);
        for cfg in equivalence_configs() {
            let got = OfflineOptimizer::new(cfg.clone()).optimize_with_cost(&trace);
            let want = reference::optimize_with_cost(&cfg, &trace);
            match (got, want) {
                (Ok((s_k, w_k)), Ok((s_r, w_r))) => {
                    assert_eq!(
                        w_k.to_bits(),
                        w_r.to_bits(),
                        "cost diverged for {cfg:?}: kernel {w_k} vs reference {w_r}"
                    );
                    assert_eq!(s_k.to_rates(), s_r.to_rates(), "schedule diverged: {cfg:?}");
                }
                (Err(e_k), Err(e_r)) => assert_eq!(e_k, e_r),
                (got, want) => panic!("feasibility diverged for {cfg:?}: {got:?} vs {want:?}"),
            }
        }
    }

    #[test]
    fn stats_counters_are_coherent() {
        let trace = bursty_trace(400);
        let grid = RateGrid::uniform(0.0, 300.0, 12);
        let cfg = TrellisConfig::new(grid, CostModel::new(8.0, 1.0), 250.0);
        let (_, _, stats) = OfflineOptimizer::new(cfg)
            .optimize_with_stats(&trace)
            .unwrap();
        assert_eq!(stats.nodes_expanded, stats.nodes_kept + stats.nodes_pruned);
        assert!(stats.nodes_kept > 0);
        assert!(stats.peak_survivors > 0);
        assert!(stats.peak_arena >= stats.peak_survivors);
    }

    #[test]
    fn arena_compaction_bounds_memory_and_preserves_output() {
        // Long trace + fine quantization: enough survivors per slot that
        // the arena crosses its watermark many times.
        let trace = bursty_trace(6000);
        let grid = RateGrid::uniform(0.0, 300.0, 20);
        let buffer = 400.0;
        let cfg = TrellisConfig::new(grid, CostModel::new(6.0, 1.0), buffer)
            .with_q_resolution(buffer / 500.0);
        let (s_k, w_k, stats) = OfflineOptimizer::new(cfg.clone())
            .optimize_with_stats(&trace)
            .unwrap();
        let (s_r, w_r) = reference::optimize_with_cost(&cfg, &trace).unwrap();
        assert_eq!(w_k.to_bits(), w_r.to_bits());
        assert_eq!(s_k.to_rates(), s_r.to_rates());
        assert!(stats.compactions > 0, "expected compactions: {stats:?}");
        // The uncompacted arena would hold every survivor ever kept; the
        // compacted one must stay well below that.
        assert!(
            stats.peak_arena < stats.nodes_kept,
            "arena not bounded: {stats:?}"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The trellis matches exhaustive search on random tiny instances.
        #[test]
        fn optimal_on_random_instances(
            bits in proptest::collection::vec(0.0..100.0f64, 2..7),
            alpha in 0.1..100.0f64,
            buffer in 0.0..150.0f64,
        ) {
            let grid = RateGrid::new(vec![0.0, 40.0, 110.0]);
            let cost = CostModel::new(alpha, 1.0);
            let trace = FrameTrace::new(1.0, bits);
            let opt = OfflineOptimizer::new(TrellisConfig::new(grid.clone(), cost, buffer));
            let got = opt.optimize_with_cost(&trace);
            let want = brute_force(&trace, &grid, &cost, buffer);
            match (got, want) {
                (Ok((sched, w)), Some((_, bw))) => {
                    prop_assert!((w - bw).abs() < 1e-6, "trellis {w} vs brute {bw}");
                    prop_assert!(sched.is_feasible(&trace, buffer + 1e-9));
                }
                (Err(_), None) => {}
                (got, want) => {
                    return Err(TestCaseError::fail(format!(
                        "feasibility disagreement: trellis {got:?} vs brute {}",
                        want.is_some()
                    )));
                }
            }
        }

        /// Feasibility and cost consistency on larger random instances.
        #[test]
        fn schedules_are_always_feasible(
            bits in proptest::collection::vec(0.0..1000.0f64, 10..80),
            buffer in 100.0..2000.0f64,
            alpha in 0.1..1000.0f64,
        ) {
            let grid = RateGrid::uniform(0.0, 1000.0, 6);
            let cost = CostModel::new(alpha, 1.0);
            let trace = FrameTrace::new(0.5, bits);
            let opt = OfflineOptimizer::new(TrellisConfig::new(grid, cost, buffer));
            // Max level 1000 b/s * 0.5 s = 500 bits/slot; arrivals can be up
            // to 1000 bits/slot, so infeasibility is possible — both
            // outcomes are valid, but a returned schedule must be coherent.
            if let Ok((sched, w)) = opt.optimize_with_cost(&trace) {
                prop_assert!(sched.is_feasible(&trace, buffer + 1e-9));
                prop_assert!((sched.total_cost(&cost) - w).abs() < 1e-6 * w.max(1.0));
            }
        }
    }
}
