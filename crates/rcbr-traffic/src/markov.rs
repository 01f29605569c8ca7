//! Finite-state Markov chains and Markov-modulated traffic sources.
//!
//! Section V-A models a source as a discrete-time process `X_t = f(S_t)`
//! where `S_t` is an irreducible finite-state Markov chain and `f` maps each
//! state to the amount of data generated per slot. [`MarkovChain`] holds the
//! transition structure (with the stationary-distribution computation used
//! by both the theory and the admission control), and
//! [`MarkovModulatedSource`] turns it into a slot-by-slot bit generator.

use rcbr_sim::SimRng;
use serde::{Deserialize, Serialize};

use crate::squaring::{Squaring, SquaringStats, MAX_SQUARINGS};
use crate::trace::FrameTrace;

/// Row-stochastic transition matrix of a finite Markov chain.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MarkovChain {
    p: Vec<Vec<f64>>,
}

impl MarkovChain {
    /// Build from a row-stochastic matrix.
    ///
    /// # Panics
    /// Panics if the matrix is empty or not square, if any entry is negative
    /// or non-finite, or if a row does not sum to 1 within `1e-9`.
    pub fn new(p: Vec<Vec<f64>>) -> Self {
        assert!(!p.is_empty(), "chain must have at least one state");
        let n = p.len();
        for (i, row) in p.iter().enumerate() {
            assert_eq!(row.len(), n, "transition matrix must be square");
            assert!(
                row.iter().all(|&x| x.is_finite() && x >= 0.0),
                "transition probabilities must be finite and nonnegative"
            );
            let sum: f64 = row.iter().sum();
            assert!(
                (sum - 1.0).abs() < 1e-9,
                "row {i} sums to {sum}, expected 1"
            );
        }
        Self { p }
    }

    /// A two-state chain with `P(0->1) = p01` and `P(1->0) = p10`
    /// (the on/off building block).
    pub fn two_state(p01: f64, p10: f64) -> Self {
        Self::new(vec![vec![1.0 - p01, p01], vec![p10, 1.0 - p10]])
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.p.len()
    }

    /// Transition probability `P(i -> j)`.
    pub fn prob(&self, i: usize, j: usize) -> f64 {
        self.p[i][j]
    }

    /// The long-run distribution `π = lim u·L^m` of the chain started from
    /// the uniform distribution `u`, where `L = (I + P)/2` is the lazy
    /// chain.
    ///
    /// `L` has `P`'s fixed points (`πL = π ⇔ πP = π`) and no periodicity,
    /// so the limit exists for every chain. For an irreducible chain it is
    /// *the* stationary distribution. A reducible chain (the admission
    /// estimator's, whose levels with no observed exit are absorbing
    /// self-loops) has many; this returns the one reached from `u`: each
    /// closed class weighted by the probability of being absorbed in it.
    ///
    /// Computed as `u·L^(2^k)` by [`Squaring`], stopping when two
    /// successive `k` agree to `1e-14` in `‖·‖₁` — by then the error is
    /// the square of that — or after [`MAX_SQUARINGS`].
    pub fn stationary(&self) -> Vec<f64> {
        self.stationary_with_stats().0
    }

    /// [`stationary`](Self::stationary) together with its work counters.
    pub fn stationary_with_stats(&self) -> (Vec<f64>, SquaringStats) {
        let n = self.num_states();
        let lazy = self
            .p
            .iter()
            .enumerate()
            .flat_map(|(i, row)| {
                row.iter()
                    .enumerate()
                    .map(move |(j, &pij)| 0.5 * pij + if i == j { 0.5 } else { 0.0 })
            })
            .collect();
        let mut power = Squaring::new(n, lazy);
        let mut pi = vec![1.0 / n as f64; n];
        while power.stats().squarings < MAX_SQUARINGS {
            power.square();
            // u·L^(2^k), normalised: the column sums over their total.
            let mut next = vec![0.0; n];
            for row in power.entries().chunks_exact(n) {
                for (x, &l) in next.iter_mut().zip(row) {
                    *x += l;
                }
            }
            let total: f64 = next.iter().sum();
            for x in next.iter_mut() {
                *x /= total;
            }
            let diff: f64 = pi.iter().zip(&next).map(|(a, b)| (a - b).abs()).sum();
            pi = next;
            if diff < 1e-14 {
                break;
            }
        }
        (pi, power.stats())
    }

    /// Sample the next state from state `i`.
    pub fn step(&self, i: usize, rng: &mut SimRng) -> usize {
        rng.discrete(&self.p[i])
    }
}

/// A Markov-modulated source: the chain's state in slot `t` determines the
/// bits generated during slot `t`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MarkovModulatedSource {
    chain: MarkovChain,
    /// Bits generated per slot in each state.
    bits_per_slot: Vec<f64>,
    /// Slot duration in seconds.
    slot: f64,
}

impl MarkovModulatedSource {
    /// Build a source.
    ///
    /// # Panics
    /// Panics if `bits_per_slot` length mismatches the chain, any value is
    /// negative/non-finite, or `slot <= 0`.
    pub fn new(chain: MarkovChain, bits_per_slot: Vec<f64>, slot: f64) -> Self {
        assert_eq!(
            bits_per_slot.len(),
            chain.num_states(),
            "one emission per chain state required"
        );
        assert!(
            bits_per_slot.iter().all(|&b| b.is_finite() && b >= 0.0),
            "emissions must be finite and nonnegative"
        );
        assert!(
            slot > 0.0 && slot.is_finite(),
            "slot duration must be positive"
        );
        Self {
            chain,
            bits_per_slot,
            slot,
        }
    }

    /// The modulating chain.
    pub fn chain(&self) -> &MarkovChain {
        &self.chain
    }

    /// All emissions.
    pub fn emissions(&self) -> &[f64] {
        &self.bits_per_slot
    }

    /// Slot duration in seconds.
    pub fn slot(&self) -> f64 {
        self.slot
    }

    /// Long-run mean rate `Σ π_i r_i` in bits/second.
    pub fn mean_rate(&self) -> f64 {
        let pi = self.chain.stationary();
        pi.iter()
            .zip(&self.bits_per_slot)
            .map(|(p, b)| p * b)
            .sum::<f64>()
            / self.slot
    }

    /// Peak rate in bits/second.
    pub fn peak_rate(&self) -> f64 {
        self.bits_per_slot.iter().fold(0.0f64, |m, &b| m.max(b)) / self.slot
    }

    /// Generate a trace of `n` slots, starting from a state drawn from the
    /// stationary distribution.
    pub fn generate(&self, n: usize, rng: &mut SimRng) -> FrameTrace {
        let pi = self.chain.stationary();
        let mut state = rng.discrete(&pi);
        let mut bits = Vec::with_capacity(n);
        for _ in 0..n {
            bits.push(self.bits_per_slot[state]);
            state = self.chain.step(state, rng);
        }
        FrameTrace::new(self.slot, bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn two_state_stationary_matches_closed_form() {
        let c = MarkovChain::two_state(0.1, 0.3);
        let pi = c.stationary();
        // π = (p10, p01) / (p01 + p10)
        assert!((pi[0] - 0.75).abs() < 1e-9, "{pi:?}");
        assert!((pi[1] - 0.25).abs() < 1e-9);
    }

    #[test]
    fn identity_chain_keeps_initial_distribution_fixed_points() {
        // Identity matrix: every distribution is stationary; the limit from
        // the uniform start is the uniform start.
        let c = MarkovChain::new(vec![vec![1.0, 0.0], vec![0.0, 1.0]]);
        let pi = c.stationary();
        assert!((pi[0] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn periodic_chain_converges_via_damping() {
        // Strictly alternating chain has period 2; stationary is (0.5, 0.5).
        let c = MarkovChain::new(vec![vec![0.0, 1.0], vec![1.0, 0.0]]);
        let pi = c.stationary();
        assert!((pi[0] - 0.5).abs() < 1e-9, "{pi:?}");
    }

    #[test]
    fn slowly_mixing_chain_reaches_the_closed_form() {
        // Second eigenvalue 1 − 4e-6: a linear iteration needs millions of
        // steps, squaring some twenty-five products.
        let c = MarkovChain::two_state(1e-6, 3e-6);
        let (pi, stats) = c.stationary_with_stats();
        assert!((pi[0] - 0.75).abs() < 1e-9, "{pi:?}");
        assert!((pi[1] - 0.25).abs() < 1e-9);
        assert!(stats.squarings <= 30, "{stats:?}");
    }

    #[test]
    fn work_counters_are_pinned() {
        // Well conditioned: the lazy chain's second eigenvalue is 0.8, and
        // 0.8^(2^k) is below 1e-14 from k = 8; one more product sees it.
        let (_, stats) = MarkovChain::two_state(0.1, 0.3).stationary_with_stats();
        assert_eq!((stats.squarings, stats.nnz_products), (9, 9 * 4 * 2));
        // A reducible chain's zero entries are skipped: the identity stays
        // diagonal, one row update per row.
        let id = MarkovChain::new(vec![vec![1.0, 0.0], vec![0.0, 1.0]]);
        let (_, stats) = id.stationary_with_stats();
        assert_eq!((stats.squarings, stats.nnz_products), (1, 4));
    }

    /// The damped linear iteration `π ← π·(I + P)/2` from the uniform
    /// start, the definition `stationary()` computes by squaring.
    fn damped_limit(p: &[Vec<f64>], steps: usize) -> Vec<f64> {
        let n = p.len();
        let mut pi = vec![1.0 / n as f64; n];
        for _ in 0..steps {
            let mut next: Vec<f64> = pi.iter().map(|w| 0.5 * w).collect();
            for (w, row) in pi.iter().zip(p) {
                for (x, pij) in next.iter_mut().zip(row) {
                    *x += 0.5 * w * pij;
                }
            }
            pi = next;
        }
        pi
    }

    #[test]
    fn reducible_chain_keeps_the_damped_iterations_limit() {
        // Two closed classes — the absorbing state 1 and the pair {2, 3} —
        // fed by transient states 0 and 4: the shape the admission
        // estimator produces (levels with no observed exit self-loop).
        let p = vec![
            vec![0.5, 0.2, 0.3, 0.0, 0.0],
            vec![0.0, 1.0, 0.0, 0.0, 0.0],
            vec![0.0, 0.0, 0.6, 0.4, 0.0],
            vec![0.0, 0.0, 0.9, 0.1, 0.0],
            vec![0.25, 0.0, 0.0, 0.5, 0.25],
        ];
        let pi = MarkovChain::new(p.clone()).stationary();
        let want = damped_limit(&p, 20_000);
        for (got, want) in pi.iter().zip(&want) {
            assert!((got - want).abs() < 1e-12, "{pi:?} vs {want:?}");
        }
        // Absorption from the uniform start: state 0 splits 2:3, state 4
        // reaches {2,3} directly with 2/3 and via state 0 with 1/3.
        let class_1 = (1.0 + 0.4 + 0.4 / 3.0) / 5.0;
        assert!((pi[1] - class_1).abs() < 1e-13, "{pi:?}");
        assert!(pi[0] < 1e-30 && pi[4] < 1e-30, "{pi:?}");
        for j in 0..5 {
            let pj: f64 = (0..5).map(|i| pi[i] * p[i][j]).sum();
            assert!(
                (pj - pi[j]).abs() < 1e-13,
                "component {j}: {pj} vs {}",
                pi[j]
            );
        }
    }

    #[test]
    #[should_panic(expected = "sums to")]
    fn non_stochastic_row_rejected() {
        MarkovChain::new(vec![vec![0.5, 0.4], vec![0.5, 0.5]]);
    }

    #[test]
    fn source_mean_and_peak() {
        let c = MarkovChain::two_state(0.5, 0.5); // π = (0.5, 0.5)
        let s = MarkovModulatedSource::new(c, vec![0.0, 1000.0], 0.1);
        assert!((s.mean_rate() - 5000.0).abs() < 1e-6);
        assert_eq!(s.peak_rate(), 10_000.0);
    }

    #[test]
    fn generated_trace_matches_long_run_mean() {
        let c = MarkovChain::two_state(0.2, 0.2);
        let s = MarkovModulatedSource::new(c, vec![100.0, 900.0], 1.0);
        let mut rng = SimRng::from_seed(11);
        let tr = s.generate(200_000, &mut rng);
        assert!(
            (tr.mean_rate() - s.mean_rate()).abs() / s.mean_rate() < 0.02,
            "trace mean {} vs model mean {}",
            tr.mean_rate(),
            s.mean_rate()
        );
    }

    proptest! {
        #[test]
        fn stationary_is_a_fixed_point(
            rows in proptest::collection::vec(
                proptest::collection::vec(0.01..1.0f64, 4), 4),
        ) {
            // Normalize rows to be stochastic.
            let p: Vec<Vec<f64>> = rows
                .into_iter()
                .map(|r| {
                    let s: f64 = r.iter().sum();
                    r.into_iter().map(|x| x / s).collect()
                })
                .collect();
            let c = MarkovChain::new(p.clone());
            let pi = c.stationary();
            prop_assert!((pi.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            // Check π P = π.
            for j in 0..4 {
                let pj: f64 = (0..4).map(|i| pi[i] * p[i][j]).sum();
                prop_assert!((pj - pi[j]).abs() < 1e-7, "component {j}: {pj} vs {}", pi[j]);
            }
        }
    }
}
