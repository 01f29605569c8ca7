//! The multiple-time-scale (MTS) Markov source model of Section V-A.
//!
//! The state space is a union of disjoint *subchains*. Dynamics within a
//! subchain model fast time-scale behaviour (correlations between adjacent
//! frames); transitions *between* subchains are rare — probability `ε_k` per
//! slot — and model the slow time scale (scene changes). The "sustained
//! peak" the paper observes corresponds to a long sojourn in a high-rate
//! subchain (Fig. 4).
//!
//! [`MtsModel`] exposes exactly the quantities the theory needs:
//!
//! * the flattened [`MarkovModulatedSource`] (for simulation),
//! * the per-subchain mean rates `m_k` and steady-state subchain
//!   probabilities `p_k` (for the Chernoff estimates (10)–(12)),
//! * per-subchain sources in isolation (for the equivalent-bandwidth
//!   maximum of eq. (9)).

use rcbr_sim::stats::DiscreteDistribution;
use serde::{Deserialize, Serialize};

use crate::markov::{MarkovChain, MarkovModulatedSource};

/// One fast-time-scale subchain: a Markov chain plus per-state emissions.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Subchain {
    chain: MarkovChain,
    bits_per_slot: Vec<f64>,
}

impl Subchain {
    /// Build a subchain.
    ///
    /// # Panics
    /// Panics if emissions don't match the chain's state count or are
    /// negative/non-finite.
    pub fn new(chain: MarkovChain, bits_per_slot: Vec<f64>) -> Self {
        assert_eq!(
            bits_per_slot.len(),
            chain.num_states(),
            "one emission per state"
        );
        assert!(
            bits_per_slot.iter().all(|&b| b.is_finite() && b >= 0.0),
            "emissions must be finite and nonnegative"
        );
        Self {
            chain,
            bits_per_slot,
        }
    }

    /// A single-state subchain emitting a constant number of bits per slot.
    pub fn constant(bits_per_slot: f64) -> Self {
        Self::new(MarkovChain::new(vec![vec![1.0]]), vec![bits_per_slot])
    }

    /// The fast-dynamics chain.
    pub fn chain(&self) -> &MarkovChain {
        &self.chain
    }

    /// Emissions per state, bits per slot.
    pub fn emissions(&self) -> &[f64] {
        &self.bits_per_slot
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.chain.num_states()
    }

    /// Mean bits per slot under the subchain's own stationary distribution.
    pub fn mean_bits_per_slot(&self) -> f64 {
        self.chain
            .stationary()
            .iter()
            .zip(&self.bits_per_slot)
            .map(|(p, b)| p * b)
            .sum()
    }

    /// Peak bits per slot.
    pub fn peak_bits_per_slot(&self) -> f64 {
        self.bits_per_slot.iter().fold(0.0f64, |m, &b| m.max(b))
    }

    /// This subchain *in isolation* as a Markov-modulated source with the
    /// given slot duration — the object whose equivalent bandwidth appears
    /// in eq. (9).
    pub fn as_source(&self, slot: f64) -> MarkovModulatedSource {
        MarkovModulatedSource::new(self.chain.clone(), self.bits_per_slot.clone(), slot)
    }
}

/// A multiple-time-scale source: subchains plus rare inter-subchain jumps.
///
/// From subchain `k`, each slot jumps with probability `eps[k]` to subchain
/// `l ≠ k` chosen with probability `switch[k][l]`, entering `l` in its
/// stationary distribution; otherwise the fast chain of `k` takes one step.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MtsModel {
    subchains: Vec<Subchain>,
    switch: Vec<Vec<f64>>,
    eps: Vec<f64>,
    slot: f64,
}

impl MtsModel {
    /// Build an MTS model.
    ///
    /// # Panics
    /// Panics unless there are ≥ 2 subchains, `switch` is square with zero
    /// diagonal and rows summing to 1, `eps` values are in `(0, 1)`, and
    /// `slot > 0`.
    pub fn new(subchains: Vec<Subchain>, switch: Vec<Vec<f64>>, eps: Vec<f64>, slot: f64) -> Self {
        let k = subchains.len();
        assert!(k >= 2, "an MTS model needs at least two subchains");
        assert_eq!(
            switch.len(),
            k,
            "switch matrix must have one row per subchain"
        );
        assert_eq!(eps.len(), k, "one rare-transition probability per subchain");
        assert!(
            slot > 0.0 && slot.is_finite(),
            "slot duration must be positive"
        );
        for (i, row) in switch.iter().enumerate() {
            assert_eq!(row.len(), k, "switch matrix must be square");
            assert!(
                row[i] == 0.0,
                "switch matrix diagonal must be zero (row {i})"
            );
            assert!(
                row.iter().all(|&x| x.is_finite() && x >= 0.0),
                "switch probs invalid"
            );
            let s: f64 = row.iter().sum();
            assert!((s - 1.0).abs() < 1e-9, "switch row {i} sums to {s}");
        }
        assert!(
            eps.iter().all(|&e| e > 0.0 && e < 1.0),
            "rare-transition probabilities must lie in (0, 1)"
        );
        Self {
            subchains,
            switch,
            eps,
            slot,
        }
    }

    /// The subchains.
    pub fn subchains(&self) -> &[Subchain] {
        &self.subchains
    }

    /// Number of subchains.
    pub fn num_subchains(&self) -> usize {
        self.subchains.len()
    }

    /// Slot duration in seconds.
    pub fn slot(&self) -> f64 {
        self.slot
    }

    /// Mean sojourn time in subchain `k`, seconds (`slot / eps_k`).
    pub fn mean_sojourn(&self, k: usize) -> f64 {
        self.slot / self.eps[k]
    }

    /// Mean rate of subchain `k` in isolation, bits/second — the `m_k` of
    /// the slow-time-scale marginal.
    pub fn subchain_mean_rate(&self, k: usize) -> f64 {
        self.subchains[k].mean_bits_per_slot() / self.slot
    }

    /// Steady-state probability `p_k` of being in each subchain.
    ///
    /// The embedded subchain-level chain has transition probabilities
    /// `switch[k][l]`; sojourn times are geometric with mean `1/eps_k`
    /// slots, so `p_k ∝ ν_k / eps_k` with `ν` the embedded stationary
    /// distribution.
    pub fn subchain_probs(&self) -> Vec<f64> {
        let embedded = MarkovChain::new(self.switch.clone());
        let nu = embedded.stationary();
        let mut p: Vec<f64> = nu.iter().zip(&self.eps).map(|(n, e)| n / e).collect();
        let total: f64 = p.iter().sum();
        for x in p.iter_mut() {
            *x /= total;
        }
        p
    }

    /// The slow-time-scale marginal: a distribution over the subchain mean
    /// rates weighted by `p_k` — the random variable `R` of eq. (10), whose
    /// Chernoff estimate governs the shared-buffer loss probability.
    pub fn slow_scale_distribution(&self) -> DiscreteDistribution {
        let p = self.subchain_probs();
        let pairs: Vec<(f64, f64)> = (0..self.num_subchains())
            .map(|k| (self.subchain_mean_rate(k), p[k]))
            .collect();
        DiscreteDistribution::from_weights(&pairs)
    }

    /// Long-run mean rate of the whole source, bits/second.
    pub fn mean_rate(&self) -> f64 {
        let p = self.subchain_probs();
        (0..self.num_subchains())
            .map(|k| p[k] * self.subchain_mean_rate(k))
            .sum()
    }

    /// Peak rate across all states of all subchains, bits/second.
    pub fn peak_rate(&self) -> f64 {
        self.subchains
            .iter()
            .map(|s| s.peak_bits_per_slot())
            .fold(0.0f64, f64::max)
            / self.slot
    }

    /// Flatten into a single Markov-modulated source over the union state
    /// space (for simulation and for single-time-scale analyses applied to
    /// the whole source).
    pub fn flatten(&self) -> MarkovModulatedSource {
        let sizes: Vec<usize> = self.subchains.iter().map(|s| s.num_states()).collect();
        let offsets: Vec<usize> = sizes
            .iter()
            .scan(0usize, |acc, &s| {
                let o = *acc;
                *acc += s;
                Some(o)
            })
            .collect();
        let n: usize = sizes.iter().sum();
        let mut p = vec![vec![0.0; n]; n];
        let mut emissions = vec![0.0; n];
        let stationaries: Vec<Vec<f64>> = self
            .subchains
            .iter()
            .map(|s| s.chain().stationary())
            .collect();
        for (k, sub) in self.subchains.iter().enumerate() {
            let ok = offsets[k];
            let ek = self.eps[k];
            for i in 0..sub.num_states() {
                emissions[ok + i] = sub.emissions()[i];
                // Fast transitions within subchain k.
                for j in 0..sub.num_states() {
                    p[ok + i][ok + j] += (1.0 - ek) * sub.chain().prob(i, j);
                }
                // Rare transitions to subchain l, landing in l's stationary
                // distribution.
                for (l, &ql) in self.switch[k].iter().enumerate() {
                    if ql == 0.0 {
                        continue;
                    }
                    let ol = offsets[l];
                    for (j, &pj) in stationaries[l].iter().enumerate() {
                        p[ok + i][ol + j] += ek * ql * pj;
                    }
                }
            }
        }
        MarkovModulatedSource::new(MarkovChain::new(p), emissions, self.slot)
    }

    /// The three-subchain example of Fig. 4, scaled to a video-like source:
    /// a low-activity scene (on/off around 200 kb/s), a medium scene
    /// (on/off around 500 kb/s), and a high-action scene sustained near
    /// 1.5 Mb/s — with mean scene length `1/eps` slots.
    pub fn fig4_example(eps: f64, slot: f64) -> MtsModel {
        let kb = 1_000.0;
        // Subchain 1: low activity, alternating 100/300 kb/s.
        let low = Subchain::new(
            MarkovChain::two_state(0.3, 0.3),
            vec![100.0 * kb * slot, 300.0 * kb * slot],
        );
        // Subchain 2: medium activity, alternating 300/700 kb/s.
        let med = Subchain::new(
            MarkovChain::two_state(0.4, 0.4),
            vec![300.0 * kb * slot, 700.0 * kb * slot],
        );
        // Subchain 3: sustained high action, 1.2–1.8 Mb/s.
        let high = Subchain::new(
            MarkovChain::two_state(0.5, 0.5),
            vec![1200.0 * kb * slot, 1800.0 * kb * slot],
        );
        // Scene transitions: mostly between low and medium; high is rarer.
        let switch = vec![
            vec![0.0, 0.8, 0.2],
            vec![0.7, 0.0, 0.3],
            vec![0.5, 0.5, 0.0],
        ];
        MtsModel::new(vec![low, med, high], switch, vec![eps; 3], slot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcbr_sim::SimRng;

    fn model(eps: f64) -> MtsModel {
        MtsModel::fig4_example(eps, 1.0 / 24.0)
    }

    #[test]
    fn subchain_probs_sum_to_one() {
        let m = model(1e-3);
        let p = m.subchain_probs();
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(p.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn uniform_eps_probs_match_embedded_stationary() {
        let m = model(1e-3);
        let embedded = MarkovChain::new(vec![
            vec![0.0, 0.8, 0.2],
            vec![0.7, 0.0, 0.3],
            vec![0.5, 0.5, 0.0],
        ]);
        let nu = embedded.stationary();
        let p = m.subchain_probs();
        for (a, b) in nu.iter().zip(&p) {
            assert!((a - b).abs() < 1e-9, "{nu:?} vs {p:?}");
        }
    }

    #[test]
    fn heterogeneous_eps_weights_by_sojourn() {
        let a = Subchain::constant(100.0);
        let b = Subchain::constant(200.0);
        let switch = vec![vec![0.0, 1.0], vec![1.0, 0.0]];
        // Subchain 0 sojourns 10x longer.
        let m = MtsModel::new(vec![a, b], switch, vec![0.001, 0.01], 1.0);
        let p = m.subchain_probs();
        assert!((p[0] - 10.0 / 11.0).abs() < 1e-9, "{p:?}");
    }

    #[test]
    fn mean_rate_mixes_subchain_means() {
        let m = model(1e-3);
        let p = m.subchain_probs();
        let expect: f64 = (0..3).map(|k| p[k] * m.subchain_mean_rate(k)).sum();
        assert!((m.mean_rate() - expect).abs() < 1e-9);
        // Subchain means: 200, 500, 1500 kb/s.
        assert!((m.subchain_mean_rate(0) - 200_000.0).abs() < 1e-6);
        assert!((m.subchain_mean_rate(1) - 500_000.0).abs() < 1e-6);
        assert!((m.subchain_mean_rate(2) - 1_500_000.0).abs() < 1e-6);
    }

    #[test]
    fn flattened_source_preserves_mean_rate() {
        let m = model(1e-2);
        let flat = m.flatten();
        assert!(
            (flat.mean_rate() - m.mean_rate()).abs() / m.mean_rate() < 1e-6,
            "flat {} vs model {}",
            flat.mean_rate(),
            m.mean_rate()
        );
        assert_eq!(flat.chain().num_states(), 6);
        assert!((flat.peak_rate() - m.peak_rate()).abs() < 1e-6);
    }

    #[test]
    fn slow_scale_distribution_is_consistent() {
        let m = model(1e-3);
        let d = m.slow_scale_distribution();
        assert_eq!(d.len(), 3);
        assert!((d.mean() - m.mean_rate()).abs() < 1e-6);
        assert!((d.peak() - 1_500_000.0).abs() < 1e-6);
    }

    #[test]
    fn sojourns_scale_with_eps() {
        let m = model(1e-4);
        assert!((m.mean_sojourn(0) - (1.0 / 24.0) / 1e-4).abs() < 1e-9);
    }

    #[test]
    fn simulated_subchain_occupancy_matches_probs() {
        // With small eps the flattened source should spend ~p_k of its time
        // at subchain k's emission levels.
        let m = model(5e-3);
        let flat = m.flatten();
        let mut rng = SimRng::from_seed(99);
        let tr = flat.generate(400_000, &mut rng);
        // Classify each slot by its emission level: low subchain emits
        // <= 300 kb/s * slot, high subchain >= 1200 kb/s * slot.
        let slot = m.slot();
        let high_frac = tr
            .frames()
            .iter()
            .filter(|&&b| b >= 1200.0 * 1000.0 * slot - 1.0)
            .count() as f64
            / tr.len() as f64;
        let p = m.subchain_probs();
        assert!(
            (high_frac - p[2]).abs() < 0.05,
            "high occupancy {high_frac} vs p2 {}",
            p[2]
        );
    }

    #[test]
    #[should_panic(expected = "diagonal")]
    fn nonzero_switch_diagonal_rejected() {
        let a = Subchain::constant(1.0);
        let b = Subchain::constant(2.0);
        MtsModel::new(
            vec![a, b],
            vec![vec![0.5, 0.5], vec![1.0, 0.0]],
            vec![0.01, 0.01],
            1.0,
        );
    }
}
