//! Equivalent bandwidth of Markov-modulated sources.
//!
//! For a discrete-time source emitting `x_i` bits per slot in state `i` of
//! a Markov chain `P`, the scaled log-MGF of the arrival process is
//!
//! ```text
//! Λ(θ) = ln ρ( P · diag(e^{θ x_i}) )
//! ```
//!
//! (per slot, with `θ` in 1/bits), and the large-buffer asymptotic
//! `P(overflow of buffer B) ≈ e^{−θ B}` holds when the drain rate per slot
//! equals the *equivalent bandwidth* `Λ(θ)/θ`. Inverting the QoS target
//! `ε = e^{−θ* B}` gives `θ* = ln(1/ε)/B` and
//!
//! ```text
//! EB(B, ε) = Λ(θ*) / θ*   (bits per slot; divide by the slot length for b/s)
//! ```
//!
//! The equivalent bandwidth always lies between the source's mean and peak
//! rates and decreases as the buffer grows — it "measures the amount of
//! smoothing of the stream by buffering" (Section V-A).
//!
//! For a multiple-time-scale source, eq. (9) of the paper: in the joint
//! regime where the buffer absorbs fast fluctuations but rare transitions
//! are slower still, the equivalent bandwidth of the whole stream is
//! `max_k EB_k`, the maximum over the subchains considered in isolation.

use rcbr_traffic::markov::MarkovModulatedSource;
use rcbr_traffic::mts::MtsModel;
use serde::{Deserialize, Serialize};

use crate::matrix::Matrix;

/// A buffer-overflow QoS target: `P(overflow of buffer B) <= epsilon`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QosTarget {
    /// Buffer size in bits.
    pub buffer: f64,
    /// Overflow/loss probability bound.
    pub epsilon: f64,
}

impl QosTarget {
    /// Create a target.
    ///
    /// # Panics
    /// Panics unless `buffer > 0` and `0 < epsilon < 1`.
    pub fn new(buffer: f64, epsilon: f64) -> Self {
        assert!(
            buffer > 0.0 && buffer.is_finite(),
            "buffer must be positive"
        );
        assert!(epsilon > 0.0 && epsilon < 1.0, "epsilon must be in (0, 1)");
        Self { buffer, epsilon }
    }

    /// The large-deviations space parameter `θ* = ln(1/ε)/B`, 1/bits.
    pub fn theta(&self) -> f64 {
        (1.0 / self.epsilon).ln() / self.buffer
    }
}

/// The scaled log-MGF `Λ(θ) = ln ρ(P·diag(e^{θ x_i}))` of a
/// Markov-modulated source, per slot, with `θ` in 1/bits.
///
/// Computed with the peak emission factored out so the matrix entries stay
/// in `[0, 1]` and no overflow occurs even for large `θ`, and taken from
/// [`Matrix::ln_perron_root`] so a root of `1e-40` (fifty rate levels at
/// the admission path's `θ`) costs no accuracy.
pub fn log_spectral_mgf(source: &MarkovModulatedSource, theta: f64) -> f64 {
    let chain = source.chain();
    let n = chain.num_states();
    let peak = source.emissions().iter().fold(0.0f64, |m, &x| m.max(x));
    // A[i][j] = P[i][j] * e^{θ (x_j - peak)}; ρ(A(θ)) = ρ(true) e^{-θ peak}.
    let column_factor: Vec<f64> = source
        .emissions()
        .iter()
        .map(|&x| (theta * (x - peak)).exp())
        .collect();
    let mut a = Matrix::zeros(n, n);
    for i in 0..n {
        for (j, &f) in column_factor.iter().enumerate() {
            a[(i, j)] = chain.prob(i, j) * f;
        }
    }
    theta * peak + a.ln_perron_root()
}

/// Equivalent bandwidth of a Markov-modulated source for the given QoS
/// target, in **bits/second**.
///
/// ```
/// use rcbr_ldt::{equivalent_bandwidth, QosTarget};
/// use rcbr_traffic::OnOffSource;
///
/// // 1 Mb/s peak, on half the time => mean 500 kb/s.
/// let source = OnOffSource::new(0.2, 0.2, 1_000_000.0, 0.04).as_source();
/// let eb = equivalent_bandwidth(&source, QosTarget::new(100_000.0, 1e-6));
/// assert!(eb > source.mean_rate() && eb < source.peak_rate());
/// ```
///
/// As `B → ∞` this tends to the mean rate; as `B → 0` to the peak rate.
/// The result is clamped to `[mean, peak]` to absorb numerical round-off
/// at the extremes.
pub fn equivalent_bandwidth(source: &MarkovModulatedSource, qos: QosTarget) -> f64 {
    let theta = qos.theta();
    let eb_bits_per_slot = log_spectral_mgf(source, theta) / theta;
    let eb = eb_bits_per_slot / source.slot();
    eb.clamp(source.mean_rate(), source.peak_rate())
}

/// Eq. (9): the equivalent bandwidth of a multiple-time-scale source is
/// the maximum over its subchains, each considered in isolation, in
/// bits/second. Also returns the index of the dominating subchain.
pub fn mts_equivalent_bandwidth(model: &MtsModel, qos: QosTarget) -> (f64, usize) {
    let slot = model.slot();
    model
        .subchains()
        .iter()
        .enumerate()
        .map(|(k, sub)| (equivalent_bandwidth(&sub.as_source(slot), qos), k))
        .max_by(|a, b| a.0.total_cmp(&b.0))
        .expect("MTS models have at least two subchains")
}

/// A memo for [`equivalent_bandwidth`].
///
/// The EB of a Markov-modulated source costs a spectral-radius and a
/// stationary-distribution solve per call (some sixty `n×n` products);
/// admission sweeps and validation harnesses evaluate
/// the same handful of `(source, QoS)` pairs thousands of times. The memo
/// key is **exact**: the bit patterns of the transition matrix, the
/// per-state emissions, the slot length, and the QoS target — no hashing,
/// no collisions, so a hit returns the bit-identical `f64` the direct
/// computation would produce.
///
/// ```
/// use rcbr_ldt::{equivalent_bandwidth, EbCache, QosTarget};
/// use rcbr_traffic::OnOffSource;
///
/// let source = OnOffSource::new(0.2, 0.2, 1_000_000.0, 0.04).as_source();
/// let qos = QosTarget::new(100_000.0, 1e-6);
/// let mut cache = EbCache::new();
/// let eb = cache.equivalent_bandwidth(&source, qos);
/// assert_eq!(eb.to_bits(), equivalent_bandwidth(&source, qos).to_bits());
/// assert_eq!(cache.hits(), 0);
/// cache.equivalent_bandwidth(&source, qos);
/// assert_eq!(cache.hits(), 1);
/// ```
#[derive(Debug, Default, Clone)]
pub struct EbCache {
    map: std::collections::BTreeMap<Vec<u64>, f64>,
    hits: u64,
    misses: u64,
}

/// A point-in-time snapshot of an [`EbCache`]'s hit/miss accounting, for
/// run reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EbCacheStats {
    /// Lookups answered from the memo.
    pub hits: u64,
    /// Lookups that had to run the solve.
    pub misses: u64,
    /// Distinct `(source, QoS)` pairs memoized.
    pub entries: u64,
}

impl EbCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Lookups answered from the memo.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Snapshot the cache's accounting.
    pub fn stats(&self) -> EbCacheStats {
        EbCacheStats {
            hits: self.hits,
            misses: self.misses,
            entries: self.map.len() as u64,
        }
    }

    /// [`equivalent_bandwidth`], memoized.
    pub fn equivalent_bandwidth(&mut self, source: &MarkovModulatedSource, qos: QosTarget) -> f64 {
        let key = Self::key(source, qos);
        if let Some(&eb) = self.map.get(&key) {
            self.hits += 1;
            return eb;
        }
        self.misses += 1;
        let eb = equivalent_bandwidth(source, qos);
        self.map.insert(key, eb);
        eb
    }

    /// [`mts_equivalent_bandwidth`], memoized per subchain: repeated calls
    /// for the same model — or for sources sharing its subchains — reuse
    /// the per-subchain entries.
    pub fn mts_equivalent_bandwidth(&mut self, model: &MtsModel, qos: QosTarget) -> (f64, usize) {
        let slot = model.slot();
        model
            .subchains()
            .iter()
            .enumerate()
            .map(|(k, sub)| (self.equivalent_bandwidth(&sub.as_source(slot), qos), k))
            .max_by(|a, b| a.0.total_cmp(&b.0))
            .expect("MTS models have at least two subchains")
    }

    /// The exact memo key: every float that enters the computation, as raw
    /// bits, plus the state count to delimit the matrix rows.
    fn key(source: &MarkovModulatedSource, qos: QosTarget) -> Vec<u64> {
        let chain = source.chain();
        let n = chain.num_states();
        let mut key = Vec::with_capacity(n * n + n + 4);
        key.push(n as u64);
        key.push(source.slot().to_bits());
        key.push(qos.buffer.to_bits());
        key.push(qos.epsilon.to_bits());
        for i in 0..n {
            for j in 0..n {
                key.push(chain.prob(i, j).to_bits());
            }
        }
        key.extend(source.emissions().iter().map(|x| x.to_bits()));
        key
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcbr_traffic::markov::MarkovChain;
    use rcbr_traffic::onoff::OnOffSource;

    fn onoff() -> MarkovModulatedSource {
        // 1000 b/s peak, on half the time, 1 s slots.
        OnOffSource::new(0.2, 0.2, 1000.0, 1.0).as_source()
    }

    #[test]
    fn lambda_zero_is_zero() {
        let s = onoff();
        assert!(log_spectral_mgf(&s, 0.0).abs() < 1e-12);
    }

    #[test]
    fn lambda_slope_brackets_mean_and_peak() {
        // Λ(θ)/θ increases from the mean rate (θ→0) to the peak (θ→∞).
        let s = onoff();
        let small = log_spectral_mgf(&s, 1e-9) / 1e-9;
        let large = log_spectral_mgf(&s, 1.0) / 1.0;
        assert!((small - 500.0).abs() < 1.0, "small-θ slope {small}");
        assert!(
            large > 900.0 && large <= 1000.0 + 1e-9,
            "large-θ slope {large}"
        );
    }

    #[test]
    fn no_overflow_at_extreme_theta() {
        let s = onoff();
        let v = log_spectral_mgf(&s, 10.0); // e^{10*1000} would overflow naively
        assert!(v.is_finite());
        assert!((v / 10.0 - 1000.0).abs() < 1.0);
    }

    #[test]
    fn eb_decreases_with_buffer() {
        let s = onoff();
        let eb_small = equivalent_bandwidth(&s, QosTarget::new(10.0, 1e-6));
        let eb_big = equivalent_bandwidth(&s, QosTarget::new(100_000.0, 1e-6));
        assert!(eb_small > eb_big, "{eb_small} vs {eb_big}");
        assert!(eb_small <= 1000.0 + 1e-9);
        assert!(eb_big >= 500.0 - 1e-9);
        // Huge buffer: essentially the mean.
        let eb_huge = equivalent_bandwidth(&s, QosTarget::new(3_000_000.0, 1e-6));
        assert!((eb_huge - 500.0) / 500.0 < 0.05, "eb_huge {eb_huge}");
    }

    #[test]
    fn eb_increases_with_stricter_epsilon() {
        let s = onoff();
        let loose = equivalent_bandwidth(&s, QosTarget::new(1000.0, 1e-2));
        let strict = equivalent_bandwidth(&s, QosTarget::new(1000.0, 1e-9));
        assert!(strict >= loose, "{strict} vs {loose}");
    }

    #[test]
    fn cbr_source_eb_is_its_rate() {
        let chain = MarkovChain::new(vec![vec![1.0]]);
        let s = MarkovModulatedSource::new(chain, vec![700.0], 1.0);
        let eb = equivalent_bandwidth(&s, QosTarget::new(100.0, 1e-6));
        assert!((eb - 700.0).abs() < 1e-9);
    }

    /// A 50-level source in the runtime estimator's units: unit slot, rate
    /// grid Δ = 50 000, so at B = 300 000, ε = 1e-6 neighbouring columns
    /// of `P·diag(e^{θx})` differ by `e^{θΔ} = 10`. `exits(i)` lists level
    /// `i`'s `(target, probability)` pairs.
    fn graded_levels(exits: impl Fn(usize) -> Vec<(usize, f64)>) -> MarkovModulatedSource {
        let n = 50;
        let mut p = vec![vec![0.0; n]; n];
        for (i, row) in p.iter_mut().enumerate() {
            for (j, pij) in exits(i) {
                row[j] += pij;
            }
        }
        let emissions = (1..=n).map(|level| level as f64 * 50_000.0).collect();
        MarkovModulatedSource::new(MarkovChain::new(p), emissions, 1.0)
    }

    const RUNTIME_QOS: QosTarget = QosTarget {
        buffer: 300_000.0,
        epsilon: 1e-6,
    };

    /// `ln ρ(P·diag(e^{θ(x−peak)}))` by the unshifted, normalised linear
    /// iteration `v ← v·A / ‖v·A‖₁`: nothing is subtracted, so it is as
    /// accurate as it is slow.
    fn brute_force_ln_root(source: &MarkovModulatedSource, theta: f64, steps: usize) -> f64 {
        let n = source.chain().num_states();
        let peak = source.peak_rate() * source.slot();
        let a: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                (0..n)
                    .map(|j| {
                        source.chain().prob(i, j) * (theta * (source.emissions()[j] - peak)).exp()
                    })
                    .collect()
            })
            .collect();
        let mut v = vec![1.0 / n as f64; n];
        let mut growth = 0.0;
        for _ in 0..steps {
            let mut w = vec![0.0; n];
            for (vi, row) in v.iter().zip(&a) {
                for (wj, aij) in w.iter_mut().zip(row) {
                    *wj += vi * aij;
                }
            }
            growth = w.iter().sum();
            v = w.iter().map(|x| x / growth).collect();
        }
        growth.ln()
    }

    #[test]
    fn graded_chain_agrees_with_brute_force() {
        // Levels up to 31 are sticky; above, the source climbs rarely and
        // falls back at once. The root is level 31's self-loop, 0.5·1e-19
        // — nineteen orders below the largest entry — and the next
        // eigenvalue is 0.5 % behind, so 20 000 linear steps settle it.
        let src = graded_levels(|i| match i {
            0..=30 => vec![(i, 0.5), (i + 1, 0.3), (i / 4, 0.2)],
            31..=48 => vec![(i + 1, 0.1), (i / 4, 0.9)],
            _ => vec![(i / 4, 1.0)],
        });
        let theta = RUNTIME_QOS.theta();
        let eb = equivalent_bandwidth(&src, RUNTIME_QOS);
        assert!(
            eb > 1.01 * src.mean_rate() && eb < 0.99 * src.peak_rate(),
            "{} < {eb} < {}",
            src.mean_rate(),
            src.peak_rate()
        );
        let ln_root = brute_force_ln_root(&src, theta, 20_000);
        let brute = (theta * src.peak_rate() + ln_root) / theta;
        assert!((eb - brute).abs() <= 1e-9 * brute, "{eb} vs {brute}");
        // The same root from a 200-digit eigen-solve of the same matrix.
        let ln_rho = log_spectral_mgf(&src, theta) - theta * src.peak_rate();
        assert!((ln_rho - -44.242_990_832_841_12).abs() < 1e-12, "{ln_rho}");
    }

    #[test]
    fn graded_cyclic_chain_matches_the_reference_root() {
        // Every level climbs one step or drops to a third of its height,
        // and only level 1 can stay: the dominant cycle 17 → … → 50 → 17
        // is all but periodic (the second eigenvalue is 1e-22 behind), so
        // no linear iteration settles; the reference is a 200-digit
        // eigen-solve. The root is 1e-17 against a largest entry of 1.
        let src = graded_levels(|i| match i {
            0..=48 => vec![(i + 1, 0.6), (i / 3, 0.4)],
            _ => vec![(i / 3, 1.0)],
        });
        let theta = RUNTIME_QOS.theta();
        let ln_rho = log_spectral_mgf(&src, theta) - theta * src.peak_rate();
        assert!((ln_rho - -38.488_455_375_115_8).abs() < 1e-12, "{ln_rho}");
        let eb = equivalent_bandwidth(&src, RUNTIME_QOS);
        assert!(eb > 1.01 * src.mean_rate() && eb < 0.99 * src.peak_rate());
    }

    #[test]
    fn mts_eb_is_dominated_by_burstiest_subchain() {
        let m = MtsModel::fig4_example(1e-4, 1.0 / 24.0);
        let qos = QosTarget::new(300_000.0, 1e-6);
        let (eb, k) = mts_equivalent_bandwidth(&m, qos);
        // The high-action subchain (index 2, mean 1.5 Mb/s) dominates.
        assert_eq!(k, 2);
        assert!(eb >= m.subchain_mean_rate(2) - 1e-6);
        assert!(eb <= m.peak_rate() + 1e-6);
        // And it is far above the whole-stream mean: the "wasteful static
        // allocation" the paper derives.
        assert!(eb > 2.0 * m.mean_rate());
    }

    #[test]
    fn mts_eb_exceeds_max_subchain_mean() {
        // eq. (9) discussion: the drain rate needed is greater than
        // max_k m_k.
        let m = MtsModel::fig4_example(1e-4, 1.0 / 24.0);
        let qos = QosTarget::new(50_000.0, 1e-6);
        let (eb, _) = mts_equivalent_bandwidth(&m, qos);
        let max_mean = (0..3)
            .map(|k| m.subchain_mean_rate(k))
            .fold(0.0f64, f64::max);
        assert!(eb > max_mean, "eb {eb} <= max subchain mean {max_mean}");
    }

    #[test]
    fn theta_matches_definition() {
        let q = QosTarget::new(300_000.0, 1e-6);
        assert!((q.theta() - (1e6f64).ln() / 300_000.0).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "epsilon")]
    fn bad_epsilon_rejected() {
        QosTarget::new(1.0, 1.5);
    }

    #[test]
    fn cache_returns_bit_identical_results() {
        let s = onoff();
        let mut cache = EbCache::new();
        for qos in [
            QosTarget::new(10.0, 1e-6),
            QosTarget::new(1000.0, 1e-2),
            QosTarget::new(100_000.0, 1e-9),
        ] {
            let direct = equivalent_bandwidth(&s, qos);
            let miss = cache.equivalent_bandwidth(&s, qos);
            let hit = cache.equivalent_bandwidth(&s, qos);
            assert_eq!(direct.to_bits(), miss.to_bits());
            assert_eq!(direct.to_bits(), hit.to_bits());
        }
        assert_eq!(cache.map.len(), 3);
        assert_eq!(cache.misses, 3);
        assert_eq!(cache.hits(), 3);
    }

    #[test]
    fn cache_distinguishes_sources_and_targets() {
        let a = onoff();
        // Same shape, different emission: must not share an entry.
        let b = OnOffSource::new(0.2, 0.2, 1001.0, 1.0).as_source();
        let qos = QosTarget::new(1000.0, 1e-6);
        let mut cache = EbCache::new();
        let eb_a = cache.equivalent_bandwidth(&a, qos);
        let eb_b = cache.equivalent_bandwidth(&b, qos);
        assert_eq!(cache.misses, 2);
        assert_ne!(eb_a.to_bits(), eb_b.to_bits());
        // Different epsilon on the same source: a third entry.
        cache.equivalent_bandwidth(&a, QosTarget::new(1000.0, 1e-7));
        assert_eq!(cache.map.len(), 3);
        assert_eq!(cache.hits(), 0);
    }

    #[test]
    fn cached_mts_eb_matches_uncached() {
        let m = MtsModel::fig4_example(1e-4, 1.0 / 24.0);
        let qos = QosTarget::new(300_000.0, 1e-6);
        let (want_eb, want_k) = mts_equivalent_bandwidth(&m, qos);
        let mut cache = EbCache::new();
        let (got_eb, got_k) = cache.mts_equivalent_bandwidth(&m, qos);
        assert_eq!(want_eb.to_bits(), got_eb.to_bits());
        assert_eq!(want_k, got_k);
        assert_eq!(cache.misses as usize, m.subchains().len());
        // A second evaluation is pure hits.
        cache.mts_equivalent_bandwidth(&m, qos);
        assert_eq!(cache.misses as usize, m.subchains().len());
        assert_eq!(cache.hits() as usize, m.subchains().len());
    }
}
