//! Seedable, portable random-number streams.
//!
//! Every experiment in the reproduction derives all of its randomness from a
//! single `u64` seed through [`SimRng`], so results are reproducible
//! bit-for-bit across runs and machines. The generator is an in-tree
//! ChaCha12 implementation (the build environment cannot fetch
//! `rand_chacha`): ChaCha's output is a pure function of (key, counter,
//! stream) with no platform-dependent state, so the stream is stable across
//! machines and compiler versions by construction.
//!
//! The distribution samplers (exponential, normal, lognormal, bounded
//! Pareto) are implemented here from their textbook inverses /
//! transforms rather than pulling in `rand_distr`.

/// ChaCha block-function constants, "expand 32-byte k".
const CHACHA_CONSTANTS: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

/// The ChaCha12 core: 256-bit key, 64-bit block counter, 64-bit stream id.
///
/// State layout follows RFC 7539's word order, except that words 12–13 are
/// a 64-bit little-endian block counter and words 14–15 a 64-bit stream id
/// (the IETF variant uses a 32-bit counter and 96-bit nonce; the original
/// djb variant uses this split, which is what `rand_chacha` exposes as
/// `set_stream`).
#[derive(Debug, Clone)]
struct ChaCha12 {
    key: [u32; 8],
    counter: u64,
    stream: u64,
    /// Unconsumed words of the current block, drained from index `cursor`.
    buffer: [u32; 16],
    cursor: usize,
}

impl ChaCha12 {
    fn new(key: [u32; 8], stream: u64) -> Self {
        Self {
            key,
            counter: 0,
            stream,
            buffer: [0; 16],
            cursor: 16,
        }
    }

    fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
        state[a] = state[a].wrapping_add(state[b]);
        state[d] = (state[d] ^ state[a]).rotate_left(16);
        state[c] = state[c].wrapping_add(state[d]);
        state[b] = (state[b] ^ state[c]).rotate_left(12);
        state[a] = state[a].wrapping_add(state[b]);
        state[d] = (state[d] ^ state[a]).rotate_left(8);
        state[c] = state[c].wrapping_add(state[d]);
        state[b] = (state[b] ^ state[c]).rotate_left(7);
    }

    fn refill(&mut self) {
        let mut state = [0u32; 16];
        state[..4].copy_from_slice(&CHACHA_CONSTANTS);
        state[4..12].copy_from_slice(&self.key);
        state[12] = self.counter as u32;
        state[13] = (self.counter >> 32) as u32;
        state[14] = self.stream as u32;
        state[15] = (self.stream >> 32) as u32;
        let initial = state;
        for _ in 0..6 {
            // Double round: column round then diagonal round.
            Self::quarter_round(&mut state, 0, 4, 8, 12);
            Self::quarter_round(&mut state, 1, 5, 9, 13);
            Self::quarter_round(&mut state, 2, 6, 10, 14);
            Self::quarter_round(&mut state, 3, 7, 11, 15);
            Self::quarter_round(&mut state, 0, 5, 10, 15);
            Self::quarter_round(&mut state, 1, 6, 11, 12);
            Self::quarter_round(&mut state, 2, 7, 8, 13);
            Self::quarter_round(&mut state, 3, 4, 9, 14);
        }
        for (word, init) in state.iter_mut().zip(initial) {
            *word = word.wrapping_add(init);
        }
        self.buffer = state;
        self.cursor = 0;
        self.counter = self.counter.wrapping_add(1);
    }

    fn next_u32(&mut self) -> u32 {
        if self.cursor == 16 {
            self.refill();
        }
        let word = self.buffer[self.cursor];
        self.cursor += 1;
        word
    }

    fn next_u64(&mut self) -> u64 {
        let lo = self.next_u32() as u64;
        let hi = self.next_u32() as u64;
        lo | (hi << 32)
    }
}

/// A deterministic random stream with named substreams.
///
/// Substreams let independent parts of a simulation (e.g. each multiplexed
/// source) draw from statistically independent generators derived from one
/// master seed, so adding a consumer never perturbs the draws of another.
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: ChaCha12,
}

impl SimRng {
    /// Create a stream from a 64-bit seed.
    ///
    /// The seed is expanded to the 256-bit ChaCha key with SplitMix64, the
    /// standard expander for exactly this purpose (it is a bijection on the
    /// seed, so distinct seeds give distinct keys).
    pub fn from_seed(seed: u64) -> Self {
        let mut expander = seed;
        let mut next = || {
            expander = expander.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = expander;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let mut key = [0u32; 8];
        for pair in 0..4 {
            let word = next();
            key[2 * pair] = word as u32;
            key[2 * pair + 1] = (word >> 32) as u32;
        }
        Self {
            inner: ChaCha12::new(key, 0),
        }
    }

    /// Derive an independent substream identified by `label`.
    ///
    /// Uses ChaCha's 64-bit stream field, so substreams with different
    /// labels never overlap, and the substream is a function of the master
    /// key and the label alone — independent of how far `self` has been
    /// consumed.
    pub fn substream(&self, label: u64) -> Self {
        Self {
            inner: ChaCha12::new(self.inner.key, label),
        }
    }

    /// Next 64 random bits (exposed for hashing/shuffling helpers).
    pub fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }

    /// Uniform draw in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        // 53 high bits -> the standard dyadic uniform on [0, 1).
        (self.inner.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform draw in `[lo, hi)`.
    pub fn uniform_in(&mut self, lo: f64, hi: f64) -> f64 {
        debug_assert!(lo <= hi);
        lo + (hi - lo) * self.uniform()
    }

    /// Uniform integer in `[0, n)`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index range must be nonempty");
        // Lemire's widening-multiply method with rejection, so the draw is
        // exactly uniform for every n.
        let n = n as u64;
        let zone = u64::MAX - (u64::MAX - n + 1) % n;
        loop {
            let x = self.inner.next_u64();
            if x <= zone {
                return ((x as u128 * n as u128) >> 64) as usize;
            }
        }
    }

    /// Exponential draw with the given rate (mean `1/rate`), by inversion.
    ///
    /// # Panics
    /// Panics if `rate <= 0`.
    pub fn exponential(&mut self, rate: f64) -> f64 {
        assert!(rate > 0.0, "exponential rate must be positive, got {rate}");
        // 1 - U is in (0, 1], so ln never sees 0.
        -(1.0 - self.uniform()).ln() / rate
    }

    /// Standard normal draw via the Box–Muller transform.
    pub fn standard_normal(&mut self) -> f64 {
        // U1 in (0, 1] so ln is finite; U2 in [0, 1).
        let u1 = 1.0 - self.uniform();
        let u2 = self.uniform();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Normal draw with the given mean and standard deviation.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        debug_assert!(std_dev >= 0.0);
        mean + std_dev * self.standard_normal()
    }

    /// Lognormal draw: `exp(N(mu, sigma))` where `mu`/`sigma` are the
    /// parameters of the underlying normal.
    pub fn lognormal(&mut self, mu: f64, sigma: f64) -> f64 {
        self.normal(mu, sigma).exp()
    }

    /// Lognormal draw parameterized by its own mean and coefficient of
    /// variation (`cv = std/mean`), which is how the traffic models are
    /// calibrated.
    ///
    /// # Panics
    /// Panics if `mean <= 0` or `cv < 0`.
    pub fn lognormal_mean_cv(&mut self, mean: f64, cv: f64) -> f64 {
        assert!(mean > 0.0, "lognormal mean must be positive");
        assert!(cv >= 0.0, "coefficient of variation must be nonnegative");
        if cv == 0.0 {
            return mean;
        }
        let sigma2 = (1.0 + cv * cv).ln();
        let mu = mean.ln() - 0.5 * sigma2;
        self.lognormal(mu, sigma2.sqrt())
    }

    /// Bounded Pareto draw on `[lo, hi]` with shape `alpha`, by inversion.
    ///
    /// Used for scene durations: video scene lengths are heavy-tailed, which
    /// is what produces the paper's "sustained peaks lasting tens of
    /// seconds".
    ///
    /// # Panics
    /// Panics unless `0 < lo < hi` and `alpha > 0`.
    pub fn bounded_pareto(&mut self, alpha: f64, lo: f64, hi: f64) -> f64 {
        assert!(
            alpha > 0.0 && lo > 0.0 && hi > lo,
            "invalid bounded Pareto parameters"
        );
        let u = self.uniform();
        let la = lo.powf(alpha);
        let ha = hi.powf(alpha);
        // Inverse CDF of the Pareto truncated to [lo, hi].
        (-(u * ha - u * la - ha) / (ha * la)).powf(-1.0 / alpha)
    }

    /// Bernoulli draw with success probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.uniform() < p
    }

    /// Sample an index from a discrete distribution given by `weights`
    /// (nonnegative, not all zero).
    pub fn discrete(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "discrete weights must have positive sum");
        let mut x = self.uniform() * total;
        for (i, &w) in weights.iter().enumerate() {
            debug_assert!(w >= 0.0, "negative weight");
            if x < w {
                return i;
            }
            x -= w;
        }
        // Floating-point round-off can walk past the end; return the last
        // positive-weight index.
        weights
            .iter()
            .rposition(|&w| w > 0.0)
            .expect("positive total implies a positive weight")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_mean(mut f: impl FnMut() -> f64, n: usize) -> f64 {
        (0..n).map(|_| f()).sum::<f64>() / n as f64
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::from_seed(7);
        let mut b = SimRng::from_seed(7);
        for _ in 0..100 {
            assert_eq!(a.uniform(), b.uniform());
        }
    }

    #[test]
    fn chacha_matches_rfc7539_vector() {
        // RFC 7539 §2.3.2 test vector, adapted: same key/counter/nonce
        // wiring but 20 rounds there vs 12 here, so instead check the
        // structural properties the generator relies on: refill is a pure
        // function of (key, counter, stream), and consecutive blocks
        // differ.
        let key = [1u32, 2, 3, 4, 5, 6, 7, 8];
        let mut a = ChaCha12::new(key, 9);
        let mut b = ChaCha12::new(key, 9);
        let block_a: Vec<u32> = (0..32).map(|_| a.next_u32()).collect();
        let block_b: Vec<u32> = (0..32).map(|_| b.next_u32()).collect();
        assert_eq!(block_a, block_b);
        assert_ne!(&block_a[..16], &block_a[16..], "blocks must differ");
    }

    #[test]
    fn substreams_differ_and_are_reproducible() {
        let root = SimRng::from_seed(42);
        let mut s1 = root.substream(1);
        let mut s2 = root.substream(2);
        let mut s1b = root.substream(1);
        let x1: Vec<f64> = (0..10).map(|_| s1.uniform()).collect();
        let x2: Vec<f64> = (0..10).map(|_| s2.uniform()).collect();
        let x1b: Vec<f64> = (0..10).map(|_| s1b.uniform()).collect();
        assert_eq!(x1, x1b);
        assert_ne!(x1, x2);
    }

    #[test]
    fn substream_is_independent_of_parent_position() {
        let mut root = SimRng::from_seed(42);
        let before: Vec<f64> = {
            let mut s = root.substream(9);
            (0..10).map(|_| s.uniform()).collect()
        };
        let _ = root.uniform(); // advance the parent
        let after: Vec<f64> = {
            let mut s = root.substream(9);
            (0..10).map(|_| s.uniform()).collect()
        };
        assert_eq!(before, after);
    }

    #[test]
    fn index_is_unbiased_enough() {
        let mut rng = SimRng::from_seed(11);
        let n = 30_000;
        let mut counts = [0u32; 3];
        for _ in 0..n {
            counts[rng.index(3)] += 1;
        }
        for c in counts {
            let frac = c as f64 / n as f64;
            assert!((frac - 1.0 / 3.0).abs() < 0.02, "frac {frac}");
        }
    }

    #[test]
    fn exponential_mean_matches() {
        let mut rng = SimRng::from_seed(1);
        let m = sample_mean(|| rng.exponential(2.0), 20_000);
        assert!((m - 0.5).abs() < 0.02, "mean {m} != 0.5");
    }

    #[test]
    fn normal_moments_match() {
        let mut rng = SimRng::from_seed(2);
        let n = 20_000;
        let xs: Vec<f64> = (0..n).map(|_| rng.normal(3.0, 2.0)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.06, "mean {mean}");
        assert!((var - 4.0).abs() < 0.25, "var {var}");
    }

    #[test]
    fn lognormal_mean_cv_is_calibrated() {
        let mut rng = SimRng::from_seed(3);
        let n = 50_000;
        let xs: Vec<f64> = (0..n).map(|_| rng.lognormal_mean_cv(100.0, 0.5)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 100.0).abs() < 2.0, "mean {mean}");
        assert!(
            (var.sqrt() / mean - 0.5).abs() < 0.05,
            "cv {}",
            var.sqrt() / mean
        );
    }

    #[test]
    fn bounded_pareto_stays_in_range() {
        let mut rng = SimRng::from_seed(4);
        for _ in 0..10_000 {
            let x = rng.bounded_pareto(1.2, 1.0, 100.0);
            assert!((1.0..=100.0).contains(&x), "{x} out of range");
        }
    }

    #[test]
    fn discrete_respects_weights() {
        let mut rng = SimRng::from_seed(6);
        let w = [1.0, 0.0, 3.0];
        let n = 30_000;
        let mut counts = [0u32; 3];
        for _ in 0..n {
            counts[rng.discrete(&w)] += 1;
        }
        assert_eq!(counts[1], 0);
        let frac0 = counts[0] as f64 / n as f64;
        assert!((frac0 - 0.25).abs() < 0.02, "frac0 {frac0}");
    }

    #[test]
    fn discrete_handles_trailing_zero_weight() {
        let mut rng = SimRng::from_seed(7);
        let w = [1.0, 0.0];
        for _ in 0..1000 {
            assert_eq!(rng.discrete(&w), 0);
        }
    }
}
