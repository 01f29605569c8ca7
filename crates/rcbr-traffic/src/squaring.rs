//! Repeated squaring of non-negative matrices without cancellation.
//!
//! Both long-run quantities the models need — the stationary distribution
//! of a chain (`u·L^∞`) and the Perron root of `P·diag(e^{θx})`
//! (`lim ‖A^m‖^{1/m}`) — are limits of matrix powers. A linear iteration
//! `v ← v·A` reaches them at the rate of the spectral gap, which for the
//! admission estimator's empirical chains is arbitrarily close to 1;
//! squaring `A → A² → A⁴ → …` takes `k` products to reach the `2^k`-th
//! power, so [`MAX_SQUARINGS`] products cover more steps than any linear
//! iteration could run.
//!
//! The kernel is subtraction-free: a product of non-negative matrices is a
//! sum of non-negative terms, so every entry keeps full *relative*
//! accuracy (`≤ n` ulps per squaring) however many orders of magnitude
//! separate the entries. Nothing is shifted and nothing is subtracted
//! back out. The only rescaling is by exact powers of two, tracked in an
//! integer, so it rounds nothing either.

/// Squarings after which every caller stops: `2^64` steps of the linear
/// iteration the squaring replaces.
pub const MAX_SQUARINGS: u32 = 64;

/// The stored iterate is held at `‖·‖∞ ∈ [2^HEADROOM, 2^(HEADROOM+1))`
/// before each product, so a product of two entries as small as `2^-1000`
/// relative to the norm is still a normal `f64`: any matrix of normal
/// entries survives its first squaring without underflow. The product's
/// norm is below `n²·2^(2·HEADROOM+2)`, finite for every `n < 2^30`.
const HEADROOM: i32 = 480;

/// Deterministic work counters of one solve. CI pins these, not wall-clock.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SquaringStats {
    /// Matrix products performed.
    pub squarings: u32,
    /// Multiply-adds issued: one length-`n` row update per non-zero entry
    /// of the left factor (zero entries are skipped).
    pub nnz_products: u64,
}

/// `2^e` for `e` in `[-1022, 1023]`.
fn pow2(e: i32) -> f64 {
    debug_assert!((-1022..=1023).contains(&e));
    f64::from_bits(((e + 1023) as u64) << 52)
}

/// The binary exponent of `x`, clamped so that `pow2` of it and of its
/// negation both exist. `x·2^-e` lies in `[1, 2)` for every normal `x`
/// below `2^1023`.
fn exponent(x: f64) -> i32 {
    (((x.to_bits() >> 52) & 0x7ff) as i32 - 1023).clamp(-1022, 1022)
}

/// The iterate `M_k` of `M_{k+1} = (M_k / 2^{e_k})²`, `M_0` the matrix
/// given, where `2^{e_k}` is the power of two at or below `‖M_k‖∞`.
///
/// Dividing by `2^{e_k}` keeps the iterates in range; it multiplies the
/// spectrum by a known factor and leaves every direction (eigenvectors,
/// the row of `u·M_k` up to scale) untouched. The entries are stored times
/// a further power of two, see [`entries`](Self::entries).
#[derive(Debug, Clone)]
pub struct Squaring {
    n: usize,
    m: Vec<f64>,
    scratch: Vec<f64>,
    /// `‖m‖∞`, kept current.
    stored_norm: f64,
    /// `m = M_k · 2^bias`.
    bias: i32,
    stats: SquaringStats,
}

impl Squaring {
    /// Start from the row-major `n×n` matrix `entries`.
    ///
    /// # Panics
    /// Panics if `entries.len() != n²` or an entry is negative or NaN.
    pub fn new(n: usize, entries: Vec<f64>) -> Self {
        assert_eq!(entries.len(), n * n, "squaring needs a square matrix");
        assert!(
            entries.iter().all(|&x| x >= 0.0),
            "matrix must be nonnegative"
        );
        let stored_norm = inf_norm(&entries, n);
        Self {
            n,
            scratch: vec![0.0; entries.len()],
            m: entries,
            stored_norm,
            bias: 0,
            stats: SquaringStats::default(),
        }
    }

    /// `M_k` times an unspecified power of two, row-major: for reading
    /// scale-free quantities (ratios of entries, normalised column sums).
    pub fn entries(&self) -> &[f64] {
        &self.m
    }

    /// `‖·‖∞` of [`entries`](Self::entries), in the same units.
    pub fn entries_norm(&self) -> f64 {
        self.stored_norm
    }

    /// `‖M_k‖∞` as `(mantissa, e_k)` with `‖M_k‖∞ = mantissa · 2^{e_k}`
    /// and `mantissa ∈ [1, 2)`; mantissa 0 for the zero matrix.
    pub fn norm(&self) -> (f64, i32) {
        let e = exponent(self.stored_norm);
        (self.stored_norm * pow2(-e), e - self.bias)
    }

    /// Work done so far.
    pub fn stats(&self) -> SquaringStats {
        self.stats
    }

    /// Advance `M_k → M_{k+1}`: an ikj product, so the inner loop runs
    /// along contiguous rows and a zero `m[i][k]` skips its whole row
    /// update.
    pub fn square(&mut self) {
        let n = self.n;
        let e = exponent(self.stored_norm);
        let s = (HEADROOM - e).min(1023);
        let scale = pow2(s);
        for x in &mut self.m {
            *x *= scale;
        }
        self.scratch.fill(0.0);
        for (row, out) in self.m.chunks_exact(n).zip(self.scratch.chunks_exact_mut(n)) {
            for (&a, factor) in row.iter().zip(self.m.chunks_exact(n)) {
                if a == 0.0 {
                    continue;
                }
                for (o, &b) in out.iter_mut().zip(factor) {
                    *o += a * b;
                }
                self.stats.nnz_products += n as u64;
            }
        }
        std::mem::swap(&mut self.m, &mut self.scratch);
        self.stored_norm = inf_norm(&self.m, n);
        // m_new = (m·2^s)² = (M_k·2^(bias+s))² = (M_k/2^(e−bias))² · 2^(2(e+s)).
        self.bias = 2 * (e + s);
        self.stats.squarings += 1;
    }
}

/// Largest row sum of a non-negative row-major `n×n` matrix.
fn inf_norm(m: &[f64], n: usize) -> f64 {
    m.chunks_exact(n)
        .map(|row| row.iter().sum::<f64>())
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pow2_and_exponent_round_trip() {
        for e in [-1022, -543, -1, 0, 1, 480, 1022] {
            assert_eq!(exponent(pow2(e)), e);
            assert_eq!(exponent(pow2(e) * 1.75), e);
        }
        assert_eq!(pow2(10), 1024.0);
        // Subnormals, zero and the top binade clamp instead of leaving the
        // range `pow2` accepts.
        assert_eq!(exponent(0.0), -1022);
        assert_eq!(exponent(5e-324), -1022);
        assert_eq!(exponent(f64::MAX), 1022);
    }

    #[test]
    fn squaring_tracks_the_true_power_through_its_scaling() {
        // [[2,1],[1,2]]^(2^k) = (3^m·J + K)/2 with J = ones, K = [[1,-1],[-1,1]],
        // m = 2^k; the norm is 3^m exactly.
        let mut p = Squaring::new(2, vec![2.0, 1.0, 1.0, 2.0]);
        let mut ln_scale = 0.0; // ln of Π 2^{e_j·2^(k−j)}, the factor divided out so far
        for k in 0..6 {
            let (mant, e) = p.norm();
            let ln_norm = mant.ln() + e as f64 * std::f64::consts::LN_2 + ln_scale;
            let want = (1u32 << k) as f64 * 3f64.ln();
            assert!((ln_norm - want).abs() < 1e-12 * want, "k={k}: {ln_norm}");
            ln_scale = 2.0 * (ln_scale + e as f64 * std::f64::consts::LN_2);
            p.square();
        }
        assert_eq!(p.stats().squarings, 6);
        assert_eq!(p.stats().nnz_products, 6 * 4 * 2);
    }

    #[test]
    fn zero_entries_are_skipped_and_counted_out() {
        // Upper triangular 3×3: 6 non-zeros, so 6 row updates of 3.
        let mut p = Squaring::new(3, vec![1.0, 1.0, 1.0, 0.0, 1.0, 1.0, 0.0, 0.0, 1.0]);
        p.square();
        assert_eq!(p.stats().nnz_products, 18);
        let m = p.entries();
        // [[1,2,3],[0,1,2],[0,0,1]] up to a common power of two.
        let unit = m[0];
        let got: Vec<f64> = m.iter().map(|x| x / unit).collect();
        assert_eq!(got, vec![1.0, 2.0, 3.0, 0.0, 1.0, 2.0, 0.0, 0.0, 1.0]);
        assert_eq!(p.entries_norm() / unit, 6.0);
    }

    #[test]
    fn extreme_entries_neither_overflow_nor_flush() {
        // One squaring of entries at both ends of the normal range.
        for x in [1e-300, 1e300] {
            let mut p = Squaring::new(2, vec![0.0, x, x, 0.0]);
            p.square();
            let (mant, e) = p.norm();
            assert!(mant.is_finite() && mant >= 1.0, "{x}: {mant}");
            // (M_0/2^e0)² has norm (x/2^e0)² ∈ [1, 4).
            assert!((0..=1).contains(&e), "{x}: {e}");
        }
        // A pair 250 orders apart still multiplies to a normal number.
        let mut p = Squaring::new(2, vec![0.0, 1.0, 1e-250, 0.0]);
        p.square();
        let m = p.entries();
        assert!(m[0] > 0.0 && m[0].is_normal());
        assert_eq!(m[0], m[3]);
    }

    #[test]
    #[should_panic(expected = "nonnegative")]
    fn negative_entries_rejected() {
        Squaring::new(1, vec![-1.0]);
    }
}
