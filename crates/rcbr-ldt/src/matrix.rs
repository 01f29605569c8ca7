//! Small dense matrices and the Perron root of nonnegative matrices.
//!
//! The equivalent-bandwidth computation needs exactly one linear-algebra
//! primitive: `ln ρ(A)` for the nonnegative matrix `A = P·diag(e^{θ x_j})`.
//! Such a matrix is *graded*: at the admission path's `θ`, neighbouring
//! rate levels differ by a factor of 10, so fifty levels put fifty orders
//! of magnitude between the columns and `ρ(A)` can sit at `1e-40` while
//! the largest entry is near 1. Two things follow.
//!
//! * Nothing may be added to `A` and subtracted back out. A diagonal shift
//!   by the largest entry (the textbook cure for periodicity) makes the
//!   iteration contract at `(λ₂ + 1)/(ρ + 1) ≈ 1` and leaves `ρ` as the
//!   difference of two numbers that agree to 40 digits.
//! * The answer is wanted as `ln ρ`, not `ρ`: it is the logarithm that the
//!   caller uses, and a root that small need not be a normal `f64`.
//!
//! So the root comes from Gelfand's formula on repeatedly squared powers,
//! `ρ = lim ‖A^m‖^{1/m}` at `m = 2^k`, run on the cancellation-free
//! [`Squaring`] kernel shared with the stationary-distribution solve:
//!
//! ```text
//! M_0 = A,   M_{k+1} = (M_k / 2^{e_k})²,   2^{e_k} ≤ ‖M_k‖∞ < 2^{e_k + 1}
//! ln ρ(A) = Σ_{j<k} e_j·ln 2 / 2^j  +  ln ρ(M_k) / 2^k
//! ```
//!
//! and `ρ(M_k)` is enclosed, for any nonnegative `M`, by Collatz–Wielandt
//! quotients: `Mx ≤ t·x` with `x > 0` gives `ρ(M) ≤ t`, and `My ≥ t·y`
//! with `y ≥ 0`, `y ≠ 0` gives `ρ(M) ≥ t`. The vector is `x = M_k·1`, the
//! powers' own estimate of the Perron vector, so on a dominant block that
//! is aperiodic the two ends meet at the rate `(λ₂/ρ)^(2^k)` and the solve
//! stops after `log₂` of what a linear iteration would need. The diagonal
//! (`ρ(M) ≥ max_i M_ii`) and the row sums (`ρ(M) ≤ ‖M‖∞`) back the
//! quotients up, and whatever the ends do, their gap counts `2^-k` in
//! `ln ρ(A)`. The solve returns the upper end once the enclosure is
//! narrower than `1e-14` or after [`MAX_SQUARINGS`]. A matrix whose
//! dominant block is periodic with an odd period never closes it (no
//! power of two is a multiple of the period) and runs to the cap, where
//! the upper end alone is within `ln(‖M_k‖∞/ρ(M_k)) / 2^64` of the truth.
//! Rounding enters as a relative perturbation of at most `n` ulps per entry
//! per squaring, which moves `ρ(M_{k+1})` by at most that factor and is
//! then halved `k + 1` times: the total error in `ln ρ` is a few ulps of
//! `n`, not of `2^k`.

use rcbr_traffic::squaring::{Squaring, SquaringStats, MAX_SQUARINGS};
use serde::{Deserialize, Serialize};

/// A dense row-major matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    n_rows: usize,
    n_cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Zero matrix of the given shape.
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    pub fn zeros(n_rows: usize, n_cols: usize) -> Self {
        assert!(
            n_rows > 0 && n_cols > 0,
            "matrix dimensions must be positive"
        );
        Self {
            n_rows,
            n_cols,
            data: vec![0.0; n_rows * n_cols],
        }
    }

    /// `ln ρ(A)`, the logarithm of the spectral radius (Perron root) of a
    /// *nonnegative* square matrix; `-∞` for a nilpotent one. Accurate to
    /// about `1e-14` absolute whatever the grading of the entries — see
    /// the module docs for the method.
    ///
    /// # Panics
    /// Panics if the matrix is not square or has a negative entry.
    pub fn ln_perron_root(&self) -> f64 {
        self.ln_perron_root_with_stats().0
    }

    /// [`ln_perron_root`](Self::ln_perron_root) together with its work
    /// counters.
    pub fn ln_perron_root_with_stats(&self) -> (f64, SquaringStats) {
        assert_eq!(
            self.n_rows, self.n_cols,
            "Perron root needs a square matrix"
        );
        let n = self.n_rows;
        let mut power = Squaring::new(n, self.data.clone());
        // ln ρ(A) = settled + ln ρ(M_k)·weight, weight = 2^-k.
        let (mut settled, mut weight) = (0.0, 1.0);
        loop {
            let (mantissa, e) = power.norm();
            if mantissa == 0.0 {
                return (f64::NEG_INFINITY, power.stats());
            }
            let e_ln2 = e as f64 * std::f64::consts::LN_2;
            let norm = power.entries_norm();
            let (lo, hi) = enclose_root(power.entries(), n, norm);
            let width = weight * (hi / lo).ln();
            if width <= 1e-14 || power.stats().squarings == MAX_SQUARINGS {
                // `hi` is in the stored entries' units, like `norm`, and
                // ‖M_k‖∞ itself is mantissa·2^e.
                let ln_hi = mantissa.ln() + e_ln2 + (hi / norm).ln();
                return (settled + weight * ln_hi, power.stats());
            }
            settled += weight * e_ln2;
            weight *= 0.5;
            power.square();
        }
    }
}

/// `lo ≤ ρ(M) ≤ hi` for the nonnegative row-major `n×n` matrix `m` with
/// `‖m‖∞ = norm > 0`: Collatz–Wielandt quotients of `x = M·1/norm`, backed
/// by the diagonal below and the norm above.
fn enclose_root(m: &[f64], n: usize, norm: f64) -> (f64, f64) {
    let dot = |row: &[f64], v: &[f64]| row.iter().zip(v).map(|(a, b)| a * b).sum::<f64>();
    // `(Mv)_i / v_i` over the support of `v`.
    let quotients = |v: &[f64]| -> Vec<f64> {
        m.chunks_exact(n)
            .zip(v)
            .map(|(row, &vi)| if vi > 0.0 { dot(row, v) / vi } else { 0.0 })
            .collect()
    };
    // A zero row is a dead state: it adds only the eigenvalue 0, so the
    // upper quotient ranges over the live rows, where x > 0.
    let x: Vec<f64> = m
        .chunks_exact(n)
        .map(|row| row.iter().sum::<f64>() / norm)
        .collect();
    let q = quotients(&x);
    let hi = q.iter().fold(0.0f64, |a, &b| a.max(b)).min(norm);
    // Rows of a reducible matrix grow at the rate of the best class they
    // reach; the lower quotient must not range over the slower ones. Any
    // support gives a valid bound, so cut x down to the rows keeping pace.
    let y: Vec<f64> = x
        .iter()
        .zip(&q)
        .map(|(&xi, &qi)| if qi >= 0.5 * hi { xi } else { 0.0 })
        .collect();
    let lo = quotients(&y)
        .iter()
        .zip(&y)
        .filter(|(_, &yi)| yi > 0.0)
        .fold(f64::INFINITY, |a, (&t, _)| a.min(t));
    let diagonal = m.iter().step_by(n + 1).fold(0.0f64, |a, &b| a.max(b));
    (lo.max(diagonal), hi)
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        assert!(i < self.n_rows && j < self.n_cols, "index out of bounds");
        &self.data[i * self.n_cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        assert!(i < self.n_rows && j < self.n_cols, "index out of bounds");
        &mut self.data[i * self.n_cols + j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A matrix from its rows (all of one length).
    fn from_rows(rows: &[Vec<f64>]) -> Matrix {
        let mut m = Matrix::zeros(rows.len(), rows[0].len());
        for (i, row) in rows.iter().enumerate() {
            for (j, &x) in row.iter().enumerate() {
                m[(i, j)] = x;
            }
        }
        m
    }

    /// `ln ρ` must match `want` to 1e-12 within the squaring cap.
    fn assert_ln_root(m: &Matrix, want: f64) -> SquaringStats {
        let (got, stats) = m.ln_perron_root_with_stats();
        assert!(
            (got - want).abs() <= 1e-12,
            "ln ρ = {got}, want {want} (off by {:e})",
            got - want
        );
        assert!(stats.squarings <= MAX_SQUARINGS, "{stats:?}");
        stats
    }

    /// The n-cycle `0 → 1 → … → n−1 → 0` with the given edge weights:
    /// irreducible with period n, `ρ` the geometric mean of the weights.
    fn cycle(weights: &[f64]) -> Matrix {
        let n = weights.len();
        let mut m = Matrix::zeros(n, n);
        for (i, &w) in weights.iter().enumerate() {
            m[(i, (i + 1) % n)] = w;
        }
        m
    }

    #[test]
    fn perron_of_stochastic_matrix_is_one() {
        let m = from_rows(&[vec![0.9, 0.1], vec![0.4, 0.6]]);
        assert!((m.ln_perron_root().exp() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn perron_of_diagonal_is_max_entry() {
        let m = from_rows(&[vec![2.0, 0.0], vec![0.0, 5.0]]);
        assert_ln_root(&m, 5f64.ln());
    }

    #[test]
    fn perron_of_periodic_matrix_converges() {
        // [[0,1],[1,0]] has eigenvalues ±1 and a linear iteration from a
        // generic start oscillates; with unequal weights the quotients of
        // M·1 oscillate too, and it is the square, a diagonal matrix, that
        // closes the enclosure.
        let m = from_rows(&[vec![0.0, 4.0], vec![1.0, 0.0]]);
        let stats = assert_ln_root(&m, 2f64.ln());
        assert_eq!(stats.squarings, 1);
    }

    #[test]
    fn perron_of_2x2_matches_the_closed_form() {
        // ρ = ((a + d) + sqrt((a − d)² + 4bc)) / 2, every term nonnegative.
        for [a, b, c, d] in [
            [2.0, 1.0, 1.0, 2.0],
            [0.9, 0.1, 0.4, 0.6],
            [1e-30, 1.0, 1e-70, 1e-50],
            [0.0, 1.0, 1e-40, 0.0],
            [3e-200, 1e-10, 1e-10, 1e-120],
        ] {
            let m = from_rows(&[vec![a, b], vec![c, d]]);
            let rho = ((a + d) + ((a - d) * (a - d) + 4.0 * b * c).sqrt()) / 2.0;
            assert_ln_root(&m, rho.ln());
        }
    }

    #[test]
    fn perron_of_zero_and_nilpotent_matrices() {
        let zero = Matrix::zeros(3, 3);
        assert_eq!(zero.ln_perron_root(), f64::NEG_INFINITY);
        // Strictly upper triangular: A³ = 0.
        let mut nilpotent = Matrix::zeros(3, 3);
        nilpotent[(0, 1)] = 4.0;
        nilpotent[(1, 2)] = 1e-9;
        let (ln_rho, stats) = nilpotent.ln_perron_root_with_stats();
        assert_eq!(ln_rho, f64::NEG_INFINITY);
        assert_eq!(stats.squarings, 2);
    }

    #[test]
    fn identity_and_indexing() {
        let mut m = from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0]]);
        m[(0, 1)] = 7.0;
        assert_eq!(m[(0, 0)], 1.0);
        assert_eq!(m[(0, 1)], 7.0);
        // Triangular, so ρ is the largest diagonal entry; the block is
        // defective (‖A^m‖ = 1 + 7m), which the enclosure absorbs.
        assert_ln_root(&m, 0.0);
    }

    #[test]
    fn graded_cycles_return_the_geometric_mean() {
        // Weights spanning 60 orders of magnitude, even and odd periods.
        // The last is the 3-cycle a max-entry diagonal shift gets wrong by
        // five orders (true root 1e-10).
        for weights in [
            vec![1.0, 1e-20, 1e-40, 1e-60],
            vec![1.0, 1e-15, 1e-30, 1e-45, 1e-60],
            vec![1e-60, 1.0, 1e-7, 1e-33, 1.0, 1e-52, 1e-21],
            vec![1.0, 1e-15, 1e-15],
        ] {
            let want = weights.iter().map(|w: &f64| w.ln()).sum::<f64>() / weights.len() as f64;
            let stats = assert_ln_root(&cycle(&weights), want);
            if weights.len() % 2 == 1 {
                // An odd period never closes on a power of two: no diagonal
                // ever appears and the solve runs to its cap.
                assert_eq!(stats.squarings, MAX_SQUARINGS);
            }
        }
    }

    #[test]
    fn lazy_graded_cycle_exits_on_the_enclosure() {
        // The same odd cycle plus δ·I, δ twenty orders below its root:
        // ρ(C + δI) = ρ(C) + δ, and the diagonal makes the matrix
        // aperiodic, so the enclosure closes before the cap.
        let mut m = cycle(&[1.0, 1e-15, 1e-15]);
        for i in 0..3 {
            m[(i, i)] = 1e-30;
        }
        let stats = assert_ln_root(&m, (1e-10f64 + 1e-30).ln());
        assert!(stats.squarings < MAX_SQUARINGS, "{stats:?}");
    }

    #[test]
    fn block_triangular_root_is_the_largest_blocks_root() {
        // Blocks [[2,1],[1,2]]·1e-30 (root 3e-30) and [[0,1],[1e-80,0]]
        // (root 1e-40), coupled above the diagonal by entries of 5: the
        // dominant block holds none of the large entries.
        let s = 1e-30;
        let m = from_rows(&[
            vec![2.0 * s, s, 5.0, 0.0],
            vec![s, 2.0 * s, 0.0, 5.0],
            vec![0.0, 0.0, 0.0, 1.0],
            vec![0.0, 0.0, 1e-80, 0.0],
        ]);
        assert_ln_root(&m, (3.0 * s).ln());
        // And with the blocks in the other order (coupling below).
        let m = from_rows(&[
            vec![0.0, 1.0, 0.0, 0.0],
            vec![1e-80, 0.0, 0.0, 0.0],
            vec![5.0, 0.0, 2.0 * s, s],
            vec![0.0, 5.0, s, 2.0 * s],
        ]);
        assert_ln_root(&m, (3.0 * s).ln());
    }

    #[test]
    fn rank_one_root_is_the_inner_product() {
        // A = u·vᵀ has the single nonzero eigenvalue vᵀu.
        let u = [1.0, 1e-20, 1e-40, 3e-7];
        let v = [1e-40, 1e-20, 1.0, 2e-33];
        let rows: Vec<Vec<f64>> = u
            .iter()
            .map(|ui| v.iter().map(|vj| ui * vj).collect())
            .collect();
        let want: f64 = u.iter().zip(&v).map(|(a, b)| a * b).sum();
        assert_ln_root(&from_rows(&rows), want.ln());
    }

    #[test]
    fn work_counters_are_pinned() {
        // A stochastic matrix has the Perron vector 1: the first quotients
        // already meet, and no product is needed.
        let p = from_rows(&[vec![0.9, 0.1], vec![0.4, 0.6]]);
        assert_eq!(p.ln_perron_root_with_stats().1, SquaringStats::default());
        // Well conditioned (λ₂/ρ = 0.38): the quotients meet once
        // 0.38^(2^k) is below 1e-14, a handful of dense products.
        let m = from_rows(&[vec![2.0, 1.0], vec![1.0, 3.0]]);
        let stats = assert_ln_root(&m, ((5.0 + 5f64.sqrt()) / 2.0).ln());
        assert_eq!((stats.squarings, stats.nnz_products), (5, 5 * 4 * 2));
    }

    #[test]
    #[should_panic(expected = "nonnegative")]
    fn negative_entries_rejected() {
        from_rows(&[vec![1.0, -1.0], vec![0.0, 1.0]]).ln_perron_root();
    }

    /// A 4×4 nonnegative matrix from `(value, keep)` cells, about a
    /// quarter of them zeroed.
    fn sparse(cells: &[Vec<(f64, u32)>]) -> Matrix {
        let rows: Vec<Vec<f64>> = cells
            .iter()
            .map(|r| {
                r.iter()
                    .map(|&(x, keep)| if keep == 0 { 0.0 } else { x })
                    .collect()
            })
            .collect();
        from_rows(&rows)
    }

    /// Equal as `ln ρ`, counting two nilpotent answers (−∞) as equal.
    fn same_ln(a: f64, b: f64) -> bool {
        a == b || (a - b).abs() <= 1e-12
    }

    proptest! {
        /// ρ(A) of a row-substochastic nonnegative matrix lies between the
        /// min and max row sums.
        #[test]
        fn perron_bounded_by_row_sums(
            rows in proptest::collection::vec(
                proptest::collection::vec(0.0..1.0f64, 3), 3),
        ) {
            let m = from_rows(&rows);
            let sums: Vec<f64> = rows.iter().map(|r| r.iter().sum()).collect();
            let lo = sums.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = sums.iter().cloned().fold(0.0, f64::max);
            let rho = m.ln_perron_root().exp();
            prop_assert!(rho >= lo * (1.0 - 1e-12), "rho {rho} below min row sum {lo}");
            prop_assert!(rho <= hi * (1.0 + 1e-12), "rho {rho} above max row sum {hi}");
        }

        /// ρ(D⁻¹AD) = ρ(A): a diagonal similarity by powers of two rescales
        /// every entry exactly, grading the matrix by up to 2^±120.
        #[test]
        fn perron_invariant_under_diagonal_similarity(
            cells in proptest::collection::vec(
                proptest::collection::vec((0.0..1.0f64, 0u32..4), 4), 4),
            d in proptest::collection::vec(-60i32..60, 4usize),
        ) {
            let a = sparse(&cells);
            let mut b = a.clone();
            for i in 0..4 {
                for j in 0..4 {
                    b[(i, j)] = a[(i, j)] * 2f64.powi(d[j] - d[i]);
                }
            }
            let (x, y) = (a.ln_perron_root(), b.ln_perron_root());
            prop_assert!(same_ln(x, y), "{x} vs {y}");
        }

        /// ρ(cA) = c·ρ(A) over sixty orders of magnitude of c.
        #[test]
        fn perron_is_homogeneous(cells in proptest::collection::vec(
                proptest::collection::vec((0.0..1.0f64, 0u32..4), 4), 4), log10_c in -30.0..30.0f64) {
            let c = 10f64.powf(log10_c);
            let a = sparse(&cells);
            let mut b = a.clone();
            for i in 0..4 {
                for j in 0..4 {
                    b[(i, j)] = c * a[(i, j)];
                }
            }
            let (x, y) = (a.ln_perron_root() + c.ln(), b.ln_perron_root());
            prop_assert!(same_ln(x, y), "{x} vs {y}");
        }

        /// ρ(Aᵀ) = ρ(A).
        #[test]
        fn perron_of_the_transpose(cells in proptest::collection::vec(
                proptest::collection::vec((0.0..1.0f64, 0u32..4), 4), 4)) {
            let a = sparse(&cells);
            let mut t = a.clone();
            for i in 0..4 {
                for j in 0..4 {
                    t[(i, j)] = a[(j, i)];
                }
            }
            let (x, y) = (a.ln_perron_root(), t.ln_perron_root());
            prop_assert!(same_ln(x, y), "{x} vs {y}");
        }
    }
}
