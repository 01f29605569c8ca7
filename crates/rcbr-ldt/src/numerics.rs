//! Scalar numerics: bisection root finding and golden-section maximization.
//!
//! Everything the large-deviations computations need, implemented plainly.
//! Functions are assumed continuous on the given bracket; the large-
//! deviations objects (log-MGFs and their derivatives) are smooth and
//! convex, which makes these simple methods robust.

/// Find a root of `f` on `[lo, hi]` by bisection.
///
/// Requires `f(lo)` and `f(hi)` to have opposite signs (a zero endpoint is
/// returned immediately). Runs until the bracket is narrower than `tol`.
///
/// # Panics
/// Panics if `lo > hi`, `tol <= 0`, or the bracket does not straddle a sign
/// change.
pub fn bisect(mut f: impl FnMut(f64) -> f64, lo: f64, hi: f64, tol: f64) -> f64 {
    assert!(lo <= hi, "bisection bracket reversed: [{lo}, {hi}]");
    assert!(tol > 0.0, "tolerance must be positive");
    let mut a = lo;
    let mut b = hi;
    let mut fa = f(a);
    if fa == 0.0 {
        return a;
    }
    let fb = f(b);
    if fb == 0.0 {
        return b;
    }
    assert!(
        fa.signum() != fb.signum(),
        "bisection bracket does not straddle a root: f({a})={fa}, f({b})={fb}"
    );
    while b - a > tol {
        let m = 0.5 * (a + b);
        let fm = f(m);
        if fm == 0.0 {
            return m;
        }
        if fm.signum() == fa.signum() {
            a = m;
            fa = fm;
        } else {
            b = m;
        }
    }
    0.5 * (a + b)
}

/// Maximize a concave function `g` on `[lo, hi]` by golden-section search.
/// Returns `(argmax, max)`.
///
/// # Panics
/// Panics if `lo > hi` or `tol <= 0`.
pub fn golden_max(mut g: impl FnMut(f64) -> f64, lo: f64, hi: f64, tol: f64) -> (f64, f64) {
    assert!(lo <= hi, "bracket reversed: [{lo}, {hi}]");
    assert!(tol > 0.0, "tolerance must be positive");
    const INV_PHI: f64 = 0.618_033_988_749_894_8;
    let mut a = lo;
    let mut b = hi;
    let mut c = b - INV_PHI * (b - a);
    let mut d = a + INV_PHI * (b - a);
    let mut gc = g(c);
    let mut gd = g(d);
    while b - a > tol {
        if gc >= gd {
            b = d;
            d = c;
            gd = gc;
            c = b - INV_PHI * (b - a);
            gc = g(c);
        } else {
            a = c;
            c = d;
            gc = gd;
            d = a + INV_PHI * (b - a);
            gd = g(d);
        }
    }
    let x = 0.5 * (a + b);
    (x, g(x))
}

/// Maximize a concave function over `[0, ∞)` by doubling the bracket until
/// the maximum is interior (or a growth cap is reached), then golden-
/// section. Returns `(argmax, max)`.
///
/// Intended for Chernoff exponents `g(s) = s·a − Λ(s)`: concave, `g(0)=0`,
/// and either attains an interior maximum or increases without bound (the
/// caller screens out the unbounded case, e.g. `a > peak`).
pub fn maximize_on_ray(mut g: impl FnMut(f64) -> f64, initial: f64, tol: f64) -> (f64, f64) {
    assert!(initial > 0.0, "initial bracket must be positive");
    let mut hi = initial;
    // Expand until g starts decreasing past the maximum: concavity means
    // once g(2h) < g(h), the max lies in [0, 2h].
    for _ in 0..200 {
        if g(2.0 * hi) < g(hi) {
            return golden_max(g, 0.0, 2.0 * hi, tol * hi.max(1.0));
        }
        hi *= 2.0;
    }
    // Never turned over within the cap: effectively unbounded growth.
    (hi, g(hi))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bisect_finds_sqrt2() {
        let r = bisect(|x| x * x - 2.0, 0.0, 2.0, 1e-12);
        assert!((r - std::f64::consts::SQRT_2).abs() < 1e-10);
    }

    #[test]
    fn bisect_returns_exact_endpoint_roots() {
        assert_eq!(bisect(|x| x, 0.0, 1.0, 1e-9), 0.0);
        assert_eq!(bisect(|x| x - 1.0, 0.0, 1.0, 1e-9), 1.0);
    }

    #[test]
    #[should_panic(expected = "straddle")]
    fn bisect_rejects_bad_bracket() {
        bisect(|x| x * x + 1.0, -1.0, 1.0, 1e-9);
    }

    #[test]
    fn golden_finds_parabola_peak() {
        let (x, v) = golden_max(|x| -(x - 3.0) * (x - 3.0) + 7.0, 0.0, 10.0, 1e-10);
        assert!((x - 3.0).abs() < 1e-6);
        assert!((v - 7.0).abs() < 1e-10);
    }

    #[test]
    fn golden_handles_boundary_maximum() {
        let (x, _) = golden_max(|x| x, 0.0, 5.0, 1e-10);
        assert!((x - 5.0).abs() < 1e-6);
    }

    #[test]
    fn ray_maximization_expands_bracket() {
        // Max at s = 100, far beyond the initial bracket of 1.
        let (x, v) = maximize_on_ray(|s| -(s - 100.0) * (s - 100.0) + 4.0, 1.0, 1e-9);
        assert!((x - 100.0).abs() < 1e-3, "argmax {x}");
        assert!((v - 4.0).abs() < 1e-6);
    }
}
