#![warn(missing_docs)]

//! # rcbr-ldt — the large-deviations toolkit of Section V-A
//!
//! The paper's analysis rests on three objects, all implemented here:
//!
//! * **Equivalent bandwidth** ([`eb`]) — the minimum constant drain rate a
//!   Markov-modulated source needs so that a buffer of size `B` overflows
//!   with probability at most `ε`: `EB = Λ(θ*)/θ*` with `θ* = ln(1/ε)/B`,
//!   where `Λ(θ)` is the log spectral radius of `P·diag(e^{θ x_i})`
//!   (Elwalid–Mitra / Kesidis–Walrand–Chang). For multiple-time-scale
//!   sources, eq. (9): the equivalent bandwidth of the whole stream is the
//!   *maximum over subchains* of the per-subchain equivalent bandwidths.
//! * **Legendre–Fenchel transforms** ([`legendre`]) — the rate function
//!   `I(a) = sup_s (s·a − Λ(s))` of a discrete bandwidth distribution.
//! * **Chernoff estimates** ([`chernoff`]) — eqs. (10)–(12): the
//!   probability that `n` independent sources with marginal distribution
//!   `{(r_j, p_j)}` jointly demand more than the link capacity, the basis
//!   of both the shared-buffer loss estimate and the RCBR
//!   renegotiation-failure estimate, and of the admission-control tests of
//!   Section VI.
//!
//! Supporting numerics — bracketed bisection, concave maximization, and the
//! repeated-squaring solve for Perron roots of nonnegative matrices — are
//! in [`numerics`] and [`matrix`].

pub mod chernoff;
pub mod eb;
pub mod empirical;
pub mod legendre;
pub mod matrix;
pub mod numerics;

pub use chernoff::{chernoff_failure_probability, max_admissible_calls, min_capacity_per_source};
pub use eb::{
    equivalent_bandwidth, log_spectral_mgf, mts_equivalent_bandwidth, EbCache, EbCacheStats,
    QosTarget,
};
pub use empirical::{empirical_log_mgf, trace_equivalent_bandwidth};
pub use legendre::rate_function;
pub use matrix::Matrix;
