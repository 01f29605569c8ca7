#![warn(missing_docs)]

//! # rcbr-schedule — renegotiation schedules (Section IV)
//!
//! An RCBR source must decide *when* to renegotiate and *what rate* to ask
//! for; those decisions form its renegotiation schedule. This crate
//! implements both algorithms from the paper:
//!
//! * [`trellis`] — the **offline optimum** for stored video: a Viterbi-like
//!   shortest path through a trellis of (time, rate, buffer-occupancy)
//!   nodes, minimizing `α·(#renegotiations) + β·(allocated bandwidth·time)`
//!   subject to a buffer (or delay) constraint, with the paper's Lemma 1
//!   cross-node pruning making full-movie traces tractable.
//! * [`online`] — the **causal heuristic** for interactive sources: an
//!   AR(1) rate estimator plus a buffer-flush term, with renegotiations
//!   triggered by buffer thresholds `B_l`/`B_h` and quantized to a
//!   bandwidth granularity `Δ` (eqs. (6)–(8)). A GoP-aware variant
//!   implements the paper's suggested future-work improvement of exploiting
//!   the MPEG frame structure.
//! * [`driver`] — the **source endpoint**: a trace, an end-system buffer
//!   drained at the granted rate, and any [`OnlinePolicy`] (including a
//!   stored [`Schedule`] through [`SchedulePolicy`]), stepped one slot at
//!   a time by Fig. 2, the latency study, the service tests and the
//!   signaling runtime.
//!
//! The common [`Schedule`] type carries the piecewise-CBR rate function and
//! computes the paper's metrics: bandwidth efficiency, mean renegotiation
//! interval, cost, feasibility against a buffer, and the empirical
//! bandwidth distribution used by admission control (Section VI).

pub mod cost;
pub mod driver;
pub mod grid;
pub mod online;
pub mod retry;
pub mod schedule;
pub mod smoothing;
pub mod trellis;

pub use cost::CostModel;
pub use driver::{VcDriver, LANES};
pub use grid::RateGrid;
pub use online::{
    Ar1Config, Ar1Policy, GopAwareConfig, GopAwarePolicy, OnlinePolicy, SchedulePolicy,
};
pub use retry::{RetryBudget, RetryPolicy};
pub use schedule::{Schedule, ScheduleMetrics};
pub use smoothing::{min_peak_rate_bound, optimal_smoothing};
pub use trellis::{OfflineOptimizer, TrellisConfig, TrellisError, TrellisStats};
