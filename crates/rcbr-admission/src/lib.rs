#![warn(missing_docs)]

//! # rcbr-admission — admission control for RCBR (Section VI)
//!
//! RCBR is a statistical service: the QoS promise is a bound on the
//! *renegotiation failure probability*, enforced at call admission. This
//! crate implements the paper's controllers and the dynamic call-level
//! simulation used to evaluate them:
//!
//! * [`PerfectKnowledge`] — the reference controller: it knows the true
//!   marginal bandwidth distribution of a call and admits up to the
//!   Chernoff-derived maximum (eq. (12)). Its utilization "matches the
//!   target QoS precisely" and normalizes Fig. 8's y-axis.
//! * [`Memoryless`] — the certainty-equivalent MBAC: it estimates the
//!   marginal from a *snapshot* of the bandwidth levels currently reserved
//!   and plugs the estimate into the same test. Section VI shows this is
//!   not robust — failure probabilities 3–4 orders of magnitude above
//!   target at small link capacities (Fig. 7).
//! * [`WithMemory`] — the paper's remedy: accumulate the *history* of
//!   reserved bandwidth levels of calls in the system (a time-weighted
//!   histogram), yielding a far more accurate marginal estimate.
//! * [`PeakRate`] — the deterministic baseline: admit only while the sum of
//!   peak rates fits, giving zero failures and the lowest utilization.
//!
//! [`callsim`] implements the experiment: Poisson call arrivals, each call
//! a randomly-shifted copy of an RCBR renegotiation schedule (simulating
//! only the renegotiation events, per the paper's footnote 4), measuring
//! steady-state renegotiation failure probability and utilization with the
//! paper's confidence-interval stopping rules.

pub mod callsim;
pub mod controllers;
pub mod descriptor;
pub mod policy;

pub use callsim::{CallSim, CallSimConfig, CallSimReport};
pub use controllers::{Memoryless, PeakRate, PerfectKnowledge, WithMemory};
pub use policy::{AdmissionController, AdmissionSnapshot};
