#![warn(missing_docs)]

//! # rcbr — the renegotiated constant-bit-rate service
//!
//! This crate is the paper's primary contribution assembled from its
//! substrates: sources are presented with "an abstraction of a fixed-size
//! buffer which is drained at a constant rate", and they may renegotiate
//! the drain rate to match their workload.
//!
//! * [`source`] — the RCBR source endpoint: end-system buffer, granted
//!   rate, and either a precomputed (offline) schedule or a causal online
//!   policy driving renegotiations.
//! * [`service`] — a source connected through a multi-hop signaling path
//!   ([`rcbr_net`]), with optional signaling loss and periodic
//!   absolute-rate resync: the full Section III mechanism.
//! * [`scenario`] — the three multiplexing scenarios of Fig. 3: (a) static
//!   CBR with per-source smoothing buffers, (b) unrestricted sharing into
//!   one big buffer (the SMG upper bound), and (c) RCBR — per-source
//!   smoothing into stepwise-CBR streams multiplexed bufferlessly, where a
//!   failed upward renegotiation means the source "has to temporarily
//!   settle for whatever bandwidth remaining in the link".
//! * [`capacity`] — the Fig. 6 experiment driver: binary search for the
//!   per-stream capacity `c(N)` meeting a bit-loss target, with randomized
//!   phasing and the paper's replication stopping rule.
//! * [`sigma_rho`] — the Fig. 5 curve: minimum drain rate as a function of
//!   buffer size for a given loss tolerance.

pub mod capacity;
pub mod latency;
pub mod scenario;
pub mod service;
pub mod sigma_rho;
pub mod source;
pub mod system;

pub use capacity::{search_capacity, CapacityPoint, SearchConfig};
pub use latency::{offline_with_latency, online_with_latency, LatencyOutcome};
pub use scenario::{
    scenario_a_loss, ScenarioBConfig, ScenarioCConfig, SharedBufferSim, StepwiseCbrMuxSim,
};
pub use service::{RcbrConnection, ServiceConfig};
pub use sigma_rho::{min_rate_for_buffer, sigma_rho_curve, SigmaRhoPoint};
pub use source::{RcbrSource, SourceEvent};
pub use system::{SystemConfig, SystemReport, SystemSim};
