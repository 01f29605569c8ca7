#![warn(missing_docs)]

//! # rcbr-sim — discrete-event simulation kernel and statistics substrate
//!
//! This crate provides the simulation machinery shared by every experiment in
//! the RCBR reproduction:
//!
//! * [`event`] — a deterministic discrete-event [`Scheduler`] with stable
//!   FIFO ordering among simultaneous events, tracking simulated time.
//! * [`rng`] — seedable, *portable* random-number streams built on
//!   `ChaCha12`, with the distribution samplers the traffic models need
//!   (exponential, normal/lognormal, bounded Pareto) implemented
//!   from first principles so experiments are reproducible bit-for-bit.
//! * [`queue`] — slotted fluid queues: the buffer-drained-at-a-rate
//!   abstraction that the paper uses to model CBR, VBR, and RCBR service
//!   (Section II of the paper), with loss and backlog accounting.
//! * [`stats`] — running moments, confidence intervals, the paper's
//!   replication stopping rules (Section V-B and VI), time-weighted averages
//!   of piecewise-constant signals, and histograms.
//!
//! ## Conventions
//!
//! Data volumes are `f64` **bits**, rates are `f64` **bits/second**, and
//! times are `f64` **seconds**. The paper's "kb" is 1000 bits; the
//! constants and formatters are in [`units`].
//!
//! The kernel is deliberately synchronous: the workload is CPU-bound, so an
//! async runtime would add complexity without benefit.

pub mod event;
pub mod queue;
pub mod rng;
pub mod stats;
pub mod units;

pub use event::Scheduler;
pub use queue::{FluidQueue, SlotOutcome};
pub use rng::SimRng;
pub use stats::{ConfidenceInterval, Histogram, RunningStats, StoppingRule, TimeWeighted};
