//! # rcbr-runtime — sharded signaling-plane runtime
//!
//! RCBR's core claim is that renegotiated CBR service is *cheap*: the
//! fast path of a renegotiation is two table lookups per switch, so a
//! signaling processor should sustain very high renegotiation rates. This
//! crate turns the [`rcbr_net`] primitives into a concurrent engine that
//! measures exactly that:
//!
//! - **One kernel, two drivers** — a shard owns a strided slice of the
//!   switches and VCs and implements every phase of the superstep
//!   protocol, once. [`run`] steps N of them on worker threads (channels
//!   carry batched RM-cell work, a barrier separates the phases);
//!   [`run_sequential`] steps one that owns everything, on the caller.
//! - **Pipelined multi-hop renegotiation** — a request traverses its
//!   path's shards one hop per superstep, preserving the paper's hop-`k`
//!   semantics: denial at hop `k` rolls back the `k` upstream
//!   reservations, lost delta cells leave real drift, and periodic
//!   absolute-rate resync cells repair it.
//! - **Open-loop load generation** — every VC plays a synthetic MPEG
//!   trace (calibrated to the Star Wars statistics) through the online
//!   AR(1) heuristic from [`rcbr_schedule`], which decides *when* that VC
//!   renegotiates and to what rate.
//! - **A deterministic fault plane** — a seeded
//!   [`FaultPlane`](rcbr_net::FaultPlane) drops, delays, duplicates, and
//!   bit-corrupts RM cells per hop, crashes and restarts switches (wiping
//!   their soft reservation state), and stalls switch groups. Sources run
//!   a timeout / bounded-retry / exponential-backoff state machine and
//!   degrade gracefully when the budget runs out; a periodic invariant
//!   auditor counts reservation drift and the end-of-run audit repairs it
//!   to zero.
//! - **Determinism under concurrency** — the protocol is bulk-synchronous,
//!   so [`run`] produces bit-identical reports at any shard count, equal
//!   to [`run_sequential`]'s — under every fault mode. See [`engine`] for
//!   the argument.
//! - **Live measurement-based admission** — every switch carries a
//!   deterministic arrival estimator over the delivered renegotiation
//!   stream; an [`AdmissionPolicy`] (the memoryless Chernoff test or the
//!   equivalent-bandwidth test of the paper's Section VI) rolls the
//!   measurement window into per-port booking ceilings at superstep
//!   boundaries. The default [`AdmissionPolicy::PeakRate`] is the legacy
//!   static check, bit for bit. See [`admission`].
//!
//! ```
//! use rcbr_runtime::{run, run_sequential, RuntimeConfig};
//!
//! let mut cfg = RuntimeConfig::balanced(2, 16);
//! cfg.target_requests = 500;
//! let sharded = run(&cfg);
//! let replay = run_sequential(&cfg);
//! assert_eq!(sharded.counters, replay.counters);
//! assert!(sharded.counters.completed >= 500);
//! ```

pub mod admission;
mod audit;
pub mod config;
pub mod core;
pub mod engine;
mod gen;
#[doc(hidden)]
pub mod kernel;
pub mod report;
pub mod sequential;

pub use admission::{AdmissionPolicy, AdmissionReport, ArrivalEstimator, SwitchAdmission};
pub use audit::AuditReport;
pub use config::{RuntimeConfig, StormSpec};
pub use core::{CounterSnapshot, Outcome};
pub use engine::run;
pub use report::{LatencySummary, RunOutcome, RunReport, ShardReport, VcOutcome};
pub use sequential::run_sequential;
