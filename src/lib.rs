#![warn(missing_docs)]

//! # rcbr-suite — a from-scratch reproduction of RCBR
//!
//! *RCBR: A Simple and Efficient Service for Multiple Time-Scale Traffic*
//! (Grossglauser, Keshav, Tse — ACM SIGCOMM 1995 / IEEE ToN Dec. 1997),
//! reproduced as a Rust workspace.
//!
//! This façade re-exports every member crate so examples, integration
//! tests, and downstream users can depend on a single crate:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`sim`] | `rcbr-sim` | event kernel, RNG streams, fluid queues, statistics |
//! | [`traffic`] | `rcbr-traffic` | traces, Markov/MTS sources, synthetic MPEG |
//! | [`ldt`] | `rcbr-ldt` | equivalent bandwidth, Chernoff bounds, Legendre transforms |
//! | [`net`] | `rcbr-net` | ATM ports/switches, RM-cell signaling, multi-hop paths |
//! | [`schedule`] | `rcbr-schedule` | offline trellis optimum, online AR(1) heuristic |
//! | [`admission`] | `rcbr-admission` | MBAC controllers, call-level simulation |
//! | [`core`] | `rcbr` | source endpoints, the Fig. 3 scenarios, capacity search |
//! | [`runtime`] | `rcbr-runtime` | sharded signaling-plane engine, load generator |
//!
//! See `DESIGN.md` for the system inventory and the experiment index, and
//! `EXPERIMENTS.md` for paper-vs-measured results.
//!
//! ## Quickstart
//!
//! ```
//! use rcbr_suite::prelude::*;
//!
//! // A Star-Wars-like synthetic trace (30 s worth of frames).
//! let mut rng = SimRng::from_seed(7);
//! let trace = SyntheticMpegSource::star_wars_like().generate(720, &mut rng);
//!
//! // The paper's Fig. 2 setting: 20 rate levels, a 300 kb buffer.
//! let grid = RateGrid::uniform(48_000.0, 2_400_000.0, 20);
//! let config = TrellisConfig::new(grid, CostModel::from_ratio(1e6), 300_000.0);
//! let schedule = OfflineOptimizer::new(config).optimize(&trace).unwrap();
//!
//! assert!(schedule.is_feasible(&trace, 300_000.0));
//! assert!(schedule.bandwidth_efficiency(&trace) > 0.5);
//! ```

pub use rcbr as core;
pub use rcbr_admission as admission;
pub use rcbr_ldt as ldt;
pub use rcbr_net as net;
pub use rcbr_runtime as runtime;
pub use rcbr_schedule as schedule;
pub use rcbr_sim as sim;
pub use rcbr_traffic as traffic;

/// The most commonly used items, importable in one line.
pub mod prelude {
    pub use rcbr::{
        min_rate_for_buffer, scenario_a_loss, search_capacity, sigma_rho_curve, RcbrConnection,
        ScenarioBConfig, ScenarioCConfig, SearchConfig, ServiceConfig, SharedBufferSim,
        StepwiseCbrMuxSim,
    };
    pub use rcbr_admission::{
        CallSim, CallSimConfig, Memoryless, PeakRate, PerfectKnowledge, WithMemory,
    };
    pub use rcbr_ldt::{
        chernoff_failure_probability, equivalent_bandwidth, max_admissible_calls,
        min_capacity_per_source, mts_equivalent_bandwidth, rate_function, QosTarget,
    };
    pub use rcbr_net::{FaultConfig, FaultPlane, Path, RmCell, Switch};
    pub use rcbr_runtime::{run as run_signaling, run_sequential, RunReport, RuntimeConfig};
    pub use rcbr_schedule::{
        Ar1Config, Ar1Policy, CostModel, GopAwareConfig, GopAwarePolicy, OfflineOptimizer,
        OnlinePolicy, RateGrid, Schedule, SchedulePolicy, TrellisConfig, VcDriver,
    };
    pub use rcbr_sim::{units, FluidQueue, SimRng};
    pub use rcbr_traffic::{
        FrameTrace, MarkovChain, MarkovModulatedSource, MtsModel, OnOffSource, Subchain,
        SyntheticMpegConfig, SyntheticMpegSource, TokenBucket, TraceStats,
    };
}
