//! # rcbr-fuzz — deterministic chaos fuzzing for the signaling plane
//!
//! FoundationDB-style simulation testing: a whole runtime scenario — VC
//! population, topology, fault intensity, crash/restart and
//! permanent-kill windows, link flaps, leases, retry budgets, admission
//! policy — is a *typed schedule* drawn from a seeded parameter space
//! ([`space`]), every run is a pure function of `(schedule_seed, cfg)`,
//! and an oracle suite ([`oracle`]) checks each schedule sharded
//! {1, 2, 4} against the sequential replay plus every invariant the
//! repo has established so far. A failing schedule is minimized by a
//! delta-debugging shrinker ([`shrink`]) into the smallest
//! still-failing configuration, committed to `results/fuzz_corpus/` as
//! a self-contained JSON repro that replays as an ordinary test.
//!
//! The `fuzz` binary drives three modes: `--campaign N` (explore N
//! seeded schedules, write `fuzz_campaign.json`, shrink and persist any
//! failures), `--smoke` (a fixed-seed bounded campaign whose JSON
//! report must be byte-identical across reruns — the CI gate), and
//! `--replay <repro.json>` (re-check one corpus entry).

pub mod oracle;
pub mod shrink;
pub mod space;

pub use oracle::{run_oracles, OracleFailure};
pub use shrink::{candidates, fault_window_count, shrink};
pub use space::{draw_schedule, FuzzSchedule};

use rcbr_runtime::RuntimeConfig;
use serde::{Deserialize, Serialize};

/// Version tag of the committed corpus format.
pub const REPRO_FORMAT: &str = "rcbr-fuzz-repro-v1";

/// A self-contained corpus entry: everything needed to re-run one
/// schedule and check its expected verdict, with no dependency on the
/// generator that produced it (the embedded `cfg` is authoritative;
/// `schedule_seed` is provenance only).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FuzzRepro {
    /// Always [`REPRO_FORMAT`].
    pub format: String,
    /// The seed the schedule was originally drawn from (before any
    /// shrinking), for provenance.
    pub schedule_seed: u64,
    /// The oracle this repro exercises.
    pub oracle: String,
    /// `"clean"` (all oracles must pass — a regression anchor) or
    /// `"fail"` (the named oracle must still fail — a minimized bug
    /// repro kept alongside its fix).
    pub expect: String,
    /// The full runtime configuration to execute.
    pub cfg: RuntimeConfig,
}
