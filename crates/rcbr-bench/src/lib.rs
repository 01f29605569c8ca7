//! # rcbr-bench — the experiment harness
//!
//! One binary per figure of the paper's evaluation (see `DESIGN.md` for
//! the experiment index):
//!
//! | binary | reproduces |
//! |---|---|
//! | `fig2` | efficiency vs. renegotiation interval (OPT + AR(1) heuristic) |
//! | `fig5` | the (σ, ρ) curve at 10⁻⁶ loss |
//! | `fig6` | per-stream capacity c(N) for the three Fig. 3 scenarios |
//! | `fig7_8` | memoryless MBAC failure probability and normalized utilization |
//! | `headline` | the §I claim: 300 kb + ~12 s renegotiations vs. ~100 Mb static |
//! | `theory_validation` | eqs. (9)–(12) against simulation |
//!
//! Every binary accepts `--frames <n>` and `--seed <s>` to trade accuracy
//! for runtime, prints the figure's rows to stdout, and writes a JSON
//! record next to its text output when `--out <dir>` is given.
//!
//! The Criterion benches (`cargo bench`) wrap reduced instances of the
//! same pipelines so regressions in the algorithms' *runtime* are caught;
//! the binaries are the scientific harness.

use rcbr_net::{CrashSpec, FaultConfig, KillSpec, LinkDownSpec, StallSpec};
use rcbr_runtime::{run, run_sequential, AdmissionPolicy, RunReport, RuntimeConfig};
use rcbr_schedule::{CostModel, OfflineOptimizer, RateGrid, Schedule, TrellisConfig};
use rcbr_sim::SimRng;
use rcbr_traffic::{FrameTrace, SyntheticMpegSource};
use serde::Serialize;
use std::path::PathBuf;

/// The paper's buffer size: 300 kb.
pub const PAPER_BUFFER: f64 = 300_000.0;
/// The paper's loss target for Figs. 5 and 6.
pub const PAPER_LOSS_TARGET: f64 = 1e-6;
/// The paper's MBAC QoS target (Section VI).
pub const PAPER_FAILURE_TARGET: f64 = 1e-3;

/// Minimal CLI parsing shared by the figure binaries: `--key value` pairs
/// plus bare boolean flags (`--smoke`), which parse as `true`.
#[derive(Debug, Clone)]
pub struct Args {
    pairs: Vec<(String, String)>,
}

impl Args {
    /// Parse the process arguments. A `--key` followed by another `--key`
    /// (or by nothing) is a bare flag and gets the value `"true"`.
    pub fn parse() -> Self {
        let raw: Vec<String> = std::env::args().skip(1).collect();
        let mut pairs = Vec::new();
        let mut it = raw.into_iter().peekable();
        while let Some(k) = it.next() {
            let k = k.strip_prefix("--").unwrap_or(&k).to_string();
            let v = match it.peek() {
                Some(next) if !next.starts_with("--") => it.next().expect("peeked"),
                _ => "true".to_string(),
            };
            pairs.push((k, v));
        }
        Self { pairs }
    }

    /// Whether a bare flag (or explicit `--key true`) is set.
    pub fn flag(&self, key: &str) -> bool {
        self.get(key, false)
    }

    /// Look up a typed value with a default.
    pub fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> T
    where
        T::Err: std::fmt::Debug,
    {
        self.pairs
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.parse().unwrap_or_else(|e| panic!("bad --{key}: {e:?}")))
            .unwrap_or(default)
    }

    /// Optional output directory (`--out`).
    pub fn out_dir(&self) -> Option<PathBuf> {
        self.pairs
            .iter()
            .rev()
            .find(|(k, _)| k == "out")
            .map(|(_, v)| PathBuf::from(v))
    }
}

/// The standard workload: a Star-Wars-like synthetic trace.
pub fn paper_trace(frames: usize, seed: u64) -> FrameTrace {
    let mut rng = SimRng::from_seed(seed);
    SyntheticMpegSource::star_wars_like().generate(frames, &mut rng)
}

/// The standard offline schedule: the paper's Fig. 6 configuration —
/// 300 kb buffer, drain-at-end (required for circular shifting), a cost
/// ratio giving roughly one renegotiation every ~12 s, quantized buffer
/// axis for tractability.
pub fn paper_schedule(trace: &FrameTrace, buffer: f64) -> Schedule {
    let grid = RateGrid::uniform(48_000.0, 2_400_000.0, 20);
    OfflineOptimizer::new(
        TrellisConfig::new(grid, CostModel::from_ratio(1e6), buffer)
            .with_drain_at_end()
            .with_q_resolution(buffer / 1000.0),
    )
    .optimize(trace)
    .expect("the 2.4 Mb/s grid covers the synthetic trace")
}

/// Fault-plane seed salt used by the chaos sweep and the survivability
/// soak: `cfg.fault.seed = cfg.seed ^ CHAOS_FAULT_SEED_SALT`.
pub const CHAOS_FAULT_SEED_SALT: u64 = 0xc4a05;
/// Fault-plane seed salt used by the admission frontier sweep.
pub const ADMISSION_FAULT_SEED_SALT: u64 = 0xad315;
/// Fault-plane seed salt used by the deterministic chaos fuzzer.
pub const FUZZ_FAULT_SEED_SALT: u64 = 0xf0cc5;
/// Fault-plane seed salt used by the flash-crowd storm sweep.
pub const STORM_FAULT_SEED_SALT: u64 = 0x5706d;

pub mod fuzz;

/// The one shared way benchmark binaries, parity tests, and the fuzzer
/// assemble a runtime scenario.
///
/// Every consumer used to hand-roll the same fragments — seed the fault
/// plane from the master seed xor a harness salt, size ports against the
/// mean admission load, split a fault intensity across the four cell
/// modes — and a re-typed copy that drifted by one expression would
/// silently change which committed baseline a test reproduces. The
/// builder owns those fragments; `build()` hands back a validated
/// [`RuntimeConfig`].
///
/// The capacity and intensity arithmetic is kept byte-for-byte identical
/// to the historical `sweep_cfg` / `frontier_cfg` expressions: the
/// committed CI baselines (`results/admission_frontier_smoke_baseline.json`,
/// `results/chaos_survivability_smoke.json`) gate on exact counters, so
/// even a float-expression re-association here would read as drift.
#[derive(Debug, Clone)]
pub struct ScenarioBuilder {
    cfg: RuntimeConfig,
    /// Applied at `build()` as `fault.seed = seed ^ salt`, so the call
    /// order of [`seed`](Self::seed) and the fault methods never matters.
    fault_seed_salt: Option<u64>,
}

impl ScenarioBuilder {
    /// Start from [`RuntimeConfig::balanced`].
    pub fn balanced(num_shards: usize, num_vcs: usize) -> Self {
        Self {
            cfg: RuntimeConfig::balanced(num_shards, num_vcs),
            fault_seed_salt: None,
        }
    }

    /// Set the master seed (traffic, policy jitter, and — via the salt —
    /// the fault plane).
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Stop after this many completed signaling requests.
    pub fn target_requests(mut self, target: u64) -> Self {
        self.cfg.target_requests = target;
        self
    }

    /// Hard cap on rounds. The fuzzer lowers this from the `balanced()`
    /// default so a schedule that strands its whole VC population (and
    /// therefore never reaches `target_requests`) terminates in bounded
    /// time instead of spinning out a million idle rounds.
    pub fn max_rounds(mut self, max_rounds: u64) -> Self {
        self.cfg.max_rounds = max_rounds;
        self
    }

    /// Replace the fault scenario with [`FaultConfig::transparent`]:
    /// no random cell faults, no scheduled outages.
    pub fn transparent_faults(mut self) -> Self {
        self.cfg.fault = FaultConfig::transparent();
        self
    }

    /// Derive the fault-plane seed from the master seed at `build()`:
    /// `fault.seed = seed ^ salt`. The salt decorrelates fault coin flips
    /// from the traffic streams while keeping the whole run a pure
    /// function of one master seed.
    pub fn fault_seed_salt(mut self, salt: u64) -> Self {
        self.fault_seed_salt = Some(salt);
        self
    }

    /// Split a total per-traversal fault probability (basis points)
    /// across the four cell-fault modes: 40% drop, 30% delay (up to 3
    /// supersteps), 15% duplicate, 15% corrupt — the chaos sweep's
    /// canonical mix.
    pub fn intensity_bp(mut self, intensity_bp: u32) -> Self {
        self.cfg.fault.drop_bp = intensity_bp * 40 / 100;
        self.cfg.fault.delay_bp = intensity_bp * 30 / 100;
        self.cfg.fault.max_delay = 3;
        self.cfg.fault.dup_bp = intensity_bp * 15 / 100;
        self.cfg.fault.corrupt_bp = intensity_bp * 15 / 100;
        self
    }

    /// Size ports at `headroom` times the *mean* per-switch initial
    /// admission load (`num_vcs * hops_per_vc / num_switches` flows at
    /// `initial_rate`). Contrast with [`RuntimeConfig::balanced`], which
    /// sizes against the most-loaded port; the sweeps want the mean so
    /// `headroom` maps directly onto contention.
    pub fn mean_flow_capacity(mut self, headroom: f64) -> Self {
        let flows_per_switch =
            (self.cfg.num_vcs * self.cfg.hops_per_vc) as f64 / self.cfg.num_switches as f64;
        self.cfg.port_capacity = flows_per_switch * self.cfg.initial_rate * headroom;
        self
    }

    /// Multiply whatever port capacity is currently configured.
    pub fn capacity_scale(mut self, factor: f64) -> Self {
        self.cfg.port_capacity *= factor;
        self
    }

    /// Run the periodic invariant auditor every `rounds` rounds.
    pub fn audit_interval(mut self, rounds: u64) -> Self {
        self.cfg.audit_interval = rounds;
        self
    }

    /// Select the admission policy and its measurement-window cadence.
    pub fn admission(mut self, policy: AdmissionPolicy, window_supersteps: u64) -> Self {
        self.cfg.admission = policy;
        self.cfg.measurement_window_supersteps = window_supersteps;
        self
    }

    /// Arm use-it-or-lose-it per-hop leases (0 disables).
    pub fn lease_supersteps(mut self, lease_supersteps: u64) -> Self {
        self.cfg.lease_supersteps = lease_supersteps;
        self
    }

    /// Add duplex chords on top of the ring substrate.
    pub fn extra_links(mut self, links: Vec<(usize, usize)>) -> Self {
        self.cfg.extra_links = links;
        self
    }

    /// Override the per-request verdict timeout.
    pub fn timeout_supersteps(mut self, timeout_supersteps: u64) -> Self {
        self.cfg.timeout_supersteps = timeout_supersteps;
        self
    }

    /// Set the recovery knobs the chaos sweep tunes: resync cadence,
    /// retry budget, and base backoff.
    pub fn recovery(mut self, resync_interval: u64, retry_budget: u32, backoff_base: u64) -> Self {
        self.cfg.resync_interval = resync_interval;
        self.cfg.retry_budget = retry_budget;
        self.cfg.backoff_base = backoff_base;
        self
    }

    /// Schedule a permanent switch kill.
    pub fn kill(mut self, switch: usize, at_superstep: u64) -> Self {
        self.cfg.fault.kills.push(KillSpec {
            switch,
            at_superstep,
        });
        self
    }

    /// Schedule a transient switch crash/restart window.
    pub fn crash(mut self, switch: usize, at_superstep: u64, down_supersteps: u64) -> Self {
        self.cfg.fault.crashes.push(CrashSpec {
            switch,
            at_superstep,
            down_supersteps,
        });
        self
    }

    /// Schedule one link-down window.
    pub fn link_down(
        mut self,
        a: usize,
        b: usize,
        at_superstep: u64,
        down_supersteps: u64,
    ) -> Self {
        self.cfg.fault.link_downs.push(LinkDownSpec {
            a,
            b,
            at_superstep,
            down_supersteps,
        });
        self
    }

    /// Schedule a shard-group stall.
    pub fn stall(mut self, spec: StallSpec) -> Self {
        self.cfg.fault.stall = Some(spec);
        self
    }

    /// Resolve the deferred fault seed and return the validated
    /// configuration.
    pub fn build(self) -> RuntimeConfig {
        let mut cfg = self.cfg;
        if let Some(salt) = self.fault_seed_salt {
            cfg.fault.seed = cfg.seed ^ salt;
        }
        cfg.validate();
        cfg
    }
}

/// The survivability soak scenario (see `chaos --survivability`): which
/// switch dies, which links flap, and the full runtime configuration.
#[derive(Debug, Clone)]
pub struct SurvivabilityScenario {
    /// The runtime configuration the soak runs.
    pub cfg: RuntimeConfig,
    /// The permanently killed switch.
    pub killed_switch: usize,
    /// The two links that flap (two down windows each).
    pub flapped_links: Vec<(usize, usize)>,
}

/// The committed survivability scenario: a chorded 8-ring under one
/// permanent switch kill and two flapping links, with per-hop leases
/// armed and no random cell faults. This is the configuration behind
/// `results/chaos_survivability_smoke.json`, shared between the chaos
/// binary and the admission parity tests so "reproduces the committed
/// counters" means the *same* scenario, not a re-typed copy.
pub fn survivability_scenario(seed: u64, smoke: bool) -> SurvivabilityScenario {
    let killed = 3usize;
    let flapped = vec![(5usize, 6usize), (6usize, 7usize)];
    let mut builder = ScenarioBuilder::balanced(4, 64) // 8 switches, 4-hop paths
        .seed(seed)
        .target_requests(if smoke { 5_000 } else { 100_000 })
        .transparent_faults()
        .fault_seed_salt(CHAOS_FAULT_SEED_SALT)
        // Chord (2, 4) routes around the killed switch; chord (5, 7)
        // routes around both flapping links.
        .extra_links(vec![(2, 4), (5, 7)])
        .lease_supersteps(200)
        // Headroom for make-before-break double occupancy while half the
        // population reroutes onto the chords at once.
        .capacity_scale(4.0)
        .kill(killed, 200);
    // Two windows per link, staggered so the two flapping links are never
    // down at once: simultaneous outages would isolate the switch between
    // them, and the soak is about VCs that *do* have an alternate path.
    for (&(a, b), windows) in flapped.iter().zip([[350u64, 1_800], [500, 2_200]]) {
        for at in windows {
            builder = builder.link_down(a, b, at, 120);
        }
    }
    SurvivabilityScenario {
        cfg: builder.build(),
        killed_switch: killed,
        flapped_links: flapped,
    }
}

/// Write `value` as pretty JSON to `dir/name` when a directory was given.
pub fn write_json<T: Serialize>(dir: &Option<PathBuf>, name: &str, value: &T) {
    if let Some(dir) = dir {
        std::fs::create_dir_all(dir).expect("create output dir");
        let path = dir.join(name);
        std::fs::write(
            &path,
            serde_json::to_string_pretty(value).expect("serialize"),
        )
        .expect("write JSON");
        eprintln!("wrote {}", path.display());
    }
}

/// One configuration on every engine: see [`run_everywhere`].
pub struct Everywhere {
    /// The sequential replay's report, the reference.
    pub sequential: RunReport,
    /// `run` at 1, 2 and 4 shards: the shard count, the report, and where
    /// its [`RunReport::outcome`] first departs from the reference's
    /// (`None`: the same run).
    pub sharded: Vec<(usize, RunReport, Option<String>)>,
}

/// The one shard-identity check: `cfg` through the sequential replay and
/// through `run` at shard counts {1, 2, 4}, each sharded run's `outcome()`
/// compared with the replay's as pretty JSON (every `f64` to the bit).
pub fn run_everywhere(cfg: &RuntimeConfig) -> Everywhere {
    let text = |r: &RunReport| serde_json::to_string_pretty(&r.outcome()).expect("serialize");
    let sequential = run_sequential(cfg);
    let want = text(&sequential);
    let mut sharded = Vec::new();
    for shards in [1usize, 2, 4] {
        let mut scfg = cfg.clone();
        scfg.num_shards = shards;
        let report = run(&scfg);
        let diverges = first_divergence(&want, &text(&report));
        sharded.push((shards, report, diverges));
    }
    Everywhere {
        sequential,
        sharded,
    }
}

impl Everywhere {
    /// The sequential report of a run that came out the same everywhere.
    ///
    /// # Panics
    /// Panics, naming the first diverging line, if a shard count did not.
    pub fn same(self, label: &str) -> RunReport {
        for (shards, _, diverges) in &self.sharded {
            if let Some(at) = diverges {
                panic!("[{label}] {shards} shards diverge from the sequential replay: {at}");
            }
        }
        self.sequential
    }
}

/// The first line on which two pretty-printed records differ.
fn first_divergence(want: &str, got: &str) -> Option<String> {
    if let Some((i, (w, g))) =
        (want.lines().zip(got.lines()).enumerate()).find(|(_, (w, g))| w != g)
    {
        return Some(format!("line {}: `{}` vs `{}`", i + 1, w.trim(), g.trim()));
    }
    let (w, g) = (want.lines().count(), got.lines().count());
    (w != g).then(|| format!("lengths differ: {w} vs {g} lines"))
}

/// The one smoke gate: `records` — deterministic fields only — against
/// the committed baseline at `--baseline <path>` (default
/// `default_path`), as pretty JSON. Returns the process exit code: 0 on a
/// match, 1 on drift (the first differing line is printed). With
/// `--update-baseline` it writes the file instead, for an *intentional*
/// change.
pub fn smoke_gate<T: Serialize>(args: &Args, default_path: &str, records: &T) -> i32 {
    let path = PathBuf::from(args.get("baseline", default_path.to_string()));
    if args.flag("update-baseline") {
        let name = path.file_name().and_then(|n| n.to_str());
        write_json(
            &path.parent().map(PathBuf::from),
            name.expect("--baseline names a file"),
            records,
        );
        return 0;
    }
    let got = serde_json::to_string_pretty(records).expect("serialize");
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {}: {e}; run with --update-baseline first",
            path.display()
        )
    });
    match first_divergence(want.trim_end(), &got) {
        None => {
            println!("smoke: matches {}", path.display());
            0
        }
        Some(at) => {
            eprintln!("smoke: drifted from {} at {at}", path.display());
            eprintln!("if the change is intentional, rerun with --update-baseline and commit");
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_trace_is_calibrated() {
        let tr = paper_trace(2400, 1);
        assert!((tr.mean_rate() - 374_000.0).abs() < 1.0);
    }

    #[test]
    fn paper_schedule_is_feasible() {
        let tr = paper_trace(2400, 2);
        let s = paper_schedule(&tr, PAPER_BUFFER);
        assert!(s.is_feasible(&tr, PAPER_BUFFER));
        assert!(s.replay(&tr, PAPER_BUFFER).final_backlog <= 1e-9);
    }
}
