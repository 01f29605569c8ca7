//! Run reports: counters, merged latency statistics, per-shard metrics.
//!
//! This module is also the runtime's *only* sanctioned wall-clock
//! boundary (the one exemption from `clippy.toml`'s `Instant::now` ban):
//! the [`WallTimer`] below feeds throughput reporting and nothing else.

use rcbr_sim::Histogram;
use serde::{Deserialize, Serialize};

use crate::admission::AdmissionReport;
use crate::audit::AuditReport;
use crate::config::RuntimeConfig;
use crate::core::CounterSnapshot;

/// The audited wall-clock boundary. Wall time influences only the
/// `wall_seconds` / `throughput_per_sec` fields of a [`RunReport`] —
/// never simulation state, which runs on the logical superstep clock.
/// Reading `std::time::Instant::now` anywhere else is a clippy
/// `disallowed_methods` error.
pub(crate) struct WallTimer {
    started: std::time::Instant,
}

impl WallTimer {
    /// Start timing.
    // The audited exemption from clippy.toml: the reading lands in the
    // report's timing fields, never in simulation state.
    #[allow(clippy::disallowed_methods)]
    pub(crate) fn start() -> Self {
        Self {
            started: std::time::Instant::now(),
        }
    }

    /// Seconds elapsed since `start()`, for throughput accounting only.
    pub(crate) fn elapsed_seconds(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }
}

/// Per-worker pipeline metrics.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ShardReport {
    /// Shard index.
    pub shard: usize,
    /// Jobs this shard processed across all supersteps.
    pub processed: u64,
    /// Requests this shard's VCs injected.
    pub injected: u64,
    /// Deepest per-superstep inbox this shard drained (the "queue depth"
    /// high-water mark).
    pub max_batch: u64,
}

/// Modeled signaling round-trip latency, merged across shards.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatencySummary {
    /// Attempts with a latency sample (granted + denied; killed cells
    /// never report back, so timeouts carry no latency).
    pub count: u64,
    /// Mean round trip, seconds.
    pub mean: f64,
    /// Median round trip, seconds.
    pub p50: f64,
    /// 95th percentile, seconds.
    pub p95: f64,
    /// 99th percentile, seconds.
    pub p99: f64,
    /// Largest observed round trip, seconds.
    pub max: f64,
}

/// One VC's end-of-run outcome, for survivability assertions: did it end
/// on a valid route at a live rate, or cleanly degraded holding nothing?
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VcOutcome {
    /// The VC's identifier.
    pub vci: u32,
    /// The rate the source believes is reserved end to end (0 for a
    /// stranded/torn-down VC).
    pub believed: f64,
    /// The VC ended degraded (exhausted a retry budget, was stranded, or
    /// was floored by end-of-run recovery).
    pub degraded: bool,
    /// The VC's end-system buffer loss fraction.
    pub loss: f64,
    /// The route the VC's reservations live on at exit (empty if it holds
    /// nothing).
    pub route: Vec<usize>,
}

/// The result of one signaling-plane run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunReport {
    /// Shard count this run used (the sequential replay reports `1`).
    pub num_shards: usize,
    /// VC count.
    pub num_vcs: usize,
    /// Switch count.
    pub num_switches: usize,
    /// Hops per VC path.
    pub hops_per_vc: usize,
    /// Rounds executed.
    pub rounds: u64,
    /// Supersteps the logical clock advanced (identical across shard
    /// counts and the sequential replay).
    pub supersteps: u64,
    /// Wall-clock duration, seconds.
    pub wall_seconds: f64,
    /// Completed requests per wall-clock second.
    pub throughput_per_sec: f64,
    /// The shared atomic counters at the end of the run.
    pub counters: CounterSnapshot,
    /// What the end-of-run auditor found and repaired; `audit.final_drift`
    /// must be 0.
    pub audit: AuditReport,
    /// Admission accounting: grants and denials at the booking checks
    /// (split from the fault plane's lost cells), plus estimator and
    /// equivalent-bandwidth-cache telemetry.
    pub admission: AdmissionReport,
    /// VCs that ended the run degraded (exhausted a retry budget, or were
    /// floored by end-of-run recovery).
    pub degraded_vcs: u64,
    /// VCs whose route machinery was still in motion when the run ended —
    /// a reroute walk awaiting its verdict, a reroute backoff pending, or
    /// teardown walks queued but not yet emitted. Such VCs can
    /// legitimately leave `audit.off_route_residue` behind; when this is
    /// zero the residue must be zero too (the fuzzer's quiescent-residue
    /// oracle).
    pub unsettled_vcs: u64,
    /// VCs that ended the run browned out — BestEffort sources holding
    /// their last granted rate under advertised overload pressure instead
    /// of renegotiating.
    pub brownout_vcs: u64,
    /// Mean end-system buffer loss fraction across VCs.
    pub mean_source_loss: f64,
    /// Worst end-system buffer loss fraction across VCs.
    pub max_source_loss: f64,
    /// Per-VC end-of-run outcomes, ascending VCI.
    pub vcs: Vec<VcOutcome>,
    /// Merged latency statistics.
    pub latency: LatencySummary,
    /// Per-shard pipeline metrics (one entry for the sequential replay).
    pub shards: Vec<ShardReport>,
}

/// The deterministic part of a [`RunReport`]: what must come out the same
/// from the sequential replay and at every shard count. Two runs are the
/// same run iff their outcomes print the same text, `{:#?}` or JSON —
/// both print an `f64` shortest-round-trip, so to the bit, `-0.0` apart
/// from `0.0`. Each field is the [`RunReport`] field of the same name.
#[derive(Debug, Clone, Copy)]
pub struct RunOutcome<'a> {
    pub rounds: u64,
    pub supersteps: u64,
    pub counters: &'a CounterSnapshot,
    pub audit: &'a AuditReport,
    pub admission: &'a AdmissionReport,
    pub degraded_vcs: u64,
    pub unsettled_vcs: u64,
    pub brownout_vcs: u64,
    pub mean_source_loss: f64,
    pub max_source_loss: f64,
    pub vcs: &'a [VcOutcome],
    pub latency: &'a LatencySummary,
}

impl RunReport {
    /// The one definition of "the same run". The pattern names every
    /// field and has no `..`: a field added to [`RunReport`] does not
    /// compile until it is listed here, above or below `Compared`.
    pub fn outcome(&self) -> RunOutcome<'_> {
        let RunReport {
            // Not compared: the shard count asked for, the configuration
            // echoed back, wall time, and the per-shard pipeline metrics
            // (batch sizes depend on the partition).
            num_shards: _,
            num_vcs: _,
            num_switches: _,
            hops_per_vc: _,
            wall_seconds: _,
            throughput_per_sec: _,
            shards: _,
            // Compared.
            rounds,
            supersteps,
            counters,
            audit,
            admission,
            degraded_vcs,
            unsettled_vcs,
            brownout_vcs,
            mean_source_loss,
            max_source_loss,
            vcs,
            latency,
        } = self;
        RunOutcome {
            rounds: *rounds,
            supersteps: *supersteps,
            counters,
            audit,
            admission,
            degraded_vcs: *degraded_vcs,
            unsettled_vcs: *unsettled_vcs,
            brownout_vcs: *brownout_vcs,
            mean_source_loss: *mean_source_loss,
            max_source_loss: *max_source_loss,
            vcs,
            latency,
        }
    }
}

// By hand: the vendored derive takes no lifetime parameter.
impl Serialize for RunOutcome<'_> {
    fn to_json_value(&self) -> serde::Value {
        let fields = [
            ("rounds", self.rounds.to_json_value()),
            ("supersteps", self.supersteps.to_json_value()),
            ("counters", self.counters.to_json_value()),
            ("audit", self.audit.to_json_value()),
            ("admission", self.admission.to_json_value()),
            ("degraded_vcs", self.degraded_vcs.to_json_value()),
            ("unsettled_vcs", self.unsettled_vcs.to_json_value()),
            ("brownout_vcs", self.brownout_vcs.to_json_value()),
            ("mean_source_loss", self.mean_source_loss.to_json_value()),
            ("max_source_loss", self.max_source_loss.to_json_value()),
            ("vcs", self.vcs.to_json_value()),
            ("latency", self.latency.to_json_value()),
        ];
        serde::Value::Object(
            fields
                .into_iter()
                .map(|(name, v)| (name.to_string(), v))
                .collect(),
        )
    }
}

/// The latency histogram every worker records into (merged at the end);
/// bounds cover the longest possible modeled round trip.
pub(crate) fn latency_histogram(cfg: &RuntimeConfig) -> Histogram {
    let hi = (cfg.hop_latency * 2.0 * (cfg.hops_per_vc + 1) as f64).max(1e-9);
    Histogram::new(0.0, hi, 4 * (cfg.hops_per_vc + 1))
}

/// Exact round-trip accumulator: every modeled RTT is an integer hop
/// count scaled by `2 * hop_latency`, so summing the *hop counts* (and
/// scaling once at summary time) keeps the mean a pure function of the
/// completion multiset. A float running mean would pick up
/// partition-dependent rounding (parallel Welford merges in shard order,
/// the sequential replay streams in arrival order), breaking the
/// bit-identity invariant in the last ulps.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct RttStats {
    hops: u64,
    count: u64,
    max_hops: u64,
}

impl RttStats {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one completed attempt that touched `hops` hops.
    pub fn record(&mut self, hops: usize) {
        self.hops += hops as u64;
        self.count += 1;
        self.max_hops = self.max_hops.max(hops as u64);
    }

    /// Exact merge (integer sums are associative and commutative).
    pub fn merge(&mut self, other: &RttStats) {
        self.hops += other.hops;
        self.count += other.count;
        self.max_hops = self.max_hops.max(other.max_hops);
    }
}

/// Summarize merged latency stats.
pub(crate) fn summarize_latency(
    hist: &Histogram,
    rtt: &RttStats,
    hop_latency: f64,
) -> LatencySummary {
    let per_hop = 2.0 * hop_latency;
    LatencySummary {
        count: hist.count(),
        mean: if rtt.count > 0 {
            per_hop * rtt.hops as f64 / rtt.count as f64
        } else {
            0.0
        },
        p50: hist.quantile(0.5),
        p95: hist.quantile(0.95),
        p99: hist.quantile(0.99),
        max: per_hop * rtt.max_hops as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn text(r: &RunReport) -> String {
        format!("{:#?}", r.outcome())
    }

    #[test]
    fn outcome_ignores_the_partition_and_the_clock_and_nothing_else() {
        let mut cfg = RuntimeConfig::balanced(1, 8);
        cfg.target_requests = 200;
        let base = crate::run_sequential(&cfg);
        assert!(base.latency.p99 > 0.0 && base.mean_source_loss > 0.0);

        let mut other = base.clone();
        other.num_shards = 4;
        other.wall_seconds += 1.0;
        other.throughput_per_sec *= 0.5;
        other.shards.clear();
        assert_eq!(text(&other), text(&base));

        let last_bit: [fn(&mut RunReport) -> &mut f64; 3] = [
            |r| &mut r.latency.p99,
            |r| &mut r.mean_source_loss,
            |r| &mut r.vcs[3].believed,
        ];
        for (i, field) in last_bit.into_iter().enumerate() {
            let mut changed = base.clone();
            let x = field(&mut changed);
            *x = f64::from_bits(x.to_bits() + 1);
            assert_ne!(text(&changed), text(&base), "edit {i}");
        }
        let (mut zero, mut minus_zero) = (base.clone(), base);
        zero.max_source_loss = 0.0;
        minus_zero.max_source_loss = -0.0;
        assert_ne!(text(&zero), text(&minus_zero));
    }
}
