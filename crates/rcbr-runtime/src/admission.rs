//! Live measurement-based admission control for the signaling plane.
//!
//! The paper's Section VI studies admission control for RCBR traffic in two
//! flavors: a memoryless Chernoff test over the renegotiated-rate marginal
//! and an equivalent-bandwidth test over the empirical rate process. This
//! module brings both online: every switch carries an [`ArrivalEstimator`]
//! that folds the delivered renegotiation stream into an empirical
//! grid-level histogram plus transition counts, and at deterministic
//! superstep boundaries a [`SwitchAdmission`] rolls the measurement window
//! into a fresh booking ceiling for the switch's output ports.
//!
//! Three invariants keep this subsystem honest:
//!
//! * **Legacy parity.** [`AdmissionPolicy::PeakRate`] (the default) never
//!   rolls a window and never moves a ceiling, so every port keeps
//!   `ceiling == capacity` and the fast-path check is bit-identical to the
//!   static peak-rate check the runtime shipped with.
//! * **Determinism.** The estimator observes only *delivered* RM cells, in
//!   the per-switch deterministic order the drain loop already guarantees;
//!   windows roll only at the top of a round (phase-A quiescence) at
//!   supersteps derived from `measurement_window_supersteps`. All state
//!   lives in `BTreeMap`s. Counters and per-VC outcomes are therefore
//!   bit-identical across shard counts under every policy.
//! * **Soft state.** A crash-restart wipes the measurements along with the
//!   switch's reservations (the ceiling snaps back to the capacity); the
//!   [`rcbr_ldt::eb::EbCache`] survives, since equivalent bandwidth is a
//!   function of the model alone, not of who measured it.

use std::collections::BTreeMap;

use rcbr_admission::controllers::Memoryless;
use rcbr_ldt::eb::{EbCache, QosTarget};
use rcbr_net::Switch;
use rcbr_traffic::markov::{MarkovChain, MarkovModulatedSource};
use serde::{Deserialize, Serialize};

use crate::config::RuntimeConfig;
use crate::core::CounterSnapshot;

/// Hard clamp on how far a measured ceiling may move from the capacity, as
/// a multiplicative factor in either direction. Keeps a degenerate window
/// (one quiet sample, an all-zero histogram) from swinging the ceiling to
/// an absurd value before the next window corrects it.
pub const MAX_OVERBOOK: f64 = 4.0;

/// Which admission test gates renegotiation RM cells at each port.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum AdmissionPolicy {
    /// The legacy static check: admit iff the new aggregate fits the port
    /// capacity. No measurement, no ceiling movement — bit-identical to
    /// the runtime before this subsystem existed.
    PeakRate,
    /// The memoryless Chernoff MBAC of Section VI-A: from the measured
    /// rate marginal, find the per-source capacity at which the Chernoff
    /// bound on `P(sum > capacity)` meets `target`, and book against it.
    Memoryless {
        /// Acceptable renegotiation-failure probability, in `(0, 1)`.
        target: f64,
    },
    /// The equivalent-bandwidth MBAC of Section VI-B: fit an empirical
    /// Markov chain to the measured rate process and book against the sum
    /// of equivalent bandwidths at QoS target `(buffer, epsilon)`.
    ChernoffEb {
        /// Acceptable buffer-overflow probability, in `(0, 1)`.
        epsilon: f64,
    },
}

// Not derived: the vendored serde_derive shim cannot parse a `#[default]`
// variant attribute alongside its own derives.
#[allow(clippy::derivable_impls)]
impl Default for AdmissionPolicy {
    fn default() -> Self {
        AdmissionPolicy::PeakRate
    }
}

impl AdmissionPolicy {
    /// Stable lowercase name for reports and bench output.
    pub fn name(&self) -> &'static str {
        match self {
            AdmissionPolicy::PeakRate => "peak-rate",
            AdmissionPolicy::Memoryless { .. } => "memoryless",
            AdmissionPolicy::ChernoffEb { .. } => "chernoff-eb",
        }
    }

    /// Whether this policy runs the measurement pipeline at all. PeakRate
    /// does not: its ceilings never move, so the estimator would be dead
    /// weight on the fast path.
    pub fn measures(&self) -> bool {
        !matches!(self, AdmissionPolicy::PeakRate)
    }
}

/// Per-switch online estimator of the renegotiated-rate process.
///
/// Rates are quantized to the renegotiation grid (`granularity` Δ from the
/// config), matching the paper's observation that RCBR sources only ever
/// request grid rates anyway. The estimator keeps, per measurement window,
/// a histogram of observed grid levels and pooled level-to-level
/// transition counts; across windows it remembers each VC's last level so
/// transitions chain over window boundaries, and a cumulative observation
/// count for reporting.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrivalEstimator {
    granularity: f64,
    /// Histogram of grid levels seen this window.
    levels: BTreeMap<u64, u64>,
    /// Pooled `(from, to)` grid-level transition counts this window.
    transitions: BTreeMap<(u64, u64), u64>,
    /// Last observed grid level per VC — persists across window rolls so
    /// cross-window transitions still chain.
    ///
    /// The per-VC rate process does not restart at a window boundary:
    /// the first cell a VC delivers after a roll is a transition *from*
    /// its last pre-roll level, and forgetting that level would silently
    /// drop exactly one transition per VC per window. With windows short
    /// relative to the renegotiation cadence that loss is a systematic
    /// bias toward whatever the within-window dynamics happen to be —
    /// the fitted transition matrix (and so the booking ceilings) would
    /// then depend on where the roll landed, not on the traffic. Only a
    /// crash [`wipe`](Self::wipe) clears it: measurement state is soft
    /// state, and a restarted switch genuinely has no pre-crash evidence
    /// to chain from. [`clear_window`](Self::clear_window) keeps it.
    last_level: BTreeMap<u32, u64>,
    /// Cumulative observations since the last wipe (not reset by rolls).
    observed: u64,
}

impl ArrivalEstimator {
    /// New empty estimator on the given rate grid.
    ///
    /// # Panics
    /// Panics unless `granularity > 0` and finite.
    pub fn new(granularity: f64) -> Self {
        assert!(
            granularity > 0.0 && granularity.is_finite(),
            "estimator granularity must be positive"
        );
        Self {
            granularity,
            levels: BTreeMap::new(),
            transitions: BTreeMap::new(),
            last_level: BTreeMap::new(),
            observed: 0,
        }
    }

    fn grid(&self, rate: f64) -> u64 {
        (rate.max(0.0) / self.granularity).round() as u64
    }

    /// Fold one delivered RM cell into the window: `rate` is the VC's
    /// post-decision reservation at this switch.
    pub fn observe(&mut self, vci: u32, rate: f64) {
        let level = self.grid(rate);
        *self.levels.entry(level).or_insert(0) += 1;
        if let Some(&prev) = self.last_level.get(&vci) {
            *self.transitions.entry((prev, level)).or_insert(0) += 1;
        }
        self.last_level.insert(vci, level);
        self.observed += 1;
    }

    /// Cumulative observations since the last wipe.
    pub fn observations(&self) -> u64 {
        self.observed
    }

    /// VCs with at least one observation on record.
    pub fn active_vcs(&self) -> usize {
        self.last_level.len()
    }

    /// The measured rate marginal as `(rate, weight)` pairs, ascending by
    /// rate. Weights are raw counts; consumers normalize.
    pub fn weighted_levels(&self) -> Vec<(f64, f64)> {
        self.levels
            .iter()
            .map(|(&lvl, &n)| (lvl as f64 * self.granularity, n as f64))
            .collect()
    }

    /// Fit an empirical Markov-modulated source to this window: states are
    /// the observed grid levels, transition probabilities the pooled
    /// counts row-normalized (rows with no observed exits self-loop), and
    /// emissions the grid rates over a unit slot. Returns `None` on an
    /// empty window.
    pub fn empirical_source(&self) -> Option<MarkovModulatedSource> {
        if self.levels.is_empty() {
            return None;
        }
        let states: Vec<u64> = self.levels.keys().copied().collect();
        let index: BTreeMap<u64, usize> = states.iter().enumerate().map(|(i, &s)| (s, i)).collect();
        let n = states.len();
        let mut counts = vec![vec![0u64; n]; n];
        for (&(from, to), &c) in &self.transitions {
            // Transitions touching levels outside this window's histogram
            // (possible when a cross-window chain spans a roll) are
            // dropped: the state space is this window's evidence.
            if let (Some(&i), Some(&j)) = (index.get(&from), index.get(&to)) {
                counts[i][j] += c;
            }
        }
        let mut rows = Vec::with_capacity(n);
        for (i, row) in counts.iter().enumerate() {
            let mut total = 0u64;
            for &c in row {
                total += c;
            }
            let mut p = vec![0.0f64; n];
            if total == 0 {
                // No observed exits: a self-loop keeps the chain stochastic
                // without inventing dynamics.
                p[i] = 1.0;
            } else {
                let mut partial = 0.0f64;
                for j in 0..n - 1 {
                    p[j] = row[j] as f64 / total as f64;
                    partial += p[j];
                }
                // The last entry absorbs rounding so the row sums to one
                // exactly within the chain constructor's tolerance.
                p[n - 1] = (1.0 - partial).max(0.0);
            }
            rows.push(p);
        }
        let chain = MarkovChain::new(rows);
        let emissions: Vec<f64> = states
            .iter()
            .map(|&s| s as f64 * self.granularity)
            .collect();
        Some(MarkovModulatedSource::new(chain, emissions, 1.0))
    }

    /// Roll the window: forget this window's histogram and transitions but
    /// keep per-VC last levels (cross-window chaining) and the cumulative
    /// observation count.
    pub fn clear_window(&mut self) {
        self.levels.clear();
        self.transitions.clear();
    }

    /// Crash-wipe: forget everything, including last levels. Measurement
    /// state is soft state, rebuilt from the post-restart stream.
    pub fn wipe(&mut self) {
        self.levels.clear();
        self.transitions.clear();
        self.last_level.clear();
        self.observed = 0;
    }
}

/// Map a policy's measured capacity requirement to a port booking ceiling.
///
/// `needed` is the capacity the measured mix would require to meet the
/// policy's loss target. If the mix needs less than the physical capacity
/// the port can overbook by the same statistical margin; if it needs more,
/// the ceiling tightens below the capacity. `None` (no evidence yet) and
/// degenerate values fall back generously: an empty or all-idle window is
/// not evidence of congestion. The result is clamped to
/// `[capacity / MAX_OVERBOOK, capacity * MAX_OVERBOOK]`.
pub fn booking_ceiling(capacity: f64, needed: Option<f64>) -> f64 {
    let hi = capacity * MAX_OVERBOOK;
    let lo = capacity / MAX_OVERBOOK;
    match needed {
        None => capacity,
        Some(c) if c <= 0.0 || !c.is_finite() => hi,
        Some(c) => (capacity * (capacity / c)).clamp(lo, hi),
    }
}

/// All admission state a switch carries: the estimator, the
/// equivalent-bandwidth cache, the roll schedule, and utilization
/// telemetry for the frontier sweep.
#[derive(Debug, Clone)]
pub struct SwitchAdmission {
    est: ArrivalEstimator,
    cache: EbCache,
    /// Next superstep at or after which the window rolls (round top only).
    pub(crate) next_roll_at: u64,
    rolls: u64,
    util_sum: f64,
    util_samples: u64,
    overbooked_samples: u64,
}

impl SwitchAdmission {
    /// Fresh admission state per the runtime config.
    pub fn new(cfg: &RuntimeConfig) -> Self {
        Self {
            est: ArrivalEstimator::new(cfg.granularity),
            cache: EbCache::default(),
            next_roll_at: cfg.measurement_window_supersteps,
            rolls: 0,
            util_sum: 0.0,
            util_samples: 0,
            overbooked_samples: 0,
        }
    }

    /// The estimator, for observation and inspection.
    pub fn estimator(&self) -> &ArrivalEstimator {
        &self.est
    }

    /// Fold a delivered RM cell into the estimator.
    pub fn observe(&mut self, vci: u32, rate: f64) {
        self.est.observe(vci, rate);
    }

    /// Sample port utilization at a round top (all policies, including
    /// PeakRate — the frontier sweep needs the baseline's utilization).
    pub fn sample(&mut self, sw: &Switch) {
        for idx in 0..sw.num_ports() {
            let port = sw.port(idx).expect("index bounded by num_ports");
            self.util_sum += port.utilization();
            self.util_samples += 1;
            if port.reserved() > port.capacity() + 1e-9 {
                self.overbooked_samples += 1;
            }
        }
    }

    /// Roll the measurement window: compute the capacity the measured mix
    /// needs under `cfg.admission`, move every port's booking ceiling
    /// accordingly, clear the window, and schedule the next roll.
    pub fn roll(&mut self, cfg: &RuntimeConfig, superstep: u64, sw: &mut Switch) {
        // One estimator per switch, so one requirement per roll: the ports
        // differ only in the capacity it is set against.
        let needed = self.needed_capacity(cfg);
        for idx in 0..sw.num_ports() {
            let capacity = sw.port(idx).expect("index bounded by num_ports").capacity();
            sw.set_admit_ceiling(idx, booking_ceiling(capacity, needed));
        }
        self.est.clear_window();
        self.rolls += 1;
        self.next_roll_at = superstep + cfg.measurement_window_supersteps;
    }

    /// The capacity the measured mix needs to meet the policy target, or
    /// `None` when the window holds no evidence (or the policy is static).
    fn needed_capacity(&mut self, cfg: &RuntimeConfig) -> Option<f64> {
        let active = self.est.active_vcs();
        match cfg.admission {
            AdmissionPolicy::PeakRate => None,
            AdmissionPolicy::Memoryless { target } => {
                Memoryless::new(target).needed_capacity(&self.est.weighted_levels(), active)
            }
            AdmissionPolicy::ChernoffEb { epsilon } => {
                let src = self.est.empirical_source()?;
                let qos = QosTarget::new(cfg.buffer, epsilon);
                Some(active as f64 * self.cache.equivalent_bandwidth(&src, qos))
            }
        }
    }

    /// Crash-wipe the measurement state (the EB cache survives — it is a
    /// pure function of the model, not of who measured it).
    pub fn wipe_measurements(&mut self) {
        self.est.wipe();
    }
}

/// The admission slice of a run report: grant/denial accounting split from
/// fault-plane losses, plus estimator and cache telemetry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdmissionReport {
    /// Policy name (`peak-rate`, `memoryless`, `chernoff-eb`).
    pub policy: String,
    /// RM cells admitted by a switch's booking check.
    pub admitted_cells: u64,
    /// RM cells denied by a switch's booking check (admission losses, as
    /// distinct from fault-plane losses below).
    pub denied_cells: u64,
    /// Cells the fault plane destroyed: dropped, corrupted, crash-killed,
    /// or killed on a downed link. Never an admission decision.
    pub fault_lost_cells: u64,
    /// Measurement windows rolled, summed over switches.
    pub rolls: u64,
    /// Delivered cells folded into estimators, summed over switches.
    pub estimator_observations: u64,
    /// Equivalent-bandwidth cache hits, summed over switches.
    pub eb_cache_hits: u64,
    /// Equivalent-bandwidth cache misses, summed over switches.
    pub eb_cache_misses: u64,
    /// Distinct cached models, summed over switches.
    pub eb_cache_entries: u64,
    /// Mean of per-switch mean port utilizations (round-top samples).
    pub mean_port_utilization: f64,
    /// Round-top samples that found a port booked past its capacity —
    /// nonzero only when a policy overbooks.
    pub overbooked_samples: u64,
}

/// Aggregate per-switch admission state into the report slice. Callers
/// pass `per_switch` in ascending switch order so float accumulation is
/// shard-invariant.
pub(crate) fn reduce_admission(
    policy: AdmissionPolicy,
    snap: &CounterSnapshot,
    per_switch: &[SwitchAdmission],
) -> AdmissionReport {
    let mut rolls = 0u64;
    let mut observations = 0u64;
    let mut hits = 0u64;
    let mut misses = 0u64;
    let mut entries = 0u64;
    let mut overbooked = 0u64;
    let mut util_acc = 0.0f64;
    let mut util_cnt = 0u64;
    for sa in per_switch {
        rolls += sa.rolls;
        observations += sa.est.observations();
        let cs = sa.cache.stats();
        hits += cs.hits;
        misses += cs.misses;
        entries += cs.entries;
        overbooked += sa.overbooked_samples;
        if sa.util_samples > 0 {
            util_acc += sa.util_sum / sa.util_samples as f64;
            util_cnt += 1;
        }
    }
    AdmissionReport {
        policy: policy.name().to_string(),
        admitted_cells: snap.admission_grants,
        denied_cells: snap.admission_denials,
        fault_lost_cells: snap.cells_dropped
            + snap.cells_corrupted
            + snap.crash_killed
            + snap.cells_link_killed,
        rolls,
        estimator_observations: observations,
        eb_cache_hits: hits,
        eb_cache_misses: misses,
        eb_cache_entries: entries,
        mean_port_utilization: if util_cnt > 0 {
            util_acc / util_cnt as f64
        } else {
            0.0
        },
        overbooked_samples: overbooked,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn policy_names_and_measurement_flags() {
        assert_eq!(AdmissionPolicy::default(), AdmissionPolicy::PeakRate);
        assert_eq!(AdmissionPolicy::PeakRate.name(), "peak-rate");
        assert!(!AdmissionPolicy::PeakRate.measures());
        let ml = AdmissionPolicy::Memoryless { target: 1e-3 };
        assert_eq!(ml.name(), "memoryless");
        assert!(ml.measures());
        let eb = AdmissionPolicy::ChernoffEb { epsilon: 1e-6 };
        assert_eq!(eb.name(), "chernoff-eb");
        assert!(eb.measures());
    }

    #[test]
    fn estimator_histograms_and_chains_transitions() {
        let mut est = ArrivalEstimator::new(100.0);
        est.observe(1, 100.0);
        est.observe(1, 200.0);
        est.observe(2, 200.0);
        assert_eq!(est.observations(), 3);
        assert_eq!(est.active_vcs(), 2);
        let levels = est.weighted_levels();
        assert_eq!(levels, vec![(100.0, 1.0), (200.0, 2.0)]);
        // Only VC 1 has a prior level, so exactly one transition (1 -> 2).
        let src = est.empirical_source().expect("non-empty window");
        assert_eq!(src.chain().num_states(), 2);
        assert_eq!(src.emissions(), &[100.0, 200.0]);
        assert!((src.chain().prob(0, 1) - 1.0).abs() < 1e-12);
        // State 2 has no observed exits: self-loop.
        assert!((src.chain().prob(1, 1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn window_roll_keeps_last_levels_and_cumulative_count() {
        let mut est = ArrivalEstimator::new(100.0);
        est.observe(7, 300.0);
        est.clear_window();
        assert!(est.empirical_source().is_none());
        assert_eq!(est.observations(), 1);
        assert_eq!(est.active_vcs(), 1);
        // The cross-window transition 3 -> 1 chains through the roll.
        est.observe(7, 100.0);
        let src = est.empirical_source().expect("non-empty window");
        // Level 3 fell outside the new window's histogram, so the dangling
        // transition is dropped and the single state self-loops.
        assert_eq!(src.chain().num_states(), 1);
        assert!((src.chain().prob(0, 0) - 1.0).abs() < 1e-12);
        est.wipe();
        assert_eq!(est.observations(), 0);
        assert_eq!(est.active_vcs(), 0);
    }

    #[test]
    fn cross_window_transition_chains_when_the_prior_level_reoccurs() {
        // The kept-chain case pinning `last_level`'s reason to exist: the
        // VC's first post-roll cell is a transition *from* its last
        // pre-roll level, and when that level re-occurs in the new window
        // it is part of the state space — the chained transition must be
        // counted, not dropped like the dangling case above.
        let mut est = ArrivalEstimator::new(100.0);
        est.observe(7, 300.0); // level 3, pre-roll
        est.clear_window();
        est.observe(7, 100.0); // level 1: cross-window transition 3 -> 1
        est.observe(7, 300.0); // level 3 back in this window's histogram
        let src = est.empirical_source().expect("non-empty window");
        // States, ascending by level: index 0 = level 1, index 1 = level 3.
        assert_eq!(src.chain().num_states(), 2);
        // The 3 -> 1 chain crossed the roll; 1 -> 3 happened within the
        // window. Each row has exactly one observed exit.
        assert!((src.chain().prob(1, 0) - 1.0).abs() < 1e-12);
        assert!((src.chain().prob(0, 1) - 1.0).abs() < 1e-12);
        // A fresh estimator fed the same post-roll stream must fit
        // different dynamics: without the chained 3 -> 1 evidence, level
        // 3 has no observed exits and self-loops instead.
        let mut fresh = ArrivalEstimator::new(100.0);
        fresh.observe(7, 100.0);
        fresh.observe(7, 300.0);
        let unchained = fresh.empirical_source().expect("non-empty window");
        assert_eq!(unchained.chain().num_states(), 2);
        assert!((unchained.chain().prob(1, 1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn booking_ceiling_overbooks_tightens_and_clamps() {
        // No evidence: stay at the legacy ceiling.
        assert_eq!(booking_ceiling(1000.0, None), 1000.0);
        // The mix needs half the capacity: overbook by 2x.
        assert!((booking_ceiling(1000.0, Some(500.0)) - 2000.0).abs() < 1e-9);
        // The mix needs double the capacity: tighten by 2x.
        assert!((booking_ceiling(1000.0, Some(2000.0)) - 500.0).abs() < 1e-9);
        // Degenerate and extreme values clamp.
        assert_eq!(booking_ceiling(1000.0, Some(0.0)), 4000.0);
        assert_eq!(booking_ceiling(1000.0, Some(f64::NAN)), 4000.0);
        assert_eq!(booking_ceiling(1000.0, Some(1.0)), 4000.0);
        assert_eq!(booking_ceiling(1000.0, Some(1e12)), 250.0);
    }

    #[test]
    fn roll_moves_ceilings_and_schedules_next() {
        let mut cfg = RuntimeConfig::balanced(1, 16);
        cfg.admission = AdmissionPolicy::Memoryless { target: 1e-3 };
        cfg.measurement_window_supersteps = 64;
        let mut sw = Switch::new(&[1_000_000.0]);
        let mut sa = SwitchAdmission::new(&cfg);
        assert_eq!(sa.next_roll_at, 64);
        // A constant low-rate mix: the ceiling should overbook.
        for vci in 0..4 {
            sa.observe(vci, 50_000.0);
            sa.observe(vci, 50_000.0);
        }
        sa.roll(&cfg, 64, &mut sw);
        assert_eq!(sa.rolls, 1);
        assert_eq!(sa.next_roll_at, 128);
        let ceiling = sw.port(0).expect("one port").admit_ceiling();
        assert!(ceiling > 1_000_000.0, "expected overbooking, got {ceiling}");
        // Rolling an empty window falls back to the capacity.
        sa.wipe_measurements();
        sa.roll(&cfg, 128, &mut sw);
        let reset = sw.port(0).expect("one port").admit_ceiling();
        assert_eq!(reset, 1_000_000.0);
    }

    #[test]
    fn chernoff_eb_roll_uses_and_fills_the_cache() {
        let mut cfg = RuntimeConfig::balanced(1, 16);
        cfg.admission = AdmissionPolicy::ChernoffEb { epsilon: 1e-6 };
        cfg.measurement_window_supersteps = 64;
        let mut sw = Switch::new(&[1_000_000.0]);
        let mut sa = SwitchAdmission::new(&cfg);
        // First window: each VC cycles 100k -> 200k -> 100k, one 2->4 and
        // one 4->2 transition per VC.
        for vci in 0..4 {
            sa.observe(vci, 100_000.0);
            sa.observe(vci, 200_000.0);
            sa.observe(vci, 100_000.0);
        }
        sa.roll(&cfg, 64, &mut sw);
        let s1 = sa.cache.stats();
        assert_eq!((s1.hits, s1.misses, s1.entries), (0, 1, 1));
        // Next window continues the cycle. The per-VC last level (100k)
        // survives the roll, so 200k -> 100k again yields exactly one
        // 2->4 and one 4->2 transition per VC — the same empirical model,
        // so the cache hits.
        for vci in 0..4 {
            sa.observe(vci, 200_000.0);
            sa.observe(vci, 100_000.0);
        }
        sa.roll(&cfg, 128, &mut sw);
        let s2 = sa.cache.stats();
        assert_eq!((s2.hits, s2.misses, s2.entries), (1, 1, 1));
    }

    #[test]
    fn roll_fits_the_window_once_for_all_ports() {
        let mut cfg = RuntimeConfig::balanced(1, 16);
        cfg.admission = AdmissionPolicy::ChernoffEb { epsilon: 1e-6 };
        let capacities = [1_000_000.0, 2_500_000.0, 400_000.0];
        let mut sw = Switch::new(&capacities);
        let mut sa = SwitchAdmission::new(&cfg);
        for vci in 0..4 {
            sa.observe(vci, 100_000.0);
            sa.observe(vci, 200_000.0);
            sa.observe(vci, 100_000.0);
        }
        // The per-port computation, from the same window.
        let src = sa.estimator().empirical_source().expect("non-empty window");
        let qos = QosTarget::new(cfg.buffer, 1e-6);
        let needed = sa.estimator().active_vcs() as f64 * rcbr_ldt::equivalent_bandwidth(&src, qos);
        sa.roll(&cfg, 64, &mut sw);
        // One model fit and one cache lookup, whatever the port count.
        let stats = sa.cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (0, 1, 1));
        for (idx, &capacity) in capacities.iter().enumerate() {
            let got = sw.port(idx).expect("three ports").admit_ceiling();
            let want = booking_ceiling(capacity, Some(needed));
            assert_eq!(got.to_bits(), want.to_bits(), "port {idx}");
        }
    }

    proptest! {
        /// The estimator is a pure function of the delivered-cell
        /// sequence: replaying the same sequence into a fresh estimator
        /// reproduces the state exactly, and interleaving observations of
        /// *distinct* switches' streams never cross-contaminates. This is
        /// the property the engine leans on for shard invariance — each
        /// switch sees its own stream in a deterministic order, regardless
        /// of which shard hosts it.
        #[test]
        fn estimator_is_a_pure_function_of_the_stream(
            stream in proptest::collection::vec(
                (0u32..8, 0u32..12), 1..200),
            rolls in proptest::collection::vec(0usize..200, 0..4),
        ) {
            let gran = 50_000.0;
            let mut a = ArrivalEstimator::new(gran);
            let mut b = ArrivalEstimator::new(gran);
            for (i, &(vci, lvl)) in stream.iter().enumerate() {
                let rate = lvl as f64 * gran;
                a.observe(vci, rate);
                if rolls.contains(&i) {
                    a.clear_window();
                }
            }
            for (i, &(vci, lvl)) in stream.iter().enumerate() {
                let rate = lvl as f64 * gran;
                b.observe(vci, rate);
                if rolls.contains(&i) {
                    b.clear_window();
                }
            }
            prop_assert_eq!(&a, &b);
            // And the derived model is equal too (bitwise on emissions and
            // transition rows).
            match (a.empirical_source(), b.empirical_source()) {
                (None, None) => {}
                (Some(x), Some(y)) => {
                    prop_assert_eq!(x.emissions(), y.emissions());
                    prop_assert_eq!(x.chain().num_states(), y.chain().num_states());
                    for i in 0..x.chain().num_states() {
                        for j in 0..x.chain().num_states() {
                            prop_assert_eq!(
                                x.chain().prob(i, j).to_bits(),
                                y.chain().prob(i, j).to_bits()
                            );
                        }
                    }
                }
                _ => prop_assert!(false, "sources disagree on emptiness"),
            }
        }

        /// The empirical chain is always a valid stochastic matrix, no
        /// matter how adversarial the observation stream.
        #[test]
        fn empirical_chain_rows_are_stochastic(
            stream in proptest::collection::vec(
                (0u32..6, 0u32..10), 1..120),
        ) {
            let mut est = ArrivalEstimator::new(10_000.0);
            for &(vci, lvl) in &stream {
                est.observe(vci, lvl as f64 * 10_000.0);
            }
            // `MarkovChain::new` asserts row-stochasticity internally, so
            // constructing the source at all is the property.
            let src = est.empirical_source().expect("non-empty stream");
            prop_assert!(src.mean_rate() <= src.peak_rate() + 1e-9);
        }
    }
}
