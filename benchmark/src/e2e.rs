//! The end-to-end pass: one discarded warm-up, set-up reps, a fixed number
//! of timed reps of the identical config, then the verify pass. Nothing is
//! traced here.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use rcbr_runtime::{run, run_sequential, RunReport, RuntimeConfig};
use rcbr_schedule::trellis::reference;
use rcbr_schedule::{OfflineOptimizer, RateGrid, Schedule, TrellisConfig, TrellisStats};
use rcbr_sim::SimRng;
use rcbr_traffic::{FrameTrace, SyntheticMpegSource};
use serde::{Serialize, Value};

use crate::measure::{peak_rss_mib, stat, timed, Timed};
use crate::metrics::Better;
use crate::report::{comparable_report, fingerprint, PassResult};
use crate::workloads::{TrellisInstance, Workload, TRELLIS_CORPUS_SEED};

/// Set-up is measured this many times up front and once more before every
/// timed rep; `setup_s` is the median. Spread over the whole pass, the
/// sample outlasts the neighbour's bursts that five set-ups back to back
/// (0.6 s in all) sit inside: two suites on one seed then read 0.12 and
/// 0.16 s.
const SETUP_REPS: usize = 2;
/// One set-up sample lasts at least this long: a shorter set-up
/// (`offline_trellis`: under a millisecond) is repeated within the sample,
/// which is then the mean. Two suites on one seed read 0.8 and 1.0 ms from
/// single set-ups.
const SETUP_SAMPLE_S: f64 = 0.02;
/// Input sizes are chosen for timed reps of about this long (`workloads.rs`).
const NOMINAL_REP_S: f64 = 1.6;
const MIN_REPS: usize = 3;
/// The verify pass runs the workload at this fraction of its size.
const VERIFY_DIVISOR: u64 = 4;
/// A simulated loss of exactly 0 is reported as this, because the
/// driver's contract divides by a metric's median.
const LOSS_FLOOR: f64 = 1e-12;

pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub quick: bool,
}

impl Opts {
    /// Timed reps in a pass: as many nominal reps as fill `--seconds` (5 at
    /// the benchmark's 8 s). Fixed by the arguments, never by how fast the
    /// reps ran, so that two commits are measured the same way.
    pub fn reps(&self) -> usize {
        ((self.seconds / NOMINAL_REP_S).round() as usize).max(MIN_REPS)
    }
}

/// Run `f`, turning a panic into an error message.
pub fn guarded<T>(what: &str, f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|p| {
        let msg = p
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "panic".to_string());
        format!("{what} panicked: {msg}")
    })
}

/// The invariants every run must keep. Modelled denials and exhaustions
/// are outcomes, not failures.
pub fn check_invariants(report: &RunReport) -> Result<(), String> {
    let c = &report.counters;
    if report.audit.final_drift != 0 {
        return Err(format!("final_drift {} != 0", report.audit.final_drift));
    }
    if c.completed != c.accepted + c.exhausted {
        return Err(format!(
            "completed {} != accepted {} + exhausted {}",
            c.completed, c.accepted, c.exhausted
        ));
    }
    Ok(())
}

/// Jobs that met a switch, over all shards.
pub fn cell_hops(report: &RunReport) -> u64 {
    report.shards.iter().map(|s| s.processed).sum()
}

/// Traffic slots the sources stepped in a run of `rounds` rounds.
pub fn slots_stepped(cfg: &RuntimeConfig, rounds: u64) -> u64 {
    (0..rounds)
        .map(|r| cfg.slots_in_round(r) as u64)
        .sum::<u64>()
        * cfg.num_vcs as u64
}

fn collect_uints(prefix: &str, v: &Value, out: &mut BTreeMap<String, u64>) {
    if let Value::Object(entries) = v {
        for (k, val) in entries {
            if let Value::UInt(n) = val {
                out.insert(format!("{prefix}{k}"), *n);
            }
        }
    }
}

/// The exact counts of a run, flattened.
pub fn counts_of(report: &RunReport) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    collect_uints("", &report.counters.to_json_value(), &mut out);
    collect_uints("audit.", &report.audit.to_json_value(), &mut out);
    collect_uints("admission.", &report.admission.to_json_value(), &mut out);
    for (k, n) in [
        ("rounds", report.rounds),
        ("supersteps", report.supersteps),
        ("degraded_vcs", report.degraded_vcs),
        ("unsettled_vcs", report.unsettled_vcs),
        ("brownout_vcs", report.brownout_vcs),
        ("cell_hops", cell_hops(report)),
    ] {
        out.insert(k.to_string(), n);
    }
    out
}

/// `cfg` with `max_rounds = 1`: per-VC trace generation, switch set-up,
/// thread spawn and the end-of-run audit, with next to no signaling.
pub fn setup_config(cfg: &RuntimeConfig) -> RuntimeConfig {
    let mut c = cfg.clone();
    c.max_rounds = 1;
    c
}

/// `cfg` at the verify pass's size.
pub fn verify_config(cfg: &RuntimeConfig) -> RuntimeConfig {
    let mut c = cfg.clone();
    c.target_requests = (cfg.target_requests / VERIFY_DIVISOR).max(1);
    c
}

/// What one timed rep got done.
struct RepWork {
    requests: f64,
    frames: f64,
}

/// The timed part of the protocol, the same for every workload:
/// `SETUP_REPS` set-ups, then a set-up and a timed rep in turn,
/// `opts.reps()` times. `rep` is timed; `check` is not, and says what the
/// rep got done. Records `setup_s`, the three timing metrics and the peak
/// RSS; returns the reps completed.
fn timed_reps<T>(
    opts: &Opts,
    res: &mut PassResult,
    mut set_up: impl FnMut(),
    mut rep: impl FnMut() -> Result<T, String>,
    mut check: impl FnMut(&mut PassResult, T) -> RepWork,
) -> usize {
    // The first set-up is the warm-up, and sizes the samples.
    let batch = (SETUP_SAMPLE_S / timed(&mut set_up).wall_s)
        .ceil()
        .clamp(1.0, 64.0) as usize;
    let mut sample = || timed(|| (0..batch).for_each(|_| set_up())).wall_s / batch as f64;
    let mut setups: Vec<f64> = (0..SETUP_REPS).map(|_| sample()).collect();
    let mut rps = Vec::new();
    let mut fps = Vec::new();
    let mut cpu_ns = Vec::new();
    for _ in 0..opts.reps() {
        setups.push(sample());
        res.attempted += 1;
        let Timed { out, wall_s, cpu_s } = timed(&mut rep);
        let work = match out {
            Ok(o) => check(res, o),
            Err(e) => {
                res.fail(e);
                break;
            }
        };
        res.rep_wall_s.push(wall_s);
        rps.push(work.requests / wall_s);
        fps.push(work.frames / wall_s);
        cpu_ns.push(cpu_s.map(|s| s * 1e9 / work.requests));
    }
    res.put_median("setup_s", stat(&setups));
    match peak_rss_mib() {
        Some(mib) => res.put("peak_rss_mb", mib),
        None => res.put_missing("peak_rss_mb", "/proc/self/status unreadable: no VmHWM"),
    }
    if rps.is_empty() {
        return 0;
    }
    res.put_best("requests_per_s", Better::Higher, stat(&rps));
    res.put_best("frames_per_s", Better::Higher, stat(&fps));
    match cpu_ns.iter().copied().collect::<Option<Vec<f64>>>() {
        Some(ns) => res.put_best("cpu_ns_per_request", Better::Lower, stat(&ns)),
        None => res.put_missing(
            "cpu_ns_per_request",
            "/proc/self/stat unreadable: no CPU time",
        ),
    }
    rps.len()
}

pub fn end_to_end(name: &str, workload: &Workload, opts: &Opts) -> PassResult {
    let mut res = PassResult::new(name, workload, opts, false);
    match workload {
        Workload::Runtime(cfg) => runtime(cfg, opts, &mut res),
        Workload::Trellis(inst) => trellis(inst, opts, &mut res),
    }
    res
}

fn runtime(cfg: &RuntimeConfig, opts: &Opts, res: &mut PassResult) {
    res.inputs_fingerprint = fingerprint(&serde_json::to_string(cfg).expect("a config serializes"));

    // Warm-up: discarded, but it fixes the fingerprint the reps must share.
    let warm = match guarded("warm-up run", || run(cfg)) {
        Ok(r) => r,
        Err(e) => {
            res.attempted += 1;
            res.fail(e);
            return;
        }
    };
    let expect = fingerprint(&comparable_report(&warm));
    res.outputs_fingerprint = expect.clone();
    res.counts = counts_of(&warm);

    let setup_cfg = setup_config(cfg);
    let reps = timed_reps(
        opts,
        res,
        || {
            run(&setup_cfg);
        },
        || guarded("timed run", || run(cfg)),
        |res, report| {
            if let Err(e) = check_invariants(&report) {
                res.fail(format!("timed run: {e}"));
            }
            let got = fingerprint(&comparable_report(&report));
            if got != expect {
                res.fail(format!("timed run fingerprint {got} != warm-up {expect}"));
            }
            RepWork {
                requests: report.counters.completed.max(1) as f64,
                frames: slots_stepped(cfg, report.rounds) as f64,
            }
        },
    );

    // Verify pass: the sharded engine at 1 and 2 shards and the sequential
    // replay must agree exactly on a quarter-size run.
    let quarter = verify_config(cfg);
    let mut prints = Vec::new();
    for (what, shards) in [("run@1", Some(1)), ("sequential", None), ("run@2", Some(2))] {
        res.attempted += 1;
        let mut c = quarter.clone();
        let outcome = guarded(what, || match shards {
            Some(s) => {
                c.num_shards = s;
                run(&c)
            }
            None => run_sequential(&c),
        });
        match outcome {
            Ok(r) => {
                if let Err(e) = check_invariants(&r) {
                    res.fail(format!("verify {what}: {e}"));
                }
                prints.push(fingerprint(&comparable_report(&r)));
            }
            Err(e) => res.fail(e),
        }
    }
    if let [one, replay, two] = &prints[..] {
        if replay != one {
            res.fail(format!(
                "verify: sequential {replay} disagrees with run@1 {one}"
            ));
        }
        res.counts
            .insert("verify.shards_identical".to_string(), (two == one) as u64);
        if two != one {
            // Under a non-transparent fault plane 2 shards can part from 1
            // by a rollback on some seeds (README, Findings): a defect of
            // the program this benchmark may not fix, so it is recorded
            // for `agree`, not counted against the 1-shard run measured.
            let what = format!("verify: run@2 {two} disagrees with run@1 {one}");
            if cfg.fault.is_transparent() {
                res.fail(what);
            } else {
                res.note(&format!("{what} (known finding, not a failed operation)"));
            }
        }
    }

    if reps == 0 {
        return;
    }
    let c = &warm.counters;
    res.put("grant_share", c.accepted as f64 / c.injected.max(1) as f64);
    res.put("source_loss_mean", warm.mean_source_loss.max(LOSS_FLOOR));
}

/// The movie `offline_trellis` optimises: the corpus movie, started at the
/// frame the seed picks.
pub fn trellis_trace(inst: &TrellisInstance) -> FrameTrace {
    let mut rng = SimRng::from_seed(TRELLIS_CORPUS_SEED);
    let movie = SyntheticMpegSource::star_wars_like().generate(inst.frames, &mut rng);
    movie.shifted(inst.rotation())
}

pub struct TrellisRun {
    pub schedule: Schedule,
    pub cost: f64,
    pub stats: TrellisStats,
}

impl TrellisRun {
    /// Hash of everything the optimiser returned.
    pub fn fingerprint(&self) -> String {
        let output = Value::Array(vec![
            Value::UInt(self.cost.to_bits()),
            self.schedule.to_json_value(),
            self.stats.to_json_value(),
        ]);
        fingerprint(&serde_json::to_string(&output).expect("a value always serializes"))
    }
}

pub fn optimize(opt: &OfflineOptimizer, trace: &FrameTrace) -> Result<TrellisRun, String> {
    guarded("optimize", || opt.optimize_with_stats(trace))?
        .map(|(schedule, cost, stats)| TrellisRun {
            schedule,
            cost,
            stats,
        })
        .map_err(|e| format!("optimize: {e}"))
}

/// The kernel must reproduce `trellis::reference` bit for bit on a small
/// M = 10 instance cut from the same movie.
pub fn trellis_reference_check(trace: &FrameTrace, buffer: f64, quick: bool) -> Result<(), String> {
    let frames = if quick { 400 } else { 2000 }.min(trace.len());
    let small = trace.window(0, frames);
    let cfg = TrellisConfig::new(
        RateGrid::uniform(48_000.0, 2_400_000.0, 10),
        rcbr_schedule::CostModel::from_ratio(1e6),
        buffer,
    )
    .with_drain_at_end()
    .with_q_resolution(buffer / 1000.0);
    let kernel = optimize(&OfflineOptimizer::new(cfg.clone()), &small)?;
    let (ref_schedule, ref_cost) =
        guarded("reference", || reference::optimize_with_cost(&cfg, &small))?
            .map_err(|e| format!("reference: {e}"))?;
    if kernel.cost.to_bits() != ref_cost.to_bits() {
        return Err(format!(
            "kernel cost {} != reference cost {}",
            kernel.cost, ref_cost
        ));
    }
    if kernel.schedule != ref_schedule {
        return Err("kernel schedule != reference schedule".to_string());
    }
    Ok(())
}

fn trellis(inst: &TrellisInstance, opts: &Opts, res: &mut PassResult) {
    res.inputs_fingerprint = fingerprint(&format!(
        "{} {} {}",
        inst.frames,
        inst.seed,
        serde_json::to_string(&inst.config).expect("a config serializes")
    ));

    let trace = trellis_trace(inst);
    let opt = OfflineOptimizer::new(inst.config.clone());

    let warm = match optimize(&opt, &trace) {
        Ok(r) => r,
        Err(e) => {
            res.attempted += 1;
            res.fail(e);
            return;
        }
    };
    res.outputs_fingerprint = warm.fingerprint();
    collect_uints("trellis.", &warm.stats.to_json_value(), &mut res.counts);
    res.counts
        .insert("trellis.cost_bits".to_string(), warm.cost.to_bits());
    res.counts.insert(
        "trellis.renegotiations".to_string(),
        warm.schedule.num_renegotiations() as u64,
    );
    res.counts
        .insert("trellis.rotation".to_string(), inst.rotation() as u64);

    let mut feasible = 0u64;
    let mut loss = 0.0f64;
    let reps = timed_reps(
        opts,
        res,
        // Set-up: trace generation plus optimiser construction.
        || {
            std::hint::black_box((
                trellis_trace(inst),
                OfflineOptimizer::new(inst.config.clone()),
            ));
        },
        || optimize(&opt, &trace),
        |res, rep| {
            if rep.cost.to_bits() != warm.cost.to_bits() || rep.stats != warm.stats {
                res.fail(format!(
                    "timed optimize: cost {} / counters differ from the warm-up's {}",
                    rep.cost, warm.cost
                ));
            }
            let replay = rep.schedule.replay(&trace, inst.config.buffer);
            if replay.loss_fraction == 0.0 {
                feasible += 1;
            } else {
                res.fail(format!(
                    "timed optimize: schedule loses {} of the bits on replay",
                    replay.loss_fraction
                ));
            }
            loss = loss.max(replay.loss_fraction);
            // One request to the offline path is one schedule computed; it
            // is granted when the schedule replays without loss.
            RepWork {
                requests: 1.0,
                frames: inst.frames as f64,
            }
        },
    );

    res.attempted += 1;
    if let Err(e) = trellis_reference_check(&trace, inst.config.buffer, opts.quick) {
        res.fail(format!("verify: {e}"));
    }

    if reps == 0 {
        return;
    }
    res.put("grant_share", feasible as f64 / reps as f64);
    res.put("source_loss_mean", loss.max(LOSS_FLOOR));
}
