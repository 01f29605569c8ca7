//! The traced pass: a layer replay measured from outside.
//!
//! The engine is one public call, so a layer is costed by reading the
//! traced run's exact op counts from its `RunReport` and driving the
//! layer's public functions with inputs shaped like the workload's, in
//! batches. Runs and replay passes take turns, so a layer is timed within
//! seconds of the run it is divided by, and both sides of the division are
//! the undisturbed reading: `<layer>` is the lowest pass's median batch
//! cost per op, and `<layer>.share` is that cost times the run's ops, as a
//! share of the best run's thread time (wall time times shards, since the
//! shards work side by side). What the public API cannot reach (the
//! `VcRunner` glue, the per-superstep sort, channel send, barrier wait, the
//! audit barrier) is what remains: `runtime.engine.unattributed_share`.

use std::hint::black_box;
use std::time::Instant;

use rcbr::service::RcbrConnection;
use rcbr_admission::controllers::Memoryless;
use rcbr_ldt::{equivalent_bandwidth, QosTarget};
use rcbr_net::{FaultPlane, OutputPort, Path, RateField, RmCell, ShedKey, SignalingQueue, Switch};
use rcbr_runtime::core::MAX_ROUTE;
use rcbr_runtime::{
    run, run_sequential, AdmissionPolicy, RunReport, RuntimeConfig, SwitchAdmission,
};
use rcbr_schedule::online::{Ar1Config, Ar1Policy};
use rcbr_schedule::{OfflineOptimizer, VcDriver};
use rcbr_sim::SimRng;
use rcbr_traffic::{FrameTrace, SyntheticMpegSource};

use crate::e2e::{
    cell_hops, check_invariants, counts_of, guarded, optimize, setup_config, slots_stepped,
    trellis_reference_check, trellis_trace, verify_config, Opts,
};
use crate::measure::{cpu_seconds, stat, Stat};
use crate::metrics::{per_layer, unit_of, Better, NESTED};
use crate::report::{comparable_report, fingerprint, PassResult};
use crate::spans::{Span, Tracer};
use crate::workloads::{TrellisInstance, Workload};

/// Calls per batch for an op that costs well under a microsecond.
const BATCH: usize = 4096;
/// Dearer ops get batches of about this long instead.
const SLOW_BATCH_NS: f64 = 2e6;
const MIN_BATCHES: usize = 9;
const MAX_BATCHES: usize = 60;
/// Each layer is replayed for about this long in one pass.
const LAYER_BUDGET_S: f64 = 0.04;
/// Runs of the workload in the traced pass, plain and with op counts taken
/// at the boundary in turn. The first doubles as the warm-up: only the
/// best run of either kind is used.
const RUNS: usize = 4;
/// Replay passes over the layers, one after each of the first runs. A
/// neighbour's burst outlasts one 40 ms replay and would otherwise pass
/// for the layer's cost, so the lowest pass is kept.
const LAYER_PASSES: usize = 3;
/// The admission layers cost tens of milliseconds a call and are replayed
/// in this many of the passes.
const ROLL_PASSES: usize = 2;
/// Ports whose measured chain the admission rolls are costed on when the
/// workload's policy never rolls. A workload that does roll is costed on
/// every port (up to `MAX_SAMPLED_PORTS`): one roll's cost swings tenfold
/// with the chain it is handed.
const SAMPLED_PORTS: usize = 3;
const MAX_SAMPLED_PORTS: usize = 32;

struct Replay<'a> {
    tr: &'a mut Tracer,
    root: u64,
    res: &'a mut PassResult,
    /// Which pass over the layers this is; span names carry it.
    pass: usize,
}

impl Replay<'_> {
    /// Time `op` in batches under `layer.<name>[pass.batch]` spans and
    /// record the batch costs per op, in the metric's unit.
    fn bench(&mut self, name: &str, mut op: impl FnMut(usize)) {
        // Size the batch from a few calls, which also warm the op up.
        let t0 = Instant::now();
        for i in 0..8 {
            op(i);
        }
        let probe_ns = t0.elapsed().as_nanos() as f64 / 8.0;
        let batch = if probe_ns < 500.0 {
            BATCH
        } else {
            ((SLOW_BATCH_NS / probe_ns) as usize).clamp(1, BATCH)
        };
        let mut per_op = Vec::new();
        let mut i = 8;
        let started = Instant::now();
        while per_op.len() < MIN_BATCHES
            || (started.elapsed().as_secs_f64() < LAYER_BUDGET_S && per_op.len() < MAX_BATCHES)
        {
            let id = self.tr.begin(
                &format!("layer.{name}[{}.{}]", self.pass, per_op.len()),
                Some(self.root),
            );
            for _ in 0..batch {
                op(i);
                i += 1;
            }
            let ns = self.tr.end(id);
            self.tr.count(id, "ops", batch as u64);
            per_op.push(ns as f64 / batch as f64 / scale_of(unit_of(name)));
        }
        let sample = stat(&per_op);
        self.res.put_lowest(name, sample.median, sample);
    }

    /// Like `bench` for an op that needs untimed preparation: every one of
    /// `states` is handed to `op` once, under a span of its own.
    fn bench_prepared<S>(&mut self, name: &str, states: Vec<S>, mut op: impl FnMut(S)) {
        let mut per_op = Vec::new();
        for s in states {
            let id = self.tr.begin(
                &format!("layer.{name}[{}.{}]", self.pass, per_op.len()),
                Some(self.root),
            );
            op(s);
            let ns = self.tr.end(id);
            self.tr.count(id, "ops", 1);
            per_op.push(ns as f64 / scale_of(unit_of(name)));
        }
        if per_op.is_empty() {
            return;
        }
        // The states differ in cost (one port's chain from another's), so a
        // pass is summed up by its mean, and the passes by the lowest mean.
        let mean = per_op.iter().sum::<f64>() / per_op.len() as f64;
        self.res.put_lowest(name, mean, stat(&per_op));
    }
}

/// Record `<name>.share`: the layer's cost times the run's `ops`, over the
/// run's thread time.
fn put_share(res: &mut PassResult, name: &str, ops: f64, thread_ns: f64) -> f64 {
    let cost_ns = res.value(name).unwrap_or(0.0) * scale_of(unit_of(name));
    let share = cost_ns * ops / thread_ns;
    res.put(&format!("{name}.share"), share);
    share
}

fn scale_of(unit: &str) -> f64 {
    match unit {
        "ns" => 1.0,
        "us" => 1e3,
        "ms" => 1e6,
        "s" => 1e9,
        other => panic!("{other} is not a time unit"),
    }
}

/// The VCIs whose default path crosses switch `h`, ascending.
fn vcis_at(cfg: &RuntimeConfig, h: usize) -> Vec<u32> {
    (0..cfg.num_vcs as u32)
        .filter(|&v| cfg.path_of(v).contains(&h))
        .collect()
}

/// A switch holding `vcis` at the initial rate, as the engine sets it up.
fn switch_with(cfg: &RuntimeConfig, vcis: &[u32], capacity: f64) -> Switch {
    let mut sw = Switch::new(&[capacity]);
    for &v in vcis {
        let ok = sw.setup(v, 0, cfg.initial_rate).expect("fresh VCI");
        assert!(ok, "initial admission must fit");
    }
    sw
}

/// A VC's source exactly as `VcRunner::new` builds it.
fn vc_trace(cfg: &RuntimeConfig, vci: u32) -> FrameTrace {
    let mut rng = SimRng::from_seed(cfg.seed).substream(vci as u64 + 1);
    SyntheticMpegSource::star_wars_like().generate(cfg.trace_frames, &mut rng)
}

fn vc_driver(cfg: &RuntimeConfig, vci: u32) -> VcDriver<Ar1Policy> {
    let trace = vc_trace(cfg, vci);
    let tau = trace.frame_interval();
    let policy = Ar1Policy::new(Ar1Config::fig2(cfg.granularity, cfg.initial_rate, tau), tau);
    VcDriver::new(trace, policy, cfg.buffer)
}

/// What the estimator at switch `h` hears in `rounds` rounds when every
/// request is granted: `(vci, granted rate)` in emission order. As in the
/// engine, a request emitted in one round is answered at the top of the
/// next, and a source with a request in flight emits no other.
fn observations_at(cfg: &RuntimeConfig, h: usize, rounds: usize) -> Vec<(u32, f64)> {
    let mut drivers: Vec<(u32, VcDriver<Ar1Policy>)> = vcis_at(cfg, h)
        .into_iter()
        .map(|v| (v, vc_driver(cfg, v)))
        .collect();
    let mut seen = Vec::new();
    for _ in 0..rounds {
        for (vci, d) in &mut drivers {
            if d.has_pending() {
                d.on_grant();
            }
            for _ in 0..cfg.slots_per_round {
                if let Some(rate) = d.step() {
                    seen.push((*vci, rate));
                }
            }
        }
    }
    seen
}

fn fed_admission(cfg: &RuntimeConfig, seen: &[(u32, f64)]) -> SwitchAdmission {
    let mut sa = SwitchAdmission::new(cfg);
    for &(vci, rate) in seen {
        sa.observe(vci, rate);
    }
    sa
}

pub fn traced(name: &str, workload: &Workload, opts: &Opts) -> (PassResult, Vec<Span>) {
    let mut res = PassResult::new(name, workload, opts, true);
    let mut tr = Tracer::new(format!("{name}-seed{}", opts.seed));
    let root = tr.begin(&format!("workload.{name}"), None);
    match workload {
        Workload::Runtime(cfg) => runtime(cfg, &mut tr, root, &mut res),
        Workload::Trellis(inst) => trellis(inst, opts, &mut tr, root, &mut res),
    }
    tr.end(root);
    // The contract wants every per-layer metric from every workload: a
    // layer this workload's path never enters reports 0.
    for (metric, ..) in per_layer() {
        if !res.metrics.contains_key(&metric) {
            res.put(&metric, 0.0);
        }
    }
    (res, tr.finish())
}

/// `RUNS` runs of one workload, plain and with op counts taken at the
/// boundary in turn, with `between` (a replay pass) after each of the first
/// `LAYER_PASSES`. Records the tracing overhead and the runs' spread;
/// returns the last run's output, the runs' wall seconds and the last
/// run's CPU seconds.
fn run_series<T>(
    tr: &mut Tracer,
    root: u64,
    res: &mut PassResult,
    mut call: impl FnMut() -> Result<T, String>,
    counts: impl Fn(&T) -> std::collections::BTreeMap<String, u64>,
    mut between: impl FnMut(&mut Replay, &T),
) -> Option<(T, Stat, Option<f64>)> {
    let mut walls = Vec::new();
    let mut last = None;
    let mut cpu = None;
    for i in 0..RUNS {
        res.attempted += 1;
        let counted = i % 2 == 1;
        let cpu0 = cpu_seconds();
        let id = tr.begin(&format!("run[{i}]"), Some(root));
        let out = call();
        if let (true, Ok(o)) = (counted, &out) {
            for (k, v) in counts(o) {
                tr.count(id, &k, v);
            }
        }
        let ns = tr.end(id);
        cpu = cpu0.zip(cpu_seconds()).map(|(a, b)| b - a);
        let o = match out {
            Ok(o) => o,
            Err(e) => {
                res.fail(e);
                return None;
            }
        };
        walls.push(ns as f64 / 1e9);
        if i < LAYER_PASSES {
            let mut rp = Replay {
                tr: &mut *tr,
                root,
                res: &mut *res,
                pass: i,
            };
            between(&mut rp, &o);
        }
        last = Some(o);
    }
    let best = |counted: bool| {
        let kind = walls.iter().skip(counted as usize).step_by(2);
        kind.copied().fold(f64::INFINITY, f64::min)
    };
    res.put(
        "trace_overhead_pct",
        100.0 * (best(true) - best(false)) / best(false),
    );
    let s = stat(&walls);
    res.put(
        "runtime.engine.rep_spread_pct",
        100.0 * (s.max - s.min) / s.median,
    );
    res.rep_wall_s = walls;
    last.map(|o| (o, s, cpu))
}

fn runtime(cfg: &RuntimeConfig, tr: &mut Tracer, root: u64, res: &mut PassResult) {
    res.inputs_fingerprint = fingerprint(&serde_json::to_string(cfg).expect("a config serializes"));
    let setup_cfg = setup_config(cfg);
    tr.span("setup", Some(root), || run(&setup_cfg));

    let mut prints = Vec::new();
    let series = run_series(
        tr,
        root,
        res,
        || {
            let r = guarded("run", || run(cfg))?;
            check_invariants(&r)?;
            prints.push(fingerprint(&comparable_report(&r)));
            Ok(r)
        },
        counts_of,
        |rp, report| replay_pass(cfg, report, rp),
    );
    let Some((report, walls, cpu_s)) = series else {
        return;
    };
    if prints.iter().any(|p| *p != prints[0]) {
        res.fail(format!("runs of one config disagree: {prints:?}"));
    }
    res.outputs_fingerprint = prints[0].clone();
    res.counts = counts_of(&report);

    // Verify: the sequential replay must agree with the engine on a
    // quarter-size run. It also prices the second protocol implementation.
    let quarter = verify_config(cfg);
    let vid = tr.begin("verify", Some(root));
    res.attempted += 2;
    let engine = guarded("verify run", || run(&quarter));
    let t0 = Instant::now();
    let replay = guarded("verify sequential", || run_sequential(&quarter));
    let seq_wall = t0.elapsed().as_secs_f64();
    tr.end(vid);
    match (engine, replay) {
        (Ok(a), Ok(b)) => {
            if comparable_report(&a) != comparable_report(&b) {
                res.fail("verify: run_sequential disagrees with run".to_string());
            }
            res.put(
                "runtime.sequential.requests_per_s",
                b.counters.completed as f64 / seq_wall,
            );
        }
        (a, b) => {
            for e in [a.err(), b.err()].into_iter().flatten() {
                res.fail(e);
            }
        }
    }

    let c = &report.counters;
    let completed = c.completed.max(1) as f64;
    let cell_hops = cell_hops(&report) as f64;
    let wall_ns = walls.min * 1e9;

    // The engine seen from outside: exact counts and whole-run ratios.
    res.put_best("runtime.engine.run_wall_s", Better::Lower, walls);
    res.put(
        "runtime.engine.ns_per_cell_hop",
        wall_ns / cell_hops.max(1.0),
    );
    res.put(
        "runtime.engine.ns_per_superstep",
        wall_ns / report.supersteps.max(1) as f64,
    );
    let slots = slots_stepped(cfg, report.rounds) as f64;
    for (metric, count) in [
        ("runtime.engine.cell_hops_per_request", cell_hops),
        (
            "runtime.engine.supersteps_per_request",
            report.supersteps as f64,
        ),
        ("runtime.engine.slots_per_request", slots),
        ("runtime.engine.retries_per_request", c.retries as f64),
        ("runtime.engine.timeouts_per_request", c.timeouts as f64),
        ("runtime.engine.rollbacks_per_request", c.rollbacks as f64),
        ("runtime.engine.resyncs_per_request", c.resyncs as f64),
    ] {
        res.put(metric, count / completed);
    }
    res.put(
        "runtime.engine.exhausted_share",
        c.exhausted as f64 / completed,
    );
    res.put(
        "runtime.engine.max_batch",
        report.shards.iter().map(|s| s.max_batch).max().unwrap_or(0) as f64,
    );
    if let Some(cpu) = cpu_s {
        res.put(
            "runtime.engine.cpu_over_wall",
            cpu / res.rep_wall_s[RUNS - 1],
        );
    } else {
        res.put_missing(
            "runtime.engine.cpu_over_wall",
            "/proc/self/stat unreadable: no CPU time",
        );
    }
    res.put(
        "net.signaling.shed_ratio",
        c.cells_shed as f64 / cell_hops.max(1.0),
    );
    res.put("runtime.admission.rolls", report.admission.rolls as f64);
    let lookups = report.admission.eb_cache_hits + report.admission.eb_cache_misses;
    res.put(
        "runtime.admission.eb_cache_hit_ratio",
        report.admission.eb_cache_hits as f64 / lookups.max(1) as f64,
    );
    for (metric, count) in [
        ("ops.cell_hops", cell_hops),
        (
            "ops.booking_checks",
            (c.admission_grants + c.admission_denials) as f64,
        ),
        ("ops.slots_stepped", slots),
        ("ops.rollback_hops", c.rolled_back_hops as f64),
        ("ops.cells_shed", c.cells_shed as f64),
        (
            "ops.lease_sweeps",
            if cfg.lease_supersteps > 0 {
                (report.rounds * cfg.num_switches as u64) as f64
            } else {
                0.0
            },
        ),
        ("ops.completed", completed),
    ] {
        res.put(metric, count);
    }

    // A 2-shard workload is rerun at 1 shard to price the hand-off.
    if cfg.num_shards == 2 {
        let mut one = cfg.clone();
        one.num_shards = 1;
        res.attempted += 1;
        let (out, ns) = tr.span("run@1shard", Some(root), || {
            guarded("run@1shard", || run(&one))
        });
        match out {
            Ok(r) => {
                // Gated only where the repository's evidence says shard
                // identity holds (README, Findings).
                if cfg.fault.is_transparent() && comparable_report(&r) != comparable_report(&report)
                {
                    res.fail("1 shard disagrees with 2 shards".to_string());
                }
                res.put("runtime.engine.shard2_speedup", ns as f64 / wall_ns);
            }
            Err(e) => res.fail(e),
        }
    }

    shares(cfg, &report, wall_ns * cfg.num_shards as f64, res);
}

/// The budget `net.signaling.admit_shed_ns` is replayed at: the workload's,
/// or 4 if it has none.
fn shed_budget(cfg: &RuntimeConfig) -> u64 {
    match cfg.signaling_budget_per_round {
        0 => 4,
        budget => budget,
    }
}

/// One replay pass: drive each layer's public functions with inputs shaped
/// like `cfg`'s and like the op counts of `report`, a run of it.
fn replay_pass(cfg: &RuntimeConfig, report: &RunReport, rp: &mut Replay) {
    let cell_hops = cell_hops(report) as f64;
    let g = cfg.granularity;
    let h = cfg.hops_per_vc.min(cfg.num_switches - 1);
    let vcis = vcis_at(cfg, h);
    let n = vcis.len();
    let pick = |i: usize| vcis[i % n];
    // +g on one sweep over the port's VCs, -g on the next: state stays put.
    let swing = |i: usize| if (i / n).is_multiple_of(2) { g } else { -g };
    let two_rates = |i: usize| cfg.initial_rate + if (i / n).is_multiple_of(2) { g } else { 0.0 };

    let supersteps = report.supersteps.max(1) as f64;
    let switch_steps = supersteps * cfg.num_switches as f64;
    let budget = shed_budget(cfg);
    // --- rcbr-net -----------------------------------------------------
    let cells: Vec<RmCell> = (0..BATCH)
        .map(|i| {
            if cfg.resync_interval > 0 && (i as u64).is_multiple_of(cfg.resync_interval) {
                RmCell::resync(pick(i), two_rates(i))
            } else {
                RmCell::delta(pick(i), swing(i))
            }
        })
        .collect();
    rp.bench("net.rm.encode_ns", |i| {
        black_box(black_box(&cells[i % BATCH]).encode());
    });
    let wires: Vec<_> = cells.iter().map(|cell| cell.encode()).collect();
    rp.bench("net.rm.decode_ns", |i| {
        black_box(RmCell::decode(black_box(&wires[i % BATCH])));
    });

    let mut port = OutputPort::new(cfg.port_capacity);
    for &v in &vcis {
        assert!(
            port.try_reserve_delta(v, cfg.initial_rate),
            "initial admission must fit"
        );
    }
    rp.bench("net.port.reserve_delta_ns", |i| {
        black_box(port.try_reserve_delta(pick(i), swing(i)));
    });
    rp.bench("net.port.set_absolute_ns", |i| {
        black_box(port.try_set_absolute(pick(i), two_rates(i)));
    });

    let rm = |vci: u32, rate: RateField| RmCell {
        vci,
        rate,
        denied: false,
        pressure: false,
    };
    let mut sw = switch_with(cfg, &vcis, cfg.port_capacity);
    rp.bench("net.switch.process_rm_ns", |i| {
        black_box(
            sw.process_rm(rm(pick(i), RateField::Delta(swing(i))))
                .expect("routed"),
        );
    });
    // A port with no room left: every increase is refused, nothing moves.
    let mut full = switch_with(cfg, &vcis, n as f64 * cfg.initial_rate + 1.0);
    rp.bench("net.switch.process_rm_deny_ns", |i| {
        let cell = full
            .process_rm(rm(pick(i), RateField::Delta(g)))
            .expect("routed");
        debug_assert!(cell.denied);
        black_box(cell);
    });
    rp.bench("net.switch.resync_ns", |i| {
        black_box(
            sw.process_rm(rm(pick(i), RateField::Absolute(two_rates(i))))
                .expect("routed"),
        );
    });
    rp.bench("net.switch.rollback_ns", |i| {
        black_box(sw.try_rollback_delta(pick(i), -swing(i)).expect("routed"));
    });
    rp.bench("net.switch.touch_lease_ns", |i| {
        sw.touch_lease(pick(i), (i / n) as u64);
    });
    // One switch-round of the lease sweep with every lease fresh, the
    // common case: nothing is reclaimed, everything is scanned.
    let lease = if cfg.lease_supersteps > 0 {
        cfg.lease_supersteps
    } else {
        200
    };
    let mut leased = switch_with(cfg, &vcis, cfg.port_capacity);
    for &v in &vcis {
        leased.touch_lease(v, 1);
    }
    rp.bench("net.switch.expire_leases_ns", |_| {
        black_box(leased.expire_leases(2, lease));
    });

    let key = |i: usize| ShedKey {
        class: cfg.class_of(pick(i)),
        seq: i as u64 * cfg.num_vcs as u64 + pick(i) as u64,
        salt: 0,
    };
    let mean_meeting = (cell_hops / switch_steps).ceil().clamp(1.0, 32.0) as usize;
    let small_set: Vec<ShedKey> = (0..mean_meeting).map(key).collect();
    let mut unbounded = SignalingQueue::new(0);
    rp.bench("net.signaling.admit_unbounded_ns", |i| {
        black_box(unbounded.admit_superstep(
            small_set.clone(),
            i as u64,
            cfg.pressure_hold_supersteps,
        ));
    });
    let storm_set: Vec<ShedKey> = (0..32).map(key).collect();
    let mut bounded = SignalingQueue::new(budget);
    rp.bench("net.signaling.admit_shed_ns", |i| {
        black_box(bounded.admit_superstep(
            storm_set.clone(),
            i as u64,
            cfg.pressure_hold_supersteps,
        ));
    });

    let faulty = if cfg.fault.is_transparent() {
        RuntimeConfig::balanced(1, cfg.num_vcs).fault
    } else {
        cfg.fault.clone()
    };
    let plane = FaultPlane::new(faulty);
    rp.bench("net.fault.decide_ns", |i| {
        black_box(plane.decide(i as u64 * 769, i % cfg.hops_per_vc, 0));
    });
    let clear = FaultPlane::transparent();
    rp.bench("net.fault.decide_transparent_ns", |i| {
        black_box(clear.decide(i as u64 * 769, i % cfg.hops_per_vc, 0));
    });

    // Candidate enumeration as the reroute engine asks for it, halfway
    // through the fault schedule so some switches and links are gone.
    let topo = cfg.topology();
    let now = report.supersteps / 2;
    rp.bench("net.topology.alive_routes_us", |i| {
        let path = cfg.path_of((i % cfg.num_vcs) as u32);
        black_box(topo.alive_routes(
            path[0],
            path[path.len() - 1],
            cfg.reroute_k,
            MAX_ROUTE,
            &|s| !plane.switch_killed(s, now),
            &|a, b| !plane.link_down(a, b, now),
        ));
    });

    // --- rcbr-runtime admission, rcbr-ldt, rcbr-admission ---------------
    if rp.pass < ROLL_PASSES {
        replay_admission(cfg, report, &vcis, rp);
    }

    // --- rcbr-schedule, rcbr-traffic, rcbr-core -------------------------
    let mut driver = vc_driver(cfg, pick(0));
    rp.bench("schedule.driver.step_ns", |_| {
        if driver.step().is_some() {
            driver.on_grant();
        }
    });
    let retry = cfg.retry_policy();
    rp.bench("schedule.retry.backoff_ns", |i| {
        black_box(retry.backoff(pick(i), 1 + (i % 3) as u32));
    });
    rp.bench("traffic.mpeg.generate_us_per_vc", |i| {
        black_box(vc_trace(cfg, (i % cfg.num_vcs) as u32));
    });
    let mut hops: Vec<Switch> = (0..cfg.hops_per_vc)
        .map(|_| switch_with(cfg, &vcis[1..], cfg.port_capacity))
        .collect();
    let path = Path::new((0..cfg.hops_per_vc).collect(), cfg.hop_latency);
    let mut conn = RcbrConnection::establish(&mut hops, path, vcis[0], cfg.initial_rate)
        .expect("the connection fits");
    rp.bench("core.service.renegotiate_ns", |i| {
        let rate = cfg.initial_rate + if i % 2 == 0 { g } else { 0.0 };
        black_box(conn.renegotiate(&mut hops, &clear, rate).expect("routed"));
    });
}

/// The admission layers: what one port's estimator hears in one window of
/// `report`, a run of `cfg`, and what a roll over it costs under each policy.
fn replay_admission(cfg: &RuntimeConfig, report: &RunReport, vcis: &[u32], rp: &mut Replay) {
    let rounds_per_window = cfg.measurement_window_supersteps as f64 * report.rounds as f64
        / report.supersteps.max(1) as f64;
    let window_rounds = (rounds_per_window.ceil() as usize).max(1);
    let sampled = if cfg.admission.measures() {
        cfg.num_switches.min(MAX_SAMPLED_PORTS)
    } else {
        SAMPLED_PORTS
    };
    let heard: Vec<Vec<(u32, f64)>> = (0..sampled)
        .map(|k| observations_at(cfg, k * cfg.num_switches / sampled, window_rounds))
        .collect();
    let flat = &heard[0];
    if !flat.is_empty() {
        let mut sa = SwitchAdmission::new(cfg);
        rp.bench("runtime.admission.observe_ns", |i| {
            let (vci, rate) = flat[i % flat.len()];
            sa.observe(vci, rate);
        });
    }
    let with_policy = |policy: AdmissionPolicy| {
        let mut c = cfg.clone();
        c.admission = policy;
        c
    };
    let peak_cfg = with_policy(AdmissionPolicy::PeakRate);
    let mut peak_sa = SwitchAdmission::new(&peak_cfg);
    let mut roll_sw = switch_with(cfg, vcis, cfg.port_capacity);
    rp.bench("runtime.admission.roll_peak_ns", |i| {
        peak_sa.roll(&peak_cfg, i as u64, &mut roll_sw);
    });
    let ml_cfg = with_policy(match cfg.admission {
        AdmissionPolicy::Memoryless { target } => AdmissionPolicy::Memoryless { target },
        _ => AdmissionPolicy::Memoryless { target: 1e-3 },
    });
    let epsilon = match cfg.admission {
        AdmissionPolicy::ChernoffEb { epsilon } => epsilon,
        _ => 1e-6,
    };
    let eb_cfg = with_policy(AdmissionPolicy::ChernoffEb { epsilon });
    let fed = |c: &RuntimeConfig| -> Vec<SwitchAdmission> {
        heard.iter().map(|seen| fed_admission(c, seen)).collect()
    };
    rp.bench_prepared(
        "runtime.admission.roll_memoryless_us",
        fed(&ml_cfg),
        |mut sa| sa.roll(&ml_cfg, 64, &mut roll_sw),
    );
    // A fresh estimator per roll, so the equivalent-bandwidth cache misses
    // as it does in the engine (one cache per switch, one model per window).
    rp.bench_prepared("runtime.admission.roll_eb_ms", fed(&eb_cfg), |mut sa| {
        sa.roll(&eb_cfg, 64, &mut roll_sw)
    });
    let marginals: Vec<(Vec<(f64, f64)>, usize)> = fed(&ml_cfg)
        .iter()
        .map(|sa| {
            (
                sa.estimator().weighted_levels(),
                sa.estimator().active_vcs(),
            )
        })
        .collect();
    let controller = Memoryless::new(1e-3);
    rp.bench("admission.memoryless.needed_capacity_us", |i| {
        let (levels, calls) = &marginals[i % marginals.len()];
        black_box(controller.needed_capacity(levels, *calls));
    });
    // The solver alone, on the same models (it is inside every roll_eb
    // just timed).
    let models: Vec<_> = fed(&eb_cfg)
        .iter()
        .filter_map(|sa| sa.estimator().empirical_source())
        .collect();
    let levels: f64 = models.iter().map(|m| m.chain().num_states() as f64).sum();
    rp.res
        .put("ldt.eb.levels", levels / models.len().max(1) as f64);
    let qos = QosTarget::new(cfg.buffer, epsilon);
    rp.bench_prepared("ldt.eb.equivalent_bandwidth_ms", models, |m| {
        black_box(equivalent_bandwidth(&m, qos));
    });
}

/// Turn the layers' costs and the op counts of `report`, a run of `cfg`
/// lasting `thread_ns` over all its shards, into shares.
fn shares(cfg: &RuntimeConfig, report: &RunReport, thread_ns: f64, res: &mut PassResult) {
    let c = &report.counters;
    let cell_hops = cell_hops(report) as f64;
    let switch_steps = report.supersteps.max(1) as f64 * cfg.num_switches as f64;
    let shed_per_call = (32 - shed_budget(cfg).min(31)) as f64;
    let booked = c.admission_grants as f64;
    let attempts = c.injected.saturating_sub(c.teardown_cells).max(1) as f64;
    let absolute = ((c.resyncs + c.reroutes) as f64 / attempts).min(1.0);
    let leases = cfg.lease_supersteps > 0;
    let bounded_queue = cfg.signaling_budget_per_round > 0;
    let shed_calls = if bounded_queue {
        c.cells_shed as f64 / shed_per_call
    } else {
        0.0
    };
    let transparent = cfg.fault.is_transparent();
    let measuring = cfg.admission.measures();
    let rolls = report.admission.rolls as f64;
    let ops = [
        // The engine puts a cell on the wire only to corrupt it, and
        // decodes only under debug assertions.
        ("net.rm.encode_ns", c.cells_corrupted as f64),
        ("net.rm.decode_ns", 0.0),
        (
            "net.port.reserve_delta_ns",
            booked * (1.0 - absolute) + c.rolled_back_hops as f64,
        ),
        ("net.port.set_absolute_ns", booked * absolute),
        ("net.switch.process_rm_ns", booked * (1.0 - absolute)),
        ("net.switch.process_rm_deny_ns", c.admission_denials as f64),
        ("net.switch.resync_ns", booked * absolute),
        ("net.switch.rollback_ns", c.rolled_back_hops as f64),
        (
            "net.switch.touch_lease_ns",
            if leases { cell_hops } else { 0.0 },
        ),
        (
            "net.switch.expire_leases_ns",
            if leases {
                (report.rounds * cfg.num_switches as u64) as f64
            } else {
                0.0
            },
        ),
        // With no budget the engine never builds a meeting set.
        (
            "net.signaling.admit_unbounded_ns",
            if bounded_queue {
                switch_steps - shed_calls
            } else {
                0.0
            },
        ),
        ("net.signaling.admit_shed_ns", shed_calls),
        (
            "net.fault.decide_ns",
            if transparent { 0.0 } else { cell_hops },
        ),
        (
            "net.fault.decide_transparent_ns",
            if transparent { cell_hops } else { 0.0 },
        ),
        ("net.topology.alive_routes_us", c.reroutes as f64),
        (
            "runtime.admission.observe_ns",
            if measuring {
                booked + c.admission_denials as f64
            } else {
                0.0
            },
        ),
        ("runtime.admission.roll_peak_ns", 0.0),
        (
            "runtime.admission.roll_memoryless_us",
            if matches!(cfg.admission, AdmissionPolicy::Memoryless { .. }) {
                rolls
            } else {
                0.0
            },
        ),
        (
            "runtime.admission.roll_eb_ms",
            if matches!(cfg.admission, AdmissionPolicy::ChernoffEb { .. }) {
                rolls
            } else {
                0.0
            },
        ),
        (
            "ldt.eb.equivalent_bandwidth_ms",
            report.admission.eb_cache_misses as f64,
        ),
        (
            "admission.memoryless.needed_capacity_us",
            if matches!(cfg.admission, AdmissionPolicy::Memoryless { .. }) {
                rolls
            } else {
                0.0
            },
        ),
        (
            "schedule.driver.step_ns",
            slots_stepped(cfg, report.rounds) as f64,
        ),
        (
            "schedule.retry.backoff_ns",
            (c.retries + c.cells_shed) as f64,
        ),
        ("traffic.mpeg.generate_us_per_vc", cfg.num_vcs as f64),
    ];
    let mut attributed = 0.0;
    for (metric, count) in ops {
        let share = put_share(res, metric, count, thread_ns);
        if !NESTED.contains(&metric) {
            attributed += share;
        }
    }
    // By definition, not a check: what holds the replay to account is that
    // the remainder stays between 0 and 1 (`check` reports it otherwise).
    res.put("runtime.engine.unattributed_share", 1.0 - attributed);
    if attributed > 1.0 {
        res.note(&format!(
            "the layers' shares add up to {attributed:.3} > 1: the replay over-costs a layer, or met a slower moment than the run"
        ));
    }
}

fn trellis(inst: &TrellisInstance, opts: &Opts, tr: &mut Tracer, root: u64, res: &mut PassResult) {
    res.inputs_fingerprint = fingerprint(&format!(
        "{} {} {}",
        inst.frames,
        inst.seed,
        serde_json::to_string(&inst.config).expect("a config serializes")
    ));
    let ((trace, opt), _) = tr.span("setup", Some(root), || {
        (
            trellis_trace(inst),
            OfflineOptimizer::new(inst.config.clone()),
        )
    });
    let series = run_series(
        tr,
        root,
        res,
        || optimize(&opt, &trace),
        |r| {
            let mut counts = std::collections::BTreeMap::new();
            counts.insert("nodes_expanded".to_string(), r.stats.nodes_expanded);
            counts.insert("nodes_kept".to_string(), r.stats.nodes_kept);
            counts.insert("peak_arena".to_string(), r.stats.peak_arena);
            counts
        },
        // Trace generation is the workload's set-up; it is costed here so
        // that work moved between set-up and the kernel shows.
        |rp, _| {
            rp.bench("traffic.mpeg.generate_us_per_vc", |i| {
                let mut rng = SimRng::from_seed(inst.seed).substream(i as u64);
                black_box(SyntheticMpegSource::star_wars_like().generate(2048, &mut rng));
            })
        },
    );
    let Some((run, walls, _)) = series else {
        return;
    };
    res.outputs_fingerprint = run.fingerprint();
    res.attempted += 1;
    let (check, _) = tr.span("verify", Some(root), || {
        trellis_reference_check(&trace, inst.config.buffer, opts.quick)
    });
    if let Err(e) = check {
        res.fail(format!("verify: {e}"));
    }
    let wall_s = walls.min;
    res.put_best("schedule.trellis.optimize_s", Better::Lower, walls);
    res.put("schedule.trellis.optimize_s.share", 1.0);
    res.put(
        "schedule.trellis.ns_per_node_expanded",
        wall_s * 1e9 / run.stats.nodes_expanded.max(1) as f64,
    );
    res.put(
        "schedule.trellis.nodes_expanded",
        run.stats.nodes_expanded as f64,
    );
    res.put("schedule.trellis.peak_arena", run.stats.peak_arena as f64);
    res.put("ops.completed", 1.0);
}
