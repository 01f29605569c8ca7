//! Every metric the benchmark reports: name, unit, direction and, for the
//! end-to-end ones, the regression bound. `BENCHMARK.json` is printed from
//! these tables (`manifest`), so the names exist in one place.

use crate::workloads::WORKLOADS;
use serde::Value;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
    /// Whether the value is simulated: it repeats exactly for one seed.
    pub exact: bool,
}

/// How long one run measures, seconds (`run_seconds` of `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 8;

/// Each bound is about twice the widest interquartile spread its metric
/// showed over ten seeds on any workload in any session, and at most the
/// 0.25 the driver allows (README, "Where the bounds come from"). The
/// timings' spreads are the box's, up to 17 %; the simulated metrics' are
/// the seeds', up to 8 %; the peak RSS's is the allocator's on the
/// smallest workload, up to 7 % of 7.5 MiB.
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "requests_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "cpu_ns_per_request",
        unit: "ns",
        better: Better::Lower,
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "frames_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.15,
        exact: false,
    },
    EndToEnd {
        name: "grant_share",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.15,
        exact: true,
    },
    EndToEnd {
        name: "source_loss_mean",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.15,
        exact: true,
    },
];

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Whether a `<name>.share` companion is reported.
    pub share: bool,
}

const fn cost(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Lower,
        share: true,
    }
}

const fn plain(name: &'static str, unit: &'static str, better: Better) -> Layer {
    Layer {
        name,
        unit,
        better,
        share: false,
    }
}

/// The per-layer metrics, grouped by the crate they cost.
pub const LAYERS: &[Layer] = &[
    // rcbr-net
    cost("net.rm.encode_ns", "ns"),
    cost("net.rm.decode_ns", "ns"),
    cost("net.port.reserve_delta_ns", "ns"),
    cost("net.port.set_absolute_ns", "ns"),
    cost("net.switch.process_rm_ns", "ns"),
    cost("net.switch.process_rm_deny_ns", "ns"),
    cost("net.switch.resync_ns", "ns"),
    cost("net.switch.rollback_ns", "ns"),
    cost("net.switch.touch_lease_ns", "ns"),
    cost("net.switch.expire_leases_ns", "ns"),
    cost("net.signaling.admit_unbounded_ns", "ns"),
    cost("net.signaling.admit_shed_ns", "ns"),
    plain("net.signaling.shed_ratio", "ratio", Better::Lower),
    cost("net.fault.decide_ns", "ns"),
    cost("net.fault.decide_transparent_ns", "ns"),
    cost("net.topology.alive_routes_us", "us"),
    // rcbr-runtime
    plain("runtime.engine.run_wall_s", "s", Better::Lower),
    plain("runtime.engine.rep_spread_pct", "%", Better::Lower),
    plain("runtime.engine.ns_per_cell_hop", "ns", Better::Lower),
    plain("runtime.engine.ns_per_superstep", "ns", Better::Lower),
    plain(
        "runtime.engine.cell_hops_per_request",
        "count",
        Better::Lower,
    ),
    plain(
        "runtime.engine.supersteps_per_request",
        "count",
        Better::Lower,
    ),
    plain("runtime.engine.slots_per_request", "count", Better::Lower),
    plain("runtime.engine.retries_per_request", "count", Better::Lower),
    plain(
        "runtime.engine.timeouts_per_request",
        "count",
        Better::Lower,
    ),
    plain(
        "runtime.engine.rollbacks_per_request",
        "count",
        Better::Lower,
    ),
    plain("runtime.engine.resyncs_per_request", "count", Better::Lower),
    plain("runtime.engine.exhausted_share", "ratio", Better::Lower),
    plain("runtime.engine.max_batch", "count", Better::Lower),
    plain("runtime.engine.cpu_over_wall", "ratio", Better::Higher),
    plain("runtime.engine.shard2_speedup", "ratio", Better::Higher),
    plain("runtime.engine.unattributed_share", "ratio", Better::Lower),
    plain("runtime.sequential.requests_per_s", "1/s", Better::Higher),
    cost("runtime.admission.observe_ns", "ns"),
    cost("runtime.admission.roll_peak_ns", "ns"),
    cost("runtime.admission.roll_memoryless_us", "us"),
    cost("runtime.admission.roll_eb_ms", "ms"),
    plain("runtime.admission.rolls", "count", Better::Lower),
    plain(
        "runtime.admission.eb_cache_hit_ratio",
        "ratio",
        Better::Higher,
    ),
    // rcbr-schedule
    cost("schedule.driver.step_ns", "ns"),
    cost("schedule.retry.backoff_ns", "ns"),
    cost("schedule.trellis.optimize_s", "s"),
    plain("schedule.trellis.ns_per_node_expanded", "ns", Better::Lower),
    plain("schedule.trellis.nodes_expanded", "count", Better::Lower),
    plain("schedule.trellis.peak_arena", "count", Better::Lower),
    // rcbr-traffic, rcbr-ldt, rcbr-admission, rcbr-core
    cost("traffic.mpeg.generate_us_per_vc", "us"),
    cost("ldt.eb.equivalent_bandwidth_ms", "ms"),
    plain("ldt.eb.levels", "count", Better::Lower),
    cost("admission.memoryless.needed_capacity_us", "us"),
    plain("core.service.renegotiate_ns", "ns", Better::Lower),
    // the traced pass itself
    plain("trace_overhead_pct", "%", Better::Lower),
    // the traced run's exact op counts, which the shares are computed from
    plain("ops.cell_hops", "count", Better::Lower),
    plain("ops.booking_checks", "count", Better::Lower),
    plain("ops.slots_stepped", "count", Better::Lower),
    plain("ops.rollback_hops", "count", Better::Lower),
    plain("ops.cells_shed", "count", Better::Lower),
    plain("ops.lease_sweeps", "count", Better::Lower),
    plain("ops.completed", "count", Better::Higher),
];

/// Every per-layer metric name with its unit and direction, `.share`
/// companions included, in reporting order.
pub fn per_layer() -> Vec<(String, &'static str, Better)> {
    let mut out = Vec::new();
    for l in LAYERS {
        out.push((l.name.to_string(), l.unit, l.better));
        if l.share {
            out.push((format!("{}.share", l.name), "ratio", Better::Lower));
        }
    }
    out
}

/// The unit of metric `name`, from the tables above.
///
/// # Panics
/// Panics on a name no table holds: a metric must be defined before it is
/// reported.
pub fn unit_of(name: &str) -> &'static str {
    if name.ends_with(".share") {
        return "ratio";
    }
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(LAYERS.iter().map(|l| (l.name, l.unit)))
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| unit)
        .unwrap_or_else(|| panic!("{name} is not a metric of this benchmark"))
}

/// Layers whose cost is already inside another layer's; their shares are
/// reported but left out of the sum `unattributed_share` is taken from.
pub const NESTED: [&str; 4] = [
    "net.port.reserve_delta_ns",
    "net.port.set_absolute_ns",
    "ldt.eb.equivalent_bandwidth_ms",
    "admission.memoryless.needed_capacity_us",
];

fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn s(text: &str) -> Value {
    Value::Str(text.to_string())
}

/// The contents of `BENCHMARK.json`.
pub fn manifest() -> Value {
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    obj(vec![
        (
            "command",
            Value::Array(command.iter().map(|c| s(c)).collect()),
        ),
        ("paths", Value::Array(vec![s("benchmark")])),
        ("run_seconds", Value::UInt(RUN_SECONDS)),
        (
            "workloads",
            Value::Array(
                WORKLOADS
                    .iter()
                    .map(|w| obj(vec![("name", s(w.name)), ("why", s(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Array(
                END_TO_END
                    .iter()
                    .map(|m| {
                        obj(vec![
                            ("name", s(m.name)),
                            ("unit", s(m.unit)),
                            ("better", s(m.better.as_str())),
                            ("bound", Value::Float(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Array(
                per_layer()
                    .iter()
                    .map(|(name, unit, better)| {
                        obj(vec![
                            ("name", s(name)),
                            ("unit", s(unit)),
                            ("better", s(better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}
