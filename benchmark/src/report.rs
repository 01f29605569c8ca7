//! What a pass produces: named metrics with units, exact counts,
//! fingerprints and the failed-operation account — plus the one-line
//! result the driver reads.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize, Value};

use crate::e2e::Opts;
use crate::measure::Stat;
use crate::metrics::{unit_of, Better};
use crate::workloads::Workload;

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MetricValue {
    /// `null` when the platform could not supply it (see `notes`).
    pub value: Option<f64>,
    pub unit: String,
    /// The sample behind `value`: its median, extremes and size (1 for a
    /// derived or simulated value).
    pub median: Option<f64>,
    pub min: Option<f64>,
    pub max: Option<f64>,
    pub n: u64,
}

/// One pass (end-to-end or traced) over one workload.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PassResult {
    pub workload: String,
    /// The `--seed` asked for.
    pub seed: u64,
    /// The seed the generators were handed (`Workload::input_seed`).
    pub input_seed: u64,
    pub seconds: f64,
    pub quick: bool,
    pub traced: bool,
    pub inputs_fingerprint: String,
    pub outputs_fingerprint: String,
    /// Timed and verifying runs made.
    pub attempted: u64,
    /// Those that panicked, broke an invariant or disagreed.
    pub failed: u64,
    pub failures: Vec<String>,
    /// Wall seconds of each timed rep, in order.
    pub rep_wall_s: Vec<f64>,
    /// Wall seconds of the whole pass, for the time budget.
    pub pass_wall_s: f64,
    pub metrics: BTreeMap<String, MetricValue>,
    /// Simulated counts; they repeat exactly for one seed.
    pub counts: BTreeMap<String, u64>,
    pub notes: Vec<String>,
}

impl PassResult {
    pub fn new(name: &str, workload: &Workload, opts: &Opts, traced: bool) -> Self {
        let input_seed = workload.input_seed();
        let mut notes = Vec::new();
        if input_seed != opts.seed {
            notes.push(format!(
                "inputs are generated from seed {input_seed}, not --seed {}: this workload holds its corpus still across seeds",
                opts.seed
            ));
        }
        Self {
            workload: name.to_string(),
            seed: opts.seed,
            input_seed,
            seconds: opts.seconds,
            quick: opts.quick,
            traced,
            inputs_fingerprint: String::new(),
            outputs_fingerprint: String::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            rep_wall_s: Vec::new(),
            pass_wall_s: 0.0,
            metrics: BTreeMap::new(),
            counts: BTreeMap::new(),
            notes,
        }
    }

    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.failures.push(why);
    }

    pub fn note(&mut self, text: &str) {
        if !self.notes.iter().any(|n| n == text) {
            self.notes.push(text.to_string());
        }
    }

    /// A single value (derived, simulated or measured once).
    pub fn put(&mut self, name: &str, value: f64) {
        self.metrics.insert(
            name.to_string(),
            MetricValue {
                value: Some(value),
                unit: unit_of(name).to_string(),
                median: Some(value),
                min: Some(value),
                max: Some(value),
                n: 1,
            },
        );
    }

    /// The median of a sample, with its extremes and count.
    pub fn put_median(&mut self, name: &str, s: Stat) {
        self.put_sample(name, s.median, s);
    }

    /// The best rep of a sample of timings of identical work. A
    /// neighbour's bursts only ever slow a rep down, so on a shared box the
    /// best rep repeats from run to run about twice as closely as the
    /// median (README, Protocol); the median and extremes ride along.
    pub fn put_best(&mut self, name: &str, better: Better, s: Stat) {
        let best = match better {
            Better::Higher => s.max,
            Better::Lower => s.min,
        };
        self.put_sample(name, best, s);
    }

    /// One replay pass's sample of a layer's cost, summed up by `centre`.
    /// Over the passes the lowest centre is the value: a neighbour's burst
    /// outlasts one pass and would otherwise pass for the layer's cost. The
    /// extremes and the count cover every pass.
    pub fn put_lowest(&mut self, name: &str, centre: f64, mut s: Stat) {
        let mut value = centre;
        if let Some(MetricValue {
            value: Some(v),
            min: Some(lo),
            max: Some(hi),
            n,
            ..
        }) = self.metrics.get(name)
        {
            value = value.min(*v);
            s.min = s.min.min(*lo);
            s.max = s.max.max(*hi);
            s.n += *n as usize;
        }
        s.median = value;
        self.put_sample(name, value, s);
    }

    fn put_sample(&mut self, name: &str, value: f64, s: Stat) {
        self.metrics.insert(
            name.to_string(),
            MetricValue {
                value: Some(value),
                unit: unit_of(name).to_string(),
                median: Some(s.median),
                min: Some(s.min),
                max: Some(s.max),
                n: s.n as u64,
            },
        );
    }

    /// A metric the platform could not supply.
    pub fn put_missing(&mut self, name: &str, why: &str) {
        self.metrics.insert(
            name.to_string(),
            MetricValue {
                value: None,
                unit: unit_of(name).to_string(),
                median: None,
                min: None,
                max: None,
                n: 0,
            },
        );
        self.note(why);
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).and_then(|m| m.value)
    }

    /// The last line of standard output, as the driver's contract words it.
    pub fn driver_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, m)| {
                let value = m.value.map_or(Value::Null, Value::Float);
                let entry = vec![
                    ("value".to_string(), value),
                    ("unit".to_string(), Value::Str(m.unit.clone())),
                ];
                (name.clone(), Value::Object(entry))
            })
            .collect();
        let line = Value::Object(vec![
            ("correct".to_string(), Value::Bool(self.failed == 0)),
            ("attempted".to_string(), Value::UInt(self.attempted.max(1))),
            ("failed".to_string(), Value::UInt(self.failed)),
            ("metrics".to_string(), Value::Object(metrics)),
        ]);
        serde_json::to_string(&line).expect("a value always serializes")
    }

    /// Every metric by name with its unit, one per line.
    pub fn print_table(&self) {
        println!(
            "# {} seed {} input seed {} ({}{})",
            self.workload,
            self.seed,
            self.input_seed,
            if self.traced {
                "per-layer"
            } else {
                "end-to-end"
            },
            if self.quick { ", quick" } else { "" }
        );
        for (name, m) in &self.metrics {
            match (m.value, m.median, m.min, m.max) {
                (Some(v), Some(med), Some(lo), Some(hi)) if m.n > 1 => println!(
                    "{name:<44} {v:>16.6} {:<6} median {med:.6} min {lo:.6} max {hi:.6} n {}",
                    m.unit, m.n
                ),
                (Some(v), ..) => println!("{name:<44} {v:>16.6} {}", m.unit),
                _ => println!("{name:<44} {:>16} {}", "null", m.unit),
            }
        }
        println!(
            "inputs {} outputs {} attempted {} failed {} in {:.1} s",
            self.inputs_fingerprint,
            self.outputs_fingerprint,
            self.attempted,
            self.failed,
            self.pass_wall_s
        );
        for f in &self.failures {
            println!("FAILED: {f}");
        }
        for n in &self.notes {
            println!("note: {n}");
        }
    }
}

/// Both passes over one workload.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkloadResult {
    pub name: String,
    pub end_to_end: PassResult,
    pub per_layer: PassResult,
}

/// What `all` writes.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SuiteResult {
    pub schema: u64,
    pub seed: u64,
    pub quick: bool,
    /// Cores the box offered; shard speed-ups mean nothing without it.
    pub available_parallelism: u64,
    pub workloads: Vec<WorkloadResult>,
}

/// FNV-1a over the bytes of `text`, as 16 hex digits.
pub fn fingerprint(text: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Canonical JSON of the deterministic part of a `RunReport`: everything
/// but the wall-clock fields, the per-shard pipeline metrics (batch sizes
/// depend on the partition) and the shard count itself.
pub fn comparable_report(report: &rcbr_runtime::RunReport) -> String {
    let Value::Object(entries) = report.to_json_value() else {
        unreachable!("a RunReport serializes to an object");
    };
    let kept = entries
        .into_iter()
        .filter(|(k, _)| {
            !matches!(
                k.as_str(),
                "wall_seconds" | "throughput_per_sec" | "shards" | "num_shards"
            )
        })
        .collect();
    serde_json::to_string(&Value::Object(kept)).expect("a value always serializes")
}
