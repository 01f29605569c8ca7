//! `compare`, `agree` and `check`: reading two suites (or one) back.

use std::collections::BTreeSet;

use crate::metrics::{self, Better, END_TO_END};
use crate::report::{MetricValue, PassResult, SuiteResult};

/// Every timed rep of a full-size run must last at least this long.
const REP_FLOOR_S: f64 = 1.5;
const UNATTRIBUTED: &str = "runtime.engine.unattributed_share";
/// How far outside 0..1 a share may read before `check` reports it: a
/// replay and the run it is divided by are each good to a few percent, and
/// on `mbac_eb` the rolls are all but the whole run (its shares added up to
/// 0.98, 1.04 and 1.07 in the three committed suites).
const SHARE_SLACK: f64 = 0.1;

pub fn load(path: &str) -> Result<SuiteResult, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
}

/// By what share of `a` the metric got worse from `a` to `b` (negative:
/// better).
fn worse_by(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// A sample's min-max width as a share of its median.
fn spread(m: &MetricValue) -> f64 {
    match (m.value, m.min, m.max) {
        (Some(v), Some(lo), Some(hi)) if v != 0.0 => (hi - lo) / v.abs(),
        _ => 0.0,
    }
}

/// Whether every rep behind `b` reads better than every rep behind `a`.
fn all_better(better: Better, a: &MetricValue, b: &MetricValue) -> bool {
    match (better, a.min, a.max, b.min, b.max) {
        (Better::Lower, Some(a_lo), _, _, Some(b_hi)) => b_hi < a_lo,
        (Better::Higher, _, Some(a_hi), Some(b_lo), _) => b_lo > a_hi,
        _ => false,
    }
}

fn flip(better: Better) -> Better {
    match better {
        Better::Higher => Better::Lower,
        Better::Lower => Better::Higher,
    }
}

fn pair<'a>(
    a: &'a PassResult,
    b: &'a PassResult,
    name: &str,
) -> Option<(&'a MetricValue, &'a MetricValue, f64, f64)> {
    let (ma, mb) = (a.metrics.get(name)?, b.metrics.get(name)?);
    Some((ma, mb, ma.value?, mb.value?))
}

/// Print, per workload, every end-to-end metric's change against its bound
/// and the per-layer changes sorted by share.
pub fn compare(a: &SuiteResult, b: &SuiteResult) {
    println!("A: seed {}  B: seed {}", a.seed, b.seed);
    for wa in &a.workloads {
        let Some(wb) = b.workloads.iter().find(|w| w.name == wa.name) else {
            println!("\n## {}: missing from B", wa.name);
            continue;
        };
        println!("\n## {}", wa.name);
        println!(
            "{:<22} {:>16} {:>16} {:>9} {:>7}  verdict",
            "end-to-end", "A", "B", "worse by", "bound"
        );
        for def in &END_TO_END {
            let Some((ma, mb, va, vb)) = pair(&wa.end_to_end, &wb.end_to_end, def.name) else {
                println!("{:<22} not reported on both sides", def.name);
                continue;
            };
            let w = worse_by(def.better, va, vb);
            let verdict = if ma.n > 1 && all_better(def.better, ma, mb) {
                "improved (every rep of B beats every rep of A)"
            } else if ma.n > 1 && w > def.bound && all_better(flip(def.better), ma, mb) {
                "REGRESSED (every rep of A beats every rep of B)"
            } else if spread(ma) > def.bound || spread(mb) > def.bound {
                "unresolved (rep-to-rep spread wider than the bound)"
            } else if w > def.bound {
                "REGRESSED"
            } else if w < -def.bound {
                "improved"
            } else {
                "within bound"
            };
            println!(
                "{:<22} {:>16.6} {:>16.6} {:>+8.2}% {:>6.1}%  {verdict}",
                def.name,
                va,
                vb,
                100.0 * w,
                100.0 * def.bound
            );
        }
        // Layers with a share first, largest share (in B) first.
        let share_of = |name: &str| wb.per_layer.value(&format!("{name}.share"));
        let mut rows: Vec<&metrics::Layer> = metrics::LAYERS.iter().collect();
        rows.sort_by(|x, y| {
            let (sx, sy) = (share_of(x.name), share_of(y.name));
            sy.partial_cmp(&sx).expect("shares are finite")
        });
        println!(
            "{:<44} {:>14} {:>14} {:>9} {:>8}",
            "per-layer", "A", "B", "change", "share(B)"
        );
        for layer in rows {
            let Some((_, _, va, vb)) = pair(&wa.per_layer, &wb.per_layer, layer.name) else {
                continue;
            };
            if va == 0.0 && vb == 0.0 {
                continue;
            }
            let change = if va != 0.0 {
                100.0 * (vb - va) / va
            } else {
                f64::INFINITY
            };
            let share = share_of(layer.name).map_or(String::new(), |s| format!("{s:.4}"));
            println!(
                "{:<44} {:>14.4} {:>14.4} {:>+8.2}% {:>8}",
                layer.name, va, vb, change, share
            );
        }
    }
}

fn agree_pass(which: &str, a: &PassResult, b: &PassResult, out: &mut Vec<String>) {
    let at = format!("{} {which}", a.workload);
    if a.inputs_fingerprint != b.inputs_fingerprint {
        out.push(format!("{at}: inputs fingerprint differs"));
    }
    if a.outputs_fingerprint != b.outputs_fingerprint {
        out.push(format!("{at}: outputs fingerprint differs"));
    }
    if a.counts != b.counts {
        let keys: BTreeSet<&String> = a.counts.keys().chain(b.counts.keys()).collect();
        for k in keys {
            if a.counts.get(k) != b.counts.get(k) {
                out.push(format!(
                    "{at}: count {k} {:?} vs {:?}",
                    a.counts.get(k),
                    b.counts.get(k)
                ));
            }
        }
    }
    if a.failed + b.failed > 0 {
        out.push(format!(
            "{at}: failed operations {} and {}",
            a.failed, b.failed
        ));
    }
}

/// Two runs of the same code must agree: every end-to-end metric within
/// its bound, every simulated one bit-equal, every fingerprint and exact
/// count equal. Returns the disagreements.
pub fn agree(a: &SuiteResult, b: &SuiteResult) -> Vec<String> {
    let mut out = Vec::new();
    for wa in &a.workloads {
        let Some(wb) = b.workloads.iter().find(|w| w.name == wa.name) else {
            out.push(format!("{}: missing from the second suite", wa.name));
            continue;
        };
        agree_pass("end-to-end", &wa.end_to_end, &wb.end_to_end, &mut out);
        agree_pass("per-layer", &wa.per_layer, &wb.per_layer, &mut out);
        for def in &END_TO_END {
            let Some((_, _, va, vb)) = pair(&wa.end_to_end, &wb.end_to_end, def.name) else {
                out.push(format!(
                    "{}: {} not reported on both sides",
                    wa.name, def.name
                ));
                continue;
            };
            if def.exact {
                if va.to_bits() != vb.to_bits() {
                    out.push(format!(
                        "{}: {} {va} vs {vb} (must repeat exactly)",
                        wa.name, def.name
                    ));
                }
            } else {
                let w = worse_by(def.better, va, vb).abs();
                let verdict = if w <= def.bound { "ok" } else { "DISAGREE" };
                println!(
                    "{:<16} {:<20} {:>16.6} {:>16.6} {:>6.2}% of {:>4.1}%  {verdict}",
                    wa.name,
                    def.name,
                    va,
                    vb,
                    100.0 * w,
                    100.0 * def.bound
                );
                if w > def.bound {
                    out.push(format!(
                        "{}: {} {va} vs {vb}: {:.2}% apart, bound {:.1}%",
                        wa.name,
                        def.name,
                        100.0 * w,
                        100.0 * def.bound
                    ));
                }
            }
        }
    }
    out
}

fn name_ok(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Validate a suite file against the metric tables and `BENCHMARK.json`
/// (`manifest_path`) against the contract's limits. Returns the problems.
pub fn check(suite: &SuiteResult, manifest_path: &str) -> Vec<String> {
    let mut out = Vec::new();
    let layer_defs = metrics::per_layer();
    if END_TO_END.len() > 16 {
        out.push(format!("{} end-to-end metrics > 16", END_TO_END.len()));
    }
    if layer_defs.len() > 128 {
        out.push(format!("{} per-layer metrics > 128", layer_defs.len()));
    }
    let names: Vec<&str> = END_TO_END
        .iter()
        .map(|m| m.name)
        .chain(layer_defs.iter().map(|(n, _, _)| n.as_str()))
        .chain(crate::workloads::WORKLOADS.iter().map(|w| w.name))
        .collect();
    for n in &names {
        if !name_ok(n) {
            out.push(format!("name `{n}` breaks [A-Za-z0-9_.-]{{1,64}}"));
        }
    }
    if names.iter().collect::<BTreeSet<_>>().len() != names.len() {
        out.push("a name is used twice".to_string());
    }
    for m in &END_TO_END {
        if !(m.bound > 0.0 && m.bound <= 0.25) {
            out.push(format!("{}: bound {} outside (0, 0.25]", m.name, m.bound));
        }
    }
    if suite.workloads.len() != 7 {
        out.push(format!("{} workloads, not 7", suite.workloads.len()));
    }
    for w in &suite.workloads {
        for (pass, defs) in [
            (
                &w.end_to_end,
                END_TO_END
                    .iter()
                    .map(|m| (m.name.to_string(), m.unit))
                    .collect::<Vec<_>>(),
            ),
            (
                &w.per_layer,
                layer_defs.iter().map(|(n, u, _)| (n.clone(), *u)).collect(),
            ),
        ] {
            for (name, unit) in &defs {
                match pass.metrics.get(name) {
                    None => out.push(format!("{}: {name} not reported", w.name)),
                    Some(m) if m.unit != *unit => {
                        out.push(format!("{}: {name} in {} not {unit}", w.name, m.unit))
                    }
                    Some(m) if m.value.is_none() => {
                        out.push(format!("{}: {name} is null ({:?})", w.name, pass.notes))
                    }
                    Some(_) => {}
                }
            }
            for name in pass.metrics.keys() {
                if !defs.iter().any(|(n, _)| n == name) {
                    out.push(format!(
                        "{}: {name} has no unit, direction or bound",
                        w.name
                    ));
                }
            }
            if pass.failed > 0 {
                out.push(format!(
                    "{}: {} failed operations: {:?}",
                    w.name, pass.failed, pass.failures
                ));
            }
        }
        if !suite.quick {
            for (i, wall) in w.end_to_end.rep_wall_s.iter().enumerate() {
                if *wall < REP_FLOOR_S {
                    out.push(format!(
                        "{}: timed rep {i} took {wall:.3} s < {REP_FLOOR_S} s",
                        w.name
                    ));
                }
            }
        }
        for def in &END_TO_END {
            if w.end_to_end.value(def.name) == Some(0.0) {
                out.push(format!("{}: {} is 0", w.name, def.name));
            }
        }
        // What holds the layer replay to account: no layer may cost more
        // than the whole run, nor all of them together.
        for (name, m) in &w.per_layer.metrics {
            let share = m.value.unwrap_or(0.0);
            let is_share = name.ends_with(".share") || name == UNATTRIBUTED;
            if is_share && !(-SHARE_SLACK..=1.0 + SHARE_SLACK).contains(&share) {
                out.push(format!("{}: {name} is {share:.3}, outside 0..1", w.name));
            }
        }
    }
    match std::fs::read_to_string(manifest_path) {
        Err(e) => out.push(format!("{manifest_path}: {e}")),
        Ok(text) => match serde_json::from_str::<serde::Value>(&text) {
            Err(e) => out.push(format!("{manifest_path}: {e}")),
            Ok(v) => {
                if v != metrics::manifest() {
                    out.push(format!(
                        "{manifest_path} differs from `manifest`; regenerate it"
                    ));
                }
                let paths = v.get("paths").and_then(|p| p.as_array()).unwrap_or(&[]);
                if paths != [serde::Value::Str("benchmark".to_string())] {
                    out.push(format!("{manifest_path}: paths is not [\"benchmark\"]"));
                }
                if text.len() > 64 * 1024 {
                    out.push(format!("{manifest_path}: larger than 64 KiB"));
                }
            }
        },
    }
    out
}
