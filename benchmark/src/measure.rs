//! Clocks, `/proc` readers and the median-of-reps statistic.

use std::time::Instant;

/// Kernel clock ticks per second as `/proc/self/stat` reports them
/// (`USER_HZ`, 100 on every Linux ABI).
const USER_HZ: f64 = 100.0;

/// Process CPU time, `utime + stime` over all threads, seconds. `None`
/// where `/proc` is missing or unreadable.
pub fn cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name may hold spaces; fields are counted after its ')'.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    let utime: f64 = fields.nth(11)?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / USER_HZ)
}

/// Peak resident set (`VmHWM`), MiB. `None` where `/proc` is unreadable.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Median, extremes and count of a sample.
#[derive(Debug, Clone, Copy)]
pub struct Stat {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

pub fn stat(values: &[f64]) -> Stat {
    Stat {
        median: median(values),
        min: values.iter().copied().fold(f64::INFINITY, f64::min),
        max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        n: values.len(),
    }
}

/// Wall and CPU time of one call.
pub struct Timed<T> {
    pub out: T,
    pub wall_s: f64,
    pub cpu_s: Option<f64>,
}

pub fn timed<T>(f: impl FnOnce() -> T) -> Timed<T> {
    let cpu0 = cpu_seconds();
    let t0 = Instant::now();
    let out = f();
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = match (cpu0, cpu_seconds()) {
        (Some(a), Some(b)) => Some(b - a),
        _ => None,
    };
    Timed { out, wall_s, cpu_s }
}
