#![warn(missing_docs)]
// A benchmark harness reads the host clock by design; clippy.toml's
// determinism bans guard the simulation crates, not this shim.
#![allow(clippy::disallowed_methods)]

//! # criterion (offline stand-in)
//!
//! The build container has no registry access, so the real `criterion`
//! crate cannot be fetched. This crate keeps `cargo bench` working by
//! reimplementing the subset of the API the workspace's benches use:
//! benchmark groups, `bench_function` / `bench_with_input`,
//! `Bencher::iter` / `iter_batched`, `BatchSize`, `BenchmarkId`, and the
//! `criterion_group!` / `criterion_main!` macros.
//!
//! Unlike the real criterion there is no statistical analysis, outlier
//! detection, or HTML report: each benchmark is warmed up once, timed for
//! a fixed number of samples, and the median per-iteration wall-clock
//! time is printed. That is enough to catch order-of-magnitude
//! algorithmic regressions, which is all these benches are for.

use std::fmt::Display;
use std::time::{Duration, Instant};

/// How batched-iteration setup output is grouped between timings.
///
/// The stand-in times one routine call per setup call regardless of the
/// variant, so the variants only document intent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// Routine input is small; the real criterion batches many per alloc.
    SmallInput,
    /// Routine input is large; the real criterion batches few per alloc.
    LargeInput,
    /// One setup per iteration.
    PerIteration,
}

/// Identifies one parameterized benchmark within a group.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// An id rendered from the sweep parameter alone, e.g. `group/20`.
    pub fn from_parameter<P: Display>(parameter: P) -> Self {
        Self {
            id: parameter.to_string(),
        }
    }

    /// An id with both a function label and a parameter.
    pub fn new<S: Into<String>, P: Display>(function_name: S, parameter: P) -> Self {
        Self {
            id: format!("{}/{}", function_name.into(), parameter),
        }
    }
}

impl Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.id)
    }
}

/// Passed to benchmark closures; runs and times the routine.
pub struct Bencher<'a> {
    samples: usize,
    times: &'a mut Vec<Duration>,
}

impl Bencher<'_> {
    /// Time `routine`, re-running it once per sample.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        for _ in 0..self.samples {
            let start = Instant::now();
            let out = routine();
            self.times.push(start.elapsed());
            drop(out);
        }
    }

    /// Time `routine` on fresh input from `setup`; setup time is excluded.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        for _ in 0..self.samples {
            let input = setup();
            let start = Instant::now();
            let out = routine(input);
            self.times.push(start.elapsed());
            drop(out);
        }
    }
}

/// A named set of related benchmarks sharing configuration.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Set the number of timed samples per benchmark (min 2 here; the
    /// real criterion enforces a minimum of 10).
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(2);
        self
    }

    /// Accepted for compatibility; the stand-in has a fixed time budget
    /// of `sample_size` runs, so the target time is ignored.
    pub fn measurement_time(&mut self, _dur: Duration) -> &mut Self {
        self
    }

    /// Benchmark a closure under `id` within this group.
    pub fn bench_function<F>(&mut self, id: impl Display, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher<'_>),
    {
        let full = format!("{}/{}", self.name, id);
        if !self.criterion.matches(&full) {
            return self;
        }
        let mut times = Vec::with_capacity(self.sample_size + 1);
        // One untimed warm-up pass so lazy init and cache effects do not
        // land in the first sample.
        {
            let mut warm = Bencher {
                samples: 1,
                times: &mut Vec::new(),
            };
            f(&mut warm);
        }
        let mut bencher = Bencher {
            samples: self.sample_size,
            times: &mut times,
        };
        f(&mut bencher);
        report(&full, &times);
        self
    }

    /// Benchmark a closure that receives `input` by reference.
    pub fn bench_with_input<I, F>(&mut self, id: BenchmarkId, input: &I, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher<'_>, &I),
    {
        self.bench_function(id, |b| f(b, input))
    }

    /// End the group (kept for API compatibility).
    pub fn finish(&mut self) {}
}

fn report(name: &str, times: &[Duration]) {
    let mut sorted: Vec<Duration> = times.to_vec();
    sorted.sort();
    let median = sorted[sorted.len() / 2];
    let lo = sorted[0];
    let hi = sorted[sorted.len() - 1];
    println!(
        "{name:<48} median {} (min {}, max {}, n={})",
        fmt_duration(median),
        fmt_duration(lo),
        fmt_duration(hi),
        sorted.len(),
    );
}

fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns >= 1_000_000_000 {
        format!("{:.3} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3} µs", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

/// Benchmark driver; entry point mirroring `criterion::Criterion`.
pub struct Criterion {
    filter: Option<String>,
}

impl Default for Criterion {
    fn default() -> Self {
        // `cargo bench -- <filter>` passes the filter as a free argument;
        // flags the real criterion accepts (e.g. `--bench`) are skipped.
        let filter = std::env::args().skip(1).find(|a| !a.starts_with('-'));
        Self { filter }
    }
}

impl Criterion {
    /// Kept for API compatibility with the real criterion's builder.
    pub fn configure_from_args(self) -> Self {
        self
    }

    fn matches(&self, name: &str) -> bool {
        self.filter.as_deref().is_none_or(|f| name.contains(f))
    }

    /// Start a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            sample_size: 10,
        }
    }

    /// Benchmark a closure outside any group.
    pub fn bench_function<F>(&mut self, id: impl Display, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher<'_>),
    {
        let name = id.to_string();
        self.benchmark_group(name.clone()).bench_function("", f);
        self
    }
}

/// Opaque-to-the-optimizer value laundering, as in the real criterion.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Bundle benchmark functions under one group name.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Emit `main` running the given [`criterion_group!`] groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_collects_requested_samples() {
        let mut times = Vec::new();
        let mut b = Bencher {
            samples: 5,
            times: &mut times,
        };
        let mut count = 0u64;
        b.iter(|| count += 1);
        assert_eq!(count, 5);
        assert_eq!(times.len(), 5);
    }

    #[test]
    fn iter_batched_runs_setup_per_sample() {
        let mut times = Vec::new();
        let mut b = Bencher {
            samples: 4,
            times: &mut times,
        };
        let mut setups = 0u64;
        b.iter_batched(
            || {
                setups += 1;
                vec![0u8; 8]
            },
            |v| v.len(),
            BatchSize::SmallInput,
        );
        assert_eq!(setups, 4);
        assert_eq!(times.len(), 4);
    }

    #[test]
    fn benchmark_id_formats() {
        assert_eq!(BenchmarkId::from_parameter(20).to_string(), "20");
        assert_eq!(BenchmarkId::new("opt", 5).to_string(), "opt/5");
    }
}
