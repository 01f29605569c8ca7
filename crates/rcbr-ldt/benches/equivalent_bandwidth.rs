//! Criterion benches for the equivalent-bandwidth computation.
//!
//! The EB of a Markov-modulated source costs two repeated-squaring solves
//! per call — `ln ρ(P·diag(e^{θx}))` and the stationary distribution for
//! the mean-rate clamp, some sixty `n×n` products together — and `EbCache`
//! memoizes it. The benches time the cold computation at three chain
//! sizes and the memoized hit path, so both a numerical-kernel regression
//! and a cache regression are visible. `ramp_graded_52` is the admission
//! path's shape: the runtime estimator's units (unit slot, 52 grid levels
//! of 50 000), where the columns of the matrix span 51 orders of magnitude.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rcbr_ldt::{equivalent_bandwidth, EbCache, QosTarget};
use rcbr_traffic::markov::{MarkovChain, MarkovModulatedSource};
use rcbr_traffic::OnOffSource;

/// A deterministic n-state birth–death chain with ramped emissions.
fn ramp_source(n: usize, slot: f64) -> MarkovModulatedSource {
    let mut p = vec![vec![0.0f64; n]; n];
    for (i, row) in p.iter_mut().enumerate() {
        if i > 0 {
            row[i - 1] = 0.05;
        }
        if i + 1 < n {
            row[i + 1] = 0.05;
        }
        let off: f64 = row.iter().sum();
        row[i] = 1.0 - off;
    }
    let emissions: Vec<f64> = (0..n).map(|i| 50_000.0 * (i + 1) as f64).collect();
    MarkovModulatedSource::new(MarkovChain::new(p), emissions, slot)
}

fn bench_eb(c: &mut Criterion) {
    let qos = QosTarget::new(300_000.0, 1e-6);

    let mut group = c.benchmark_group("equivalent_bandwidth");
    group.sample_size(20);
    group.bench_function("onoff_2state", |b| {
        let src = OnOffSource::new(0.2, 0.2, 1_000_000.0, 0.04).as_source();
        b.iter(|| equivalent_bandwidth(&src, qos))
    });
    for n in [8usize, 32] {
        let src = ramp_source(n, 1.0 / 24.0);
        group.bench_with_input(BenchmarkId::new("ramp", n), &src, |b, src| {
            b.iter(|| equivalent_bandwidth(src, qos))
        });
    }
    group.bench_function("ramp_graded_52", |b| {
        let src = ramp_source(52, 1.0);
        b.iter(|| equivalent_bandwidth(&src, qos))
    });
    group.bench_function("memo_hit_32state", |b| {
        let src = ramp_source(32, 1.0 / 24.0);
        let mut cache = EbCache::new();
        cache.equivalent_bandwidth(&src, qos); // warm the entry
        b.iter(|| cache.equivalent_bandwidth(&src, qos))
    });
    group.finish();
}

criterion_group!(benches, bench_eb);
criterion_main!(benches);
