//! Criterion bench for the per-hop path: a sorted batch of `Job`s, one
//! per VC, through `ShardState::advance_superstep`, hop after hop to the
//! end of their routes, on a single shard.
//!
//! Two shapes, the benchmark's: `calm_grant` — 768 VCs over 96 switches,
//! 32 VCs a switch, 4 hops a VC — and `calm_grant_wide`'s switch
//! population — 4096 VCs over 512 switches, the same 32 a switch, on a
//! working set five times the size. Faults off, capacity ample, so every
//! visit is the fast path: resolve the VC at the switch, book a delta,
//! count, forward; the last hop delivers a verdict. Batches alternate
//! `+g` and `-g` on every VC, so the switches end a sample as they began
//! it. One sample is `HOPS` (about a million) hop visits: **a median in
//! milliseconds reads as nanoseconds per hop**. The superstep's sort (of
//! an already sorted batch), the hand-off swap and the tally fold are
//! inside the measurement, as they are inside a run's drain loop.
//!
//! Medians on the 2-core 2.1 GHz Xeon this repository is measured on,
//! the lowest of three runs alternated between the two builds, at the
//! commit before the switch got its VC table (three `BTreeMap` walks,
//! shared atomic counters and a `Mutex` per verdict, jobs moved by value)
//! and at the commit that introduced this bench:
//!
//! | shape             | before      | after       |
//! |-------------------|-------------|-------------|
//! | `calm_grant`      | 70.7 ns/hop | 26.1 ns/hop |
//! | `calm_grant_wide` | 76.7 ns/hop | 28.6 ns/hop |

use criterion::{criterion_group, criterion_main, Criterion};
use rcbr_net::{FaultConfig, SALT_PRIMARY};
use rcbr_runtime::core::{Job, JobKind, Route};
use rcbr_runtime::kernel::{ShardState, Shared};
use rcbr_runtime::RuntimeConfig;

/// Hop visits per sample, to within a batch.
const HOPS: usize = 1_000_000;

fn bench_shape(c: &mut Criterion, name: &str, num_vcs: usize) {
    let mut cfg = RuntimeConfig::balanced(1, num_vcs);
    cfg.fault = FaultConfig::transparent();
    // The sources never step here; their traces only cost set-up time.
    cfg.trace_frames = 8;
    let sh = Shared::new(&cfg);
    let mut state = ShardState::new(&sh, 0, 1).expect("balanced capacity fits");
    let routes: Vec<Route> = (0..num_vcs as u32)
        .map(|vci| Route::from_slice(&cfg.path_of(vci)))
        .collect();
    let batches = HOPS / (num_vcs * cfg.hops_per_vc);
    let mut jobs: Vec<Job> = Vec::new();
    let mut lap = 0u64;

    let mut group = c.benchmark_group(format!("per_hop_{name}"));
    group.sample_size(10);
    group.bench_function("advance_superstep", |b| {
        b.iter(|| {
            for _ in 0..batches {
                lap += 1;
                let delta = if lap % 2 == 1 {
                    cfg.granularity
                } else {
                    -cfg.granularity
                };
                jobs.extend(routes.iter().enumerate().map(|(vci, &route)| Job {
                    seq: lap * num_vcs as u64 + vci as u64,
                    vci: vci as u32,
                    hop: 0,
                    kind: JobKind::Delta(delta),
                    salt: SALT_PRIMARY,
                    origin: 0,
                    cleared: false,
                    class: cfg.class_of(vci as u32),
                    pressured: false,
                    route,
                }));
                while !jobs.is_empty() {
                    state.open_superstep(&mut jobs);
                    state.advance_superstep(&mut jobs);
                    std::mem::swap(&mut jobs, &mut state.outbox()[0]);
                }
            }
        })
    });
    group.finish();
}

fn bench_per_hop(c: &mut Criterion) {
    bench_shape(c, "calm_grant", 768);
    bench_shape(c, "calm_grant_wide", 4096);
}

criterion_group!(benches, bench_per_hop);
criterion_main!(benches);
