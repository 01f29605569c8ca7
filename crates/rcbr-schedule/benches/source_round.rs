//! Criterion bench for the source round kernel: `VcDriver::step` one slot
//! at a time against `VcDriver::step_round` over `LANES` drivers.
//!
//! The working set is the signaling runtime's, not one hot trace: 768
//! distinct `star_wars_like` traces of 2048 frames (12 MiB) stepped in
//! 64-slot rounds, every driver once per round. One sample is
//! `ROUNDS` rounds = 983 040 slots, so a median in milliseconds reads as
//! nanoseconds per slot to within 2 %.
//!
//! Two verdict schedules, because a driver with a request in flight
//! skips the quantised target: `granted` answers every request at the top
//! of the next round (the runtime's calm operating point), `withheld`
//! six rounds late (a denial plateau, where nearly every slot is in
//! flight).

use criterion::{criterion_group, criterion_main, Criterion};
use rcbr_schedule::{Ar1Config, Ar1Policy, VcDriver, LANES};
use rcbr_sim::SimRng;
use rcbr_traffic::SyntheticMpegSource;

const VCS: usize = 768;
const FRAMES: usize = 2048;
const SLOTS: usize = 64;
const ROUNDS: usize = 20;

/// The runtime's sources as `RuntimeConfig::balanced` parameterises them.
fn drivers() -> Vec<VcDriver<Ar1Policy>> {
    (0..VCS as u64)
        .map(|v| {
            let mut rng = SimRng::from_seed(7).substream(v + 1);
            let trace = SyntheticMpegSource::star_wars_like().generate(FRAMES, &mut rng);
            let tau = trace.frame_interval();
            let policy = Ar1Policy::new(Ar1Config::fig2(50_000.0, 374_000.0, tau), tau);
            VcDriver::new(trace, policy, 300_000.0)
        })
        .collect()
}

/// Grant every request that has waited `delay` rounds.
struct Verdicts {
    delay: usize,
    asked_at: Vec<usize>,
    round: usize,
}

impl Verdicts {
    fn new(delay: usize) -> Self {
        Self {
            delay,
            asked_at: vec![0; VCS],
            round: 0,
        }
    }

    fn round_top(&mut self, drivers: &mut [VcDriver<Ar1Policy>]) {
        self.round += 1;
        for (d, &asked) in drivers.iter_mut().zip(&self.asked_at) {
            if d.has_pending() && self.round - asked >= self.delay {
                d.on_grant();
            }
        }
    }
}

fn bench_schedule(c: &mut Criterion, name: &str, delay: usize) {
    let mut group = c.benchmark_group(format!("source_round_{name}"));
    group.sample_size(10);

    let mut ds = drivers();
    let mut verdicts = Verdicts::new(delay);
    group.bench_function("step", |b| {
        b.iter(|| {
            for _ in 0..ROUNDS {
                verdicts.round_top(&mut ds);
                for (v, d) in ds.iter_mut().enumerate() {
                    for _ in 0..SLOTS {
                        if d.step().is_some() {
                            verdicts.asked_at[v] = verdicts.round;
                        }
                    }
                }
            }
        })
    });

    let mut ds = drivers();
    let mut verdicts = Verdicts::new(delay);
    group.bench_function(format!("step_round_x{LANES}"), |b| {
        b.iter(|| {
            for _ in 0..ROUNDS {
                verdicts.round_top(&mut ds);
                for (g, group) in ds.chunks_mut(LANES).enumerate() {
                    let mut group = group.iter_mut();
                    let lanes = std::array::from_fn(|_| group.next().map(|d| (d, true)));
                    for (l, hit) in VcDriver::step_round(lanes, SLOTS).iter().enumerate() {
                        if hit.is_some() {
                            verdicts.asked_at[g * LANES + l] = verdicts.round;
                        }
                    }
                }
            }
        })
    });
    group.finish();
}

fn bench_source_round(c: &mut Criterion) {
    bench_schedule(c, "granted", 1);
    bench_schedule(c, "withheld", 6);
}

criterion_group!(benches, bench_source_round);
criterion_main!(benches);
