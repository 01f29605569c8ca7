//! Bit-exactness of the source round kernel.
//!
//! `VcDriver::step_round` steps up to `LANES` drivers a round at a time
//! with their state in locals, a wrapping trace cursor, the service
//! amount hoisted out of the round and the quantised target skipped where
//! nobody can observe it. None of that may show: per driver it must be a
//! plain loop of single slots, to the last mantissa bit. Three
//! implementations run the same verdict script here and must agree on
//! every emission and on all observable state after every round:
//!
//! * [`Plain`] — the slot as it was written before there was a kernel,
//!   from the public pieces (`FluidQueue::offer`, `observe_slot`,
//!   `slot % len`), evaluating everything every slot;
//! * `VcDriver::step`, one slot at a time;
//! * `VcDriver::step_round`, random lane counts and round lengths.
//!
//! The three share one copy of the float expressions, so agreement among
//! them cannot see an expression change; [`pinned_to_the_parent_commit`]
//! does, against a digest computed by the commit before the kernel.

use proptest::prelude::*;
use rcbr_schedule::{Ar1Config, Ar1Policy, OnlinePolicy, VcDriver, LANES};
use rcbr_sim::{FluidQueue, SimRng};
use rcbr_traffic::{FrameTrace, SyntheticMpegSource};

/// The pre-kernel `VcDriver::step`, kept as the oracle.
struct Plain {
    trace: FrameTrace,
    policy: Ar1Policy,
    queue: FluidQueue,
    slot: usize,
    pending: Option<f64>,
    requests: u64,
}

impl Plain {
    fn new(trace: FrameTrace, policy: Ar1Policy, buffer: f64) -> Self {
        Self {
            trace,
            policy,
            queue: FluidQueue::new(buffer),
            slot: 0,
            pending: None,
            requests: 0,
        }
    }

    fn step(&mut self) -> Option<f64> {
        let bits = self.trace.bits(self.slot % self.trace.len());
        self.slot += 1;
        let out = self.queue.offer(
            bits,
            self.policy.current_rate() * self.trace.frame_interval(),
        );
        let want = self.policy.observe_slot(bits, out.backlog);
        match want {
            Some(rate) if self.pending.is_none() => {
                self.pending = Some(rate);
                self.requests += 1;
                Some(rate)
            }
            _ => None,
        }
    }

    /// `(loss, current rate, estimate)` bits, requests, slots.
    fn observable(&self) -> ([u64; 3], u64, usize) {
        (
            [
                self.queue.loss_fraction().to_bits(),
                self.policy.current_rate().to_bits(),
                self.policy.estimate().to_bits(),
            ],
            self.requests,
            self.slot,
        )
    }
}

fn observable(d: &VcDriver<Ar1Policy>) -> ([u64; 3], u64, usize) {
    (
        [
            d.loss_fraction().to_bits(),
            d.current_rate().to_bits(),
            d.policy().estimate().to_bits(),
        ],
        d.requests(),
        d.slots(),
    )
}

#[derive(Clone, Copy)]
enum Verdict {
    Grant,
    Deny,
    Lost,
    Abandon,
}

/// One source under all three implementations, plus its share of the
/// verdict script.
struct Triple {
    plain: Plain,
    stepped: VcDriver<Ar1Policy>,
    abreast: VcDriver<Ar1Policy>,
    /// The outstanding request's verdict and the round top it lands at.
    due: Option<(usize, Verdict)>,
    offer: bool,
}

impl Triple {
    fn new(trace: FrameTrace, cfg: Ar1Config, buffer: f64) -> Self {
        let policy = || Ar1Policy::new(cfg, trace.frame_interval());
        Self {
            plain: Plain::new(trace.clone(), policy(), buffer),
            stepped: VcDriver::new(trace.clone(), policy(), buffer),
            abreast: VcDriver::new(trace.clone(), policy(), buffer),
            due: None,
            offer: true,
        }
    }

    fn deliver(&mut self, verdict: Verdict) {
        match verdict {
            Verdict::Grant => {
                let rate = self.plain.pending.take().expect("grant");
                self.plain.policy.granted(rate);
                self.stepped.on_grant();
                self.abreast.on_grant();
            }
            Verdict::Deny => {
                self.plain.pending.take().expect("deny");
                self.stepped.on_deny();
                self.abreast.on_deny();
            }
            Verdict::Lost => {
                self.plain.pending.take().expect("lost");
                self.stepped.on_lost();
                self.abreast.on_lost();
            }
            Verdict::Abandon => {
                self.plain.pending.take().expect("abandon");
                self.stepped.abandon();
                self.abreast.abandon();
            }
        }
    }

    /// `n` single slots on the two slot-at-a-time implementations: a
    /// request raised while not offering is abandoned on the spot. Returns
    /// each one's emission `(slot, rate bits)`.
    fn step_singly(&mut self, n: usize) -> [Option<(usize, u64)>; 2] {
        let mut emitted = [None; 2];
        for slot in 0..n {
            if let Some(rate) = self.plain.step() {
                if self.offer {
                    assert!(emitted[0].is_none(), "two emissions in one round");
                    emitted[0] = Some((slot, rate.to_bits()));
                } else {
                    self.plain.pending = None;
                }
            }
            if let Some(rate) = self.stepped.step() {
                if self.offer {
                    emitted[1] = Some((slot, rate.to_bits()));
                } else {
                    self.stepped.abandon();
                }
            }
        }
        emitted
    }
}

/// Run `rounds` rounds of `n` slots over `sources` (at most `LANES`),
/// asserting agreement after every round.
fn run_script(
    sources: &mut [Triple],
    rounds: usize,
    n: usize,
    script: &mut SimRng,
) -> Result<(), TestCaseError> {
    for round in 0..rounds {
        // Round top: land the verdicts that are due, pick who offers.
        for s in sources.iter_mut() {
            if let Some((at, verdict)) = s.due {
                if round >= at {
                    s.deliver(verdict);
                    s.due = None;
                }
            }
            // `offer = false` comes in stretches, like a brownout.
            if script.chance(0.15) {
                s.offer = !s.offer;
            }
        }
        let singly: Vec<_> = sources.iter_mut().map(|s| s.step_singly(n)).collect();
        let mut it = sources.iter_mut();
        let lanes = std::array::from_fn(|_| it.next().map(|s| (&mut s.abreast, s.offer)));
        let abreast = VcDriver::step_round(lanes, n);

        for (l, s) in sources.iter_mut().enumerate() {
            let got = abreast[l].map(|(slot, rate)| (slot, rate.to_bits()));
            prop_assert_eq!(singly[l][0], singly[l][1], "step, round {}", round);
            prop_assert_eq!(singly[l][0], got, "step_round, round {}", round);
            prop_assert_eq!(s.plain.observable(), observable(&s.stepped));
            prop_assert_eq!(s.plain.observable(), observable(&s.abreast));
            prop_assert_eq!(s.plain.pending, s.stepped.pending_rate());
            prop_assert_eq!(s.plain.pending, s.abreast.pending_rate());
            if got.is_some() {
                let verdict = [
                    Verdict::Grant,
                    Verdict::Grant,
                    Verdict::Deny,
                    Verdict::Lost,
                    Verdict::Abandon,
                ][script.index(5)];
                s.due = Some((round + 1 + script.index(8), verdict));
            }
        }
        for lane in &abreast[sources.len()..] {
            prop_assert!(lane.is_none(), "an empty lane emitted");
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Plain slots ≡ `step` ≡ `step_round`, on random traces short enough
    /// that the cursor wraps several times inside one round.
    #[test]
    fn round_kernel_matches_single_slots_bit_for_bit(
        traces in collection::vec(collection::vec(0.0..60_000.0f64, 1..200), LANES),
        lanes in 1usize..LANES + 1,
        n_pick in 0usize..5,
        rounds in 8usize..40,
        ar_coefficient in 0.0..0.99f64,
        buffer_low in 0.0..20_000.0f64,
        band in 1.0..150_000.0f64,
        flush_frames in 0.5..20.0f64,
        granularity in 1_000.0..100_000.0f64,
        initial_rate in 0.0..800_000.0f64,
        buffer in 0.0..400_000.0f64,
        script_seed in any::<u64>(),
    ) {
        let tau = 1.0 / 24.0;
        let cfg = Ar1Config {
            ar_coefficient,
            buffer_low,
            buffer_high: buffer_low + band,
            flush_time: flush_frames * tau,
            granularity,
            initial_rate,
        };
        // 640 is a x10 storm round of the runtime's 64.
        let n = [1usize, 7, 64, 200, 640][n_pick];
        let mut sources: Vec<Triple> = traces
            .into_iter()
            .take(lanes)
            .map(|bits| Triple::new(FrameTrace::new(tau, bits), cfg, buffer))
            .collect();
        run_script(&mut sources, rounds, n, &mut SimRng::from_seed(script_seed))?;
    }
}

/// FNV-1a, to fold a run into one word.
fn fold(digest: &mut u64, word: u64) {
    for byte in word.to_le_bytes() {
        *digest = (*digest ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// The float expressions themselves, pinned: eight MPEG-like sources as
/// the signaling runtime parameterises them, 150 rounds of 64 slots,
/// even-numbered ones granted at the next round top and odd ones denied.
/// The digest folds every emission and every source's final loss,
/// estimate and rate; the constant is what the commit before the round
/// kernel computes for this scenario with its `VcDriver::step`. Reassociate
/// one expression — `(q + a) − s` into `q + (a − s)` in
/// `FluidQueue::offer_prechecked`, say — and it moves.
#[test]
fn pinned_to_the_parent_commit() {
    let mut drivers: Vec<VcDriver<Ar1Policy>> = (0..8u64)
        .map(|v| {
            let mut rng = SimRng::from_seed(7).substream(v + 1);
            let trace = SyntheticMpegSource::star_wars_like().generate(2048, &mut rng);
            let tau = trace.frame_interval();
            let policy = Ar1Policy::new(Ar1Config::fig2(50_000.0, 374_000.0, tau), tau);
            VcDriver::new(trace, policy, 300_000.0)
        })
        .collect();
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let mut emissions = 0;
    for round in 0..150u64 {
        for (v, d) in drivers.iter_mut().enumerate() {
            if d.has_pending() {
                if v % 2 == 0 {
                    d.on_grant();
                } else {
                    d.on_deny();
                }
            }
        }
        for (g, group) in drivers.chunks_mut(LANES).enumerate() {
            let mut group = group.iter_mut();
            let lanes = std::array::from_fn(|_| group.next().map(|d| (d, true)));
            for (l, hit) in VcDriver::step_round(lanes, 64).into_iter().enumerate() {
                if let Some((slot, rate)) = hit {
                    emissions += 1;
                    fold(&mut digest, round);
                    fold(&mut digest, (g * LANES + l) as u64);
                    fold(&mut digest, slot as u64);
                    fold(&mut digest, rate.to_bits());
                }
            }
        }
    }
    for d in &drivers {
        fold(&mut digest, d.loss_fraction().to_bits());
        fold(&mut digest, d.policy().estimate().to_bits());
        fold(&mut digest, d.current_rate().to_bits());
        fold(&mut digest, d.requests());
    }
    assert_eq!(
        (emissions, digest),
        PARENT,
        "got {emissions}, {digest:#018x}"
    );
}

/// `(emissions, digest)` of [`pinned_to_the_parent_commit`]'s scenario at
/// the parent commit.
const PARENT: (u32, u64) = (1033, 0x6e49_74f4_f46f_1ca3);
