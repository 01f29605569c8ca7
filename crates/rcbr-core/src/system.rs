//! The whole service in one simulation: online sources, RM-style
//! renegotiation against a shared port, and measurement-based admission —
//! every layer of the paper composed, at frame granularity.
//!
//! The schedule-level engines ([`crate::scenario`], `rcbr-admission`'s
//! call simulator) are what the paper's figures use, because they are
//! fast. [`SystemSim`] is the cross-check: nothing is abstracted — each
//! source runs its own causal policy over its own buffer, every
//! renegotiation is a reservation attempt on the shared [`OutputPort`],
//! and arrivals are admitted by a pluggable [`AdmissionController`]
//! observing the port's real state.

use rcbr_admission::{AdmissionController, AdmissionSnapshot};
use rcbr_net::OutputPort;
use rcbr_schedule::{Ar1Config, Ar1Policy, OnlinePolicy};
use rcbr_sim::{FluidQueue, SimRng};
use rcbr_traffic::FrameTrace;
use serde::{Deserialize, Serialize};

/// Configuration of the system simulation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SystemConfig {
    /// Shared link capacity, bits/second.
    pub capacity: f64,
    /// Per-source end-system buffer, bits.
    pub buffer: f64,
    /// Poisson source-arrival rate, sources/second.
    pub arrival_rate: f64,
    /// Lifetime of each source, seconds (it then departs and releases its
    /// reservation).
    pub hold_time: f64,
    /// AR(1) policy parameters applied to every source.
    pub policy: Ar1Config,
    /// RNG seed.
    pub seed: u64,
}

/// Aggregate results of a system run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SystemReport {
    /// Sources offered / admitted / completed.
    pub offered: u64,
    /// Sources the controller admitted.
    pub admitted: u64,
    /// Renegotiation requests made against the port.
    pub requests: u64,
    /// Requests the port denied.
    pub denials: u64,
    /// Aggregate fraction of bits lost in source buffers.
    pub loss_fraction: f64,
    /// Time-average port utilization.
    pub utilization: f64,
}

struct LiveSource {
    policy: Ar1Policy,
    queue: FluidQueue,
    trace: FrameTrace,
    offset: usize,
    pos: usize,
    remaining_slots: usize,
    vci: u32,
}

/// The frame-granularity full-system simulator.
pub struct SystemSim<'a> {
    movie: &'a FrameTrace,
    config: SystemConfig,
}

impl<'a> SystemSim<'a> {
    /// Create a system over randomly phased copies of `movie`.
    ///
    /// # Panics
    /// Panics on nonpositive capacity, buffer, arrival rate, or hold time.
    pub fn new(movie: &'a FrameTrace, config: SystemConfig) -> Self {
        assert!(config.capacity > 0.0, "capacity must be positive");
        assert!(config.buffer > 0.0, "buffer must be positive");
        assert!(config.arrival_rate > 0.0, "arrival rate must be positive");
        assert!(config.hold_time > 0.0, "hold time must be positive");
        Self { movie, config }
    }

    /// Run for `duration` seconds under `controller`.
    pub fn run(&self, controller: &mut dyn AdmissionController, duration: f64) -> SystemReport {
        let cfg = &self.config;
        let tau = self.movie.frame_interval();
        let total_slots = (duration / tau).ceil() as usize;
        let hold_slots = (cfg.hold_time / tau).ceil().max(1.0) as usize;
        let mut rng = SimRng::from_seed(cfg.seed);

        let mut port = OutputPort::new(cfg.capacity);
        let mut sources: Vec<LiveSource> = Vec::new();
        let mut next_arrival = rng.exponential(cfg.arrival_rate);
        let mut next_vci = 1u32;

        let mut offered = 0u64;
        let mut admitted = 0u64;
        let mut requests = 0u64;
        let mut denials = 0u64;
        let mut arrived_bits = 0.0f64;
        let mut lost_bits = 0.0f64;
        let mut util_integral = 0.0f64;

        for slot in 0..total_slots {
            let now = slot as f64 * tau;
            // Source arrivals within this slot.
            while next_arrival <= now {
                next_arrival += rng.exponential(cfg.arrival_rate);
                offered += 1;
                let reservations: Vec<f64> = sources.iter().map(|s| port.vci_rate(s.vci)).collect();
                let snapshot = AdmissionSnapshot {
                    capacity: cfg.capacity,
                    time: now,
                    reservations: &reservations,
                };
                controller.observe(&snapshot);
                if !controller.admit(&snapshot) {
                    continue;
                }
                // The initial reservation must actually fit the port.
                let initial = cfg.policy.initial_rate;
                let vci = next_vci;
                next_vci += 1;
                if !port.try_reserve_delta(vci, initial) {
                    continue;
                }
                admitted += 1;
                sources.push(LiveSource {
                    policy: Ar1Policy::new(cfg.policy, tau),
                    queue: FluidQueue::new(cfg.buffer),
                    trace: self.movie.clone(),
                    offset: rng.index(self.movie.len()),
                    pos: 0,
                    remaining_slots: hold_slots,
                    vci,
                });
            }

            // Advance every live source one slot.
            for s in sources.iter_mut() {
                let bits = s.trace.bits_shifted(s.offset, s.pos % s.trace.len());
                s.pos += 1;
                s.remaining_slots -= 1;
                arrived_bits += bits;
                let rate = port.vci_rate(s.vci);
                let out = s.queue.offer(bits, rate * tau);
                lost_bits += out.lost;
                if let Some(want) = s.policy.observe_slot(bits, out.backlog) {
                    requests += 1;
                    let delta = want - rate;
                    if port.try_reserve_delta(s.vci, delta) {
                        s.policy.granted(want);
                    } else {
                        denials += 1;
                    }
                }
            }

            // Departures release reservations.
            sources.retain_mut(|s| {
                if s.remaining_slots == 0 {
                    port.release(s.vci);
                    false
                } else {
                    true
                }
            });

            util_integral += port.load().utilization() * tau;
        }

        SystemReport {
            offered,
            admitted,
            requests,
            denials,
            loss_fraction: if arrived_bits > 0.0 {
                lost_bits / arrived_bits
            } else {
                0.0
            },
            utilization: util_integral / (total_slots as f64 * tau),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcbr_admission::{Memoryless, PeakRate};
    use rcbr_traffic::SyntheticMpegSource;

    fn movie() -> FrameTrace {
        let mut rng = SimRng::from_seed(50);
        SyntheticMpegSource::star_wars_like().generate(4800, &mut rng)
    }

    fn config(movie: &FrameTrace, capacity: f64, seed: u64) -> SystemConfig {
        let tau = movie.frame_interval();
        SystemConfig {
            capacity,
            buffer: 300_000.0,
            arrival_rate: 0.2,
            hold_time: 60.0,
            policy: Ar1Config::fig2(64_000.0, movie.mean_rate(), tau),
            seed,
        }
    }

    #[test]
    fn uncongested_system_is_nearly_lossless() {
        let m = movie();
        let cfg = config(&m, 200.0 * m.mean_rate(), 1);
        let sim = SystemSim::new(&m, cfg);
        let mut ctl = Memoryless::new(1e-3);
        let report = sim.run(&mut ctl, 300.0);
        assert!(report.admitted > 10, "{report:?}");
        assert_eq!(report.denials, 0, "{report:?}");
        assert!(report.loss_fraction < 1e-3, "{report:?}");
        assert!(report.utilization > 0.0 && report.utilization < 0.5);
    }

    #[test]
    fn congested_system_denies_and_loses() {
        let m = movie();
        // Capacity for ~4 mean-rate sources, offered ~12 concurrently.
        let cfg = SystemConfig {
            arrival_rate: 0.2,
            ..config(&m, 4.0 * m.mean_rate(), 2)
        };
        let sim = SystemSim::new(&m, cfg);
        // Admit-everything controller: stress the port itself.
        struct AdmitAll;
        impl AdmissionController for AdmitAll {
            fn admit(&mut self, _s: &AdmissionSnapshot<'_>) -> bool {
                true
            }
            fn name(&self) -> &'static str {
                "admit-all"
            }
        }
        let report = sim.run(&mut AdmitAll, 300.0);
        assert!(report.denials > 0, "{report:?}");
        assert!(report.loss_fraction > 1e-3, "{report:?}");
        // The port never over-commits even under stress.
        assert!(report.utilization <= 1.0 + 1e-9);
    }

    #[test]
    fn peak_rate_admission_protects_the_system() {
        let m = movie();
        let capacity = 8.0 * m.peak_rate();
        let cfg = SystemConfig {
            arrival_rate: 0.5,
            ..config(&m, capacity, 3)
        };
        let sim = SystemSim::new(&m, cfg);
        let mut ctl = PeakRate::new(m.peak_rate());
        let report = sim.run(&mut ctl, 240.0);
        // Peak-rate admission leaves so much headroom that renegotiation
        // denials are essentially impossible.
        assert!(report.admitted > 0);
        assert!(
            (report.denials as f64) < 0.01 * report.requests.max(1) as f64,
            "{report:?}"
        );
        assert!(report.loss_fraction < 2e-3, "{report:?}");
    }

    #[test]
    fn deterministic_given_seed() {
        let m = movie();
        let cfg = config(&m, 20.0 * m.mean_rate(), 4);
        let mut a = Memoryless::new(1e-3);
        let mut b = Memoryless::new(1e-3);
        let ra = SystemSim::new(&m, cfg.clone()).run(&mut a, 120.0);
        let rb = SystemSim::new(&m, cfg).run(&mut b, 120.0);
        assert_eq!(ra.loss_fraction, rb.loss_fraction);
        assert_eq!(ra.requests, rb.requests);
        assert_eq!(ra.admitted, rb.admitted);
    }
}
