//! On/off fluid sources.
//!
//! The classic two-state building block: the source emits at `peak_rate`
//! while *on* and is silent while *off*, with geometric sojourns. The
//! memoryless MBAC of Gibbens et al. (referenced in Section VI) was studied
//! for exactly these sources, and they make clean test inputs for the
//! equivalent-bandwidth machinery because their effective bandwidth has a
//! closed form.

use serde::{Deserialize, Serialize};

use crate::markov::{MarkovChain, MarkovModulatedSource};

/// A discrete-time on/off source.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OnOffSource {
    /// Probability of turning on in a slot (off -> on).
    pub p_on: f64,
    /// Probability of turning off in a slot (on -> off).
    pub p_off: f64,
    /// Emission rate while on, bits/second.
    pub peak_rate: f64,
    /// Slot duration, seconds.
    pub slot: f64,
}

impl OnOffSource {
    /// Build a source.
    ///
    /// # Panics
    /// Panics unless probabilities are in `(0, 1]`, `peak_rate > 0`, and
    /// `slot > 0`.
    pub fn new(p_on: f64, p_off: f64, peak_rate: f64, slot: f64) -> Self {
        assert!(p_on > 0.0 && p_on <= 1.0, "p_on must be in (0,1]");
        assert!(p_off > 0.0 && p_off <= 1.0, "p_off must be in (0,1]");
        assert!(peak_rate > 0.0, "peak rate must be positive");
        assert!(slot > 0.0, "slot must be positive");
        Self {
            p_on,
            p_off,
            peak_rate,
            slot,
        }
    }

    /// As a two-state Markov-modulated source (state 0 = off, 1 = on).
    pub fn as_source(&self) -> MarkovModulatedSource {
        MarkovModulatedSource::new(
            MarkovChain::two_state(self.p_on, self.p_off),
            vec![0.0, self.peak_rate * self.slot],
            self.slot,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcbr_sim::SimRng;

    #[test]
    fn stationary_on_probability() {
        // On a quarter of the time: p_on / (p_on + p_off) = 0.25.
        let s = OnOffSource::new(0.1, 0.3, 1000.0, 1.0);
        assert!((s.as_source().mean_rate() - 250.0).abs() < 1e-12);
    }

    #[test]
    fn as_source_matches_analytics() {
        let s = OnOffSource::new(0.2, 0.2, 2000.0, 0.5);
        let src = s.as_source();
        let mean = s.peak_rate / 2.0;
        assert!((src.mean_rate() - mean).abs() < 1e-9);
        assert!((src.peak_rate() - s.peak_rate).abs() < 1e-9);
        let mut rng = SimRng::from_seed(5);
        let tr = src.generate(100_000, &mut rng);
        assert!((tr.mean_rate() - mean).abs() / mean < 0.03);
    }

    #[test]
    #[should_panic(expected = "p_on")]
    fn zero_p_on_rejected() {
        OnOffSource::new(0.0, 0.5, 1.0, 1.0);
    }
}
