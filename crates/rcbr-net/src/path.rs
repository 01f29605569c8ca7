//! Multi-hop renegotiation.
//!
//! Section III-C: "As the mean number of hops in the network increases,
//! the probability of renegotiation failure is likely to increase since
//! each hop is a possible point of failure." A [`Path`] carries a
//! renegotiation request through a sequence of switches; a denial at hop
//! `k` rolls back the reservations already made at hops `0..k` so no
//! bandwidth leaks, and per-hop latency accumulates into the round-trip
//! time an offline source must anticipate (Section III-C's scaling
//! discussion).

use serde::{Deserialize, Serialize};

use crate::rm::RmCell;
use crate::switch::{Switch, SwitchError};

/// The result of pushing a renegotiation along a path.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RenegotiationOutcome {
    /// Whether every hop granted the request.
    pub granted: bool,
    /// Index of the first hop that denied (if any).
    pub denied_at: Option<usize>,
    /// One-way request latency plus the confirmation on the way back,
    /// seconds.
    pub round_trip: f64,
}

/// A source's route: hop indices into a switch population plus per-hop
/// one-way latency.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Path {
    hops: Vec<usize>,
    hop_latency: f64,
}

impl Path {
    /// Create a path through `hops` (indices into the caller's switch
    /// slice) with a one-way per-hop latency in seconds.
    ///
    /// # Panics
    /// Panics if the path is empty or the latency is negative.
    pub fn new(hops: Vec<usize>, hop_latency: f64) -> Self {
        assert!(!hops.is_empty(), "path must have at least one hop");
        assert!(
            hop_latency >= 0.0 && hop_latency.is_finite(),
            "invalid hop latency"
        );
        Self { hops, hop_latency }
    }

    /// Hop indices.
    pub fn hops(&self) -> &[usize] {
        &self.hops
    }

    /// Set up the connection on every hop at `rate`; on a hop that cannot
    /// fit it, tears down the hops already set up and reports the blocking
    /// hop.
    pub fn setup(
        &self,
        switches: &mut [Switch],
        vci: u32,
        port: usize,
        rate: f64,
    ) -> Result<Result<(), usize>, SwitchError> {
        for (k, &h) in self.hops.iter().enumerate() {
            let ok = switches[h].setup(vci, port, rate)?;
            if !ok {
                for &hh in &self.hops[..k] {
                    switches[hh].teardown(vci)?;
                }
                // Undo the failed hop's table entry too (setup without
                // reservation leaves no entry, so nothing to undo there).
                return Ok(Err(k));
            }
        }
        Ok(Ok(()))
    }

    /// Tear the connection down on every hop.
    pub fn teardown(&self, switches: &mut [Switch], vci: u32) -> Result<(), SwitchError> {
        for &h in &self.hops {
            switches[h].teardown(vci)?;
        }
        Ok(())
    }

    /// Push a renegotiation delta through every hop, with all-or-nothing
    /// semantics: the first denial rolls back the hops already granted.
    pub fn renegotiate(
        &self,
        switches: &mut [Switch],
        vci: u32,
        delta: f64,
    ) -> Result<RenegotiationOutcome, SwitchError> {
        let mut cell = RmCell::delta(vci, delta);
        let mut granted_hops = 0usize;
        let mut denied_at = None;
        for (k, &h) in self.hops.iter().enumerate() {
            cell = switches[h].process_rm(cell)?;
            if cell.denied {
                denied_at = Some(k);
                break;
            }
            granted_hops = k + 1;
        }
        if cell.denied {
            for &h in &self.hops[..granted_hops] {
                switches[h].rollback_delta(vci, delta)?;
            }
        }
        Ok(RenegotiationOutcome {
            granted: !cell.denied,
            denied_at,
            // Request travels to the denial point (or the end) and the
            // verdict returns to the source.
            round_trip: self.hop_latency
                * match denied_at {
                    Some(k) => 2.0 * (k + 1) as f64,
                    None => 2.0 * self.hops.len() as f64,
                },
        })
    }

    /// Push an absolute-rate resync through every hop (no rollback: a
    /// resync that fails at some hop leaves earlier hops already
    /// synchronized, which is still closer to the truth than before).
    /// Returns whether every hop accepted.
    pub fn resync(
        &self,
        switches: &mut [Switch],
        vci: u32,
        rate: f64,
    ) -> Result<bool, SwitchError> {
        let mut cell = RmCell::resync(vci, rate);
        for &h in &self.hops {
            cell = switches[h].process_rm(cell)?;
            if cell.denied {
                return Ok(false);
            }
        }
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn three_switches(caps: [f64; 3]) -> Vec<Switch> {
        caps.iter().map(|&c| Switch::new(&[c])).collect()
    }

    #[test]
    fn end_to_end_grant() {
        let mut sw = three_switches([1000.0, 1000.0, 1000.0]);
        let path = Path::new(vec![0, 1, 2], 0.001);
        assert_eq!(path.setup(&mut sw, 1, 0, 300.0).unwrap(), Ok(()));
        let out = path.renegotiate(&mut sw, 1, 200.0).unwrap();
        assert!(out.granted);
        assert_eq!(out.denied_at, None);
        assert!((out.round_trip - 0.006).abs() < 1e-12);
        for s in &sw {
            assert_eq!(s.vci_rate(1), Some(500.0));
        }
    }

    #[test]
    fn bottleneck_denial_rolls_back() {
        let mut sw = three_switches([1000.0, 400.0, 1000.0]);
        let path = Path::new(vec![0, 1, 2], 0.001);
        assert_eq!(path.setup(&mut sw, 1, 0, 300.0).unwrap(), Ok(()));
        let out = path.renegotiate(&mut sw, 1, 200.0).unwrap();
        assert!(!out.granted);
        assert_eq!(out.denied_at, Some(1));
        // Round trip: to hop 1 and back.
        assert!((out.round_trip - 0.004).abs() < 1e-12);
        // Every hop still holds exactly the old rate.
        for s in &sw {
            assert_eq!(s.vci_rate(1), Some(300.0));
        }
    }

    #[test]
    fn setup_blocking_reports_hop_and_leaks_nothing() {
        let mut sw = three_switches([1000.0, 100.0, 1000.0]);
        let path = Path::new(vec![0, 1, 2], 0.0);
        assert_eq!(path.setup(&mut sw, 1, 0, 300.0).unwrap(), Err(1));
        for s in &sw {
            assert_eq!(s.vci_rate(1), None);
            assert_eq!(s.port(0).unwrap().reserved(), 0.0);
        }
    }

    #[test]
    fn teardown_releases_all_hops() {
        let mut sw = three_switches([1000.0; 3]);
        let path = Path::new(vec![0, 1, 2], 0.0);
        path.setup(&mut sw, 1, 0, 250.0).unwrap().unwrap();
        path.teardown(&mut sw, 1).unwrap();
        for s in &sw {
            assert_eq!(s.port(0).unwrap().reserved(), 0.0);
        }
    }

    #[test]
    fn more_hops_more_failure_opportunities() {
        // Two flows; flow 2 congests the last hop only. A short path avoids
        // it, the long path gets denied there.
        let mut sw = three_switches([1000.0, 1000.0, 500.0]);
        let long = Path::new(vec![0, 1, 2], 0.0);
        let short = Path::new(vec![0, 1], 0.0);
        long.setup(&mut sw, 1, 0, 300.0).unwrap().unwrap();
        short.setup(&mut sw, 2, 0, 300.0).unwrap().unwrap();
        // Congest hop 2.
        sw[2].setup(3, 0, 190.0).unwrap();
        let up_long = long.renegotiate(&mut sw, 1, 100.0).unwrap();
        let up_short = short.renegotiate(&mut sw, 2, 100.0).unwrap();
        assert!(!up_long.granted);
        assert!(up_short.granted);
    }

    #[test]
    fn resync_repairs_after_drift() {
        let mut sw = three_switches([1000.0; 3]);
        let path = Path::new(vec![0, 1, 2], 0.0);
        path.setup(&mut sw, 1, 0, 300.0).unwrap().unwrap();
        // Simulate drift: hop 1 missed a +100 delta.
        sw[0].process_rm(RmCell::delta(1, 100.0)).unwrap();
        sw[2].process_rm(RmCell::delta(1, 100.0)).unwrap();
        assert_eq!(sw[1].vci_rate(1), Some(300.0));
        assert!(path.resync(&mut sw, 1, 400.0).unwrap());
        for s in &sw {
            assert_eq!(s.vci_rate(1), Some(400.0));
        }
    }
}
