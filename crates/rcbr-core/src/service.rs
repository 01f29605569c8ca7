//! The full Section III service: a source endpoint signaling through a
//! multi-hop ATM path.
//!
//! [`RcbrConnection`] couples the endpoint-facing renegotiation API with
//! the [`rcbr_net`] substrate: delta-encoded RM cells along the path, a
//! deterministic [`FaultPlane`] deciding each request cell's fate (loss
//! causes the parameter drift of the paper's footnote 2), and periodic
//! absolute-rate resync that repairs it.
//!
//! Signaling here is optimistic one-way, as in ABR-style RM-cell usage:
//! the source applies its new rate after emitting the request cell, so a
//! lost cell leaves switches believing an older rate until the next
//! resync. This is exactly the failure mode the resync mechanism exists
//! for, and the integration tests demonstrate both the drift and the
//! repair.

use rcbr_net::{FaultAction, FaultPlane, Path, Switch};
use serde::{Deserialize, Serialize};

/// Connection-level configuration.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ServiceConfig {
    /// Send an absolute-rate resync every this many renegotiations
    /// (`0` disables resync).
    pub resync_every: u64,
}

impl ServiceConfig {
    /// Resync every `n` renegotiations.
    pub fn new(resync_every: u64) -> Self {
        Self { resync_every }
    }
}

/// Errors surfaced by the connection API.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// The underlying switch rejected an operation structurally (unknown
    /// VCI/port), which indicates a wiring bug, not congestion.
    Switch(rcbr_net::SwitchError),
    /// Call setup was blocked at a hop by insufficient capacity.
    SetupBlocked {
        /// Index of the blocking hop.
        hop: usize,
    },
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Switch(e) => write!(f, "switch error: {e}"),
            ServiceError::SetupBlocked { hop } => write!(f, "setup blocked at hop {hop}"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<rcbr_net::SwitchError> for ServiceError {
    fn from(e: rcbr_net::SwitchError) -> Self {
        ServiceError::Switch(e)
    }
}

/// A live RCBR connection.
#[derive(Debug)]
pub struct RcbrConnection {
    vci: u32,
    path: Path,
    config: ServiceConfig,
    /// The rate the *source* believes it holds.
    believed_rate: f64,
    renegotiations: u64,
    resyncs: u64,
    lost_cells: u64,
}

impl RcbrConnection {
    /// Establish a connection at `initial_rate` along `path` (reserving on
    /// output port 0 of each hop's switch).
    pub fn establish(
        switches: &mut [Switch],
        path: Path,
        vci: u32,
        initial_rate: f64,
    ) -> Result<Self, ServiceError> {
        match path.setup(switches, vci, 0, initial_rate)? {
            Ok(()) => Ok(Self {
                vci,
                path,
                config: ServiceConfig::new(0),
                believed_rate: initial_rate,
                renegotiations: 0,
                resyncs: 0,
                lost_cells: 0,
            }),
            Err(hop) => Err(ServiceError::SetupBlocked { hop }),
        }
    }

    /// Set the resync policy.
    pub fn with_config(mut self, config: ServiceConfig) -> Self {
        self.config = config;
        self
    }

    /// The VCI.
    pub fn vci(&self) -> u32 {
        self.vci
    }

    /// The rate the source believes it holds, bits/second.
    pub fn believed_rate(&self) -> f64 {
        self.believed_rate
    }

    /// Resyncs sent so far.
    pub fn resyncs(&self) -> u64 {
        self.resyncs
    }

    /// Request cells lost in transit so far (dropped outright, or
    /// corrupted and discarded by the checksum).
    pub fn lost_cells(&self) -> u64 {
        self.lost_cells
    }

    /// Renegotiate to `new_rate`, optimistically. The request cell's fate
    /// is decided by `plane` (drift on loss or duplication); periodic
    /// resync repairs switch state.
    ///
    /// Returns `true` if the source now believes it holds `new_rate` —
    /// which, with optimistic signaling, is the case unless a delivered
    /// request was *denied* by a hop.
    pub fn renegotiate(
        &mut self,
        switches: &mut [Switch],
        plane: &FaultPlane,
        new_rate: f64,
    ) -> Result<bool, ServiceError> {
        assert!(
            new_rate >= 0.0 && new_rate.is_finite(),
            "rate must be nonnegative"
        );
        let delta = new_rate - self.believed_rate;
        let seq = self.renegotiations;
        self.renegotiations += 1;
        let mut ok = true;
        match plane.decide(seq, 0, 0) {
            FaultAction::Drop | FaultAction::Corrupt => {
                // Cell lost in transit (a corrupted cell is caught by the
                // checksum and discarded — same fate): the source, having
                // heard no denial, proceeds at the new rate while switches
                // lag — drift.
                self.lost_cells += 1;
                self.believed_rate = new_rate;
            }
            FaultAction::Deliver | FaultAction::Delay(_) => {
                // This synchronous API has no clock, so a delayed cell is
                // just a delivered one.
                ok = self.path.renegotiate(switches, self.vci, delta)?.granted;
                if ok {
                    self.believed_rate = new_rate;
                }
            }
            FaultAction::Duplicate => {
                ok = self.path.renegotiate(switches, self.vci, delta)?.granted;
                if ok {
                    self.believed_rate = new_rate;
                    // The duplicate applies the delta a second time where
                    // it fits — over-reservation drift the next resync
                    // returns to the pool.
                    let _ = self.path.renegotiate(switches, self.vci, delta)?;
                }
            }
        }
        if self.config.resync_every > 0
            && self.renegotiations.is_multiple_of(self.config.resync_every)
        {
            self.resync(switches)?;
        }
        Ok(ok)
    }

    /// Send an absolute-rate resync now.
    pub fn resync(&mut self, switches: &mut [Switch]) -> Result<bool, ServiceError> {
        self.resyncs += 1;
        Ok(self.path.resync(switches, self.vci, self.believed_rate)?)
    }

    /// Largest disagreement between the source's believed rate and any
    /// hop's reservation, bits/second (0 when fully synchronized).
    pub fn drift(&self, switches: &[Switch]) -> f64 {
        self.path
            .hops()
            .iter()
            .map(|&h| (switches[h].vci_rate(self.vci).unwrap_or(0.0) - self.believed_rate).abs())
            .fold(0.0f64, f64::max)
    }

    /// Tear the connection down.
    pub fn teardown(self, switches: &mut [Switch]) -> Result<(), ServiceError> {
        self.path.teardown(switches, self.vci)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcbr_net::FaultConfig;
    use rcbr_sim::SimRng;

    fn network() -> Vec<Switch> {
        (0..3).map(|_| Switch::new(&[1_000_000.0])).collect()
    }

    fn path() -> Path {
        Path::new(vec![0, 1, 2], 0.001)
    }

    #[test]
    fn lossless_signaling_stays_synchronized() {
        let mut sw = network();
        let mut conn = RcbrConnection::establish(&mut sw, path(), 1, 100_000.0).unwrap();
        let plane = FaultPlane::transparent();
        for rate in [200_000.0, 150_000.0, 400_000.0] {
            assert!(conn.renegotiate(&mut sw, &plane, rate).unwrap());
            assert_eq!(conn.drift(&sw), 0.0);
        }
        assert_eq!(conn.lost_cells(), 0);
        assert_eq!(conn.believed_rate(), 400_000.0);
        conn.teardown(&mut sw).unwrap();
        assert_eq!(sw[0].port(0).unwrap().reserved(), 0.0);
    }

    #[test]
    fn setup_blocking_is_reported() {
        let mut sw = network();
        sw[1].setup(99, 0, 950_000.0).unwrap();
        match RcbrConnection::establish(&mut sw, path(), 1, 100_000.0) {
            Err(ServiceError::SetupBlocked { hop }) => assert_eq!(hop, 1),
            other => panic!("expected blocked setup, got {other:?}"),
        }
    }

    #[test]
    fn lost_cells_cause_drift_and_resync_repairs_it() {
        let mut sw = network();
        let mut conn = RcbrConnection::establish(&mut sw, path(), 1, 100_000.0)
            .unwrap()
            .with_config(ServiceConfig::new(0));
        // A plane that drops everything.
        let plane = FaultPlane::new(FaultConfig::drop_only(1.0, 1));
        conn.renegotiate(&mut sw, &plane, 300_000.0).unwrap();
        assert_eq!(conn.believed_rate(), 300_000.0);
        assert_eq!(conn.lost_cells(), 1);
        assert_eq!(conn.drift(&sw), 200_000.0);
        // Manual resync repairs every hop.
        assert!(conn.resync(&mut sw).unwrap());
        assert_eq!(conn.drift(&sw), 0.0);
    }

    #[test]
    fn periodic_resync_bounds_drift() {
        let mut sw = network();
        let mut conn = RcbrConnection::establish(&mut sw, path(), 1, 100_000.0)
            .unwrap()
            .with_config(ServiceConfig::new(4));
        let plane = FaultPlane::new(FaultConfig::drop_only(0.3, 7));
        let mut rng = SimRng::from_seed(8);
        for _ in 0..40 {
            let rate = 100_000.0 + rng.uniform_in(0.0, 400_000.0);
            conn.renegotiate(&mut sw, &plane, rate).unwrap();
        }
        // After the last resync multiple of 4, drift is zero.
        assert!(conn.resyncs() >= 10);
        assert!(conn.lost_cells() > 0, "a 30% drop plane never fired");
        assert!(conn.renegotiate(&mut sw, &plane, 250_000.0).is_ok());
        conn.resync(&mut sw).unwrap();
        assert_eq!(conn.drift(&sw), 0.0);
    }

    #[test]
    fn denied_renegotiation_returns_false() {
        let mut sw = network();
        sw[2].setup(50, 0, 800_000.0).unwrap();
        let mut conn = RcbrConnection::establish(&mut sw, path(), 1, 100_000.0).unwrap();
        let plane = FaultPlane::transparent();
        let ok = conn.renegotiate(&mut sw, &plane, 500_000.0).unwrap();
        assert!(!ok);
        // Denied with delivered signaling: the source keeps its old rate
        // and no drift exists.
        assert_eq!(conn.believed_rate(), 100_000.0);
        assert_eq!(conn.drift(&sw), 0.0);
    }
}
