//! Switches: one VC table plus output ports.
//!
//! Processing an RM cell is the two-lookup fast path of Section III-B:
//! "a switch-controller ... determines the output port of the VCI in one
//! lookup, and the utilization and capacity of the output port in a second
//! lookup" — [`Switch::slot`] does both, once per cell, and the
//! check-and-update is [`VcSlot`]'s. A denial is signalled by setting the
//! cell's `denied` flag (the paper's "the controller modifies the ER field
//! to deny the request").
//!
//! Everything the switch knows per VC — output port, reserved rate, and
//! the superstep an RM cell last refreshed its soft-state lease (Section
//! III-B's RSVP observation, measured on the signaling plane's *logical*
//! clock so that expiry is identical at every shard count) — is one entry
//! of one table (`table.rs`), kept in ascending VCI order: audits, the
//! lease sweep and the crash wipe walk it in place, and reclaim in that
//! order, so per-port float accumulation does not depend on who asks.
//! The by-VCI methods are that resolve plus one [`VcSlot`] call each.

use serde::{Deserialize, Serialize};

use crate::port::{PortLoad, VcSlot};
use crate::rm::RmCell;
use crate::table::{VcEntry, VcTable, SETUP_SUPERSTEPS};

/// Errors from switch management operations.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum SwitchError {
    /// The VCI is not in the routing table.
    UnknownVci(u32),
    /// The port index does not exist.
    UnknownPort(usize),
    /// The VCI is already routed.
    VciInUse(u32),
}

impl std::fmt::Display for SwitchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SwitchError::UnknownVci(v) => write!(f, "unknown VCI {v}"),
            SwitchError::UnknownPort(p) => write!(f, "unknown port {p}"),
            SwitchError::VciInUse(v) => write!(f, "VCI {v} already routed"),
        }
    }
}

impl std::error::Error for SwitchError {}

/// An ATM switch with RCBR renegotiation support.
///
/// ```
/// use rcbr_net::{RmCell, Switch};
///
/// let mut switch = Switch::new(&[1_000_000.0]);
/// switch.setup(1, 0, 300_000.0).unwrap();
/// // Fast-path renegotiation: +200 kb/s fits.
/// let cell = switch.process_rm(RmCell::delta(1, 200_000.0)).unwrap();
/// assert!(!cell.denied);
/// assert_eq!(switch.vci_rate(1), Some(500_000.0));
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Switch {
    ports: Vec<PortLoad>,
    /// The routed VCs. The routing entry is hard (signalled) state; its
    /// rate and lease are soft.
    table: VcTable,
}

impl Switch {
    /// Create a switch with one port per capacity entry (bits/second).
    ///
    /// # Panics
    /// Panics if `port_capacities` is empty or contains an invalid
    /// capacity.
    pub fn new(port_capacities: &[f64]) -> Self {
        assert!(
            !port_capacities.is_empty(),
            "switch needs at least one port"
        );
        Self {
            ports: port_capacities.iter().map(|&c| PortLoad::new(c)).collect(),
            table: VcTable::new(),
        }
    }

    /// Number of ports.
    pub fn num_ports(&self) -> usize {
        self.ports.len()
    }

    /// Inspect a port's capacity, ceiling and aggregate reservation.
    pub fn port(&self, idx: usize) -> Option<&PortLoad> {
        self.ports.get(idx)
    }

    /// The fast path's two lookups: `vci`'s table entry and the port it
    /// names, or `None` if the VCI is not routed here.
    #[inline]
    pub fn slot(&mut self, vci: u32) -> Option<VcSlot<'_>> {
        let pos = self.table.find(vci)?;
        Some(self.slot_at(pos))
    }

    fn slot_at(&mut self, pos: usize) -> VcSlot<'_> {
        let entry = &mut self.table.entries_mut()[pos];
        VcSlot {
            load: &mut self.ports[entry.port as usize],
            entry,
        }
    }

    fn routed(&mut self, vci: u32) -> Result<VcSlot<'_>, SwitchError> {
        self.slot(vci).ok_or(SwitchError::UnknownVci(vci))
    }

    /// Route `vci` to `port` with an initial reservation of `rate` b/s —
    /// the call-setup step, which unlike renegotiation *does* allocate a
    /// connection identifier and housekeeping records.
    ///
    /// Fails (without side effects) if the VCI is taken, the port does not
    /// exist, or the rate does not fit.
    pub fn setup(&mut self, vci: u32, port: usize, rate: f64) -> Result<bool, SwitchError> {
        if self.table.find(vci).is_some() {
            return Err(SwitchError::VciInUse(vci));
        }
        if port >= self.ports.len() {
            return Err(SwitchError::UnknownPort(port));
        }
        let mut entry = VcEntry::new(vci, port);
        let mut slot = VcSlot {
            load: &mut self.ports[port],
            entry: &mut entry,
        };
        let fits = slot.try_reserve_delta(rate);
        if fits {
            self.table.insert(entry);
        }
        Ok(fits)
    }

    /// Tear down `vci`, releasing its reservation. Returns the rate
    /// released.
    pub fn teardown(&mut self, vci: u32) -> Result<f64, SwitchError> {
        self.uninstall(vci).ok_or(SwitchError::UnknownVci(vci))
    }

    /// Idempotent teardown: release `vci`'s reservation and drop its table
    /// entry, returning the released rate — or `None` if the VCI was not
    /// routed here (already torn down, or never installed). The reroute
    /// machinery's teardown cells use this: a teardown can legitimately
    /// arrive twice when an earlier one was killed mid-path.
    pub fn uninstall(&mut self, vci: u32) -> Option<f64> {
        let pos = self.table.find(vci)?;
        let released = self.slot_at(pos).release();
        self.table.remove(pos);
        Some(released)
    }

    /// Route `vci` to `port` *without* reserving anything — the rerouting
    /// slow path: the table entry is created here and the reservation
    /// arrives via the absolute-rate cell that follows. If the VCI is
    /// already routed its entry is left as it is. Returns the slot either
    /// way, so the cell that follows needs no second resolve.
    ///
    /// # Panics
    /// Panics on an unknown port.
    pub fn install(&mut self, vci: u32, port: usize) -> VcSlot<'_> {
        assert!(port < self.ports.len(), "unknown port {port}");
        let pos = match self.table.find(vci) {
            Some(pos) => pos,
            None => self.table.insert(VcEntry::new(vci, port)),
        };
        self.slot_at(pos)
    }

    /// Record that an RM cell for `vci` was processed at superstep `now`,
    /// refreshing its lease. A VCI that is not routed here has no lease
    /// to refresh.
    pub fn touch_lease(&mut self, vci: u32, now: u64) {
        if let Some(mut slot) = self.slot(vci) {
            slot.touch_lease(now);
        }
    }

    /// The superstep `vci`'s lease was last refreshed at (`0` if never —
    /// setup time, by the runtime's convention — or not routed).
    pub fn lease_refreshed_at(&self, vci: u32) -> u64 {
        self.table.find(vci).map_or(SETUP_SUPERSTEPS, |pos| {
            self.table.entries()[pos].lease_refreshed_at
        })
    }

    /// Use-it-or-lose-it reclamation: release the reservation of every
    /// routed VCI whose lease lapsed at `now` (no RM cell for strictly
    /// more than `lease_supersteps` supersteps), in ascending VCI order.
    /// The routing-table entry survives — like a crash wipe, expiry
    /// reclaims *soft* state only, so a late source can rebuild its rate
    /// with an absolute resync. Expired VCIs get a fresh grace period so
    /// one lapse is reclaimed (and counted) once. Returns how many VCIs
    /// actually had bandwidth reclaimed.
    pub fn expire_leases(&mut self, now: u64, lease_supersteps: u64) -> u64 {
        let mut reclaimed = 0;
        for entry in self.table.entries_mut() {
            if now.saturating_sub(entry.lease_refreshed_at) > lease_supersteps {
                entry.lease_refreshed_at = now;
                let load = &mut self.ports[entry.port as usize];
                if (VcSlot { load, entry }).release() > 0.0 {
                    reclaimed += 1;
                }
            }
        }
        reclaimed
    }

    /// Process a renegotiation RM cell: the fast path. Returns the cell,
    /// with `denied` set if this switch (or an upstream one) denied it.
    ///
    /// A cell already marked denied passes through untouched — downstream
    /// switches must not reserve for a request that has already failed.
    pub fn process_rm(&mut self, mut cell: RmCell) -> Result<RmCell, SwitchError> {
        if !cell.denied {
            cell.denied = !self.routed(cell.vci)?.book(cell.rate);
        }
        Ok(cell)
    }

    /// Best-effort undo of a previously applied delta. Returns whether
    /// the reverse actually fit — it can fail when the grant being
    /// unwound was wiped by a crash-restart in between, or when drift let
    /// another cell consume the headroom a negative delta released.
    pub fn try_rollback_delta(&mut self, vci: u32, delta: f64) -> Result<bool, SwitchError> {
        Ok(self.routed(vci)?.try_reserve_delta(-delta))
    }

    /// Set port `port`'s admission booking ceiling (bits/second) — the
    /// runtime's live admission policy publishes its per-window decision
    /// here; [`VcSlot::try_reserve_delta`] and
    /// [`VcSlot::try_set_absolute`] compare against it.
    ///
    /// # Panics
    /// Panics on an unknown port or a non-positive ceiling.
    pub fn set_admit_ceiling(&mut self, port: usize, ceiling: f64) {
        assert!(port < self.ports.len(), "unknown port {port}");
        self.ports[port].set_admit_ceiling(ceiling);
    }

    /// Reset every port's booking ceiling to its capacity — the legacy
    /// static check. The end-of-run audit does this before repairing:
    /// recovery reconciles state against the true capacity, not against
    /// whatever ceiling the live policy last published.
    pub fn reset_admit_ceilings(&mut self) {
        for p in &mut self.ports {
            let cap = p.capacity();
            p.set_admit_ceiling(cap);
        }
    }

    /// The reservation this switch holds for `vci`.
    pub fn vci_rate(&self, vci: u32) -> Option<f64> {
        Some(self.table.entries()[self.table.find(vci)?].rate)
    }

    /// Crash-restart: wipe every port's *soft* reservation state. The VCI
    /// routing table is hard (signalled) state and survives; the
    /// reservations it pointed to are gone until absolute-rate resync
    /// cells rebuild them.
    pub fn wipe_soft_state(&mut self) {
        for p in &mut self.ports {
            p.wipe();
        }
        // Lease history is soft state too: a restarted switch has no idea
        // when it last heard from anyone.
        for entry in self.table.entries_mut() {
            entry.rate = 0.0;
            entry.lease_refreshed_at = SETUP_SUPERSTEPS;
        }
    }

    /// The routed VCIs, ascending (deterministic for audits).
    pub fn vcis(&self) -> Vec<u32> {
        self.table.entries().iter().map(|e| e.vci).collect()
    }

    /// The nonzero reservations, ascending by VCI — the auditor's view
    /// for cross-checking that torn-down and rerouted-away VCs left
    /// nothing behind.
    pub fn vci_entries(&self) -> Vec<(u32, f64)> {
        let held = self.table.entries().iter().filter(|e| e.rate != 0.0);
        held.map(|e| (e.vci, e.rate)).collect()
    }

    /// Audit: every port's aggregate equals the sum of the reservations
    /// booked on it (used by tests and debug assertions to catch drift
    /// bugs in the switch).
    pub fn is_consistent(&self) -> bool {
        let mut sums = vec![0.0; self.ports.len()];
        for e in self.table.entries() {
            sums[e.port as usize] += e.rate;
        }
        self.ports
            .iter()
            .zip(sums)
            .all(|(p, sum)| p.matches_sum(sum))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_port_switch(cap: f64) -> Switch {
        Switch::new(&[cap])
    }

    #[test]
    fn setup_process_teardown() {
        let mut sw = one_port_switch(1000.0);
        assert_eq!(sw.setup(1, 0, 300.0), Ok(true));
        let cell = sw.process_rm(RmCell::delta(1, 200.0)).unwrap();
        assert!(!cell.denied);
        assert_eq!(sw.vci_rate(1), Some(500.0));
        assert_eq!(sw.teardown(1), Ok(500.0));
        assert_eq!(sw.port(0).unwrap().reserved(), 0.0);
    }

    #[test]
    fn denial_sets_flag_and_keeps_state() {
        let mut sw = one_port_switch(1000.0);
        sw.setup(1, 0, 900.0).unwrap();
        let cell = sw.process_rm(RmCell::delta(1, 200.0)).unwrap();
        assert!(cell.denied);
        // "Even if the renegotiation fails, the source can keep whatever
        // bandwidth it already has."
        assert_eq!(sw.vci_rate(1), Some(900.0));
    }

    #[test]
    fn already_denied_cells_pass_through() {
        let mut sw = one_port_switch(1000.0);
        sw.setup(1, 0, 100.0).unwrap();
        let mut cell = RmCell::delta(1, 200.0);
        cell.denied = true;
        let out = sw.process_rm(cell).unwrap();
        assert!(out.denied);
        assert_eq!(sw.vci_rate(1), Some(100.0)); // nothing reserved
    }

    #[test]
    fn unknown_vci_is_an_error() {
        let mut sw = one_port_switch(10.0);
        assert_eq!(
            sw.process_rm(RmCell::delta(9, 1.0)),
            Err(SwitchError::UnknownVci(9))
        );
        assert_eq!(sw.teardown(9), Err(SwitchError::UnknownVci(9)));
    }

    #[test]
    fn setup_conflicts() {
        let mut sw = one_port_switch(100.0);
        assert_eq!(sw.setup(1, 0, 10.0), Ok(true));
        assert_eq!(sw.setup(1, 0, 10.0), Err(SwitchError::VciInUse(1)));
        assert_eq!(sw.setup(2, 5, 10.0), Err(SwitchError::UnknownPort(5)));
        assert_eq!(sw.setup(3, 0, 1000.0), Ok(false)); // doesn't fit
    }

    #[test]
    fn resync_cell_is_processed_on_slow_path() {
        let mut sw = one_port_switch(1000.0);
        sw.setup(1, 0, 300.0).unwrap();
        let out = sw.process_rm(RmCell::resync(1, 450.0)).unwrap();
        assert!(!out.denied);
        assert_eq!(sw.vci_rate(1), Some(450.0));
    }

    #[test]
    fn crash_wipe_loses_soft_state_and_resync_rebuilds_it() {
        let mut sw = one_port_switch(1000.0);
        sw.setup(1, 0, 300.0).unwrap();
        sw.setup(2, 0, 200.0).unwrap();
        sw.wipe_soft_state();
        // Reservations are gone, the routing table survives.
        assert_eq!(sw.vci_rate(1), Some(0.0));
        assert_eq!(sw.port(0).unwrap().reserved(), 0.0);
        assert_eq!(sw.vcis(), vec![1, 2]);
        // Absolute-rate resync rebuilds the reservations exactly.
        let out = sw.process_rm(RmCell::resync(1, 300.0)).unwrap();
        assert!(!out.denied);
        assert_eq!(sw.vci_rate(1), Some(300.0));
        assert!(sw.is_consistent());
    }

    #[test]
    #[expect(clippy::disallowed_methods, reason = "a unit test of the sweep")]
    fn lease_expiry_reclaims_soft_state_but_keeps_the_route() {
        let mut sw = one_port_switch(1000.0);
        sw.setup(1, 0, 300.0).unwrap();
        sw.setup(2, 0, 200.0).unwrap();
        // VCI 1 keeps refreshing; VCI 2 goes quiet after setup (refresh 0).
        sw.touch_lease(1, 50);
        assert_eq!(sw.expire_leases(60, 30), 1, "only VCI 2 lapses");
        assert_eq!(sw.vci_rate(2), Some(0.0), "bandwidth reclaimed");
        assert_eq!(sw.vci_rate(1), Some(300.0), "refreshed lease survives");
        assert_eq!(sw.vcis(), vec![1, 2], "routing entries survive expiry");
        assert_eq!(sw.port(0).unwrap().reserved(), 300.0);
        // The lapse is counted once: the expired VCI got a grace period.
        assert_eq!(sw.expire_leases(61, 30), 0);
        // A late absolute resync rebuilds the reclaimed reservation.
        let out = sw.process_rm(RmCell::resync(2, 200.0)).unwrap();
        assert!(!out.denied);
        assert_eq!(sw.vci_rate(2), Some(200.0));
        assert!(sw.is_consistent());
    }

    #[test]
    fn install_and_uninstall_are_idempotent() {
        let mut sw = one_port_switch(1000.0);
        sw.install(7, 0);
        sw.install(7, 0); // no-op
        assert_eq!(sw.vci_rate(7), Some(0.0), "installed but unreserved");
        let out = sw.process_rm(RmCell::resync(7, 400.0)).unwrap();
        assert!(!out.denied);
        assert_eq!(sw.uninstall(7), Some(400.0));
        assert_eq!(sw.uninstall(7), None, "second teardown is a no-op");
        assert_eq!(sw.vci_rate(7), None);
        assert_eq!(sw.port(0).unwrap().reserved(), 0.0);
    }

    #[test]
    #[expect(clippy::disallowed_methods, reason = "a unit test of the ceilings")]
    fn ceiling_pass_through_and_unchecked_set() {
        let mut sw = one_port_switch(1000.0);
        sw.setup(1, 0, 300.0).unwrap();
        sw.set_admit_ceiling(0, 400.0);
        let cell = sw.process_rm(RmCell::delta(1, 200.0)).unwrap();
        assert!(cell.denied, "tightened ceiling denies the increase");
        sw.set_admit_ceiling(0, 2000.0);
        let cell = sw.process_rm(RmCell::delta(1, 1200.0)).unwrap();
        assert!(!cell.denied, "overbooked ceiling admits past capacity");
        assert_eq!(sw.vci_rate(1), Some(1500.0));
        // Administrative repair applies even while overbooked.
        sw.set_admit_ceiling(0, 400.0);
        sw.slot(1).expect("routed").set_unchecked(900.0);
        assert_eq!(sw.vci_rate(1), Some(900.0));
        sw.reset_admit_ceilings();
        assert_eq!(sw.port(0).unwrap().admit_ceiling(), 1000.0);
    }

    #[test]
    fn rollback_restores_reservation() {
        let mut sw = one_port_switch(1000.0);
        sw.setup(1, 0, 300.0).unwrap();
        sw.process_rm(RmCell::delta(1, 200.0)).unwrap();
        assert_eq!(sw.try_rollback_delta(1, 200.0), Ok(true));
        assert_eq!(sw.vci_rate(1), Some(300.0));
    }
}
