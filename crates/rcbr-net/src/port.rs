//! Switch output ports.
//!
//! The RCBR fast path at a port is two lookups and one comparison
//! (Section III-B): "it checks if the current port utilization plus the
//! rate difference is less than the port capacity. If this is true, then
//! the renegotiation request succeeds, and the VCI and port statistics are
//! updated."
//!
//! The two lookups meet in a [`VcSlot`]: the VC's entry in its switch's
//! table and the port that entry names, resolved once per cell and then
//! checked and updated by straight-line arithmetic. [`PortLoad`] is the
//! "port statistics" half — capacity, booking ceiling, aggregate
//! reservation — and is what a [`Switch`] keeps per port.
//! [`OutputPort`] is a port on its own, a one-port switch behind by-VCI
//! calls: the single-link simulations use it.
//!
//! The per-VC reservations are not needed by the fast path ("RCBR support
//! does not require per-VCI state"); they serve the slow path —
//! absolute-rate resync cells and connection teardown — and let tests
//! audit that the aggregate never drifts from the sum of its parts.

use serde::{Deserialize, Serialize};

use crate::rm::RateField;
use crate::switch::Switch;
use crate::table::VcEntry;

/// One port's capacity, booking ceiling and aggregate reservation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PortLoad {
    capacity: f64,
    /// The booking ceiling the fast-path check compares against. Equal to
    /// `capacity` by default (the legacy peak-rate check); a live
    /// measurement-based admission policy may move it below the capacity
    /// (conservative) or above it (statistical overbooking).
    ceiling: f64,
    reserved: f64,
}

impl PortLoad {
    /// A port with the given capacity in bits/second.
    ///
    /// # Panics
    /// Panics unless `capacity > 0` and finite.
    pub(crate) fn new(capacity: f64) -> Self {
        assert!(
            capacity > 0.0 && capacity.is_finite(),
            "port capacity must be positive"
        );
        Self {
            capacity,
            ceiling: capacity,
            reserved: 0.0,
        }
    }

    /// Port capacity, bits/second.
    pub fn capacity(&self) -> f64 {
        self.capacity
    }

    /// The admission booking ceiling, bits/second.
    pub fn admit_ceiling(&self) -> f64 {
        self.ceiling
    }

    /// Set the admission booking ceiling (bits/second). With the default
    /// `ceiling == capacity` the port behaves exactly like the legacy
    /// static peak-rate check; a measurement-based policy overbooks
    /// (`ceiling > capacity`) or tightens (`ceiling < capacity`).
    ///
    /// # Panics
    /// Panics unless `ceiling > 0` and finite.
    pub(crate) fn set_admit_ceiling(&mut self, ceiling: f64) {
        assert!(
            ceiling > 0.0 && ceiling.is_finite(),
            "admission ceiling must be positive"
        );
        self.ceiling = ceiling;
    }

    /// Aggregate reserved bandwidth, bits/second.
    pub fn reserved(&self) -> f64 {
        self.reserved
    }

    /// Utilization fraction `reserved / capacity`.
    pub fn utilization(&self) -> f64 {
        self.reserved / self.capacity
    }

    /// Crash-wipe the aggregate; the owner zeroes the per-VC rates. The
    /// booking ceiling is policy soft state too: a restarted switch
    /// starts back at the legacy peak-rate check until the admission
    /// estimator's next window closes.
    pub(crate) fn wipe(&mut self) {
        self.reserved = 0.0;
        self.ceiling = self.capacity;
    }

    /// Audit: the aggregate equals `sum`, the per-VC reservations added
    /// up in ascending VCI order.
    pub(crate) fn matches_sum(&self, sum: f64) -> bool {
        (self.reserved - sum).abs() <= 1e-6 * self.reserved.abs().max(1.0)
    }
}

/// One VC at its port: the resolved pair the fast path works on. Borrowed
/// from a [`Switch`] (or an [`OutputPort`]) for one cell.
#[derive(Debug)]
pub struct VcSlot<'a> {
    pub(crate) load: &'a mut PortLoad,
    pub(crate) entry: &'a mut VcEntry,
}

impl VcSlot<'_> {
    /// The VC's current reservation, bits/second.
    pub fn rate(&self) -> f64 {
        self.entry.rate
    }

    /// Record that an RM cell for this VC was processed at superstep
    /// `now`, refreshing its lease.
    pub fn touch_lease(&mut self, now: u64) {
        self.entry.lease_refreshed_at = now;
    }

    /// Check-and-update for an RM cell's rate field; `true` = granted.
    pub fn book(&mut self, rate: RateField) -> bool {
        match rate {
            RateField::Delta(d) => self.try_reserve_delta(d),
            RateField::Absolute(r) => self.try_set_absolute(r),
        }
    }

    /// The fast-path check-and-update: apply a rate `delta`.
    ///
    /// Succeeds iff the new aggregate fits the booking ceiling and the
    /// VC's own reservation stays nonnegative (a stale negative delta
    /// after drift must not push a reservation below zero). Rate
    /// decreases always succeed at the aggregate level.
    pub fn try_reserve_delta(&mut self, delta: f64) -> bool {
        assert!(delta.is_finite(), "rate delta must be finite");
        let new = self.entry.rate + delta;
        if new < -1e-9 {
            return false;
        }
        let new = new.max(0.0);
        if delta > 0.0 && self.load.reserved + delta > self.load.ceiling + 1e-9 {
            return false;
        }
        self.apply(new);
        true
    }

    /// The slow path: set the reservation to an absolute rate (resync).
    /// Succeeds iff the resulting aggregate fits.
    pub fn try_set_absolute(&mut self, rate: f64) -> bool {
        assert!(
            rate >= 0.0 && rate.is_finite(),
            "absolute rate must be nonnegative"
        );
        if self.load.reserved - self.entry.rate + rate > self.load.ceiling + 1e-9 {
            return false;
        }
        self.apply(rate);
        true
    }

    /// Administrative absolute-rate set that bypasses the booking ceiling.
    /// Only the end-of-run audit uses this, for its use-it-or-lose-it
    /// floor repair: at a port a live policy overbooked past its ceiling,
    /// even a rate *reduction* would fail the checked path, yet recovery
    /// must still reconcile the reservation. Never part of the live
    /// signaling path.
    pub fn set_unchecked(&mut self, rate: f64) {
        assert!(
            rate >= 0.0 && rate.is_finite(),
            "absolute rate must be nonnegative"
        );
        self.apply(rate);
    }

    /// Release everything the VC holds (teardown, lease expiry). Returns
    /// the rate released.
    pub fn release(&mut self) -> f64 {
        let old = self.entry.rate;
        self.apply(0.0);
        old
    }

    fn apply(&mut self, new: f64) {
        self.load.reserved = (self.load.reserved - self.entry.rate + new).max(0.0);
        // Nothing held is `+0.0` whatever zero the arithmetic produced.
        self.entry.rate = if new == 0.0 { 0.0 } else { new };
    }
}

/// One output port on its own — a one-port [`Switch`] that routes a VCI
/// the first time it asks for bandwidth — behind by-VCI calls.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OutputPort {
    switch: Switch,
}

impl OutputPort {
    /// Create a port with the given capacity in bits/second.
    ///
    /// # Panics
    /// Panics unless `capacity > 0` and finite.
    pub fn new(capacity: f64) -> Self {
        Self {
            switch: Switch::new(&[capacity]),
        }
    }

    /// Capacity, booking ceiling, aggregate reservation.
    pub fn load(&self) -> &PortLoad {
        self.switch.port(0).expect("one port")
    }

    /// Current reservation of a VCI (0 if unknown).
    pub fn vci_rate(&self, vci: u32) -> f64 {
        self.switch.vci_rate(vci).unwrap_or(0.0)
    }

    /// See [`VcSlot::try_reserve_delta`].
    pub fn try_reserve_delta(&mut self, vci: u32, delta: f64) -> bool {
        self.switch.install(vci, 0).try_reserve_delta(delta)
    }

    /// See [`VcSlot::try_set_absolute`].
    pub fn try_set_absolute(&mut self, vci: u32, rate: f64) -> bool {
        self.switch.install(vci, 0).try_set_absolute(rate)
    }

    /// Release everything reserved by `vci` (teardown). Returns the rate
    /// released.
    pub fn release(&mut self, vci: u32) -> f64 {
        self.switch.slot(vci).map_or(0.0, |mut slot| slot.release())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn reserve_and_release() {
        let mut p = OutputPort::new(1000.0);
        assert!(p.try_reserve_delta(1, 400.0));
        assert!(p.try_reserve_delta(2, 500.0));
        assert_eq!(p.load().reserved(), 900.0);
        assert!((p.load().utilization() - 0.9).abs() < 1e-12);
        assert!(!p.try_reserve_delta(3, 200.0)); // would exceed capacity
        assert_eq!(p.release(1), 400.0);
        assert!(p.try_reserve_delta(3, 200.0));
        assert!(p.switch.is_consistent());
    }

    #[test]
    fn decreases_always_fit() {
        let mut p = OutputPort::new(100.0);
        assert!(p.try_reserve_delta(1, 100.0));
        assert!(p.try_reserve_delta(1, -40.0));
        assert_eq!(p.vci_rate(1), 60.0);
        assert_eq!(p.load().capacity() - p.load().reserved(), 40.0);
    }

    #[test]
    fn vci_cannot_go_negative() {
        let mut p = OutputPort::new(100.0);
        assert!(p.try_reserve_delta(1, 30.0));
        assert!(!p.try_reserve_delta(1, -50.0));
        assert_eq!(p.vci_rate(1), 30.0);
    }

    #[test]
    fn absolute_resync_repairs_state() {
        let mut p = OutputPort::new(1000.0);
        assert!(p.try_reserve_delta(1, 300.0));
        // Drift: suppose the source believes 500 (a +200 delta was lost).
        assert!(p.try_set_absolute(1, 500.0));
        assert_eq!(p.vci_rate(1), 500.0);
        assert_eq!(p.load().reserved(), 500.0);
        assert!(p.switch.is_consistent());
    }

    #[test]
    fn absolute_resync_respects_capacity() {
        let mut p = OutputPort::new(1000.0);
        assert!(p.try_reserve_delta(1, 600.0));
        assert!(p.try_reserve_delta(2, 300.0));
        assert!(!p.try_set_absolute(2, 500.0)); // 600 + 500 > 1000
        assert_eq!(p.vci_rate(2), 300.0);
    }

    #[test]
    #[expect(clippy::disallowed_methods, reason = "a unit test of the ceiling")]
    fn ceiling_defaults_to_capacity_and_gates_bookings() {
        let mut p = OutputPort::new(1000.0);
        assert_eq!(p.load().admit_ceiling(), 1000.0);
        // Overbooked ceiling: bookings past the capacity are admitted.
        p.switch.set_admit_ceiling(0, 1500.0);
        assert!(p.try_reserve_delta(1, 1200.0));
        assert!(p.load().reserved() > p.load().capacity());
        // Tightened ceiling: even a within-capacity increase is denied,
        // but decreases still fit (delta path) and the checked absolute
        // path denies while the total stays above the ceiling.
        p.switch.set_admit_ceiling(0, 800.0);
        assert!(!p.try_reserve_delta(2, 100.0));
        assert!(p.try_reserve_delta(1, -600.0));
        assert!(!p.try_set_absolute(1, 900.0));
        assert!(p.try_set_absolute(1, 700.0));
        assert!(p.switch.is_consistent());
    }

    #[test]
    #[expect(clippy::disallowed_methods, reason = "a unit test of the ceiling")]
    fn wipe_resets_ceiling_and_unchecked_set_bypasses_it() {
        let mut p = OutputPort::new(1000.0);
        p.switch.set_admit_ceiling(0, 2000.0);
        assert!(p.try_reserve_delta(1, 1800.0));
        p.switch.set_admit_ceiling(0, 500.0);
        // Checked reduction fails while the aggregate stays overbooked;
        // the administrative path applies it regardless.
        assert!(!p.try_set_absolute(1, 1700.0));
        p.switch.install(1, 0).set_unchecked(1700.0);
        assert_eq!(p.vci_rate(1), 1700.0);
        assert!(p.switch.is_consistent());
        p.switch.wipe_soft_state();
        assert_eq!(p.load().admit_ceiling(), p.load().capacity());
    }

    #[test]
    fn release_unknown_vci_is_noop() {
        let mut p = OutputPort::new(10.0);
        assert_eq!(p.release(99), 0.0);
        assert!(p.switch.is_consistent());
    }

    proptest! {
        /// Random operation sequences keep the port consistent and within
        /// capacity.
        #[test]
        fn port_invariants_hold(
            ops in proptest::collection::vec(
                (0u32..5, -500.0..500.0f64, any::<bool>()), 1..200),
        ) {
            let mut p = OutputPort::new(1000.0);
            for (vci, rate, absolute) in ops {
                if absolute {
                    p.try_set_absolute(vci, rate.abs());
                } else {
                    p.try_reserve_delta(vci, rate);
                }
                prop_assert!(p.switch.is_consistent());
                prop_assert!(p.load().reserved() <= p.load().capacity() + 1e-6);
                prop_assert!(p.load().reserved() >= -1e-9);
            }
        }
    }
}
