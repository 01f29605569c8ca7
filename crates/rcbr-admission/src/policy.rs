//! The admission-controller interface.
//!
//! Controllers are driven by the call-level simulator: they see a snapshot
//! of the link at each arrival (capacity plus the bandwidth currently
//! reserved by every call in the system) and may additionally observe the
//! passage of time to accumulate measurement history.

/// What a controller can see when deciding (and between decisions).
///
/// `reservations[i]` is the bandwidth currently reserved by the `i`-th call
/// in the system, bits/second. This is exactly the information a
/// measurement-based controller has: "the network attempts to learn the
/// statistics of existing calls by making online measurements".
#[derive(Debug, Clone, Copy)]
pub struct AdmissionSnapshot<'a> {
    /// Link capacity, bits/second.
    pub capacity: f64,
    /// Current simulated time, seconds.
    pub time: f64,
    /// Currently reserved rate of each call in the system.
    pub reservations: &'a [f64],
}

impl AdmissionSnapshot<'_> {
    /// Number of calls currently in the system.
    pub fn num_calls(&self) -> usize {
        self.reservations.len()
    }
}

/// An admission controller.
pub trait AdmissionController {
    /// Decide whether to admit a new call arriving now.
    fn admit(&mut self, snapshot: &AdmissionSnapshot<'_>) -> bool;

    /// Observe that the reservation state `snapshot` has been in effect
    /// since the previous observation (called at every state change:
    /// arrivals, departures, renegotiations). Measurement-based schemes
    /// accumulate history here; stateless schemes ignore it.
    fn observe(&mut self, _snapshot: &AdmissionSnapshot<'_>) {}

    /// Short human-readable name for reports.
    fn name(&self) -> &'static str;
}

#[cfg(test)]
mod tests {
    use super::*;

    struct AdmitAll;
    impl AdmissionController for AdmitAll {
        fn admit(&mut self, _s: &AdmissionSnapshot<'_>) -> bool {
            true
        }
        fn name(&self) -> &'static str {
            "admit-all"
        }
    }

    #[test]
    fn snapshot_accessors() {
        let r = [100.0, 200.0, 300.0];
        let s = AdmissionSnapshot {
            capacity: 1000.0,
            time: 5.0,
            reservations: &r,
        };
        assert_eq!(s.num_calls(), 3);
        let mut c = AdmitAll;
        assert!(c.admit(&s));
        c.observe(&s); // default no-op must not panic
        assert_eq!(c.name(), "admit-all");
    }
}
