//! Slotted fluid queues.
//!
//! The paper models every service (CBR, VBR, RCBR) as "traffic from a source
//! is queued at a buffer ... and the network drains the buffer at a given
//! drain rate" (Section II). [`FluidQueue`] is exactly that abstraction at
//! slot granularity: each slot offers some arriving bits and some service
//! capacity, the backlog evolves as `q' = max(q + a - s, 0)`, and anything
//! that would push the backlog above the buffer size is counted as lost.
//!
//! Fluid (fractional-bit) semantics match the paper's analysis; cell-level
//! quantization is handled separately in `rcbr-net` where it matters.

use serde::{Deserialize, Serialize};

/// Outcome of offering one slot of arrivals to a queue.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SlotOutcome {
    /// Bits admitted to the buffer (arrivals minus losses).
    pub admitted: f64,
    /// Bits dropped because the buffer was full.
    pub lost: f64,
    /// Bits actually served during the slot.
    pub served: f64,
    /// Backlog at the end of the slot.
    pub backlog: f64,
}

/// A finite (or infinite) fluid buffer drained at a per-slot service amount.
///
/// Loss accounting follows the paper's simulations: the quantity of interest
/// is the *fraction of bits lost*, i.e. `total_lost / total_arrived`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FluidQueue {
    capacity: f64,
    backlog: f64,
    total_arrived: f64,
    total_lost: f64,
    peak_backlog: f64,
}

impl FluidQueue {
    /// Create a queue with the given buffer size in bits.
    ///
    /// # Panics
    /// Panics if `capacity` is negative or NaN (use
    /// [`FluidQueue::unbounded`] for an infinite buffer).
    pub fn new(capacity: f64) -> Self {
        assert!(
            capacity >= 0.0,
            "buffer capacity must be nonnegative, got {capacity}"
        );
        Self {
            capacity,
            backlog: 0.0,
            total_arrived: 0.0,
            total_lost: 0.0,
            peak_backlog: 0.0,
        }
    }

    /// Create a queue with an unlimited buffer (used to measure how much
    /// buffering a non-renegotiated service *would* need — Fig. 5's tail).
    pub fn unbounded() -> Self {
        Self {
            capacity: f64::INFINITY,
            backlog: 0.0,
            total_arrived: 0.0,
            total_lost: 0.0,
            peak_backlog: 0.0,
        }
    }

    /// Offer `arrival` bits and drain up to `service` bits in one slot.
    ///
    /// Service order follows the paper's model: arrivals are added first,
    /// then the slot's service is applied, then overflow is dropped. (With
    /// fluid traffic the ordering only shifts loss by at most one slot of
    /// service; this ordering is the conservative one.)
    ///
    /// # Panics
    /// Panics if `arrival` or `service` is negative or NaN.
    pub fn offer(&mut self, arrival: f64, service: f64) -> SlotOutcome {
        assert!(arrival >= 0.0, "arrival must be nonnegative, got {arrival}");
        assert!(service >= 0.0, "service must be nonnegative, got {service}");
        self.offer_prechecked(arrival, service)
    }

    /// [`offer`](Self::offer) for a caller that has already established
    /// both of its preconditions — a loop that offers one validated trace
    /// at one service amount checks them once, not once per slot. The
    /// slot arithmetic lives here and nowhere else; its float expressions
    /// and their order are part of every committed baseline.
    #[inline]
    pub fn offer_prechecked(&mut self, arrival: f64, service: f64) -> SlotOutcome {
        debug_assert!(arrival >= 0.0, "arrival must be nonnegative, got {arrival}");
        debug_assert!(service >= 0.0, "service must be nonnegative, got {service}");
        self.total_arrived += arrival;

        let before_service = self.backlog + arrival;
        let served = before_service.min(service);
        let after_service = before_service - served;
        let lost = (after_service - self.capacity).max(0.0);
        self.backlog = after_service - lost;

        self.total_lost += lost;
        if self.backlog > self.peak_backlog {
            self.peak_backlog = self.backlog;
        }
        SlotOutcome {
            admitted: arrival - lost,
            lost,
            served,
            backlog: self.backlog,
        }
    }

    /// Current backlog in bits.
    pub fn backlog(&self) -> f64 {
        self.backlog
    }

    /// Largest backlog ever observed.
    pub fn peak_backlog(&self) -> f64 {
        self.peak_backlog
    }

    /// Total bits offered so far.
    pub fn total_arrived(&self) -> f64 {
        self.total_arrived
    }

    /// Total bits lost so far.
    pub fn total_lost(&self) -> f64 {
        self.total_lost
    }

    /// Fraction of offered bits lost so far (0 if nothing has arrived).
    pub fn loss_fraction(&self) -> f64 {
        if self.total_arrived > 0.0 {
            self.total_lost / self.total_arrived
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn drains_and_backlogs() {
        let mut q = FluidQueue::new(100.0);
        let o = q.offer(30.0, 10.0);
        assert_eq!(o.served, 10.0);
        assert_eq!(o.backlog, 20.0);
        assert_eq!(o.lost, 0.0);
        let o = q.offer(0.0, 50.0);
        assert_eq!(o.served, 20.0);
        assert_eq!(o.backlog, 0.0);
    }

    #[test]
    fn overflow_is_counted_as_loss() {
        let mut q = FluidQueue::new(50.0);
        let o = q.offer(100.0, 20.0);
        // 100 arrive, 20 served, 80 remain, 30 overflow the 50-bit buffer.
        assert_eq!(o.served, 20.0);
        assert_eq!(o.lost, 30.0);
        assert_eq!(o.backlog, 50.0);
        assert_eq!(q.loss_fraction(), 0.3);
    }

    #[test]
    fn unbounded_never_loses() {
        let mut q = FluidQueue::unbounded();
        for _ in 0..1000 {
            q.offer(1e9, 0.0);
        }
        assert_eq!(q.total_lost(), 0.0);
        assert_eq!(q.backlog(), 1e12);
        assert_eq!(q.peak_backlog(), 1e12);
    }

    #[test]
    fn zero_capacity_is_bufferless() {
        let mut q = FluidQueue::new(0.0);
        let o = q.offer(10.0, 4.0);
        assert_eq!(o.served, 4.0);
        assert_eq!(o.lost, 6.0);
        assert_eq!(o.backlog, 0.0);
    }

    proptest! {
        /// Conservation: arrivals = served + lost + backlog, and the backlog
        /// never exceeds capacity.
        #[test]
        fn conservation_and_capacity(
            cap in 0.0..1e6f64,
            slots in proptest::collection::vec((0.0..1e5f64, 0.0..1e5f64), 1..200),
        ) {
            let mut q = FluidQueue::new(cap);
            let mut served = 0.0;
            for (a, s) in slots {
                let o = q.offer(a, s);
                prop_assert!(o.backlog <= cap + 1e-6);
                prop_assert!(o.lost >= 0.0 && o.served >= 0.0);
                served += o.served;
            }
            let balance = q.total_arrived() - served - q.total_lost() - q.backlog();
            prop_assert!(balance.abs() <= 1e-6 * q.total_arrived().max(1.0));
        }

        /// Monotonicity: a bigger buffer never loses more bits on the same
        /// arrival/service sequence.
        #[test]
        fn bigger_buffer_loses_no_more(
            cap in 0.0..1e5f64,
            extra in 0.0..1e5f64,
            slots in proptest::collection::vec((0.0..1e4f64, 0.0..1e4f64), 1..100),
        ) {
            let mut small = FluidQueue::new(cap);
            let mut big = FluidQueue::new(cap + extra);
            for &(a, s) in &slots {
                small.offer(a, s);
                big.offer(a, s);
            }
            prop_assert!(big.total_lost() <= small.total_lost() + 1e-9);
        }
    }
}
