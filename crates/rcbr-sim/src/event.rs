//! Discrete-event scheduler.
//!
//! Pending events sit in a binary heap keyed on `(time, sequence)` so that
//! events scheduled for the same instant are delivered in FIFO order of
//! their scheduling. This makes simulations deterministic: two runs with
//! the same seed and the same scheduling order produce identical
//! trajectories.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

#[derive(Debug)]
struct Entry<E> {
    time: f64,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops
        // first. Scheduling rejects NaN and `push` stores no -0.0, so
        // `total_cmp` ties exactly the times `==` does and equal times stay
        // FIFO.
        other
            .time
            .total_cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A minimal simulation driver: the pending events plus the current
/// simulated time. Events are delivered in nondecreasing time order,
/// breaking ties by scheduling order; `E` is the caller's event payload.
///
/// The scheduler enforces causality — events may not be scheduled in the
/// past — and advances `now` to each event's timestamp as it is delivered.
#[derive(Debug)]
pub struct Scheduler<E> {
    heap: BinaryHeap<Entry<E>>,
    seq: u64,
    now: f64,
}

impl<E> Default for Scheduler<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Scheduler<E> {
    /// Create a scheduler with `now == 0`.
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            seq: 0,
            now: 0.0,
        }
    }

    /// Current simulated time in seconds.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Schedule `payload` to fire `delay` seconds from now.
    ///
    /// # Panics
    /// Panics if `delay` is negative or NaN.
    pub fn schedule_in(&mut self, delay: f64, payload: E) {
        assert!(delay >= 0.0, "delay must be nonnegative, got {delay}");
        self.push(self.now + delay, payload);
    }

    /// Schedule `payload` at absolute time `time`.
    ///
    /// # Panics
    /// Panics if `time` is earlier than `now` (beyond a tiny tolerance for
    /// floating-point round-off) or NaN.
    pub fn schedule_at(&mut self, time: f64, payload: E) {
        assert!(
            time >= self.now - 1e-9,
            "cannot schedule in the past: t={time}, now={}",
            self.now
        );
        self.push(time.max(self.now), payload);
    }

    /// Queue `payload` at `time`, storing `-0.0` as `0.0`, the one pair of
    /// equal times `total_cmp` would otherwise order.
    fn push(&mut self, time: f64, payload: E) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Entry {
            time: time + 0.0,
            seq,
            payload,
        });
    }

    /// Deliver the next event, advancing `now` to its timestamp.
    pub fn next_event(&mut self) -> Option<(f64, E)> {
        let Entry { time, payload, .. } = self.heap.pop()?;
        self.now = time;
        Some((time, payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivers_in_time_order() {
        let mut s = Scheduler::new();
        s.schedule_at(3.0, "c");
        s.schedule_at(1.0, "a");
        s.schedule_at(2.0, "b");
        assert_eq!(s.next_event(), Some((1.0, "a")));
        assert_eq!(s.next_event(), Some((2.0, "b")));
        assert_eq!(s.next_event(), Some((3.0, "c")));
        assert_eq!(s.next_event(), None);
    }

    #[test]
    fn simultaneous_events_are_fifo() {
        let mut s = Scheduler::new();
        for i in 0..100 {
            s.schedule_at(5.0, i);
        }
        for i in 0..100 {
            assert_eq!(s.next_event(), Some((5.0, i)));
        }
        // Signed zeros are one instant: FIFO, and delivered as +0.0.
        let mut s = Scheduler::new();
        s.schedule_at(-0.0, 0);
        s.schedule_in(0.0, 1);
        s.schedule_in(-0.0, 2);
        for i in 0..3 {
            let (t, e) = s.next_event().unwrap();
            assert_eq!((t.to_bits(), e), (0.0f64.to_bits(), i));
        }
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_time_is_rejected() {
        let mut s = Scheduler::new();
        s.schedule_at(f64::NAN, ());
    }

    #[test]
    fn scheduler_advances_clock() {
        let mut s: Scheduler<u32> = Scheduler::new();
        s.schedule_in(2.0, 1);
        s.schedule_in(1.0, 2);
        assert_eq!(s.next_event(), Some((1.0, 2)));
        assert_eq!(s.now(), 1.0);
        assert_eq!(s.next_event(), Some((2.0, 1)));
        assert_eq!(s.now(), 2.0);
        assert_eq!(s.next_event(), None);
    }

    #[test]
    #[should_panic(expected = "past")]
    fn scheduling_in_the_past_panics() {
        let mut s: Scheduler<()> = Scheduler::new();
        s.schedule_in(1.0, ());
        s.next_event();
        s.schedule_at(0.5, ());
    }

    #[test]
    fn events_can_schedule_followups() {
        let mut s: Scheduler<u32> = Scheduler::new();
        s.schedule_in(1.0, 0);
        let mut times = Vec::new();
        while let Some((t, gen)) = s.next_event() {
            times.push(t);
            if gen < 3 {
                s.schedule_in(1.0, gen + 1);
            }
        }
        assert_eq!(times, vec![1.0, 2.0, 3.0, 4.0]);
    }
}
