//! Discrete-event queue and scheduler.
//!
//! The queue is a binary heap keyed on `(time, sequence)` so that events
//! scheduled for the same instant are delivered in FIFO order of their
//! scheduling. This makes simulations deterministic: two runs with the same
//! seed and the same scheduling order produce identical trajectories.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An event queue delivering events in nondecreasing time order, breaking
/// ties by insertion order.
///
/// `E` is the caller's event payload; the queue imposes no trait bounds on
/// it beyond what `BinaryHeap` needs internally (none — ordering is done on
/// the key only).
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    seq: u64,
}

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
        // first. `push` rejects NaN and stores no -0.0, so `total_cmp` ties
        // exactly the times `==` does and equal times stay FIFO.
        other
            .time
            .total_cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Create an empty queue.
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Schedule `payload` at absolute time `time` (seconds). `-0.0` is
    /// stored as `0.0`, the one pair of equal times `total_cmp` would
    /// otherwise order.
    ///
    /// # Panics
    /// Panics if `time` is NaN; a NaN timestamp would silently corrupt the
    /// heap order.
    pub fn push(&mut self, time: f64, payload: E) {
        assert!(!time.is_nan(), "event time must not be NaN");
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Entry {
            time: time + 0.0,
            seq,
            payload,
        });
    }

    /// Remove and return the earliest event as `(time, payload)`.
    pub fn pop(&mut self) -> Option<(f64, E)> {
        self.heap.pop().map(|e| (e.time, e.payload))
    }

    /// Time of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<f64> {
        self.heap.peek().map(|e| e.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Drop all pending events.
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

/// A minimal simulation driver: an [`EventQueue`] plus the current simulated
/// time.
///
/// The scheduler enforces causality — events may not be scheduled in the
/// past — and advances `now` to each event's timestamp as it is delivered.
#[derive(Debug)]
pub struct Scheduler<E> {
    queue: EventQueue<E>,
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
            queue: EventQueue::new(),
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
        self.queue.push(self.now + delay, payload);
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
        self.queue.push(time.max(self.now), payload);
    }

    /// Deliver the next event, advancing `now` to its timestamp.
    pub fn next_event(&mut self) -> Option<(f64, E)> {
        let (t, e) = self.queue.pop()?;
        self.now = t;
        Some((t, e))
    }

    /// Time of the next pending event without delivering it.
    pub fn peek_time(&self) -> Option<f64> {
        self.queue.peek_time()
    }

    /// Number of pending events.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Run until the queue is empty or `handler` returns `false`,
    /// whichever comes first. Returns the number of events delivered.
    pub fn run(&mut self, mut handler: impl FnMut(&mut Self, f64, E) -> bool) -> u64 {
        let mut delivered = 0;
        while let Some((t, e)) = self.next_event() {
            delivered += 1;
            if !handler(self, t, e) {
                break;
            }
        }
        delivered
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(3.0, "c");
        q.push(1.0, "a");
        q.push(2.0, "b");
        assert_eq!(q.pop(), Some((1.0, "a")));
        assert_eq!(q.pop(), Some((2.0, "b")));
        assert_eq!(q.pop(), Some((3.0, "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn simultaneous_events_are_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(5.0, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((5.0, i)));
        }
        // Signed zeros are one instant: FIFO, and popped as +0.0.
        q.push(-0.0, 0);
        q.push(0.0, 1);
        q.push(-0.0, 2);
        for i in 0..3 {
            let (t, e) = q.pop().unwrap();
            assert_eq!((t.to_bits(), e), (0.0f64.to_bits(), i));
        }
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_time_is_rejected() {
        let mut q = EventQueue::new();
        q.push(f64::NAN, ());
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
    fn run_delivers_until_handler_stops() {
        let mut s: Scheduler<u32> = Scheduler::new();
        for i in 0..10 {
            s.schedule_in(i as f64, i);
        }
        let mut seen = Vec::new();
        let n = s.run(|_, _, e| {
            seen.push(e);
            e < 4
        });
        // Events 0..=3 return true; event 4 is delivered, returns false, stops.
        assert_eq!(n, 5);
        assert_eq!(seen, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn handler_can_schedule_followups() {
        let mut s: Scheduler<u32> = Scheduler::new();
        s.schedule_in(1.0, 0);
        let mut times = Vec::new();
        s.run(|s, t, gen| {
            times.push(t);
            if gen < 3 {
                s.schedule_in(1.0, gen + 1);
            }
            true
        });
        assert_eq!(times, vec![1.0, 2.0, 3.0, 4.0]);
    }
}
