//! Discrete-event simulation kernel for the memory-centric network and NDP
//! models.
//!
//! The paper evaluates with a cycle-accurate Booksim derivative; this
//! workspace substitutes a deterministic packet-level discrete-event
//! simulation (see `DESIGN.md`, substitution 1). The kernel is tiny on
//! purpose:
//!
//! * [`EventQueue`] — a time-ordered queue with deterministic FIFO
//!   tie-breaking, so simulations are exactly reproducible.
//! * [`ResourceTimeline`] — per-resource serialization (a link, a DMA
//!   engine, a systolic array): reserving an interval returns when the
//!   work actually starts and ends under contention.
//!
//! Time is in **cycles** of the 1 GHz router/NDP clock (`1 cycle = 1 ns`).
//!
//! # Examples
//!
//! ```
//! use wmpt_sim::EventQueue;
//!
//! let mut q = EventQueue::new();
//! q.push(10, "b");
//! q.push(5, "a");
//! q.push(10, "c"); // same time as "b": FIFO order preserved
//! assert_eq!(q.pop(), Some((5, "a")));
//! assert_eq!(q.pop(), Some((10, "b")));
//! assert_eq!(q.pop(), Some((10, "c")));
//! assert_eq!(q.pop(), None);
//! ```

#![forbid(unsafe_code)]

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Simulation time in cycles of the 1 GHz clock.
pub type Time = u64;

/// Converts nanoseconds to cycles at the 1 GHz clock (identity by
/// construction, kept explicit for readability at call sites).
pub const fn ns_to_cycles(ns: u64) -> Time {
    ns
}

/// Converts a byte count and a bandwidth in bytes/cycle into a
/// serialization duration, rounding up to at least one cycle.
///
/// # Panics
///
/// Panics if `bytes_per_cycle` is not positive.
pub fn serialization_cycles(bytes: u64, bytes_per_cycle: f64) -> Time {
    assert!(bytes_per_cycle > 0.0, "bandwidth must be positive");
    ((bytes as f64 / bytes_per_cycle).ceil() as Time).max(1)
}

/// A time-ordered event queue with deterministic FIFO tie-breaking.
///
/// Determinism contract: among events pushed with equal timestamps, pops
/// return them in push order — the heap key is `(time, seq)` with a
/// monotonic per-queue sequence number, so iteration order of no hash map
/// ever leaks into simulation results.
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<(Time, u64)>>,
    payloads: std::collections::HashMap<u64, E>,
    seq: u64,
    popped: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            payloads: std::collections::HashMap::new(),
            seq: 0,
            popped: 0,
        }
    }

    /// Schedules `event` at `time`.
    pub fn push(&mut self, time: Time, event: E) {
        let id = self.seq;
        self.seq += 1;
        self.heap.push(Reverse((time, id)));
        self.payloads.insert(id, event);
    }

    /// Removes and returns the earliest event (FIFO among equal times).
    pub fn pop(&mut self) -> Option<(Time, E)> {
        let Reverse((time, id)) = self.heap.pop()?;
        let ev = self
            .payloads
            .remove(&id)
            .expect("payload tracked with heap entry");
        self.popped += 1;
        Some((time, ev))
    }

    /// Time of the next event without removing it.
    pub fn peek_time(&self) -> Option<Time> {
        self.heap.peek().map(|Reverse((t, _))| *t)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Events pushed over the queue's lifetime (observability counter,
    /// exported as `sim.events_pushed`).
    pub fn pushed(&self) -> u64 {
        self.seq
    }

    /// Events popped over the queue's lifetime (observability counter,
    /// exported as `sim.events_popped`).
    pub fn popped(&self) -> u64 {
        self.popped
    }
}

/// Serialization timeline of a single resource (link, port, engine).
///
/// A reservation starting no earlier than `ready` occupies the resource
/// for `duration` cycles, queued behind earlier reservations.
///
/// # Examples
///
/// ```
/// use wmpt_sim::ResourceTimeline;
///
/// let mut link = ResourceTimeline::new();
/// assert_eq!(link.reserve(0, 10), (0, 10));
/// assert_eq!(link.reserve(3, 5), (10, 15));  // queued behind first use
/// assert_eq!(link.reserve(100, 5), (100, 105)); // idle gap
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ResourceTimeline {
    free_at: Time,
    busy: Time,
    reservations: u64,
}

impl ResourceTimeline {
    /// A resource that is free from time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reserves `duration` cycles starting no earlier than `ready`;
    /// returns `(start, end)`.
    pub fn reserve(&mut self, ready: Time, duration: Time) -> (Time, Time) {
        let start = ready.max(self.free_at);
        let end = start + duration;
        self.free_at = end;
        self.busy += duration;
        self.reservations += 1;
        (start, end)
    }

    /// Earliest time a new reservation could start.
    pub fn free_at(&self) -> Time {
        self.free_at
    }

    /// Total busy cycles accumulated (for utilization and link-energy
    /// accounting).
    pub fn busy_cycles(&self) -> Time {
        self.busy
    }

    /// Number of reservations made (observability counter).
    pub fn reservations(&self) -> u64 {
        self.reservations
    }

    /// Utilization over `[0, horizon]`.
    pub fn utilization(&self, horizon: Time) -> f64 {
        if horizon == 0 {
            0.0
        } else {
            self.busy as f64 / horizon as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_orders_by_time() {
        let mut q = EventQueue::new();
        q.push(30, 3);
        q.push(10, 1);
        q.push(20, 2);
        assert_eq!(q.pop(), Some((10, 1)));
        assert_eq!(q.pop(), Some((20, 2)));
        assert_eq!(q.pop(), Some((30, 3)));
        assert!(q.is_empty());
    }

    #[test]
    fn queue_breaks_ties_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(7, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((7, i)));
        }
    }

    #[test]
    fn queue_is_fifo_under_interleaved_push_pop() {
        // Regression for determinism: FIFO order among equal timestamps
        // must survive pops interleaved with pushes (the sequence counter
        // is monotonic for the queue's lifetime, not per heap epoch).
        let mut q = EventQueue::new();
        q.push(5, "a");
        q.push(5, "b");
        assert_eq!(q.pop(), Some((5, "a")));
        q.push(5, "c"); // pushed after a pop, same timestamp as "b"
        q.push(3, "early");
        q.push(5, "d");
        assert_eq!(q.pop(), Some((3, "early")));
        assert_eq!(q.pop(), Some((5, "b")));
        assert_eq!(q.pop(), Some((5, "c")));
        assert_eq!(q.pop(), Some((5, "d")));
        assert_eq!(q.pop(), None);
        assert_eq!(q.pushed(), 5);
        assert_eq!(q.popped(), 5);
    }

    #[test]
    fn queue_counters_track_traffic() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.push(i, i);
        }
        assert_eq!(q.pushed(), 10);
        assert_eq!(q.popped(), 0);
        q.pop();
        q.pop();
        assert_eq!(q.popped(), 2);
        assert_eq!(q.len(), 8);
    }

    #[test]
    fn timeline_counts_reservations() {
        let mut r = ResourceTimeline::new();
        assert_eq!(r.reservations(), 0);
        r.reserve(0, 10);
        r.reserve(0, 10);
        assert_eq!(r.reservations(), 2);
    }

    #[test]
    fn queue_peek_does_not_consume() {
        let mut q = EventQueue::new();
        q.push(5, "x");
        assert_eq!(q.peek_time(), Some(5));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((5, "x")));
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn timeline_serializes_overlapping_work() {
        let mut r = ResourceTimeline::new();
        let (s1, e1) = r.reserve(0, 10);
        let (s2, e2) = r.reserve(0, 10);
        assert_eq!((s1, e1), (0, 10));
        assert_eq!((s2, e2), (10, 20));
        assert_eq!(r.busy_cycles(), 20);
        assert_eq!(r.utilization(40), 0.5);
    }

    #[test]
    fn timeline_respects_ready_time() {
        let mut r = ResourceTimeline::new();
        r.reserve(0, 5);
        let (s, e) = r.reserve(50, 5);
        assert_eq!((s, e), (50, 55));
        assert_eq!(r.free_at(), 55);
    }

    #[test]
    fn serialization_rounds_up() {
        assert_eq!(serialization_cycles(64, 32.0), 2);
        assert_eq!(serialization_cycles(65, 32.0), 3);
        assert_eq!(serialization_cycles(1, 1000.0), 1);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn serialization_rejects_zero_bandwidth() {
        let _ = serialization_cycles(64, 0.0);
    }

    #[test]
    fn ns_conversion_is_identity_at_1ghz() {
        assert_eq!(ns_to_cycles(5), 5);
    }
}
