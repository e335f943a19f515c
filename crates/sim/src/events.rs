//! The event queue.
//!
//! A binary heap keyed on `(time, sequence)`. The sequence number breaks
//! ties in insertion order, which makes event processing deterministic even
//! when many events share a timestamp.

use crate::time::Time;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A scheduled event: payload `E` due at a given instant.
struct Scheduled<E> {
    time: Time,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic future-event list.
///
/// ```
/// use parn_sim::{EventQueue, Time};
/// let mut q = EventQueue::new();
/// q.schedule(Time(20), "later");
/// q.schedule(Time(10), "sooner");
/// assert_eq!(q.pop(), Some((Time(10), "sooner")));
/// assert_eq!(q.now(), Time(10));
/// ```
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    next_seq: u64,
    now: Time,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue positioned at time zero.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: Time::ZERO,
        }
    }

    /// The current simulation time: the timestamp of the last popped event
    /// (or zero before any pop).
    pub fn now(&self) -> Time {
        self.now
    }

    /// Schedule `payload` at absolute time `at`.
    ///
    /// Panics when scheduling into the past: a simulator bug that must not
    /// be silently reordered.
    pub fn schedule(&mut self, at: Time, payload: E) {
        assert!(
            at >= self.now,
            "scheduling into the past: {:?} < {:?}",
            at,
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Scheduled {
            time: at,
            seq,
            payload,
        });
    }

    /// Pop the earliest event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        self.heap.pop().map(|s| {
            self.now = s.time;
            (s.time, s.payload)
        })
    }

    /// Timestamp of the earliest pending event.
    pub fn peek_time(&self) -> Option<Time> {
        self.heap.peek().map(|s| s.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(Time(30), "c");
        q.schedule(Time(10), "a");
        q.schedule(Time(20), "b");
        assert_eq!(q.pop(), Some((Time(10), "a")));
        assert_eq!(q.pop(), Some((Time(20), "b")));
        assert_eq!(q.pop(), Some((Time(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(Time(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((Time(5), i)));
        }
    }

    #[test]
    fn clock_advances_on_pop() {
        let mut q = EventQueue::new();
        assert_eq!(q.now(), Time::ZERO);
        q.schedule(Time(42), ());
        q.pop();
        assert_eq!(q.now(), Time(42));
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.schedule(Time(9), 1);
        q.schedule(Time(3), 2);
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(Time(3)));
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    fn past_scheduling_panics() {
        let mut q = EventQueue::new();
        q.schedule(Time(10), ());
        q.pop();
        q.schedule(Time(5), ());
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut q = EventQueue::new();
        q.schedule(Time(1), 1);
        q.schedule(Time(5), 5);
        assert_eq!(q.pop(), Some((Time(1), 1)));
        q.schedule(Time(3), 3);
        assert_eq!(q.pop(), Some((Time(3), 3)));
        assert_eq!(q.pop(), Some((Time(5), 5)));
    }
}
