//! The event calendar: a priority queue of timestamped events.
//!
//! Events are generic over a user event type `E`. Ties in timestamp are
//! broken by insertion order (FIFO), which makes simulations deterministic
//! for a given schedule of calls — an essential property for reproducible
//! experiments.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// Opaque handle to a scheduled event, usable for cancellation.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct EventId(u64);

struct Entry<E> {
    time: SimTime,
    seq: u64,
    id: EventId,
    event: E,
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
        // BinaryHeap is a max-heap; reverse so earliest time pops first,
        // and among equal times the lowest sequence number (FIFO).
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic event calendar.
///
/// `pop` returns events in nondecreasing time order; events scheduled for
/// the same instant come back in the order they were scheduled.
pub struct Calendar<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    next_id: u64,
    cancelled: std::collections::HashSet<EventId>,
}

impl<E> Default for Calendar<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Calendar<E> {
    /// Create an empty calendar.
    pub fn new() -> Self {
        Calendar {
            heap: BinaryHeap::new(),
            next_seq: 0,
            next_id: 0,
            cancelled: std::collections::HashSet::new(),
        }
    }

    /// Schedule `event` to fire at absolute time `at`.
    pub fn schedule(&mut self, at: SimTime, event: E) -> EventId {
        let id = EventId(self.next_id);
        self.next_id += 1;
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry {
            time: at,
            seq,
            id,
            event,
        });
        id
    }

    /// Cancel a previously scheduled event. Cancellation is lazy: the
    /// entry stays in the heap but is skipped when popped. Returns `true`
    /// if the id had not already been cancelled.
    pub fn cancel(&mut self, id: EventId) -> bool {
        self.cancelled.insert(id)
    }

    /// Remove and return the earliest pending event, skipping cancelled
    /// entries. `None` when the calendar is exhausted.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        while let Some(entry) = self.heap.pop() {
            if self.cancelled.remove(&entry.id) {
                continue;
            }
            return Some((entry.time, entry.event));
        }
        None
    }

    /// Time of the earliest non-cancelled pending event.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        // Lazily drop cancelled entries from the top of the heap.
        while let Some(top) = self.heap.peek() {
            if self.cancelled.contains(&top.id) {
                let e = self.heap.pop().expect("peeked entry exists");
                self.cancelled.remove(&e.id);
                continue;
            }
            return Some(top.time);
        }
        None
    }

    /// True when no live events remain.
    pub fn is_empty(&mut self) -> bool {
        self.peek_time().is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut c = Calendar::new();
        c.schedule(SimTime::from_millis(30), "c");
        c.schedule(SimTime::from_millis(10), "a");
        c.schedule(SimTime::from_millis(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| c.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_are_fifo() {
        let mut c = Calendar::new();
        let t = SimTime::from_millis(5);
        for i in 0..100 {
            c.schedule(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| c.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn cancellation_skips_events() {
        let mut c = Calendar::new();
        let a = c.schedule(SimTime::from_millis(1), "a");
        c.schedule(SimTime::from_millis(2), "b");
        assert!(c.cancel(a));
        assert!(!c.cancel(a), "double cancel reports false");
        assert_eq!(c.pop().map(|(_, e)| e), Some("b"));
        assert_eq!(c.pop(), None);
    }

    #[test]
    fn peek_time_skips_cancelled_head() {
        let mut c = Calendar::new();
        let a = c.schedule(SimTime::from_millis(1), "a");
        c.schedule(SimTime::from_millis(7), "b");
        c.cancel(a);
        assert_eq!(c.peek_time(), Some(SimTime::from_millis(7)));
        assert!(!c.is_empty());
        c.pop();
        assert!(c.is_empty());
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut c = Calendar::new();
        c.schedule(SimTime::from_millis(10), 1);
        assert_eq!(
            c.pop().map(|(t, e)| (t.as_millis_f64() as u64, e)),
            Some((10, 1))
        );
        c.schedule(SimTime::from_millis(5), 2);
        c.schedule(SimTime::from_millis(6), 3);
        assert_eq!(c.pop().map(|(_, e)| e), Some(2));
        c.schedule(SimTime::from_millis(1), 4); // earlier than remaining
        assert_eq!(c.pop().map(|(_, e)| e), Some(4));
        assert_eq!(c.pop().map(|(_, e)| e), Some(3));
    }
}
