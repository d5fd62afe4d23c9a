//! Discrete-event engine.
//!
//! A minimal, fully deterministic event queue: events are ordered by
//! timestamp, and events with equal timestamps are delivered in insertion
//! order (FIFO-stable). Determinism here is what makes every experiment in
//! EXPERIMENTS.md exactly reproducible from its seed.
//!
//! [`EventQueue`] is one binary heap of `(at, seq, event)` entries. A
//! defended home keeps at most tens of events pending (pinned by
//! `tests/packed_net_props.rs`), so a sift is a handful of moves; the
//! heap's buffer survives [`EventQueue::reset`], so a queue that has held
//! its peak depth schedules and pops without allocating (pinned by
//! `tests/alloc_counter.rs`). DESIGN.md §6 has the measurements behind
//! the choice.
//!
//! The ordering contract is checked against an `(at, seq)`-sorted model
//! that lives with the property tests (`tests/sweep_props.rs`).

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A heap entry: the ordering key and the event it delivers. Only the
/// key takes part in comparisons.
struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
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
        // BinaryHeap is a max-heap; invert to get earliest-first, and break
        // timestamp ties by insertion sequence for FIFO stability.
        other.at.cmp(&self.at).then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A time-ordered, FIFO-stable event queue.
pub struct EventQueue<E> {
    /// Pending events, earliest `(at, seq)` on top.
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    now: SimTime,
    /// Events simulated over the queue's lifetime: every pop, plus the
    /// events the network counted without queueing (`fold_elided`).
    pub processed: u64,
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // State only: payloads need not be `Debug`, and buffer capacity is
        // invisible to the simulation.
        f.debug_struct("EventQueue")
            .field("len", &self.heap.len())
            .field("next_seq", &self.next_seq)
            .field("now", &self.now)
            .field("processed", &self.processed)
            .finish()
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// An empty queue with room for `cap` pending events: a workload that
    /// never exceeds `cap` never grows the heap. The buffer is all a
    /// queue is built from; its state is written by
    /// [`EventQueue::reset`].
    pub fn with_capacity(cap: usize) -> Self {
        let mut queue = EventQueue {
            heap: BinaryHeap::with_capacity(cap),
            next_seq: 0,
            now: SimTime::ZERO,
            processed: 0,
        };
        queue.reset();
        queue
    }

    /// The current clock: the timestamp of the last popped event (or zero).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Bring the queue to its t = 0 state — clock at zero, sequence
    /// counter at zero, nothing pending — retaining the heap's capacity.
    /// The constructor ends here, so a reset queue schedules and pops
    /// exactly like a cold one; recycling it across worlds is invisible
    /// to the simulation.
    pub fn reset(&mut self) {
        self.heap.clear();
        self.next_seq = 0;
        self.now = SimTime::ZERO;
        self.processed = 0;
    }

    /// Schedule `event` at absolute time `at`.
    ///
    /// Scheduling in the past is clamped to `now` — the event fires
    /// immediately on the next pop. (This arises when a zero-latency hop
    /// computes a delivery time equal to the current instant.)
    pub fn schedule(&mut self, at: SimTime, event: E) {
        let at = at.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { at, seq, event });
    }

    /// Timestamp of the next pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.at)
    }

    /// Account for `count` events that were simulated without a ticket,
    /// the latest of them due at `latest`: they join `processed`, and the
    /// clock moves to `latest` if that is ahead of it — where popping
    /// them would have left it, and what [`EventQueue::schedule`] clamps
    /// against. This exists only so `Network` can fold the flood copies
    /// it counts instead of queueing (DESIGN.md §11); the caller owes
    /// that no pending ticket is due at or before `latest`.
    pub(crate) fn fold_elided(&mut self, count: u64, latest: SimTime) {
        self.processed += count;
        self.now = self.now.max(latest);
    }

    /// Pop the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let entry = self.heap.pop()?;
        self.processed += 1;
        self.now = entry.at;
        Some((entry.at, entry.event))
    }

    /// Pop the next event only if it is due at or before `deadline`.
    pub fn pop_until(&mut self, deadline: SimTime) -> Option<(SimTime, E)> {
        if self.peek_time()? <= deadline {
            self.pop()
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn delivers_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(30), "c");
        q.schedule(SimTime::from_millis(10), "a");
        q.schedule(SimTime::from_millis(20), "b");
        assert_eq!(q.pop(), Some((SimTime::from_millis(10), "a")));
        assert_eq!(q.pop(), Some((SimTime::from_millis(20), "b")));
        assert_eq!(q.pop(), Some((SimTime::from_millis(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn fifo_stable_for_equal_timestamps() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(SimTime::from_millis(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn clock_advances_and_clamps_past_schedules() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(10), "x");
        q.pop();
        assert_eq!(q.now(), SimTime::from_millis(10));
        // Scheduling in the past clamps to now.
        q.schedule(SimTime::from_millis(1), "late");
        assert_eq!(q.pop(), Some((SimTime::from_millis(10), "late")));
    }

    #[test]
    fn pop_until_respects_deadline() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(10), "a");
        q.schedule(SimTime::from_millis(20), "b");
        assert_eq!(q.pop_until(SimTime::from_millis(15)), Some((SimTime::from_millis(10), "a")));
        assert_eq!(q.pop_until(SimTime::from_millis(15)), None);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn far_future_events_order_with_near_ones() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(3600), "far");
        q.schedule(SimTime::from_secs(7200), "farther");
        q.schedule(SimTime::from_micros(3), "near");
        assert_eq!(q.pop(), Some((SimTime::from_micros(3), "near")));
        assert_eq!(q.pop(), Some((SimTime::from_secs(3600), "far")));
        // Scheduling relative to the advanced clock still orders correctly.
        q.schedule(SimTime::from_secs(3601), "mid");
        assert_eq!(q.pop(), Some((SimTime::from_secs(3601), "mid")));
        assert_eq!(q.pop(), Some((SimTime::from_secs(7200), "farther")));
        assert!(q.is_empty());
        assert_eq!(q.processed, 4);
    }

    #[test]
    fn peek_time_without_popping() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.schedule(SimTime::from_secs(9), "later");
        q.schedule(SimTime::from_millis(7), "sooner");
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(7)));
        q.pop();
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(9)));
    }

    proptest! {
        #[test]
        fn prop_pop_order_is_nondecreasing(times in proptest::collection::vec(0u64..1_000_000, 1..200)) {
            let mut q = EventQueue::new();
            for (i, t) in times.iter().enumerate() {
                q.schedule(SimTime::from_nanos(*t), i);
            }
            let mut last = SimTime::ZERO;
            while let Some((at, _)) = q.pop() {
                prop_assert!(at >= last);
                last = at;
            }
        }

        #[test]
        fn prop_all_events_delivered(times in proptest::collection::vec(0u64..1000, 0..100)) {
            let mut q = EventQueue::new();
            for (i, t) in times.iter().enumerate() {
                q.schedule(SimTime::from_nanos(*t), i);
            }
            let mut seen = vec![false; times.len()];
            while let Some((_, i)) = q.pop() {
                prop_assert!(!seen[i]);
                seen[i] = true;
            }
            prop_assert!(seen.iter().all(|s| *s));
        }

        #[test]
        fn prop_queue_pops_in_stable_time_order(times in proptest::collection::vec(0u64..5_000_000_000, 1..300)) {
            let mut q = EventQueue::new();
            for (i, t) in times.iter().enumerate() {
                q.schedule(SimTime::from_nanos(*t), i);
            }
            // The contract, stated without a second queue: a stable sort
            // by timestamp (insertion order breaks ties).
            let mut expected: Vec<_> =
                times.iter().enumerate().map(|(i, t)| (SimTime::from_nanos(*t), i)).collect();
            expected.sort_by_key(|e| e.0);
            for want in expected {
                prop_assert_eq!(q.pop(), Some(want));
            }
            prop_assert_eq!(q.pop(), None);
        }
    }
}
