//! Discrete-event engine.
//!
//! A minimal, fully deterministic event queue: events are ordered by
//! timestamp, and events with equal timestamps are delivered in insertion
//! order (FIFO-stable). Determinism here is what makes every experiment in
//! EXPERIMENTS.md exactly reproducible from its seed.
//!
//! [`EventQueue`] is a **hierarchical timer wheel** with a binary-heap
//! overflow tier. Near-future events (the common case: link latencies and
//! µmbox detours are microseconds to milliseconds) go into O(1) wheel
//! slots; events beyond the wheel's horizon wait in the overflow heap and
//! are cascaded in when the wheel advances. Event payloads live in a slab
//! [`EventArena`] with generational indices: the wheel slots and heaps
//! move only plain `u32` [`EventHandle`]s (24-byte tickets), freed slots
//! recycle through an intrusive free list, and the steady state allocates
//! nothing (pinned by `tests/alloc_counter.rs`).
//!
//! The ordering contract is checked against an `(at, seq)`-sorted model
//! that lives with the property tests (`tests/sweep_props.rs`).

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A generational handle into an [`EventArena`]: the low 24 bits are the
/// slot index, the high 8 bits the slot's generation at insertion time.
/// Accessing a slot after its event was removed fails (`None`) rather
/// than silently yielding a different event — the generation check turns
/// use-after-free into a detected error. (The 8-bit generation wraps
/// after 256 reuses of one slot; a handle held across exactly a multiple
/// of 256 recycles would alias. The engine never holds handles across
/// pops, and the proptests in `tests/packed_net_props.rs` pin the
/// detection behavior.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventHandle(u32);

/// Bits of an [`EventHandle`] carrying the slot index.
const HANDLE_INDEX_BITS: u32 = 24;
/// Free-list terminator (also the max representable index, reserved).
const HANDLE_NIL: u32 = (1 << HANDLE_INDEX_BITS) - 1;

impl EventHandle {
    fn new(index: u32, generation: u8) -> EventHandle {
        EventHandle((u32::from(generation) << HANDLE_INDEX_BITS) | index)
    }

    /// The raw packed word (index | generation), for diagnostics.
    pub fn raw(self) -> u32 {
        self.0
    }

    fn index(self) -> u32 {
        self.0 & HANDLE_NIL
    }

    fn generation(self) -> u8 {
        (self.0 >> HANDLE_INDEX_BITS) as u8
    }
}

enum SlotState<E> {
    Occupied(E),
    Free { next: u32 },
}

struct ArenaSlot<E> {
    generation: u8,
    state: SlotState<E>,
}

/// A slab of event payloads addressed by generational [`EventHandle`]s.
///
/// Freed slots recycle through an intrusive free list threaded through
/// the `Free` variant, so a warm arena inserts and removes without
/// touching the allocator. Capacity grows only when every slot is
/// occupied (amortized, and avoidable entirely via
/// [`EventArena::with_capacity`]).
pub struct EventArena<E> {
    slots: Vec<ArenaSlot<E>>,
    free_head: u32,
    len: usize,
}

impl<E> Default for EventArena<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventArena<E> {
    /// An empty arena.
    pub fn new() -> Self {
        EventArena { slots: Vec::new(), free_head: HANDLE_NIL, len: 0 }
    }

    /// An empty arena with room for `cap` events before any growth.
    pub fn with_capacity(cap: usize) -> Self {
        EventArena { slots: Vec::with_capacity(cap), free_head: HANDLE_NIL, len: 0 }
    }

    /// Number of live events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are live.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total slots the arena can hold before growing.
    pub fn capacity(&self) -> usize {
        self.slots.capacity()
    }

    /// Return the arena to its freshly-constructed state, retaining the
    /// slot storage. A reset arena assigns indices and generations
    /// exactly like a cold one (slots refill in append order from index
    /// 0), so recycled and cold worlds behave identically — only the
    /// allocator sees the difference.
    pub fn reset(&mut self) {
        self.slots.clear();
        self.free_head = HANDLE_NIL;
        self.len = 0;
    }

    /// Store `event`, returning its handle. Reuses a freed slot when one
    /// is available; otherwise appends (the only allocating path).
    ///
    /// # Panics
    /// If the arena holds 2^24 − 1 live events (the index space of the
    /// packed handle) — far beyond any simulated pending-event count.
    pub fn insert(&mut self, event: E) -> EventHandle {
        self.len += 1;
        if self.free_head != HANDLE_NIL {
            let index = self.free_head;
            let slot = &mut self.slots[index as usize];
            match slot.state {
                SlotState::Free { next } => self.free_head = next,
                SlotState::Occupied(_) => unreachable!("free list points at occupied slot"),
            }
            slot.state = SlotState::Occupied(event);
            EventHandle::new(index, slot.generation)
        } else {
            let index = self.slots.len() as u32;
            assert!(index < HANDLE_NIL, "event arena exhausted its 24-bit index space");
            self.slots.push(ArenaSlot { generation: 0, state: SlotState::Occupied(event) });
            EventHandle::new(index, 0)
        }
    }

    /// The event behind `handle`, or `None` if the handle is stale (its
    /// slot was freed or recycled) or out of range.
    pub fn get(&self, handle: EventHandle) -> Option<&E> {
        let slot = self.slots.get(handle.index() as usize)?;
        match &slot.state {
            SlotState::Occupied(e) if slot.generation == handle.generation() => Some(e),
            _ => None,
        }
    }

    /// Remove and return the event behind `handle`; `None` if the handle
    /// is stale or out of range. The slot's generation bumps so every
    /// outstanding copy of the handle becomes stale, and the slot joins
    /// the free list for reuse.
    pub fn remove(&mut self, handle: EventHandle) -> Option<E> {
        let index = handle.index() as usize;
        let slot = self.slots.get_mut(index)?;
        if slot.generation != handle.generation() || !matches!(slot.state, SlotState::Occupied(_)) {
            return None;
        }
        let state = std::mem::replace(&mut slot.state, SlotState::Free { next: self.free_head });
        slot.generation = slot.generation.wrapping_add(1);
        self.free_head = handle.index();
        self.len -= 1;
        match state {
            SlotState::Occupied(e) => Some(e),
            SlotState::Free { .. } => unreachable!("checked occupied above"),
        }
    }
}

/// A wheel/heap ticket: the ordering key plus the arena handle of the
/// event payload. 24 bytes and `Copy`, so slot vectors and heaps shuffle
/// words instead of event payloads.
#[derive(Clone, Copy)]
struct Ticket {
    at: SimTime,
    seq: u64,
    handle: EventHandle,
}

impl PartialEq for Ticket {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Ticket {}
impl PartialOrd for Ticket {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Ticket {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert to get earliest-first, and break
        // timestamp ties by insertion sequence for FIFO stability.
        other.at.cmp(&self.at).then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Level-0 slot width: 2^12 ns = 4.096 µs.
const GRAN_BITS: u32 = 12;
/// Slots per wheel level (2^6 = 64).
const SLOT_BITS: u32 = 6;
const SLOTS: usize = 1 << SLOT_BITS;
/// Wheel levels. Total span = 2^(12 + 3·6) ns ≈ 1.07 s; anything further
/// out sits in the overflow heap until the wheel advances.
const LEVELS: usize = 3;

fn level_shift(level: usize) -> u32 {
    GRAN_BITS + SLOT_BITS * level as u32
}

/// A time-ordered, FIFO-stable event queue backed by a hierarchical timer
/// wheel with a heap overflow tier.
///
/// Event payloads live in an [`EventArena`]; the wheel slots and both
/// heaps move 24-byte `Ticket`s (ordering key + generational handle)
/// only. Slot vectors, heaps and arena slots all retain their capacity
/// across drains, so a warm queue schedules and pops with zero
/// allocations.
pub struct EventQueue<E> {
    /// Slab storage for the scheduled event payloads.
    arena: EventArena<E>,
    /// `levels[l][slot]` holds tickets whose delivery time falls in that
    /// slot of level `l`. Slot vectors are unsorted; a slot is sorted once,
    /// when it becomes due, by draining it into `ready`.
    levels: Vec<Vec<Vec<Ticket>>>,
    /// Tickets per level, to skip empty levels in O(1).
    level_len: [usize; LEVELS],
    /// Tickets beyond the wheel's span, earliest first.
    overflow: BinaryHeap<Ticket>,
    /// The due set: every ticket at or before the current level-0 slot,
    /// ordered by `(at, seq)`. Popping drains this heap; it is refilled by
    /// advancing the wheel cursor.
    ready: BinaryHeap<Ticket>,
    /// Reusable buffer for cascading a higher-level slot (capacity is
    /// retained across cascades so re-placing allocates nothing).
    cascade_scratch: Vec<Ticket>,
    /// Start (ns) of the level-0 slot currently feeding `ready`.
    cursor: u64,
    len: usize,
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
            .field("len", &self.len)
            .field("level_len", &self.level_len)
            .field("cursor", &self.cursor)
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

    /// An empty queue pre-sized for `cap` pending events: the arena, the
    /// due heap and the cascade scratch reserve up front, so a workload
    /// that never exceeds `cap` pending events never grows them. The
    /// buffers are all a queue is built from; its state is written by
    /// [`EventQueue::reset`].
    pub fn with_capacity(cap: usize) -> Self {
        let mut queue = EventQueue {
            arena: EventArena::with_capacity(cap),
            levels: (0..LEVELS).map(|_| (0..SLOTS).map(|_| Vec::new()).collect()).collect(),
            level_len: [0; LEVELS],
            overflow: BinaryHeap::new(),
            ready: BinaryHeap::with_capacity(cap),
            cascade_scratch: Vec::new(),
            cursor: 0,
            len: 0,
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
        self.len
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bring the queue to its t = 0 state — clock at zero, sequence
    /// counter at zero, nothing pending — retaining every buffer's
    /// capacity (arena slots, wheel slot vectors, heaps, cascade
    /// scratch). The constructor ends here, so a reset queue schedules
    /// and pops exactly like a cold one; recycling it across worlds is
    /// invisible to the simulation (E25 arena-reuse).
    pub fn reset(&mut self) {
        self.arena.reset();
        for level in &mut self.levels {
            for slot in level {
                slot.clear();
            }
        }
        self.level_len = [0; LEVELS];
        self.overflow.clear();
        self.ready.clear();
        self.cascade_scratch.clear();
        self.cursor = 0;
        self.len = 0;
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
        self.len += 1;
        let handle = self.arena.insert(event);
        self.place(Ticket { at, seq, handle });
    }

    /// Route a ticket to the due set, a wheel slot, or the overflow tier.
    fn place(&mut self, entry: Ticket) {
        let ns = entry.at.as_nanos();
        // At or before the slot currently being drained: it is due now.
        // (This also catches clock-clamped entries "behind" the cursor.)
        if ns < self.cursor + (1 << GRAN_BITS) {
            self.ready.push(entry);
            return;
        }
        for level in 0..LEVELS {
            // The entry belongs at `level` iff all bits above that level's
            // slot index agree with the cursor's — i.e. it lands within the
            // window the level spans from the cursor's position.
            let shift = level_shift(level) + SLOT_BITS;
            if (ns >> shift) == (self.cursor >> shift) {
                let slot = (ns >> level_shift(level)) as usize & (SLOTS - 1);
                self.levels[level][slot].push(entry);
                self.level_len[level] += 1;
                return;
            }
        }
        self.overflow.push(entry);
    }

    /// Move the cursor to the next populated slot and drain it into
    /// `ready`. Precondition: `ready` is empty and `len > 0`.
    fn advance(&mut self) {
        loop {
            // A cascade may have routed entries straight into `ready` (they
            // landed at or before the moved cursor's slot); those are the
            // earliest pending events, so stop here.
            if !self.ready.is_empty() {
                return;
            }
            // Find the first populated level-0 slot at or after the cursor
            // within the current level-0 window.
            if self.level_len[0] > 0 {
                let start = (self.cursor >> GRAN_BITS) as usize & (SLOTS - 1);
                for slot in start..SLOTS {
                    if !self.levels[0][slot].is_empty() {
                        self.level_len[0] -= self.levels[0][slot].len();
                        // Align the cursor with the drained slot.
                        let window = self.cursor >> (GRAN_BITS + SLOT_BITS);
                        self.cursor = (window << SLOT_BITS | slot as u64) << GRAN_BITS;
                        // Drain in place: the slot vector keeps its
                        // capacity for the wheel's next lap.
                        self.ready.extend(self.levels[0][slot].drain(..));
                        return;
                    }
                }
            }
            // Level-0 window exhausted: cascade the next populated slot of
            // the first higher level that has one, re-placing its entries
            // (they now fit lower levels relative to the moved cursor).
            let mut cascaded = false;
            for level in 1..LEVELS {
                if self.level_len[level] == 0 {
                    continue;
                }
                let shift = level_shift(level);
                let start = (self.cursor >> shift) as usize & (SLOTS - 1);
                // Entries at this level are strictly after the cursor's own
                // slot's lower-level window, so scanning from `start` is
                // safe: slot `start` can only hold entries not yet cascaded.
                for slot in start..SLOTS {
                    if self.levels[level][slot].is_empty() {
                        continue;
                    }
                    self.level_len[level] -= self.levels[level][slot].len();
                    let window = self.cursor >> (shift + SLOT_BITS);
                    self.cursor = (window << SLOT_BITS | slot as u64) << shift;
                    // Move the tickets through the reusable scratch (both
                    // vectors retain capacity) and re-place them against
                    // the moved cursor.
                    let mut scratch = std::mem::take(&mut self.cascade_scratch);
                    scratch.append(&mut self.levels[level][slot]);
                    for e in scratch.drain(..) {
                        self.place(e);
                    }
                    self.cascade_scratch = scratch;
                    cascaded = true;
                    break;
                }
                if cascaded {
                    break;
                }
            }
            if cascaded {
                continue;
            }
            // Wheel fully drained: re-anchor at the overflow's earliest
            // entry and pull in everything within the new span.
            let head = self.overflow.pop().expect("len > 0 but queue empty");
            self.cursor = head.at.as_nanos() >> GRAN_BITS << GRAN_BITS;
            let span_end = {
                let shift = level_shift(LEVELS - 1) + SLOT_BITS;
                ((self.cursor >> shift) + 1) << shift
            };
            self.ready.push(head);
            while let Some(peek) = self.overflow.peek() {
                if peek.at.as_nanos() >= span_end {
                    break;
                }
                let e = self.overflow.pop().unwrap();
                self.place(e);
            }
            return;
        }
    }

    /// Make `ready` non-empty if any event is pending.
    fn ensure_ready(&mut self) {
        if self.ready.is_empty() && self.len > 0 {
            self.advance();
        }
    }

    /// Timestamp of the next pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        if self.len == 0 {
            return None;
        }
        if let Some(e) = self.ready.peek() {
            return Some(e.at);
        }
        // Cold path (`&self`, so no cursor advance): scan the wheel and the
        // overflow head. Only hit by callers polling an idle queue.
        let mut min: Option<SimTime> = None;
        for level in 0..LEVELS {
            if self.level_len[level] == 0 {
                continue;
            }
            for slot in &self.levels[level] {
                for e in slot {
                    if min.is_none_or(|m| e.at < m) {
                        min = Some(e.at);
                    }
                }
            }
        }
        if let Some(e) = self.overflow.peek() {
            if min.is_none_or(|m| e.at < m) {
                min = Some(e.at);
            }
        }
        min
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
        self.ensure_ready();
        let entry = self.ready.pop()?;
        self.len -= 1;
        self.processed += 1;
        self.now = entry.at;
        let event = self
            .arena
            .remove(entry.handle)
            .expect("every ticket in the wheel maps to a live arena slot");
        Some((entry.at, event))
    }

    /// Pop the next event only if it is due at or before `deadline`.
    pub fn pop_until(&mut self, deadline: SimTime) -> Option<(SimTime, E)> {
        self.ensure_ready();
        if self.ready.peek()?.at <= deadline {
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
    fn arena_insert_get_remove_round_trip() {
        let mut a = EventArena::new();
        let h1 = a.insert("one");
        let h2 = a.insert("two");
        assert_eq!(a.len(), 2);
        assert_eq!(a.get(h1), Some(&"one"));
        assert_eq!(a.get(h2), Some(&"two"));
        assert_eq!(a.remove(h1), Some("one"));
        assert_eq!(a.len(), 1);
        assert_eq!(a.get(h1), None, "freed slot must not resolve");
        assert_eq!(a.remove(h1), None, "double free is an error, not a steal");
        assert_eq!(a.remove(h2), Some("two"));
        assert!(a.is_empty());
    }

    #[test]
    fn arena_recycles_slots_and_detects_stale_handles() {
        let mut a = EventArena::new();
        let h1 = a.insert(10u32);
        assert_eq!(a.remove(h1), Some(10));
        // The freed slot is reused (intrusive free list), under a new
        // generation: the old handle stays dead.
        let h2 = a.insert(20);
        assert_eq!(h2.index(), h1.index());
        assert_ne!(h2.generation(), h1.generation());
        assert_eq!(a.get(h1), None);
        assert_eq!(a.remove(h1), None);
        assert_eq!(a.get(h2), Some(&20));
        // Capacity did not grow past the single recycled slot.
        assert_eq!(a.slots.len(), 1);
    }

    #[test]
    fn arena_free_list_is_lifo_over_many_slots() {
        let mut a = EventArena::new();
        let handles: Vec<_> = (0..8u32).map(|i| a.insert(i)).collect();
        for h in &handles {
            assert!(a.remove(*h).is_some());
        }
        // Reinsertion pops the free list (most recently freed first) and
        // never grows the slot vector.
        for i in 0..8u32 {
            let h = a.insert(100 + i);
            assert_eq!(h.index(), handles[7 - i as usize].index());
        }
        assert_eq!(a.slots.len(), 8);
    }

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
    fn far_future_events_cross_the_overflow_tier() {
        let mut q = EventQueue::new();
        // Beyond the wheel's ~1.07 s span: lands in overflow.
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
        fn prop_wheel_pops_in_stable_time_order(times in proptest::collection::vec(0u64..5_000_000_000, 1..300)) {
            let mut wheel = EventQueue::new();
            for (i, t) in times.iter().enumerate() {
                wheel.schedule(SimTime::from_nanos(*t), i);
            }
            // The contract, stated without a second queue: a stable sort
            // by timestamp (insertion order breaks ties).
            let mut expected: Vec<_> =
                times.iter().enumerate().map(|(i, t)| (SimTime::from_nanos(*t), i)).collect();
            expected.sort_by_key(|e| e.0);
            for want in expected {
                prop_assert_eq!(wheel.pop(), Some(want));
            }
            prop_assert_eq!(wheel.pop(), None);
        }
    }
}
