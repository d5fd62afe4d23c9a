//! Property tests for the performance architecture: the parallel sweep
//! engine must be thread-count invariant, and the timer-wheel event
//! queue must pop in exactly the order its contract says — stated here
//! as an `(at, seq)`-sorted map, the reference the wheel is held to.

use iotsec_bench::sweep::{sweep_worlds, totals, SweepScenario, WorldJob};
use iotsec_repro::iotnet::engine::EventQueue;
use iotsec_repro::iotnet::time::SimTime;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// The event queue's ordering contract as a sorted map: earliest
/// timestamp first, insertion order among equals, a schedule in the past
/// clamped to the clock, the clock following the last pop.
#[derive(Default)]
struct SortedModel {
    pending: BTreeMap<(SimTime, u64), u32>,
    next_seq: u64,
    now: SimTime,
    processed: u64,
}

impl SortedModel {
    fn schedule(&mut self, at: SimTime, event: u32) {
        self.pending.insert((at.max(self.now), self.next_seq), event);
        self.next_seq += 1;
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.pending.keys().next().map(|&(at, _)| at)
    }

    fn pop_until(&mut self, deadline: SimTime) -> Option<(SimTime, u32)> {
        if self.peek_time()? > deadline {
            return None;
        }
        let ((at, _), event) = self.pending.pop_first()?;
        self.now = at;
        self.processed += 1;
        Some((at, event))
    }

    fn pop(&mut self) -> Option<(SimTime, u32)> {
        self.pop_until(SimTime::MAX)
    }
}

/// The E16 acceptance property: for every (scenario, seed) cell the
/// parallel sweep's merged outcome digests are byte-identical to the
/// serial reference run.
#[test]
fn parallel_sweep_is_byte_identical_to_serial() {
    let mut jobs = Vec::new();
    for scenario in [SweepScenario::HomeUndefended, SweepScenario::HomeIoTSec] {
        for seed in [11u64, 12, 13] {
            jobs.push(WorldJob { scenario, seed, population: 0 });
        }
    }
    let serial = sweep_worlds(&jobs, 1);
    let parallel = sweep_worlds(&jobs, 4);
    let serial_digests: Vec<String> = serial.iter().map(|o| o.digest()).collect();
    let parallel_digests: Vec<String> = parallel.iter().map(|o| o.digest()).collect();
    assert_eq!(serial_digests, parallel_digests);
    // Engine work is reported one way — folded from the outcomes the
    // sweep returns — and is the same at either thread count.
    assert_eq!(parallel.len(), jobs.len());
    let (events, lookups, hits) = totals(&serial);
    assert_eq!(totals(&parallel), (events, lookups, hits));
    assert!(events > 0 && hits > 0 && hits <= lookups);
}

proptest! {
    /// The timer wheel pops what the reference model pops: an arbitrary
    /// schedule (including duplicate timestamps, where insertion order
    /// must win) drains in exactly the same order from both.
    #[test]
    fn prop_timer_wheel_matches_reference_heap(
        times in prop::collection::vec(0u64..5_000_000_000, 1..200),
    ) {
        let mut wheel: EventQueue<u32> = EventQueue::new();
        let mut model = SortedModel::default();
        for (i, t) in times.iter().enumerate() {
            wheel.schedule(SimTime::from_nanos(*t), i as u32);
            model.schedule(SimTime::from_nanos(*t), i as u32);
        }
        prop_assert_eq!(wheel.len(), model.pending.len());
        loop {
            prop_assert_eq!(wheel.peek_time(), model.peek_time());
            let (a, b) = (wheel.pop(), model.pop());
            prop_assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    /// Same property under interleaved schedule/pop traffic: popping
    /// advances the clock, and late schedules (clamped to `now`) must
    /// still agree between wheel and model.
    #[test]
    fn prop_timer_wheel_matches_heap_interleaved(
        batches in prop::collection::vec(
            (prop::collection::vec(0u64..2_000_000_000, 1..20), 1usize..10),
            1..10,
        ),
    ) {
        let mut wheel: EventQueue<u32> = EventQueue::new();
        let mut model = SortedModel::default();
        let mut next = 0u32;
        for (times, pops) in batches {
            for t in times {
                wheel.schedule(SimTime::from_nanos(t), next);
                model.schedule(SimTime::from_nanos(t), next);
                next += 1;
            }
            for _ in 0..pops {
                prop_assert_eq!(wheel.pop(), model.pop());
            }
        }
        while let Some(got) = wheel.pop() {
            prop_assert_eq!(Some(got), model.pop());
        }
        prop_assert!(model.pop().is_none());
    }

    /// What a ticking world does to its queue: `pop_until(deadline)` in
    /// rising deadlines, schedules in between. A `pop_until` that finds
    /// the next event past its deadline has already moved the wheel's
    /// cursor out to that event's slot, so the schedules that follow land
    /// *between the clock and the cursor* — they must still pop first, in
    /// `(at, seq)` order, and `peek_time` must see them.
    #[test]
    fn prop_deadline_pops_agree_behind_an_advanced_cursor(
        rounds in prop::collection::vec(
            (
                // Deadline step, then offsets from the clock: a mix of
                // same-slot, in-wheel and overflow-tier distances.
                0u64..50_000_000,
                prop::collection::vec(
                    prop_oneof![0u64..5_000, 0u64..3_000_000, 0u64..3_000_000_000],
                    0..6,
                ),
            ),
            1..30,
        ),
    ) {
        let mut wheel: EventQueue<u32> = EventQueue::new();
        let mut model = SortedModel::default();
        let mut next = 0u32;
        let mut deadline = SimTime::ZERO;
        for (step, offsets) in rounds {
            for off in offsets {
                let at = SimTime::from_nanos(wheel.now().as_nanos() + off);
                wheel.schedule(at, next);
                model.schedule(at, next);
                next += 1;
            }
            prop_assert_eq!(wheel.peek_time(), model.peek_time());
            deadline = SimTime::from_nanos(deadline.as_nanos() + step);
            loop {
                let (a, b) = (wheel.pop_until(deadline), model.pop_until(deadline));
                prop_assert_eq!(a, b);
                if a.is_none() {
                    break;
                }
            }
            prop_assert_eq!(wheel.now(), model.now);
            prop_assert_eq!(wheel.len(), model.pending.len());
            prop_assert_eq!(wheel.peek_time(), model.peek_time());
        }
        prop_assert_eq!(wheel.processed, model.processed);
    }

    /// `reset()` is what `Network::reset_resident` rests on: a queue
    /// reset part-way through a drain — events still parked in the due
    /// heap, the wheel and the overflow tier, cursor advanced — replays
    /// a schedule exactly like a cold queue, with the clock and
    /// `processed` restarted from zero.
    #[test]
    fn prop_reset_queue_replays_like_a_cold_one(
        before in prop::collection::vec(0u64..5_000_000_000, 1..60),
        drained in 0usize..60,
        times in prop::collection::vec(0u64..5_000_000_000, 1..100),
    ) {
        let mut wheel: EventQueue<u32> = EventQueue::new();
        for (i, t) in before.iter().enumerate() {
            wheel.schedule(SimTime::from_nanos(*t), i as u32);
        }
        for _ in 0..drained.min(before.len() - 1) {
            wheel.pop();
        }
        wheel.reset();
        prop_assert!(wheel.is_empty());
        prop_assert_eq!(wheel.peek_time(), None);
        prop_assert_eq!((wheel.now(), wheel.processed), (SimTime::ZERO, 0));

        let mut cold: EventQueue<u32> = EventQueue::new();
        let mut model = SortedModel::default();
        for (i, t) in times.iter().enumerate() {
            for q in [&mut wheel, &mut cold] {
                q.schedule(SimTime::from_nanos(*t), i as u32);
            }
            model.schedule(SimTime::from_nanos(*t), i as u32);
        }
        loop {
            let want = model.pop();
            prop_assert_eq!(wheel.pop(), want);
            prop_assert_eq!(cold.pop(), want);
            if want.is_none() {
                break;
            }
        }
        prop_assert_eq!(wheel.processed, times.len() as u64);
    }
}
