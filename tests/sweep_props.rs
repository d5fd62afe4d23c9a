//! Property tests for the performance architecture: the parallel sweep
//! engine must be thread-count invariant, and the event queue must pop
//! in exactly the order its contract says — stated here as an
//! `(at, seq)`-sorted map, the reference the queue is held to.

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

/// The shape of the harness's `iotnet.engine.ns_per_event` probe: 4 096
/// events pending at once, one in 64 seconds out, the rest within 4 ms.
/// No home comes near this depth (`tests/packed_net_props.rs` pins it),
/// so nothing else holds the queue to its contract there.
fn deep_burst() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec((0u64..4_000_000_000, 0u64..4_000_000), 4096..4097).prop_map(|draws| {
        draws
            .into_iter()
            .enumerate()
            .map(|(i, (far, near))| if i % 64 == 0 { far } else { near })
            .collect()
    })
}

proptest! {
    /// The queue pops what the reference model pops: an arbitrary
    /// schedule (including duplicate timestamps, where insertion order
    /// must win) drains in exactly the same order from both.
    #[test]
    fn prop_queue_matches_sorted_model(
        times in prop_oneof![prop::collection::vec(0u64..5_000_000_000, 1..200), deep_burst()],
    ) {
        let mut queue: EventQueue<u32> = EventQueue::new();
        let mut model = SortedModel::default();
        for (i, t) in times.iter().enumerate() {
            queue.schedule(SimTime::from_nanos(*t), i as u32);
            model.schedule(SimTime::from_nanos(*t), i as u32);
        }
        prop_assert_eq!(queue.len(), model.pending.len());
        loop {
            prop_assert_eq!(queue.peek_time(), model.peek_time());
            let (a, b) = (queue.pop(), model.pop());
            prop_assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    /// Same property under interleaved schedule/pop traffic: popping
    /// advances the clock, and late schedules (clamped to `now`) must
    /// still agree between queue and model.
    #[test]
    fn prop_queue_matches_sorted_model_interleaved(
        batches in prop::collection::vec(
            (prop::collection::vec(0u64..2_000_000_000, 1..20), 1usize..10),
            1..10,
        ),
    ) {
        let mut queue: EventQueue<u32> = EventQueue::new();
        let mut model = SortedModel::default();
        let mut next = 0u32;
        for (times, pops) in batches {
            for t in times {
                queue.schedule(SimTime::from_nanos(t), next);
                model.schedule(SimTime::from_nanos(t), next);
                next += 1;
            }
            for _ in 0..pops {
                prop_assert_eq!(queue.pop(), model.pop());
            }
        }
        while let Some(got) = queue.pop() {
            prop_assert_eq!(Some(got), model.pop());
        }
        prop_assert!(model.pop().is_none());
    }

    /// What a ticking world does to its queue: `pop_until(deadline)` in
    /// rising deadlines, schedules in between. A `pop_until` that finds
    /// the next event past its deadline leaves it pending, so the
    /// schedules that follow land *between the clock and that event* —
    /// they must still pop first, in `(at, seq)` order, and `peek_time`
    /// must see them.
    #[test]
    fn prop_deadline_pops_agree_behind_an_advanced_cursor(
        rounds in prop::collection::vec(
            (
                // Deadline step, then offsets from the clock: a mix of
                // microsecond, millisecond and second distances.
                0u64..50_000_000,
                prop::collection::vec(
                    prop_oneof![0u64..5_000, 0u64..3_000_000, 0u64..3_000_000_000],
                    0..6,
                ),
            ),
            1..30,
        ),
    ) {
        let mut queue: EventQueue<u32> = EventQueue::new();
        let mut model = SortedModel::default();
        let mut next = 0u32;
        let mut deadline = SimTime::ZERO;
        for (step, offsets) in rounds {
            for off in offsets {
                let at = SimTime::from_nanos(queue.now().as_nanos() + off);
                queue.schedule(at, next);
                model.schedule(at, next);
                next += 1;
            }
            prop_assert_eq!(queue.peek_time(), model.peek_time());
            deadline = SimTime::from_nanos(deadline.as_nanos() + step);
            loop {
                let (a, b) = (queue.pop_until(deadline), model.pop_until(deadline));
                prop_assert_eq!(a, b);
                if a.is_none() {
                    break;
                }
            }
            prop_assert_eq!(queue.now(), model.now);
            prop_assert_eq!(queue.len(), model.pending.len());
            prop_assert_eq!(queue.peek_time(), model.peek_time());
        }
        prop_assert_eq!(queue.processed, model.processed);
    }

    /// `reset()` is what `Network::reset_resident` rests on: a queue
    /// reset part-way through a drain — events still pending, clock
    /// advanced — replays a schedule exactly like a cold queue, with the
    /// clock and `processed` restarted from zero.
    #[test]
    fn prop_reset_queue_replays_like_a_cold_one(
        before in prop::collection::vec(0u64..5_000_000_000, 1..60),
        drained in 0usize..60,
        times in prop::collection::vec(0u64..5_000_000_000, 1..100),
    ) {
        let mut queue: EventQueue<u32> = EventQueue::new();
        for (i, t) in before.iter().enumerate() {
            queue.schedule(SimTime::from_nanos(*t), i as u32);
        }
        for _ in 0..drained.min(before.len() - 1) {
            queue.pop();
        }
        queue.reset();
        prop_assert!(queue.is_empty());
        prop_assert_eq!(queue.peek_time(), None);
        prop_assert_eq!((queue.now(), queue.processed), (SimTime::ZERO, 0));

        let mut cold: EventQueue<u32> = EventQueue::new();
        let mut model = SortedModel::default();
        for (i, t) in times.iter().enumerate() {
            for q in [&mut queue, &mut cold] {
                q.schedule(SimTime::from_nanos(*t), i as u32);
            }
            model.schedule(SimTime::from_nanos(*t), i as u32);
        }
        loop {
            let want = model.pop();
            prop_assert_eq!(queue.pop(), want);
            prop_assert_eq!(cold.pop(), want);
            if want.is_none() {
                break;
            }
        }
        prop_assert_eq!(queue.processed, times.len() as u64);
    }
}
