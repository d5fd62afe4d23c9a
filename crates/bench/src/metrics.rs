//! Per-experiment engine counters, threaded into every JSON record.
//!
//! `BENCH_E16.json` used to report `events_processed: 0` and
//! `cache_hit_rate: 0.0` for every experiment except E16 itself — the
//! runner had no way to see the engine work done inside `table1`,
//! `fig3`–`fig5`, `endtoend`, `chaos` or `safety`. This module gives the
//! runner that visibility without touching any experiment signature: a
//! thread-local tally that each world-running experiment feeds
//! ([`record_world`]) as it finishes a world, and the runner drains
//! ([`take`]) after each experiment to populate that row's record.
//!
//! Thread-local is the right scope: worlds in the non-perf experiments
//! run serially on the runner's thread. The parallel sweeps (E16/E17)
//! run worlds on worker threads, but those experiments already report
//! their counters through [`crate::report::Report::outcome`] — the
//! tally is their fallback, not their source.

use crate::report::hit_rate;
use std::cell::Cell;

thread_local! {
    /// `(events processed, cache lookups, cache hits)` since the last
    /// [`reset`] / [`take`].
    static WORK: Cell<(u64, u64, u64)> = const { Cell::new((0, 0, 0)) };
}

/// Clear the calling thread's tally.
pub fn reset() {
    WORK.set((0, 0, 0));
}

/// Add one engine-work observation: simulation events processed plus
/// flow-decision-cache lookups and hits.
pub fn add_work(events: u64, cache_lookups: u64, cache_hits: u64) {
    let (e, l, h) = WORK.get();
    WORK.set((e + events, l + cache_lookups, h + cache_hits));
}

/// Record a finished world's engine counters.
pub fn record_world(w: &iotsec::world::World) {
    let (lookups, hits) = w.net.cache_stats();
    add_work(w.net.events_processed(), lookups, hits);
}

/// Drain the tally: `(events_processed, cache_hit_rate)` accumulated
/// since the last [`reset`]/[`take`], leaving it empty.
pub fn take() -> (u64, f64) {
    let (events, lookups, hits) = WORK.replace((0, 0, 0));
    (events, hit_rate(hits, lookups))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_drains_accumulated_work() {
        reset();
        add_work(100, 10, 4);
        add_work(50, 10, 6);
        let (events, rate) = take();
        assert_eq!(events, 150);
        assert!((rate - 0.5).abs() < 1e-9);
        // Drained: the next take sees nothing.
        assert_eq!(take(), (0, 0.0));
    }

    #[test]
    fn zero_lookups_is_zero_rate_not_nan() {
        reset();
        add_work(7, 0, 0);
        let (events, rate) = take();
        assert_eq!(events, 7);
        assert_eq!(rate, 0.0);
    }
}
