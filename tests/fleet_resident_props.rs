//! E26 resident-world properties: for *arbitrary* fleet shapes, thread
//! counts and seeded fault schedules, the resident execution mode a
//! fleet runs in by default (persistent per-worker worlds,
//! `rebind_home` reuse, delta intel installs) is byte-identical to the
//! rebuild reference — same cumulative report (chained home-order
//! digest included) and same trace event stream — including mid-run
//! aggregator crashes that drop resident worlds and force cold rebuilds
//! from `(home, seed, intel)`.
//!
//! Uses the real [`iotsec_fleet::FleetScenario`] (full home worlds),
//! not a synthetic: the resident machinery under test — world resets,
//! intel installs, policy recompiles — only exists in real worlds.

use iotsec_fleet::{Fleet, FleetChaos, FleetConfig, FleetReport, FleetScenario, ResidentStats};
use iotsec_repro::trace::event::TraceEvent;
use iotsec_repro::trace::{TraceConfig, Tracer};
use proptest::prelude::*;

/// What a finished fleet is compared on, plus how its homes were served.
type Run = (FleetReport, Vec<(u64, TraceEvent)>, ResidentStats);

/// Run one fleet to completion, chaos optional. A `resident` fleet is
/// left exactly as its constructor built it; the rebuild reference is
/// the one that has to ask.
fn run_fleet(cfg: FleetConfig, chaos: Option<FleetChaos>, resident: bool, rounds: u32) -> Run {
    let tracer = Tracer::new(TraceConfig::control_only());
    let scenario = FleetScenario::new(cfg.homes.max(1));
    let mut fleet = match chaos {
        Some(c) => Fleet::with_chaos(scenario, cfg, c, tracer.clone()),
        None => Fleet::with_tracer(scenario, cfg, tracer.clone()),
    };
    if !resident {
        fleet.set_resident(false);
    }
    fleet.run(rounds);
    (fleet.report(), tracer.events(), fleet.resident_stats())
}

/// An arbitrary fault schedule, crash axis included: aggregator crashes
/// drop the crashed worker's resident world mid-run, so recovery must
/// rebuild it cold and still match the rebuild path byte-for-byte.
fn arb_chaos() -> impl Strategy<Value = FleetChaos> {
    (
        (any::<u64>(), 0u32..1001, 0u32..1001, 0u32..1001),
        (0u32..1001, 0u32..1001, 1u32..4, 0u32..1001),
        1u32..4,
    )
        .prop_map(
            |(
                (seed, drop_pm, dup_pm, reorder_pm),
                (crash_pm, partition_pm, partition_rounds, delay_pm),
                horizon,
            )| {
                FleetChaos {
                    drop_pm,
                    dup_pm,
                    reorder_pm,
                    crash_pm,
                    partition_pm,
                    partition_rounds,
                    delay_pm,
                    ..FleetChaos::new(seed)
                }
                .with_horizon(horizon)
            },
        )
}

proptest! {
    /// The acceptance property (clean fleet): arbitrary shape, the
    /// resident fleet's report and trace stream are byte-identical to
    /// the rebuild path across `--threads {1, 2, 4}` and a rerun.
    #[test]
    fn prop_resident_equals_rebuild(
        seed in any::<u64>(),
        homes in 1u32..8,
        neighborhood in 1u32..5,
        chunk in 1u32..4,
        rounds in 1u32..4,
    ) {
        let cfg = FleetConfig { homes, neighborhood, chunk, threads: 1, seed };
        let (reference, events, _) = run_fleet(cfg, None, false, rounds);
        for threads in [1usize, 2, 4] {
            let (res, res_events, _) =
                run_fleet(cfg.with_threads(threads), None, true, rounds);
            prop_assert_eq!(&res, &reference);
            prop_assert_eq!(&res_events, &events);
        }
        let (rerun, rerun_events, _) = run_fleet(cfg, None, true, rounds);
        prop_assert_eq!(&rerun, &reference);
        prop_assert_eq!(&rerun_events, &events);
    }

    /// The chaos property: under arbitrary seeded fault schedules —
    /// including aggregator crashes, which evict the crashed worker's
    /// resident world mid-run — the resident fleet still reproduces the
    /// rebuild fleet's report and trace stream at every thread count.
    #[test]
    fn prop_resident_equals_rebuild_under_chaos(
        seed in any::<u64>(),
        homes in 1u32..8,
        neighborhood in 1u32..5,
        chaos in arb_chaos(),
        rounds in 2u32..5,
    ) {
        let cfg = FleetConfig { homes, neighborhood, chunk: 2, threads: 1, seed };
        let (reference, events, _) = run_fleet(cfg, Some(chaos), false, rounds);
        for threads in [1usize, 2, 4] {
            let (res, res_events, _) =
                run_fleet(cfg.with_threads(threads), Some(chaos), true, rounds);
            prop_assert_eq!(&res, &reference);
            prop_assert_eq!(&res_events, &events);
        }
    }
}

/// Crash recovery is not hypothetical: a stormy crash schedule evicts
/// resident worlds at barriers while retry/recovery still delivers the
/// discovery, so post-eviction rounds rebuild homes cold — and the
/// stream must not budge.
#[test]
fn crashes_evict_residents_without_changing_a_byte() {
    let crashy = FleetChaos {
        drop_pm: 0,
        dup_pm: 0,
        reorder_pm: 0,
        crash_pm: 500,
        partition_pm: 0,
        partition_rounds: 2,
        delay_pm: 0,
        ..FleetChaos::new(0xE26)
    }
    .with_horizon(3);
    let cfg = FleetConfig { homes: 6, neighborhood: 2, chunk: 2, threads: 2, seed: 9 };
    let (reference, events, _) = run_fleet(cfg, Some(crashy), false, 8);
    let (report, trace, stats) = run_fleet(cfg, Some(crashy), true, 8);
    assert_eq!(report, reference);
    assert_eq!(trace, events);
    assert!(stats.dropped > 0, "crashes must evict resident worlds: {stats:?}");
    assert!(stats.resident_runs > 0, "surviving worlds must still be reused: {stats:?}");
    assert_eq!(report.epoch, 1, "recovery must still land the discovery");
}

/// Residency is not a switch someone has to find: a fleet nobody
/// configured serves homes from resident worlds, and the rebuild
/// reference — the one fleet that asks not to — agrees with it byte for
/// byte at every thread count.
#[test]
fn a_fleet_runs_resident_unless_told_otherwise() {
    let cfg = FleetConfig { homes: 8, neighborhood: 4, chunk: 2, threads: 1, seed: 42 };
    let (reference, events, rebuilt) = run_fleet(cfg, None, false, 3);
    assert_eq!(rebuilt, ResidentStats::default(), "the reference must rebuild every home");
    for threads in [1usize, 2, 4] {
        let (report, trace, stats) = run_fleet(cfg.with_threads(threads), None, true, 3);
        assert_eq!(report, reference, "threads={threads}");
        assert_eq!(trace, events, "threads={threads}");
        assert!(stats.resident_runs > 0, "threads={threads}: {stats:?}");
    }
}
