//! E25 fleet-chaos properties: for *arbitrary* seeded fault schedules
//! the chaos-on fleet is byte-identical across `--threads {1, 2, 4}`
//! and across reruns, a zero-intensity schedule is byte-identical to
//! the chaos-off fleet, the per-home slot is an exact memo while homes
//! sit at mixed epochs, and every recovered run passes
//! [`check_fleet_trace`] with zero violations.
//!
//! Uses a synthetic [`HomeWorld`] (the outcome digest mixes seed and
//! intel length) so a property case costs microseconds — the chaos
//! machinery under test lives entirely in the coordinator's barrier,
//! which real and synthetic scenarios share.

use iotsec_fleet::fleet::{HomeOutcome, HomeWorld};
use iotsec_fleet::{
    check_fleet_trace, Fleet, FleetChaos, FleetConfig, FleetTraceSpec, RecoveryPolicy,
};
use iotsec_repro::iotlearn::signature::{Matcher, Severity};
use iotsec_repro::iotlearn::AttackSignature;
use iotsec_repro::trace::{TraceConfig, Tracer};
use proptest::prelude::*;
use trace::digest::Fnv64;
use trace::event::TraceEvent;

/// Synthetic home: attacked while intel is empty; home 0 discovers.
struct Synthetic;

impl HomeWorld for Synthetic {
    type Resident = ();

    fn run_home(&self, _home: u32, seed: u64, intel: &[AttackSignature]) -> HomeOutcome {
        let mut h = Fnv64::new();
        h.write_u64(seed);
        h.write_u64(intel.len() as u64);
        let attacked = intel.is_empty();
        HomeOutcome {
            digest: h.finish(),
            compromised: u32::from(attacked),
            leaked: 0,
            blocks: u64::from(!attacked),
            events: 3,
            discovered: attacked,
            flagged: 0,
        }
    }

    fn discovery(&self, home: u32) -> Option<AttackSignature> {
        (home == 0).then(|| {
            AttackSignature::new(
                iotsec_repro::iotdev::registry::Sku::new("v", "cam", "1"),
                "default-credentials",
                Matcher::MatchAll,
                Severity::Medium,
            )
        })
    }
}

fn run_chaos(
    cfg: FleetConfig,
    chaos: Option<FleetChaos>,
    rounds: u32,
) -> (iotsec_fleet::FleetReport, Vec<(u64, TraceEvent)>, bool) {
    let tracer = Tracer::new(TraceConfig::control_only());
    let mut fleet = match chaos {
        Some(c) => Fleet::with_chaos(Synthetic, cfg, c, tracer.clone()),
        None => Fleet::with_tracer(Synthetic, cfg, tracer.clone()),
    };
    fleet.run(rounds);
    (fleet.report(), tracer.events(), fleet.converged())
}

/// An arbitrary fault schedule: every axis `0..=1000`‰, short horizons
/// and partition lengths so recovery windows open within the run.
fn arb_chaos() -> impl Strategy<Value = FleetChaos> {
    (
        (any::<u64>(), 0u32..1001, 0u32..1001, 0u32..1001),
        (0u32..1001, 0u32..1001, 1u32..4, 0u32..1001),
        1u32..8,
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

const ROUNDS: u32 = 16;

proptest! {
    /// The acceptance property: arbitrary schedule, arbitrary shape —
    /// the chaos-on report (digest, fault/recovery counters, totals) is
    /// byte-identical across serial, rerun, 2- and 4-thread runs.
    #[test]
    fn prop_chaos_runs_are_thread_invariant(
        seed in any::<u64>(),
        homes in 1u32..25,
        neighborhood in 1u32..7,
        chunk in 1u32..5,
        chaos in arb_chaos(),
    ) {
        let cfg = FleetConfig { homes, neighborhood, chunk, threads: 1, seed };
        let (reference, events, _) = run_chaos(cfg, Some(chaos), ROUNDS);
        let (rerun, rerun_events, _) = run_chaos(cfg, Some(chaos), ROUNDS);
        prop_assert_eq!(&rerun, &reference);
        prop_assert_eq!(&rerun_events, &events);
        for threads in [2usize, 4] {
            let (par, par_events, _) =
                run_chaos(cfg.with_threads(threads), Some(chaos), ROUNDS);
            prop_assert_eq!(&par, &reference);
            prop_assert_eq!(&par_events, &events);
        }
    }

    /// Chaos-off equivalence: a zero-intensity schedule leaves the
    /// whole report byte-identical to running with no schedule at all,
    /// and the event stream too apart from its `fleet-absorb` lines.
    #[test]
    fn prop_zero_intensity_schedule_is_the_clean_fleet(
        seed in any::<u64>(),
        chaos_seed in any::<u64>(),
        homes in 1u32..25,
        neighborhood in 1u32..7,
    ) {
        let calm = FleetChaos { seed: chaos_seed, ..FleetChaos::calm() };
        let cfg = FleetConfig { homes, neighborhood, chunk: 3, threads: 1, seed };
        let (clean, clean_events, _) = run_chaos(cfg, None, ROUNDS);
        let (calm_report, mut events, converged) = run_chaos(cfg, Some(calm), ROUNDS);
        prop_assert_eq!(&calm_report, &clean);
        prop_assert_eq!(calm_report.faults, 0);
        prop_assert!(converged);
        events.retain(|(_, e)| !matches!(e, TraceEvent::FleetAbsorb { .. }));
        prop_assert_eq!(&events, &clean_events);
    }

    /// The slot is an exact memo under mixed epochs: every round serves
    /// every home exactly once, and executes precisely the homes whose
    /// installed epoch differs from the epoch of their previous
    /// execution — whatever the schedule did to the install waves.
    #[test]
    fn prop_slot_is_an_exact_memo_under_mixed_epochs(
        seed in any::<u64>(),
        homes in 1u32..25,
        neighborhood in 1u32..7,
        chunk in 1u32..5,
        threads in 1usize..4,
        chaos in arb_chaos(),
    ) {
        let cfg = FleetConfig { homes, neighborhood, chunk, threads, seed };
        let mut fleet = Fleet::with_chaos(Synthetic, cfg, chaos, Tracer::disabled());
        let mut last_run: Vec<Option<u32>> = vec![None; homes as usize];
        for _ in 0..ROUNDS {
            let installed: Vec<u32> = (0..homes).map(|h| fleet.installed_at(h)).collect();
            let stale =
                installed.iter().zip(&last_run).filter(|(e, last)| **last != Some(**e)).count();
            let summary = fleet.round();
            prop_assert_eq!(summary.executed + summary.memo_hits, homes);
            prop_assert_eq!(summary.executed as usize, stale);
            last_run = installed.into_iter().map(Some).collect();
        }
    }

    /// Soundness of the full recovery stack: whenever a run converges,
    /// the trace checker finds nothing to complain about.
    #[test]
    fn prop_recovered_runs_pass_the_checker(
        seed in any::<u64>(),
        homes in 1u32..25,
        neighborhood in 1u32..7,
        chaos in arb_chaos(),
    ) {
        let cfg = FleetConfig { homes, neighborhood, chunk: 3, threads: 1, seed };
        let (_, events, converged) = run_chaos(cfg, Some(chaos), ROUNDS);
        if converged {
            let spec = FleetTraceSpec {
                homes,
                rounds: ROUNDS,
                staleness_budget: chaos.policy.staleness_budget,
                grace: 2,
            };
            let violations = check_fleet_trace(&events, &spec);
            prop_assert!(violations.is_empty(), "{:?}", violations);
        }
    }

    /// The degraded contract: a fleet that converges within budget never
    /// declares degraded mode; one that declares it is genuinely behind
    /// (the checker's `degraded-unjustified` never fires either way).
    #[test]
    fn prop_degraded_declarations_are_justified(
        seed in any::<u64>(),
        homes in 1u32..17,
        chaos in arb_chaos(),
    ) {
        let cfg = FleetConfig { homes, neighborhood: 4, chunk: 3, threads: 1, seed };
        let (_, events, _) = run_chaos(cfg, Some(chaos), ROUNDS);
        let spec = FleetTraceSpec {
            homes,
            rounds: ROUNDS,
            staleness_budget: chaos.policy.staleness_budget,
            grace: 2,
        };
        let violations = check_fleet_trace(&events, &spec);
        prop_assert!(
            violations.iter().all(|v| v.invariant != "degraded-unjustified"),
            "{:?}",
            violations
        );
    }
}

/// The weakened arms are not hypothetical: fixed schedules catching each
/// seeded weakness, mirroring the repro corpus in `tests/repros/`.
#[test]
fn weakened_policies_are_caught_by_the_checker() {
    let cfg = FleetConfig { homes: 24, neighborhood: 4, chunk: 3, threads: 1, seed: 7 };
    // no-retry: total flush loss loses the sentinel's discovery.
    let drop_all = FleetChaos {
        drop_pm: 1000,
        dup_pm: 0,
        reorder_pm: 0,
        crash_pm: 0,
        partition_pm: 0,
        delay_pm: 0,
        ..FleetChaos::new(5)
    };
    let weak = drop_all.with_policy(RecoveryPolicy::no_retry());
    let (_, events, converged) = run_chaos(cfg, Some(weak), ROUNDS);
    assert!(!converged);
    let spec = FleetTraceSpec {
        homes: cfg.homes,
        rounds: ROUNDS,
        staleness_budget: weak.policy.staleness_budget,
        grace: 2,
    };
    let violations = check_fleet_trace(&events, &spec);
    assert!(
        violations.iter().any(|v| v.invariant == "lost-discovery"),
        "expected lost-discovery, got {violations:?}"
    );
}
