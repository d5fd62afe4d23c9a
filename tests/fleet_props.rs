//! E20 fleet properties: the sharded fleet engine is thread-count
//! invariant for arbitrary shapes, and a fleet of N homes is
//! observationally identical to N individually-run `World`s.

use iotsec_fleet::{home_seed, Fleet, FleetConfig, FleetReport, FleetScenario, RoundSummary};
use iotsec_repro::iotsec::world::{HomeOverrides, World};
use proptest::prelude::*;

/// Rounds per property case: breach round + defended round is enough to
/// exercise discovery, the barrier, and the epoch-keyed memo.
const ROUNDS: u32 = 2;

/// Rounds per thread-invariance case: the breach and the defended round,
/// then two quiesced rounds, in which no worker has a home to execute.
const INVARIANCE_ROUNDS: u32 = 4;

fn run_fleet(cfg: FleetConfig, stride: u32, rounds: u32) -> Fleet<FleetScenario> {
    let mut fleet = Fleet::new(FleetScenario::new(stride), cfg);
    for _ in 0..rounds {
        fleet.round();
    }
    fleet
}

/// Every round's summary, then the cumulative report, of a fleet run.
fn round_by_round(cfg: FleetConfig, rounds: u32) -> (Vec<RoundSummary>, FleetReport) {
    let mut fleet = Fleet::new(FleetScenario::new(1), cfg);
    let summaries = (0..rounds).map(|_| fleet.round()).collect();
    (summaries, fleet.report())
}

proptest! {
    /// The acceptance property: for an arbitrary fleet shape (seed, home
    /// count, neighborhood size, chunk size) every round's summary and
    /// the chained fleet digest are byte-identical across
    /// `--threads {1, 2, 4}` and across reruns, through the breach, the
    /// defended round and two quiesced rounds.
    #[test]
    fn prop_fleet_digest_is_thread_invariant(
        seed in any::<u64>(),
        homes in 1u32..11,
        neighborhood in 1u32..7,
        chunk in 1u32..7,
    ) {
        let cfg = FleetConfig { homes, neighborhood, chunk, threads: 1, seed };
        let reference = round_by_round(cfg, INVARIANCE_ROUNDS);
        prop_assert_eq!(&round_by_round(cfg, INVARIANCE_ROUNDS), &reference);
        for threads in [2usize, 4] {
            let par = round_by_round(cfg.with_threads(threads), INVARIANCE_ROUNDS);
            prop_assert_eq!(&par, &reference);
        }
    }

    /// The fleet is just N homes: every per-home outcome equals running
    /// that home's world individually with the fleet's final intel
    /// snapshot (same derived seed, same borrowed signatures).
    #[test]
    fn prop_fleet_equals_individual_worlds(
        seed in any::<u64>(),
        homes in 1u32..7,
        chunk in 1u32..5,
    ) {
        let cfg = FleetConfig { homes, neighborhood: 3, chunk, threads: 1, seed };
        let fleet = run_fleet(cfg, 1, ROUNDS);
        let scenario = FleetScenario::new(1);
        let intel = fleet.intel().clone();
        for home in 0..homes {
            let hs = home_seed(seed, home);
            let overrides = HomeOverrides { seed: hs, extra_signatures: &intel };
            let mut w = World::new_home(scenario.template(), &overrides);
            w.run_until_attack_done(scenario.horizon());
            let solo = scenario.outcome_of(home, hs, &mut w);
            prop_assert_eq!(fleet.outcome(home), solo);
        }
    }

    /// Rounds past quiescence are pure memo replay at every thread
    /// count: running extra rounds after the intel epoch stops moving
    /// executes zero homes and leaves every per-home outcome untouched.
    #[test]
    fn prop_quiesced_rounds_are_memo_hits(seed in any::<u64>(), homes in 1u32..9) {
        for threads in [1usize, 2, 4] {
            let cfg = FleetConfig { homes, neighborhood: 4, chunk: 3, threads, seed };
            let mut fleet = Fleet::new(FleetScenario::new(1), cfg);
            fleet.round();
            fleet.round();
            let before: Vec<_> = (0..homes).map(|h| fleet.outcome(h)).collect();
            let r = fleet.round();
            prop_assert_eq!(r.executed, 0);
            prop_assert_eq!(r.memo_hits, homes);
            prop_assert_eq!(r.discoveries, 0);
            let after: Vec<_> = (0..homes).map(|h| fleet.outcome(h)).collect();
            prop_assert_eq!(after, before);
        }
    }
}

/// Thread invariance at a shape where chunks, neighborhoods and the home
/// count are all mutually misaligned (37 = prime, nbhd 5, chunk 3), with
/// enough homes that every worker is dealt several chunks.
#[test]
fn misaligned_fleet_is_thread_invariant() {
    let cfg = FleetConfig { homes: 37, neighborhood: 5, chunk: 3, threads: 1, seed: 20151116 };
    let reference = run_fleet(cfg, 4, 3).report();
    assert!(reference.discoveries >= 1);
    assert_eq!(reference.epoch, 1);
    for threads in [2usize, 3, 4, 8] {
        let par = run_fleet(cfg.with_threads(threads), 4, 3).report();
        assert_eq!(par, reference, "threads {threads}");
    }
}
