//! Differential trace properties: identical seeds must yield
//! byte-identical JSONL traces whatever the execution strategy — a
//! second world built in the same process, one sweep worker vs four.
//! These are the properties the golden files rest on; a failure here
//! means an emission site leaked execution-strategy state (wall-clock,
//! thread identity, map iteration order) into the trace.

use iotsec_bench::sweep::{run_sweep, sweep_worlds_traced, SweepScenario, WorldJob};
use iotsec_repro::iotdev::proto::MgmtCommand;
use iotsec_repro::iotnet::time::SimDuration;
use iotsec_repro::iotsec::defense::Defense;
use iotsec_repro::iotsec::deployment::{Deployment, DeviceSetup, StepSpec};
use iotsec_repro::iotsec::world::World;
use iotsec_repro::trace::{first_divergence, render_divergence, TraceConfig, Tracer};
use proptest::prelude::*;

/// A compact traced run — two Table 1 devices, full event mask, 30
/// simulated seconds — cheap enough to sample hundreds of times.
fn traced_run(seed: u64, defended: bool, reflect: bool) -> String {
    let mut d = Deployment::new();
    d.seed = seed;
    let cam = d.device(DeviceSetup::table1_row(1));
    let plug = d.device(DeviceSetup::table1_row(6));
    let mut steps =
        vec![StepSpec::DictionaryLogin(cam), StepSpec::Mgmt(cam, MgmtCommand::GetImage)];
    if reflect {
        steps.push(StepSpec::DnsReflect { reflector: plug, queries: 20 });
    }
    d.campaign(steps);
    d.defend_with(if defended { Defense::iotsec() } else { Defense::None });
    let tracer = Tracer::new(TraceConfig::full());
    let mut w = World::new_traced(&d, tracer.clone());
    w.env.occupied = true;
    w.run(SimDuration::from_secs(30));
    tracer.to_jsonl()
}

fn assert_identical(label: &str, expected: &str, actual: &str) {
    if let Some(d) = first_divergence(expected, actual) {
        panic!("{label} diverged:\n{}", render_divergence(&d));
    }
}

proptest! {
    /// A world rebuilt from the same deployment — fresh `HashMap`s with
    /// fresh hash keys, fresh allocations — traces byte-identically to
    /// the first, for arbitrary (seed, defense, campaign) cells.
    #[test]
    fn prop_replayed_traces_are_identical(
        seed in any::<u64>(),
        defended in any::<bool>(),
        reflect in any::<bool>(),
    ) {
        let first = traced_run(seed, defended, reflect);
        let replay = traced_run(seed, defended, reflect);
        assert_identical("replayed trace", &first, &replay);
        prop_assert!(!first.is_empty(), "a full-mask trace must record packet events");
    }

    /// A four-worker sweep returns, slot for slot, the traces the serial
    /// sweep does: merged traces are a pure function of the job list,
    /// never of which thread ran which world.
    #[test]
    fn prop_parallel_sweep_traces_match_serial(base in any::<u64>()) {
        let seeds: Vec<u64> = (0..4).map(|i| base.wrapping_add(i)).collect();
        let serial = run_sweep(seeds.clone(), 1, |_, s| traced_run(*s, true, false));
        let parallel = run_sweep(seeds, 4, |_, s| traced_run(*s, true, false));
        for (i, (a, b)) in serial.iter().zip(&parallel).enumerate() {
            assert_identical(&format!("parallel-vs-serial trace (slot {i})"), a, b);
        }
    }
}

/// The full-size version of both properties on the real E16 sweep
/// machinery: three scaled-home jobs, run serially (the reference),
/// serially again, and on four workers. One run each — the sampled
/// coverage lives in the properties above.
#[test]
fn full_sweep_traces_are_strategy_invariant() {
    let jobs = vec![
        WorldJob { scenario: SweepScenario::HomeUndefended, seed: 42, population: 0 },
        WorldJob { scenario: SweepScenario::HomeIoTSec, seed: 42, population: 0 },
        WorldJob { scenario: SweepScenario::HomeIoTSec, seed: 43, population: 3 },
    ];
    let config = TraceConfig::full();
    let reference = sweep_worlds_traced(&jobs, 1, config);
    let replay = sweep_worlds_traced(&jobs, 1, config);
    let parallel = sweep_worlds_traced(&jobs, 4, config);
    for (i, (out, trace)) in reference.iter().enumerate() {
        assert_identical(&format!("replay (job {i})"), trace, &replay[i].1);
        assert_identical(&format!("parallel-vs-serial (job {i})"), trace, &parallel[i].1);
        assert_eq!(out.digest(), replay[i].0.digest());
        assert_eq!(out.digest(), parallel[i].0.digest());
        assert!(!trace.is_empty());
    }
}
