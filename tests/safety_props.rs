//! Safety-layer properties: the monitor is silent without faults, the
//! breaker state machine is execution-strategy invariant, what the
//! defense does is independent of how the run is traced, and the
//! quarantine posture only ever *narrows* what a device may do.

use iotsec_bench::sweep::run_sweep;
use iotsec_repro::iotctl::safety::SafetyConfig;
use iotsec_repro::iotdev::device::DeviceClass;
use iotsec_repro::iotdev::proto::MgmtCommand;
use iotsec_repro::iotnet::time::{SimDuration, SimTime};
use iotsec_repro::iotpolicy::posture::{class_allowlist, quarantine_allowlist};
use iotsec_repro::iotsec::chaos::ChaosConfig;
use iotsec_repro::iotsec::defense::Defense;
use iotsec_repro::iotsec::deployment::{Deployment, DeviceSetup, StepSpec};
use iotsec_repro::iotsec::world::World;
use iotsec_repro::trace::{first_divergence, render_divergence, TraceConfig, Tracer};
use proptest::prelude::*;

/// The shared scenario: camera + open-resolver plug under the usual
/// campaign, with the safety layer armed. `crashes` schedules repeated
/// plug crashes inside the breaker window; zero crashes plus quiet
/// chaos is the zero-fault configuration the monitor must stay silent
/// on.
fn safety_world(seed: u64, crashes: u32) -> Deployment {
    let mut d = Deployment::new();
    d.seed = seed;
    let cam = d.device(DeviceSetup::table1_row(1));
    let plug = d.device(DeviceSetup::table1_row(6));
    d.campaign(vec![
        StepSpec::Wait(SimDuration::from_secs(2)),
        StepSpec::DictionaryLogin(cam),
        StepSpec::Mgmt(cam, MgmtCommand::GetImage),
        StepSpec::DnsReflect { reflector: plug, queries: 30 },
    ]);
    d.defend_with(Defense::iotsec());
    let mut chaos = ChaosConfig::new().with_seed(seed).with_watchdog(SimDuration::from_secs(8));
    for i in 0..crashes {
        chaos = chaos.crash(SimTime::from_secs(3 + 2 * i as u64), plug);
    }
    d.chaos(chaos);
    d.safety(SafetyConfig::default());
    d
}

fn run_metrics(d: &Deployment, occupied: bool, tracer: Tracer) -> String {
    let mut w = World::new_traced(d, tracer);
    w.env.occupied = occupied;
    w.run(SimDuration::from_secs(30));
    format!("{:?}", w.report())
}

fn run_control_trace(d: &Deployment, occupied: bool) -> String {
    let tracer = Tracer::new(TraceConfig::control_only());
    let mut w = World::new_traced(d, tracer.clone());
    w.env.occupied = occupied;
    w.run(SimDuration::from_secs(30));
    tracer.to_jsonl()
}

proptest! {
    /// With chaos quiet (nothing scheduled), the armed safety layer
    /// must record zero violations, zero quarantines and zero breaker
    /// trips on every seed — attacks alone are not faults, and the
    /// monitor must never cry wolf over a healthy enforcement path.
    #[test]
    fn prop_no_faults_means_no_violations(seed in any::<u64>(), occupied in any::<bool>()) {
        let d = safety_world(seed, 0);
        let mut w = World::new(&d);
        w.env.occupied = occupied;
        w.run(SimDuration::from_secs(30));
        let m = w.report();
        prop_assert_eq!(m.safety.violations, 0);
        prop_assert_eq!(m.safety.quarantines, 0);
        prop_assert_eq!(m.breaker_trips, 0);
        prop_assert_eq!(m.admission_shed, 0);
        prop_assert_eq!(m.delivery.shed_critical, 0);
        // And silence is not surrender: the campaign still never
        // reaches its target through the healthy enforcement path.
        prop_assert!(!m.attack_reached_target(), "{}", m.summary());
    }

    /// Breaker transitions (trip → half-open → reclose) and every other
    /// safety emission are a pure function of the seed: a world rebuilt
    /// from the same deployment produces byte-identical control traces
    /// and metrics.
    #[test]
    fn prop_breaker_transitions_replay_identically(
        seed in any::<u64>(),
        crashes in 2u32..4,
    ) {
        let d = safety_world(seed, crashes);
        let first = run_control_trace(&d, true);
        let replay = run_control_trace(&d, true);
        if let Some(d) = first_divergence(&first, &replay) {
            panic!("replayed safety trace diverged:\n{}", render_divergence(&d));
        }
        prop_assert_eq!(
            run_metrics(&d, true, Tracer::disabled()),
            run_metrics(&d, true, Tracer::disabled())
        );
        prop_assert!(
            first.contains("\"e\":\"breaker-trip\""),
            "repeated crashes must trip the breaker:\n{}",
            first
        );
    }

    /// How a run is traced never changes what the defense does: with
    /// breakers tripping, the metrics (quarantines and the policy drops
    /// they cause included) are the same untraced and under every trace
    /// mask, the packet-only one included.
    #[test]
    fn prop_metrics_are_independent_of_the_trace_mask(
        seed in any::<u64>(),
        crashes in 2u32..4,
        occupied in any::<bool>(),
    ) {
        let d = safety_world(seed, crashes);
        let untraced = run_metrics(&d, occupied, Tracer::disabled());
        let packet_only = TraceConfig { control: false, packet: true };
        for config in [TraceConfig::control_only(), TraceConfig::full(), packet_only] {
            let traced = run_metrics(&d, occupied, Tracer::new(config));
            prop_assert!(traced == untraced, "{config:?}:\n{traced}\nuntraced:\n{untraced}");
        }
    }
}

/// The same runs through the parallel sweep engine: four workers return,
/// slot for slot, the control traces the serial sweep does — breaker
/// cooldowns and quarantine escalations never sample wall-clock or
/// cross-thread state.
#[test]
fn parallel_sweep_preserves_breaker_determinism() {
    let seeds: Vec<u64> = (0..6).map(|i| 0x5AFE + i).collect();
    let serial = run_sweep(seeds.clone(), 1, |_, s| run_control_trace(&safety_world(*s, 3), true));
    let parallel = run_sweep(seeds, 4, |_, s| run_control_trace(&safety_world(*s, 3), true));
    for (i, (a, b)) in serial.iter().zip(&parallel).enumerate() {
        if let Some(d) = first_divergence(a, b) {
            panic!(
                "parallel-vs-serial safety trace diverged (slot {i}):\n{}",
                render_divergence(&d)
            );
        }
        assert!(a.contains("\"e\":\"breaker-trip\""), "slot {i} never tripped");
        assert!(a.contains("\"e\":\"quarantine-install\""), "slot {i} never quarantined");
    }
}

/// The quarantine posture is a strict narrowing: for every device
/// class, every service the quarantine allow-list admits is already in
/// the class's normal allow-list, and at least one normal service is
/// dropped.
#[test]
fn quarantine_posture_is_a_strict_subset_of_normal() {
    for class in DeviceClass::ALL {
        let normal = class_allowlist(class);
        let quarantine = quarantine_allowlist(class);
        for svc in &quarantine {
            assert!(
                normal.contains(svc),
                "{class:?}: quarantine admits {svc:?} which the normal posture does not"
            );
        }
        assert!(
            quarantine.len() < normal.len(),
            "{class:?}: quarantine must drop at least one normally-allowed service"
        );
    }
}
