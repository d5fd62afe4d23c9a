//! The seeded scenario generator.
//!
//! One `u64` seed → one [`ScenarioSpec`], via a dedicated
//! `StdRng::seed_from_u64` stream (xoshiro behind the rand shim) that
//! nothing else draws from — so scenario N of a campaign is the same
//! scenario on every machine, thread count and rerun. The generated
//! family deliberately stays inside the envelope the *correct* defense
//! is specified to survive:
//!
//! * chains fail **closed** (security over availability — a crashed
//!   µmbox blocks, never leaks);
//! * controller outages stay under the tightest staleness budget
//!   (4 s < the 5 s actuator budget), so bounded-staleness cannot fire
//!   on a healthy stack;
//! * uplink flaps only hit **clean decoy** devices, so a fault can
//!   never blackhole the attack path and turn the defense-off arm
//!   vacuous;
//! * every scenario scripts at least one exploit of a vulnerable
//!   device, so the defense-off arm has something to prove.
//!
//! Anything the oracle then flags on the defense-on arm is therefore a
//! real defect (or an intentional [`Weakness`]), not an environment the
//! defense was never meant to absorb.

use crate::spec::{AttackStep, DeviceSpec, FaultSpec, RecipeSpec, ScenarioSpec, Weakness};
use iotdev::device::DeviceClass;
use iotdev::env::EnvVar;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Fewest devices a generated scenario has.
const MIN_DEVICES: usize = 3;
/// Most devices a generated scenario has.
pub(crate) const MAX_DEVICES: usize = 10;
/// Most recipes a generated scenario has.
const MAX_RECIPES: usize = 3;
/// Most faults a generated scenario schedules.
const MAX_FAULTS: usize = 4;

/// Which family to generate: the scenario shape is fixed, only the
/// defense-on arm varies.
#[derive(Debug, Clone, Copy, Default)]
pub struct GenConfig {
    /// Weakness applied to the defense-on arm of every scenario.
    pub weakness: Weakness,
}

impl GenConfig {
    /// The default family with a weakened defense-on arm.
    pub fn weakened(weakness: Weakness) -> GenConfig {
        GenConfig { weakness }
    }
}

/// Clean filler classes (no FSM coupling to windows/locks, so recipes
/// built on them cannot open a physical breach).
const CLEAN: &[DeviceClass] = &[
    DeviceClass::Camera,
    DeviceClass::SmartPlug,
    DeviceClass::Thermostat,
    DeviceClass::LightBulb,
    DeviceClass::MotionSensor,
    DeviceClass::LightSensor,
    DeviceClass::SetTopBox,
    DeviceClass::Refrigerator,
];

/// Recipe triggers the generator draws from (all benign values).
const TRIGGERS: &[(EnvVar, &str)] = &[
    (EnvVar::Occupancy, "absent"),
    (EnvVar::Occupancy, "present"),
    (EnvVar::Temperature, "high"),
    (EnvVar::Light, "dark"),
];

/// Generate the scenario for `seed` under `cfg`. Pure: same inputs,
/// same spec.
pub fn generate(seed: u64, cfg: &GenConfig) -> ScenarioSpec {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xE23_5CEA_A210);
    let n = rng.gen_range(MIN_DEVICES..MAX_DEVICES + 1);

    // Device mix: at least one Table 1 row, the rest a coin-flip blend.
    let mut devices = Vec::with_capacity(n);
    devices.push(DeviceSpec::Row(rng.gen_range(1u8..8)));
    for _ in 1..n {
        if rng.gen::<f64>() < 0.45 {
            devices.push(DeviceSpec::Row(rng.gen_range(1u8..8)));
        } else {
            devices.push(DeviceSpec::Clean(*CLEAN.choose(&mut rng).expect("non-empty")));
        }
    }
    devices.shuffle(&mut rng);

    // Topology: mostly single-switch homes, sometimes a small campus.
    let edges = if rng.gen::<f64>() < 0.25 { rng.gen_range(2u8..5) } else { 0 };

    // Recipe corpus over random targets.
    let recipes = (0..rng.gen_range(0..MAX_RECIPES + 1))
        .map(|_| {
            let (var, value) = *TRIGGERS.choose(&mut rng).expect("non-empty");
            RecipeSpec { var, value, target: rng.gen_range(0..devices.len()) }
        })
        .collect();

    // Attack script: open with a short wait (let chains steer), then
    // exploit every vulnerable device in shuffled order with pauses and
    // decoy probes in between.
    let mut vulnerable: Vec<usize> =
        (0..devices.len()).filter(|&i| devices[i].is_vulnerable()).collect();
    vulnerable.shuffle(&mut rng);
    let mut attack = vec![AttackStep::Wait(rng.gen_range(2u32..5))];
    for &v in &vulnerable {
        attack.push(AttackStep::Exploit(v));
        if rng.gen::<f64>() < 0.3 {
            attack.push(AttackStep::Probe(rng.gen_range(0..devices.len())));
        }
        if rng.gen::<f64>() < 0.5 {
            attack.push(AttackStep::Wait(rng.gen_range(1u32..4)));
        }
    }

    // Horizon: generous cover for the script plus settle time for
    // delivery retries and physics.
    let script_secs: u32 = attack
        .iter()
        .map(|s| match s {
            AttackStep::Wait(w) => *w,
            AttackStep::Exploit(_) => 8,
            AttackStep::Probe(_) => 2,
        })
        .sum();
    let horizon_secs = (script_secs + 20).min(120);

    // Chaos schedule: crashes anywhere, flaps only on clean decoys,
    // outages capped below the actuator staleness budget and finishing
    // before the settle window.
    let clean: Vec<usize> = (0..devices.len()).filter(|&i| !devices[i].is_vulnerable()).collect();
    let fault_window = horizon_secs.saturating_sub(12).max(2);
    let mut faults = Vec::new();
    for _ in 0..rng.gen_range(0..MAX_FAULTS + 1) {
        let roll = rng.gen::<f64>();
        if roll < 0.45 {
            faults.push(FaultSpec::CrashUmbox {
                at_secs: rng.gen_range(1..fault_window),
                device: rng.gen_range(0..devices.len()),
            });
        } else if roll < 0.75 && !clean.is_empty() {
            let down = rng.gen_range(1..fault_window);
            faults.push(FaultSpec::FlapUplink {
                device: *clean.choose(&mut rng).expect("non-empty"),
                down_secs: down,
                up_secs: down + rng.gen_range(1u32..4),
            });
        } else {
            faults.push(FaultSpec::CtlOutage {
                at_secs: rng.gen_range(1..fault_window),
                dur_secs: rng.gen_range(1u32..5),
            });
        }
    }

    let spec = ScenarioSpec {
        seed,
        edges,
        horizon_secs,
        weakness: cfg.weakness,
        devices,
        recipes,
        faults,
        attack,
    };
    debug_assert!(spec.validate().is_ok(), "generator produced invalid spec: {spec:?}");
    spec
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let cfg = GenConfig::default();
        for seed in 0..50u64 {
            assert_eq!(generate(seed, &cfg), generate(seed, &cfg));
        }
    }

    #[test]
    fn every_scenario_is_valid_with_at_least_one_exploit() {
        let cfg = GenConfig::default();
        for seed in 0..200u64 {
            let spec = generate(seed, &cfg);
            spec.validate().expect("valid");
            assert!(
                spec.attack.iter().any(|s| matches!(s, AttackStep::Exploit(_))),
                "seed {seed} scripted no exploit"
            );
            assert!(!spec.vulnerable().is_empty());
            assert!(spec.horizon_secs >= 20);
        }
    }

    #[test]
    fn flaps_only_hit_clean_decoys_and_outages_stay_bounded() {
        let cfg = GenConfig::default();
        for seed in 0..200u64 {
            let spec = generate(seed, &cfg);
            for f in &spec.faults {
                match *f {
                    FaultSpec::FlapUplink { device, .. } => {
                        assert!(
                            !spec.devices[device].is_vulnerable(),
                            "seed {seed} flapped a target"
                        )
                    }
                    FaultSpec::CtlOutage { dur_secs, .. } => assert!(dur_secs < 5),
                    FaultSpec::CrashUmbox { .. } => {}
                }
            }
        }
    }

    #[test]
    fn seeds_explore_the_space() {
        let cfg = GenConfig::default();
        let specs: Vec<_> = (0..50u64).map(|s| generate(s, &cfg)).collect();
        let sizes: std::collections::BTreeSet<usize> =
            specs.iter().map(|s| s.devices.len()).collect();
        assert!(sizes.len() > 3, "device counts barely vary: {sizes:?}");
        assert!(specs.iter().any(|s| s.edges > 0), "no enterprise topology in 50 seeds");
        assert!(specs.iter().any(|s| !s.faults.is_empty()));
        assert!(specs.iter().any(|s| !s.recipes.is_empty()));
    }
}
