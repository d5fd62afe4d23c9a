//! The scenario grammar: a serializable, index-based description of one
//! randomized home that deterministically lowers to a [`Deployment`].
//!
//! Everything here is *data* — device mix, topology shape, recipe
//! corpus, vulnerability placement (Table 1 rows), chaos schedule and
//! attack script all reference devices by **index** into
//! [`ScenarioSpec::devices`], so the delta-debugging shrinker can drop
//! a device and remap every dependent recipe, fault and attack step
//! mechanically. The lowering in [`ScenarioSpec::deployment`] is the
//! single source of truth for both oracle arms: the *same* spec builds
//! the defense-on and the defense-off world, differing only in the
//! defense/safety/chaos attachment.

use iotctl::safety::SafetyConfig;
use iotdev::attacker::AttackAuth;
use iotdev::device::DeviceClass;
use iotdev::env::EnvVar;
use iotdev::proto::{ControlAction, MgmtCommand};
use iotdev::vuln::Vulnerability;
use iotnet::time::{SimDuration, SimTime};
use iotpolicy::recipe::{Recipe, RecipeAction, Trigger};
use iotsec::chaos::ChaosConfig;
use iotsec::defense::Defense;
use iotsec::deployment::{Deployment, DeviceSetup, Site, StepSpec};

/// One device slot: a Table 1 vulnerability family or a clean class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceSpec {
    /// `DeviceSetup::table1_row(row)`, row in 1..=7.
    Row(u8),
    /// A clean (no-vuln) device of the given class.
    Clean(DeviceClass),
}

impl DeviceSpec {
    /// Whether this slot carries a Table 1 vulnerability.
    pub fn is_vulnerable(self) -> bool {
        matches!(self, DeviceSpec::Row(_))
    }
}

/// One IFTTT-style recipe: an environment trigger driving a benign
/// control action on a device. The action is derived from the target's
/// class so the corpus never opens windows or unlocks doors — recipes
/// stress the hub/control path, not the physical-breach metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecipeSpec {
    /// Trigger variable.
    pub var: EnvVar,
    /// Trigger value (must be in the variable's domain).
    pub value: &'static str,
    /// Target device index.
    pub target: usize,
}

/// One scheduled fault, in the chaos layer's explicit-schedule form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSpec {
    /// Crash the µmbox chain of device `device` at `at_secs`.
    CrashUmbox { at_secs: u32, device: usize },
    /// Take device `device`'s uplink down over `[down_secs, up_secs)`.
    FlapUplink { device: usize, down_secs: u32, up_secs: u32 },
    /// Controller outage starting at `at_secs` for `dur_secs`.
    CtlOutage { at_secs: u32, dur_secs: u32 },
}

impl FaultSpec {
    /// The device index this fault pins, if any.
    pub fn device(self) -> Option<usize> {
        match self {
            FaultSpec::CrashUmbox { device, .. } | FaultSpec::FlapUplink { device, .. } => {
                Some(device)
            }
            FaultSpec::CtlOutage { .. } => None,
        }
    }
}

/// One scripted attacker step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttackStep {
    /// Idle for the given seconds.
    Wait(u32),
    /// Probe a device's management plane (decoy noise).
    Probe(usize),
    /// Run the canonical Table 1 exploit for the device's row.
    Exploit(usize),
}

impl AttackStep {
    /// The device index this step targets, if any.
    pub fn device(self) -> Option<usize> {
        match self {
            AttackStep::Probe(d) | AttackStep::Exploit(d) => Some(d),
            AttackStep::Wait(_) => None,
        }
    }
}

/// An intentional defense weakening, applied only to the defense-on
/// arm. `None` is the shipping configuration the vet campaign must
/// find unbreakable; the others exist to prove the oracle and shrinker
/// actually bite (acceptance runs, `tests/repros/`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Weakness {
    /// The real defense: fail-closed chains, full safety monitor.
    #[default]
    None,
    /// Chains fail *open* and the crash watchdog is slow: µmbox crashes
    /// open coverage holes the monitor must flag.
    FailOpen,
    /// [`Weakness::FailOpen`] plus escalation disabled: breaker trips
    /// never quarantine, so holes stay open for the whole run.
    NoQuarantine,
}

impl Weakness {
    /// Stable label for artifacts and reports.
    pub fn label(self) -> &'static str {
        match self {
            Weakness::None => "none",
            Weakness::FailOpen => "fail-open",
            Weakness::NoQuarantine => "no-quarantine",
        }
    }

    /// Parse an artifact label.
    pub fn parse(s: &str) -> Option<Weakness> {
        match s {
            "none" => Some(Weakness::None),
            "fail-open" => Some(Weakness::FailOpen),
            "no-quarantine" => Some(Weakness::NoQuarantine),
            _ => None,
        }
    }
}

/// Which arm of the differential oracle to lower to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arm {
    /// Full defense + safety layer + chaos schedule.
    DefenseOn,
    /// Bare home: no defense, no safety, no chaos. Proves the attack
    /// script actually exercises the vulnerabilities.
    DefenseOff,
}

/// A complete generated scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioSpec {
    /// World/traffic seed (also seeds the chaos schedule RNG).
    pub seed: u64,
    /// 0 = single-switch home; n > 0 = enterprise with n edge switches.
    pub edges: u8,
    /// Run length in sim-seconds.
    pub horizon_secs: u32,
    /// Defense weakening for the defense-on arm.
    pub weakness: Weakness,
    /// Device slots (index space for everything below).
    pub devices: Vec<DeviceSpec>,
    /// Recipe corpus.
    pub recipes: Vec<RecipeSpec>,
    /// Chaos schedule.
    pub faults: Vec<FaultSpec>,
    /// Attack script.
    pub attack: Vec<AttackStep>,
}

/// The most devices a spec may name. The generator draws at most
/// `GenConfig::max_devices` (10 in every configuration the repo builds)
/// and the shrinker only drops devices, so a repro is never larger; 8×
/// that leaves room for hand-written cases — the rule `FleetSpec` applies
/// to homes and rounds — while a hostile artifact's device list cannot
/// outgrow what one switch can number.
pub(crate) const MAX_DEVICES: usize = 80;

impl ScenarioSpec {
    /// Run length as a duration.
    pub fn horizon(&self) -> SimDuration {
        SimDuration::from_secs(self.horizon_secs as u64)
    }

    /// Indices of vulnerable devices.
    pub fn vulnerable(&self) -> Vec<usize> {
        (0..self.devices.len()).filter(|&i| self.devices[i].is_vulnerable()).collect()
    }

    /// Structural validity: 1 to 80 devices, every index in range, rows
    /// in 1..=7, trigger values in domain, every flap healing at or after
    /// it fails. The generator always produces valid specs; the artifact
    /// parser re-checks on load.
    pub fn validate(&self) -> Result<(), String> {
        if self.devices.is_empty() {
            return Err("scenario has no devices".into());
        }
        if self.devices.len() > MAX_DEVICES {
            return Err(format!("at most {MAX_DEVICES} devices: {}", self.devices.len()));
        }
        for d in &self.devices {
            if let DeviceSpec::Row(r) = d {
                if !(1..=7).contains(r) {
                    return Err(format!("table 1 row {r} out of range"));
                }
            }
        }
        let n = self.devices.len();
        for r in &self.recipes {
            if r.target >= n {
                return Err(format!("recipe target {} out of range", r.target));
            }
            if !r.var.domain().contains(&r.value) {
                return Err(format!("recipe value {:?} not in {:?} domain", r.value, r.var));
            }
        }
        for f in &self.faults {
            if f.device().is_some_and(|d| d >= n) {
                return Err(format!("fault device out of range: {f:?}"));
            }
            if let FaultSpec::FlapUplink { down_secs, up_secs, .. } = *f {
                if down_secs > up_secs {
                    return Err(format!("flap heals before it fails: {f:?}"));
                }
            }
        }
        for s in &self.attack {
            if s.device().is_some_and(|d| d >= n) {
                return Err(format!("attack step device out of range: {s:?}"));
            }
        }
        Ok(())
    }

    /// Lower to a runnable [`Deployment`] for the given oracle arm.
    /// Deterministic: the same spec and arm always build the same
    /// deployment, byte for byte.
    pub fn deployment(&self, arm: Arm) -> Deployment {
        let mut d = Deployment::new();
        d.seed = self.seed;
        if self.edges > 0 {
            d.site = Site::Enterprise { edges: self.edges as usize };
        }
        let ids: Vec<_> = self
            .devices
            .iter()
            .map(|spec| match spec {
                DeviceSpec::Row(r) => d.device(DeviceSetup::table1_row(*r)),
                DeviceSpec::Clean(c) => d.device(DeviceSetup::clean(*c)),
            })
            .collect();
        // Row 4 (leaked key pair): the attacker holds the fleet key,
        // extracted offline — mirror `scenario::table1_row`.
        for (i, spec) in self.devices.iter().enumerate() {
            if *spec == DeviceSpec::Row(4) {
                for v in &d.devices[ids[i].0 as usize].vulns {
                    if let Vulnerability::ExposedKeyPair { key } = v {
                        d.pre_stolen_keys.push(*key);
                    }
                }
            }
        }
        for (n, r) in self.recipes.iter().enumerate() {
            let target = ids[r.target];
            let class = match self.devices[r.target] {
                DeviceSpec::Clean(c) => c,
                DeviceSpec::Row(_) => d.devices[target.0 as usize].class,
            };
            // Benign action per class: color for bulbs, power for the
            // rest — never Open/Unlock (no physical-breach coupling).
            let action = if class == DeviceClass::LightBulb {
                ControlAction::SetColor(1)
            } else {
                ControlAction::TurnOff
            };
            d.recipe(Recipe {
                id: n as u32,
                trigger: Trigger::EnvEquals(r.var, r.value),
                action: RecipeAction { target, action },
            });
        }
        let mut steps = Vec::new();
        for s in &self.attack {
            match *s {
                AttackStep::Wait(secs) => {
                    steps.push(StepSpec::Wait(SimDuration::from_secs(secs as u64)))
                }
                AttackStep::Probe(i) => steps.push(StepSpec::Probe(ids[i])),
                AttackStep::Exploit(i) => {
                    let dev = ids[i];
                    match self.devices[i] {
                        DeviceSpec::Row(1) => {
                            steps.push(StepSpec::DictionaryLogin(dev));
                            steps.push(StepSpec::Mgmt(dev, MgmtCommand::GetImage));
                        }
                        DeviceSpec::Row(2) | DeviceSpec::Row(3) => {
                            steps.push(StepSpec::Login(dev, "anyone", "anything"));
                            steps.push(StepSpec::Mgmt(dev, MgmtCommand::GetConfig));
                        }
                        DeviceSpec::Row(4) => steps.push(StepSpec::Control(
                            dev,
                            ControlAction::TurnOff,
                            AttackAuth::StolenKey,
                        )),
                        DeviceSpec::Row(5) => steps.push(StepSpec::Control(
                            dev,
                            ControlAction::SetPhase(2),
                            AttackAuth::None,
                        )),
                        DeviceSpec::Row(6) => {
                            steps.push(StepSpec::DnsReflect { reflector: dev, queries: 50 });
                            steps.push(StepSpec::Wait(SimDuration::from_secs(2)));
                        }
                        DeviceSpec::Row(7) => {
                            steps.push(StepSpec::Cloud(dev, ControlAction::TurnOff))
                        }
                        // Exploiting a clean device degrades to a probe.
                        _ => steps.push(StepSpec::Probe(dev)),
                    }
                }
            }
        }
        d.campaign(steps);
        if arm == Arm::DefenseOff {
            return d;
        }
        d.defend_with(Defense::iotsec());
        let mut chaos = ChaosConfig::new().with_seed(self.seed);
        match self.weakness {
            // The shipping posture: security over availability.
            Weakness::None => chaos = chaos.fail_closed(),
            // Weakened arms fail open with a slow watchdog, so crash
            // holes stay open long enough to leak.
            Weakness::FailOpen | Weakness::NoQuarantine => {
                chaos = chaos.with_watchdog(SimDuration::from_secs(20));
            }
        }
        for f in &self.faults {
            match *f {
                FaultSpec::CrashUmbox { at_secs, device } => {
                    chaos = chaos.crash(SimTime::from_secs(at_secs as u64), ids[device]);
                }
                FaultSpec::FlapUplink { device, down_secs, up_secs } => {
                    chaos = chaos.flap(
                        ids[device],
                        SimTime::from_secs(down_secs as u64),
                        SimTime::from_secs(up_secs as u64),
                    );
                }
                FaultSpec::CtlOutage { at_secs, dur_secs } => {
                    chaos = chaos.outage(
                        SimTime::from_secs(at_secs as u64),
                        SimDuration::from_secs(dur_secs as u64),
                    );
                }
            }
        }
        d.chaos(chaos);
        let safety = match self.weakness {
            Weakness::NoQuarantine => SafetyConfig { escalate: false, ..SafetyConfig::default() },
            _ => SafetyConfig::default(),
        };
        d.safety(safety);
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ScenarioSpec {
        ScenarioSpec {
            seed: 7,
            edges: 0,
            horizon_secs: 20,
            weakness: Weakness::None,
            devices: vec![DeviceSpec::Row(1), DeviceSpec::Clean(DeviceClass::LightBulb)],
            recipes: vec![RecipeSpec { var: EnvVar::Occupancy, value: "absent", target: 1 }],
            faults: vec![FaultSpec::CrashUmbox { at_secs: 5, device: 0 }],
            attack: vec![AttackStep::Wait(2), AttackStep::Exploit(0)],
        }
    }

    #[test]
    fn tiny_spec_is_valid_and_lowers_to_both_arms() {
        let spec = tiny();
        spec.validate().expect("valid");
        let on = spec.deployment(Arm::DefenseOn);
        assert!(on.chaos.is_some());
        assert!(on.safety.is_some());
        assert_eq!(on.devices.len(), 2);
        assert_eq!(on.recipes.len(), 1);
        let off = spec.deployment(Arm::DefenseOff);
        assert!(off.chaos.is_none());
        assert!(off.safety.is_none());
        // Same homes, same campaign — only the defense differs.
        assert_eq!(on.campaign.len(), off.campaign.len());
    }

    #[test]
    fn row4_exploit_preloads_the_stolen_key() {
        let mut spec = tiny();
        spec.devices[0] = DeviceSpec::Row(4);
        let d = spec.deployment(Arm::DefenseOff);
        assert!(!d.pre_stolen_keys.is_empty());
    }

    #[test]
    fn out_of_range_references_fail_validation() {
        let mut spec = tiny();
        spec.attack.push(AttackStep::Exploit(9));
        assert!(spec.validate().is_err());
    }

    #[test]
    fn weakness_flips_failure_mode_and_escalation() {
        let mut spec = tiny();
        spec.weakness = Weakness::NoQuarantine;
        let d = spec.deployment(Arm::DefenseOn);
        assert!(!d.safety.expect("safety on").escalate);
    }
}
