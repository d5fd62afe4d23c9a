//! Declarative deployment descriptions.
//!
//! A [`Deployment`] says *what exists* (devices with their flaws and
//! physical roles, recipes, safety policy hints), *who attacks*
//! (a campaign written against device ids, resolved to addresses when
//! the world is built), and *what defends* (a [`crate::defense::Defense`]).

use crate::chaos::ChaosConfig;
use crate::defense::Defense;
use iotdev::classes::PlugLoad;
use iotdev::device::{DeviceClass, DeviceId};
use iotdev::env::EnvVar;
use iotdev::proto::{ControlAction, MgmtCommand};
use iotdev::registry::Sku;
use iotdev::vuln::Vulnerability;
use iotnet::time::SimDuration;
use iotpolicy::recipe::Recipe;

/// One device to deploy.
#[derive(Debug, Clone)]
pub struct DeviceSetup {
    /// Class.
    pub class: DeviceClass,
    /// SKU.
    pub sku: Sku,
    /// Shipped flaws *known to the operator* (the policy compiler sees
    /// these and installs standing mitigations).
    pub vulns: Vec<Vulnerability>,
    /// Shipped flaws the operator does **not** know about — zero-days.
    /// The device has them; the compiled policy cannot anticipate them.
    /// Only reactive enforcement or crowdsourced signatures help.
    pub undisclosed: Vec<Vulnerability>,
    /// What a smart plug powers.
    pub load: Option<PlugLoad>,
}

impl DeviceSetup {
    /// A clean (flawless) device of a class.
    pub fn clean(class: DeviceClass) -> DeviceSetup {
        DeviceSetup {
            class,
            sku: Sku::new("generic", class.name(), "1.0"),
            vulns: Vec::new(),
            undisclosed: Vec::new(),
            load: None,
        }
    }

    /// A device reproducing one Table 1 row.
    pub fn table1_row(row: u8) -> DeviceSetup {
        let reg = iotdev::registry::SkuRegistry::table1();
        let e = reg.by_row(row).expect("rows are 1..=7").clone();
        DeviceSetup {
            class: e.class,
            sku: e.sku,
            vulns: e.vulns,
            undisclosed: Vec::new(),
            load: None,
        }
    }

    /// The same Table 1 device, but with its flaw *undisclosed* — the
    /// operator deployed it believing it clean (the zero-day case the
    /// crowdsourced repository exists for).
    pub fn table1_row_undisclosed(row: u8) -> DeviceSetup {
        let mut s = Self::table1_row(row);
        s.undisclosed = std::mem::take(&mut s.vulns);
        s
    }

    /// Set the plug load.
    pub fn powering(mut self, load: PlugLoad) -> DeviceSetup {
        self.load = Some(load);
        self
    }

    /// Add a vulnerability known to the operator.
    pub(crate) fn with_vuln(mut self, vuln: Vulnerability) -> DeviceSetup {
        self.vulns.push(vuln);
        self
    }

    /// Every flaw the device actually ships with.
    pub(crate) fn all_vulns(&self) -> Vec<Vulnerability> {
        self.vulns.iter().chain(self.undisclosed.iter()).cloned().collect()
    }
}

/// The deployment site shape (§2.2's two targets).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Site {
    /// A smart home: one IoT router, everything one hop away, µmboxes on
    /// the router's own compute.
    Home,
    /// An enterprise: a core switch, `edges` edge switches with devices
    /// spread across them round-robin, and a well-provisioned on-premise
    /// NFV cluster hanging off the core.
    Enterprise {
        /// Number of edge switches.
        edges: usize,
    },
}

/// Where the attacker sits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttackerLocation {
    /// On the WAN side (the SHODAN scanner / remote attacker).
    Wan,
    /// Already inside the LAN (a compromised laptop, the paper's
    /// "weakest link" pivot).
    Lan,
}

/// An attack step written against deployment device ids (resolved to
/// addresses when the world is built).
#[derive(Debug, Clone)]
pub enum StepSpec {
    /// Probe a device's management plane.
    Probe(DeviceId),
    /// One explicit login attempt.
    Login(DeviceId, &'static str, &'static str),
    /// Run the default-credential dictionary.
    DictionaryLogin(DeviceId),
    /// A management command (uses any captured session).
    Mgmt(DeviceId, MgmtCommand),
    /// A control-plane actuation.
    Control(DeviceId, ControlAction, iotdev::attacker::AttackAuth),
    /// A vendor-cloud backdoor command.
    Cloud(DeviceId, ControlAction),
    /// DNS reflection off a device toward the scenario's victim host.
    DnsReflect {
        /// The reflector device.
        reflector: DeviceId,
        /// Queries to fire.
        queries: u32,
    },
    /// Wait for physics.
    Wait(SimDuration),
}

/// A full deployment description.
#[derive(Debug, Clone)]
pub struct Deployment {
    /// Devices (ids are their indices).
    pub devices: Vec<DeviceSetup>,
    /// Hub recipes.
    pub recipes: Vec<Recipe>,
    /// The attack campaign, if any.
    pub campaign: Vec<StepSpec>,
    /// Attacker location.
    pub attacker_location: AttackerLocation,
    /// The defense under test.
    pub defense: Defense,
    /// Figure 5-style actuation gates: `(device, var, required value)`.
    pub gates: Vec<(DeviceId, EnvVar, &'static str)>,
    /// Figure 3-style protection pairs: `(watched, protected)`.
    pub protect_pairs: Vec<(DeviceId, DeviceId)>,
    /// Site shape.
    pub site: Site,
    /// Signatures this deployment subscribed to from the crowdsourced
    /// repository before deploying; devices of a matching SKU get an IDS
    /// chain loaded with them (the §4.1 consumption side).
    pub subscribed_signatures: Vec<iotlearn::signature::AttackSignature>,
    /// Keys the attacker holds before the campaign starts (extracted
    /// offline from firmware images — the Table 1 row 4 scenario).
    pub pre_stolen_keys: Vec<u64>,
    /// RNG seed.
    pub seed: u64,
    /// Simulation tick.
    pub tick: SimDuration,
    /// Fault schedule, if this is a chaos run. `None` keeps the legacy
    /// fault-free semantics bit-for-bit.
    pub chaos: Option<ChaosConfig>,
    /// Runtime safety layer: monitor, circuit breakers and admission
    /// control. `None` keeps the world byte-identical to one built
    /// before the layer existed.
    pub safety: Option<iotctl::safety::SafetyConfig>,
}

impl Default for Deployment {
    fn default() -> Self {
        Deployment {
            devices: Vec::new(),
            recipes: Vec::new(),
            campaign: Vec::new(),
            attacker_location: AttackerLocation::Wan,
            defense: Defense::None,
            gates: Vec::new(),
            protect_pairs: Vec::new(),
            site: Site::Home,
            subscribed_signatures: Vec::new(),
            pre_stolen_keys: Vec::new(),
            seed: 42,
            tick: SimDuration::from_millis(100),
            chaos: None,
            safety: None,
        }
    }
}

impl Deployment {
    /// An empty deployment.
    pub fn new() -> Deployment {
        Deployment::default()
    }

    /// Add a device; returns its id.
    pub fn device(&mut self, setup: DeviceSetup) -> DeviceId {
        let id = DeviceId(self.devices.len() as u32);
        self.devices.push(setup);
        id
    }

    /// Add a recipe.
    pub fn recipe(&mut self, recipe: Recipe) -> &mut Self {
        self.recipes.push(recipe);
        self
    }

    /// Set the campaign.
    pub fn campaign(&mut self, steps: Vec<StepSpec>) -> &mut Self {
        self.campaign = steps;
        self
    }

    /// Set the defense.
    pub fn defend_with(&mut self, defense: Defense) -> &mut Self {
        self.defense = defense;
        self
    }

    /// Add a Figure 5-style gate.
    pub fn gate(&mut self, device: DeviceId, var: EnvVar, value: &'static str) -> &mut Self {
        self.gates.push((device, var, value));
        self
    }

    /// Add a Figure 3-style protection pair.
    pub(crate) fn protect(&mut self, watched: DeviceId, protected: DeviceId) -> &mut Self {
        self.protect_pairs.push((watched, protected));
        self
    }

    /// Attach a fault schedule (makes this a chaos run).
    pub fn chaos(&mut self, chaos: ChaosConfig) -> &mut Self {
        self.chaos = Some(chaos);
        self
    }

    /// Enable the runtime safety layer (monitor, breakers, admission
    /// control).
    pub fn safety(&mut self, safety: iotctl::safety::SafetyConfig) -> &mut Self {
        self.safety = Some(safety);
        self
    }

    /// Whether any step reflects DNS (a victim host is then attached).
    pub(crate) fn needs_victim(&self) -> bool {
        self.campaign.iter().any(|s| matches!(s, StepSpec::DnsReflect { .. }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_assigns_sequential_ids() {
        let mut d = Deployment::new();
        let a = d.device(DeviceSetup::clean(DeviceClass::Camera));
        let b = d.device(DeviceSetup::table1_row(6));
        assert_eq!(a, DeviceId(0));
        assert_eq!(b, DeviceId(1));
        assert_eq!(d.devices[1].class, DeviceClass::SmartPlug);
        assert!(d.devices[1].vulns.iter().any(|v| v.id() == "open-dns-resolver"));
    }

    #[test]
    fn table1_rows_materialize() {
        for row in 1..=7 {
            let setup = DeviceSetup::table1_row(row);
            assert!(!setup.vulns.is_empty(), "row {row}");
        }
    }

    #[test]
    fn needs_victim_detects_reflection() {
        let mut d = Deployment::new();
        let plug = d.device(DeviceSetup::table1_row(6));
        assert!(!d.needs_victim());
        d.campaign(vec![StepSpec::DnsReflect { reflector: plug, queries: 10 }]);
        assert!(d.needs_victim());
    }

    #[test]
    fn device_setup_builders() {
        let s = DeviceSetup::clean(DeviceClass::SmartPlug)
            .powering(PlugLoad::AirConditioner)
            .with_vuln(Vulnerability::CloudBypassBackdoor);
        assert_eq!(s.load, Some(PlugLoad::AirConditioner));
        assert_eq!(s.vulns.len(), 1);
    }
}
