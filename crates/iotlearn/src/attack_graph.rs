//! Multi-stage attack-graph generation and search (§4.2).
//!
//! "Such models can also be used to automatically identify potential
//! multi-stage attacks due to cross-device interactions; e.g., triggering
//! device X to transition to state Sₓ and then using that to reach an
//! eventual goal state (e.g., unlocking the door)."
//!
//! The graph is built from three knowledge sources:
//! * **vulnerabilities** — which devices an attacker can seize remotely
//!   (Table 1 classes give direct control of a device's actions);
//! * **abstract models** — what a controlled device's actions do to the
//!   environment, and how uncompromised devices react to the environment;
//! * **automation recipes** — hub rules that actuate devices when
//!   environment conditions hold (the IFTTT "open windows when hot" rule
//!   that completes the paper's break-in chain).
//!
//! Search is a forward fixpoint over *facts* (`var = value` plus "device
//! D controllable"), with parent pointers for path reconstruction — a
//! MulVal-style monotone derivation, which is sound w.r.t. the
//! over-approximate models.

use iotdev::classes::PlugLoad;
use iotdev::device::{DeviceClass, DeviceId};
use iotdev::env::EnvVar;
use iotdev::model::{AbstractInput, AbstractModel};
use iotpolicy::recipe::{Recipe, Trigger};
use std::collections::{BTreeMap, BTreeSet};

/// What the graph builder needs to know about one deployed device.
#[derive(Debug, Clone)]
pub struct DeviceSpec {
    /// Deployment id.
    pub id: DeviceId,
    /// Class.
    pub class: DeviceClass,
    /// Plug load, if a smart plug (decides its physical coupling).
    pub load: Option<PlugLoad>,
    /// Vulnerability class ids (`Vulnerability::id` strings) that allow
    /// *remote control* of the device.
    pub remote_vulns: Vec<String>,
}

impl DeviceSpec {
    /// Whether the attacker can seize this device directly from the
    /// network. Key theft and default credentials also yield control;
    /// open management alone yields data, not actuation — we still count
    /// it as control of cameras (disabling the stream blinds policies).
    pub(crate) fn remotely_controllable(&self) -> bool {
        self.remote_vulns.iter().any(|v| {
            matches!(
                v.as_str(),
                "default-credentials"
                    | "no-auth-control"
                    | "cloud-bypass-backdoor"
                    | "exposed-key-pair"
                    | "open-mgmt-access"
            )
        })
    }
}

/// A fact derivable by the attacker.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Fact {
    /// The attacker controls this device's actions.
    Controls(DeviceId),
    /// The environment variable holds this value.
    Env(EnvVar, &'static str),
}

/// One derivation step in an attack path.
#[derive(Debug, Clone, PartialEq)]
pub enum Step {
    /// Seize a device via a vulnerability class.
    Exploit {
        /// The seized device.
        device: DeviceId,
        /// The vulnerability used.
        vuln: String,
    },
    /// Use a controlled device's action to drive the environment.
    Actuate {
        /// The acting device.
        device: DeviceId,
        /// Resulting environment fact.
        causes: (EnvVar, &'static str),
    },
    /// An automation recipe fires on an environment condition.
    RecipeFires {
        /// Recipe id.
        recipe: u32,
        /// The device it actuates.
        target: DeviceId,
        /// Resulting environment fact, if the actuation writes one.
        causes: Option<(EnvVar, &'static str)>,
    },
    /// An autonomous device reacts to the environment.
    DeviceReacts {
        /// The reacting device.
        device: DeviceId,
        /// The condition it reacted to.
        on: (EnvVar, &'static str),
        /// Resulting environment fact, if any.
        causes: Option<(EnvVar, &'static str)>,
    },
}

/// A multi-stage attack: the ordered steps that derive the goal.
#[derive(Debug, Clone, PartialEq)]
pub struct AttackPath {
    /// The goal fact.
    pub goal: Fact,
    /// Derivation steps, in order.
    pub steps: Vec<Step>,
}

impl AttackPath {
    /// Number of stages (a 1-step path is a direct exploit; the paper's
    /// break-in chain is ≥ 3).
    pub fn stages(&self) -> usize {
        self.steps.len()
    }
}

/// The attack graph: devices, their models, and the recipe set.
#[derive(Debug)]
pub struct AttackGraph {
    specs: Vec<DeviceSpec>,
    models: Vec<AbstractModel>,
    recipes: Vec<Recipe>,
}

impl AttackGraph {
    /// Build from deployment knowledge.
    pub fn build(specs: Vec<DeviceSpec>, recipes: Vec<Recipe>) -> AttackGraph {
        let models = specs.iter().map(|s| AbstractModel::for_device(s.class, s.load)).collect();
        AttackGraph { specs, models, recipes }
    }

    fn spec_index(&self, id: DeviceId) -> Option<usize> {
        self.specs.iter().position(|s| s.id == id)
    }

    /// Forward-search for a derivation of `goal`. Returns the path of
    /// minimum derivation order (BFS over the monotone fixpoint).
    pub fn find_attack(&self, goal: Fact) -> Option<AttackPath> {
        let mut derived: BTreeMap<Fact, Option<(Step, Vec<Fact>)>> = BTreeMap::new();

        // Seed: remotely-controllable devices.
        for spec in &self.specs {
            if spec.remotely_controllable() {
                let vuln = spec.remote_vulns[0].clone();
                derived.insert(
                    Fact::Controls(spec.id),
                    Some((Step::Exploit { device: spec.id, vuln }, Vec::new())),
                );
            }
        }

        // Monotone fixpoint.
        loop {
            let mut new: Vec<(Fact, Step, Vec<Fact>)> = Vec::new();

            // 1. Controlled devices can actuate: every action transition's
            //    writes become derivable env facts.
            for (di, model) in self.models.iter().enumerate() {
                let dev = self.specs[di].id;
                let control = Fact::Controls(dev);
                if !derived.contains_key(&control) {
                    continue;
                }
                for t in &model.transitions {
                    if !matches!(t.input, AbstractInput::Action(_)) {
                        continue;
                    }
                    for (var, value) in &t.writes {
                        let fact = Fact::Env(*var, value);
                        if !derived.contains_key(&fact) {
                            new.push((
                                fact,
                                Step::Actuate { device: dev, causes: (*var, value) },
                                vec![control.clone()],
                            ));
                        }
                    }
                }
            }

            // 2. Recipes fire on derivable env conditions and actuate
            //    their targets; the target's matching action transitions'
            //    writes become derivable.
            for recipe in &self.recipes {
                let cond = match recipe.trigger {
                    Trigger::EnvEquals(var, value) => Fact::Env(var, value),
                    // Event triggers fire when the underlying env condition
                    // a sensor of that class watches becomes true; we map
                    // them through the sensor's reads.
                    Trigger::Event(class, _) => {
                        let Some(var) = sensor_variable(class) else { continue };
                        // The triggering value is whichever value the
                        // attacker can derive; try each.
                        let mut found = None;
                        for value in var.domain() {
                            if derived.contains_key(&Fact::Env(var, value)) {
                                found = Some(Fact::Env(var, value));
                                break;
                            }
                        }
                        match found {
                            Some(f) => f,
                            None => continue,
                        }
                    }
                };
                if !derived.contains_key(&cond) {
                    continue;
                }
                let Some(ti) = self.spec_index(recipe.action.target) else { continue };
                let model = &self.models[ti];
                let mut caused_any = false;
                for t in &model.transitions {
                    if t.input != AbstractInput::Action(recipe.action.action) {
                        continue;
                    }
                    for (var, value) in &t.writes {
                        let fact = Fact::Env(*var, value);
                        if !derived.contains_key(&fact) {
                            new.push((
                                fact,
                                Step::RecipeFires {
                                    recipe: recipe.id,
                                    target: recipe.action.target,
                                    causes: Some((*var, value)),
                                },
                                vec![cond.clone()],
                            ));
                            caused_any = true;
                        }
                    }
                }
                let _ = caused_any;
            }

            // 3. Autonomous devices react to the environment.
            for (di, model) in self.models.iter().enumerate() {
                let dev = self.specs[di].id;
                for t in &model.transitions {
                    let AbstractInput::EnvBecomes(var, value) = t.input else { continue };
                    let cond = Fact::Env(var, value);
                    if !derived.contains_key(&cond) {
                        continue;
                    }
                    for (wvar, wvalue) in &t.writes {
                        let fact = Fact::Env(*wvar, wvalue);
                        if !derived.contains_key(&fact) {
                            new.push((
                                fact,
                                Step::DeviceReacts {
                                    device: dev,
                                    on: (var, value),
                                    causes: Some((*wvar, wvalue)),
                                },
                                vec![cond.clone()],
                            ));
                        }
                    }
                }
            }

            if new.is_empty() {
                break;
            }
            for (fact, step, deps) in new {
                derived.entry(fact).or_insert(Some((step, deps)));
            }
        }

        // Reconstruct the path to the goal.
        derived.get(&goal)?;
        let mut steps = Vec::new();
        let mut visited: BTreeSet<Fact> = BTreeSet::new();
        collect_steps(&derived, &goal, &mut steps, &mut visited);
        Some(AttackPath { goal, steps })
    }
}

fn collect_steps(
    derived: &BTreeMap<Fact, Option<(Step, Vec<Fact>)>>,
    fact: &Fact,
    steps: &mut Vec<Step>,
    visited: &mut BTreeSet<Fact>,
) {
    if !visited.insert(fact.clone()) {
        return;
    }
    if let Some(Some((step, deps))) = derived.get(fact) {
        for dep in deps {
            collect_steps(derived, dep, steps, visited);
        }
        steps.push(step.clone());
    }
}

/// The environment variable a sensor class watches (for recipe event
/// triggers).
fn sensor_variable(class: DeviceClass) -> Option<EnvVar> {
    match class {
        DeviceClass::FireAlarm => Some(EnvVar::Smoke),
        DeviceClass::Camera | DeviceClass::MotionSensor => Some(EnvVar::Occupancy),
        DeviceClass::LightSensor => Some(EnvVar::Light),
        DeviceClass::SmartLock => Some(EnvVar::Door),
        _ => None,
    }
}

/// The paper's running break-in example, as a canned deployment: a
/// backdoored Wemo powering the AC, a thermostat, a window actuator, and
/// the "open windows to cool down when the AC is off" IFTTT recipe.
pub fn breakin_deployment() -> (Vec<DeviceSpec>, Vec<Recipe>) {
    use iotdev::proto::ControlAction;
    use iotpolicy::recipe::RecipeAction;
    let specs = vec![
        DeviceSpec {
            id: DeviceId(0),
            class: DeviceClass::SmartPlug,
            load: Some(PlugLoad::AirConditioner),
            remote_vulns: vec!["cloud-bypass-backdoor".into()],
        },
        DeviceSpec {
            id: DeviceId(1),
            class: DeviceClass::Thermostat,
            load: None,
            remote_vulns: vec![],
        },
        DeviceSpec {
            id: DeviceId(2),
            class: DeviceClass::WindowActuator,
            load: None,
            remote_vulns: vec![],
        },
    ];
    let recipes = vec![Recipe {
        id: 0,
        trigger: Trigger::EnvEquals(EnvVar::Temperature, "high"),
        action: RecipeAction { target: DeviceId(2), action: ControlAction::Open },
    }];
    (specs, recipes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_breakin_chain_is_found() {
        let (specs, recipes) = breakin_deployment();
        let graph = AttackGraph::build(specs, recipes);
        let path = graph.find_attack(Fact::Env(EnvVar::Window, "open")).expect("break-in path");
        // Multi-stage: exploit plug → actuate (heat) → recipe opens window.
        assert!(path.stages() >= 3, "path: {:#?}", path.steps);
        assert!(matches!(path.steps[0], Step::Exploit { device: DeviceId(0), .. }));
        assert!(path
            .steps
            .iter()
            .any(|s| matches!(s, Step::Actuate { causes: (EnvVar::Temperature, "high"), .. })));
        assert!(path
            .steps
            .iter()
            .any(|s| matches!(s, Step::RecipeFires { target: DeviceId(2), .. })));
    }

    #[test]
    fn no_path_without_the_recipe() {
        let (specs, _) = breakin_deployment();
        let graph = AttackGraph::build(specs, vec![]);
        assert!(graph.find_attack(Fact::Env(EnvVar::Window, "open")).is_none());
    }

    #[test]
    fn no_path_without_the_vulnerability() {
        let (mut specs, recipes) = breakin_deployment();
        specs[0].remote_vulns.clear();
        let graph = AttackGraph::build(specs, recipes);
        assert!(graph.find_attack(Fact::Env(EnvVar::Window, "open")).is_none());
    }

    #[test]
    fn direct_control_is_single_stage() {
        let (specs, recipes) = breakin_deployment();
        let graph = AttackGraph::build(specs, recipes);
        let path = graph.find_attack(Fact::Controls(DeviceId(0))).unwrap();
        assert_eq!(path.stages(), 1);
    }

    #[test]
    fn event_trigger_recipes_chain_through_sensors() {
        use iotdev::proto::{ControlAction, EventKind};
        use iotpolicy::recipe::RecipeAction;
        // Oven (backdoored) → smoke → fire-alarm event recipe unlocks the
        // door ("let firefighters in") → door unlocked: a 4-stage chain.
        let specs = vec![
            DeviceSpec {
                id: DeviceId(0),
                class: DeviceClass::Oven,
                load: None,
                remote_vulns: vec!["no-auth-control".into()],
            },
            DeviceSpec {
                id: DeviceId(1),
                class: DeviceClass::FireAlarm,
                load: None,
                remote_vulns: vec![],
            },
            DeviceSpec {
                id: DeviceId(2),
                class: DeviceClass::SmartLock,
                load: None,
                remote_vulns: vec![],
            },
        ];
        let recipes = vec![Recipe {
            id: 7,
            trigger: Trigger::Event(DeviceClass::FireAlarm, EventKind::SmokeAlarm),
            action: RecipeAction { target: DeviceId(2), action: ControlAction::Unlock },
        }];
        let graph = AttackGraph::build(specs, recipes);
        let path = graph.find_attack(Fact::Env(EnvVar::Door, "unlocked")).expect("smoke chain");
        assert!(path.stages() >= 3, "{:#?}", path.steps);
        assert!(path.steps.iter().any(|s| matches!(s, Step::RecipeFires { recipe: 7, .. })));
    }
}
