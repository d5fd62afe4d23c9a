//! Abstract per-class device models (§4.2 of the paper).
//!
//! The paper argues that per-SKU honeypots cannot scale, and proposes
//! instead a community library of *abstract models of device classes*
//! ("toaster, microwave, smart bulb rather than specific instances") that
//! capture key input–output behaviour and environment interactions. The
//! learning layer then fuzzes over these models to discover cross-device
//! interactions and searches them to find multi-stage attacks.
//!
//! An [`AbstractModel`] is a small FSM: named states, inputs (control
//! actions or environment-edge triggers), and transitions annotated with
//! the *eventual* environment writes they cause. Writes are deliberately
//! over-approximate — "turning the oven on can eventually make Smoke=yes"
//! — which keeps attack-graph search sound (it never misses a physically
//! possible chain).

use crate::classes::PlugLoad;
use crate::device::DeviceClass;
use crate::env::EnvVar;
use crate::proto::ControlAction;

/// An input that can drive a model transition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AbstractInput {
    /// A network control action.
    Action(ControlAction),
    /// The environment variable reached this value.
    EnvBecomes(EnvVar, &'static str),
}

/// One transition of an abstract model.
#[derive(Debug, Clone, PartialEq)]
pub struct Transition {
    /// Source state index.
    pub from: usize,
    /// Triggering input.
    pub input: AbstractInput,
    /// Destination state index.
    pub to: usize,
    /// Environment values this transition can eventually cause.
    pub writes: Vec<(EnvVar, &'static str)>,
}

/// An abstract model of a device class (optionally specialized by the
/// plug's load, which determines its physical coupling).
#[derive(Debug, Clone, PartialEq)]
pub struct AbstractModel {
    /// The modelled class.
    pub class: DeviceClass,
    /// Human-readable state names.
    pub states: Vec<&'static str>,
    /// Index of the initial state.
    pub initial: usize,
    /// Transitions.
    pub transitions: Vec<Transition>,
    /// Environment variables the device senses.
    pub env_reads: Vec<EnvVar>,
}

impl AbstractModel {
    /// The model for a device class; pass the plug's load for
    /// [`DeviceClass::SmartPlug`] to capture its physical coupling
    /// (`None` means a generic load).
    pub fn for_device(class: DeviceClass, load: Option<PlugLoad>) -> AbstractModel {
        use AbstractInput::*;
        use ControlAction::*;
        match class {
            DeviceClass::SmartPlug => {
                let mut on_writes = vec![(EnvVar::PowerDraw, "high")];
                let mut off_writes = vec![(EnvVar::PowerDraw, "normal")];
                match load {
                    Some(PlugLoad::AirConditioner) => {
                        // Cutting AC power lets the room heat up.
                        off_writes.push((EnvVar::Temperature, "high"));
                        on_writes.push((EnvVar::Temperature, "normal"));
                    }
                    Some(PlugLoad::Oven) => {
                        // Powering the oven can eventually cause smoke.
                        on_writes.push((EnvVar::Smoke, "yes"));
                        on_writes.push((EnvVar::Temperature, "high"));
                    }
                    Some(PlugLoad::Lamp) => {
                        on_writes.push((EnvVar::Light, "bright"));
                        off_writes.push((EnvVar::Light, "dark"));
                    }
                    Some(PlugLoad::Generic) | None => {}
                }
                AbstractModel {
                    class,
                    states: vec!["off", "on"],
                    initial: 1,
                    transitions: vec![
                        Transition { from: 0, input: Action(TurnOn), to: 1, writes: on_writes },
                        Transition { from: 1, input: Action(TurnOff), to: 0, writes: off_writes },
                    ],
                    env_reads: vec![],
                }
            }
            DeviceClass::Oven => AbstractModel {
                class,
                states: vec!["off", "heating"],
                initial: 0,
                transitions: vec![
                    Transition {
                        from: 0,
                        input: Action(TurnOn),
                        to: 1,
                        writes: vec![(EnvVar::Temperature, "high"), (EnvVar::Smoke, "yes")],
                    },
                    Transition { from: 1, input: Action(TurnOff), to: 0, writes: vec![] },
                ],
                env_reads: vec![],
            },
            DeviceClass::WindowActuator => AbstractModel {
                class,
                states: vec!["closed", "open"],
                initial: 0,
                transitions: vec![
                    Transition {
                        from: 0,
                        input: Action(Open),
                        to: 1,
                        writes: vec![(EnvVar::Window, "open"), (EnvVar::Temperature, "high")],
                    },
                    Transition {
                        from: 1,
                        input: Action(Close),
                        to: 0,
                        writes: vec![(EnvVar::Window, "closed")],
                    },
                ],
                env_reads: vec![],
            },
            DeviceClass::SmartLock => AbstractModel {
                class,
                states: vec!["locked", "unlocked"],
                initial: 0,
                transitions: vec![
                    Transition {
                        from: 0,
                        input: Action(Unlock),
                        to: 1,
                        writes: vec![(EnvVar::Door, "unlocked")],
                    },
                    Transition {
                        from: 1,
                        input: Action(Lock),
                        to: 0,
                        writes: vec![(EnvVar::Door, "locked")],
                    },
                ],
                env_reads: vec![],
            },
            DeviceClass::LightBulb => AbstractModel {
                class,
                states: vec!["off", "on"],
                initial: 0,
                transitions: vec![
                    Transition {
                        from: 0,
                        input: Action(TurnOn),
                        to: 1,
                        writes: vec![(EnvVar::Light, "bright")],
                    },
                    Transition {
                        from: 1,
                        input: Action(TurnOff),
                        to: 0,
                        writes: vec![(EnvVar::Light, "dark")],
                    },
                ],
                env_reads: vec![],
            },
            DeviceClass::Thermostat => AbstractModel {
                class,
                states: vec!["idle", "cooling"],
                initial: 0,
                transitions: vec![
                    Transition {
                        from: 0,
                        input: EnvBecomes(EnvVar::Temperature, "high"),
                        to: 1,
                        writes: vec![(EnvVar::Temperature, "normal")],
                    },
                    Transition {
                        from: 1,
                        input: EnvBecomes(EnvVar::Temperature, "normal"),
                        to: 0,
                        writes: vec![],
                    },
                    // An attacker-raised setpoint suppresses cooling.
                    Transition {
                        from: 1,
                        input: Action(SetTarget(350)),
                        to: 0,
                        writes: vec![(EnvVar::Temperature, "high")],
                    },
                ],
                env_reads: vec![EnvVar::Temperature],
            },
            DeviceClass::FireAlarm => AbstractModel {
                class,
                states: vec!["ok", "alarm"],
                initial: 0,
                transitions: vec![
                    Transition {
                        from: 0,
                        input: EnvBecomes(EnvVar::Smoke, "yes"),
                        to: 1,
                        writes: vec![],
                    },
                    Transition {
                        from: 1,
                        input: EnvBecomes(EnvVar::Smoke, "no"),
                        to: 0,
                        writes: vec![],
                    },
                ],
                env_reads: vec![EnvVar::Smoke],
            },
            DeviceClass::Camera | DeviceClass::MotionSensor => AbstractModel {
                class,
                states: vec!["no-motion", "motion"],
                initial: 0,
                transitions: vec![
                    Transition {
                        from: 0,
                        input: EnvBecomes(EnvVar::Occupancy, "present"),
                        to: 1,
                        writes: vec![],
                    },
                    Transition {
                        from: 1,
                        input: EnvBecomes(EnvVar::Occupancy, "absent"),
                        to: 0,
                        writes: vec![],
                    },
                ],
                env_reads: vec![EnvVar::Occupancy],
            },
            DeviceClass::LightSensor => AbstractModel {
                class,
                states: vec!["dark", "bright"],
                initial: 0,
                transitions: vec![
                    Transition {
                        from: 0,
                        input: EnvBecomes(EnvVar::Light, "bright"),
                        to: 1,
                        writes: vec![],
                    },
                    Transition {
                        from: 1,
                        input: EnvBecomes(EnvVar::Light, "dark"),
                        to: 0,
                        writes: vec![],
                    },
                ],
                env_reads: vec![EnvVar::Light],
            },
            DeviceClass::TrafficLight => AbstractModel {
                class,
                states: vec!["red", "yellow", "green"],
                initial: 0,
                transitions: vec![
                    Transition { from: 0, input: Action(SetPhase(2)), to: 2, writes: vec![] },
                    Transition { from: 2, input: Action(SetPhase(0)), to: 0, writes: vec![] },
                    Transition { from: 0, input: Action(SetPhase(1)), to: 1, writes: vec![] },
                    Transition { from: 1, input: Action(SetPhase(0)), to: 0, writes: vec![] },
                ],
                env_reads: vec![],
            },
            DeviceClass::SetTopBox | DeviceClass::Refrigerator => AbstractModel {
                class,
                states: vec!["on"],
                initial: 0,
                transitions: vec![],
                env_reads: vec![],
            },
        }
    }

    /// Transitions firing from `state` on `input`.
    pub fn step(&self, state: usize, input: AbstractInput) -> Option<&Transition> {
        self.transitions.iter().find(|t| t.from == state && t.input == input)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_classes_have_models() {
        for class in DeviceClass::ALL {
            let m = AbstractModel::for_device(class, None);
            assert!(!m.states.is_empty());
            assert!(m.initial < m.states.len());
            for t in &m.transitions {
                assert!(t.from < m.states.len());
                assert!(t.to < m.states.len());
            }
        }
    }

    #[test]
    fn ac_plug_off_implies_heat() {
        let m = AbstractModel::for_device(DeviceClass::SmartPlug, Some(PlugLoad::AirConditioner));
        let t = m.step(1, AbstractInput::Action(ControlAction::TurnOff)).unwrap();
        assert!(t.writes.contains(&(EnvVar::Temperature, "high")));
    }

    #[test]
    fn oven_plug_on_implies_smoke_risk() {
        let m = AbstractModel::for_device(DeviceClass::SmartPlug, Some(PlugLoad::Oven));
        let t = m.step(0, AbstractInput::Action(ControlAction::TurnOn)).unwrap();
        assert!(t.writes.contains(&(EnvVar::Smoke, "yes")));
    }

    #[test]
    fn sensors_read_but_do_not_write() {
        for class in [DeviceClass::Camera, DeviceClass::FireAlarm, DeviceClass::LightSensor] {
            let m = AbstractModel::for_device(class, None);
            assert!(!m.env_reads.is_empty());
            assert!(m.transitions.iter().all(|t| t.writes.is_empty()), "{class:?}");
        }
    }

    #[test]
    fn stepping_follows_transitions() {
        let m = AbstractModel::for_device(DeviceClass::WindowActuator, None);
        let t = m.step(0, AbstractInput::Action(ControlAction::Open)).unwrap();
        assert_eq!(m.states[t.to], "open");
        assert!(m.step(0, AbstractInput::Action(ControlAction::Close)).is_none());
    }
}
