//! Per-class device finite state machines.
//!
//! Each class is an explicit FSM with three faces:
//!
//! * **actuation** — [`DeviceLogic::apply_action`] applies a validated
//!   control action and updates both internal state and the shared
//!   [`Environment`];
//! * **sensing** — `DeviceLogic::tick` reads the environment and emits
//!   telemetry and edge-triggered events (one stated exception: an
//!   unlocked [`SmartLock`] reports `DoorOpened` as a *level*, on every
//!   tick it stays unlocked);
//! * **introspection** — class-specific data such as the camera image.
//!
//! Most ticks of most devices change nothing: `DeviceLogic::steady`
//! says when, and the world's run loop does not execute those ticks
//! (DESIGN.md §6).
//!
//! Classes are grouped as sensors (camera, motion, light, fire alarm),
//! actuators (plug, bulb, window, lock, oven, traffic light) and
//! appliances (thermostat, set-top box, refrigerator).

mod actuators;
mod appliances;
mod sensors;

pub(crate) use actuators::{LightBulb, Oven};
pub use actuators::{PlugLoad, SmartLock, SmartPlug, TrafficLight, WindowActuator};
pub use appliances::{Refrigerator, SetTopBox, Thermostat};
pub use sensors::{Camera, FireAlarm, LightSensor, MotionSensor};

use crate::device::DeviceClass;
use crate::env::Environment;
use crate::proto::{ControlAction, EventKind, TelemetryKind};
use bytes::Bytes;

/// What a class FSM produces on a tick.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum TickOutput {
    /// A periodic telemetry sample.
    Telemetry(TelemetryKind, f64),
    /// An edge-triggered event.
    Event(EventKind),
}

/// Everything one class FSM produces on one tick, held inline.
///
/// No class emits more than one edge event plus one telemetry sample per
/// tick, so the list holds at most `TickOutputs::CAPACITY` entries and a
/// tick never touches the heap. A third [`push`](TickOutputs::push) is a
/// bug in the class FSM and panics in every build profile — an output is
/// never silently dropped. Reads (and comparisons) go through the slice
/// it derefs to.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TickOutputs {
    items: [TickOutput; TickOutputs::CAPACITY],
    len: u8,
}

impl TickOutputs {
    /// The per-class, per-tick bound: one edge event + one telemetry sample.
    pub(crate) const CAPACITY: usize = 2;

    /// No output (a powered-down sensor).
    pub(crate) fn new() -> TickOutputs {
        // Slots at or past `len` are never read; any value fills them.
        TickOutputs {
            items: [TickOutput::Telemetry(TelemetryKind::Status, 0.0); Self::CAPACITY],
            len: 0,
        }
    }

    /// A single output (the telemetry-only common case).
    pub(crate) fn of(output: TickOutput) -> TickOutputs {
        let mut out = TickOutputs::new();
        out.push(output);
        out
    }

    /// Append an output; panics past `TickOutputs::CAPACITY`.
    pub(crate) fn push(&mut self, output: TickOutput) {
        let len = usize::from(self.len);
        assert!(
            len < Self::CAPACITY,
            "a class FSM emitted more than {} outputs in one tick",
            Self::CAPACITY
        );
        self.items[len] = output;
        self.len += 1;
    }
}

impl Default for TickOutputs {
    fn default() -> Self {
        TickOutputs::new()
    }
}

impl std::ops::Deref for TickOutputs {
    type Target = [TickOutput];

    fn deref(&self) -> &[TickOutput] {
        &self.items[..usize::from(self.len)]
    }
}

/// The per-class state machine, dispatched by enum (devices are created
/// in bulk by the workload generators; static dispatch keeps them
/// cheap).
#[derive(Debug, Clone, PartialEq)]
pub enum DeviceLogic {
    /// Surveillance camera.
    Camera(Camera),
    /// Smart plug.
    SmartPlug(SmartPlug),
    /// Thermostat.
    Thermostat(Thermostat),
    /// Smoke/CO alarm.
    FireAlarm(FireAlarm),
    /// Window actuator.
    WindowActuator(WindowActuator),
    /// Light bulb.
    LightBulb(LightBulb),
    /// Light sensor.
    LightSensor(LightSensor),
    /// Door lock.
    SmartLock(SmartLock),
    /// Oven.
    Oven(Oven),
    /// Motion sensor.
    MotionSensor(MotionSensor),
    /// Set-top box.
    SetTopBox(SetTopBox),
    /// Refrigerator.
    Refrigerator(Refrigerator),
    /// Traffic light.
    TrafficLight(TrafficLight),
}

impl DeviceLogic {
    /// Fresh state for a class.
    pub(crate) fn new(class: DeviceClass) -> DeviceLogic {
        match class {
            DeviceClass::Camera => DeviceLogic::Camera(Camera::default()),
            DeviceClass::SmartPlug => DeviceLogic::SmartPlug(SmartPlug::default()),
            DeviceClass::Thermostat => DeviceLogic::Thermostat(Thermostat::default()),
            DeviceClass::FireAlarm => DeviceLogic::FireAlarm(FireAlarm::default()),
            DeviceClass::WindowActuator => DeviceLogic::WindowActuator(WindowActuator::default()),
            DeviceClass::LightBulb => DeviceLogic::LightBulb(LightBulb::default()),
            DeviceClass::LightSensor => DeviceLogic::LightSensor(LightSensor),
            DeviceClass::SmartLock => DeviceLogic::SmartLock(SmartLock::default()),
            DeviceClass::Oven => DeviceLogic::Oven(Oven::default()),
            DeviceClass::MotionSensor => DeviceLogic::MotionSensor(MotionSensor::default()),
            DeviceClass::SetTopBox => DeviceLogic::SetTopBox(SetTopBox::default()),
            DeviceClass::Refrigerator => DeviceLogic::Refrigerator(Refrigerator),
            DeviceClass::TrafficLight => DeviceLogic::TrafficLight(TrafficLight::default()),
        }
    }

    /// Apply an actuation action; returns whether the action is valid for
    /// this class and was applied.
    pub fn apply_action(&mut self, action: ControlAction, env: &mut Environment) -> bool {
        match self {
            DeviceLogic::Camera(s) => s.apply(action),
            DeviceLogic::SmartPlug(s) => s.apply(action, env),
            DeviceLogic::Thermostat(s) => s.apply(action),
            DeviceLogic::FireAlarm(_) => false, // alarms have no actuation surface
            DeviceLogic::WindowActuator(s) => s.apply(action, env),
            DeviceLogic::LightBulb(s) => s.apply(action),
            DeviceLogic::LightSensor(_) => false,
            DeviceLogic::SmartLock(s) => s.apply(action, env),
            DeviceLogic::Oven(s) => s.apply(action),
            DeviceLogic::MotionSensor(_) => false,
            DeviceLogic::SetTopBox(s) => s.apply(action),
            DeviceLogic::Refrigerator(_) => false,
            DeviceLogic::TrafficLight(s) => s.apply(action),
        }
    }

    /// Sense and actuate the environment for one tick.
    pub(crate) fn tick(&mut self, env: &mut Environment) -> TickOutputs {
        match self {
            DeviceLogic::Camera(s) => s.tick(env),
            DeviceLogic::SmartPlug(s) => s.tick(env),
            DeviceLogic::Thermostat(s) => s.tick(env),
            DeviceLogic::FireAlarm(s) => s.tick(env),
            DeviceLogic::WindowActuator(s) => s.tick(env),
            DeviceLogic::LightBulb(s) => s.tick(env),
            DeviceLogic::LightSensor(s) => s.tick(env),
            DeviceLogic::SmartLock(s) => s.tick(env),
            DeviceLogic::Oven(s) => s.tick(env),
            DeviceLogic::MotionSensor(s) => s.tick(env),
            DeviceLogic::SetTopBox(s) => s.tick(env),
            DeviceLogic::Refrigerator(s) => s.tick(env),
            DeviceLogic::TrafficLight(s) => s.tick(env),
        }
    }

    /// Whether [`DeviceLogic::tick`] against `env` would be a no-op: no
    /// event, the FSM's state unchanged (a streaming camera's frame
    /// counter aside — see [`DeviceLogic::coast`]), and `env` left as it
    /// is but for the per-tick accumulators `bulbs_on` / `power_w`, which
    /// every tick re-derives. Sensors are steady while they agree with
    /// what they sense, actuators while the field they assert already
    /// holds their position; the telemetry sample a steady tick still
    /// returns is the device wrapper's to schedule.
    pub(crate) fn steady(&self, env: &Environment) -> bool {
        match self {
            DeviceLogic::Camera(s) => s.steady(env),
            DeviceLogic::SmartPlug(s) => s.steady(env),
            DeviceLogic::Thermostat(s) => s.steady(env),
            DeviceLogic::FireAlarm(s) => s.steady(env),
            DeviceLogic::WindowActuator(s) => s.steady(env),
            DeviceLogic::SmartLock(s) => s.steady(env),
            DeviceLogic::Oven(s) => s.steady(env),
            DeviceLogic::MotionSensor(s) => s.steady(env),
            // Accumulators and constant telemetry only.
            DeviceLogic::LightBulb(_)
            | DeviceLogic::LightSensor(_)
            | DeviceLogic::SetTopBox(_)
            | DeviceLogic::Refrigerator(_)
            | DeviceLogic::TrafficLight(_) => true,
        }
    }

    /// Account for `ticks` consecutive steady ticks without running them.
    pub(crate) fn coast(&mut self, ticks: u64) {
        if let DeviceLogic::Camera(s) = self {
            s.coast(ticks);
        }
    }

    /// The camera's current image, if this is a camera.
    pub fn image_data(&self) -> Option<Bytes> {
        match self {
            DeviceLogic::Camera(s) => Some(s.image()),
            _ => None,
        }
    }

    /// Whether the device's primary switch/relay is currently on
    /// (for classes where that is meaningful).
    pub fn is_on(&self) -> Option<bool> {
        match self {
            DeviceLogic::SmartPlug(s) => Some(s.on),
            DeviceLogic::LightBulb(s) => Some(s.on),
            DeviceLogic::Oven(s) => Some(s.on),
            DeviceLogic::Camera(s) => Some(s.streaming),
            DeviceLogic::SetTopBox(s) => Some(s.on),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_class_constructs() {
        for class in DeviceClass::ALL {
            let mut logic = DeviceLogic::new(class);
            let mut env = Environment::new();
            // Ticking a fresh device never panics and yields finite output.
            let out = logic.tick(&mut env);
            assert!(out.len() <= TickOutputs::CAPACITY);
        }
    }

    /// A grid of rooms around every threshold a class reads.
    fn rooms() -> Vec<Environment> {
        let mut rooms = Vec::new();
        for bits in 0u32..128 {
            let flag = |i: u32| bits >> i & 1 == 1;
            for temperature_c in [15.0, 21.4, 21.6, 22.4, 22.6, 30.0] {
                for smoke_density in [0.0, 0.49, 0.5, 2.0] {
                    rooms.push(Environment {
                        temperature_c,
                        smoke_density,
                        occupied: flag(0),
                        window_open: flag(1),
                        door_locked: flag(2),
                        ac_breaker_on: flag(3),
                        oven_breaker_on: flag(4),
                        ac_duty: if flag(5) { 1.0 } else { 0.0 },
                        oven_duty: if flag(6) { 1.0 } else { 0.0 },
                        ac_setpoint_c: if flag(5) { 22.0 } else { 21.0 },
                        ..Environment::new()
                    });
                }
            }
        }
        rooms
    }

    /// Every state a class FSM can be driven to: fresh, after each
    /// action it accepts, and (plugs) under each load.
    fn states(class: DeviceClass) -> Vec<DeviceLogic> {
        let actions = [
            ControlAction::TurnOn,
            ControlAction::TurnOff,
            ControlAction::Open,
            ControlAction::Close,
            ControlAction::Lock,
            ControlAction::Unlock,
            ControlAction::SetTarget(210),
        ];
        let mut fresh = vec![DeviceLogic::new(class)];
        if class == DeviceClass::SmartPlug {
            for load in [PlugLoad::AirConditioner, PlugLoad::Oven, PlugLoad::Lamp] {
                fresh.push(DeviceLogic::SmartPlug(SmartPlug { load, ..SmartPlug::default() }));
            }
        }
        let mut all = fresh.clone();
        for logic in &fresh {
            for action in actions {
                let mut driven = logic.clone();
                if driven.apply_action(action, &mut Environment::new()) {
                    // One tick, so sensors hold a verdict about some room.
                    driven.tick(&mut Environment::new());
                    all.push(driven);
                }
            }
        }
        all
    }

    #[test]
    fn a_steady_tick_is_a_no_op() {
        for class in DeviceClass::ALL {
            let (mut steady, mut moving) = (0, 0);
            for logic in states(class) {
                for room in rooms() {
                    if !logic.steady(&room) {
                        moving += 1;
                        continue;
                    }
                    steady += 1;
                    let (mut ticked, mut after) = (logic.clone(), room.clone());
                    let out = ticked.tick(&mut after);
                    assert!(
                        !out.iter().any(|o| matches!(o, TickOutput::Event(_))),
                        "{class:?} {logic:?} emitted {:?} in {room:?}",
                        &*out
                    );
                    // Only the per-tick accumulators may differ.
                    after.bulbs_on = room.bulbs_on;
                    after.power_w = room.power_w;
                    assert_eq!(after, room, "{class:?} {logic:?} moved the room");
                    // Only a streaming camera's frame counter may differ,
                    // and `coast` accounts for it.
                    let mut coasted = logic.clone();
                    coasted.coast(1);
                    assert_eq!(ticked, coasted, "{class:?} changed state in {room:?}");
                    // And only a class that senses the physics can be
                    // unsettled by it.
                    let mut later = room.clone();
                    later.step(0.1);
                    assert!(
                        class.senses_physics() || logic.steady(&later),
                        "{class:?} {logic:?} unsettled by physics in {room:?}"
                    );
                }
            }
            assert!(steady > 0, "{class:?} is never steady");
            let always = matches!(
                class,
                DeviceClass::LightBulb
                    | DeviceClass::LightSensor
                    | DeviceClass::SetTopBox
                    | DeviceClass::Refrigerator
                    | DeviceClass::TrafficLight
            );
            assert_eq!(moving == 0, always, "{class:?}: {moving} unsteady cases");
        }
    }

    #[test]
    fn an_unlocked_lock_is_never_steady() {
        // The one class that reports a level: `DoorOpened` on every tick
        // the door stays unlocked, whatever the room says.
        let mut lock = DeviceLogic::new(DeviceClass::SmartLock);
        assert!(lock.apply_action(ControlAction::Unlock, &mut Environment::new()));
        for room in rooms() {
            assert!(!lock.steady(&room));
            let out = lock.tick(&mut room.clone());
            assert!(out.contains(&TickOutput::Event(EventKind::DoorOpened)));
        }
    }

    #[test]
    fn tick_outputs_read_as_a_slice() {
        let telemetry = TickOutput::Telemetry(TelemetryKind::Smoke, 0.7);
        let event = TickOutput::Event(EventKind::SmokeAlarm);
        let mut out = TickOutputs::new();
        assert!(out.is_empty());
        out.push(event);
        out.push(telemetry);
        assert_eq!(&*out, &[event, telemetry]);
        assert_eq!(&*TickOutputs::of(telemetry), &[telemetry]);
    }

    #[test]
    #[should_panic(expected = "more than 2 outputs")]
    fn a_third_tick_output_panics() {
        let mut out = TickOutputs::of(TickOutput::Event(EventKind::DoorOpened));
        out.push(TickOutput::Telemetry(TelemetryKind::Status, 0.0));
        out.push(TickOutput::Telemetry(TelemetryKind::Status, 1.0));
    }

    #[test]
    fn sensors_reject_actuation() {
        let mut env = Environment::new();
        for class in [
            DeviceClass::FireAlarm,
            DeviceClass::LightSensor,
            DeviceClass::MotionSensor,
            DeviceClass::Refrigerator,
        ] {
            let mut logic = DeviceLogic::new(class);
            assert!(!logic.apply_action(ControlAction::TurnOn, &mut env), "{class:?}");
        }
    }

    #[test]
    fn is_on_reflects_state() {
        let mut env = Environment::new();
        let mut plug = DeviceLogic::new(DeviceClass::SmartPlug);
        assert_eq!(plug.is_on(), Some(true)); // plugs ship powered on
        assert!(plug.apply_action(ControlAction::TurnOff, &mut env));
        assert_eq!(plug.is_on(), Some(false));
        assert_eq!(DeviceLogic::new(DeviceClass::SmartLock).is_on(), None);
    }
}
