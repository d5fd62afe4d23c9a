//! Actuator classes: smart plug, light bulb, window actuator, smart lock,
//! oven, traffic light.
//!
//! Actuators are where the paper's cyber-physical risk lives: a network
//! message becomes a physical effect. Each actuator owns the environment
//! variables it drives and re-asserts them every tick.

use super::{TickOutput, TickOutputs};
use crate::env::Environment;
use crate::proto::{ControlAction, EventKind, TelemetryKind};

/// What a smart plug powers — the implicit cross-device coupling of the
/// paper's motivating scenarios.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlugLoad {
    /// The air-conditioner (the break-in chain: plug off → temp rises →
    /// windows open).
    AirConditioner,
    /// The oven's power source (Figure 5: the Wemo feeding a fire hazard).
    Oven,
    /// A dumb lamp.
    Lamp,
    /// Some generic appliance.
    Generic,
}

/// Smart plug (Belkin Wemo Insight).
#[derive(Debug, Clone, PartialEq)]
pub struct SmartPlug {
    /// Relay state.
    pub on: bool,
    /// What the plug powers.
    pub load: PlugLoad,
}

impl Default for SmartPlug {
    fn default() -> Self {
        SmartPlug { on: true, load: PlugLoad::Generic }
    }
}

impl SmartPlug {
    pub(crate) fn apply(&mut self, action: ControlAction, env: &mut Environment) -> bool {
        match action {
            ControlAction::TurnOn => {
                self.on = true;
                self.assert_env(env);
                true
            }
            ControlAction::TurnOff => {
                self.on = false;
                self.assert_env(env);
                true
            }
            _ => false,
        }
    }

    fn assert_env(&self, env: &mut Environment) {
        match self.load {
            PlugLoad::AirConditioner => env.ac_breaker_on = self.on,
            PlugLoad::Oven => env.oven_breaker_on = self.on,
            PlugLoad::Lamp | PlugLoad::Generic => {}
        }
    }

    /// The breaker this plug drives, if any, already follows its relay.
    pub(crate) fn steady(&self, env: &Environment) -> bool {
        match self.load {
            PlugLoad::AirConditioner => env.ac_breaker_on == self.on,
            PlugLoad::Oven => env.oven_breaker_on == self.on,
            PlugLoad::Lamp | PlugLoad::Generic => true,
        }
    }

    fn load_watts(&self) -> f64 {
        if !self.on {
            return 0.5; // standby
        }
        match self.load {
            PlugLoad::AirConditioner => 1200.0,
            PlugLoad::Oven => 2000.0,
            PlugLoad::Lamp => 60.0,
            PlugLoad::Generic => 100.0,
        }
    }

    pub(crate) fn tick(&mut self, env: &mut Environment) -> TickOutputs {
        self.assert_env(env);
        if self.on && self.load == PlugLoad::Lamp {
            env.bulbs_on += 1;
        }
        env.power_w += self.load_watts();
        TickOutputs::of(TickOutput::Telemetry(TelemetryKind::Power, self.load_watts()))
    }
}

/// Connected light bulb.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LightBulb {
    /// On/off.
    pub on: bool,
    /// Color index (the paper's IFTTT examples set lights to red).
    pub color: u8,
}

impl LightBulb {
    pub(crate) fn apply(&mut self, action: ControlAction) -> bool {
        match action {
            ControlAction::TurnOn => {
                self.on = true;
                true
            }
            ControlAction::TurnOff => {
                self.on = false;
                true
            }
            ControlAction::SetColor(c) => {
                self.color = c;
                self.on = true;
                true
            }
            _ => false,
        }
    }

    pub(crate) fn tick(&mut self, env: &mut Environment) -> TickOutputs {
        if self.on {
            env.bulbs_on += 1;
            env.power_w += 9.0;
        }
        TickOutputs::of(TickOutput::Telemetry(
            TelemetryKind::Light,
            if self.on { 1.0 } else { 0.0 },
        ))
    }
}

/// Motorized window actuator (Figure 3's physical-breach target).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WindowActuator {
    /// Position.
    pub open: bool,
}

impl WindowActuator {
    pub(crate) fn apply(&mut self, action: ControlAction, env: &mut Environment) -> bool {
        match action {
            ControlAction::Open => {
                self.open = true;
                env.window_open = true;
                true
            }
            ControlAction::Close => {
                self.open = false;
                env.window_open = false;
                true
            }
            _ => false,
        }
    }

    pub(crate) fn steady(&self, env: &Environment) -> bool {
        env.window_open == self.open
    }

    pub(crate) fn tick(&mut self, env: &mut Environment) -> TickOutputs {
        env.window_open = self.open;
        TickOutputs::of(TickOutput::Telemetry(TelemetryKind::Status, self.open as u8 as f64))
    }
}

/// Smart door lock.
#[derive(Debug, Clone, PartialEq)]
pub struct SmartLock {
    /// Locked?
    pub locked: bool,
}

impl Default for SmartLock {
    fn default() -> Self {
        SmartLock { locked: true }
    }
}

impl SmartLock {
    pub(crate) fn apply(&mut self, action: ControlAction, env: &mut Environment) -> bool {
        match action {
            ControlAction::Lock => {
                self.locked = true;
                env.door_locked = true;
                true
            }
            ControlAction::Unlock => {
                self.locked = false;
                env.door_locked = false;
                true
            }
            _ => false,
        }
    }

    /// Locked, and the door agrees. An unlocked lock is never steady:
    /// it reports `DoorOpened` as a *level*, on every tick it stays
    /// unlocked — the one class that does (see the module doc of
    /// [`crate::classes`]).
    pub(crate) fn steady(&self, env: &Environment) -> bool {
        self.locked && env.door_locked
    }

    pub(crate) fn tick(&mut self, env: &mut Environment) -> TickOutputs {
        let mut out = TickOutputs::new();
        if env.door_locked != self.locked {
            env.door_locked = self.locked;
        }
        if !self.locked {
            out.push(TickOutput::Event(EventKind::DoorOpened));
        }
        out.push(TickOutput::Telemetry(TelemetryKind::Status, self.locked as u8 as f64));
        out
    }
}

/// Connected oven.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Oven {
    /// Heating?
    pub on: bool,
}

impl Oven {
    pub(crate) fn apply(&mut self, action: ControlAction) -> bool {
        match action {
            ControlAction::TurnOn => {
                self.on = true;
                true
            }
            ControlAction::TurnOff => {
                self.on = false;
                true
            }
            _ => false,
        }
    }

    fn duty(&self) -> f64 {
        if self.on {
            1.0
        } else {
            0.0
        }
    }

    pub(crate) fn steady(&self, env: &Environment) -> bool {
        env.oven_duty == self.duty()
    }

    pub(crate) fn tick(&mut self, env: &mut Environment) -> TickOutputs {
        env.oven_duty = self.duty();
        if self.on {
            env.power_w += 2000.0;
        }
        TickOutputs::of(TickOutput::Telemetry(
            TelemetryKind::Power,
            if self.on { 2000.0 } else { 1.0 },
        ))
    }
}

/// Networked traffic light (Table 1 row 5).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TrafficLight {
    /// 0 = red, 1 = yellow, 2 = green.
    pub phase: u8,
}

impl TrafficLight {
    pub(crate) fn apply(&mut self, action: ControlAction) -> bool {
        match action {
            ControlAction::SetPhase(p) if p <= 2 => {
                self.phase = p;
                true
            }
            _ => false,
        }
    }

    pub(crate) fn tick(&mut self, _env: &mut Environment) -> TickOutputs {
        TickOutputs::of(TickOutput::Telemetry(TelemetryKind::Status, self.phase as f64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ac_plug_cuts_the_breaker() {
        let mut plug = SmartPlug { on: true, load: PlugLoad::AirConditioner };
        let mut env = Environment::new();
        plug.tick(&mut env);
        assert!(env.ac_breaker_on);
        assert!(plug.apply(ControlAction::TurnOff, &mut env));
        assert!(!env.ac_breaker_on);
    }

    #[test]
    fn oven_plug_gates_the_oven() {
        let mut plug = SmartPlug { on: false, load: PlugLoad::Oven };
        let mut env = Environment::new();
        plug.tick(&mut env);
        assert!(!env.oven_breaker_on);
        plug.apply(ControlAction::TurnOn, &mut env);
        assert!(env.oven_breaker_on);
    }

    #[test]
    fn plug_power_telemetry_tracks_load() {
        let mut plug = SmartPlug { on: true, load: PlugLoad::Oven };
        let mut env = Environment::new();
        env.begin_tick();
        plug.tick(&mut env);
        assert!(env.power_w >= 2000.0);
        plug.apply(ControlAction::TurnOff, &mut env);
        env.begin_tick();
        plug.tick(&mut env);
        assert!(env.power_w < 1.0);
    }

    #[test]
    fn window_drives_environment() {
        let mut w = WindowActuator::default();
        let mut env = Environment::new();
        assert!(w.apply(ControlAction::Open, &mut env));
        assert!(env.window_open);
        assert!(w.apply(ControlAction::Close, &mut env));
        assert!(!env.window_open);
        assert!(!w.apply(ControlAction::TurnOn, &mut env)); // invalid verb
    }

    #[test]
    fn lock_unlock_cycle() {
        let mut l = SmartLock::default();
        let mut env = Environment::new();
        assert!(l.locked);
        l.apply(ControlAction::Unlock, &mut env);
        assert!(!env.door_locked);
        let out = l.tick(&mut env);
        assert!(out.contains(&TickOutput::Event(EventKind::DoorOpened)));
        l.apply(ControlAction::Lock, &mut env);
        assert!(env.door_locked);
    }

    #[test]
    fn oven_heats_when_on_and_powered() {
        let mut oven = Oven::default();
        let mut env = Environment::new();
        oven.apply(ControlAction::TurnOn);
        oven.tick(&mut env);
        assert_eq!(env.oven_duty, 1.0);
        oven.apply(ControlAction::TurnOff);
        oven.tick(&mut env);
        assert_eq!(env.oven_duty, 0.0);
    }

    #[test]
    fn traffic_light_validates_phase() {
        let mut t = TrafficLight::default();
        assert!(t.apply(ControlAction::SetPhase(2)));
        assert_eq!(t.phase, 2);
        assert!(!t.apply(ControlAction::SetPhase(9)));
        assert_eq!(t.phase, 2);
        assert!(!t.apply(ControlAction::Open));
    }

    #[test]
    fn bulb_set_color_turns_on() {
        let mut b = LightBulb::default();
        assert!(b.apply(ControlAction::SetColor(1)));
        assert!(b.on);
        assert_eq!(b.color, 1);
        let mut env = Environment::new();
        env.begin_tick();
        b.tick(&mut env);
        assert_eq!(env.bulbs_on, 1);
    }

    #[test]
    fn lamp_plug_lights_the_room() {
        let mut plug = SmartPlug { on: true, load: PlugLoad::Lamp };
        let mut env = Environment::new();
        env.begin_tick();
        plug.tick(&mut env);
        assert_eq!(env.bulbs_on, 1);
    }
}
