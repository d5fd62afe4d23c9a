//! Appliance classes: thermostat, set-top box, refrigerator.
//!
//! The thermostat is the closed-loop controller in the paper's implicit-
//! coupling example: it senses the room temperature and drives the AC,
//! which is exactly the loop an attacker breaks by cutting the AC's smart
//! plug. The set-top box and refrigerator are mostly management-plane
//! targets (Table 1 rows 2–3) with heartbeat telemetry.

use super::{TickOutput, TickOutputs};
use crate::env::Environment;
use crate::proto::{ControlAction, TelemetryKind};

/// Networked thermostat with a simple hysteresis controller.
#[derive(Debug, Clone, PartialEq)]
pub struct Thermostat {
    /// Cooling setpoint in °C.
    pub setpoint_c: f64,
    /// Whether the thermostat currently demands cooling.
    pub cooling: bool,
}

impl Default for Thermostat {
    fn default() -> Self {
        Thermostat { setpoint_c: 22.0, cooling: false }
    }
}

const HYSTERESIS_C: f64 = 0.5;

impl Thermostat {
    pub(crate) fn apply(&mut self, action: ControlAction) -> bool {
        match action {
            ControlAction::SetTarget(tenths) => {
                let c = tenths as f64 / 10.0;
                if (5.0..=35.0).contains(&c) {
                    self.setpoint_c = c;
                    true
                } else {
                    false
                }
            }
            ControlAction::TurnOff => {
                self.cooling = false;
                true
            }
            ControlAction::TurnOn => true,
            _ => false,
        }
    }

    /// What the hysteresis loop demands at this room temperature.
    fn demand(&self, env: &Environment) -> bool {
        if env.temperature_c > self.setpoint_c + HYSTERESIS_C {
            true
        } else if env.temperature_c < self.setpoint_c - HYSTERESIS_C {
            false
        } else {
            self.cooling
        }
    }

    fn duty(&self) -> f64 {
        if self.cooling {
            1.0
        } else {
            0.0
        }
    }

    /// The room is inside the band (or already on the demanded side of
    /// it) and the AC already holds this thermostat's duty and setpoint.
    pub(crate) fn steady(&self, env: &Environment) -> bool {
        self.demand(env) == self.cooling
            && env.ac_duty == self.duty()
            && env.ac_setpoint_c == self.setpoint_c
    }

    pub(crate) fn tick(&mut self, env: &mut Environment) -> TickOutputs {
        self.cooling = self.demand(env);
        env.ac_duty = self.duty();
        env.ac_setpoint_c = self.setpoint_c;
        TickOutputs::of(TickOutput::Telemetry(TelemetryKind::Temperature, env.temperature_c))
    }
}

/// TV set-top box (Table 1 row 2: exposed management access).
#[derive(Debug, Clone, PartialEq)]
pub struct SetTopBox {
    /// Powered on?
    pub on: bool,
}

impl Default for SetTopBox {
    fn default() -> Self {
        SetTopBox { on: true }
    }
}

impl SetTopBox {
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

    pub(crate) fn tick(&mut self, env: &mut Environment) -> TickOutputs {
        if self.on {
            env.power_w += 15.0;
        }
        TickOutputs::of(TickOutput::Telemetry(TelemetryKind::Status, self.on as u8 as f64))
    }
}

/// Smart refrigerator (Table 1 row 3; famously conscripted into spam
/// botnets). Always on; heartbeat only.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Refrigerator;

impl Refrigerator {
    pub(crate) fn tick(&mut self, env: &mut Environment) -> TickOutputs {
        env.power_w += 150.0;
        TickOutputs::of(TickOutput::Telemetry(TelemetryKind::Status, 1.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thermostat_hysteresis_loop() {
        let mut t = Thermostat::default();
        let mut env = Environment::new();
        env.temperature_c = 25.0;
        t.tick(&mut env);
        assert!(t.cooling);
        assert_eq!(env.ac_duty, 1.0);
        env.temperature_c = 21.0;
        t.tick(&mut env);
        assert!(!t.cooling);
        assert_eq!(env.ac_duty, 0.0);
        // Inside the hysteresis band, state holds.
        env.temperature_c = 22.2;
        t.tick(&mut env);
        assert!(!t.cooling);
    }

    #[test]
    fn thermostat_setpoint_validation() {
        let mut t = Thermostat::default();
        assert!(t.apply(ControlAction::SetTarget(180))); // 18.0 C
        assert_eq!(t.setpoint_c, 18.0);
        assert!(!t.apply(ControlAction::SetTarget(500))); // 50 C: rejected
        assert_eq!(t.setpoint_c, 18.0);
        assert!(!t.apply(ControlAction::Open));
    }

    #[test]
    fn thermostat_cools_a_hot_room_end_to_end() {
        let mut t = Thermostat::default();
        let mut env = Environment::new();
        env.ambient_c = 35.0;
        env.temperature_c = 30.0;
        for _ in 0..3000 {
            t.tick(&mut env);
            env.step(1.0);
        }
        assert!(env.temperature_c < 24.0, "temp {}", env.temperature_c);
    }

    #[test]
    fn cutting_ac_power_defeats_the_thermostat() {
        // The paper's implicit-coupling attack: the thermostat demands
        // cooling but the breaker (smart plug) is off.
        let mut t = Thermostat::default();
        let mut env = Environment::new();
        env.ambient_c = 35.0;
        env.temperature_c = 30.0;
        env.ac_breaker_on = false;
        for _ in 0..3000 {
            t.tick(&mut env);
            env.step(1.0);
        }
        assert!(t.cooling, "thermostat should be demanding cooling");
        assert!(env.temperature_c > 27.0, "temp {}", env.temperature_c);
        assert_eq!(env.discretize().temperature, "high");
    }

    #[test]
    fn settop_and_fridge_heartbeat() {
        let mut env = Environment::new();
        env.begin_tick();
        let mut s = SetTopBox::default();
        let mut f = Refrigerator;
        assert!(!s.tick(&mut env).is_empty());
        assert!(!f.tick(&mut env).is_empty());
        assert!(env.power_w > 0.0);
        s.apply(ControlAction::TurnOff);
        env.begin_tick();
        s.tick(&mut env);
        f.tick(&mut env);
        assert_eq!(env.power_w, 150.0);
    }
}
