//! Sensor classes: camera, motion sensor, light sensor, fire alarm.
//!
//! Sensors read the environment and emit telemetry plus edge-triggered
//! events. The camera doubles as the occupancy oracle of the paper's
//! Figure 5 policy ("allow the oven's plug to turn on only if the camera
//! sees a person").

use super::{TickOutput, TickOutputs};
use crate::env::{thresholds, Environment};
use crate::proto::{ControlAction, EventKind, TelemetryKind};
use bytes::Bytes;

/// IP surveillance camera with motion analytics.
#[derive(Debug, Clone, PartialEq)]
pub struct Camera {
    /// Whether the camera is streaming (and hence analysing motion).
    pub streaming: bool,
    /// Last occupancy verdict.
    pub motion: bool,
    /// Frame counter (makes successive images distinct).
    pub frames: u64,
}

impl Default for Camera {
    fn default() -> Self {
        Camera { streaming: true, motion: false, frames: 0 }
    }
}

impl Camera {
    pub(crate) fn apply(&mut self, action: ControlAction) -> bool {
        match action {
            ControlAction::TurnOn => {
                self.streaming = true;
                true
            }
            ControlAction::TurnOff => {
                self.streaming = false;
                true
            }
            _ => false,
        }
    }

    pub(crate) fn tick(&mut self, env: &mut Environment) -> TickOutputs {
        let mut out = TickOutputs::new();
        if !self.streaming {
            return out;
        }
        self.frames += 1;
        let now_motion = env.occupied;
        if now_motion != self.motion {
            self.motion = now_motion;
            out.push(TickOutput::Event(if now_motion {
                EventKind::MotionStart
            } else {
                EventKind::MotionStop
            }));
        }
        out.push(TickOutput::Telemetry(TelemetryKind::Motion, self.motion as u8 as f64));
        out
    }

    /// Off, or already agreeing with the room about who is in it.
    pub(crate) fn steady(&self, env: &Environment) -> bool {
        !self.streaming || self.motion == env.occupied
    }

    /// `ticks` steady ticks at once: all a steady tick does is count a
    /// frame — and the frame number is in every image an attacker pulls.
    pub(crate) fn coast(&mut self, ticks: u64) {
        if self.streaming {
            self.frames += ticks;
        }
    }

    /// The current frame, as bytes an attacker would exfiltrate.
    pub(crate) fn image(&self) -> Bytes {
        Bytes::from(format!("JPEG:frame{}:motion{}", self.frames, self.motion))
    }
}

/// PIR motion sensor.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MotionSensor {
    /// Last verdict.
    pub motion: bool,
}

impl MotionSensor {
    pub(crate) fn tick(&mut self, env: &mut Environment) -> TickOutputs {
        let mut out = TickOutputs::new();
        if env.occupied != self.motion {
            self.motion = env.occupied;
            out.push(TickOutput::Event(if self.motion {
                EventKind::MotionStart
            } else {
                EventKind::MotionStop
            }));
        }
        out.push(TickOutput::Telemetry(TelemetryKind::Motion, self.motion as u8 as f64));
        out
    }

    pub(crate) fn steady(&self, env: &Environment) -> bool {
        self.motion == env.occupied
    }
}

/// Ambient light sensor.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LightSensor;

impl LightSensor {
    pub(crate) fn tick(&mut self, env: &mut Environment) -> TickOutputs {
        TickOutputs::of(TickOutput::Telemetry(TelemetryKind::Light, env.light_level))
    }
}

/// Smoke/CO alarm (NEST Protect).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FireAlarm {
    /// Whether the alarm is currently sounding.
    pub alarming: bool,
}

impl FireAlarm {
    /// Sounding exactly when there is smoke to sound about.
    pub(crate) fn steady(&self, env: &Environment) -> bool {
        self.alarming == (env.smoke_density >= thresholds::SMOKE_ALARM)
    }

    pub(crate) fn tick(&mut self, env: &mut Environment) -> TickOutputs {
        let mut out = TickOutputs::new();
        let smoke = env.smoke_density >= thresholds::SMOKE_ALARM;
        if smoke && !self.alarming {
            self.alarming = true;
            out.push(TickOutput::Event(EventKind::SmokeAlarm));
        } else if !smoke && self.alarming {
            self.alarming = false;
            out.push(TickOutput::Event(EventKind::SmokeClear));
        }
        out.push(TickOutput::Telemetry(TelemetryKind::Smoke, env.smoke_density));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn camera_tracks_occupancy_edges() {
        let mut cam = Camera::default();
        let mut env = Environment::new();
        env.occupied = false;
        cam.tick(&mut env); // settle
        env.occupied = true;
        let out = cam.tick(&mut env);
        assert!(out.contains(&TickOutput::Event(EventKind::MotionStart)));
        // No duplicate event while state is unchanged.
        let out = cam.tick(&mut env);
        assert!(!out.iter().any(|o| matches!(o, TickOutput::Event(_))));
        env.occupied = false;
        let out = cam.tick(&mut env);
        assert!(out.contains(&TickOutput::Event(EventKind::MotionStop)));
    }

    #[test]
    fn camera_off_is_blind() {
        let mut cam = Camera::default();
        cam.apply(ControlAction::TurnOff);
        let mut env = Environment::new();
        env.occupied = true;
        assert!(cam.tick(&mut env).is_empty());
    }

    #[test]
    fn camera_images_are_distinct_frames() {
        let mut cam = Camera::default();
        let mut env = Environment::new();
        cam.tick(&mut env);
        let a = cam.image();
        cam.tick(&mut env);
        let b = cam.image();
        assert_ne!(a, b);
    }

    #[test]
    fn fire_alarm_edges() {
        let mut alarm = FireAlarm::default();
        let mut env = Environment::new();
        env.smoke_density = 1.0;
        let out = alarm.tick(&mut env);
        assert!(out.contains(&TickOutput::Event(EventKind::SmokeAlarm)));
        assert!(alarm.alarming);
        // Still smoking: no repeat event.
        let out = alarm.tick(&mut env);
        assert!(!out.iter().any(|o| matches!(o, TickOutput::Event(_))));
        env.smoke_density = 0.0;
        let out = alarm.tick(&mut env);
        assert!(out.contains(&TickOutput::Event(EventKind::SmokeClear)));
    }

    #[test]
    fn light_sensor_reports_level() {
        let mut s = LightSensor;
        let mut env = Environment::new();
        env.light_level = 77.0;
        match s.tick(&mut env)[0] {
            TickOutput::Telemetry(TelemetryKind::Light, v) => assert_eq!(v, 77.0),
            ref other => panic!("{other:?}"),
        }
    }

    #[test]
    fn motion_sensor_edges() {
        let mut s = MotionSensor::default();
        let mut env = Environment::new();
        env.occupied = true;
        assert!(s.tick(&mut env).contains(&TickOutput::Event(EventKind::MotionStart)));
        env.occupied = false;
        assert!(s.tick(&mut env).contains(&TickOutput::Event(EventKind::MotionStop)));
    }
}
