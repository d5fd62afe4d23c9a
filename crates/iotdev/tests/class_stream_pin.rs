//! Pins what every device class emits, tick by tick.
//!
//! Each of the 13 [`DeviceClass`] FSMs is driven through the same kind of
//! seeded 512-tick script — occupancy, smoke, door-lock and temperature
//! edges plus a sprinkle of actuation verbs — and everything
//! [`IoTDevice::tick`] returns (messages and security events, in order) is
//! folded, with the tick number, into one FNV-1a digest per class. The
//! final environment is folded in too, since actuator ticks write it.
//!
//! The table below was recorded before the class FSMs stopped returning a
//! heap `Vec<TickOutput>`; a representation change of the tick output must
//! leave every row as it is.

use iotdev::device::{DeviceClass, DeviceId, IoTDevice};
use iotdev::env::Environment;
use iotdev::proto::ControlAction;
use iotdev::registry::Sku;
use iotnet::addr::Ipv4Addr;
use iotnet::time::SimTime;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const TICKS: u64 = 512;
const TICK_MS: u64 = 100;

fn fold(digest: &mut u64, text: &str) {
    for b in text.bytes() {
        *digest ^= u64::from(b);
        *digest = digest.wrapping_mul(0x100_0000_01b3);
    }
}

const VERBS: [ControlAction; 9] = [
    ControlAction::TurnOn,
    ControlAction::TurnOff,
    ControlAction::Open,
    ControlAction::Close,
    ControlAction::Lock,
    ControlAction::Unlock,
    ControlAction::SetTarget(180),
    ControlAction::SetColor(1),
    ControlAction::SetPhase(2),
];

/// `(digest, messages, events)` of one class over the seeded script.
fn class_stream(index: usize, class: DeviceClass) -> (u64, usize, usize) {
    let mut rng = StdRng::seed_from_u64(0xC1A5_5000 + index as u64);
    let mut dev = IoTDevice::new(
        DeviceId(index as u32),
        Sku::new("acme", "widget", "1.0"),
        class,
        Ipv4Addr::new(10, 0, 0, 10 + index as u8),
        Vec::new(),
    );
    dev.hub = Some(Ipv4Addr::new(10, 0, 0, 2));
    let mut env = Environment::new();
    let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
    let (mut messages, mut events) = (0, 0);
    for tick in 1..=TICKS {
        if rng.gen_range(0..16u32) == 0 {
            env.occupied = !env.occupied;
        }
        if rng.gen_range(0..16u32) == 0 {
            env.smoke_density = if env.smoke_density > 0.0 { 0.0 } else { 1.0 };
        }
        if rng.gen_range(0..8u32) == 0 {
            env.temperature_c = rng.gen_range(10.0..35.0);
        }
        if rng.gen_range(0..8u32) == 0 {
            // Invalid verbs for the class are rejected, exactly as on the wire.
            let verb = VERBS[rng.gen_range(0..VERBS.len())];
            dev.logic.apply_action(verb, &mut env);
        }
        env.begin_tick();
        let out = dev.tick(SimTime::from_millis(tick * TICK_MS), &mut env);
        env.step(TICK_MS as f64 / 1000.0);
        messages += out.messages.len();
        events += out.events.len();
        fold(&mut digest, &format!("{tick}|{:?}|{:?};", out.messages, out.events));
    }
    fold(&mut digest, &format!("{env:?}"));
    (digest, messages, events)
}

/// Recorded at the parent commit (heap-`Vec` class ticks).
const PINNED: [(DeviceClass, u64, usize, usize); 13] = [
    (DeviceClass::Camera, 0xcd868639e6c352da, 24, 18),
    (DeviceClass::SmartPlug, 0x5a5694eb48bc1f48, 10, 0),
    (DeviceClass::Thermostat, 0x37402ce5ea5b4713, 10, 0),
    (DeviceClass::FireAlarm, 0x9101c9afc28b46a0, 52, 42),
    (DeviceClass::WindowActuator, 0xd9161111d3e9ae0d, 10, 0),
    (DeviceClass::LightBulb, 0x694a824c81df81cb, 10, 0),
    (DeviceClass::LightSensor, 0xaacaefbb4df986fd, 10, 0),
    (DeviceClass::SmartLock, 0x996859109720a976, 389, 0),
    (DeviceClass::Oven, 0xde263d74e6a5e08d, 10, 0),
    (DeviceClass::MotionSensor, 0xfc9db97cbf41e12d, 45, 35),
    (DeviceClass::SetTopBox, 0x8bbdac7fdd289cfe, 10, 0),
    (DeviceClass::Refrigerator, 0x53ffd9cf7e8d2b65, 10, 0),
    (DeviceClass::TrafficLight, 0xd3eb6609eb3dfd02, 10, 0),
];

#[test]
fn every_class_emits_its_pinned_stream() {
    let got: Vec<(DeviceClass, u64, usize, usize)> = DeviceClass::ALL
        .iter()
        .enumerate()
        .map(|(i, &class)| {
            let (digest, messages, events) = class_stream(i, class);
            (class, digest, messages, events)
        })
        .collect();
    assert_eq!(got, PINNED, "a class FSM's tick stream changed");
}
