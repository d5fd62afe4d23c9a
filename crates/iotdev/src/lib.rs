//! `iotdev` — the IoT device substrate of the IoTSec reproduction.
//!
//! The paper's threat model rests on three properties of real IoT
//! deployments, and this crate models all three:
//!
//! 1. **Devices are cyber-physical.** Devices sense and actuate a shared
//!    physical [`env::Environment`] (temperature, smoke, light, occupancy,
//!    window/door state). Implicit cross-device coupling — the oven heats
//!    the room that the thermostat senses — is exactly what the paper's
//!    policy and learning layers must reason about.
//! 2. **Devices ship with unfixable flaws.** Every row of the paper's
//!    Table 1 becomes an executable [`vuln::Vulnerability`] class attached
//!    to device instances: hardcoded default credentials, wide-open
//!    management interfaces, leaked firmware key pairs, no-auth control
//!    channels, open DNS resolvers, and cloud backdoors that bypass the
//!    vendor app.
//! 3. **Attackers live on the network.** The [`attacker::Attacker`] is an
//!    ordinary network endpoint that probes, brute-forces, replays leaked
//!    keys, reflects DNS, and chains multi-stage campaigns through the
//!    physical environment.
//!
//! Device behaviour is an explicit finite state machine per class
//! ([`classes`]), with a machine-readable abstract model
//! ([`model::AbstractModel`]) mirroring §4.2's proposal that per-class
//! FSM models — not per-SKU honeypots — are the scalable unit of
//! reasoning.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attacker;
pub mod classes;
pub mod device;
pub mod env;
pub mod events;
pub mod model;
pub mod proto;
pub mod registry;
pub mod vuln;

pub use attacker::{AttackOutcome, AttackPlan, AttackStep, Attacker};
pub use device::{AdminCreds, DeviceClass, DeviceId, DeviceOutput, IoTDevice, OutMessage};
pub use env::{DiscreteEnv, EnvSnapshot, EnvValues, EnvVar, Environment};
pub use events::{SecurityEvent, SecurityEventKind};
pub use model::AbstractModel;
pub use proto::{AppMessage, ControlAction, MgmtCommand};
pub use registry::{Sku, SkuRegistry};
pub use vuln::Vulnerability;
