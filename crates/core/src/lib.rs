//! `iotsec` — the integrated IoTSec platform (Figure 2 of the paper).
//!
//! This crate assembles the substrates into the system the paper
//! sketches: IoT devices on a programmable home/enterprise network, a
//! logically centralized controller building a global view from device
//! and µmbox events, per-device µmbox chains steered in by flow rules,
//! and an attacker probing it all.
//!
//! * [`deployment`] — describe a deployment (devices + flaws + recipes +
//!   attacker campaign + defense) declaratively.
//! * [`hub`] — the IFTTT-style automation hub: executes recipes, reports
//!   environment snapshots to the controller.
//! * [`world`] — the simulation loop tying `iotnet`, `iotdev`,
//!   `iotpolicy`, `umbox` and `iotctl` together.
//! * [`defense`] — the defense configurations compared throughout the
//!   evaluation: no defense, a stateful perimeter firewall with UPnP
//!   pinholes (the traditional-IT baseline the paper argues is broken),
//!   and IoTSec itself (flat or hierarchical control plane).
//! * [`metrics`] — ground-truth outcome accounting (compromises, privacy
//!   leaks, physical breaches, DDoS bytes, blocked attacks).
//! * [`chaos`] — deterministic fault schedules: link flaps, loss bursts,
//!   µmbox crashes with watchdog respawn, controller outages/failover,
//!   and the fail-open/fail-closed degradation semantics (E15).
//! * [`scenario`] — canned scenarios reproducing the paper's Figures 3–5
//!   and Table 1, used by the examples, the integration tests and the
//!   benchmark harness.
//!
//! # Quickstart
//!
//! Attack an `admin`/`admin` camera, then patch it in the network:
//!
//! ```
//! use iotnet::time::SimDuration;
//! use iotsec::defense::Defense;
//! use iotsec::deployment::{Deployment, DeviceSetup, StepSpec};
//! use iotsec::world::World;
//!
//! let mut run = |defense: Defense| {
//!     let mut d = Deployment::new();
//!     let cam = d.device(DeviceSetup::table1_row(1)); // Table 1 row 1
//!     d.campaign(vec![
//!         StepSpec::DictionaryLogin(cam),
//!         StepSpec::Mgmt(cam, iotdev::proto::MgmtCommand::GetImage),
//!     ]);
//!     d.defend_with(defense);
//!     let mut world = World::new(&d);
//!     world.run_until_attack_done(SimDuration::from_secs(120));
//!     world.report()
//! };
//!
//! assert!(run(Defense::None).campaign_succeeded());
//! assert!(!run(Defense::iotsec()).campaign_succeeded());
//! ```

// Deny rather than forbid: the single exemption is the documented
// `unsafe impl Send for ResidentWorld` in `world` (E26), which asserts
// the fleet's serial cross-round hand-off invariant. No other unsafe
// code is permitted.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod defense;
pub mod deployment;
pub mod hub;
pub mod metrics;
pub mod scenario;
mod trajectory;
pub mod world;

pub use chaos::ChaosConfig;
pub use defense::{Defense, IoTSecConfig};
pub use deployment::{AttackerLocation, Deployment, DeviceSetup, StepSpec};
pub use metrics::Metrics;
pub use world::{HomeOverrides, World};
