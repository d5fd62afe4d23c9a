//! `iotlearn` — the learning layer of IoTSec (paper §4).
//!
//! The paper's diagnosis: per-SKU honeypots cannot cover the IoT
//! long tail, and plain anomaly detection drowns in the diversity of
//! "normal". Its two proposals, both implemented here:
//!
//! * **Crowdsourced signatures (§4.1).** Deployments that observe an
//!   attack against a SKU publish a signature; others subscribed to the
//!   same SKU receive it. [`repo`] implements the anonymous
//!   publish–subscribe repository with the three defenses the paper
//!   sketches: contributor-priority notifications (incentives),
//!   reporter anonymization (privacy), and reputation + voting
//!   (data quality / poisoning resistance). [`signature`] defines the
//!   "common format" signatures are exchanged in, and the matchers the
//!   IDS µmbox executes.
//! * **Model-based interaction discovery (§4.2).** [`fuzz`] drives the
//!   abstract per-class device models from `iotdev::model` against a
//!   symbolic environment to discover cross-device interaction edges
//!   (random vs coverage-guided, experiment E5); [`attack_graph`] then
//!   searches those models plus vulnerability knowledge for multi-stage
//!   attacks — including the paper's smart-plug → AC-off → heat →
//!   window-open break-in chain (experiment E6).
//!
//! [`anomaly`] adds the behavioural baseline detector (per-device
//! profiles, optionally conditioned on environmental context) used by
//! experiment E12. Two future-work directions the paper gestures at are
//! also built: [`mine`] turns captured attack traffic into publishable
//! signatures (the privacy-preserving alternative to sharing raw
//! traces), and [`fingerprint`] identifies a device's SKU from passive
//! observation — the lookup key the whole repository is organized by.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod anomaly;
pub mod attack_graph;
pub mod fingerprint;
pub mod fuzz;
pub mod mine;
pub mod repo;
pub mod signature;

pub use signature::{AttackSignature, Matcher};
