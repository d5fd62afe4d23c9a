//! `umbox` — the IoTSec data plane (paper §5.2).
//!
//! "Unlike traditional IT deployments with a single firewall/IDS for the
//! enterprise, we envision many micro-middleboxes (µmboxes), each
//! customized for a specific device type, rapidly instantiated and
//! frequently reconfigured."
//!
//! * [`element`] — the Click-inspired processing model: small
//!   [`element::Element`]s composed into per-device chains, each with an
//!   explicit per-packet cost so the data-plane overhead experiment
//!   (E10) measures the modelled system.
//! * [`proxy`], [`ids`], [`filters`], [`gate`] — the µmbox library: the
//!   Figure 4 password proxy, the signature IDS fed by the crowdsourced
//!   repository, rate limiters / protocol whitelists / block filters,
//!   and the Figure 5 context gate.
//! * [`chain`] — posture → chain compilation and the
//!   [`iotnet::net::InlineProcessor`] adapter that attaches a chain to a
//!   switch steer point.
//! * [`breaker`] — per-µmbox circuit breakers (closed → open →
//!   half-open, deterministic sim-time cooldowns) that route a
//!   crash-looping chain to its failure-mode fallback instead of
//!   hammering the watchdog respawn loop.
//! * [`lifecycle`] — the micro-VM lifecycle (pooled unikernels vs cold
//!   boots vs monolithic appliances) with boot/reconfigure latency
//!   models calibrated to the ClickOS/Jitsu numbers the paper cites
//!   (experiment E9).
//! * [`resource`] — the on-premise cluster / upgraded IoT router
//!   resource model (placement and capacity).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod breaker;
pub mod chain;
pub mod element;
pub mod filters;
pub mod gate;
pub mod ids;
pub mod lifecycle;
pub mod proxy;
pub mod resource;
