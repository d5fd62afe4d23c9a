//! `iotctl` — the IoTSec control plane (paper §5.1).
//!
//! "A logically centralized IoTSec controller monitors the contexts of
//! different devices and the operating environment and generates a
//! global view for cross-device policy enforcement. Based on this view,
//! it instantiates and configures individual µmboxes and the necessary
//! forwarding mechanisms."
//!
//! The paper's two control-plane challenges are both modelled:
//!
//! * **Scale and responsiveness.** Controllers have an explicit
//!   per-event service time that grows with the policy scope they
//!   manage, and an event queue — so the flat controller saturates as
//!   deployments grow (experiment E7), while the
//!   [`hier::HierarchicalController`] partitions devices by interaction
//!   frequency (the paper's own suggestion) and keeps local decisions
//!   local.
//! * **Consistency.** The controller's environment view propagates to
//!   data-plane gates with a configurable delay; strong consistency is
//!   the zero-delay limit. Experiment E8 measures the stale-enforcement
//!   window and the wrong-gate decisions it causes.
//!
//! The chaos layer hardens the enforcement path against control-plane
//! failure: [`failover`] pairs the flat controller with a warm standby
//! (view checkpointing, failure detection, promotion with re-sync), and
//! [`delivery`] carries directives over a channel with idempotent IDs,
//! a bounded queue that sheds to the last-known-safe posture, and retry
//! with exponential backoff while the controller is unreachable.
//! [`safety`] closes the loop: a runtime monitor subscribed to the
//! deterministic trace stream checks fail-closed coverage, posture
//! monotonicity, bounded staleness and FSM continuity every tick, and
//! escalates repeat offenders into a per-class quarantine posture.
//! [`aggregate`] stacks one more tier on top for the E20 fleet: home →
//! neighborhood aggregator → region, with batched directive installs
//! and an epoch-versioned canonical intel union, all deterministic in
//! home/neighborhood order.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregate;
pub mod controller;
pub mod delivery;
pub mod directive;
pub mod failover;
pub mod hier;
pub mod safety;
pub mod view;
