//! `iotpolicy` — the policy abstraction of IoTSec (paper §3).
//!
//! The paper rejects two strawmen — stateless `Match → Action` firewall
//! rules (no environmental or cross-device context) and independent IFTTT
//! recipes (no security context, conflict-prone) — and proposes an
//! expressive-but-brute-force abstraction instead:
//!
//! > For each state `Sₖ ∈ S`, define the security posture of each device
//! > `Posture(Sₖ, Dᵢ)`, where `S` is the product of every device's
//! > security context `Cᵢ` and every environment variable `Eⱼ`.
//!
//! This crate implements that abstraction end to end:
//!
//! * [`context`] — security-context values (`normal`, `suspicious`, ...).
//! * [`state_space`] — the schema `S = Π|Cᵢ| × Π|Eⱼ|`, with exact
//!   counting and iteration (the state-explosion experiment E1).
//! * [`posture`] — security modules and per-device postures.
//! * [`policy`] — pattern-based `state → posture` rules ([`policy::FsmPolicy`]),
//!   the Figure 3 example expressed directly.
//! * [`recipe`] — the IFTTT strawman: a recipe language, parser and the
//!   Table 2 corpus generator.
//! * [`compile`] — compiling vulnerability knowledge + recipes into an
//!   [`policy::FsmPolicy`] (vuln mitigations, context escalation, actuation
//!   gating).
//! * [`conflict`] — recipe/rule conflict and ambiguity detection (the
//!   smoke-alarm vs Sighthound example).
//! * [`prune`] — taming state explosion: independence factoring and
//!   posture-equivalence collapsing, with soundness guarantees.
//! * [`packed`] — the state space packed into `u128` words: per-slot
//!   bitfields, compiled rule masks and memoized policy evaluation
//!   (the E19 engine).
//! * [`explore`] — exhaustive sweeps and frontier BFS over the packed
//!   space, serial and chunk-parallel, differentially equal to
//!   the naive engines.
//! * [`intern`] — region-level value-keyed interning of shared rulesets
//!   and vuln intel for the E20 fleet tier.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compile;
pub mod conflict;
pub mod context;
pub mod explore;
pub mod intern;
pub mod packed;
pub mod policy;
pub mod posture;
pub mod prune;
pub mod recipe;
pub mod state_space;
