//! Adversarial scenario vetting for the IoTSec defense (E23).
//!
//! The paper's claim — network-level defenses absorb unfixable
//! device flaws — is only as strong as the workloads it survives.
//! VetIoT-style, this crate turns the repo's three hand-written homes
//! into an unbounded, *seeded* scenario family and hammers the chaos
//! (E15) + safety (E18) layers with it:
//!
//! * [`gen`] — deterministic generator: device mixes over the Table 1
//!   vulnerability families, topology shapes, recipe corpora, chaos
//!   schedules and scripted attack sequences, all from one `u64` seed;
//! * [`spec`] — the scenario grammar and its lowering to a
//!   [`iotsec::deployment::Deployment`] for either oracle arm;
//! * [`oracle`] — the differential oracle: defense-on must hold every
//!   E18 + vet invariant, defense-off must prove the scenario is not
//!   vacuous;
//! * [`shrink`](mod@shrink) — ddmin minimization of any violation to a 1-minimal
//!   scenario along the device / recipe / fault / attack / horizon
//!   axes;
//! * [`artifact`] — replayable minimal-repro files (`tests/repros/`).
//!
//! The E23 campaign in `iotsec-bench` fans hundreds of these scenarios
//! across the sweep engine and gates CI on zero violations and zero
//! vacuous passes.
//!
//! E25 extends the pipeline from one home to the fleet: [`fleet`]
//! generates seeded [`iotsec_fleet::FleetChaos`] schedules, judges them
//! with the `check_fleet_trace` oracle, and ddmin-shrinks weakened-arm
//! violations into the `tests/repros/fleet/` corpus.

pub mod artifact;
pub mod fleet;
pub mod gen;
pub mod oracle;
pub mod shrink;
pub mod spec;

pub use fleet::{
    fleet_violations, generate_fleet, parse_fleet, render_fleet, shrink_fleet, FleetRepro,
    FleetSpec, FleetWeakness,
};
pub use gen::{generate, GenConfig};
pub use oracle::{run as run_oracle, OracleReport, Verdict};
pub use shrink::{shrink, MinimalRepro};
pub use spec::{Arm, AttackStep, DeviceSpec, FaultSpec, RecipeSpec, ScenarioSpec, Weakness};
