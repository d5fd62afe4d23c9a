//! `iotsec-fleet` — the metro/ISP-scale fleet tier (E20, paper §5.1).
//!
//! "A logically centralized IoTSec controller" only earns the paper's
//! billion-device framing if one controller architecture serves a
//! *population* of homes. This crate runs 10⁴–10⁶ independent home
//! worlds as one fleet:
//!
//! * [`fleet`] — the [`fleet::Fleet`] engine: homes cut into fixed
//!   chunks dealt to worker threads (chunk `c` on worker `c % threads`;
//!   homes share nothing inside a round, so there is no scheduler), a
//!   per-home slot that doubles as the `(intel epoch → outcome)` memo so
//!   quiesced rounds re-serve outcomes without rebuilding worlds, a
//!   hierarchical home → neighborhood → region intel path with batched
//!   directive installs, and a chained FNV digest merged in home order
//!   so `--threads N` is byte-identical to serial. A fleet runs
//!   resident (E26): one persistent world per worker, rebound to each
//!   home, intel epochs delta-installed instead of rebuilt from
//!   scratch. [`fleet::Fleet::set_resident`]`(false)` is the
//!   rebuild-per-home reference the equivalence oracles compare with.
//! * [`scenario`] — the canonical E20 home template: a zero-day camera
//!   only crowdsourced signatures can defend, so one sentinel home's
//!   discovery flips the whole fleet from breached to protected.
//! * [`chaos`] — the E25 fault-tolerance layer: a seeded
//!   [`chaos::FleetChaos`] schedule that drops/duplicates/reorders
//!   flushes, crashes aggregators, partitions neighborhoods and delays
//!   install waves, paired with a [`chaos::RecoveryPolicy`]
//!   (bounded-backoff retries, rejoin reconciliation, degraded-mode
//!   declaration). Absent, the one barrier runs under the schedule on
//!   which nothing fires; present, every roll is deterministic.
//! * [`safety`] — [`safety::check_fleet_trace`]: the pure fleet-scale
//!   trace checker (the E23 `check_trace` pattern) verifying epoch
//!   monotonicity, no lost discoveries, bounded install staleness and
//!   post-fault convergence from the trace stream alone.
//!
//! `World` is deliberately single-threaded, so the unit of parallelism
//! is one whole home world, built and run inside the worker its chunk
//! is dealt to; workers share only read-only state (the scenario, the
//! ledger, `Arc<[AttackSignature]>` intel) and each writes `Copy`
//! outcomes through its own disjoint `&mut` slice of the slots.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod fleet;
pub mod safety;
pub mod scenario;

pub use chaos::{FleetChaos, RecoveryPolicy};
pub use fleet::{
    home_seed, Fleet, FleetConfig, FleetReport, HomeOutcome, HomeWorld, ResidentStats, RoundSummary,
};
pub use safety::{check_fleet_trace, FleetTraceSpec, FleetViolation};
pub use scenario::FleetScenario;
