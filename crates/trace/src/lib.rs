//! `trace` — deterministic structured tracing.
//!
//! The paper's control loop (Fig. 2) only works because the controller
//! can *observe* the enforcement path; this crate is the reproduction's
//! version of that observability, built as correctness tooling: every
//! event is keyed by **sim-time** (never wall-clock), serialized
//! canonically, and therefore byte-diffable between runs. The golden
//! trace and differential test harnesses (`tests/golden_trace.rs`,
//! `tests/trace_diff_props.rs`) rest on three disciplines:
//!
//! 1. **Sim-time keys.** An event's timestamp is the simulated instant
//!    it describes — identical seeds give identical timestamps on any
//!    host, thread count, or queue backend.
//! 2. **Deterministic emission order.** Events at equal timestamps are
//!    recorded in emission order, and emitters never emit while
//!    iterating a `HashMap` (see DESIGN.md §7).
//! 3. **Canonical serialization.** [`event::TraceEvent`] renders to one
//!    JSON line with a fixed key order and integer-only values, so a
//!    byte compare *is* a semantic compare.
//!
//! The crate sits at the bottom of the workspace graph (no dependencies,
//! primitive event fields only) so `iotnet`, `umbox`, `iotctl`, `core`
//! and `bench` can all emit into one [`tracer::Tracer`].
//!
//! Modules:
//!
//! * [`event`] — the closed event vocabulary and its canonical JSONL
//!   rendering.
//! * [`tracer`] — the zero-cost-when-disabled emission handle and the
//!   class-masked buffer behind it.
//! * [`aggregate`] — in-process trace aggregation (per-component event
//!   histograms, top-K hot switches/µmboxes) for `experiments --trace`.
//! * [`diff`] — first-divergence reporting for golden-trace tests.
//! * [`digest`] — streaming FNV-1a digests for fleet-scale (E20)
//!   serial≡parallel comparisons without retaining per-home output.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregate;
pub mod diff;
pub mod digest;
pub mod event;
pub mod tracer;

pub use aggregate::TraceAggregator;
pub use diff::{first_divergence, render_divergence, Divergence};
pub use digest::Fnv64;
pub use event::{EventClass, TraceEvent};
pub use tracer::{TraceConfig, Tracer};
