//! Experiment harness for the IoTSec reproduction.
//!
//! Every table and figure of the paper — plus the quantitative
//! experiments (E1–E12) its prose demands and the ablations (A1–A3) —
//! has a function here that regenerates it. The `experiments` binary
//! dispatches on experiment id and prints markdown tables;
//! EXPERIMENTS.md records the outputs against the paper's claims.
//!
//! Experiment ↔ module map (see DESIGN.md §3 for the full index):
//!
//! | ids | module |
//! |---|---|
//! | T1, F3, F4, F5, E11 | [`exp_world`] |
//! | T2, E1, E2, A1 | [`exp_policy`] |
//! | E3, E4, A3 | [`exp_crowd`] |
//! | E5, E6 | [`exp_models`] |
//! | E7, E8, A2 | [`exp_ctl`] |
//! | E9, E10 | [`exp_umbox`] |
//! | E12 | [`exp_anomaly`] |
//! | E13, E14 | [`exp_pipeline`] |
//! | E15 | [`exp_chaos`] |
//! | E16 | [`exp_perf`] (on the [`sweep`] engine) |
//! | E17 | [`exp_trace`] (the golden-trace differential harness) |
//! | E18 | [`exp_safety`] (the runtime safety sweep and CI gate) |
//! | E19 | [`exp_space`] (the packed-state state-space engine) |
//! | E20 | [`exp_fleet`] (the fleet-scale sharded controller) |
//! | E21 | [`exp_engine`] (the event engine + packed packet path) |
//! | E23 | [`exp_vet`] (the adversarial vet campaign and CI gate) |
//! | E25 | [`exp_fleet_chaos`] (fleet fault tolerance and recovery) |
//! | E26 | [`exp_resident`] (resident worlds and delta intel installs) |
//!
//! [`report`] is the scaffold the gated experiments share — the
//! [`report::Report`] a finished experiment hands the runner, the
//! `BENCH_E*.json` writer, the timed determinism legs and the one
//! [`SEED`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exp_anomaly;
pub mod exp_chaos;
pub mod exp_crowd;
pub mod exp_ctl;
pub mod exp_engine;
pub mod exp_fleet;
pub mod exp_fleet_chaos;
pub mod exp_models;
pub mod exp_perf;
pub mod exp_pipeline;
pub mod exp_policy;
pub mod exp_resident;
pub mod exp_safety;
pub mod exp_space;
pub mod exp_trace;
pub mod exp_umbox;
pub mod exp_vet;
pub mod exp_world;
pub mod report;
pub mod sweep;
pub mod table;

pub use report::SEED;
pub use table::Table;
