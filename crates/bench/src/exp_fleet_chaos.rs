//! E25 — fault-tolerant fleet propagation, measured.
//!
//! The question E20 left open: how fast does the hierarchy *recover*?
//! This experiment sweeps one fault axis at a time — flush **loss**,
//! flush **duplication**, neighborhood **partition** — across four
//! per-mille intensities, each under a horizon-bounded schedule
//! ([`HORIZON`] rounds of weather, then calm) with the full
//! [`iotsec_fleet::RecoveryPolicy::standard`] stack. Each cell runs
//! [`REPS`] replicate fleets of the real
//! [`iotsec_fleet::FleetScenario`] (distinct chaos seeds, same fleet)
//! round-by-round until [`iotsec_fleet::Fleet::converged`] (every
//! discovery absorbed, every retry drained, every home at the region
//! epoch) and records every replicate's convergence round — the
//! headline numbers: intensity in, rounds to fleet-wide protection
//! out. Replicates matter because the loss and dup axes roll on
//! *non-empty flushes*, of which a single-discovery fleet has exactly
//! one per schedule — one seed is a coin flip, [`REPS`] seeds are a
//! measurement.
//!
//! Three gates make this a test, not just a chart:
//!
//! * **recovered** — every cell must converge within [`MAX_ROUNDS`];
//!   an unrecovered cell fails the run (non-zero exit).
//! * **checked** — every cell's trace must pass
//!   [`iotsec_fleet::check_fleet_trace`] with zero violations.
//! * **deterministic** — every cell is run twice; the rerun must
//!   reproduce the convergence round, digest and fault/recovery
//!   counters exactly.
//!
//! Convergence rounds, digests and counters are byte-stable in
//! `BENCH_E25.json`, and the CI `fleet-chaos-gate` job byte-compares the
//! file. How fast a chaotic fleet runs is the `benchmark/` harness's
//! `fleet_chaos` workload.

use crate::report::{list, quoted, Doc, Obj, Report, SEED};
use crate::Table;
use iotsec_fleet::{
    check_fleet_trace, Fleet, FleetChaos, FleetConfig, FleetScenario, FleetTraceSpec,
};
use trace::{TraceConfig, Tracer};

/// Homes in the fleet (20 neighborhoods of 20).
pub const HOMES: u32 = 400;
/// Homes per neighborhood aggregator.
pub const NEIGHBORHOOD: u32 = 20;
/// Homes per fleet chunk.
pub const CHUNK: u32 = 64;
/// Fault-injection window: weather rages in rounds `0..HORIZON`, then
/// the schedule goes calm and recovery must finish the job.
pub const HORIZON: u32 = 6;
/// Convergence deadline per replicate; a replicate still unconverged
/// here has failed to recover and fails the experiment.
pub const MAX_ROUNDS: u32 = 40;
/// Replicate fleets per cell (distinct chaos seeds over one fleet).
pub const REPS: u64 = 6;
/// Per-mille intensities swept on every axis (0 = the clean baseline).
pub const INTENSITIES: &[u32] = &[0, 250, 500, 750];
/// Checker settling grace (mirrors the fleet test suite).
pub const GRACE: u32 = 2;

/// The swept fault axes: label plus a schedule constructor.
const AXES: &[&str] = &["loss", "dup", "partition"];

/// One measured cell: a fault axis at an intensity, over [`REPS`]
/// replicate chaos seeds.
#[derive(Default)]
pub struct ChaosCell {
    /// Axis label (`loss`, `dup`, `partition`).
    pub axis: &'static str,
    /// Per-mille intensity.
    pub pm: u32,
    /// Per-replicate convergence rounds (`MAX_ROUNDS` + 1 = never).
    pub rounds: Vec<u32>,
    /// Worst replicate's convergence round.
    pub worst_rounds: u32,
    /// Every replicate converged within the deadline.
    pub recovered: bool,
    /// Fnv64 fold of the replicates' chained fleet digests.
    pub digest: u64,
    /// Faults injected across replicates.
    pub faults: u64,
    /// Recoveries completed across replicates.
    pub recoveries: u64,
    /// Rounds spent in declared degraded mode across replicates.
    pub degraded_rounds: u64,
    /// `check_fleet_trace` violation count across replicates (must be 0).
    pub violations: usize,
    /// The rerun reproduced every replicate's rounds, trace and report.
    pub identical: bool,
}

/// Everything E25 measures.
pub struct FleetChaosReport {
    /// Homes per replicate fleet.
    pub homes: u32,
    /// Convergence deadline.
    pub max_rounds: u32,
    /// Every cell, axis-major, intensity ascending.
    pub cells: Vec<ChaosCell>,
}

impl FleetChaosReport {
    /// Every cell converged within the deadline.
    pub fn recovered(&self) -> bool {
        self.cells.iter().all(|c| c.recovered)
    }

    /// Every cell deterministic, recovered, and checker-clean.
    pub fn deterministic(&self) -> bool {
        self.recovered() && self.cells.iter().all(|c| c.identical && c.violations == 0)
    }

    fn faults(&self) -> u64 {
        self.cells.iter().map(|c| c.faults).sum()
    }
}

/// The schedule for `axis` at `pm` under replicate seed `rep` — exactly
/// one fault dial turned, the rest calm, weather confined to
/// `0..HORIZON`.
fn schedule(axis: &str, pm: u32, rep: u64) -> FleetChaos {
    let calm = FleetChaos {
        drop_pm: 0,
        dup_pm: 0,
        reorder_pm: 0,
        crash_pm: 0,
        partition_pm: 0,
        partition_rounds: 2,
        delay_pm: 0,
        ..FleetChaos::new(SEED ^ 0xE25 ^ rep.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }
    .with_horizon(HORIZON);
    match axis {
        "loss" => FleetChaos { drop_pm: pm, ..calm },
        "dup" => FleetChaos { dup_pm: pm, ..calm },
        "partition" => FleetChaos { partition_pm: pm, ..calm },
        _ => unreachable!("unknown axis {axis}"),
    }
}

/// Run one replicate to convergence (or the deadline).
fn run_rep(
    axis: &str,
    pm: u32,
    rep: u64,
    homes: u32,
    max_rounds: u32,
) -> (iotsec_fleet::FleetReport, Vec<(u64, trace::event::TraceEvent)>, u32) {
    let cfg =
        FleetConfig { homes, neighborhood: NEIGHBORHOOD, chunk: CHUNK, threads: 1, seed: SEED };
    let tracer = Tracer::new(TraceConfig::control_only());
    let mut fleet =
        Fleet::with_chaos(FleetScenario::new(homes), cfg, schedule(axis, pm, rep), tracer.clone());
    let mut rounds = max_rounds + 1;
    for r in 1..=max_rounds {
        fleet.run(1);
        if fleet.converged() {
            rounds = r;
            break;
        }
    }
    (fleet.report(), tracer.events(), rounds)
}

/// Run one cell's replicates, judge every trace, and rerun the whole
/// cell to pin determinism.
fn run_cell(axis: &'static str, pm: u32, homes: u32, max_rounds: u32) -> ChaosCell {
    let mut cell = ChaosCell { axis, pm, recovered: true, identical: true, ..Default::default() };
    let mut digest = trace::digest::Fnv64::new();
    for rep in 0..REPS {
        let (report, events, rounds) = run_rep(axis, pm, rep, homes, max_rounds);
        let spec = FleetTraceSpec {
            homes,
            rounds: rounds.min(max_rounds),
            staleness_budget: schedule(axis, pm, rep).policy.staleness_budget,
            grace: GRACE,
        };
        cell.violations += check_fleet_trace(&events, &spec).len();
        cell.recovered &= rounds <= max_rounds;
        cell.rounds.push(rounds);
        cell.worst_rounds = cell.worst_rounds.max(rounds);
        cell.faults += report.faults;
        cell.recoveries += report.recoveries;
        cell.degraded_rounds += report.degraded_rounds;
        digest.write_u64(report.digest);

        let (rerun, rerun_events, rerun_rounds) = run_rep(axis, pm, rep, homes, max_rounds);
        cell.identical &= rerun == report && rerun_events == events && rerun_rounds == rounds;
    }
    cell.digest = digest.finish();
    cell
}

impl Report for FleetChaosReport {
    fn table(&self) -> Table {
        let mut table = Table::new(
            "E25: fault-tolerant fleet propagation — convergence rounds vs fault intensity",
            &[
                "axis",
                "pm",
                "rounds",
                "recovered",
                "faults",
                "recoveries",
                "degraded",
                "violations",
                "identical",
            ],
        );
        for c in &self.cells {
            table.rowd(&[
                c.axis.to_string(),
                c.pm.to_string(),
                format!("{:?}", c.rounds),
                c.recovered.to_string(),
                c.faults.to_string(),
                c.recoveries.to_string(),
                c.degraded_rounds.to_string(),
                c.violations.to_string(),
                c.identical.to_string(),
            ]);
        }
        table
    }

    fn summary(&self) -> String {
        let recoveries: u64 = self.cells.iter().map(|c| c.recoveries).sum();
        format!(
            "E25 summary: {} homes x {} cells ({} axes x {:?} pm, {REPS} replicates each), \
             {} faults -> {} recoveries, worst convergence {} rounds (horizon {HORIZON}), \
             all recovered: {}, checker-clean and rerun-stable: {}",
            self.homes,
            self.cells.len(),
            AXES.len(),
            INTENSITIES,
            self.faults(),
            recoveries,
            self.cells.iter().map(|c| c.worst_rounds).max().unwrap_or(0),
            self.recovered(),
            self.deterministic(),
        )
    }

    fn passed(&self) -> bool {
        self.deterministic()
    }

    /// Per-cell convergence rounds, digests, fault/recovery counters and
    /// gate verdicts.
    fn record(&self) -> Option<Doc> {
        let cell = |c: &ChaosCell| {
            Obj::new()
                .field("axis", quoted(c.axis))
                .field("pm", c.pm)
                .field("rounds", list(&c.rounds))
                .field("worst_rounds", c.worst_rounds)
                .field("recovered", c.recovered)
                .field("digest", quoted(format_args!("{:016x}", c.digest)))
                .field("faults", c.faults)
                .field("recoveries", c.recoveries)
                .field("degraded_rounds", c.degraded_rounds)
                .field("violations", c.violations)
                .field("identical", c.identical)
        };
        let doc = Doc::new("BENCH_E25.json")
            .field("experiment", quoted("e25"))
            .field("seed", SEED)
            .field(
                "fleet",
                Obj::new()
                    .field("homes", self.homes)
                    .field("neighborhood", NEIGHBORHOOD)
                    .field("chunk", CHUNK)
                    .field("horizon", HORIZON)
                    .field("max_rounds", self.max_rounds)
                    .field("replicates", REPS),
            )
            .rows("cells", self.cells.iter().map(cell))
            .field("recovered", self.recovered())
            .field("deterministic", self.deterministic());
        Some(doc)
    }
}

/// E25 — sweep the axes over replicate fleets of `homes` homes, each
/// given `max_rounds` rounds to converge (the runner passes [`HOMES`] and
/// [`MAX_ROUNDS`]).
pub fn fleet_chaos(homes: u32, max_rounds: u32) -> FleetChaosReport {
    let cells = AXES
        .iter()
        .flat_map(|&axis| INTENSITIES.iter().map(move |&pm| run_cell(axis, pm, homes, max_rounds)))
        .collect();
    FleetChaosReport { homes, max_rounds, cells }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_intensity_cells_converge_immediately_and_cleanly() {
        // One replicate is enough for the calm case: every replicate of
        // a 0-pm cell is the same clean fleet.
        let (report, events, rounds) = run_rep("loss", 0, 0, HOMES, MAX_ROUNDS);
        assert_eq!(rounds, 1, "calm fleet converges at round 1");
        assert_eq!(report.faults, 0);
        let spec = FleetTraceSpec {
            homes: HOMES,
            rounds,
            staleness_budget: schedule("loss", 0, 0).policy.staleness_budget,
            grace: GRACE,
        };
        assert!(check_fleet_trace(&events, &spec).is_empty());
    }

    #[test]
    fn a_stormy_cell_recovers_after_the_horizon() {
        let cell = run_cell("loss", 750, HOMES, MAX_ROUNDS);
        assert!(cell.recovered, "loss-750 must converge within the deadline");
        assert!(cell.faults > 0, "a 750-pm cell with no faults across {REPS} replicates");
        assert_eq!(cell.violations, 0);
        assert!(cell.identical);
        assert!(
            cell.worst_rounds <= HORIZON + 8,
            "recovery should finish within a backoff-bounded tail, got {}",
            cell.worst_rounds
        );
    }

    #[test]
    fn miniature_report_gates_and_renders_its_record() {
        let report = fleet_chaos(40, 20);
        assert!(report.deterministic(), "{}", report.summary());
        assert_eq!(report.table().len(), AXES.len() * INTENSITIES.len());
        let json = report.record().expect("E25 always writes a record").render();
        assert!(json.contains("\"experiment\": \"e25\""));
        assert!(json.contains("\"deterministic\": true"));
        // Every line of the record is a fact: a second run renders it
        // byte for byte.
        assert_eq!(fleet_chaos(40, 20).record().expect("E25 record").render(), json);
    }
}
