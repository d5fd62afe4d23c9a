//! E16 — the parallel sweep engine: throughput, flow-cache efficacy and
//! thread-count determinism.
//!
//! The experiment runs the same E11-shaped job grid (scenario × seed ×
//! population) twice — once serial (`threads = 1`, the reference) and
//! once across the requested worker count — and compares the merged
//! outcome digests byte-for-byte. Divergence is a hard failure (the
//! binary exits non-zero), which is what the CI perf-smoke job leans
//! on. How fast the sweep runs is the `benchmark/` harness's question
//! (`home_packets`), not this experiment's.

use crate::report::{hit_rate, Report};
use crate::sweep::{sweep_worlds, totals, SweepScenario, WorldJob, WorldOutcome};
use crate::Table;

/// Everything E16 measures: both legs' outcomes.
#[derive(Debug)]
pub struct PerfReport {
    /// Worker threads used for the parallel leg.
    pub threads: usize,
    /// The serial reference leg, one outcome per job.
    pub serial: Vec<WorldOutcome>,
    /// The parallel leg; must equal `serial` field for field (an
    /// outcome's digest covers every field).
    pub parallel: Vec<WorldOutcome>,
}

impl PerfReport {
    /// Whether the parallel leg reproduced the serial one.
    pub fn deterministic(&self) -> bool {
        self.serial == self.parallel
    }
}

impl Report for PerfReport {
    fn table(&self) -> Table {
        let mut table = Table::new(
            &format!(
                "E16: parallel sweep — {} worlds, {} thread(s) vs serial (identical: {})",
                self.serial.len(),
                self.threads,
                self.deterministic()
            ),
            &[
                "scenario",
                "seed",
                "population",
                "events",
                "cache hits",
                "cache rate",
                "digest match",
            ],
        );
        for (out, par) in self.serial.iter().zip(&self.parallel) {
            table.rowd(&[
                out.job.scenario.label().to_string(),
                out.job.seed.to_string(),
                out.job.population.to_string(),
                out.events_processed.to_string(),
                format!("{}/{}", out.cache_hits, out.cache_lookups),
                format!("{:.3}", hit_rate(out.cache_hits, out.cache_lookups)),
                (out == par).to_string(),
            ]);
        }
        table
    }

    fn summary(&self) -> String {
        let (events, lookups, hits) = totals(&self.serial);
        let (rate, deterministic) = (hit_rate(hits, lookups), self.deterministic());
        format!(
            "E16 summary: serial vs parallel({}), {events} events, cache hit rate {rate:.3}, \
             deterministic: {deterministic}",
            self.threads,
        )
    }

    fn passed(&self) -> bool {
        self.deterministic()
    }
}

/// The standard E16 job grid: both scenarios × 3 seeds × 3 populations
/// (18 world instances), in canonical order.
pub fn standard_jobs(seed: u64) -> Vec<WorldJob> {
    let mut jobs = Vec::new();
    for scenario in [SweepScenario::HomeUndefended, SweepScenario::HomeIoTSec] {
        for s in [seed, seed + 1, seed + 2] {
            for population in [0u32, 8, 24] {
                jobs.push(WorldJob { scenario, seed: s, population });
            }
        }
    }
    jobs
}

/// E16 — run the sweep serial and parallel.
pub fn perf(seed: u64, threads: usize) -> PerfReport {
    let jobs = standard_jobs(seed);
    let threads = threads.max(1);
    let (serial, parallel) = (sweep_worlds(&jobs, 1), sweep_worlds(&jobs, threads));
    PerfReport { threads, serial, parallel }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_grid_is_canonical() {
        let a = standard_jobs(7);
        let b = standard_jobs(7);
        assert_eq!(a, b);
        assert_eq!(a.len(), 18);
        assert_eq!(a[0].population, 0);
        assert_eq!(a[17].scenario, SweepScenario::HomeIoTSec);
    }

    #[test]
    fn perf_reports_deterministic_sweep() {
        // A trimmed grid keeps the unit test quick; the full grid runs
        // in the experiments binary and the root sweep_props test.
        let jobs = vec![
            WorldJob { scenario: SweepScenario::HomeUndefended, seed: 3, population: 0 },
            WorldJob { scenario: SweepScenario::HomeIoTSec, seed: 3, population: 0 },
        ];
        let (serial, parallel) = (sweep_worlds(&jobs, 1), sweep_worlds(&jobs, 3));
        // Engine work is folded from the outcomes the sweep returns: one
        // outcome per job, the same totals at either thread count.
        assert_eq!(serial.len(), jobs.len());
        assert_eq!(totals(&serial), totals(&parallel));
        let report = PerfReport { threads: 3, serial, parallel };
        assert!(report.passed());
        let (events, lookups, hits) = totals(&report.serial);
        assert!(events > 0);
        assert!(hit_rate(hits, lookups) > 0.0, "repeat flows must hit the decision cache");
        assert_eq!(report.table().len(), jobs.len());
    }
}
