//! E17 — deterministic tracing: the differential harness and the
//! in-process aggregator, surfaced via `experiments trace` (or the
//! `--trace` flag).
//!
//! The experiment runs a small traced job grid twice — serial (the
//! reference) and parallel — and compares the JSONL traces *byte for
//! byte*. Identical seeds must yield identical traces regardless of
//! worker count; any divergence is reported as a readable
//! first-divergence diff, not a blob mismatch, and fails the run. A
//! separate single smart-home world feeds the [`TraceAggregator`] for
//! the per-component histogram and the top-K hot switches/µmboxes.

use crate::report::Report;
use crate::sweep::{sweep_worlds_traced, SweepScenario, WorldJob, WorldOutcome};
use crate::Table;
use iotnet::time::SimDuration;
use iotsec::defense::Defense;
use iotsec::scenario;
use iotsec::world::World;
use trace::{first_divergence, render_divergence, TraceAggregator, TraceConfig, Tracer};

/// Everything E17 measures: both legs' traces and the hot-spot text.
#[derive(Debug)]
pub struct TraceReport {
    /// Worker threads used for the parallel leg.
    pub threads: usize,
    /// The serial reference leg: `(outcome, JSONL trace)` per job.
    pub reference: Vec<(WorldOutcome, String)>,
    /// The parallel leg; its traces must equal the reference's bytes.
    pub parallel: Vec<(WorldOutcome, String)>,
    /// Rendered aggregator output (histograms + top-K hot spots).
    pub hot_spots: String,
}

impl TraceReport {
    /// Trace events recorded across the reference leg.
    pub fn events(&self) -> u64 {
        self.reference.iter().map(|(_, t)| t.lines().count() as u64).sum()
    }

    /// Whether parallel-sweep traces matched the serial reference.
    pub fn threads_identical(&self) -> bool {
        self.reference.iter().zip(&self.parallel).all(|(r, p)| r.1 == p.1)
    }
}

impl Report for TraceReport {
    fn table(&self) -> Table {
        let mut table = Table::new(
            &format!(
                "E17: deterministic traces — {} worlds, serial vs {} threads",
                self.reference.len(),
                self.threads
            ),
            &["scenario", "seed", "events", "trace bytes", "parallel identical"],
        );
        for ((out, trace), (_, par)) in self.reference.iter().zip(&self.parallel) {
            table.rowd(&[
                out.job.scenario.label().to_string(),
                out.job.seed.to_string(),
                trace.lines().count().to_string(),
                trace.len().to_string(),
                (par == trace).to_string(),
            ]);
        }
        table
    }

    /// The hot-spot text, then any mismatch as a readable
    /// first-divergence diff (not a blob mismatch), then the summary line.
    fn summary(&self) -> String {
        let mut summary = format!("{}\n", self.hot_spots);
        for (i, ((_, trace), (_, par))) in self.reference.iter().zip(&self.parallel).enumerate() {
            if let Some(d) = first_divergence(trace, par) {
                summary += &format!("job {i} (parallel): {}\n", render_divergence(&d));
            }
        }
        let (events, identical) = (self.events(), self.threads_identical());
        summary
            + &format!(
                "E17 summary: {events} trace events, parallel-vs-serial identical: {identical}"
            )
    }

    fn passed(&self) -> bool {
        self.threads_identical()
    }
}

/// The E17 job grid: both scenarios over two seeds, small populations —
/// enough to exercise every emission site without E16's runtime.
pub fn trace_jobs(seed: u64) -> Vec<WorldJob> {
    vec![
        WorldJob { scenario: SweepScenario::HomeUndefended, seed, population: 0 },
        WorldJob { scenario: SweepScenario::HomeIoTSec, seed, population: 0 },
        WorldJob { scenario: SweepScenario::HomeIoTSec, seed: seed + 1, population: 4 },
    ]
}

/// E17 — run the traced grid serial and parallel, and aggregate one
/// world's trace for the hot-spot report.
pub fn trace(seed: u64, threads: usize) -> TraceReport {
    let jobs = trace_jobs(seed);
    let config = TraceConfig::full();
    let threads = threads.max(2);
    let reference = sweep_worlds_traced(&jobs, 1, config);
    let parallel = sweep_worlds_traced(&jobs, threads, config);

    // One full smart-home run feeds the aggregator: per-component event
    // histograms plus the hottest switches and µmboxes.
    let (d, _) = scenario::smart_home(Defense::iotsec(), seed);
    let tracer = Tracer::new(config);
    let mut w = World::new_traced(&d, tracer.clone());
    w.env.occupied = true;
    w.run_until_attack_done(SimDuration::from_secs(300));
    let mut agg = TraceAggregator::new();
    agg.observe_all(&tracer.events());

    TraceReport { threads, reference, parallel, hot_spots: agg.render(5) }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_grid_is_canonical() {
        assert_eq!(trace_jobs(7), trace_jobs(7));
        assert_eq!(trace_jobs(7).len(), 3);
    }
}
