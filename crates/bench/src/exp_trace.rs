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

use crate::sweep::{sweep_worlds_traced, SweepScenario, WorldJob};
use crate::Table;
use iotnet::time::SimDuration;
use iotsec::defense::Defense;
use iotsec::scenario;
use iotsec::world::World;
use trace::{first_divergence, render_divergence, TraceAggregator, TraceConfig, Tracer};

/// Everything E17 produces: the printable table, the aggregator text,
/// and the identity verdict the CI gate consumes.
#[derive(Debug)]
pub struct TraceReport {
    /// Per-job trace summary table.
    pub table: Table,
    /// Rendered aggregator output (histograms + top-K hot spots).
    pub summary: String,
    /// Trace events recorded across the reference leg.
    pub events: u64,
    /// Whether parallel-sweep traces matched the serial reference.
    pub threads_identical: bool,
    /// First-divergence renderings for any mismatches (empty when green).
    pub divergences: Vec<String>,
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

/// E17 — run the traced grid, check thread-count trace identity, and
/// aggregate one world's trace for the hot-spot report.
pub fn trace(seed: u64, threads: usize) -> TraceReport {
    let jobs = trace_jobs(seed);
    let config = TraceConfig::full();
    let reference = sweep_worlds_traced(&jobs, 1, config);
    let parallel = sweep_worlds_traced(&jobs, threads.max(2), config);

    let mut divergences = Vec::new();
    let mut threads_identical = true;
    let mut table = Table::new(
        &format!(
            "E17: deterministic traces — {} worlds, serial vs {} threads",
            jobs.len(),
            threads.max(2)
        ),
        &["scenario", "seed", "events", "trace bytes", "parallel identical"],
    );
    for (i, (out, trace)) in reference.iter().enumerate() {
        let par_ok = parallel[i].1 == *trace;
        if !par_ok {
            threads_identical = false;
            if let Some(d) = first_divergence(trace, &parallel[i].1) {
                divergences.push(format!("job {i} (parallel): {}", render_divergence(&d)));
            }
        }
        table.rowd(&[
            out.job.scenario.label().to_string(),
            out.job.seed.to_string(),
            trace.lines().count().to_string(),
            trace.len().to_string(),
            par_ok.to_string(),
        ]);
    }
    let events = reference.iter().map(|(_, t)| t.lines().count() as u64).sum();

    // One full smart-home run feeds the aggregator: per-component event
    // histograms plus the hottest switches and µmboxes.
    let (d, _) = scenario::smart_home(Defense::iotsec(), seed);
    let tracer = Tracer::new(config);
    let mut w = World::new_traced(&d, tracer.clone());
    w.env.occupied = true;
    w.run_until_attack_done(SimDuration::from_secs(300));
    let mut agg = TraceAggregator::new();
    agg.observe_all(&tracer.events());
    let summary = agg.render(5);

    TraceReport { table, summary, events, threads_identical, divergences }
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
