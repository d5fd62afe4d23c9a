//! E19 — the packed-state parallel state-space engine, measured.
//!
//! The population-scaling sweep runs the same E1 policy family
//! ([`crate::exp_policy::policy_for`]) through three engines:
//!
//! 1. **naive** — the legacy `Vec<SecurityContext>`-per-state odometer
//!    with a fresh `FsmPolicy::evaluate` per state (the pre-E19
//!    `collapse_count` path), run only while the raw space fits under
//!    [`NAIVE_SWEEP_LIMIT`];
//! 2. **packed-serial** — bitfield-encoded states with memoized policy
//!    evaluation;
//! 3. **packed-parallel** — the same sweep chunked over parallel
//!    workers at each thread count in [`PAR_THREADS`].
//!
//! Every engine must report the identical state count, posture-class
//! count and order-independent digests; any divergence fails the run
//! (and, through the runner, the CI `state-space-gate` job). On top of
//! the exhaustive sweeps, each population also counts the shells around
//! the initial state (the packed odometer pass vs the naive search's
//! histogram) and runs the exact reachable-conflict scan (packed
//! co-activation vs witness search).
//!
//! The n = 12 population (3,359,232 raw states) is the cell the naive
//! engine could not fill at the old `1 << 20` ceiling — here it runs
//! through the packed engines only, which is the point.

use crate::report::{hit_rate, list, quoted, Doc, Obj, Report, SEED};
use crate::Table;
use iotpolicy::conflict::{find_reachable_rule_conflicts, find_reachable_rule_conflicts_naive};
use iotpolicy::explore::{bfs_naive, bfs_packed, explore_naive, explore_packed};
use iotpolicy::policy::FsmPolicy;
use trace::tracer::Tracer;

/// Device populations swept (coupled pairs follow E1's `n / 4` rule).
pub const POPULATIONS: &[u32] = &[6, 8, 10, 12];

/// Raw-space ceiling for the naive exhaustive legs. The n = 12
/// population sits well above it — naive is recorded as infeasible
/// there, exactly as E1 recorded "-" before the packed engine landed.
pub const NAIVE_SWEEP_LIMIT: u128 = 1 << 19;

/// Raw-space ceiling for the naive BFS leg (it clones a full
/// `SystemState` per successor, so it drowns far earlier).
pub const NAIVE_BFS_LIMIT: u128 = 1 << 16;

/// Thread counts for the parallel legs; fixed (not CLI-driven) so
/// `BENCH_E19.json` is byte-identical across hosts.
pub const PAR_THREADS: &[usize] = &[2, 4];

/// One population's measurements across all engines.
pub struct SpaceCell {
    /// Device count `n` (coupled pairs = `n / 4`).
    pub devices: u32,
    /// Raw product-space size.
    pub states: u128,
    /// Distinct posture classes found by the packed-serial sweep.
    pub classes: u64,
    /// Full packed-serial digest line (counts + order-independent
    /// class/quiet digests) — the reference every other leg must match.
    pub digest: String,
    /// Shell histogram plus frontier digest from the packed pass.
    pub bfs: String,
    /// Reachable rule conflicts found by the packed co-activation scan.
    pub conflicts: usize,
    /// Whether the naive legs ran (raw space under the limits).
    pub naive_ran: bool,
    /// Every engine that ran agreed on counts and digests.
    pub identical: bool,
    /// Memoized-evaluator `(lookups, hits)` from the serial sweep.
    pub memo: (u64, u64),
}

/// The E19 report: the printed table plus everything the JSON needs.
pub struct SpaceReport {
    /// Per-population measurements.
    pub cells: Vec<SpaceCell>,
}

impl SpaceReport {
    /// True iff every engine agreed on every population.
    pub fn deterministic(&self) -> bool {
        self.cells.iter().all(|c| c.identical)
    }

    /// Total states enumerated by the packed-serial reference sweeps
    /// (deterministic, so safe to surface as the runner's event count).
    pub fn states_total(&self) -> u64 {
        self.cells.iter().map(|c| c.states as u64).sum()
    }

    /// Aggregate memo hit rate across the serial sweeps.
    pub fn memo_hit_rate(&self) -> f64 {
        let lookups: u64 = self.cells.iter().map(|c| c.memo.0).sum();
        let hits: u64 = self.cells.iter().map(|c| c.memo.1).sum();
        hit_rate(hits, lookups)
    }
}

impl Report for SpaceReport {
    fn table(&self) -> Table {
        let mut t = Table::new(
            "E19: packed-state engine — three engines, one digest per population",
            &[
                "devices",
                "raw |S|",
                "classes",
                "memo hit rate",
                "bfs shells",
                "conflicts",
                "naive leg",
                "identical",
            ],
        );
        for c in &self.cells {
            t.rowd(&[
                c.devices.to_string(),
                c.states.to_string(),
                c.classes.to_string(),
                format!("{:.4}", hit_rate(c.memo.1, c.memo.0)),
                // shells=[a,b,...] → shell count (depth of the BFS layering).
                c.bfs.matches(',').count().saturating_add(1).to_string(),
                c.conflicts.to_string(),
                if c.naive_ran { "ran" } else { "infeasible" }.to_string(),
                c.identical.to_string(),
            ]);
        }
        t
    }

    fn summary(&self) -> String {
        format!(
            "E19 summary: {} populations, {} states in reference sweeps, memo hit rate {:.4}, \
             deterministic: {}",
            self.cells.len(),
            self.states_total(),
            self.memo_hit_rate(),
            self.deterministic(),
        )
    }

    fn passed(&self) -> bool {
        self.deterministic()
    }

    /// Counts, digests and engine agreement (the seed is recorded for
    /// provenance, not consumed).
    fn record(&self) -> Option<Doc> {
        let population = |c: &SpaceCell| {
            Obj::new()
                .field("devices", c.devices)
                .field("states", c.states)
                .field("classes", c.classes)
                .field("digest", quoted(&c.digest))
                .field("bfs", quoted(&c.bfs))
                .field("conflicts", c.conflicts)
                .field("naive_ran", c.naive_ran)
                .field("identical", c.identical)
        };
        let doc = Doc::new("BENCH_E19.json")
            .field("experiment", quoted("e19"))
            .field("seed", SEED)
            .field("parallel_threads", list(PAR_THREADS))
            .field("naive_sweep_limit", NAIVE_SWEEP_LIMIT)
            .field("naive_bfs_limit", NAIVE_BFS_LIMIT)
            .rows("populations", self.cells.iter().map(population))
            .field("deterministic", self.deterministic());
        Some(doc)
    }
}

const PACKABLE: &str = "E19 policies are packable by construction";

fn run_cell(n: u32) -> SpaceCell {
    let policy: FsmPolicy = crate::exp_policy::policy_for(n, n / 4);
    let raw = policy.schema.size();
    let mut identical = true;

    // Packed-serial exhaustive sweep: the reference digest.
    let serial = explore_packed(&policy, 1).expect(PACKABLE);
    let reference = serial.digest();

    // Naive exhaustive sweep, while it still fits.
    let naive_ran = raw <= NAIVE_SWEEP_LIMIT;
    if naive_ran {
        identical &= explore_naive(&policy).digest() == reference;
    }

    // Packed-parallel sweeps at each fixed thread count.
    for &t in PAR_THREADS {
        identical &= explore_packed(&policy, t).expect(PACKABLE).digest() == reference;
    }

    // Shells around the initial state: the packed pass (it takes no
    // threads), against the naive search's histogram while that fits.
    let bfs = bfs_packed(&policy, 1, &Tracer::disabled()).expect(PACKABLE);
    if raw <= NAIVE_BFS_LIMIT {
        // The naive BFS carries no frontier digest; shells must match.
        identical &= bfs_naive(&policy).histogram() == bfs.histogram();
    }

    // Reachable conflicts: packed co-activation vs witness search.
    let conflicts = find_reachable_rule_conflicts(&policy);
    if let Some(naive_conflicts) = find_reachable_rule_conflicts_naive(&policy, NAIVE_SWEEP_LIMIT) {
        identical &= naive_conflicts == conflicts;
    }

    SpaceCell {
        devices: n,
        states: serial.states,
        classes: serial.classes,
        digest: reference,
        bfs: format!("{} fd={:016x}", bfs.histogram(), bfs.frontier_digest),
        conflicts: conflicts.len(),
        naive_ran,
        identical,
        memo: serial.memo,
    }
}

/// E19 — run the population-scaling sweep.
pub fn space() -> SpaceReport {
    SpaceReport { cells: POPULATIONS.iter().map(|&n| run_cell(n)).collect() }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_cell_agrees_across_engines() {
        let c = run_cell(6);
        assert!(c.identical);
        assert!(c.naive_ran);
        assert_eq!(c.states, 2592);
        assert!(c.classes > 0);
    }
}
