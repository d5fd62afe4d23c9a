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
//! the exhaustive sweeps, each population also runs the frontier BFS
//! (serial vs parallel vs naive shell histograms) and the exact
//! reachable-conflict scan (packed co-activation vs witness search).
//!
//! The n = 12 population (3,359,232 raw states) is the cell the naive
//! engine could not fill at the old `1 << 20` ceiling — here it runs
//! through the packed engines only, which is the point.

use crate::Table;
use iotpolicy::conflict::{find_reachable_rule_conflicts, find_reachable_rule_conflicts_naive};
use iotpolicy::explore::{
    bfs_naive, bfs_packed, bfs_uses_dense_visited, explore_naive, explore_packed,
};
use iotpolicy::policy::FsmPolicy;
use std::time::Instant;
use trace::tracer::Tracer;

/// The repo-wide experiment seed (E19 is fully deterministic — the seed
/// is recorded in the JSON for provenance, not consumed).
pub const SEED: u64 = 20151116;

/// Device populations swept (coupled pairs follow E1's `n / 4` rule).
pub const POPULATIONS: &[u32] = &[6, 8, 10, 12];

/// Raw-space ceiling for the naive exhaustive legs. The n = 12
/// population sits well above it — naive is recorded as infeasible
/// there, exactly as E1 recorded "-" before the packed engine landed.
pub const NAIVE_SWEEP_LIMIT: u128 = 1 << 19;

/// Raw-space ceiling for the naive BFS leg (it clones a full
/// `SystemState` per successor, so it drowns far earlier).
pub const NAIVE_BFS_LIMIT: u128 = 1 << 16;

/// Thread counts for the parallel legs; fixed (not CLI-driven) so the
/// stable section of `BENCH_E19.json` is byte-identical across hosts.
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
    /// BFS shell histogram plus frontier digest from the packed
    /// serial BFS.
    pub bfs: String,
    /// Whether the BFS visited set fit the dense bitset arena.
    pub dense_visited: bool,
    /// Reachable rule conflicts found by the packed co-activation scan.
    pub conflicts: usize,
    /// Whether the naive legs ran (raw space under the limits).
    pub naive_ran: bool,
    /// Every engine that ran agreed on counts and digests.
    pub identical: bool,
    /// Memoized-evaluator `(lookups, hits)` from the serial sweep.
    pub memo: (u64, u64),
    /// Naive exhaustive wall time, when the leg ran.
    pub naive_wall_ms: Option<u128>,
    /// Packed-serial exhaustive wall time.
    pub serial_wall_ms: u128,
    /// Packed-parallel wall times, aligned with [`PAR_THREADS`].
    pub parallel_wall_ms: Vec<u128>,
}

/// The E19 report: the printed table plus everything the JSON needs.
pub struct SpaceReport {
    /// Rendered population table.
    pub table: Table,
    /// Per-population measurements.
    pub cells: Vec<SpaceCell>,
    /// True iff every engine agreed on every population.
    pub deterministic: bool,
    /// One-line human summary.
    pub summary: String,
}

impl SpaceReport {
    /// Total states enumerated by the packed-serial reference sweeps
    /// (deterministic, so safe to surface as the runner's event count).
    pub fn states_total(&self) -> u64 {
        self.cells.iter().map(|c| c.states as u64).sum()
    }

    /// Aggregate memo hit rate across the serial sweeps.
    pub fn memo_hit_rate(&self) -> f64 {
        let lookups: u64 = self.cells.iter().map(|c| c.memo.0).sum();
        let hits: u64 = self.cells.iter().map(|c| c.memo.1).sum();
        if lookups == 0 {
            0.0
        } else {
            hits as f64 / lookups as f64
        }
    }

    /// Best naive-vs-packed-serial speedup over the populations where
    /// the naive leg ran (wall-clock, so host-dependent — recorded in
    /// the volatile JSON section, never gated on).
    pub fn best_speedup(&self) -> f64 {
        self.cells
            .iter()
            .filter_map(|c| {
                let naive = c.naive_wall_ms? as f64;
                Some(naive / (c.serial_wall_ms.max(1) as f64))
            })
            .fold(0.0, f64::max)
    }

    /// `BENCH_E19.json`: a stable section (counts, digests, engine
    /// agreement) plus a `timing_wall_ms` section where **every**
    /// volatile line contains `wall_ms`, so CI can assert byte
    /// stability with `git diff -I'wall_ms'`.
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"experiment\": \"e19\",\n");
        out.push_str(&format!("  \"seed\": {SEED},\n"));
        let threads: Vec<String> = PAR_THREADS.iter().map(|t| t.to_string()).collect();
        out.push_str(&format!("  \"parallel_threads\": [{}],\n", threads.join(", ")));
        out.push_str(&format!("  \"naive_sweep_limit\": {NAIVE_SWEEP_LIMIT},\n"));
        out.push_str(&format!("  \"naive_bfs_limit\": {NAIVE_BFS_LIMIT},\n"));
        out.push_str("  \"populations\": [\n");
        for (i, c) in self.cells.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"devices\": {}, \"states\": {}, \"classes\": {}, \"digest\": \"{}\", \
                 \"bfs\": \"{}\", \"dense_visited\": {}, \"conflicts\": {}, \
                 \"naive_ran\": {}, \"identical\": {}}}{}\n",
                c.devices,
                c.states,
                c.classes,
                c.digest,
                c.bfs,
                c.dense_visited,
                c.conflicts,
                c.naive_ran,
                c.identical,
                if i + 1 == self.cells.len() { "" } else { "," },
            ));
        }
        out.push_str("  ],\n");
        out.push_str(&format!("  \"deterministic\": {},\n", self.deterministic));
        out.push_str("  \"timing_wall_ms\": [\n");
        for (i, c) in self.cells.iter().enumerate() {
            let naive = c.naive_wall_ms.map(|m| m.to_string()).unwrap_or_else(|| "null".into());
            let par: Vec<String> = c.parallel_wall_ms.iter().map(|m| m.to_string()).collect();
            // Serial wall over parallel wall, per thread count: above 1
            // the threads paid for themselves.
            let ratio: Vec<String> = c
                .parallel_wall_ms
                .iter()
                .map(|m| format!("{:.2}", c.serial_wall_ms.max(1) as f64 / (*m).max(1) as f64))
                .collect();
            out.push_str(&format!(
                "    {{\"devices\": {}, \"naive_wall_ms\": {}, \"packed_serial_wall_ms\": {}, \
                 \"packed_parallel_wall_ms\": [{}], \"par_vs_serial\": [{}]}}{}\n",
                c.devices,
                naive,
                c.serial_wall_ms,
                par.join(", "),
                ratio.join(", "),
                if i + 1 == self.cells.len() { "" } else { "," },
            ));
        }
        out.push_str("  ],\n");
        out.push_str(&format!(
            "  \"speedup_wall_ms\": {{\"best_naive_vs_packed_serial\": {:.1}, \
             \"floor_5x_met\": {}}}\n",
            self.best_speedup(),
            self.best_speedup() >= 5.0,
        ));
        out.push_str("}\n");
        out
    }
}

fn ms(start: Instant) -> u128 {
    start.elapsed().as_millis()
}

fn run_cell(n: u32) -> SpaceCell {
    let policy: FsmPolicy = crate::exp_policy::policy_for(n, n / 4);
    let raw = policy.schema.size();
    let mut identical = true;

    // Packed-serial exhaustive sweep: the reference digest.
    let start = Instant::now();
    let serial = explore_packed(&policy, 1).expect("E19 policies are packable by construction");
    let serial_wall_ms = ms(start);
    let reference = serial.digest();

    // Naive exhaustive sweep, while it still fits.
    let naive_ran = raw <= NAIVE_SWEEP_LIMIT;
    let naive_wall_ms = if naive_ran {
        let start = Instant::now();
        let naive = explore_naive(&policy);
        let wall = ms(start);
        identical &= naive.digest() == reference;
        Some(wall)
    } else {
        None
    };

    // Packed-parallel sweeps at each fixed thread count.
    let mut parallel_wall_ms = Vec::new();
    for &t in PAR_THREADS {
        let start = Instant::now();
        let par = explore_packed(&policy, t).expect("E19 policies are packable by construction");
        parallel_wall_ms.push(ms(start));
        identical &= par.digest() == reference;
    }

    // Frontier BFS: serial reference, parallel byte-identity, naive
    // shell histogram while it fits.
    let tracer = Tracer::disabled();
    let bfs_serial =
        bfs_packed(&policy, 1, &tracer).expect("E19 policies are packable by construction");
    let bfs_ref = format!("{} fd={:016x}", bfs_serial.histogram(), bfs_serial.frontier_digest);
    for &t in PAR_THREADS {
        let par =
            bfs_packed(&policy, t, &tracer).expect("E19 policies are packable by construction");
        identical &= format!("{} fd={:016x}", par.histogram(), par.frontier_digest) == bfs_ref;
    }
    if raw <= NAIVE_BFS_LIMIT {
        // The naive BFS carries no frontier digest; shells must match.
        identical &= bfs_naive(&policy).histogram() == bfs_serial.histogram();
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
        bfs: bfs_ref,
        dense_visited: bfs_uses_dense_visited(&policy).unwrap_or(false),
        conflicts: conflicts.len(),
        naive_ran,
        identical,
        memo: serial.memo,
        naive_wall_ms,
        serial_wall_ms,
        parallel_wall_ms,
    }
}

/// E19 — run the population-scaling sweep and build the report.
pub fn space() -> SpaceReport {
    let mut t = Table::new(
        "E19: packed-state engine — three engines, one digest per population",
        &[
            "devices",
            "raw |S|",
            "classes",
            "memo hit rate",
            "bfs shells",
            "dense visited",
            "conflicts",
            "naive leg",
            "identical",
        ],
    );
    let cells: Vec<SpaceCell> = POPULATIONS.iter().map(|&n| run_cell(n)).collect();
    for c in &cells {
        let hit_rate = if c.memo.0 == 0 { 0.0 } else { c.memo.1 as f64 / c.memo.0 as f64 };
        t.rowd(&[
            c.devices.to_string(),
            c.states.to_string(),
            c.classes.to_string(),
            format!("{:.4}", hit_rate),
            // shells=[a,b,...] → shell count (depth of the BFS layering).
            c.bfs.matches(',').count().saturating_add(1).to_string(),
            c.dense_visited.to_string(),
            c.conflicts.to_string(),
            if c.naive_ran { "ran" } else { "infeasible" }.to_string(),
            c.identical.to_string(),
        ]);
    }
    let deterministic = cells.iter().all(|c| c.identical);
    let report = SpaceReport { table: t, cells, deterministic, summary: String::new() };
    let summary = format!(
        "E19 summary: {} populations, {} states in reference sweeps, memo hit rate {:.4}, \
         best naive-vs-packed speedup {:.1}x, deterministic: {}",
        report.cells.len(),
        report.states_total(),
        report.memo_hit_rate(),
        report.best_speedup(),
        report.deterministic,
    );
    SpaceReport { summary, ..report }
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
        assert!(c.dense_visited);
    }

    #[test]
    fn json_volatile_lines_all_carry_wall_ms() {
        let cell = SpaceCell {
            devices: 6,
            states: 2592,
            classes: 9,
            digest: "states=2592 classes=9 cd=0 quiet=1 qd=0".into(),
            bfs: "visited=2592 shells=[1,13] fd=0000000000000000".into(),
            dense_visited: true,
            conflicts: 0,
            naive_ran: true,
            identical: true,
            memo: (2592, 2500),
            naive_wall_ms: Some(12),
            serial_wall_ms: 1,
            parallel_wall_ms: vec![1, 1],
        };
        let report = SpaceReport {
            table: Table::new("t", &["a"]),
            cells: vec![cell],
            deterministic: true,
            summary: String::new(),
        };
        let json = report.render_json();
        // Everything after the stable section must be filterable by
        // `git diff -I'wall_ms'`: each line with a timing value (or a
        // host-dependent speedup) carries the marker.
        let mut in_timing = false;
        for line in json.lines() {
            if line.contains("\"timing_wall_ms\"") {
                in_timing = true;
            }
            let volatile = line.contains("_wall_ms\":") || line.contains("speedup_wall_ms");
            if in_timing && line.contains('{') {
                assert!(line.contains("wall_ms"), "volatile line lacks marker: {line}");
            }
            if volatile {
                assert!(line.contains("wall_ms"));
            }
        }
        assert!(json.contains("\"deterministic\": true"));
        assert!(json.ends_with("}\n"));
    }

    #[test]
    fn speedup_ignores_infeasible_cells() {
        let mk = |naive: Option<u128>, serial: u128| SpaceCell {
            devices: 6,
            states: 1,
            classes: 1,
            digest: String::new(),
            bfs: String::new(),
            dense_visited: true,
            conflicts: 0,
            naive_ran: naive.is_some(),
            identical: true,
            memo: (0, 0),
            naive_wall_ms: naive,
            serial_wall_ms: serial,
            parallel_wall_ms: vec![],
        };
        let report = SpaceReport {
            table: Table::new("t", &["a"]),
            cells: vec![mk(Some(100), 10), mk(None, 1), mk(Some(30), 10)],
            deterministic: true,
            summary: String::new(),
        };
        assert!((report.best_speedup() - 10.0).abs() < 1e-9);
    }
}
