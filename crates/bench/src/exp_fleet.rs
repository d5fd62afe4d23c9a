//! E20 — the fleet-scale sharded controller, measured.
//!
//! One experiment, one determinism gate: a fleet of [`FLEET_HOMES`]
//! IoTSec homes (the [`iotsec_fleet::FleetScenario`] zero-day camera)
//! runs [`ROUNDS`] rounds on four legs — the serial reference, a serial
//! *rerun* (run-to-run stability), and the chunk-parallel path
//! at each count in [`PAR_THREADS`]. Every leg starts from a cold fleet
//! (fresh memo, fresh region) and must reproduce the reference's chained
//! fleet digest byte-for-byte; any divergence fails the run.
//!
//! The round structure exercises the whole E20 story at 10⁴ scale:
//! round 0 breaches every home and the sentinel publishes, the barrier
//! batches one install per neighborhood (10⁴ directives through 10²
//! aggregators from **one** discovery), round 1 runs fully defended on
//! the shared interned snapshot, and round 2 is served entirely from
//! the `(home, epoch)` memo without building a single world.
//!
//! Wall-clock derived numbers (homes/sec, directives/sec, bytes/home)
//! land only on `wall_ms`-marked volatile lines of `BENCH_E20.json`;
//! digests, counters and propagation facts are byte-stable and the CI
//! `fleet-gate` job diffs them with `git diff -I'wall_ms'`.

use crate::Table;
use iotsec_fleet::{Fleet, FleetConfig, FleetReport, FleetScenario};
use std::time::Instant;

/// The repo-wide experiment seed.
pub const SEED: u64 = 20151116;

/// Thread counts for the parallel legs; fixed (not CLI-driven) so the
/// stable section of `BENCH_E20.json` is byte-identical across hosts.
pub const PAR_THREADS: &[usize] = &[2, 4];

/// Homes in the fleet (the acceptance floor is 10⁴).
pub const FLEET_HOMES: u32 = 10_000;
/// Homes per neighborhood aggregator (10² aggregators).
pub const NEIGHBORHOOD: u32 = 100;
/// Homes per fleet chunk.
pub const CHUNK: u32 = 64;
/// Fleet rounds: breach → defended → memoized.
pub const ROUNDS: u32 = 3;

/// One fleet leg: an execution mode at a thread count.
pub struct FleetLeg {
    /// Stable label (`fleet-serial`, `fleet-serial-rerun`, `fleet-par2`…).
    pub label: String,
    /// Worker threads (1 = serial).
    pub threads: usize,
    /// Whether the chained fleet digest matched the serial reference.
    pub identical: bool,
    /// Leg wall time (volatile; never gated on).
    pub wall_ms: u128,
}

/// The E20 report: the printed table plus everything the JSON needs.
pub struct FleetBenchReport {
    /// Rendered leg table.
    pub table: Table,
    /// The serial reference run's cumulative report.
    pub reference: FleetReport,
    /// Every leg, reference first.
    pub legs: Vec<FleetLeg>,
    /// Heap bytes allocated during the reference leg (volatile — the
    /// absolute value tracks allocator internals, not the contract).
    pub reference_bytes: u64,
    /// Every leg reproduced the reference digest.
    pub deterministic: bool,
    /// One-line human summary.
    pub summary: String,
}

impl FleetBenchReport {
    /// Home-rounds served per second for a leg (volatile section only).
    fn homes_per_sec(&self, wall_ms: u128) -> f64 {
        let served = u64::from(self.reference.homes) * u64::from(self.reference.rounds);
        served as f64 / (wall_ms.max(1) as f64 / 1000.0)
    }

    /// Directive installs per second for a leg (volatile section only).
    fn directives_per_sec(&self, wall_ms: u128) -> f64 {
        self.reference.installs as f64 / (wall_ms.max(1) as f64 / 1000.0)
    }

    /// Heap bytes per home over the reference leg (volatile).
    pub fn bytes_per_home(&self) -> u64 {
        self.reference_bytes / u64::from(self.reference.homes.max(1))
    }

    /// `BENCH_E20.json`: a stable section (fleet digest, propagation
    /// facts, memo/intern counters, leg agreement) plus a
    /// `timing_wall_ms` section where **every** volatile line contains
    /// `wall_ms`, so CI can assert byte stability with
    /// `git diff -I'wall_ms'`.
    pub fn render_json(&self) -> String {
        let r = &self.reference;
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"experiment\": \"e20\",\n");
        out.push_str(&format!("  \"seed\": {SEED},\n"));
        let threads: Vec<String> = PAR_THREADS.iter().map(|t| t.to_string()).collect();
        out.push_str(&format!("  \"parallel_threads\": [{}],\n", threads.join(", ")));
        out.push_str(&format!(
            "  \"fleet\": {{\"homes\": {}, \"rounds\": {}, \"neighborhood\": {NEIGHBORHOOD}, \
             \"chunk\": {CHUNK}}},\n",
            r.homes, r.rounds,
        ));
        out.push_str(&format!("  \"digest\": \"{}\",\n", r.digest_hex()));
        out.push_str(&format!(
            "  \"propagation\": {{\"discoveries\": {}, \"epoch\": {}, \"intel_len\": {}, \
             \"installs\": {}, \"batches\": {}}},\n",
            r.discoveries, r.epoch, r.intel_len, r.installs, r.batches,
        ));
        out.push_str(&format!(
            "  \"memo\": {{\"hits\": {}, \"misses\": {}, \"interned_snapshots\": {}}},\n",
            r.memo_hits, r.memo_misses, r.interned,
        ));
        out.push_str(&format!(
            "  \"outcomes\": {{\"events\": {}, \"blocks\": {}, \"compromised\": {}, \
             \"leaked\": {}, \"flagged\": {}}},\n",
            r.events, r.blocks, r.compromised, r.leaked, r.flagged,
        ));
        out.push_str("  \"legs\": [\n");
        for (i, l) in self.legs.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"label\": \"{}\", \"threads\": {}, \"identical\": {}}}{}\n",
                l.label,
                l.threads,
                l.identical,
                if i + 1 == self.legs.len() { "" } else { "," },
            ));
        }
        out.push_str("  ],\n");
        out.push_str(&format!("  \"deterministic\": {},\n", self.deterministic));
        out.push_str("  \"timing_wall_ms\": [\n");
        for l in &self.legs {
            out.push_str(&format!(
                "    {{\"leg\": \"{}\", \"wall_ms\": {}, \"homes_per_sec\": {:.0}, \
                 \"directives_per_sec\": {:.0}}},\n",
                l.label,
                l.wall_ms,
                self.homes_per_sec(l.wall_ms),
                self.directives_per_sec(l.wall_ms),
            ));
        }
        out.push_str(&format!(
            "    {{\"mem\": \"reference-leg\", \"ref_wall_ms\": {}, \"bytes_total\": {}, \
             \"bytes_per_home\": {}}}\n",
            self.legs.first().map_or(0, |l| l.wall_ms),
            self.reference_bytes,
            self.bytes_per_home(),
        ));
        out.push_str("  ]\n");
        out.push_str("}\n");
        out
    }
}

/// Run one cold fleet leg and return its cumulative report.
fn run_leg(threads: usize, homes: u32, rounds: u32) -> FleetReport {
    let cfg = FleetConfig { homes, neighborhood: NEIGHBORHOOD, chunk: CHUNK, threads, seed: SEED };
    // One sentinel (home 0): the whole fleet is protected by a single
    // crowdsourced discovery.
    let mut fleet = Fleet::new(FleetScenario::new(homes), cfg);
    fleet.run(rounds)
}

/// E20 — run the fleet legs and build the report. `alloc_bytes` reads
/// the process's cumulative heap-bytes counter (the `experiments`
/// binary installs a counting global allocator and passes it in; unit
/// tests pass a null reader). `homes`/`rounds` are the CLI overrides
/// (`--homes N` / `--rounds N`); `None` keeps the committed defaults,
/// which is what the byte-stability gate compares against.
pub fn fleet(
    alloc_bytes: &dyn Fn() -> u64,
    homes: Option<u32>,
    rounds: Option<u32>,
) -> FleetBenchReport {
    let homes = homes.unwrap_or(FLEET_HOMES);
    let rounds = rounds.unwrap_or(ROUNDS);
    let mut legs = Vec::new();

    let bytes_before = alloc_bytes();
    let start = Instant::now();
    let reference = run_leg(1, homes, rounds);
    let ref_wall = start.elapsed().as_millis();
    let reference_bytes = alloc_bytes() - bytes_before;
    legs.push(FleetLeg {
        label: "fleet-serial".to_string(),
        threads: 1,
        identical: true,
        wall_ms: ref_wall,
    });

    let start = Instant::now();
    let rerun = run_leg(1, homes, rounds);
    legs.push(FleetLeg {
        label: "fleet-serial-rerun".to_string(),
        threads: 1,
        identical: rerun == reference,
        wall_ms: start.elapsed().as_millis(),
    });

    for &t in PAR_THREADS {
        let start = Instant::now();
        let par = run_leg(t, homes, rounds);
        legs.push(FleetLeg {
            label: format!("fleet-par{t}"),
            threads: t,
            identical: par == reference,
            wall_ms: start.elapsed().as_millis(),
        });
    }

    let mut table = Table::new(
        "E20: fleet-scale sharded controller — every leg, one chained digest",
        &["leg", "threads", "homes", "rounds", "digest", "identical", "wall ms"],
    );
    for l in &legs {
        table.rowd(&[
            l.label.clone(),
            l.threads.to_string(),
            reference.homes.to_string(),
            reference.rounds.to_string(),
            reference.digest_hex(),
            l.identical.to_string(),
            l.wall_ms.to_string(),
        ]);
    }

    let deterministic = legs.iter().all(|l| l.identical)
        && reference.discoveries == 1
        && reference.epoch == 1
        && u64::from(reference.homes) == reference.installs;
    let report = FleetBenchReport {
        table,
        reference,
        legs,
        reference_bytes,
        deterministic,
        summary: String::new(),
    };
    let summary = format!(
        "E20 summary: {} homes x {} rounds x {} legs, digest {}, 1 discovery -> {} installs \
         in {} batches (epoch {}), memo {}/{} hits/misses, {} bytes/home, deterministic: {}",
        report.reference.homes,
        report.reference.rounds,
        report.legs.len(),
        report.reference.digest_hex(),
        report.reference.installs,
        report.reference.batches,
        report.reference.epoch,
        report.reference.memo_hits,
        report.reference.memo_misses,
        report.bytes_per_home(),
        report.deterministic,
    );
    FleetBenchReport { summary, ..report }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_fleet_legs_agree() {
        // A 60-home miniature of the real legs (the full 10⁴ run lives
        // in `experiments e20`).
        let reference = run_leg(1, 60, ROUNDS);
        assert_eq!(reference.discoveries, 1);
        assert_eq!(reference.epoch, 1);
        assert_eq!(reference.installs, 60);
        for t in [2usize, 4] {
            assert_eq!(run_leg(t, 60, ROUNDS), reference, "t={t}");
        }
    }

    #[test]
    fn json_volatile_lines_all_carry_wall_ms() {
        let reference = run_leg(1, 12, ROUNDS);
        let legs = vec![
            FleetLeg { label: "fleet-serial".into(), threads: 1, identical: true, wall_ms: 5 },
            FleetLeg { label: "fleet-par2".into(), threads: 2, identical: true, wall_ms: 3 },
        ];
        let report = FleetBenchReport {
            table: Table::new("t", &["a"]),
            reference,
            legs,
            reference_bytes: 1 << 20,
            deterministic: true,
            summary: String::new(),
        };
        let json = report.render_json();
        let mut in_timing = false;
        for line in json.lines() {
            if line.contains("\"timing_wall_ms\"") {
                in_timing = true;
            }
            if in_timing && line.contains('{') {
                assert!(line.contains("wall_ms"), "volatile line lacks marker: {line}");
            }
            if line.contains("per_sec") || line.contains("bytes_per_home") {
                assert!(line.contains("wall_ms"), "host-dependent line lacks marker: {line}");
            }
        }
        assert!(json.contains("\"experiment\": \"e20\""));
        assert!(json.contains("\"deterministic\": true"));
        assert!(json.ends_with("}\n"));
    }
}
