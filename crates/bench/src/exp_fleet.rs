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
//! `BENCH_E20.json` holds the digest, counters, propagation facts and
//! leg agreement; the CI `fleet-gate` job byte-compares it. How fast a
//! fleet round runs is the `benchmark/` harness's question
//! (`fleet_churn`, `fleet_quiet`).

use crate::report::{list, quoted, Doc, Leg, Legs, Obj, Report, SEED};
use crate::Table;
use iotsec_fleet::{Fleet, FleetConfig, FleetReport, FleetScenario};

/// Thread counts for the parallel legs; fixed (not CLI-driven) so
/// `BENCH_E20.json` is byte-identical across hosts.
pub const PAR_THREADS: &[usize] = &[2, 4];

/// Homes in the fleet (the acceptance floor is 10⁴).
pub const FLEET_HOMES: u32 = 10_000;
/// Homes per neighborhood aggregator (10² aggregators).
pub const NEIGHBORHOOD: u32 = 100;
/// Homes per fleet chunk.
pub const CHUNK: u32 = 64;
/// Fleet rounds: breach → defended → memoized.
pub const ROUNDS: u32 = 3;

/// Everything E20 measures.
pub struct FleetBenchReport {
    /// The serial reference run's cumulative report.
    pub reference: FleetReport,
    /// Every leg, reference first (`fleet-serial`, `fleet-serial-rerun`,
    /// `fleet-par2`…).
    pub legs: Vec<Leg>,
}

impl FleetBenchReport {
    /// Every leg reproduced the reference digest, and one discovery
    /// reached every home in one epoch.
    pub fn deterministic(&self) -> bool {
        let r = &self.reference;
        self.legs.iter().all(|l| l.identical)
            && r.discoveries == 1
            && r.epoch == 1
            && u64::from(r.homes) == r.installs
    }
}

impl Report for FleetBenchReport {
    fn table(&self) -> Table {
        let mut table = Table::new(
            "E20: fleet-scale sharded controller — every leg, one chained digest",
            &["leg", "threads", "homes", "rounds", "digest", "identical"],
        );
        for l in &self.legs {
            table.rowd(&[
                l.label.clone(),
                l.threads.to_string(),
                self.reference.homes.to_string(),
                self.reference.rounds.to_string(),
                self.reference.digest_hex(),
                l.identical.to_string(),
            ]);
        }
        table
    }

    fn summary(&self) -> String {
        let r = &self.reference;
        format!(
            "E20 summary: {} homes x {} rounds x {} legs, digest {}, 1 discovery -> {} installs \
             in {} batches (epoch {}), memo {}/{} hits/misses, deterministic: {}",
            r.homes,
            r.rounds,
            self.legs.len(),
            r.digest_hex(),
            r.installs,
            r.batches,
            r.epoch,
            r.memo_hits,
            r.memo_misses,
            self.deterministic(),
        )
    }

    fn passed(&self) -> bool {
        self.deterministic()
    }

    /// Fleet digest, propagation facts, memo/intern counters and leg
    /// agreement.
    fn record(&self) -> Option<Doc> {
        let r = &self.reference;
        let doc = Doc::new("BENCH_E20.json")
            .field("experiment", quoted("e20"))
            .field("seed", SEED)
            .field("parallel_threads", list(PAR_THREADS))
            .field(
                "fleet",
                Obj::new()
                    .field("homes", r.homes)
                    .field("rounds", r.rounds)
                    .field("neighborhood", NEIGHBORHOOD)
                    .field("chunk", CHUNK),
            )
            .field("digest", quoted(r.digest_hex()))
            .field(
                "propagation",
                Obj::new()
                    .field("discoveries", r.discoveries)
                    .field("epoch", r.epoch)
                    .field("intel_len", r.intel_len)
                    .field("installs", r.installs)
                    .field("batches", r.batches),
            )
            .field("memo", memo_json(r))
            .field(
                "outcomes",
                Obj::new()
                    .field("events", r.events)
                    .field("blocks", r.blocks)
                    .field("compromised", r.compromised)
                    .field("leaked", r.leaked)
                    .field("flagged", r.flagged),
            )
            .rows("legs", self.legs.iter().map(Leg::json))
            .field("deterministic", self.deterministic());
        Some(doc)
    }
}

/// A fleet run's memo and intern counters, as E20 and E26 record them.
pub(crate) fn memo_json(r: &FleetReport) -> Obj {
    Obj::new()
        .field("hits", r.memo_hits)
        .field("misses", r.memo_misses)
        .field("interned_snapshots", r.interned)
}

/// Run one cold fleet leg and return its cumulative report.
fn run_leg(threads: usize, homes: u32, rounds: u32) -> FleetReport {
    let cfg = FleetConfig { homes, neighborhood: NEIGHBORHOOD, chunk: CHUNK, threads, seed: SEED };
    // One sentinel (home 0): the whole fleet is protected by a single
    // crowdsourced discovery.
    let mut fleet = Fleet::new(FleetScenario::new(homes), cfg);
    fleet.run(rounds)
}

/// E20 — run the fleet legs over `homes` homes and `rounds` rounds (the
/// runner passes [`FLEET_HOMES`] and [`ROUNDS`]).
pub fn fleet(homes: u32, rounds: u32) -> FleetBenchReport {
    let run = |threads| run_leg(threads, homes, rounds);
    let mut legs = Legs::new("fleet-serial", run(1));
    legs.rerun_and_threads("fleet-serial", "fleet-par", PAR_THREADS, run);
    FleetBenchReport { reference: legs.reference, legs: legs.legs }
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
    fn miniature_report_gates_and_renders_its_record() {
        let report = fleet(12, ROUNDS);
        assert!(report.deterministic());
        let labels: Vec<&str> = report.legs.iter().map(|l| l.label.as_str()).collect();
        assert_eq!(labels, ["fleet-serial", "fleet-serial-rerun", "fleet-par2", "fleet-par4"]);
        let json = report.record().expect("E20 always writes a record").render();
        assert!(json.contains("\"experiment\": \"e20\""));
        assert!(json.contains("\"deterministic\": true"));
        // Every line of the record is a fact: a second run renders it
        // byte for byte.
        assert_eq!(fleet(12, ROUNDS).record().expect("E20 record").render(), json);
    }
}
