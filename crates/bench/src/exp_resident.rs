//! E26 — resident home worlds: delta-driven fleet rounds, measured.
//!
//! E20 showed the fleet is digest-deterministic; an active round that
//! rebuilds every world from scratch pays a full construction per home.
//! This experiment measures the two ways to serve a home-round on
//! identical round streams:
//!
//! * **rebuild** — the reference
//!   ([`iotsec_fleet::fleet::Fleet::set_resident`]`(false)`): every
//!   active home-round is a full
//!   [`iotsec_fleet::fleet::HomeWorld::run_home`] build. Every other
//!   leg must reproduce it byte-for-byte, and the acceptance ratio is
//!   quoted against it.
//! * **resident** — what a fleet does by default: one persistent world
//!   per worker, **rebound** to each home (`(home, seed, intel)` purity
//!   makes one machine serve any home) with intel epochs
//!   **delta-installed**
//!   ([`iotsec::world::World::apply_intel_delta`]) instead of
//!   recompiled from scratch — measured serial, rerun, and at each
//!   count in [`PAR_THREADS`].
//!
//! Three churn arms isolate the steady-state cost, each measured over
//! [`ROUNDS`] post-warmup rounds:
//!
//! * **quiet** — no new intel after warmup; every measured round is
//!   memo-served. Sanity: residency must not disturb the memo path.
//! * **churn-miss** — one novel signature per round for a SKU no home
//!   owns: every round is a new epoch (memo useless, all homes
//!   execute), but the delta keeps every device untouched.
//! * **churn-hit** — one novel signature per round for the camera SKU
//!   every home owns: every round is a new epoch *and* every delta
//!   replaces the camera's signature list (no policy recompile — repo
//!   membership never flips after warmup).
//!
//! Every leg must reproduce the rebuild reference's chained fleet
//! digest byte-for-byte — the rebuild-equivalence oracle at bench
//! scale. The headline numbers are steady-state homes/sec and heap
//! bytes per home-round; the experiment fails (non-zero exit) unless
//! the churn arms show the resident path allocating at most
//! 1/[`MIN_BYTES_RATIO`] of the rebuild leg's bytes per home-round.
//! Wall time is reported beside it and not gated: the byte counter is
//! deterministic, the clock is not.
//!
//! Digests, epochs, memo counters and the serial resident-stats
//! counters are byte-stable in `BENCH_E26.json`; wall-clock and
//! allocator-dependent numbers land only on `wall_ms`-marked volatile
//! lines, and the CI `resident-gate` job diffs the file with
//! `git diff -I'wall_ms'`.

use crate::report::{
    fixed, list, measured, per_sec, quoted, Cost, Doc, Leg, Legs, Obj, Report, SEED,
};
use crate::Table;
use iotdev::registry::Sku;
use iotlearn::signature::{Matcher, Severity};
use iotlearn::AttackSignature;
use iotsec_fleet::{Fleet, FleetConfig, FleetReport, FleetScenario, HomeWorld, ResidentStats};

/// Homes in the fleet (20 neighborhoods of 100).
pub const HOMES: u32 = 2_000;
/// Homes per neighborhood aggregator.
pub const NEIGHBORHOOD: u32 = 100;
/// Homes per chunk (one chunk is the unit of worker assignment).
pub const CHUNK: u32 = 64;
/// Measured steady-state rounds per leg (post-warmup).
pub const ROUNDS: u32 = 6;
/// Warmup rounds: the breach round plus the first defended round, so
/// the measurement window starts with every world built and epoch 1
/// installed fleet-wide.
pub const WARMUP: u32 = 2;
/// Thread counts for the resident digest-gate legs.
pub const PAR_THREADS: &[usize] = &[2, 4];
/// Amortization gate: a resident home-round must allocate ≤ 1/this of
/// a rebuilt one's bytes (measured 4.22× on churn-miss, 4.45× on
/// churn-hit). The bar was 5 while the record read 32–34×, and 360 448 B
/// of every rebuilt home then was one mirror ring no home writes, which
/// a build no longer reserves.
pub const MIN_BYTES_RATIO: f64 = 3.0;

/// The swept churn arms.
const ARMS: &[Churn] = &[Churn::Quiet, Churn::Miss, Churn::Hit];

/// What the intel feed does during the measured rounds.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Churn {
    /// No new intel: steady state is fully memo-served.
    Quiet,
    /// A novel signature per round for a SKU no home owns.
    Miss,
    /// A novel signature per round for the camera SKU every home owns.
    Hit,
}

impl Churn {
    /// Stable arm label.
    pub fn label(self) -> &'static str {
        match self {
            Churn::Quiet => "quiet",
            Churn::Miss => "churn-miss",
            Churn::Hit => "churn-hit",
        }
    }

    /// The round-`idx` injection for this arm (`None` for quiet).
    /// Every signature is novel (distinct vuln id) so each injection
    /// advances the region epoch by exactly one.
    fn sig(self, idx: u32, cam_sku: &Sku) -> Option<AttackSignature> {
        let sku = match self {
            Churn::Quiet => return None,
            Churn::Miss => Sku::new("e26", "no-such-device", "1"),
            Churn::Hit => cam_sku.clone(),
        };
        Some(AttackSignature::new(
            sku,
            &format!("e26-{}-{idx}", self.label()),
            Matcher::MatchAll,
            Severity::Medium,
        ))
    }
}

/// One arm's results: the rebuild reference plus every other leg.
pub struct ResidentArm {
    /// Which churn pattern.
    pub churn: Churn,
    /// The rebuild reference's cumulative report.
    pub reference: FleetReport,
    /// Serial resident leg's pool stats (deterministic: one worker).
    pub stats: ResidentStats,
    /// Every leg: `rebuild`, `resident`, `resident-rerun`, then one
    /// `resident-parN` per [`PAR_THREADS`]. `identical` compares the
    /// cumulative fleet report (digest included) with the rebuild's;
    /// `cost` covers the steady-state window only, and of its bytes
    /// only the rebuild/resident *ratio* is meaningful.
    pub legs: Vec<Leg>,
}

/// Leg indices in [`ResidentArm::legs`].
const REBUILD: usize = 0;
const RESIDENT: usize = 1;

impl ResidentArm {
    /// Home-rounds served in a leg's steady-state window.
    fn served(&self) -> u64 {
        u64::from(self.reference.homes) * u64::from(ROUNDS)
    }

    /// Steady-state heap bytes per home-round for a leg (volatile).
    fn bytes_per_home_round(&self, leg: &Leg) -> u64 {
        leg.cost.bytes / self.served().max(1)
    }

    /// The rebuild leg's wall over the resident leg's (≥ 1 means
    /// resident is faster). Reported, not gated.
    fn wall_ratio(&self) -> f64 {
        let wall = |leg: usize| self.legs[leg].cost.wall_ms.max(1) as f64;
        wall(REBUILD) / wall(RESIDENT)
    }

    /// The rebuild leg's bytes over the resident leg's (≥ 1 means
    /// resident is lighter).
    fn byte_ratio(&self) -> f64 {
        let bytes = |leg: usize| self.legs[leg].cost.bytes.max(1) as f64;
        bytes(REBUILD) / bytes(RESIDENT)
    }

    /// The amortization verdict for this arm.
    pub fn amortized(&self) -> bool {
        self.byte_ratio() >= MIN_BYTES_RATIO
    }
}

/// Everything E26 measures.
pub struct ResidentBenchReport {
    /// Homes per fleet ([`HOMES`] unless `--homes` overrode it).
    pub homes: u32,
    /// Measured rounds ([`ROUNDS`] unless `--rounds` overrode it).
    pub rounds: u32,
    /// Every arm, in `ARMS` order.
    pub arms: Vec<ResidentArm>,
}

impl ResidentBenchReport {
    /// Every leg of every arm reproduced its rebuild reference.
    pub fn identical(&self) -> bool {
        self.arms.iter().all(|a| a.legs.iter().all(|l| l.identical))
    }

    /// Both churn arms passed the amortization gate. Quiet steady state
    /// is memo-served on both paths, so it carries no claim.
    pub fn amortized(&self) -> bool {
        self.arms.iter().filter(|a| a.churn != Churn::Quiet).all(|a| a.amortized())
    }
}

/// What one driven fleet hands back: the cumulative report (the leg's
/// identity), what the steady-state window cost, and the resident-pool
/// counters at the end.
struct Driven {
    leg: (FleetReport, Cost),
    stats: ResidentStats,
}

/// Drive one fleet through warmup plus `rounds` measured rounds under
/// the arm's churn.
///
/// The injection schedule is phase-shifted so every measured round of a
/// churn arm is *active*: signature `idx` enters the feed one round
/// before measured round `idx` runs, so its epoch installs at the
/// preceding barrier and forces a memo miss.
fn drive(
    mut fleet: Fleet<FleetScenario>,
    churn: Churn,
    cam_sku: &Sku,
    rounds: u32,
    alloc_bytes: &dyn Fn() -> u64,
) -> Driven {
    for g in 0..WARMUP {
        if g + 1 == WARMUP {
            if let Some(sig) = churn.sig(0, cam_sku) {
                fleet.inject_intel(vec![sig]);
            }
        }
        fleet.round();
    }
    let ((), steady) = measured(alloc_bytes, || {
        for r in 0..rounds {
            if let Some(sig) = churn.sig(r + 1, cam_sku) {
                fleet.inject_intel(vec![sig]);
            }
            fleet.round();
        }
    });
    Driven { leg: (fleet.report(), steady), stats: fleet.resident_stats() }
}

fn fleet_cfg(homes: u32, threads: usize) -> FleetConfig {
    FleetConfig { homes, neighborhood: NEIGHBORHOOD, chunk: CHUNK, threads, seed: SEED }
}

/// The camera SKU the churn-hit arm targets.
fn cam_sku(homes: u32) -> Sku {
    FleetScenario::new(homes)
        .discovery(0)
        .expect("the fleet scenario always has a discoverable camera signature")
        .sku
}

/// Run one arm's legs against its rebuild reference.
fn run_arm(churn: Churn, homes: u32, rounds: u32, alloc_bytes: &dyn Fn() -> u64) -> ResidentArm {
    let sku = cam_sku(homes);
    let fleet = |threads: usize| Fleet::new(FleetScenario::new(homes), fleet_cfg(homes, threads));
    let resident = |threads: usize| drive(fleet(threads), churn, &sku, rounds, alloc_bytes);

    let mut rebuild = fleet(1);
    rebuild.set_resident(false);
    let mut legs = Legs::new("rebuild", drive(rebuild, churn, &sku, rounds, alloc_bytes).leg);
    let Driven { leg, stats } = resident(1);
    legs.push("resident".to_string(), 1, leg);
    legs.rerun_and_threads("resident", "resident-par", PAR_THREADS, |t| resident(t).leg);

    ResidentArm { churn, reference: legs.reference, stats, legs: legs.legs }
}

impl Report for ResidentBenchReport {
    fn table(&self) -> Table {
        let mut table = Table::new(
            "E26: resident home worlds — rebuild per home-round vs delta-driven resident",
            &["arm", "leg", "threads", "digest", "identical", "steady wall ms", "bytes/home-round"],
        );
        for a in &self.arms {
            for l in &a.legs {
                table.rowd(&[
                    a.churn.label().to_string(),
                    l.label.clone(),
                    l.threads.to_string(),
                    a.reference.digest_hex(),
                    l.identical.to_string(),
                    l.cost.wall_ms.to_string(),
                    a.bytes_per_home_round(l).to_string(),
                ]);
            }
        }
        table
    }

    fn summary(&self) -> String {
        let hit = self.arms.iter().find(|a| a.churn == Churn::Hit);
        format!(
            "E26 summary: {} homes x {} steady rounds x {} arms, all legs digest-identical: {}, \
             churn-hit resident vs rebuild {:.2}x wall / {:.2}x bytes (gate: bytes \
             >={MIN_BYTES_RATIO}x), serial resident stats {:?}, amortized: {}",
            self.homes,
            self.rounds,
            self.arms.len(),
            self.identical(),
            hit.map_or(0.0, ResidentArm::wall_ratio),
            hit.map_or(0.0, ResidentArm::byte_ratio),
            hit.map(|a| a.stats),
            self.amortized(),
        )
    }

    /// The gate is `identical && amortized`.
    fn passed(&self) -> bool {
        self.identical() && self.amortized()
    }

    /// A stable section (per-arm digest, epoch and memo counters, the
    /// serial resident-stats counters, leg agreement, gate verdicts)
    /// plus the volatile rates and ratios.
    fn record(&self) -> Option<Doc> {
        let arm = |a: &ResidentArm| {
            let r = &a.reference;
            let s = &a.stats;
            Obj::new()
                .field("arm", quoted(a.churn.label()))
                .field("digest", quoted(r.digest_hex()))
                .field("epoch", r.epoch)
                .field("installs", r.installs)
                .field("memo", crate::exp_fleet::memo_json(r))
                .field(
                    "resident_serial",
                    Obj::new()
                        .field("full_builds", s.full_builds)
                        .field("resident_runs", s.resident_runs)
                        .field("delta_installs", s.delta_installs)
                        .field("noop_installs", s.noop_installs)
                        .field("policy_recompiles", s.policy_recompiles)
                        .field("devices_patched", s.devices_patched)
                        .field("devices_kept", s.devices_kept)
                        .field("dropped", s.dropped)
                        .field("ticks_executed", s.ticks_executed)
                        .field("ticks_simulated", s.ticks_simulated),
                )
                .field("legs", list(a.legs.iter().map(Leg::json)))
                // Quiet is memo-served on both paths — its ratios are
                // noise over ~0-cost legs, so it carries no claim.
                .field(
                    "amortized",
                    match a.churn {
                        Churn::Quiet => "null".to_string(),
                        _ => a.amortized().to_string(),
                    },
                )
        };
        let timing = self.arms.iter().flat_map(|a| {
            let label = a.churn.label();
            let legs = a.legs.iter().map(move |l| {
                Obj::new()
                    .field("leg", quoted(format_args!("{label}-{}", l.label)))
                    .field("wall_ms", l.cost.wall_ms)
                    .field("homes_per_sec", fixed(per_sec(a.served(), l.cost.wall_ms), 0))
                    .field("bytes_per_home_round", a.bytes_per_home_round(l))
            });
            let ratio = Obj::new()
                .field("ratio", quoted(label))
                .field("ref_wall_ms", a.legs[REBUILD].cost.wall_ms)
                .field("speedup_vs_rebuild", fixed(a.wall_ratio(), 2))
                .field("bytes_ratio_vs_rebuild", fixed(a.byte_ratio(), 2));
            legs.chain([ratio])
        });
        let doc = Doc::new("BENCH_E26.json")
            .field("experiment", quoted("e26"))
            .field("seed", SEED)
            .field(
                "fleet",
                Obj::new()
                    .field("homes", self.homes)
                    .field("rounds", self.rounds)
                    .field("warmup", WARMUP)
                    .field("neighborhood", NEIGHBORHOOD)
                    .field("chunk", CHUNK),
            )
            .rows("arms", self.arms.iter().map(arm))
            .field("identical", self.identical())
            .field("amortized", self.amortized())
            .field("deterministic", self.identical() && self.amortized())
            .volatile_rows("timing_wall_ms", timing);
        Some(doc)
    }
}

/// E26 — run the arms. `alloc_bytes` reads the process's cumulative
/// heap-bytes counter (see [`crate::report::measured`]). `homes`/`rounds`
/// are the CLI overrides (`--homes N` / `--rounds N`); `None` keeps the
/// committed defaults, which is what the byte-stability gate compares
/// against.
pub fn resident(
    alloc_bytes: &dyn Fn() -> u64,
    homes: Option<u32>,
    rounds: Option<u32>,
) -> ResidentBenchReport {
    let homes = homes.unwrap_or(HOMES);
    let rounds = rounds.unwrap_or(ROUNDS);
    let arms = ARMS.iter().map(|&c| run_arm(c, homes, rounds, alloc_bytes)).collect();
    ResidentBenchReport { homes, rounds, arms }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 24-home miniature of the real arms (the full run lives in
    /// `experiments e26`). Digest equality is the oracle; the
    /// amortization ratios are only meaningful at bench scale.
    #[test]
    fn miniature_arms_are_digest_identical_and_run_resident() {
        for &churn in ARMS {
            let arm = run_arm(churn, 24, 2, &|| 0);
            assert!(arm.legs.iter().all(|l| l.identical), "arm {}", churn.label());
            assert!(arm.stats.resident_runs > 0, "arm {}: {:?}", churn.label(), arm.stats);
            match churn {
                // Measured rounds are memo hits; only warmup executes.
                Churn::Quiet => assert_eq!(arm.stats.delta_installs, 1),
                // Every measured round delta-installs a fresh epoch.
                Churn::Miss | Churn::Hit => {
                    assert!(arm.stats.delta_installs >= 2, "{:?}", arm.stats);
                    assert_eq!(arm.stats.noop_installs, 0);
                }
            }
            if churn == Churn::Hit {
                assert!(arm.stats.devices_patched > 0, "{:?}", arm.stats);
            }
        }
    }

    #[test]
    fn miniature_report_renders_its_record() {
        let report = resident(&|| 0, Some(12), Some(1));
        assert!(report.identical());
        assert_eq!(report.table().len(), ARMS.len() * (3 + PAR_THREADS.len()));
        let json = report.record().expect("E26 always writes a record").render();
        assert!(json.contains("\"experiment\": \"e26\""));
        assert!(json.contains("\"identical\": true"));
        assert!(json.contains("{\"arm\": \"quiet\", "));
    }
}
