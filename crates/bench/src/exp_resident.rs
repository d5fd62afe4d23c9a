//! E26 — resident home worlds: delta-driven fleet rounds, measured.
//!
//! E20 showed the fleet is digest-deterministic; ROADMAP flags its
//! remaining head-room twice: an active round rebuilds every world
//! from scratch (~0.8 MB and the dominant wall-time per home). This
//! experiment measures the whole amortization ladder on identical
//! round streams:
//!
//! * **rebuild-cold** — the from-scratch baseline the fleet started
//!   from: every active home-round is a full [`iotsec_fleet::fleet::HomeWorld::run_home`]
//!   build (no scrap reuse). This is the reference every other leg
//!   must reproduce byte-for-byte, and the baseline the acceptance
//!   ratios are quoted against.
//! * **rebuild-recycled** — the production E25 path: full rebuild per
//!   home-round, but out of the worker's reclaimed network buffers.
//! * **resident** — the E26 mode ([`iotsec_fleet::fleet::Fleet::set_resident`]):
//!   one persistent world per worker, **rebound** to each home
//!   (`(home, seed, intel)` purity makes one machine serve any home)
//!   with intel epochs **delta-installed**
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
//!   splices the camera's signature list (no policy recompile — repo
//!   membership never flips after warmup).
//!
//! Every leg must reproduce the cold reference's chained fleet digest
//! byte-for-byte — the rebuild-equivalence oracle at bench scale. The
//! headline numbers are steady-state homes/sec and heap bytes per
//! home-round; the experiment fails (non-zero exit) unless the churn
//! arms show the resident path ≥3× faster **or** ≥5× lighter per
//! home-round than the from-scratch baseline. The recycled ratios are
//! reported alongside so the resident mode's margin over the already-
//! optimized E25 path stays visible.
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
use iotsec::world::WorldScrap;
use iotsec_fleet::{
    Fleet, FleetConfig, FleetReport, FleetScenario, HomeOutcome, HomeWorld, ResidentStats,
};

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
/// Amortization gate: resident must be ≥ this many times faster than
/// the from-scratch baseline…
pub const MIN_SPEEDUP: f64 = 3.0;
/// …or allocate ≤ 1/this of its bytes per home-round.
pub const MIN_BYTES_RATIO: f64 = 5.0;

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

/// The from-scratch baseline: wraps the real scenario but refuses the
/// recycled build, so every active home-round is a cold
/// [`HomeWorld::run_home`] — the world the fleet ran in before E25's
/// scrap reuse, and the "~0.8 MB per home" the ROADMAP head-room notes
/// point at.
struct ColdRebuild(FleetScenario);

impl HomeWorld for ColdRebuild {
    type Resident = ();

    fn run_home(&self, home: u32, seed: u64, intel: &[AttackSignature]) -> HomeOutcome {
        self.0.run_home(home, seed, intel)
    }

    fn run_home_recycled(
        &self,
        home: u32,
        seed: u64,
        intel: &[AttackSignature],
        _scrap: &mut WorldScrap,
    ) -> HomeOutcome {
        self.0.run_home(home, seed, intel)
    }

    fn discovery(&self, home: u32) -> Option<AttackSignature> {
        self.0.discovery(home)
    }
}

/// One arm's results: the cold reference plus every other leg.
pub struct ResidentArm {
    /// Which churn pattern.
    pub churn: Churn,
    /// The cold rebuild reference's cumulative report.
    pub reference: FleetReport,
    /// Serial resident leg's pool stats (deterministic: one worker).
    pub stats: ResidentStats,
    /// Serial resident leg's `SCRAP` counters (volatile section).
    pub scrap: [u64; 4],
    /// Every leg: `rebuild-cold`, `rebuild-recycled`, `resident`,
    /// `resident-rerun`, then one `resident-parN` per [`PAR_THREADS`].
    /// `identical` compares the cumulative fleet report (digest
    /// included) with the cold rebuild's; `cost` covers the steady-state
    /// window only, and of its bytes only the rebuild/resident *ratio*
    /// is meaningful.
    pub legs: Vec<Leg>,
}

/// Leg indices in [`ResidentArm::legs`].
const COLD: usize = 0;
const RECYCLED: usize = 1;
const RESIDENT: usize = 2;

impl ResidentArm {
    /// Home-rounds served in a leg's steady-state window.
    fn served(&self) -> u64 {
        u64::from(self.reference.homes) * u64::from(ROUNDS)
    }

    /// Steady-state heap bytes per home-round for a leg (volatile).
    fn bytes_per_home_round(&self, leg: &Leg) -> u64 {
        leg.cost.bytes / self.served().max(1)
    }

    /// `base` leg's wall over the resident leg's (≥ 1 means resident is
    /// faster): against [`COLD`] it is the gated speedup, against
    /// [`RECYCLED`] resident's margin over the E25 path.
    fn wall_ratio(&self, base: usize) -> f64 {
        self.legs[base].cost.wall_ms.max(1) as f64 / self.legs[RESIDENT].cost.wall_ms.max(1) as f64
    }

    /// `base` leg's bytes over the resident leg's (≥ 1 means lighter).
    fn byte_ratio(&self, base: usize) -> f64 {
        self.legs[base].cost.bytes.max(1) as f64 / self.legs[RESIDENT].cost.bytes.max(1) as f64
    }

    /// `[wall, bytes]` ratios vs cold, then `[wall, bytes]` vs recycled.
    fn ratios(&self) -> [f64; 4] {
        [
            self.wall_ratio(COLD),
            self.byte_ratio(COLD),
            self.wall_ratio(RECYCLED),
            self.byte_ratio(RECYCLED),
        ]
    }

    /// The amortization verdict for this arm (vs the cold baseline).
    pub fn amortized(&self) -> bool {
        self.wall_ratio(COLD) >= MIN_SPEEDUP || self.byte_ratio(COLD) >= MIN_BYTES_RATIO
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
    /// Every leg of every arm reproduced its cold rebuild reference.
    pub fn identical(&self) -> bool {
        self.arms.iter().all(|a| a.legs.iter().all(|l| l.identical))
    }

    /// Both churn arms passed the amortization gate. Quiet steady state
    /// is memo-served on both paths, so it carries no claim.
    pub fn amortized(&self) -> bool {
        self.arms.iter().filter(|a| a.churn != Churn::Quiet).all(|a| a.amortized())
    }
}

/// The scrap-reuse counters a fleet exports under `fleet.scrap.*`.
const SCRAP: [&str; 4] = ["queue_reused", "queue_cold", "capture_reused", "capture_cold"];

/// What one driven fleet hands back: the cumulative report (the leg's
/// identity), what the steady-state window cost, and the resident-pool
/// and [`SCRAP`] counters at the end.
struct Driven {
    leg: (FleetReport, Cost),
    stats: ResidentStats,
    scrap: [u64; 4],
}

/// Drive one fleet through warmup plus `rounds` measured rounds under
/// the arm's churn.
///
/// The injection schedule is phase-shifted so every measured round of a
/// churn arm is *active*: signature `idx` enters the feed one round
/// before measured round `idx` runs, so its epoch installs at the
/// preceding barrier and forces a memo miss.
fn drive<S: HomeWorld + Sync>(
    mut fleet: Fleet<S>,
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
    let mut reg = trace::MetricsRegistry::new();
    fleet.export_metrics(&mut reg);
    let read = |name: &str| match reg.get(name) {
        Some(trace::registry::MetricValue::Counter(c)) => c,
        _ => 0,
    };
    let scrap = SCRAP.map(|counter| read(&format!("fleet.scrap.{counter}")));
    Driven { leg: (fleet.report(), steady), stats: fleet.resident_stats(), scrap }
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

/// Run one arm's legs against its cold rebuild reference.
fn run_arm(churn: Churn, homes: u32, rounds: u32, alloc_bytes: &dyn Fn() -> u64) -> ResidentArm {
    let sku = cam_sku(homes);
    let production = |resident: bool, threads: usize| {
        let mut fleet = Fleet::new(FleetScenario::new(homes), fleet_cfg(homes, threads));
        fleet.set_resident(resident);
        drive(fleet, churn, &sku, rounds, alloc_bytes)
    };

    let cold = Fleet::new(ColdRebuild(FleetScenario::new(homes)), fleet_cfg(homes, 1));
    let mut legs = Legs::new("rebuild-cold", drive(cold, churn, &sku, rounds, alloc_bytes).leg);
    legs.push("rebuild-recycled".to_string(), 1, production(false, 1).leg);
    let Driven { leg, stats, scrap } = production(true, 1);
    legs.push("resident".to_string(), 1, leg);
    legs.rerun_and_threads("resident", "resident-par", PAR_THREADS, |t| production(true, t).leg);

    ResidentArm { churn, reference: legs.reference, stats, scrap, legs: legs.legs }
}

impl Report for ResidentBenchReport {
    fn table(&self) -> Table {
        let mut table = Table::new(
            "E26: resident home worlds — cold rebuild vs recycled rebuild vs delta-driven resident",
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
        let [wall_cold, bytes_cold, wall_recycled, bytes_recycled] =
            hit.map_or([0.0; 4], ResidentArm::ratios);
        format!(
            "E26 summary: {} homes x {} steady rounds x {} arms, all legs digest-identical: {}, \
             churn-hit vs cold rebuild {:.2}x wall / {:.2}x bytes (gate: >={MIN_SPEEDUP}x or \
             >={MIN_BYTES_RATIO}x), vs recycled rebuild {:.2}x wall / {:.2}x bytes, \
             serial resident stats {:?}, amortized: {}",
            self.homes,
            self.rounds,
            self.arms.len(),
            self.identical(),
            wall_cold,
            bytes_cold,
            wall_recycled,
            bytes_recycled,
            hit.map(|a| a.stats),
            self.amortized(),
        )
    }

    /// The gate is `identical && amortized`.
    fn outcome(&self) -> (u64, f64, bool) {
        let runs = self.arms.iter().map(|a| a.stats.resident_runs).sum();
        (runs, 0.0, self.identical() && self.amortized())
    }

    /// A stable section (per-arm digest, epoch and memo counters, the
    /// serial resident-stats counters, leg agreement, gate verdicts)
    /// plus the volatile rates, ratios and scrap counters.
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
                        .field("dropped", s.dropped),
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
            let [wall_cold, bytes_cold, wall_recycled, bytes_recycled] = a.ratios();
            let ratio = Obj::new()
                .field("ratio", quoted(label))
                .field("ref_wall_ms", a.legs[COLD].cost.wall_ms)
                .field("speedup_vs_cold", fixed(wall_cold, 2))
                .field("bytes_ratio_vs_cold", fixed(bytes_cold, 2))
                .field("speedup_vs_recycled", fixed(wall_recycled, 2))
                .field("bytes_ratio_vs_recycled", fixed(bytes_recycled, 2));
            let scrap = Obj::new()
                .field("scrap", quoted(label))
                .field("res_wall_ms", a.legs[RESIDENT].cost.wall_ms);
            let scrap = SCRAP.iter().zip(a.scrap).fold(scrap, |row, (k, v)| row.field(k, v));
            legs.chain([ratio, scrap])
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
        assert_eq!(report.table().len(), ARMS.len() * (4 + PAR_THREADS.len()));
        let json = report.record().expect("E26 always writes a record").render();
        assert!(json.contains("\"experiment\": \"e26\""));
        assert!(json.contains("\"identical\": true"));
        assert!(json.contains("{\"arm\": \"quiet\", "));
    }
}
