//! E23 — adversarial scenario vetting: a seeded campaign of randomized
//! homes through the defense-on/off differential oracle, plus a
//! weakened-defense arm proving the oracle and shrinker actually bite.
//!
//! The campaign arm generates `SCENARIOS` scenarios from consecutive
//! seeds (correct defense: fail-closed chains, full safety stack) and
//! runs each through `iotsec_fuzz::oracle::run`. The CI vet gate
//! requires:
//!
//! * **zero violations** — the shipping defense holds every E18 + vet
//!   invariant on every generated home;
//! * **zero vacuous passes** — every scenario's attack lands when
//!   undefended, so the passes mean something;
//! * **thread invariance** — per-scenario digests from the parallel
//!   sweep match the serial reference byte for byte;
//! * **reproducibility** — a second serial run matches the first;
//! * **a sharp oracle** — the weakened arm (quarantine escalation
//!   disabled, chains failing open) produces at least one violation,
//!   and every violation shrinks to a small replayable repro.
//!
//! `BENCH_E23.json` records the stable campaign digest and shrink
//! statistics (sim-derived, byte-stable) plus one `wall_ms`-marked
//! volatile line; CI diffs the file with `-I'wall_ms'`.

use crate::report::{quoted, timed, Doc, Obj, Report};
use crate::sweep::run_sweep;
use crate::Table;
use iotsec_fuzz::{generate, oracle, shrink, GenConfig, Verdict, Weakness};
use trace::digest::Fnv64;

/// Campaign width for the correct-defense arm.
pub const SCENARIOS: usize = 200;
/// Campaign width for the weakened-defense arm.
pub const WEAKENED: usize = 12;

/// One shrunk weakened-arm violation, as stable statistics.
pub struct ShrinkStat {
    /// Generator seed of the original scenario.
    pub seed: u64,
    /// The first violated invariant (labels sorted, so deterministic).
    pub invariant: &'static str,
    /// Devices left after shrinking.
    pub devices: usize,
    /// Faults left after shrinking.
    pub faults: usize,
    /// Attack steps left after shrinking.
    pub steps: usize,
    /// Horizon left after shrinking (secs).
    pub horizon_secs: u32,
    /// Defense-on oracle runs the shrink spent.
    pub oracle_runs: u32,
}

/// E23's full result: verdict tallies, gate bits and shrink stats.
pub struct VetReport {
    /// Scenarios in the correct-defense campaign.
    pub scenarios: usize,
    /// Scenarios that passed non-vacuously.
    pub passes: usize,
    /// Scenarios whose undefended attack never landed.
    pub vacuous: usize,
    /// Scenarios where defense-on broke an invariant.
    pub violations: usize,
    /// Parallel sweep digests matched the serial reference.
    pub threads_identical: bool,
    /// A second serial run matched the first.
    pub reproducible: bool,
    /// Worker count of the parallel sweep.
    pub threads: usize,
    /// Violations found in the weakened arm.
    pub weakened_violations: usize,
    /// Shrink statistics, one per weakened violation.
    pub shrinks: Vec<ShrinkStat>,
    /// FNV-1a over the campaign digest lines — the stable fingerprint
    /// committed in `BENCH_E23.json`.
    pub campaign_fingerprint: u64,
    /// Campaign wall time (volatile).
    pub wall_ms: u128,
    seed: u64,
}

impl VetReport {
    /// The CI vet gate: every campaign property held.
    pub fn deterministic(&self) -> bool {
        self.violations == 0
            && self.vacuous == 0
            && self.threads_identical
            && self.reproducible
            && self.weakened_violations > 0
            && self.shrinks.len() == self.weakened_violations
    }

    /// `(devices, faults)` of the largest shrunk repro on each axis.
    fn max_shrunk(&self) -> (usize, usize) {
        let max = |axis: fn(&ShrinkStat) -> usize| self.shrinks.iter().map(axis).max().unwrap_or(0);
        (max(|s| s.devices), max(|s| s.faults))
    }
}

impl Report for VetReport {
    fn table(&self) -> Table {
        let (devices, faults) = self.max_shrunk();
        let mut table = Table::new(
            "E23: adversarial vet campaign — differential oracle over generated homes",
            &["arm", "scenarios", "pass", "vacuous", "violation", "notes"],
        );
        table.rowd(&[
            "correct".to_string(),
            self.scenarios.to_string(),
            self.passes.to_string(),
            self.vacuous.to_string(),
            self.violations.to_string(),
            format!("fingerprint {:016x}", self.campaign_fingerprint),
        ]);
        table.rowd(&[
            "weakened".to_string(),
            WEAKENED.to_string(),
            (WEAKENED - self.weakened_violations).to_string(),
            "-".to_string(),
            self.weakened_violations.to_string(),
            format!("max shrunk: {devices} devices, {faults} faults"),
        ]);
        table
    }

    fn summary(&self) -> String {
        let (devices, faults) = self.max_shrunk();
        format!(
            "E23 summary: {} scenarios — {} pass / {} vacuous / {} violation; \
             threads identical: {}, reproducible: {}; weakened arm: {}/{} violations, \
             all shrunk (max {devices} devices, {faults} faults)",
            self.scenarios,
            self.passes,
            self.vacuous,
            self.violations,
            self.threads_identical,
            self.reproducible,
            self.weakened_violations,
            WEAKENED,
        )
    }

    fn passed(&self) -> bool {
        self.deterministic()
    }

    fn record(&self) -> Option<Doc> {
        let shrunk = |s: &ShrinkStat| {
            Obj::new()
                .field("seed", s.seed)
                .field("invariant", quoted(s.invariant))
                .field("devices", s.devices)
                .field("faults", s.faults)
                .field("steps", s.steps)
                .field("horizon_secs", s.horizon_secs)
                .field("oracle_runs", s.oracle_runs)
        };
        let doc = Doc::new("BENCH_E23.json")
            .field("seed", self.seed)
            .field("scenarios", self.scenarios)
            .field("passes", self.passes)
            .field("vacuous", self.vacuous)
            .field("violations", self.violations)
            .field("campaign_fingerprint", self.campaign_fingerprint)
            .field("threads_identical", self.threads_identical)
            .field("reproducible", self.reproducible)
            .field("weakened_scenarios", WEAKENED)
            .field("weakened_violations", self.weakened_violations)
            .rows("shrinks", self.shrinks.iter().map(shrunk))
            // Wall-clock only, ignored by the CI byte-diff.
            .volatile_field("wall_ms", self.wall_ms);
        Some(doc)
    }
}

/// Per-scenario digest: verdict, violations and both arms' metric
/// summaries. Everything the oracle derives from sim-time, nothing
/// wall-clock — so digests compare across threads and reruns.
fn digest(i: usize, seed: u64, cfg: &GenConfig) -> String {
    let spec = generate(seed, cfg);
    let report = oracle::run(&spec);
    format!(
        "{i} seed={seed} verdict={} violations={:?} on=[{}] off=[{}]",
        report.verdict.label(),
        report.violations,
        report.on_summary,
        report.off_summary
    )
}

/// FNV-1a over the campaign digest lines.
fn fingerprint(digests: &[String]) -> u64 {
    let mut hash = Fnv64::new();
    for d in digests {
        hash.write_bytes(d.as_bytes());
    }
    hash.finish()
}

/// E23 — the vet campaign. `threads` drives the parallel sweep whose
/// digests are checked against the serial reference.
pub fn vet(seed: u64, threads: usize) -> VetReport {
    let (report, wall_ms) = timed(|| campaign(seed, threads));
    VetReport { wall_ms, ..report }
}

fn campaign(seed: u64, threads: usize) -> VetReport {
    let cfg = GenConfig::default();
    let seeds: Vec<u64> = (0..SCENARIOS as u64).map(|i| seed.wrapping_add(i)).collect();

    // Serial reference, parallel sweep, serial rerun — all three must
    // agree line for line.
    let serial = run_sweep(seeds.clone(), 1, |i, s| digest(i, *s, &cfg));
    let parallel = run_sweep(seeds.clone(), threads.max(2), |i, s| digest(i, *s, &cfg));
    let rerun = run_sweep(seeds.clone(), 1, |i, s| digest(i, *s, &cfg));
    let threads_identical = serial == parallel;
    let reproducible = serial == rerun;

    // Every digest line carries exactly one verdict.
    let tally = |verdict: &str| serial.iter().filter(|d| d.contains(verdict)).count();
    let (passes, vacuous) = (tally("verdict=pass"), tally("verdict=vacuous"));
    let violations = SCENARIOS - passes - vacuous;

    // Weakened arm: quarantine escalation off, chains failing open —
    // the oracle must catch it and the shrinker must minimize it.
    let weak_cfg = GenConfig::weakened(Weakness::NoQuarantine);
    let mut weakened_violations = 0;
    let mut shrinks = Vec::new();
    for i in 0..WEAKENED as u64 {
        let wseed = seed.wrapping_add(0x5EED_0000).wrapping_add(i);
        let spec = generate(wseed, &weak_cfg);
        if oracle::run(&spec).verdict != Verdict::Violation {
            continue;
        }
        weakened_violations += 1;
        let repro = shrink(&spec).expect("violating scenario must shrink");
        shrinks.push(ShrinkStat {
            seed: wseed,
            invariant: repro.violations.first().map_or("?", |v| v.invariant),
            devices: repro.spec.devices.len(),
            faults: repro.spec.faults.len(),
            steps: repro.spec.attack.len(),
            horizon_secs: repro.spec.horizon_secs,
            oracle_runs: repro.oracle_runs,
        });
    }

    VetReport {
        scenarios: SCENARIOS,
        passes,
        vacuous,
        violations,
        threads_identical,
        reproducible,
        threads: threads.max(2),
        weakened_violations,
        shrinks,
        campaign_fingerprint: fingerprint(&serial),
        wall_ms: 0,
        seed,
    }
}
