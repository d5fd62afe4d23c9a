//! E18 — runtime safety: fault intensity × overload vs. violations
//! detected, violations prevented, and directives shed.
//!
//! Each cell runs the same smart-home scenario (all Table 1 devices;
//! the campaign bounces repeated DNS-reflection bursts off the smart
//! plug, then sweeps the remaining exploits, ending with a dictionary
//! attack on the camera) at one of three fault intensities, twice: once with the
//! safety layer in **detect-only** mode (same invariants, same budgets,
//! nothing acts on them) and once with the **full** stack (circuit
//! breakers, quarantine escalation, prioritized admission control).
//! Because both arms *measure* violations identically, the difference
//! between them is the number of violations the active machinery
//! prevented.
//!
//! The report doubles as the CI safety gate:
//!
//! * zero-fault cells must record **zero** violations,
//! * no cell may ever shed a quarantine-criticality directive,
//! * at the highest intensity the full stack must record **strictly
//!   fewer** violations than detect-only,
//! * the worst cell must reproduce byte-identically when re-run.
//!
//! Any gate failure flips `deterministic()` to false, which makes the
//! `experiments e18` process exit non-zero.

use crate::report::{fixed, quoted, Doc, Obj, Report};
use crate::Table;
use iotctl::safety::SafetyConfig;
use iotdev::attacker::AttackAuth;
use iotdev::device::DeviceId;
use iotdev::proto::{ControlAction, MgmtCommand};
use iotnet::time::{SimDuration, SimTime};
use iotsec::chaos::ChaosConfig;
use iotsec::defense::Defense;
use iotsec::deployment::{Deployment, StepSpec};
use iotsec::metrics::Metrics;
use iotsec::scenario;
use iotsec::world::World;

/// Fault intensity for one sweep column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Intensity {
    /// Chaos layer attached but nothing scheduled. The safety gate
    /// requires zero violations here.
    Zero,
    /// One µmbox crash while the reflection campaign runs — enough to
    /// open a coverage hole, not enough to trip a breaker.
    Moderate,
    /// Repeated crashes inside the breaker window, a controller outage
    /// past every staleness budget, link flaps, and a delivery channel
    /// squeezed to force overload shedding.
    High,
}

impl Intensity {
    const ALL: [Intensity; 3] = [Intensity::Zero, Intensity::Moderate, Intensity::High];

    fn label(self) -> &'static str {
        match self {
            Intensity::Zero => "zero",
            Intensity::Moderate => "moderate",
            Intensity::High => "high",
        }
    }
}

/// One measured cell of the sweep.
struct Cell {
    intensity: Intensity,
    full: bool,
    metrics: Metrics,
}

impl Cell {
    fn mode(&self) -> &'static str {
        if self.full {
            "full"
        } else {
            "detect-only"
        }
    }

    fn detection_latency_ms(&self) -> f64 {
        let s = &self.metrics.safety;
        if s.detections == 0 {
            0.0
        } else {
            s.detection_latency_ns_total as f64 / s.detections as f64 / 1e6
        }
    }

    fn quarantine_secs(&self) -> f64 {
        self.metrics.safety.quarantine_time_ns as f64 / 1e9
    }
}

/// The scenario every cell shares: the full smart home (every Table 1
/// row plus clean devices), with a campaign paced for the fault
/// schedules below. Repeated DNS-reflection bursts bounce off the smart
/// plug — each burst that crosses a *down* fail-open chain is one
/// coverage-leak tick, so the burst train measures how long a coverage
/// hole stays open. The exploit sweep on the intact devices lands
/// inside the high-intensity controller outage (their detections queue
/// and reconcile as one burst at recovery — the overload that the
/// prioritized channel must shed), and the camera attack runs while the
/// camera's chain is down.
fn deployment(seed: u64) -> (Deployment, DeviceId, DeviceId) {
    let (mut d, v) = scenario::smart_home(Defense::iotsec(), seed);
    let cam = v[0];
    let plug = v[5];
    let mut steps = vec![StepSpec::Wait(SimDuration::from_millis(4500))];
    for _ in 0..5 {
        steps.push(StepSpec::DnsReflect { reflector: plug, queries: 10 });
        steps.push(StepSpec::Wait(SimDuration::from_secs(1)));
    }
    steps.extend([
        StepSpec::Login(v[1], "x", "y"),
        StepSpec::Mgmt(v[1], MgmtCommand::GetConfig),
        StepSpec::Control(v[4], ControlAction::SetPhase(2), AttackAuth::None),
        StepSpec::Cloud(v[6], ControlAction::TurnOff),
        StepSpec::DictionaryLogin(cam),
        StepSpec::Mgmt(cam, MgmtCommand::GetImage),
        StepSpec::DnsReflect { reflector: plug, queries: 40 },
    ]);
    d.campaign(steps);
    (d, cam, plug)
}

/// The fault schedule for one intensity. The high-intensity schedule is
/// built so every invariant has something to catch: a double crash on
/// the plug inside the breaker window, a camera crash, an outage past
/// both staleness budgets, and a long watchdog so detect-only rides the
/// coverage hole for the whole downtime.
fn chaos_for(intensity: Intensity, seed: u64, cam: DeviceId, plug: DeviceId) -> ChaosConfig {
    match intensity {
        Intensity::Zero => ChaosConfig::new().with_seed(seed),
        Intensity::Moderate => {
            let _ = cam;
            ChaosConfig::new()
                .with_seed(seed)
                .with_watchdog(SimDuration::from_secs(10))
                .crash(SimTime::from_secs(4), plug)
        }
        Intensity::High => {
            let mut chaos = ChaosConfig {
                link_flaps: 2,
                horizon: SimDuration::from_secs(30),
                flap_downtime: SimDuration::from_secs(1),
                ..ChaosConfig::default()
            }
            .with_seed(seed)
            .with_watchdog(SimDuration::from_secs(20))
            .crash(SimTime::from_secs(4), plug)
            .crash(SimTime::from_secs(6), plug)
            .crash(SimTime::from_secs(5), cam)
            .outage(SimTime::from_secs(8), SimDuration::from_secs(14));
            // Squeeze the delivery queue so the overload dimension is
            // real: the prioritized channel must shed something, and
            // the gate checks it never sheds quarantine-tier work.
            chaos.delivery.capacity = 1;
            chaos
        }
    }
}

/// The safety configuration for one arm. High-intensity cells also
/// tighten the admission backlog so whole-class recomputes are shed
/// under pressure — in *both* arms, so the violation counts stay
/// comparable.
fn safety_for(full: bool, intensity: Intensity) -> SafetyConfig {
    let mut cfg = if full { SafetyConfig::default() } else { SafetyConfig::detect_only() };
    if intensity == Intensity::High {
        cfg.admission_backlog = 1;
    }
    cfg
}

fn run_cell(intensity: Intensity, full: bool, seed: u64) -> Cell {
    let (mut d, cam, plug) = deployment(seed);
    d.chaos(chaos_for(intensity, seed, cam, plug));
    d.safety(safety_for(full, intensity));
    let mut w = World::new(&d);
    w.run(SimDuration::from_secs(40));
    Cell { intensity, full, metrics: w.report() }
}

/// E18's full result: the intensity × mode sweep, the four gate
/// verdicts, and the headline detected/prevented split.
pub struct SafetyReport {
    /// Both zero-fault cells recorded zero violations.
    pub zero_fault_clean: bool,
    /// No cell shed a quarantine-criticality directive.
    pub no_critical_shed: bool,
    /// At high intensity, full < detect-only violations, strictly.
    pub strict_win: bool,
    /// The worst cell reproduced byte-identically on a second run.
    pub reproducible: bool,
    /// Violations the detect-only baseline recorded at high intensity.
    pub violations_baseline: u64,
    /// Violations the full stack recorded at high intensity.
    pub violations_guarded: u64,
    seed: u64,
    cells: Vec<Cell>,
}

impl SafetyReport {
    /// Violations the active machinery prevented at high intensity.
    pub fn prevented(&self) -> u64 {
        self.violations_baseline.saturating_sub(self.violations_guarded)
    }

    /// The CI gate: every safety property held.
    pub fn deterministic(&self) -> bool {
        self.zero_fault_clean && self.no_critical_shed && self.strict_win && self.reproducible
    }
}

impl Report for SafetyReport {
    fn table(&self) -> Table {
        let mut table = Table::new(
            "E18: fault intensity × overload — detect-only baseline vs full safety stack",
            &[
                "intensity",
                "mode",
                "violations",
                "coverage",
                "staleness",
                "breaker trips",
                "quarantines",
                "t-quarantined",
                "shed",
                "crit shed",
                "admission shed",
                "detect latency",
            ],
        );
        for c in &self.cells {
            let m = &c.metrics;
            let s = &m.safety;
            table.rowd(&[
                c.intensity.label().to_string(),
                c.mode().to_string(),
                s.violations.to_string(),
                s.coverage_violations.to_string(),
                s.staleness_violations.to_string(),
                m.breaker_trips.to_string(),
                s.quarantines.to_string(),
                format!("{:.1}s", c.quarantine_secs()),
                m.delivery.shed.to_string(),
                m.delivery.shed_critical.to_string(),
                m.admission_shed.to_string(),
                format!("{:.1}ms", c.detection_latency_ms()),
            ]);
        }
        table
    }

    fn summary(&self) -> String {
        format!(
            "E18 summary: high-intensity violations {} (detect-only) vs {} (full stack), \
             {} prevented; zero-fault clean: {}, critical shed: {}, reproducible: {}",
            self.violations_baseline,
            self.violations_guarded,
            self.prevented(),
            self.zero_fault_clean,
            if self.no_critical_shed { "none" } else { "SOME" },
            self.reproducible,
        )
    }

    fn passed(&self) -> bool {
        self.deterministic()
    }

    /// Sim-time metrics only — no wall-clock — so the committed file
    /// reproduces byte-identically.
    fn record(&self) -> Option<Doc> {
        let cell = |c: &Cell| {
            let m = &c.metrics;
            let s = &m.safety;
            Obj::new()
                .field("intensity", quoted(c.intensity.label()))
                .field("mode", quoted(c.mode()))
                .field("violations", s.violations)
                .field("coverage", s.coverage_violations)
                .field("staleness", s.staleness_violations)
                .field("monotonicity", s.monotonicity_violations)
                .field("continuity", s.continuity_violations)
                .field("breaker_trips", m.breaker_trips)
                .field("quarantines", s.quarantines)
                .field("quarantine_secs", fixed(c.quarantine_secs(), 1))
                .field("delivery_shed", m.delivery.shed)
                .field("shed_critical", m.delivery.shed_critical)
                .field("admission_shed", m.admission_shed)
                .field("detection_latency_ms", fixed(c.detection_latency_ms(), 1))
        };
        let doc = Doc::new("BENCH_E18.json")
            .field("seed", self.seed)
            .field("zero_fault_clean", self.zero_fault_clean)
            .field("no_critical_shed", self.no_critical_shed)
            .field("strict_win", self.strict_win)
            .field("reproducible", self.reproducible)
            .field("violations_baseline", self.violations_baseline)
            .field("violations_guarded", self.violations_guarded)
            .field("violations_prevented", self.prevented())
            .rows("cells", self.cells.iter().map(cell));
        Some(doc)
    }
}

/// E18 — the safety sweep. Deterministic: driven entirely by sim-time
/// and the given seed.
pub fn safety(seed: u64) -> SafetyReport {
    let mut cells = Vec::new();
    for intensity in Intensity::ALL {
        for full in [false, true] {
            cells.push(run_cell(intensity, full, seed));
        }
    }

    let zero_fault_clean = cells
        .iter()
        .filter(|c| c.intensity == Intensity::Zero)
        .all(|c| c.metrics.safety.violations == 0 && c.metrics.safety.quarantines == 0);
    let no_critical_shed = cells.iter().all(|c| c.metrics.delivery.shed_critical == 0);
    let baseline = cells
        .iter()
        .find(|c| c.intensity == Intensity::High && !c.full)
        .expect("sweep always has the high/detect-only cell");
    let guarded = cells
        .iter()
        .find(|c| c.intensity == Intensity::High && c.full)
        .expect("sweep always has the high/full cell");
    let violations_baseline = baseline.metrics.safety.violations;
    let violations_guarded = guarded.metrics.safety.violations;
    let strict_win = violations_guarded < violations_baseline;
    let replay = run_cell(Intensity::High, true, seed);
    let reproducible = format!("{:?}", replay.metrics) == format!("{:?}", guarded.metrics);

    SafetyReport {
        zero_fault_clean,
        no_critical_shed,
        strict_win,
        reproducible,
        violations_baseline,
        violations_guarded,
        seed,
        cells,
    }
}
